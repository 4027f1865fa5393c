import numpy as np

import gmmfad
from gmmfad import _kernels, linops
from gmmfad.linops import WeightedCovOperator

from .helpers import dense_weighted_cov, traced_peak


def _instances(rng, cases=((7, 3), (40, 12), (13, 60))):
    for n, p in cases:
        y = rng.standard_normal((n, p))
        w = rng.uniform(0.0, 1.0, size=n)
        w[rng.integers(0, n)] = 0.0  # zero weights must be harmless
        center = (w @ y) / w.sum()
        v = rng.standard_normal(p)
        yield y, w, center, v


def test_operator_matvec_matches_dense_loop_oracle(rng):
    # the operator's single product is the block kernel's one-column case
    for y, w, _, v in _instances(rng):
        op = WeightedCovOperator(y, w)
        want = dense_weighted_cov(y, w, op.center) @ v
        np.testing.assert_allclose(op.matvec(v), want, rtol=1e-10, atol=1e-12)


def test_wcov_matmat_equals_stacked_scaled_matvecs(rng):
    # the kernel is the unscaled product; linops._product applies the scale
    for y, w, center, _ in _instances(rng):
        p = y.shape[1]
        block = rng.standard_normal((p, 4))
        scale = rng.uniform(0.5, 2.0, p)
        dense = dense_weighted_cov(y, w, center)
        got = _kernels.wcov_matmat(y, w, center, block, w.sum())
        np.testing.assert_allclose(got, dense @ block, rtol=1e-10, atol=1e-12)
        op = WeightedCovOperator(y, w)
        want = np.column_stack([scale * (dense @ (scale * v)) for v in block.T])
        np.testing.assert_allclose(linops._product(op, scale, block), want,
                                   rtol=1e-10, atol=1e-12)


def test_wcov_gram_factors_the_scaled_scatter(rng):
    # X^T X is the whitened scatter D S D and the Gram matrix is X X^T
    for y, w, center, _ in _instances(rng):
        p = y.shape[1]
        scale = rng.uniform(0.5, 2.0, p)
        x, gram = _kernels.wcov_gram(y, w, center, scale, w.sum())
        dense = dense_weighted_cov(y, w, center)
        np.testing.assert_allclose(x.T @ x, scale[:, None] * dense * scale,
                                   rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(gram, x @ x.T, rtol=1e-12, atol=1e-14)


def test_weighted_stats_matches_direct_formulas(rng):
    # the second moment is the centred one, the diagonal of the scatter
    for y, w, _, _ in _instances(rng):
        mean, m2 = _kernels.weighted_stats(y, w, float(np.sum(w)))
        np.testing.assert_allclose(mean, (w @ y) / w.sum(), rtol=1e-12)
        np.testing.assert_allclose(m2, w @ (y - mean) ** 2 / w.sum(), rtol=1e-12)


def test_row_blocks_cover_the_rows_in_order(monkeypatch):
    y = np.zeros((1000, 7))
    for block_bytes in (0, 8 * 7 * 100, 2**62):
        monkeypatch.setattr(_kernels, "BLOCK_BYTES", block_bytes)
        blocks = list(_kernels.row_blocks(y))
        assert blocks[0].start == 0 and blocks[-1].stop == 1000
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        # whole row tiles, within the byte budget when a tile fits in it
        sizes = [b.stop - b.start for b in blocks[:-1]]
        assert all(s % _kernels._ROW_TILE == 0 for s in sizes)
        assert all(s * 7 * 8 <= max(block_bytes, 7 * 8 * _kernels._ROW_TILE)
                   for s in sizes)


def test_row_passes_agree_across_block_sizes(rng, monkeypatch):
    # a ragged row count, so the last block is short, and some zero weights
    y = rng.standard_normal((1003, 9)) + 5.0
    w = rng.uniform(0.0, 1.0, 1003)
    w[rng.choice(1003, 50, replace=False)] = 0.0
    block = rng.standard_normal((9, 4))

    def passes():
        mean, m2 = _kernels.weighted_stats(y, w, float(np.sum(w)))
        scatter = linops.dense_scatter(y, w, mean, float(np.sum(w)))
        product = _kernels.wcov_matmat(y, w, mean, block, float(np.sum(w)))
        return np.concatenate([mean, m2, scatter.ravel(), product.ravel()])

    monkeypatch.setattr(_kernels, "BLOCK_BYTES", 0)
    blocked = passes()
    monkeypatch.setattr(_kernels, "BLOCK_BYTES", 2**62)
    np.testing.assert_allclose(blocked, passes(), rtol=1e-12)


def test_wcov_matmat_holds_no_n_by_b_temporary(rng):
    # the product walks row blocks: its peak stays below one n x b array
    n, p, b = 20000, 100, 20
    y = rng.standard_normal((n, p))
    w = rng.uniform(0.0, 1.0, n)
    center = (w @ y) / w.sum()
    block = rng.standard_normal((p, b))
    peak = traced_peak(lambda: _kernels.wcov_matmat(y, w, center, block, w.sum()))
    assert peak < n * b * 8


def _grow_once(y, w, center, v, m):
    p = y.shape[1]
    basis = np.zeros((p, m), order="F")
    images = np.zeros((p, m), order="F")
    filled = _kernels.lanczos_grow(
        y, w, center, np.ones(p), w.sum(), basis, images, 0, v.copy()
    )
    return filled, basis, images


def test_lanczos_grow_builds_orthonormal_krylov_columns(rng):
    for y, w, center, v in _instances(rng):
        p = y.shape[1]
        m = min(p - 1, 6)
        filled, basis, images = _grow_once(y, w, center, v, m)
        assert filled == m
        np.testing.assert_allclose(
            basis.T @ basis, np.eye(m), rtol=0, atol=1e-10
        )
        dense = dense_weighted_cov(y, w, center)
        np.testing.assert_allclose(images, dense @ basis, rtol=1e-9, atol=1e-11)


def test_lanczos_grow_stops_on_dependent_direction(rng):
    y, w, center, _ = next(iter(_instances(rng)))
    p = y.shape[1]
    basis = np.zeros((p, 3), order="F")
    images = np.zeros((p, 3), order="F")
    basis[:, 0] = np.eye(p)[0]
    images[:, 0] = dense_weighted_cov(y, w, center)[:, 0]
    filled = _kernels.lanczos_grow(
        y, w, center, np.ones(p), w.sum(), basis, images, 1, basis[:, 0].copy()
    )
    assert filled == 1  # the pending direction already lies in the span


def test_backend_name_is_numpy():
    assert gmmfad.backend_name() == "numpy"
