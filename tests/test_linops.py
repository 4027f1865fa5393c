import numpy as np
import pytest

from gmmfad import _kernels, linops
from gmmfad.ecm import FitConfig, fit_baseline_aecm
from gmmfad.linops import (
    DENSE_THRESHOLD,
    DegenerateWeights,
    DenseAllocationError,
    DenseSymOperator,
    EigPairs,
    InvalidRank,
    NoConvergence,
    WeightedCovOperator,
    forbid_dense_above,
    top_eigenpairs,
)
from gmmfad.model import DataMatrix

from .helpers import (
    dense_weighted_cov,
    make_rng,
    random_spd,
    subspace_angle,
    traced_peak,
)


# ------------------------------------------------------- WeightedCovOperator


def test_apply_matches_dense_covariance_oracle(rng):
    for p in (3, 11, 20):
        y = rng.standard_normal((25, p))
        w = np.ones(25)
        op = WeightedCovOperator(y, w)
        np.testing.assert_allclose(op.center, y.mean(axis=0), rtol=1e-12)
        for _ in range(5):
            v = rng.standard_normal(p)
            want = dense_weighted_cov(y, w, op.center) @ v
            np.testing.assert_allclose(op.matvec(v), want, atol=1e-10)


def test_apply_zero_vector_is_zero(rng):
    y = rng.standard_normal((12, 6))
    op = WeightedCovOperator(y, rng.uniform(0.1, 1.0, 12))
    np.testing.assert_array_equal(op.matvec(np.zeros(6)), np.zeros(6))


def test_apply_two_weights_is_rank_one_action(rng):
    # about their weighted mean, two weighted rows a, b scatter along a - b
    # with mass w_a w_b / (w_a + w_b)^2
    y = rng.standard_normal((9, 5))
    w = np.zeros(9)
    w[2], w[6] = 0.3, 0.9
    op = WeightedCovOperator(y, w)
    d = y[2] - y[6]
    v = rng.standard_normal(5)
    np.testing.assert_allclose(op.matvec(v), 0.3 * 0.9 / 1.2**2 * d * (d @ v),
                               atol=1e-12)


def test_dense_scatter_single_weight_about_any_centre(rng):
    y = rng.standard_normal((9, 5))
    w = np.zeros(9)
    w[4] = 1.0
    center = rng.standard_normal(5)
    d = y[4] - center
    got = linops.dense_scatter(y, w, center, 1.0)
    np.testing.assert_allclose(got, dense_weighted_cov(y, w, center), atol=1e-12)
    np.testing.assert_allclose(got, np.outer(d, d), atol=1e-12)


def test_weighted_center_defaults_to_weighted_mean(rng):
    y = rng.standard_normal((30, 8))
    w = rng.uniform(0.0, 1.0, 30)
    op = WeightedCovOperator(y, w)
    np.testing.assert_allclose(op.center, (w @ y) / w.sum(), rtol=1e-12)
    v = rng.standard_normal(8)
    want = dense_weighted_cov(y, w, op.center) @ v
    np.testing.assert_allclose(op.matvec(v), want, atol=1e-10)


def test_operator_diag_matches_dense(rng):
    y = rng.standard_normal((20, 7))
    w = rng.uniform(0.1, 1.0, 20)
    op = WeightedCovOperator(y, w)
    np.testing.assert_allclose(op.diag(), np.diag(dense_weighted_cov(y, w, op.center)),
                               rtol=1e-10)


def _with_zero_weights(rng, n, p, n_zero):
    y = rng.standard_normal((n, p))
    w = rng.uniform(0.05, 1.0, n)
    w[rng.choice(n, size=n_zero, replace=False)] = 0.0
    return y, w


@pytest.mark.parametrize("n, n_zero", [(200, 150), (300, 100)])
def test_products_run_exactly_over_the_weighted_rows(n, n_zero):
    # 50 weighted rows of p = 100 take the Lanczos, 200 the block solver; a
    # zero-weight row adds exact zeros, so both agree with the weighted rows
    rng = make_rng(n)
    p = 100
    y, w = _with_zero_weights(rng, n, p, n_zero)
    full = WeightedCovOperator(y, w)
    kept = WeightedCovOperator(y[w > 0], w[w > 0])
    assert full.n_rows == kept.n_rows == n - n_zero
    v = rng.standard_normal(p)
    np.testing.assert_allclose(full.matvec(v), kept.matvec(v), rtol=0, atol=1e-12)
    block = rng.standard_normal((p, 6))
    scale = rng.uniform(0.5, 2.0, p)
    for s in (None, scale):
        d = np.ones(p) if s is None else s
        np.testing.assert_allclose(linops._product(full, d, block),
                                   linops._product(kept, d, block),
                                   rtol=0, atol=1e-12)
        pa = top_eigenpairs(full, 3, scale=s, dense_threshold=0)
        pb = top_eigenpairs(kept, 3, scale=s, dense_threshold=0)
        np.testing.assert_allclose(pa.values, pb.values, rtol=0, atol=1e-12)
        signs = np.sign(np.sum(pa.vectors * pb.vectors, axis=0))
        np.testing.assert_allclose(pa.vectors, pb.vectors * signs, rtol=0, atol=1e-12)


def test_the_operator_keeps_only_its_weighted_rows(rng):
    y, w = _with_zero_weights(rng, 60, 70, 40)
    op = WeightedCovOperator(y, w)
    # from construction on, the 20 rows of non-zero weight, in order
    assert op.n_rows == 20
    np.testing.assert_array_equal(op._y, y[w > 0])
    np.testing.assert_array_equal(op._w, w[w > 0])
    kept = WeightedCovOperator(y[w > 0], w[w > 0])
    np.testing.assert_allclose(op.center, kept.center, rtol=0, atol=1e-12)
    np.testing.assert_allclose(op.diag(), kept.diag(), rtol=0, atol=1e-12)
    np.testing.assert_allclose(op.to_dense(), dense_weighted_cov(y, w, op.center),
                               rtol=0, atol=1e-12)
    positive = WeightedCovOperator(y, rng.uniform(0.05, 1.0, 60))
    assert np.shares_memory(positive._y, y) and positive.n_rows == 60
    # the dense path reads the rows in place, zero weights and all
    small = np.ascontiguousarray(y[:, :DENSE_THRESHOLD])
    assert WeightedCovOperator(small, w)._y is small


def _whitened(op, scale):
    # the dense reference of a solve given ``scale``: D A D, D = diag(scale)
    return scale[:, None] * op.to_dense() * scale[None, :]


def _protocol_operators(rng, p=12):
    # (operator, scale of the solve): None solves the operator itself
    y, w = _with_zero_weights(rng, 30, p, 10)
    scatter = WeightedCovOperator(y, w)
    dense = DenseSymOperator(matrix=random_spd(p, rng))
    scale = rng.uniform(0.5, 2.0, p)
    return {
        "weighted": (scatter, None),
        "scaled_weighted": (scatter, scale),
        "dense": (dense, None),
        "scaled_dense": (dense, scale),
    }


@pytest.mark.parametrize(
    "kind", ["weighted", "scaled_weighted", "dense", "scaled_dense"]
)
def test_every_operator_answers_matmat_and_a_guarded_to_dense(kind):
    # the solve's product D A D block agrees with its dense reference, and
    # the dense route of the solve, scaled or not, is guard-checked
    rng = make_rng(17)
    op, scale = _protocol_operators(rng)[kind]
    assert op.p == 12
    block = rng.standard_normal((12, 5))
    if scale is None:
        np.testing.assert_allclose(op.matmat(block), op.to_dense() @ block,
                                   rtol=1e-12, atol=1e-12)
    else:
        np.testing.assert_allclose(linops._product(op, scale, block),
                                   _whitened(op, scale) @ block,
                                   rtol=1e-12, atol=1e-12)
    with forbid_dense_above(11):
        with pytest.raises(DenseAllocationError):
            op.to_dense()
        with pytest.raises(DenseAllocationError):
            top_eigenpairs(op, 3, scale=scale)


def test_degenerate_weights_raise(rng):
    y = rng.standard_normal((10, 4))
    with pytest.raises(DegenerateWeights):
        WeightedCovOperator(y, np.zeros(10))
    with pytest.raises(DegenerateWeights):
        WeightedCovOperator(y, np.full(10, 1e-12))


def test_dimension_mismatch_rejected(rng):
    y = rng.standard_normal((10, 4))
    op = WeightedCovOperator(y, np.ones(10))
    with pytest.raises(ValueError):
        op.matvec(np.zeros(5))


# ------------------------------------------------------------ the solve's scale


def test_scaled_operator_whitens(rng):
    # scale = psi^{-1/2} solves Psi^{-1/2} S Psi^{-1/2}, on the dense route
    # and on the block solver's product
    y = rng.standard_normal((40, 9))
    w = rng.uniform(0.1, 1.0, 40)
    base = WeightedCovOperator(y, w)
    psi = rng.uniform(0.2, 0.8, 9)
    scale = 1.0 / np.sqrt(psi)
    sig = dense_weighted_cov(y, w, base.center)
    dense_g = sig / np.sqrt(np.outer(psi, psi))
    v = rng.standard_normal(9)
    np.testing.assert_allclose(linops._product(base, scale, v[:, None])[:, 0],
                               dense_g @ v, atol=1e-10)
    want = np.linalg.eigvalsh(dense_g)[::-1][:4]
    for threshold in (None, 0):
        pairs = top_eigenpairs(base, 4, scale=scale, dense_threshold=threshold,
                               tol=1e-10)
        np.testing.assert_allclose(pairs.values, want, rtol=1e-9)


def test_scale_of_the_wrong_length_rejected(rng):
    scatter = WeightedCovOperator(rng.standard_normal((40, 90)), np.ones(40))
    dense = DenseSymOperator(matrix=random_spd(9, rng))
    for op in (scatter, dense):
        for bad in (np.ones(op.p - 1), np.ones(op.p + 1), np.ones((op.p, 1)),
                    2.0):
            for threshold in (None, 0):
                with pytest.raises(ValueError, match="scale"):
                    top_eigenpairs(op, 3, scale=bad, dense_threshold=threshold)


def test_scaled_eigenvalues_invariant_to_row_order(rng):
    y = rng.standard_normal((30, 12))
    w = rng.uniform(0.1, 1.0, 30)
    psi = rng.uniform(0.2, 0.8, 12)
    perm = rng.permutation(30)

    def eigs(yy, ww):
        return top_eigenpairs(WeightedCovOperator(yy, ww), 4,
                              scale=1.0 / np.sqrt(psi), dense_threshold=0,
                              tol=1e-10).values

    np.testing.assert_allclose(eigs(y, w), eigs(y[perm], w[perm]), rtol=1e-8)


# ------------------------------------------------------------- top_eigenpairs


def test_diagonal_case_exact():
    op = DenseSymOperator(matrix=np.diag([5.0, 4.0, 3.0, 2.0, 1.0]))
    pairs = top_eigenpairs(op, 2, dense_threshold=0, tol=1e-10)
    np.testing.assert_allclose(pairs.values, [5.0, 4.0], atol=1e-9)
    # vectors are +-e_1, +-e_2: the solver promises no sign
    np.testing.assert_allclose(np.abs(pairs.vectors),
                               np.eye(5)[:, :2], atol=1e-7)


def test_random_spd_matches_dense_oracle(rng):
    for trial in range(10):
        p, q = 40, 5
        a = random_spd(p, rng, gap_at=q)
        want_vals, want_vecs = np.linalg.eigh(a)
        want_vals = want_vals[::-1][:q]
        want_vecs = want_vecs[:, ::-1][:, :q]
        pairs = top_eigenpairs(DenseSymOperator(matrix=a), q,
                               dense_threshold=0, tol=1e-9)
        np.testing.assert_allclose(pairs.values, want_vals, atol=1e-8)
        assert subspace_angle(pairs.vectors, want_vecs) < 1e-6


def _scatter(rng, n, p, factors=0):
    # weighted scatter of n rows; ``factors`` plants that many strong
    # directions over unit noise
    y = rng.standard_normal((n, p))
    if factors:
        loadings = 3.0 * rng.standard_normal((factors, p))
        y += rng.standard_normal((n, factors)) @ loadings
    return WeightedCovOperator(y, rng.uniform(0.05, 1.0, n))


def test_weighted_cov_eigs_match_dense_assembly_p150(rng):
    # 2n <= p runs the Lanczos, 2n > p the block subspace iteration
    q = 4
    for n, p in ((70, 150), (300, 150)):
        op = _scatter(rng, n, p)
        scale = rng.uniform(0.5, 2.0, p)
        for s in (None, scale):
            pairs = top_eigenpairs(op, q, scale=s, dense_threshold=0, tol=1e-10)
            dense_vals, dense_vecs = np.linalg.eigh(
                op.to_dense() if s is None else _whitened(op, s))
            np.testing.assert_allclose(pairs.values, dense_vals[::-1][:q],
                                       atol=1e-6)
            assert subspace_angle(pairs.vectors, dense_vecs[:, ::-1][:, :q]) < 1e-6


def test_eigpairs_invariants_hold(rng):
    # every pair meets its own residual bound, and the vectors stay
    # orthonormal across restarts, on both iterative solvers: the block
    # solver for an explicit matrix and for scatters of 2n > p rows, the
    # Lanczos for scatters of 2n <= p rows
    tol = 1e-8
    p, q = 60, 6
    ops = [DenseSymOperator(matrix=random_spd(p, rng, eig_low=0.5,
                                              eig_high=30.0))
           for _ in range(5)]
    ops += [_scatter(rng, 200, p) for _ in range(10)]
    ops += [_scatter(rng, n, p) for n in (20, 30, 31, 59, 60) for _ in range(10)]
    for op in ops:
        a = op.to_dense()
        pairs = top_eigenpairs(op, q, dense_threshold=0, tol=tol)
        v = pairs.vectors
        assert np.max(np.abs(v.T @ v - np.eye(q))) <= 1e-8
        assert np.all(np.diff(pairs.values) <= 1e-12)
        for j in range(q):
            res = np.linalg.norm(a @ v[:, j] - pairs.values[j] * v[:, j])
            assert res <= tol * max(1.0, pairs.values[j])


def test_value_prefix_nesting(rng):
    p = 50
    a = random_spd(p, rng)
    op = DenseSymOperator(matrix=a)
    small = top_eigenpairs(op, 3, dense_threshold=0, tol=1e-10)
    large = top_eigenpairs(op, 4, dense_threshold=0, tol=1e-10)
    np.testing.assert_allclose(small.values, large.values[:3], rtol=1e-8)


def test_warm_start_subspace_converges_fast(rng, monkeypatch):
    p, q = 80, 5
    dense = DenseSymOperator(matrix=random_spd(p, rng, gap_at=q))
    scatter = _scatter(rng, 400, p, factors=q)  # n > p: block path
    for op in (dense, scatter):
        cold = top_eigenpairs(op, q, dense_threshold=0, tol=1e-10)
        # a converged p x q block is already an invariant subspace
        with monkeypatch.context() as m:
            m.setattr(linops, "MAX_RESTARTS", 1)
            warm = top_eigenpairs(op, q, dense_threshold=0, tol=1e-10,
                                  v0=cold.vectors)
        np.testing.assert_allclose(warm.values, cold.values, rtol=1e-9)
        one = top_eigenpairs(op, q, dense_threshold=0, tol=1e-10,
                             v0=cold.vectors[:, 0])
        np.testing.assert_allclose(one.values, cold.values, rtol=1e-9)


def test_overspecified_rank_small_gap_meets_residual_bound(rng):
    # q = 7 over data with 3 planted factors: the pairs past the third sit
    # in the noise bulk, where neighbouring eigenvalues nearly coincide
    n, p, q, tol = 500, 120, 7, 1e-8
    op = _scatter(rng, n, p, factors=3)
    scale = rng.uniform(0.5, 2.0, p)
    a = _whitened(op, scale)
    pairs = top_eigenpairs(op, q, scale=scale, dense_threshold=0, tol=tol)
    v = pairs.vectors
    assert np.max(np.abs(v.T @ v - np.eye(q))) <= 1e-8
    assert np.all(np.diff(pairs.values) <= 0)
    res = np.linalg.norm(a @ v - v * pairs.values, axis=0)
    assert np.all(res <= tol * max(1.0, pairs.values[0]))
    np.testing.assert_allclose(pairs.values, np.linalg.eigvalsh(a)[::-1][:q],
                               rtol=1e-8)


@pytest.mark.parametrize("n", [12, 40, 200], ids=["gram", "lanczos", "block"])
def test_warm_blocks_need_not_be_orthonormal(rng, n):
    # n_s = 12 <= min(p, 2q + 10) = 18 runs the Gram solve, which ignores the
    # warm blocks; 2 n_s = 80 <= p runs the Lanczos, 2 n_s = 400 > p the
    # block solver; each starts from warm blocks whose QR has a zero pivot,
    # and from columns scaled like whitened loadings, 1e-3 to 1e3, with one
    # zero column
    p, q, tol = 150, 4, 1e-8
    op = _scatter(rng, n, p)
    scale = rng.uniform(0.5, 2.0, p)
    a = _whitened(op, scale)
    want = np.linalg.eigvalsh(a)[::-1][:q]
    cols = rng.standard_normal((p, q))
    zero_column = cols.copy()
    zero_column[:, 1] = 0.0
    scaled = cols * np.logspace(-3, 3, q)
    scaled[:, 2] = 0.0
    for warm in (cols[:, [0, 1, 1, 2]], zero_column, np.zeros((p, q)), scaled):
        pairs = top_eigenpairs(op, q, scale=scale, dense_threshold=0, tol=tol,
                               v0=warm)
        v = pairs.vectors
        np.testing.assert_allclose(pairs.values, want, rtol=0, atol=1e-8)
        assert np.max(np.abs(v.T @ v - np.eye(q))) <= 1e-8
        res = np.linalg.norm(a @ v - v * pairs.values, axis=0)
        assert np.all(res <= tol * np.maximum(1.0, pairs.values))


def test_solve_is_deterministic_across_breakdown_reseeds(rng, monkeypatch):
    # 24 rows, more than the min(p, 2q + 10) = 16 columns of the Lanczos
    # basis, drawn from 8 directions: the centred scatter has rank at most 8,
    # so growing the basis breaks down and reseeds from the generator
    p, q = 120, 3
    y = rng.standard_normal((24, 8)) @ rng.standard_normal((8, p))
    op = WeightedCovOperator(y, rng.uniform(0.05, 1.0, 24))
    assert op.n_rows > min(p, 2 * q + 10) and 2 * op.n_rows <= p
    breakdowns = []
    grow = _kernels.lanczos_grow

    def watched(*args):
        filled = grow(*args)
        breakdowns.append(filled < args[5].shape[1])
        return filled

    monkeypatch.setattr(_kernels, "lanczos_grow", watched)
    first = top_eigenpairs(op, q, dense_threshold=0)
    second = top_eigenpairs(op, q, dense_threshold=0)
    assert any(breakdowns)
    np.testing.assert_array_equal(first.values, second.values)
    np.testing.assert_array_equal(first.vectors, second.vectors)


def test_gram_solve_completes_the_null_space_orthonormally(rng):
    # 6 rows of 2 distinct points scatter along one direction: past the
    # first, every eigenvalue of the Gram matrix is rounding, which the
    # solve must neither divide by nor report
    p, q = 120, 3
    points = rng.standard_normal((2, p))
    op = WeightedCovOperator(points[[0, 1, 0, 1, 0, 1]], rng.uniform(0.2, 1.0, 6))
    scale = rng.uniform(0.5, 2.0, p)
    a = _whitened(op, scale)
    pairs = top_eigenpairs(op, q, scale=scale, dense_threshold=0)
    v = pairs.vectors
    assert np.all(np.isfinite(v)) and np.all(np.isfinite(pairs.values))
    assert np.max(np.abs(v.T @ v - np.eye(q))) <= 1e-10
    want = np.linalg.eigvalsh(a)[::-1][:q]
    np.testing.assert_allclose(pairs.values, want, rtol=0, atol=1e-10 * want[0])
    res = np.linalg.norm(a @ v - v * pairs.values, axis=0)
    assert np.all(res <= 1e-10 * want[0])
    again = top_eigenpairs(op, q, scale=scale, dense_threshold=0)
    np.testing.assert_array_equal(pairs.values, again.values)
    np.testing.assert_array_equal(pairs.vectors, again.vectors)


def test_scatter_solver_follows_the_data_shape(rng, monkeypatch):
    # a scatter of n_s <= min(p, 2q + 10) weighted rows takes the Gram
    # kernel alone; one of more rows but 2 n_s <= p reaches the Lanczos
    # growth kernel; 2 n_s > p, and an operator that is not a scatter, reach
    # only the block solver
    calls = {"lanczos_grow": 0, "wcov_matmat": 0, "_block_eigpairs": 0,
             "wcov_gram": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(_kernels, "lanczos_grow")
    counted(_kernels, "wcov_matmat")
    counted(_kernels, "wcov_gram")
    counted(linops, "_block_eigpairs")
    # 16 rows at q = 3 fill the 16-column basis exactly: the Gram solve
    top_eigenpairs(_scatter(rng, 16, 120), 3, dense_threshold=0)
    top_eigenpairs(_scatter(rng, 16, 120), 3, scale=np.full(120, 2.0),
                   dense_threshold=0)
    assert calls == {"lanczos_grow": 0, "wcov_matmat": 0, "_block_eigpairs": 0,
                     "wcov_gram": 2}
    calls.update(wcov_gram=0)
    # 30 rows are more than the basis width 16 at q = 3, and at most p / 2
    top_eigenpairs(_scatter(rng, 30, 120), 3, dense_threshold=0)
    assert calls["lanczos_grow"] > 0 and calls["_block_eigpairs"] == 0
    assert calls["wcov_gram"] == 0
    calls.update(lanczos_grow=0, wcov_matmat=0)
    top_eigenpairs(_scatter(rng, 300, 120), 3, dense_threshold=0)
    assert calls["lanczos_grow"] == 0 and calls["wcov_matmat"] > 0
    assert calls["_block_eigpairs"] == 1
    calls.update(wcov_matmat=0, _block_eigpairs=0)
    # the count that decides is of rows with non-zero weight: 100 of 300
    # rows is more than p / 2, 60 of 300 is not
    top_eigenpairs(WeightedCovOperator(*_with_zero_weights(rng, 300, 120, 200)),
                   3, dense_threshold=0)
    assert calls["lanczos_grow"] == 0 and calls["_block_eigpairs"] == 1
    calls.update(wcov_matmat=0, _block_eigpairs=0)
    top_eigenpairs(WeightedCovOperator(*_with_zero_weights(rng, 300, 120, 240)),
                   3, dense_threshold=0)
    assert calls["lanczos_grow"] > 0 and calls["_block_eigpairs"] == 0
    calls.update(lanczos_grow=0, wcov_matmat=0)
    explicit = DenseSymOperator(matrix=random_spd(120, rng, gap_at=3))
    top_eigenpairs(explicit, 3, dense_threshold=0)
    assert calls == {"lanczos_grow": 0, "wcov_matmat": 0, "_block_eigpairs": 1,
                     "wcov_gram": 0}


def test_invalid_rank_rejected(rng):
    op = DenseSymOperator(matrix=np.eye(4))
    with pytest.raises(InvalidRank):
        top_eigenpairs(op, 4)
    with pytest.raises(InvalidRank):
        top_eigenpairs(op, 0)


def test_no_convergence_carries_diagnostics(rng, monkeypatch):
    monkeypatch.setattr(linops, "MAX_RESTARTS", 1)
    p = 70
    for op in (DenseSymOperator(matrix=random_spd(p, rng)),
               _scatter(rng, 200, p)):
        with pytest.raises(NoConvergence) as exc:
            top_eigenpairs(op, 3, dense_threshold=0, tol=1e-14)
        assert exc.value.n_restarts == 1
        assert exc.value.residuals.shape == (3,)


def test_dense_path_used_below_threshold(rng):
    a = random_spd(10, rng)
    pairs = top_eigenpairs(DenseSymOperator(matrix=a), 3, dense_threshold=64)
    want = np.linalg.eigvalsh(a)[::-1][:3]
    np.testing.assert_allclose(pairs.values, want, rtol=1e-12)


# ------------------------------------------------------------ allocation guard


def test_forbid_dense_above_blocks_materialization(rng):
    y = rng.standard_normal((10, 100))
    op = WeightedCovOperator(y, np.ones(10))
    data = DataMatrix(values=y)
    config = FitConfig(n_components=1, factor_spec=1, n_random_starts=1,
                       n_finalists=1, max_iter=2)
    with forbid_dense_above(64):
        # matrix-free application stays allowed
        op.matvec(np.zeros(100))
        with pytest.raises(DenseAllocationError):
            op.to_dense()
        # the AECM baseline's scatter goes through the same guard
        with pytest.raises(DenseAllocationError):
            fit_baseline_aecm(data, config, force=True)
    # outside the guard the same calls succeed
    assert op.to_dense().shape == (100, 100)


def test_forbid_dense_nested_guards_compose_via_min(rng):
    y = rng.standard_normal((6, 50))
    op = WeightedCovOperator(y, np.ones(6))
    with forbid_dense_above(200):
        assert op.to_dense().shape == (50, 50)
        with forbid_dense_above(10):
            with pytest.raises(DenseAllocationError):
                op.to_dense()
            # an inner, looser guard must not relax the outer one
            with forbid_dense_above(500):
                with pytest.raises(DenseAllocationError):
                    op.to_dense()


def test_guarded_lanczos_path_forms_no_dense_matrix(rng):
    p, q = 300, 3
    for n in (30, 600):  # Lanczos, then block subspace iteration
        y = rng.standard_normal((n, p))
        w = rng.uniform(0.1, 1.0, n)
        op = WeightedCovOperator(y, w)
        with forbid_dense_above(64):
            pairs = top_eigenpairs(op, q, dense_threshold=0, tol=1e-8)
        dense_vals = np.linalg.eigvalsh(dense_weighted_cov(y, w, op.center))
        np.testing.assert_allclose(pairs.values, dense_vals[::-1][:q], atol=1e-6)


def test_operator_to_dense_round_trip(rng):
    y = rng.standard_normal((15, 9))
    w = rng.uniform(0.1, 1.0, 15)
    op = WeightedCovOperator(y, w)
    np.testing.assert_allclose(op.to_dense(),
                               dense_weighted_cov(y, w, op.center), atol=1e-12)


def test_to_dense_holds_no_data_sized_temporary():
    rng = make_rng(211)
    y = rng.standard_normal((4000, 50))
    op = WeightedCovOperator(y, rng.uniform(0.1, 1.0, 4000))
    assert traced_peak(op.to_dense) <= 0.6 * y.nbytes
    np.testing.assert_allclose(op.to_dense(), op.to_dense().T, rtol=0, atol=0)


@pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
def test_diag_is_exact_far_from_the_origin(rng, offset):
    # the diagonal is the centred second moment, not m2 - mean^2, which
    # cancels once the offset dwarfs the spread
    y = rng.standard_normal((500, 5)) + offset
    w = rng.uniform(0.0, 1.0, 500)
    op = WeightedCovOperator(y, w)
    exact = w @ (y - op.center) ** 2 / w.sum()
    np.testing.assert_allclose(op.diag(), exact, rtol=1e-9)
    np.testing.assert_allclose(op.diag(), np.diag(op.to_dense()), rtol=1e-9)


def test_small_scatter_takes_its_moments_in_one_pass(rng, monkeypatch):
    # at p <= DENSE_THRESHOLD the constructor builds the scatter and reads
    # the diagonal off it, with no separate moment pass; a guard below p,
    # or p above the threshold, keeps the moment pass and builds nothing
    stats = []
    original = _kernels.weighted_stats
    monkeypatch.setattr(_kernels, "weighted_stats",
                        lambda y, w, weight_sum: stats.append(y.shape)
                        or original(y, w, weight_sum))
    y = rng.standard_normal((300, 20)) + 1e6
    w = rng.uniform(0.0, 1.0, 300)
    op = WeightedCovOperator(y, w)
    assert not stats and op._dense is not None
    np.testing.assert_array_equal(op.center, (w @ y) / float(np.sum(w)))
    np.testing.assert_array_equal(op.diag(), np.diag(op.to_dense()))
    np.testing.assert_allclose(op.to_dense(), dense_weighted_cov(y, w, op.center),
                               rtol=1e-9)
    with forbid_dense_above(10):
        guarded = WeightedCovOperator(y, w)
    assert stats == [(300, 20)] and guarded._dense is None
    np.testing.assert_allclose(guarded.diag(), op.diag(), rtol=1e-12)
    wide = WeightedCovOperator(rng.standard_normal((30, 70)), np.ones(30))
    assert stats[-1] == (30, 70) and wide._dense is None
