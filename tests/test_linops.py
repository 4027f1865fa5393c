import numpy as np
import pytest

from gmmfad import _kernels, linops
from gmmfad.ecm import FitConfig, fit_baseline_aecm
from gmmfad.linops import (
    DegenerateWeights,
    DenseAllocationError,
    DenseSymOperator,
    EigPairs,
    InvalidRank,
    NoConvergence,
    ScaledCovOperator,
    WeightedCovOperator,
    forbid_dense_above,
    operator_to_dense,
    top_eigenpairs,
)
from gmmfad.model import DataMatrix

from .helpers import dense_weighted_cov, make_rng, random_spd, subspace_angle


# ------------------------------------------------------- WeightedCovOperator


def test_apply_matches_dense_covariance_oracle(rng):
    for p in (3, 11, 20):
        y = rng.standard_normal((25, p))
        w = np.ones(25)
        center = y.mean(axis=0)
        op = WeightedCovOperator(y, w, center)
        for _ in range(5):
            v = rng.standard_normal(p)
            want = dense_weighted_cov(y, w, center) @ v
            np.testing.assert_allclose(op.matvec(v), want, atol=1e-10)


def test_apply_zero_vector_is_zero(rng):
    y = rng.standard_normal((12, 6))
    op = WeightedCovOperator(y, rng.uniform(0.1, 1.0, 12), y.mean(axis=0))
    np.testing.assert_array_equal(op.matvec(np.zeros(6)), np.zeros(6))


def test_apply_single_weight_is_rank_one_action(rng):
    y = rng.standard_normal((9, 5))
    w = np.zeros(9)
    w[4] = 1.0
    center = rng.standard_normal(5)
    op = WeightedCovOperator(y, w, center)
    d = y[4] - center
    v = rng.standard_normal(5)
    np.testing.assert_allclose(op.matvec(v), d * (d @ v), atol=1e-12)


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


# --------------------------------------------------------- ScaledCovOperator


def test_scaled_operator_whitens(rng):
    y = rng.standard_normal((40, 9))
    w = rng.uniform(0.1, 1.0, 40)
    base = WeightedCovOperator(y, w)
    psi = rng.uniform(0.2, 0.8, 9)
    scaled = ScaledCovOperator(base, 1.0 / np.sqrt(psi))
    sig = dense_weighted_cov(y, w, base.center)
    dense_g = sig / np.sqrt(np.outer(psi, psi))
    v = rng.standard_normal(9)
    np.testing.assert_allclose(scaled.matvec(v), dense_g @ v, atol=1e-10)


def test_scaled_eigenvalues_invariant_to_row_order(rng):
    y = rng.standard_normal((30, 12))
    w = rng.uniform(0.1, 1.0, 30)
    psi = rng.uniform(0.2, 0.8, 12)
    perm = rng.permutation(30)

    def eigs(yy, ww):
        base = WeightedCovOperator(yy, ww)
        op = ScaledCovOperator(base, 1.0 / np.sqrt(psi))
        return top_eigenpairs(op, 4, dense_threshold=0, tol=1e-10).values

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
    # n <= p runs the Lanczos, n > p the block subspace iteration
    q = 4
    for n, p in ((80, 150), (300, 150)):
        op = _scatter(rng, n, p)
        scaled = ScaledCovOperator(op, rng.uniform(0.5, 2.0, p))
        for which in (op, scaled):
            pairs = top_eigenpairs(which, q, dense_threshold=0, tol=1e-10)
            dense_vals, dense_vecs = np.linalg.eigh(which.to_dense())
            np.testing.assert_allclose(pairs.values, dense_vals[::-1][:q],
                                       atol=1e-6)
            assert subspace_angle(pairs.vectors, dense_vecs[:, ::-1][:, :q]) < 1e-6


def test_eigpairs_invariants_hold(rng):
    # every pair meets its own residual bound on the block solver, for an
    # explicit matrix and for scatters of n > p rows
    tol = 1e-8
    p, q = 60, 6
    ops = [DenseSymOperator(matrix=random_spd(p, rng, eig_low=0.5,
                                              eig_high=30.0))
           for _ in range(5)]
    ops += [_scatter(rng, 200, p) for _ in range(10)]
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


def test_warm_start_subspace_converges_fast(rng):
    p, q = 80, 5
    dense = DenseSymOperator(matrix=random_spd(p, rng, gap_at=q))
    scatter = _scatter(rng, 400, p, factors=q)  # n > p: block path
    for op in (dense, scatter):
        cold = top_eigenpairs(op, q, dense_threshold=0, tol=1e-10)
        # a converged p x q block is already an invariant subspace
        warm = top_eigenpairs(op, q, dense_threshold=0, tol=1e-10,
                              v0=cold.vectors, max_restarts=1)
        np.testing.assert_allclose(warm.values, cold.values, rtol=1e-9)
        one = top_eigenpairs(op, q, dense_threshold=0, tol=1e-10,
                             v0=cold.vectors[:, 0])
        np.testing.assert_allclose(one.values, cold.values, rtol=1e-9)


def test_overspecified_rank_small_gap_meets_residual_bound(rng):
    # q = 7 over data with 3 planted factors: the pairs past the third sit
    # in the noise bulk, where neighbouring eigenvalues nearly coincide
    n, p, q, tol = 500, 120, 7, 1e-8
    op = ScaledCovOperator(_scatter(rng, n, p, factors=3),
                           rng.uniform(0.5, 2.0, p))
    a = op.to_dense()
    pairs = top_eigenpairs(op, q, dense_threshold=0, tol=tol)
    v = pairs.vectors
    assert np.max(np.abs(v.T @ v - np.eye(q))) <= 1e-8
    assert np.all(np.diff(pairs.values) <= 0)
    res = np.linalg.norm(a @ v - v * pairs.values, axis=0)
    assert np.all(res <= tol * max(1.0, pairs.values[0]))
    np.testing.assert_allclose(pairs.values, np.linalg.eigvalsh(a)[::-1][:q],
                               rtol=1e-8)


def test_scatter_solver_follows_the_data_shape(rng, monkeypatch):
    # a scatter of n <= p rows reaches the Lanczos growth kernel; n > p, and
    # an operator that is not a scatter, reach only the block solver
    calls = {"lanczos_grow": 0, "wcov_matmat": 0, "_block_eigpairs": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(_kernels, "lanczos_grow")
    counted(_kernels, "wcov_matmat")
    counted(linops, "_block_eigpairs")
    top_eigenpairs(_scatter(rng, 30, 120), 3, dense_threshold=0)
    assert calls["lanczos_grow"] > 0 and calls["_block_eigpairs"] == 0
    calls.update(lanczos_grow=0, wcov_matmat=0)
    top_eigenpairs(_scatter(rng, 300, 120), 3, dense_threshold=0)
    assert calls["lanczos_grow"] == 0 and calls["wcov_matmat"] > 0
    assert calls["_block_eigpairs"] == 1
    calls.update(wcov_matmat=0, _block_eigpairs=0)
    explicit = DenseSymOperator(matrix=random_spd(120, rng, gap_at=3))
    top_eigenpairs(explicit, 3, dense_threshold=0)
    assert calls == {"lanczos_grow": 0, "wcov_matmat": 0, "_block_eigpairs": 1}


def test_invalid_rank_rejected(rng):
    op = DenseSymOperator(matrix=np.eye(4))
    with pytest.raises(InvalidRank):
        top_eigenpairs(op, 4)
    with pytest.raises(InvalidRank):
        top_eigenpairs(op, 0)


def test_no_convergence_carries_diagnostics(rng):
    p = 70
    for op in (DenseSymOperator(matrix=random_spd(p, rng)),
               _scatter(rng, 200, p)):
        with pytest.raises(NoConvergence) as exc:
            top_eigenpairs(op, 3, dense_threshold=0, tol=1e-14, max_restarts=1)
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
    np.testing.assert_allclose(operator_to_dense(op),
                               dense_weighted_cov(y, w, op.center), atol=1e-12)
