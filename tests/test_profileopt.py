import numpy as np
import pytest

from gmmfad.linops import DenseSymOperator, InvalidRank, WeightedCovOperator
from gmmfad.profileopt import (
    DEFAULT_BOX,
    ProfileObjective,
    optimize_psi,
    profile_value_and_gradient,
    recover_loadings,
)

from .helpers import make_rng, random_spd


def _objective(scov_dense, q, n_eff=100.0, dense_threshold=64):
    return ProfileObjective(DenseSymOperator(matrix=scov_dense), n_eff, q,
                            dense_threshold=dense_threshold)


def fd_gradient(obj, log_psi, h=1e-5):
    """Central finite differences on the log-scale."""
    grad = np.zeros_like(log_psi)
    for i in range(log_psi.size):
        up = log_psi.copy()
        dn = log_psi.copy()
        up[i] += h
        dn[i] -= h
        fu, _ = profile_value_and_gradient(obj, up)
        fd, _ = profile_value_and_gradient(obj, dn)
        grad[i] = (fu - fd) / (2 * h)
    return grad


# -------------------------------------------------------- value and gradient


def test_identity_fixed_point():
    p, n_eff = 8, 50.0
    for q in (1, 2, 3):
        obj = _objective(np.eye(p), q, n_eff=n_eff)
        value, grad = profile_value_and_gradient(obj, np.zeros(p))
        assert value == pytest.approx(-(n_eff / 2) * p, rel=1e-12)
        np.testing.assert_allclose(grad, np.zeros(p), atol=1e-9)


def test_two_by_two_closed_form():
    n_eff = 10.0
    obj = _objective(np.array([[2.0, 1.0], [1.0, 2.0]]), q=1, n_eff=n_eff)
    value, _ = profile_value_and_gradient(obj, np.zeros(2))
    # theta_1 = 3: value = -(n_eff/2) * [0 + 4 + (log 3 - 2)]
    assert value == pytest.approx(-(n_eff / 2) * (4.0 + np.log(3.0) - 2.0),
                                  rel=1e-12)


def test_gradient_matches_central_differences_random_instance(rng):
    p, q = 15, 2
    scov = random_spd(p, rng, eig_low=0.3, eig_high=8.0)
    obj = _objective(scov, q, n_eff=73.0)
    log_psi = np.log(rng.uniform(0.3, 3.0, p))
    _, grad = profile_value_and_gradient(obj, log_psi)
    approx = fd_gradient(obj, log_psi)
    rel = np.linalg.norm(grad - approx) / max(np.linalg.norm(approx), 1e-12)
    assert rel < 1e-5


def test_gradient_oracle_across_sizes(rng):
    # smaller sweep of the release-gate instance family (test_acceptance.py)
    for _ in range(20):
        p = int(rng.integers(3, 31))
        q = int(rng.integers(1, min(6, p)))
        scov = random_spd(p, rng, eig_low=0.2, eig_high=10.0)
        obj = _objective(scov, q, n_eff=float(rng.uniform(5, 200)))
        log_psi = np.log(rng.uniform(0.2, 4.0, p))
        _, grad = profile_value_and_gradient(obj, log_psi)
        approx = fd_gradient(obj, log_psi)
        rel = np.linalg.norm(grad - approx) / max(np.linalg.norm(approx), 1e-12)
        assert rel < 1e-5


def _planted_scatter(rng, n, p, q):
    # weighted scatter of n rows with q strong directions over unit noise
    y = rng.standard_normal((n, p))
    y += rng.standard_normal((n, q)) @ (3.0 * rng.standard_normal((q, p)))
    return WeightedCovOperator(y, rng.uniform(0.1, 1.0, n))


def test_value_agrees_between_dense_and_lanczos_paths(rng):
    p, q = 80, 3

    def operators():
        # an explicit matrix and a scatter of n > p rows run the block
        # subspace iteration; a scatter of n <= p rows runs the Lanczos
        yield DenseSymOperator(matrix=random_spd(p, rng, gap_at=q))
        yield _planted_scatter(rng, 200, p, q)
        yield _planted_scatter(rng, 40, p, q)

    for scov in operators():
        dense = ProfileObjective(scov, 100.0, q, dense_threshold=200)
        iterative = ProfileObjective(scov, 100.0, q, dense_threshold=0)
        log_psi = np.log(rng.uniform(0.3, 2.0, p))
        vd, gd = profile_value_and_gradient(dense, log_psi)
        vl, gl = profile_value_and_gradient(iterative, log_psi)
        assert vd == pytest.approx(vl, rel=1e-9)
        np.testing.assert_allclose(gd, gl, atol=1e-7)


def test_invalid_rank_rejected(rng):
    with pytest.raises(InvalidRank):
        _objective(np.eye(3), q=3)


# ---------------------------------------------------------------- optimize_psi


def test_diagonal_no_factor_closed_form(rng):
    d = rng.uniform(0.5, 3.0, 12)
    obj = _objective(np.diag(d), q=0)
    psi = optimize_psi(obj, np.ones(12))
    np.testing.assert_array_equal(psi, np.clip(d, *DEFAULT_BOX))


def test_no_factor_clamps_to_box(rng):
    d = np.array([1e-9, 0.5, 1e9])
    obj = _objective(np.diag(d), q=0)
    psi = optimize_psi(obj, np.ones(3))
    lo, hi = DEFAULT_BOX
    np.testing.assert_array_equal(psi, [lo, 0.5, hi])


def test_single_factor_truth_recovery(rng):
    # Sigma = lam lam^T + diag(psi_true) given exactly -> psi_hat near psi_true
    p = 10
    for trial in range(5):
        lam = rng.standard_normal((p, 1))
        psi_true = rng.uniform(0.2, 0.8, p)
        scov = lam @ lam.T + np.diag(psi_true)
        obj = _objective(scov, q=1, n_eff=200.0)
        psi_hat = optimize_psi(obj, np.full(p, 0.5))
        assert np.max(np.abs(psi_hat - psi_true)) < 1e-2


def test_never_decreases_objective(rng):
    for trial in range(10):
        p = int(rng.integers(5, 25))
        q = int(rng.integers(1, 4))
        scov = random_spd(p, rng, eig_low=0.2, eig_high=6.0)
        obj = _objective(scov, q)
        psi0 = rng.uniform(0.2, 2.0, p)
        v0, _ = profile_value_and_gradient(obj, np.log(psi0))
        psi1 = optimize_psi(obj, psi0)
        v1, _ = profile_value_and_gradient(obj, np.log(psi1))
        assert v1 >= v0 - 1e-9


def test_idempotent_at_optimum(rng):
    p, q = 12, 2
    scov = random_spd(p, rng, eig_low=0.3, eig_high=5.0)
    obj = _objective(scov, q)
    psi_hat = optimize_psi(obj, np.full(p, 0.7))
    v1, _ = profile_value_and_gradient(obj, np.log(psi_hat))
    psi_again = optimize_psi(obj, psi_hat)
    v2, _ = profile_value_and_gradient(obj, np.log(psi_again))
    assert v2 >= v1 - 1e-9
    np.testing.assert_allclose(psi_again, psi_hat, rtol=1e-4, atol=1e-6)


def test_result_always_inside_box(rng):
    p, q = 9, 2
    scov = random_spd(p, rng, eig_low=1e-6, eig_high=1e7)
    obj = _objective(scov, q)
    psi = optimize_psi(obj, np.ones(p), box=(1e-2, 1e2))
    assert np.all(psi >= 1e-2) and np.all(psi <= 1e2)


# ------------------------------------------------------------ recover_loadings


def test_identity_scatter_gives_zero_loadings():
    obj = _objective(np.eye(6), q=2)
    lam = recover_loadings(obj, np.ones(6))
    assert lam.shape == (6, 2)
    np.testing.assert_array_equal(lam, np.zeros((6, 2)))


def test_isotropic_doubled_scatter_unit_column():
    obj = _objective(2.0 * np.eye(6), q=1)
    lam = recover_loadings(obj, np.ones(6))
    # theta_1 = 2 -> the single column has norm sqrt(2 - 1) = 1
    assert np.linalg.norm(lam[:, 0]) == pytest.approx(1.0, rel=1e-10)


def test_subspace_residual_small(rng):
    p, q = 30, 4
    lam_true = rng.standard_normal((p, q))
    psi_true = rng.uniform(0.2, 0.8, p)
    scov = lam_true @ lam_true.T + np.diag(psi_true)
    obj = _objective(scov, q=q, n_eff=500.0)
    psi_hat = optimize_psi(obj, np.full(p, 0.5))
    lam_hat = recover_loadings(obj, psi_hat)
    pairs = obj.eigenpairs(psi_hat)
    v = pairs.vectors
    resid = v.T @ (scov - lam_hat @ lam_hat.T - np.diag(psi_hat)) @ v
    assert np.linalg.norm(resid) / np.linalg.norm(scov) < 1e-2


def test_identifiability_constraint_diagonal(rng):
    for trial in range(5):
        p, q = 20, 3
        scov = random_spd(p, rng, eig_low=0.5, eig_high=9.0)
        obj = _objective(scov, q)
        psi_hat = optimize_psi(obj, np.full(p, 0.6))
        lam = recover_loadings(obj, psi_hat)
        m = lam.T @ (lam / psi_hat[:, None])
        off = m - np.diag(np.diag(m))
        assert np.max(np.abs(off)) < 1e-8


def test_truncation_consistency(rng):
    # evaluated at psi = 1 the whitened spectrum is ||lam||^2 + 0.5 followed
    # by 0.5 < 1: columns beyond the first are exactly zero, and the result
    # agrees between a rank-1 and a rank-3 request
    p = 15
    lam_true = 2.0 * np.linspace(1, 2, p).reshape(p, 1)
    scov = lam_true @ lam_true.T + 0.5 * np.eye(p)
    psi = np.ones(p)
    lam_small = recover_loadings(_objective(scov, q=1), psi)
    lam_large = recover_loadings(_objective(scov, q=3), psi)
    np.testing.assert_array_equal(lam_large[:, 1:], np.zeros((p, 2)))
    np.testing.assert_allclose(lam_large[:, :1], lam_small, atol=1e-9)


def test_loadings_signs_fixed_on_every_solver_path(rng):
    # dense (p <= dense_threshold), block (n > p) and Lanczos (n <= p)
    # solves: each loadings column's largest-magnitude entry is positive
    # (the planted factors keep every column non-zero)
    p, q = 80, 3
    for scov, threshold in ((_planted_scatter(rng, 200, p, q), 200),
                            (_planted_scatter(rng, 200, p, q), 0),
                            (_planted_scatter(rng, 40, p, q), 0)):
        obj = ProfileObjective(scov, 100.0, q, dense_threshold=threshold)
        lam = recover_loadings(obj, rng.uniform(0.3, 2.0, p))
        peak = lam[np.argmax(np.abs(lam), axis=0), np.arange(q)]
        assert np.all(peak > 0)


def test_zero_factor_request_gives_empty_loadings():
    obj = _objective(np.eye(4), q=0)
    lam = recover_loadings(obj, np.ones(4))
    assert lam.shape == (4, 0)


def test_warm_started_eigen_cache_reused(rng):
    p, q = 90, 3
    scov = random_spd(p, rng, gap_at=q)
    op = DenseSymOperator(matrix=scov)
    cold = ProfileObjective(op, 50.0, q, dense_threshold=0)
    pairs = cold.eigenpairs(np.ones(p))
    warm = ProfileObjective(op, 50.0, q, dense_threshold=0,
                            warm_vectors=pairs.vectors)
    pairs2 = warm.eigenpairs(np.ones(p))
    np.testing.assert_allclose(pairs2.values, pairs.values, rtol=1e-9)
