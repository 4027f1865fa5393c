import logging

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from gmmfad import _kernels, linops, profileopt
from gmmfad.linops import DenseSymOperator, InvalidRank, WeightedCovOperator
from gmmfad.model import PSI_MAX, PSI_MIN, max_admissible_q
from gmmfad.profileopt import (
    ProfileObjective,
    optimize_psi,
    profile_value_and_gradient,
    recover_loadings,
)

from .helpers import count_calls, make_rng, random_spd


def _objective(scov_dense, q, n_eff=100.0):
    return ProfileObjective(DenseSymOperator(matrix=scov_dense), n_eff, q)


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


def test_value_agrees_between_dense_and_lanczos_paths(rng, monkeypatch):
    p, q = 80, 3

    def operators():
        # an explicit matrix and a scatter of 2n > p rows run the block
        # subspace iteration; a scatter of 2n <= p rows runs the Lanczos, and
        # one of n <= 2q + 10 rows the Gram solve
        yield DenseSymOperator(matrix=random_spd(p, rng, gap_at=q))
        yield _planted_scatter(rng, 200, p, q)
        yield _planted_scatter(rng, 40, p, q)
        yield _planted_scatter(rng, 14, p, q)

    for scov in operators():
        log_psi = np.log(rng.uniform(0.3, 2.0, p))
        solved = []
        for threshold in (200, 0):  # dense, then iterative
            monkeypatch.setattr(linops, "DENSE_THRESHOLD", threshold)
            obj = ProfileObjective(scov, 100.0, q)
            solved.append(profile_value_and_gradient(obj, log_psi))
        (vd, gd), (vl, gl) = solved
        assert vd == pytest.approx(vl, rel=1e-9)
        np.testing.assert_allclose(gd, gl, atol=1e-7)


def test_repeated_psi_is_solved_once(rng, monkeypatch):
    # optimize_psi evaluates the start, L-BFGS-B evaluates it again, and
    # recover_loadings asks at exp of the last iterate: one solve for all
    calls = count_calls(monkeypatch, linops, "top_eigenpairs")
    monkeypatch.setattr(linops, "DENSE_THRESHOLD", 0)
    p, q = 80, 3
    obj = ProfileObjective(_planted_scatter(rng, 40, p, q), 100.0, q)
    log_psi = np.log(rng.uniform(0.3, 2.0, p))
    first = profile_value_and_gradient(obj, log_psi)
    again = profile_value_and_gradient(obj, log_psi.copy())
    lam = recover_loadings(obj, np.exp(log_psi))
    assert len(calls) == 1
    assert first[0] == again[0]
    np.testing.assert_array_equal(first[1], again[1])
    assert lam.shape == (p, q)
    profile_value_and_gradient(obj, log_psi + 0.01)
    assert len(calls) == 2


def _moved_psi_instance(rng):
    # a scatter of 2n > p rows on the block route, a psi and a moved psi
    n, p, q = 400, 120, 3
    scov = _planted_scatter(rng, n, p, q)
    psi1 = rng.uniform(0.3, 2.0, p)
    return scov, q, psi1, psi1 * rng.uniform(0.5, 2.0, p)


def test_warm_start_is_carried_to_the_new_psi(rng, monkeypatch):
    # the previous vectors times sqrt(psi_prev / psi) are the whitened
    # loadings at the new psi: a closer start than the vectors as they are
    scov, q, psi1, psi2 = _moved_psi_instance(rng)
    obj = ProfileObjective(scov, 100.0, q)
    first = obj.eigenpairs(psi1)
    calls = count_calls(monkeypatch, _kernels, "wcov_matmat")
    pairs = obj.eigenpairs(psi2)
    carried = len(calls)
    calls.clear()
    linops.top_eigenpairs(scov, q, scale=1.0 / np.sqrt(psi2), v0=first.vectors)
    assert carried < len(calls)
    d = 1.0 / np.sqrt(psi2)
    want = np.linalg.eigvalsh(d[:, None] * scov.to_dense() * d)[: -q - 1 : -1]
    np.testing.assert_allclose(pairs.values, want, rtol=1e-8)


def test_a_new_psi_leaves_no_stale_state(rng, monkeypatch):
    scov, q, psi1, psi2 = _moved_psi_instance(rng)
    obj = ProfileObjective(scov, 100.0, q)
    first = obj.eigenpairs(psi1)
    values, vectors = first.values.copy(), first.vectors.copy()
    obj.eigenpairs(psi2)
    # a returned pair is never rescaled in place
    np.testing.assert_array_equal(first.values, values)
    np.testing.assert_array_equal(first.vectors, vectors)
    # a solve that raises leaves neither a cached pair nor a warm start
    obj = ProfileObjective(scov, 100.0, q)
    obj.eigenpairs(psi1)
    monkeypatch.setattr(linops, "MAX_RESTARTS", 1)
    with pytest.raises(linops.NoConvergence):
        obj.eigenpairs(psi2)
    monkeypatch.undo()
    again = obj.eigenpairs(psi1)
    fresh = ProfileObjective(scov, 100.0, q).eigenpairs(psi1)
    np.testing.assert_array_equal(again.values, fresh.values)
    np.testing.assert_array_equal(again.vectors, fresh.vectors)


def test_invalid_rank_rejected(rng):
    with pytest.raises(InvalidRank):
        _objective(np.eye(3), q=3)


# ---------------------------------------------------------------- optimize_psi


def test_diagonal_no_factor_closed_form(rng):
    d = rng.uniform(0.5, 3.0, 12)
    obj = _objective(np.diag(d), q=0)
    psi = optimize_psi(obj, np.ones(12))
    np.testing.assert_array_equal(psi, np.clip(d, PSI_MIN, PSI_MAX))


def test_no_factor_clamps_to_box(rng):
    d = np.array([1e-9, 0.5, 1e9])
    obj = _objective(np.diag(d), q=0)
    psi = optimize_psi(obj, np.ones(3))
    np.testing.assert_array_equal(psi, [PSI_MIN, 0.5, PSI_MAX])


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


def test_stationary_start_skips_lbfgsb(monkeypatch):
    # interior uniquenesses at their optimum psi_j = S_jj with every whitened
    # eigenvalue at most one, and the first pinned at the lower bound with
    # the gradient pointing out of the box: the projected gradient is zero
    def unreachable(*args, **kwargs):
        raise AssertionError("L-BFGS-B ran from a stationary start")

    monkeypatch.setattr(profileopt, "minimize", unreachable)
    obj = _objective(np.diag([1e-9, 1.0, 1.0, 1.0, 1.0]), q=1)
    start = np.array([PSI_MIN, 1.0, 1.0, 1.0, 1.0])
    psi = optimize_psi(obj, start)
    # equal up to the log/exp round trip of the bound coordinate
    np.testing.assert_allclose(psi, start, rtol=1e-14, atol=0.0)
    np.testing.assert_array_equal(psi[1:], start[1:])


def test_result_always_inside_box(rng):
    # variances from 1e-12 to 1e12 pull the uniquenesses past both bounds
    p, q = 9, 2
    scale = np.geomspace(1e-6, 1e6, p)
    scov = scale[:, None] * random_spd(p, rng) * scale[None, :]
    obj = _objective(scov, q)
    psi = optimize_psi(obj, np.ones(p))
    assert np.all(psi >= PSI_MIN) and np.all(psi <= PSI_MAX)
    # up to the log/exp round trip of a bound coordinate
    assert np.any(np.isclose(psi, PSI_MIN, rtol=1e-12, atol=0.0))
    assert np.any(np.isclose(psi, PSI_MAX, rtol=1e-12, atol=0.0))


def _random_instances(rng, trials=8):
    # (scatter, q, start) with q within the identifiability bound
    for _ in range(trials):
        p = int(rng.integers(5, 20))
        q = int(rng.integers(1, min(4, max_admissible_q(p) + 1)))
        yield (random_spd(p, rng, eig_low=0.2, eig_high=6.0), q,
               rng.uniform(0.2, 2.0, p))


def test_result_does_not_depend_on_the_sample_mass(rng):
    # n_eff scales Qp and leaves its maximizer where it is; L-BFGS-B works on
    # Qp * 2/n_eff, so from one start it reaches the same uniquenesses
    for scov, q, psi0 in _random_instances(rng):
        fitted = [np.log(optimize_psi(_objective(scov, q, n_eff=n_eff), psi0))
                  for n_eff in (5.0, 500.0, 50000.0)]
        for log_psi in fitted[1:]:
            np.testing.assert_allclose(log_psi, fitted[0], rtol=0.0, atol=1e-3)


def test_first_trial_point_improves_on_the_start(rng, monkeypatch):
    # optimize_psi evaluates the start, L-BFGS-B evaluates it again and then
    # its first trial point, a step of unit curvature that does not overshoot
    for scov, q, psi0 in _random_instances(rng):
        for n_eff in (5.0, 500.0, 50000.0):
            obj = _objective(scov, q, n_eff=n_eff)
            seen = _record_evaluations(obj, monkeypatch)
            optimize_psi(obj, psi0)
            np.testing.assert_array_equal(seen[1][0], seen[0][0])
            assert seen[2][1] < seen[0][1]


def _record_evaluations(obj, monkeypatch, fail_after=None):
    """Record each (u, negated value) that optimize_psi evaluates on ``obj``;
    with ``fail_after``, the evaluation after that many raises NoConvergence."""
    seen = []
    original = obj.value_and_gradient

    def recording(u):
        if fail_after is not None and len(seen) == fail_after:
            raise linops.NoConvergence("eigensolver breakdown")
        val, grad = original(u)
        seen.append((np.array(u, copy=True), -val))
        return val, grad

    monkeypatch.setattr(obj, "value_and_gradient", recording)
    return seen


def _first_best_psi(seen):
    # the first evaluated point with the lowest finite negated value
    values = np.array([f if np.isfinite(f) else np.inf for _, f in seen])
    return np.clip(np.exp(seen[int(np.argmin(values))][0]), PSI_MIN, PSI_MAX)


def test_result_is_the_first_best_point_evaluated(rng, monkeypatch):
    for trial in range(6):
        p = int(rng.integers(5, 20))
        q = int(rng.integers(1, 4))
        scov = random_spd(p, rng, eig_low=0.2, eig_high=6.0)
        psi0 = rng.uniform(0.2, 2.0, p)
        # a full run, then one cut short by an eigensolver failure
        for fail_after in (None, 3):
            obj = _objective(scov, q)
            seen = _record_evaluations(obj, monkeypatch, fail_after)
            psi = optimize_psi(obj, psi0)
            assert len(seen) >= 3
            np.testing.assert_array_equal(psi, _first_best_psi(seen))


def test_a_solver_failure_is_logged_at_debug_only(rng, monkeypatch, caplog):
    scov, q, psi0 = next(_random_instances(rng))
    obj = _objective(scov, q)
    _record_evaluations(obj, monkeypatch, fail_after=3)
    with caplog.at_level(logging.INFO, logger="gmmfad"):
        optimize_psi(obj, psi0)
    assert caplog.records == []
    obj = _objective(scov, q)
    seen = _record_evaluations(obj, monkeypatch, fail_after=3)
    with caplog.at_level(logging.DEBUG, logger="gmmfad.profileopt"):
        psi = optimize_psi(obj, psi0)
    assert [r.levelno for r in caplog.records] == [logging.DEBUG]
    assert "NoConvergence" in caplog.records[0].getMessage()
    np.testing.assert_array_equal(psi, _first_best_psi(seen))


def test_a_non_finite_start_is_returned_as_it_is(monkeypatch):
    obj = _objective(np.diag([1.0, 2.0, 3.0]), q=1)
    def unreachable(*args, **kwargs):
        raise AssertionError("L-BFGS-B ran from a non-finite start")

    monkeypatch.setattr(obj, "value_and_gradient",
                        lambda u: (np.nan, np.full(u.size, np.nan)))
    monkeypatch.setattr(profileopt, "minimize", unreachable)
    start = np.array([0.5, 1.0, 2.0])
    np.testing.assert_array_equal(
        optimize_psi(obj, start), np.clip(np.exp(np.log(start)), PSI_MIN, PSI_MAX)
    )


def test_a_worse_solver_result_gives_way_to_the_best_point_evaluated(
        rng, monkeypatch):
    # a solver that evaluates the optimum, then reports a worse point it also
    # evaluated: the result is the optimum, whatever the solver reports
    p, q = 8, 2
    scov = random_spd(p, rng, eig_low=0.3, eig_high=5.0)
    u_best = np.log(optimize_psi(_objective(scov, q), np.full(p, 0.7)))
    u_worse = u_best + 0.5

    def worse_solver(fun, x0, **kwargs):
        fun(u_best)
        f_worse, _ = fun(u_worse)
        return OptimizeResult(x=u_worse.copy(), fun=f_worse, success=True)

    monkeypatch.setattr(profileopt, "minimize", worse_solver)
    obj = _objective(scov, q)
    seen = _record_evaluations(obj, monkeypatch)
    psi = optimize_psi(obj, np.full(p, 0.7))
    assert len(seen) == 3 and seen[2][1] > seen[1][1]
    np.testing.assert_array_equal(psi, _first_best_psi(seen))
    np.testing.assert_array_equal(psi, np.clip(np.exp(u_best), PSI_MIN, PSI_MAX))


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


def test_loadings_signs_fixed_on_every_solver_path(rng, monkeypatch):
    # dense (p <= DENSE_THRESHOLD), block (2n > p), Lanczos (2n <= p) and
    # Gram (n <= 2q + 10) solves: each loadings column's largest-magnitude
    # entry is positive (the planted factors keep every column non-zero)
    p, q = 80, 3
    for scov, threshold in ((_planted_scatter(rng, 200, p, q), 200),
                            (_planted_scatter(rng, 200, p, q), 0),
                            (_planted_scatter(rng, 40, p, q), 0),
                            (_planted_scatter(rng, 14, p, q), 0)):
        monkeypatch.setattr(linops, "DENSE_THRESHOLD", threshold)
        obj = ProfileObjective(scov, 100.0, q)
        lam = recover_loadings(obj, rng.uniform(0.3, 2.0, p))
        peak = lam[np.argmax(np.abs(lam), axis=0), np.arange(q)]
        assert np.all(peak > 0)


def test_zero_factor_request_gives_empty_loadings():
    obj = _objective(np.eye(4), q=0)
    lam = recover_loadings(obj, np.ones(4))
    assert lam.shape == (4, 0)


def test_warm_started_eigen_cache_reused(rng, monkeypatch):
    monkeypatch.setattr(linops, "DENSE_THRESHOLD", 0)
    p, q = 90, 3
    scov = random_spd(p, rng, gap_at=q)
    op = DenseSymOperator(matrix=scov)
    cold = ProfileObjective(op, 50.0, q)
    pairs = cold.eigenpairs(np.ones(p))
    warm = ProfileObjective(op, 50.0, q, warm_vectors=pairs.vectors)
    pairs2 = warm.eigenpairs(np.ones(p))
    np.testing.assert_allclose(pairs2.values, pairs.values, rtol=1e-9)
