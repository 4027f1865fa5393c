import dataclasses
import gc
import logging
import math
import weakref

import numpy as np
import pytest

from gmmfad import _kernels, ecm, linops
from gmmfad.ecm import (
    DimensionTooLarge,
    EmptyCluster,
    FitConfig,
    NonFiniteDensity,
    _aecm_step,
    _kmeans_labels,
    cm_step,
    component_log_densities,
    e_step,
    fit,
    fit_baseline_aecm,
    log_density,
)
from gmmfad.metrics import adjusted_rand_index
from gmmfad.model import PSI_MAX, PSI_MIN, ComponentParams, DataMatrix, MixtureModel, Responsibilities

from .helpers import (
    count_calls,
    dense_covariance,
    dense_log_density,
    dense_weighted_cov,
    kmeans_labels_masked,
    make_rng,
    random_component,
    random_mixture,
    small_dataset,
    traced_peak,
)


def _moments(y):
    # the fit's unit-weight moment pass (mean, variance), which the k-means
    # start takes from the fit
    return _kernels.weighted_stats(y, np.ones(y.shape[0]), float(y.shape[0]))


def _diag_component(weight, mean, psi):
    mean = np.asarray(mean, dtype=np.float64)
    return ComponentParams(weight=weight, mean=mean,
                           loadings=np.zeros((mean.size, 0)),
                           uniquenesses=np.asarray(psi, dtype=np.float64))


# ----------------------------------------------------------------- densities


def test_zero_loadings_is_diagonal_gaussian(rng):
    p = 6
    comp = _diag_component(1.0, rng.standard_normal(p), rng.uniform(0.3, 2.0, p))
    y = rng.standard_normal(p)
    want = float(np.sum(
        -0.5 * np.log(2 * np.pi * comp.uniquenesses)
        - (y - comp.mean) ** 2 / (2 * comp.uniquenesses)
    ))
    assert log_density(comp, y) == pytest.approx(want, abs=1e-12)


def test_log_density_matches_dense_oracle(rng):
    comp = random_component(5, 2, rng)
    for _ in range(10):
        y = comp.mean + rng.standard_normal(5) * 2.0
        want = dense_log_density(y, comp.mean, dense_covariance(comp))
        assert log_density(comp, y) == pytest.approx(want, abs=1e-10)


def test_log_density_at_mean(rng):
    comp = random_component(7, 2, rng)
    sign, logdet = np.linalg.slogdet(dense_covariance(comp))
    want = -0.5 * (7 * np.log(2 * np.pi) + logdet)
    assert log_density(comp, comp.mean) == pytest.approx(want, abs=1e-10)


def test_non_finite_observation_rejected(rng):
    comp = random_component(4, 1, rng)
    with pytest.raises(NonFiniteDensity):
        log_density(comp, np.array([1.0, np.nan, 0.0, 0.0]))


# -------------------------------------------------------------------- e_step


def test_identical_components_share_responsibility(rng):
    p = 5
    mean = rng.standard_normal(p)
    psi = rng.uniform(0.5, 1.5, p)
    model = MixtureModel(components=(
        _diag_component(0.5, mean, psi), _diag_component(0.5, mean, psi),
    ))
    data = DataMatrix(values=rng.standard_normal((20, p)))
    resp, _ = e_step(model, data)
    np.testing.assert_allclose(resp.gamma, 0.5, atol=1e-15)


def test_single_component_gamma_all_ones(rng):
    comp = random_component(4, 1, rng)
    model = MixtureModel(components=(
        ComponentParams(weight=1.0, mean=comp.mean, loadings=comp.loadings,
                        uniquenesses=comp.uniquenesses),
    ))
    y = rng.standard_normal((15, 4))
    data = DataMatrix(values=y)
    resp, ll = e_step(model, data)
    np.testing.assert_array_equal(resp.gamma, np.ones((15, 1)))
    want = float(np.sum(component_log_densities(model.components[0], y)))
    assert ll == pytest.approx(want, rel=1e-12)


def test_well_separated_univariate_posterior():
    model = MixtureModel(components=(
        _diag_component(0.5, [-10.0], [1.0]),
        _diag_component(0.5, [10.0], [1.0]),
    ))
    data = DataMatrix(values=np.array([[-10.0], [10.0]]))
    resp, _ = e_step(model, data)
    assert resp.gamma[0, 1] < 1e-20
    assert resp.gamma[1, 0] < 1e-20


def test_e_step_survives_extreme_underflow():
    # both densities underflow any direct exp; log-space keeps gamma exact
    model = MixtureModel(components=(
        _diag_component(0.5, [-100.0], [1.0]),
        _diag_component(0.5, [100.0], [1.0]),
    ))
    data = DataMatrix(values=np.array([[0.0], [0.0]]))
    resp, ll = e_step(model, data)
    np.testing.assert_allclose(resp.gamma, 0.5, atol=1e-15)
    assert np.isfinite(ll)


def _long_double_loglik(model, y):
    # the observed-data log-likelihood by Woodbury in extended precision:
    # d^T Psi^{-1} d - b^T M^{-1} b with b = Lambda^T Psi^{-1} d and
    # M = I + Lambda^T Psi^{-1} Lambda, by a hand-written Cholesky of M
    ld = np.longdouble
    y = y.astype(ld)
    n, p = y.shape
    logjoint = []
    for comp in model.components:
        psi = comp.uniquenesses.astype(ld)
        lam = comp.loadings.astype(ld)
        q = lam.shape[1]
        d = y - comp.mean.astype(ld)
        scaled = lam / psi[:, None]
        m = np.eye(q, dtype=ld) + lam.T @ scaled
        chol = np.zeros((q, q), dtype=ld)
        for i in range(q):
            for j in range(i + 1):
                s = m[i, j] - np.sum(chol[i, :j] * chol[j, :j])
                chol[i, j] = np.sqrt(s) if i == j else s / chol[j, j]
        b = d @ scaled
        x = np.zeros((n, q), dtype=ld)
        for i in range(q):
            x[:, i] = (b[:, i] - x[:, :i] @ chol[i, :i]) / chol[i, i]
        quad = (d * d) @ (1 / psi) - np.sum(x * x, axis=1)
        logdet = np.sum(np.log(psi)) + 2 * np.sum(np.log(np.diag(chol)))
        logjoint.append(np.log(ld(comp.weight))
                        - (ld(p) * np.log(2 * ld(np.pi)) + logdet + quad) / 2)
    logjoint = np.stack(logjoint)
    mx = logjoint.max(axis=0)
    return float(np.sum(mx + np.log(np.sum(np.exp(logjoint - mx), axis=0))))


def test_e_step_loglik_matches_extended_precision_woodbury():
    # 90% of uniquenesses at 1e-4 make d^T Psi^{-1} d and ||P^T d||^2 both
    # several million per row, and the offset of 1e4 sits on data and means
    # alike; the log-likelihood must still meet the fits' tolerance
    rng = make_rng(229)
    K, q, n, p, offset = 3, 3, 400, 2000, 1e4
    comps = []
    for k in range(K):
        psi = np.ones(p)
        psi[rng.choice(p, size=9 * p // 10, replace=False)] = 1e-4
        comps.append(ComponentParams(
            weight=1.0 / K, mean=offset + 30.0 * k + rng.standard_normal(p),
            loadings=rng.standard_normal((p, q)), uniquenesses=psi))
    model = MixtureModel(components=tuple(comps))
    labels = np.arange(n) % K
    y = np.empty((n, p))
    for k, comp in enumerate(comps):
        rows = labels == k
        y[rows] = (comp.mean + rng.standard_normal((rows.sum(), q)) @ comp.loadings.T
                   + np.sqrt(comp.uniquenesses) * rng.standard_normal((rows.sum(), p)))
    _, ll = e_step(model, DataMatrix(values=y))
    assert abs(ll - _long_double_loglik(model, y)) <= 1e-5


def test_responsibilities_are_kept_one_row_per_component():
    rng = make_rng(233)
    data = DataMatrix(values=rng.standard_normal((300, 8)))
    model = random_mixture(8, (2, 1, 0), rng)
    resp, _ = e_step(model, data)
    gamma = resp.gamma
    assert gamma.shape == (300, 3) and not gamma.flags.writeable
    assert gamma.T.flags.c_contiguous and resp.by_component.flags.c_contiguous
    # the E-step's read-only array is kept as it is
    assert np.shares_memory(Responsibilities(gamma=gamma).gamma, gamma)
    # a caller's writeable array is copied, and later writes do not reach it
    mine = np.array(gamma)
    kept = Responsibilities(gamma=mine)
    assert not np.shares_memory(kept.gamma, mine)
    assert kept.gamma.T.flags.c_contiguous and not kept.gamma.flags.writeable
    mine[:] = 0.0
    np.testing.assert_array_equal(kept.gamma, gamma)


def test_cm_step_reads_each_components_weights_in_place(monkeypatch):
    # the scatter operators get the contiguous rows of the responsibilities,
    # not strided columns copied out
    seen = []
    original = linops.WeightedCovOperator

    class Recording(original):
        def __init__(self, values, weights):
            seen.append(weights)
            super().__init__(values, weights)

    monkeypatch.setattr(linops, "WeightedCovOperator", Recording)
    data, truth = small_dataset(seed=5)
    resp, _ = e_step(truth, data)
    cm_step(data, resp, truth)
    assert len(seen) == truth.n_components
    for k, weights in enumerate(seen):
        assert weights.flags.c_contiguous and np.shares_memory(weights, resp.gamma)
        np.testing.assert_array_equal(weights, resp.gamma[:, k])


# -------------------------------------------------------------------- memory


def _memory_case():
    # 4000 x 50 data, K=3, q=2: the data dwarf every n x K or p x q array,
    # so a second n x p temporary alive at once would double the peak
    rng = make_rng(211)
    data = DataMatrix(values=rng.standard_normal((4000, 50)))
    return data, random_mixture(50, (2, 2, 2), rng)


def test_density_pass_holds_no_data_sized_temporary():
    data, model = _memory_case()
    peak = traced_peak(
        lambda: component_log_densities(model.components[0], data.values)
    )
    assert peak <= 0.6 * data.values.nbytes


def test_e_step_holds_no_data_sized_temporary():
    data, model = _memory_case()
    peak = traced_peak(lambda: e_step(model, data))
    assert peak <= 0.6 * data.values.nbytes


def test_kmeans_labels_hold_no_data_sized_temporary():
    data, _ = _memory_case()
    moments = _moments(data.values)
    peak = traced_peak(lambda: _kmeans_labels(data.values, 3, make_rng(1), *moments))
    assert peak <= 0.6 * data.values.nbytes


def test_kmeans_start_holds_no_data_sized_temporary():
    # the start's cluster means and variances come from the moment pass on
    # 0/1 weights, not from copies of the clusters' rows
    data, _ = _memory_case()
    moments = _moments(data.values)
    peak = traced_peak(
        lambda: ecm._kmeans_start(data, 3, (2, 2, 2), make_rng(1), *moments))
    assert peak <= 0.6 * data.values.nbytes


# ----------------------------------------------------------- row blocks


def test_e_step_is_bit_identical_across_block_sizes(monkeypatch):
    # BLOCK_BYTES = 0 gives the smallest blocks: here 15 of 64 rows and a
    # ragged last one, against one block of all 1000 rows
    rng = make_rng(227)
    data = DataMatrix(values=rng.standard_normal((1000, 40))
                      @ rng.standard_normal((40, 40)))
    model = random_mixture(40, (2, 3, 0), rng)
    monkeypatch.setattr(_kernels, "BLOCK_BYTES", 0)
    assert len(list(_kernels.row_blocks(data.values))) == 16
    resp, ll = e_step(model, data)
    monkeypatch.setattr(_kernels, "BLOCK_BYTES", 2**62)
    want_resp, want_ll = e_step(model, data)
    np.testing.assert_array_equal(resp.gamma, want_resp.gamma)
    assert ll == want_ll


def test_kmeans_labels_do_not_depend_on_block_size(monkeypatch):
    data, _ = small_dataset(seed=301, n=700, k=3)
    monkeypatch.setattr(_kernels, "BLOCK_BYTES", 0)
    got = _kmeans_labels(data.values, 3, make_rng(2), *_moments(data.values))
    monkeypatch.setattr(_kernels, "BLOCK_BYTES", 2**62)
    np.testing.assert_array_equal(
        got, _kmeans_labels(data.values, 3, make_rng(2), *_moments(data.values)))


@pytest.mark.parametrize("seed", range(3))
def test_kmeans_partition_does_not_move_with_the_origin(seed):
    # the centres stay in standardized units, so an offset far above the
    # spread cancels before it meets a distance
    data, _ = small_dataset(seed=300 + seed, k=3)
    want = _kmeans_labels(data.values, 3, make_rng(seed), *_moments(data.values))
    shifted = data.values + 1e6
    got = _kmeans_labels(shifted, 3, make_rng(seed), *_moments(shifted))
    assert adjusted_rand_index(got, want) == 1.0


# -------------------------------------------------------------------- cm_step


def test_one_hot_gamma_recovers_sample_means(rng):
    data, truth = small_dataset(seed=5)
    labels = data.labels
    gamma = np.zeros((data.n, 2))
    gamma[np.arange(data.n), labels] = 1.0
    model = cm_step(data, Responsibilities(gamma=gamma), truth)
    for k in range(2):
        np.testing.assert_allclose(model.components[k].mean,
                                   data.values[labels == k].mean(axis=0),
                                   atol=1e-12)
        assert model.components[k].weight == pytest.approx(
            float(np.mean(labels == k)))


def test_single_cluster_no_factor_closed_form(rng):
    y = rng.standard_normal((50, 6)) * rng.uniform(0.5, 2.0, 6)
    data = DataMatrix(values=y)
    gamma = np.ones((50, 1))
    current = MixtureModel(components=(
        _diag_component(1.0, np.zeros(6), np.ones(6)),
    ))
    model = cm_step(data, Responsibilities(gamma=gamma), current)
    scatter = dense_weighted_cov(y, np.ones(50), y.mean(axis=0))
    np.testing.assert_allclose(model.components[0].uniquenesses,
                               np.clip(np.diag(scatter), PSI_MIN, None),
                               rtol=1e-10)


def test_ecm_iteration_ascends_from_random_models(rng):
    data, _ = small_dataset(seed=9)
    for trial in range(100):
        model = random_mixture(10, (2, 2), make_rng(1000 + trial))
        resp, before = e_step(model, data)
        try:
            updated = cm_step(data, resp, model)
        except EmptyCluster:
            continue
        _, after = e_step(updated, data)
        assert after >= before - 1e-8


def test_cm_step_drops_each_operator_before_the_next_moment_pass():
    # each operator copies its weighted rows out for its eigensolves; that
    # copy must be gone before the next component's n x p moment pass
    rng = make_rng(223)
    n, p = 1200, 80
    data = DataMatrix(values=rng.standard_normal((n, p)))
    gamma = np.zeros((n, 2))
    gamma[:800, 0] = 1.0
    gamma[800:, 1] = 1.0
    model = random_mixture(p, (2, 2), rng)
    peak = traced_peak(
        lambda: cm_step(data, Responsibilities(gamma=gamma), model)
    )
    assert peak <= 1.3 * data.values.nbytes


def _last_cluster_short(n):
    gamma = np.zeros((n, 2))
    gamma[:, 0] = 1.0
    gamma[0, 0] = 0.0
    gamma[0, 1] = 1.0  # one point in cluster 1, below floor q+1=3
    return Responsibilities(gamma=gamma)


def _assert_last_cluster_emptied(exc):
    assert exc.value.component == 1
    assert exc.value.mass == pytest.approx(1.0)
    assert exc.value.floor == 3.0


def test_empty_cluster_raised_with_diagnostics(rng, monkeypatch):
    # the short component is the last one: the step raises before solving
    # any component's profile problem
    solves = count_calls(monkeypatch, linops, "top_eigenpairs")
    data, truth = small_dataset(seed=3)
    with pytest.raises(EmptyCluster) as exc:
        cm_step(data, _last_cluster_short(data.n), truth)
    _assert_last_cluster_emptied(exc)
    assert solves == []


def test_aecm_empty_cluster_raised_before_any_component_work(monkeypatch):
    e_steps = count_calls(monkeypatch, ecm, "e_step")
    scatters = count_calls(monkeypatch, linops, "dense_scatter")
    data, truth = small_dataset(seed=3)
    # first cycle: the given responsibilities leave the last cluster short,
    # so no mid-cycle model is scored
    with pytest.raises(EmptyCluster) as exc:
        _aecm_step(data, _last_cluster_short(data.n), truth)
    _assert_last_cluster_emptied(exc)
    assert e_steps == []
    # second cycle: the refreshed responsibilities leave it short
    resp, _ = e_step(truth, data)
    refreshed = []

    def short_e_step(model, d):
        refreshed.append(model)
        return _last_cluster_short(d.n), 0.0

    monkeypatch.setattr(ecm, "e_step", short_e_step)
    with pytest.raises(EmptyCluster) as exc:
        _aecm_step(data, resp, truth)
    _assert_last_cluster_emptied(exc)
    assert len(refreshed) == 1
    assert scatters == []


def test_aecm_step_takes_its_means_without_a_moment_pass(monkeypatch):
    # each mean is the weighted sum over the mass the step has checked, with
    # the bits of the moment pass's mean, and the second cycle makes one
    # scatter per component
    moments = count_calls(monkeypatch, _kernels, "weighted_stats")
    scatters = count_calls(monkeypatch, linops, "dense_scatter")
    data, truth = small_dataset(seed=3)
    resp, _ = e_step(truth, data)
    updated = _aecm_step(data, resp, truth)
    assert truth.n_components == 2
    assert moments == []
    assert len(scatters) == truth.n_components
    for k, comp in enumerate(updated.components):
        w = resp.by_component[k]
        mean, _ = _kernels.weighted_stats(data.values, w, float(np.sum(w)))
        np.testing.assert_array_equal(comp.mean, mean)


# ------------------------------------------------------------------------ fit


def _fast_config(monkeypatch, short_run_iters=1, **kw):
    monkeypatch.setattr(ecm, "SHORT_RUN_ITERS", short_run_iters)
    base = dict(n_components=2, factor_spec=2, n_random_starts=8,
                n_finalists=2, seed=0)
    base.update(kw)
    return FitConfig(**base)


def _is_long_run(max_iter, config):
    # both kinds of run take the same step; only the step budget that
    # ecm._advance receives tells a finalist's long run from a short run
    assert config.max_iter != ecm.SHORT_RUN_ITERS
    assert max_iter in (ecm.SHORT_RUN_ITERS, config.max_iter)
    return max_iter == config.max_iter


def _track_run_kind(monkeypatch, config, on_run=None) -> dict:
    """Wrap ``ecm._advance``; ``kind["long"]`` says which run is stepping.

    Each call of ``_advance`` steps one run: a start's short run, or a
    finalist's long run on from where its short run ended.  ``on_run`` is
    called with that run before it steps.
    """
    kind = {"long": None}

    def recording(data, run, step_fn, *, max_iter, tol, _advance=ecm._advance):
        kind["long"] = _is_long_run(max_iter, config)
        if on_run is not None:
            on_run(run)
        return _advance(data, run, step_fn, max_iter=max_iter, tol=tol)

    monkeypatch.setattr(ecm, "_advance", recording)
    return kind


def test_fit_recovers_planted_clusters(rng, monkeypatch):
    data, _ = small_dataset(seed=11)
    report = fit(data, _fast_config(monkeypatch))
    assert adjusted_rand_index(report.hard_assignment, data.labels) >= 0.9
    assert report.converged


def test_fit_single_component_is_factor_analysis(rng, monkeypatch):
    data, _ = small_dataset(seed=13)
    report = fit(data, _fast_config(monkeypatch, n_components=1,
                                    factor_spec=2, n_random_starts=3))
    assert report.model.n_components == 1
    steps = np.diff(report.loglik_trace)
    assert steps.size == 0 or steps.min() >= -1e-8
    np.testing.assert_array_equal(report.hard_assignment, np.zeros(data.n))


def test_fit_is_deterministic_per_seed(rng, monkeypatch):
    data, _ = small_dataset(seed=17)
    cfg = _fast_config(monkeypatch, seed=42)
    a = fit(data, cfg)
    b = fit(data, cfg)
    np.testing.assert_array_equal(a.loglik_trace, b.loglik_trace)
    np.testing.assert_array_equal(a.responsibilities.gamma,
                                  b.responsibilities.gamma)
    for ca, cb in zip(a.model.components, b.model.components):
        assert ca.weight == cb.weight
        np.testing.assert_array_equal(ca.mean, cb.mean)
        np.testing.assert_array_equal(ca.loadings, cb.loadings)
        np.testing.assert_array_equal(ca.uniquenesses, cb.uniquenesses)


def test_fit_thread_count_does_not_change_result(rng, monkeypatch):
    data, _ = small_dataset(seed=19)
    cfg = _fast_config(monkeypatch, seed=7)
    a = fit(data, cfg, threads=1)
    b = fit(data, cfg, threads=3)
    np.testing.assert_array_equal(a.loglik_trace, b.loglik_trace)
    np.testing.assert_array_equal(a.hard_assignment, b.hard_assignment)


@pytest.mark.parametrize("threads", [1, 2])
def test_no_start_model_outlives_its_short_run(monkeypatch, threads):
    data, _ = small_dataset(seed=19)
    refs = []
    for name in ("_random_start", "_kmeans_start"):
        build = getattr(ecm, name)

        def tracked(*args, _build=build, **kwargs):
            model = _build(*args, **kwargs)
            refs.append(weakref.ref(model))
            return model

        monkeypatch.setattr(ecm, name, tracked)
    advance = ecm._advance
    alive_at_long_runs = []
    # (short-run log-likelihood, weakref) of each short run; once the
    # finalists are chosen, only theirs may be alive
    short_runs = []
    alive_non_finalists = []

    config = _fast_config(monkeypatch)

    def checking(data, run, step_fn, *, max_iter, tol):
        long = _is_long_run(max_iter, config)
        if long:
            gc.collect()
            alive_at_long_runs.append(sum(ref() is not None for ref in refs))
            if not alive_non_finalists:
                ranked = sorted(short_runs, key=lambda item: -item[0])
                alive_non_finalists.append(
                    sum(ref() is not None for _, ref in ranked[2:])
                )
        run = advance(data, run, step_fn, max_iter=max_iter, tol=tol)
        if not long:
            short_runs.append((run.trace[-1], weakref.ref(run)))
        return run

    monkeypatch.setattr(ecm, "_advance", checking)
    fit(data, config, threads=threads)
    assert len(refs) == 9  # 8 random starts and the k-means start
    assert alive_at_long_runs and not any(alive_at_long_runs)
    assert len(short_runs) > 2 and alive_non_finalists == [0]


def test_each_run_drops_its_start_model_by_its_second_cm_step(monkeypatch):
    # each call of ecm._advance begins a run: a short run from its start
    # model, or a finalist's long run from the model its short run ended
    # with.  By the run's second CM step only the current model may be
    # alive, for short and long runs alike.  The tight tol keeps every run
    # stepping past its short run
    data, _ = small_dataset(seed=19)
    config = _fast_config(monkeypatch, short_run_iters=4, tol=1e-10)
    # on the iterative route's L-BFGS-B, which leaves the CM steps inexact
    # enough that the long runs step past their second CM step
    monkeypatch.setattr(linops, "DENSE_THRESHOLD", 0)
    run = {"start": None, "steps": 0, "long": None}

    def begin(r):
        run.update(start=weakref.ref(r.model), steps=0, long=kind["long"])

    kind = _track_run_kind(monkeypatch, config, on_run=begin)
    dead_at_second_step = []
    long_runs_checked = []

    def tracked_cm_step(d, resp, current, _cm_step=ecm.cm_step):
        run["steps"] += 1
        if run["steps"] == 2:
            gc.collect()
            dead_at_second_step.append(run["start"]() is None)
            long_runs_checked.append(run["long"])
        return _cm_step(d, resp, current)

    monkeypatch.setattr(ecm, "cm_step", tracked_cm_step)
    fit(data, config)
    # the short runs of the surviving starts and both finalists' long runs
    assert len(dead_at_second_step) > 2 and all(dead_at_second_step)
    assert sum(long_runs_checked) == config.n_finalists


def test_a_finalist_continues_its_short_run_without_a_second_e_step(monkeypatch):
    # one start whose one-step short run cannot converge: every E-step of
    # the fit is one entry of the trace
    data, _ = small_dataset(seed=19)
    e_steps = count_calls(monkeypatch, ecm, "e_step")
    report = fit(data, _fast_config(monkeypatch, n_random_starts=0,
                                    n_finalists=1))
    assert report.n_iter > 1
    assert len(e_steps) == len(report.loglik_trace)


@pytest.mark.parametrize("short_run_iters", [1, 4])
def test_a_lone_start_fits_as_a_run_from_that_start(monkeypatch, short_run_iters):
    # a short run takes the same step as a long one, so the k-means start's
    # short run and its continuation are one run from that start model
    data, _ = small_dataset(seed=19)
    config = _fast_config(monkeypatch, short_run_iters=short_run_iters,
                          n_random_starts=0, n_finalists=1, seed=3)
    start = ecm._kmeans_start(data, 2, config.factor_vector(),
                              ecm._start_rngs(config)[0], *_moments(data.values))
    protocol = fit(data, config)
    direct = fit(data, config, initial_model=start)
    assert protocol.n_iter == direct.n_iter
    np.testing.assert_array_equal(protocol.loglik_trace, direct.loglik_trace)
    np.testing.assert_array_equal(protocol.responsibilities.gamma,
                                  direct.responsibilities.gamma)


def test_each_e_step_runs_after_the_last_responsibilities_die(monkeypatch):
    # one run, from the k-means start: every E-step after the first follows
    # a CM step of the same run, and the responsibilities that step used
    # must be dead by then, so the E-step's end holds two n x K arrays, not
    # three.  The K = 3 run is long and steps in SQUAREM cycles, whose
    # proposal, stabilizing and re-scoring E-steps obey the same rule
    data, _ = small_dataset(seed=19, n=120, p=6, q=1)
    extrapolations = count_calls(monkeypatch, ecm, "_extrapolate")
    results = []
    previous_alive = []

    def tracked_e_step(model, d, _e_step=ecm.e_step):
        if results:
            gc.collect()
            previous_alive.append(results[-1]() is not None)
        resp, ll = _e_step(model, d)
        results.append(weakref.ref(resp))
        return resp, ll

    monkeypatch.setattr(ecm, "e_step", tracked_e_step)
    for n_components, tol in ((2, 1e-6), (3, 1e-8)):
        results.clear()
        previous_alive.clear()
        fit(data, _fast_config(monkeypatch, n_components=n_components,
                               factor_spec=1, n_random_starts=0,
                               n_finalists=1, tol=tol))
        assert len(previous_alive) > 1 and not any(previous_alive)
        assert bool(extrapolations) == (n_components == 3)


def test_a_finalist_whose_long_run_fails_is_dropped(monkeypatch):
    # the first finalist's long run empties a cluster at its first step; its
    # model and responsibilities must be dead while the second one runs.  The
    # tight tol keeps both finalists stepping past their short runs
    data, _ = small_dataset(seed=19)
    config = _fast_config(monkeypatch, tol=1e-10)
    kind = _track_run_kind(monkeypatch, config)
    failed = []
    dead_during_second = []

    def failing_cm_step(d, resp, current, _cm_step=ecm.cm_step):
        if kind["long"]:
            if not failed:
                failed.extend((weakref.ref(current), weakref.ref(resp)))
                raise EmptyCluster(1, 1.0, 3.0)
            if not dead_during_second:
                gc.collect()
                dead_during_second.append([ref() is None for ref in failed])
        return _cm_step(d, resp, current)

    monkeypatch.setattr(ecm, "cm_step", failing_cm_step)
    report = fit(data, config)
    assert dead_during_second == [[True, True]]
    assert report.converged


@pytest.mark.parametrize("seed", range(6))
def test_kmeans_partition_matches_masked_mean_lloyd(seed):
    data, _ = small_dataset(seed=300 + seed, k=3)
    got = _kmeans_labels(data.values, 3, make_rng(seed), *_moments(data.values))
    want, _ = kmeans_labels_masked(data.values, 3, make_rng(seed))
    np.testing.assert_array_equal(got, want)


def test_kmeans_empty_cluster_keeps_its_centre():
    # 5 distinct rows, 40 copies each: drawing two copies of one row as
    # centres leaves the later cluster empty through the argmin tie
    y = np.repeat(make_rng(100).standard_normal((5, 4)), 40, axis=0)
    for seed in range(4):
        got = _kmeans_labels(y, 4, make_rng(seed), *_moments(y))
        want, empty_updates = kmeans_labels_masked(y, 4, make_rng(seed))
        assert empty_updates > 0
        np.testing.assert_array_equal(got, want)


def test_fit_common_q_equals_explicit_vector(rng, monkeypatch):
    data, _ = small_dataset(seed=23)
    a = fit(data, _fast_config(monkeypatch, factor_spec=2, seed=5))
    b = fit(data, _fast_config(monkeypatch, factor_spec=(2, 2), seed=5))
    np.testing.assert_array_equal(a.loglik_trace, b.loglik_trace)
    for ca, cb in zip(a.model.components, b.model.components):
        np.testing.assert_array_equal(ca.loadings, cb.loadings)


def test_row_permutation_permutes_assignment(rng, monkeypatch):
    data, truth = small_dataset(seed=29)
    perm = rng.permutation(data.n)
    permuted = DataMatrix(values=data.values[perm],
                          labels=data.labels[perm])
    cfg = _fast_config(monkeypatch, max_iter=60)
    a = fit(data, cfg, initial_model=truth)
    b = fit(permuted, cfg, initial_model=truth)
    assert b.loglik == pytest.approx(a.loglik, abs=1e-9 * abs(a.loglik))
    np.testing.assert_array_equal(a.hard_assignment[perm], b.hard_assignment)


def test_fit_bic_matches_definition(rng, monkeypatch):
    from gmmfad.model import free_param_count

    data, _ = small_dataset(seed=31)
    report = fit(data, _fast_config(monkeypatch))
    d = free_param_count(report.model)
    assert report.bic == pytest.approx(-2 * report.loglik + d * math.log(data.n),
                                       rel=1e-12)


def test_fit_config_validation(rng):
    data, _ = small_dataset(seed=41)
    with pytest.raises(ValueError):
        FitConfig(n_components=2, factor_spec=(2, 2, 2)).factor_vector()
    with pytest.raises(ValueError):
        FitConfig(n_components=2, factor_spec=9).validate_for(data)  # cap is 5
    with pytest.raises(ValueError):
        FitConfig(n_components=500, factor_spec=1).validate_for(data)


# ------------------------------------------------------------------- SQUAREM


def _plain_run(data, model, resp, trace, *, max_iter, tol):
    """A run continued by plain stepping alone: (model, resp, trace)."""
    trace = list(trace)
    while len(trace) - 1 < max_iter:
        model = cm_step(data, resp, model)
        resp, ll = e_step(model, data)
        converged = ll - trace[-1] < tol
        trace.append(ll)
        if converged:
            break
    return model, resp, trace


def _over_fitted_cell(**kw):
    # replicate 0 of the paper simulation (truth K = 2, q = 2) and the
    # K = 3, q = 1 cell of a selection over it, with the select_grid
    # benchmark's settings: the redundant component splits a true cluster,
    # and plain stepping ends in a long linear tail
    data, _ = small_dataset(seed=0, separation=3.0)
    base = dict(n_components=3, factor_spec=1, tol=1e-5, max_iter=150,
                n_random_starts=8, n_finalists=2, seed=0)
    base.update(kw)
    return data, FitConfig(**base)


def test_squarem_cuts_the_steps_of_an_over_fitted_cell(monkeypatch):
    data, config = _over_fitted_cell()
    finalists = []
    advance = ecm._advance

    def recording(data, run, step_fn, *, max_iter, tol):
        if max_iter == config.max_iter:
            finalists.append((run.model, run.resp, list(run.trace)))
        return advance(data, run, step_fn, max_iter=max_iter, tol=tol)

    monkeypatch.setattr(ecm, "_advance", recording)
    report = fit(data, config)
    plain = max(
        (_plain_run(data, *start, max_iter=config.max_iter, tol=config.tol)[2]
         for start in finalists),
        key=lambda trace: trace[-1],
    )
    assert len(finalists) == config.n_finalists
    assert np.all(np.diff(report.loglik_trace) >= 0)
    assert abs(report.loglik - plain[-1]) <= 1e-6 * abs(plain[-1])
    assert report.n_iter <= 0.6 * (len(plain) - 1)


def test_a_rejected_extrapolation_leaves_plain_stepping(monkeypatch):
    # every proposal puts each mean on the first component's, which the
    # E-step scores lower; every cycle falls back, and the run is plain
    # stepping bit for bit
    data, config = _over_fitted_cell(max_iter=40)
    start = ecm._kmeans_start(data, 3, config.factor_vector(), make_rng(0),
                              *_moments(data.values))
    scored_lower = []

    def collapsed(x0, r, model):
        first = model.components[0].mean
        proposal = MixtureModel(components=tuple(
            dataclasses.replace(c, mean=first) for c in model.components
        ))
        scored_lower.append(e_step(proposal, data)[1] < e_step(model, data)[1])
        return proposal

    monkeypatch.setattr(ecm, "_extrapolate", collapsed)
    report = fit(data, config, initial_model=start)
    resp, ll = e_step(start, data)
    model, resp, trace = _plain_run(data, start, resp, [ll],
                                    max_iter=config.max_iter, tol=config.tol)
    assert scored_lower and all(scored_lower)
    np.testing.assert_array_equal(report.loglik_trace, trace)
    assert report.n_iter == len(trace) - 1
    np.testing.assert_array_equal(report.responsibilities.gamma, resp.gamma)
    for got, want in zip(report.model.components, model.components):
        assert got.weight == want.weight
        np.testing.assert_array_equal(got.mean, want.mean)
        np.testing.assert_array_equal(got.loadings, want.loadings)
        np.testing.assert_array_equal(got.uniquenesses, want.uniquenesses)


def test_cycles_begin_only_after_the_third_step(monkeypatch):
    # the k-means start's run converges at its third step and never
    # extrapolates; with a tighter tol the run's first cycle takes its two
    # plain steps after the third and only then extrapolates.  On the
    # iterative route's L-BFGS-B: the dense route's exact CM steps reach an
    # exact ECM fixed point at the third step, where no cycle starts
    monkeypatch.setattr(linops, "DENSE_THRESHOLD", 0)
    data, _ = small_dataset(seed=19)
    extrapolations = count_calls(monkeypatch, ecm, "_extrapolate")
    report = fit(data, _fast_config(monkeypatch, n_random_starts=0,
                                    n_finalists=1))
    assert report.converged and report.n_iter == ecm._SQUAREM_AFTER
    assert extrapolations == []

    steps_at_cycle_end = []
    squarem_step = ecm._squarem_step

    def recording(data, run, *args):
        steps_at_cycle_end.append(run.n_iter)
        return squarem_step(data, run, *args)

    monkeypatch.setattr(ecm, "_squarem_step", recording)
    fit(data, _fast_config(monkeypatch, n_random_starts=0, n_finalists=1,
                           tol=1e-10))
    assert steps_at_cycle_end[0] == ecm._SQUAREM_AFTER + 2


def _falling_step(monkeypatch, fall):
    """A step function whose every step re-uses the model's parameters and
    scores ``fall`` nats below it, through a wrapped ``ecm.e_step``."""
    stepped = []

    def step(d, resp, model):
        stepped.append(MixtureModel(components=model.components))
        return stepped[-1]

    def scoring(model, d, _e_step=ecm.e_step):
        resp, ll = _e_step(model, d)
        if stepped and model is stepped[-1]:
            ll -= fall
        return resp, ll

    monkeypatch.setattr(ecm, "e_step", scoring)
    return step


@pytest.mark.parametrize("engine, step_name", [(fit, "cm_step"),
                                               (fit_baseline_aecm, "_aecm_step")])
def test_a_step_that_falls_under_tol_is_not_taken(monkeypatch, caplog,
                                                  engine, step_name):
    # a fall below tol is rounding, not a step: the run keeps its model,
    # re-scored by one E-step, and is converged; DEBUG alone reports it
    data, truth = small_dataset(seed=19)
    config = _fast_config(monkeypatch, tol=1e-5)
    monkeypatch.setattr(ecm, step_name, _falling_step(monkeypatch, 0.5e-5))
    e_steps = count_calls(monkeypatch, ecm, "e_step")
    with caplog.at_level(logging.INFO, logger="gmmfad"):
        report = engine(data, config, initial_model=truth)
    assert caplog.records == []
    resp, ll = e_step(truth, data)
    assert report.converged and report.n_iter == 0
    np.testing.assert_array_equal(report.loglik_trace, [ll])
    np.testing.assert_array_equal(report.responsibilities.gamma, resp.gamma)
    assert report.model is truth
    # the start's E-step, the stepped model's and the re-scoring
    assert len(e_steps) == 3
    with caplog.at_level(logging.DEBUG, logger="gmmfad.ecm"):
        engine(data, config, initial_model=truth)
    assert [r.levelno for r in caplog.records] == [logging.DEBUG]


@pytest.mark.parametrize("engine, step_name", [(fit, "cm_step"),
                                               (fit_baseline_aecm, "_aecm_step")])
def test_a_step_that_falls_by_tol_or_more_is_reported(monkeypatch, engine,
                                                      step_name):
    data, truth = small_dataset(seed=19)
    config = _fast_config(monkeypatch, tol=1e-5)
    monkeypatch.setattr(ecm, step_name, _falling_step(monkeypatch, 2e-5))
    with pytest.raises(ValueError, match="ascent property violated"):
        engine(data, config, initial_model=truth)


# ------------------------------------------------------------------- baseline


def test_engines_agree_from_identical_start(rng, monkeypatch):
    data, truth = small_dataset(seed=43)
    cfg = _fast_config(monkeypatch, max_iter=400)
    a = fit(data, cfg, initial_model=truth)
    b = fit_baseline_aecm(data, cfg, initial_model=truth)
    assert abs(a.loglik - b.loglik) <= 1e-3 * abs(a.loglik)
    assert np.diff(b.loglik_trace).min() >= -1e-8


def test_zero_loading_aecm_step_is_diagonal_gmm_update(rng):
    data, truth = small_dataset(seed=47)
    comps = []
    for comp in truth.components:
        comps.append(ComponentParams(
            weight=comp.weight, mean=comp.mean,
            loadings=np.zeros((data.p, 2)), uniquenesses=comp.uniquenesses,
        ))
    model = MixtureModel(components=tuple(comps))
    resp, _ = e_step(model, data)
    updated = _aecm_step(data, resp, model)

    # oracle: cycle 1 updates (weight, mean); the re-E-step then drives a
    # plain diagonal-GMM M-step because beta = Lambda^T Sigma^{-1} = 0
    gamma = resp.gamma
    mid = []
    for k, comp in enumerate(model.components):
        w = gamma[:, k]
        mid.append(ComponentParams(
            weight=w.sum() / data.n, mean=(w @ data.values) / w.sum(),
            loadings=comp.loadings, uniquenesses=comp.uniquenesses,
        ))
    g2 = e_step(MixtureModel(components=tuple(mid)), data)[0].gamma
    for k, comp in enumerate(updated.components):
        np.testing.assert_array_equal(comp.loadings, np.zeros((data.p, 2)))
        scatter = dense_weighted_cov(data.values, g2[:, k], mid[k].mean)
        np.testing.assert_allclose(comp.uniquenesses,
                                   np.clip(np.diag(scatter), PSI_MIN, None),
                                   rtol=1e-9)


def test_aecm_step_at_q_zero_takes_the_clipped_scatter_diagonal(monkeypatch):
    # the general loadings update on p x 0 blocks: p x 0 loadings, and psi is
    # the clipped diagonal of the step's own scatter, bit for bit
    calls = []
    original = linops.dense_scatter

    def recording(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(linops, "dense_scatter", recording)
    data, truth = small_dataset(seed=53, q=0)
    resp, _ = e_step(truth, data)
    updated = _aecm_step(data, resp, truth)
    assert len(calls) == truth.n_components
    for args, comp in zip(calls, updated.components):
        assert comp.loadings.shape == (data.p, 0)
        np.testing.assert_array_equal(
            comp.uniquenesses, np.clip(np.diag(original(*args)), PSI_MIN, PSI_MAX)
        )


def test_aecm_moment_pass_reaches_the_kernel_module(monkeypatch):
    # a wrapper set on gmmfad._kernels (as the benchmark tracer and profilers
    # do) must see the AECM engine's moment passes: the start protocol's
    # unit-weight pass and one per k-means cluster, and none in its steps
    calls = []
    original = _kernels.weighted_stats

    def counting(y, w, weight_sum):
        calls.append(y.shape)
        return original(y, w, weight_sum)

    monkeypatch.setattr(_kernels, "weighted_stats", counting)
    data, truth = small_dataset(seed=43)
    report = fit_baseline_aecm(data, _fast_config(monkeypatch, max_iter=3))
    assert report.n_iter > 0
    assert calls == [data.values.shape] * (1 + truth.n_components)
    calls.clear()
    report = fit_baseline_aecm(data, _fast_config(monkeypatch, max_iter=3),
                               initial_model=truth)
    assert report.n_iter > 0
    assert calls == []


def test_baseline_rejects_large_p_without_force(rng):
    y = rng.standard_normal((6, 501))
    data = DataMatrix(values=y)
    cfg = FitConfig(n_components=1, factor_spec=0, n_random_starts=0,
                    n_finalists=1, max_iter=1)
    with pytest.raises(DimensionTooLarge):
        fit_baseline_aecm(data, cfg)
    report = fit_baseline_aecm(data, cfg, force=True)
    assert report.model.p == 501


def test_baseline_requires_common_q(rng):
    data, _ = small_dataset(seed=53)
    with pytest.raises(ValueError):
        fit_baseline_aecm(data, FitConfig(n_components=2, factor_spec=(2, 1)))
