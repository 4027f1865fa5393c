"""Mixture fitting: a matrix-free ECM engine and a classical AECM baseline.

Both engines share the E-step (Woodbury low-rank Gaussian densities,
log-sum-exp responsibilities) and the start protocol, a small emEM scheme
(Biernacki, Celeux & Govaert 2003): several random starts plus an optional
k-means start are each run for a few iterations, the most promising
finalists continue to convergence, and the best final log-likelihood wins.
Stopping is an absolute log-likelihood increase below ``tol``.

The primary engine alternates the usual weight/mean updates with a
conditional maximization over each component's uniquenesses on the profile
objective (see profileopt), recovering loadings in closed form afterwards.
Nothing in that path assembles a p x p matrix, so it scales to p far beyond
n.  Per CM step and component the work is one fused pass over the data for
the weighted moments plus a handful of operator-vector products inside the
eigensolver.

The baseline engine is the standard two-cycle AECM for factor-analyzer
mixtures (Ghahramani & Hinton 1996; McLachlan & Peel 2000, ch. 8): cycle one
refreshes weights and means, cycle two refreshes responsibilities and then
updates loadings and uniquenesses from the augmented-data moments

    beta   = Lambda^T Sigma^{-1}
    Lambda <- S beta^T (beta S beta^T + I - beta Lambda)^{-1}
    Psi    <- diag(S - Lambda_new beta S),

which requires the dense weighted scatter S per component, so it is capped
at p <= 500 unless forced.

Determinism contract: a fixed config seed yields a bit-identical report,
regardless of the thread count used for the start sweep.  Start seeds derive
from a spawned SeedSequence feeding counter-based Philox generators, and all
reductions happen in fixed start order.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from . import _kernels, linops, profileopt
from .model import (
    PSI_MAX,
    PSI_MIN,
    ComponentParams,
    DataMatrix,
    FitReport,
    MixtureModel,
    Responsibilities,
    free_param_count,
    max_admissible_q,
)

AECM_P_LIMIT = 500
_LOG_2PI = math.log(2.0 * math.pi)


class EcmError(Exception):
    pass


class NonFiniteDensity(EcmError, ValueError):
    """Density evaluation received non-finite input."""


class EmptyCluster(EcmError, RuntimeError):
    """A component's responsibility mass fell below its floor."""

    def __init__(self, component: int, mass: float, floor: float):
        super().__init__(
            f"component {component} emptied (mass {mass:.4g} < floor {floor:.4g})"
        )
        self.component = component
        self.mass = mass
        self.floor = floor


class AllStartsFailed(EcmError, RuntimeError):
    """Every initialization degenerated before producing a usable run."""


class DimensionTooLarge(EcmError, ValueError):
    """The dense baseline refuses p beyond its limit unless forced."""


@dataclass(frozen=True)
class FitConfig:
    """Engine settings; defaults follow the calibration used throughout."""

    n_components: int
    factor_spec: int | tuple[int, ...]
    tol: float = 1e-6
    max_iter: int = 500
    n_random_starts: int = 20
    short_run_iters: int = 5
    n_finalists: int = 3
    use_kmeans_start: bool = True
    seed: int = 0

    def factor_vector(self) -> tuple[int, ...]:
        if isinstance(self.factor_spec, (int, np.integer)):
            return (int(self.factor_spec),) * self.n_components
        fs = tuple(int(q) for q in self.factor_spec)
        if len(fs) != self.n_components:
            raise ValueError(
                f"factor_spec has {len(fs)} entries for {self.n_components} components"
            )
        return fs

    def validate_for(self, data: DataMatrix) -> None:
        if self.n_components < 1:
            raise ValueError("need at least one component")
        if self.n_components > data.n:
            raise ValueError("more components than observations")
        if self.tol < 0 or self.max_iter < 1:
            raise ValueError("tol must be >= 0 and max_iter >= 1")
        if self.n_random_starts < 0 or self.n_finalists < 1 or self.short_run_iters < 1:
            raise ValueError("start protocol settings must be positive")
        cap = max_admissible_q(data.p)
        for k, q in enumerate(self.factor_vector()):
            if q < 0:
                raise ValueError("factor counts must be non-negative")
            if q > 0 and q > cap:
                raise ValueError(
                    f"q={q} for component {k} exceeds the identifiability bound "
                    f"{cap} at p={data.p}"
                )
            if q >= min(data.n, data.p):
                raise ValueError(f"q={q} must be below min(n, p)={min(data.n, data.p)}")


def _cluster_floor(q: int) -> float:
    return float(max(q + 1, 2))


def component_log_densities(component: ComponentParams, y: np.ndarray) -> np.ndarray:
    """Log N(y | mean, Lambda Lambda^T + Psi) for each row, via Woodbury.

    With W = Psi^{-1/2} Lambda and M = I + W^T W = L L^T,
    the quadratic form is ||u||^2 - ||L^{-1} W^T u||^2 for whitened
    residuals u, and log det Sigma = log det M + sum log psi.  Cost is
    O(n p q + q^3); no p x p object appears.
    """
    psi = component.uniquenesses
    inv_sqrt = 1.0 / np.sqrt(psi)
    u = (y - component.mean) * inv_sqrt
    quad = np.einsum("ij,ij->i", u, u)
    logdet = float(np.sum(np.log(psi)))
    q = component.n_factors
    if q:
        w = component.loadings * inv_sqrt[:, None]
        m = np.eye(q) + w.T @ w
        chol = np.linalg.cholesky(m)
        t = u @ w
        z = solve_triangular(chol, t.T, lower=True)
        quad = quad - np.einsum("ij,ij->j", z, z)
        logdet += 2.0 * float(np.sum(np.log(np.diag(chol))))
    return -0.5 * (component.p * _LOG_2PI + logdet + quad)


def log_density(component: ComponentParams, y: np.ndarray) -> float:
    """Log density of a single observation under one component."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (component.p,):
        raise ValueError(f"expected a length-{component.p} vector")
    if not np.all(np.isfinite(y)):
        raise NonFiniteDensity("observation contains non-finite entries")
    return float(component_log_densities(component, y[None, :])[0])


def e_step(model: MixtureModel, data: DataMatrix):
    """Responsibilities and the observed-data log-likelihood."""
    y = data.values
    n, K = data.n, model.n_components
    logjoint = np.empty((n, K))
    for k, comp in enumerate(model.components):
        logjoint[:, k] = math.log(comp.weight) + component_log_densities(comp, y)
    mx = logjoint.max(axis=1)
    lse = mx + np.log(np.sum(np.exp(logjoint - mx[:, None]), axis=1))
    gamma = np.exp(logjoint - lse[:, None])
    gamma /= gamma.sum(axis=1, keepdims=True)
    return Responsibilities(gamma=gamma), float(np.sum(lse))


def _as_gamma(resp) -> np.ndarray:
    return resp.gamma if isinstance(resp, Responsibilities) else np.asarray(resp)


def cm_step(
    data: DataMatrix,
    resp,
    factor_spec,
    current: MixtureModel,
    *,
    eig_tol: float = 1e-8,
    max_inner_iter: int = profileopt.MAX_INNER_ITER,
) -> MixtureModel:
    """One conditional maximization sweep given fixed responsibilities.

    Per component: weighted moments in one pass, uniquenesses by bounded
    L-BFGS-B on the profile objective warm-started at the current values,
    loadings recovered in closed form.  Raises EmptyCluster when a
    component's mass drops below max(q_k + 1, 2).
    """
    gamma = _as_gamma(resp)
    y = data.values
    n, K = data.n, current.n_components
    if isinstance(factor_spec, (int, np.integer)):
        qs = (int(factor_spec),) * K
    else:
        qs = tuple(int(v) for v in factor_spec)
    masses = []
    comps = []
    for k in range(K):
        w = np.ascontiguousarray(gamma[:, k])
        mass = float(np.sum(w))
        floor = _cluster_floor(qs[k])
        if mass < floor:
            raise EmptyCluster(k, mass, floor)
        scov = linops.WeightedCovOperator(y, w)
        cur = current.components[k]
        warm = None
        if qs[k] and cur.n_factors:
            whitened = cur.loadings / np.sqrt(cur.uniquenesses)[:, None]
            warm, _ = np.linalg.qr(whitened)
        obj = profileopt.ProfileObjective(
            scov,
            n_eff=mass,
            q=qs[k],
            eig_tol=eig_tol,
            warm_vectors=warm,
        )
        psi_hat = profileopt.optimize_psi(
            obj, np.clip(cur.uniquenesses, PSI_MIN, PSI_MAX),
            max_inner_iter=max_inner_iter,
        )
        lam_hat = profileopt.recover_loadings(obj, psi_hat)
        masses.append(mass)
        comps.append((scov.center, lam_hat, psi_hat))
    total = math.fsum(masses)
    return MixtureModel(
        components=tuple(
            ComponentParams(
                weight=mass / total, mean=mean, loadings=lam, uniquenesses=psi
            )
            for mass, (mean, lam, psi) in zip(masses, comps)
        )
    )


def _gmmfad_short_step(data, resp, factor_spec, current):
    # start ranking only needs coarse CM sweeps: a truncated inner solve at a
    # loose eigen tolerance is still an improvement step, so per-run ascent
    # is preserved while the ranking loglik stays exact
    return cm_step(
        data, resp, factor_spec, current, max_inner_iter=2, eig_tol=1e-5
    )


def _aecm_step(data, resp, factor_spec, current):
    """One AECM iteration: (weights, means) cycle then (loadings, psi) cycle."""
    y = data.values
    n = data.n
    gamma = _as_gamma(resp)
    masses = []
    mid = []
    for k, comp in enumerate(current.components):
        w = np.ascontiguousarray(gamma[:, k])
        mass = float(np.sum(w))
        floor = _cluster_floor(comp.n_factors)
        if mass < floor:
            raise EmptyCluster(k, mass, floor)
        _, mean, _ = _kernels.weighted_stats(y, w)
        masses.append(mass)
        mid.append((mean, comp))
    total = math.fsum(masses)
    mid_model = MixtureModel(
        components=tuple(
            ComponentParams(
                weight=mass / total,
                mean=mean,
                loadings=comp.loadings,
                uniquenesses=comp.uniquenesses,
            )
            for mass, (mean, comp) in zip(masses, mid)
        )
    )

    resp2, _ = e_step(mid_model, data)
    g2 = resp2.gamma
    comps = []
    for k, comp in enumerate(mid_model.components):
        w = np.ascontiguousarray(g2[:, k])
        mass = float(np.sum(w))
        floor = _cluster_floor(comp.n_factors)
        if mass < floor:
            raise EmptyCluster(k, mass, floor)
        scatter = linops.WeightedCovOperator(y, w, comp.mean).to_dense()
        q = comp.n_factors
        if q == 0:
            lam_new = np.zeros((data.p, 0))
            psi_new = np.clip(np.diag(scatter), PSI_MIN, PSI_MAX)
        else:
            lam = comp.loadings
            inv_psi = 1.0 / comp.uniquenesses
            wl = lam * inv_psi[:, None]
            m = np.eye(q) + lam.T @ wl
            cho = cho_factor(m, lower=True)
            beta = wl.T - (wl.T @ lam) @ cho_solve(cho, wl.T)
            sb = scatter @ beta.T
            inner = beta @ sb + np.eye(q) - beta @ lam
            lam_new = np.linalg.solve(inner.T, sb.T).T
            bs = beta @ scatter
            psi_new = np.clip(
                np.diag(scatter) - np.einsum("ij,ji->i", lam_new, bs),
                PSI_MIN,
                PSI_MAX,
            )
        comps.append(
            ComponentParams(
                weight=comp.weight,
                mean=comp.mean,
                loadings=lam_new,
                uniquenesses=psi_new,
            )
        )
    return MixtureModel(components=tuple(comps))


@dataclass
class _RunState:
    model: MixtureModel
    resp: Responsibilities
    trace: list
    n_iter: int
    converged: bool


def _run_engine(data, model, factor_spec, step_fn, *, max_iter, tol) -> _RunState:
    resp, ll = e_step(model, data)
    trace = [ll]
    converged = False
    it = 0
    while it < max_iter:
        model = step_fn(data, resp, factor_spec, model)
        resp, ll_new = e_step(model, data)
        trace.append(ll_new)
        it += 1
        if ll_new - ll < tol:
            converged = True
            break
        ll = ll_new
    return _RunState(model, resp, trace, it, converged)


def _start_rngs(config: FitConfig):
    children = np.random.SeedSequence(config.seed).spawn(config.n_random_starts + 1)
    return [np.random.Generator(np.random.Philox(c)) for c in children]


def _random_start(data: DataMatrix, K: int, qs, rng) -> MixtureModel:
    y = data.values
    n, p = y.shape
    idx = rng.choice(n, size=K, replace=False)
    var = np.clip(y.var(axis=0), PSI_MIN, PSI_MAX)
    comps = []
    for k in range(K):
        lam = (
            0.01 * rng.standard_normal((p, qs[k])) if qs[k] else np.zeros((p, 0))
        )
        comps.append(
            ComponentParams(
                weight=1.0 / K, mean=y[idx[k]], loadings=lam, uniquenesses=var
            )
        )
    return MixtureModel(components=tuple(comps))


def _kmeans_labels(y, K, rng, n_restarts=10, max_iter=100):
    """Plain Lloyd iterations on standardized data; best of n_restarts."""
    n = y.shape[0]
    std = y.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    z = (y - y.mean(axis=0)) / std
    zsq = np.einsum("ij,ij->i", z, z)
    best_labels, best_inertia = None, np.inf
    for _ in range(n_restarts):
        centers = z[rng.choice(n, size=K, replace=False)].copy()
        labels = None
        for _ in range(max_iter):
            d2 = zsq[:, None] - 2.0 * (z @ centers.T) + np.einsum(
                "ij,ij->i", centers, centers
            )
            new_labels = np.argmin(d2, axis=1)
            if labels is not None and np.array_equal(new_labels, labels):
                break
            labels = new_labels
            for k in range(K):
                mask = labels == k
                if np.any(mask):
                    centers[k] = z[mask].mean(axis=0)
        inertia = float(np.take_along_axis(d2, labels[:, None], 1).sum())
        if inertia < best_inertia:
            best_inertia, best_labels = inertia, labels
    return best_labels


def _start_from_labels(data, labels, K, qs, rng):
    y = data.values
    n, p = y.shape
    counts = np.bincount(labels, minlength=K)
    if np.any(counts < 2):
        return None
    comps = []
    for k in range(K):
        rows = y[labels == k]
        var = np.clip(rows.var(axis=0), PSI_MIN, PSI_MAX)
        lam = (
            0.01 * rng.standard_normal((p, qs[k])) if qs[k] else np.zeros((p, 0))
        )
        comps.append(
            ComponentParams(
                weight=counts[k] / n,
                mean=rows.mean(axis=0),
                loadings=lam,
                uniquenesses=var,
            )
        )
    return MixtureModel(components=tuple(comps))


_START_FAILURES = (EmptyCluster, linops.DegenerateWeights, linops.NoConvergence)
# what a fit of admissible inputs raises when the data defeat it; anything
# else, a FitReport ascent violation included, is a defect
FIT_FAILURES = (AllStartsFailed, *_START_FAILURES)


def _map(fn, items, threads):
    """``[fn(x) for x in items]``, on a pool of ``threads`` when above one."""
    if threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _fit_protocol(data, config, *, engine, step_fn, initial_model, threads,
                  short_step_fn=None):
    started = time.perf_counter()
    config.validate_for(data)
    qs = config.factor_vector()
    K = config.n_components

    if initial_model is not None:
        if initial_model.p != data.p or initial_model.n_components != K:
            raise ValueError("initial model shape disagrees with the configuration")
        if initial_model.factor_vector != qs:
            raise ValueError("initial model factor counts disagree with factor_spec")
        state = _run_engine(
            data, initial_model, qs, step_fn, max_iter=config.max_iter, tol=config.tol
        )
        return _make_report(data, config, engine, state, started)

    rngs = _start_rngs(config)
    starts = []
    for s in range(config.n_random_starts):
        starts.append(_random_start(data, K, qs, rngs[s]))
    if config.use_kmeans_start:
        km_rng = rngs[config.n_random_starts]
        labels = _kmeans_labels(data.values, K, km_rng)
        km_model = (
            _start_from_labels(data, labels, K, qs, km_rng)
            if labels is not None
            else None
        )
        if km_model is not None:
            starts.append(km_model)
    if not starts:
        raise AllStartsFailed("no initializations could be constructed")

    def short_run(model):
        try:
            return _run_engine(
                data, model, qs, short_step_fn or step_fn,
                max_iter=config.short_run_iters, tol=config.tol,
            )
        except _START_FAILURES:
            return None

    short_states = _map(short_run, starts, threads)

    survivors = [(i, st) for i, st in enumerate(short_states) if st is not None]
    if not survivors:
        raise AllStartsFailed(
            f"all {len(starts)} initializations degenerated during short runs"
        )
    survivors.sort(key=lambda item: (-item[1].trace[-1], item[0]))
    finalists = survivors[: config.n_finalists]

    def long_run(item):
        idx, st = item
        budget = max(config.max_iter - st.n_iter, 0)
        if st.converged or budget == 0:
            return idx, st, st
        try:
            cont = _run_engine(
                data, st.model, qs, step_fn, max_iter=budget, tol=config.tol
            )
        except _START_FAILURES:
            return idx, st, None
        merged = _RunState(
            model=cont.model,
            resp=cont.resp,
            trace=st.trace + cont.trace[1:],
            n_iter=st.n_iter + cont.n_iter,
            converged=cont.converged,
        )
        return idx, st, merged

    finished = _map(long_run, finalists, threads)

    completed = [(idx, merged) for idx, _, merged in finished if merged is not None]
    if not completed:
        raise AllStartsFailed("every finalist degenerated before convergence")
    completed.sort(key=lambda item: (-item[1].trace[-1], item[0]))
    return _make_report(data, config, engine, completed[0][1], started)


def _make_report(data, config, engine, state, started) -> FitReport:
    model = state.model
    d = free_param_count(model)
    loglik = state.trace[-1]
    bic = -2.0 * loglik + d * math.log(data.n)
    return FitReport(
        model=model,
        responsibilities=state.resp,
        hard_assignment=np.argmax(state.resp.gamma, axis=1),
        loglik_trace=np.asarray(state.trace, dtype=np.float64),
        bic=float(bic),
        n_iter=state.n_iter,
        converged=state.converged,
        wall_time_s=time.perf_counter() - started,
        engine=engine,
        seed=config.seed,
    )


def fit(
    data: DataMatrix,
    config: FitConfig,
    *,
    initial_model: MixtureModel | None = None,
    threads: int = 1,
) -> FitReport:
    """Fit the factor-analyzer mixture with the matrix-free ECM engine.

    With ``initial_model`` the start protocol is skipped and a single run
    proceeds from the given parameters, which is also how warm-started
    refits and engine comparisons from common starts are done.
    """
    return _fit_protocol(
        data,
        config,
        engine="gmmfad",
        step_fn=cm_step,
        short_step_fn=_gmmfad_short_step,
        initial_model=initial_model,
        threads=threads,
    )


def fit_baseline_aecm(
    data: DataMatrix,
    config: FitConfig,
    *,
    initial_model: MixtureModel | None = None,
    threads: int = 1,
    force: bool = False,
) -> FitReport:
    """Fit with the dense two-cycle AECM baseline (common q only).

    Refuses p > 500 unless ``force=True``: every iteration materializes a
    p x p scatter per component, which is exactly what the primary engine
    exists to avoid.
    """
    if data.p > AECM_P_LIMIT and not force:
        raise DimensionTooLarge(
            f"baseline requires p <= {AECM_P_LIMIT} (got {data.p}); "
            "pass force=True to override"
        )
    qs = config.factor_vector()
    if len(set(qs)) > 1:
        raise ValueError("the AECM baseline supports a common factor count only")
    return _fit_protocol(
        data,
        config,
        engine="aecm",
        step_fn=_aecm_step,
        initial_model=initial_model,
        threads=threads,
    )
