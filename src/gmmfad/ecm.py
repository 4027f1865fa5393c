"""Mixture fitting: a matrix-free ECM engine and a classical AECM baseline.

Both engines share the E-step (Woodbury low-rank Gaussian densities,
log-sum-exp responsibilities) and the start protocol, a small emEM scheme
(Biernacki, Celeux & Govaert 2003): several random starts plus one k-means
start are each run for ``SHORT_RUN_ITERS`` iterations (one), the most
promising finalists continue to convergence, and the best final
log-likelihood wins.  Short and long runs take the same step: each engine
has one step function, and a short run is only a run with fewer steps.
Stopping is an absolute log-likelihood increase below ``tol``; a step
that falls by less than ``tol`` is rounding, and the run stops without
taking it.  Each start is built when its short run begins and handed to
it, so it is freed once the run's first CM step has replaced it, and at
most ``threads`` are alive during the sweep.  A finalist continues its
short run in place, with no E-step repeated, until it has taken
``max_iter`` steps in all; the other short runs are dropped once the
finalists are chosen.

Every run, short, long or warm-started, and of either engine, steps in
``_advance``.  A run that has taken ``_SQUAREM_AFTER`` (three) steps
without converging steps on in safeguarded SQUAREM cycles (Varadhan &
Roland 2008) over the weights, means and uniquenesses: two plain steps, an
extrapolation, and one stabilizing step from the extrapolated point, which
counts as one step only when it scores at least the second plain step.
Otherwise the run continues from the second plain step, so no
extrapolation lowers a run's log-likelihood.  ``n_iter`` and the trace
count accepted steps only; each cycle's extrapolated point costs one E-step
that is not in the trace, and a rejected cycle two more.  The over-fitted
cells of a selection, whose plain steps end in a long linear tail, converge
in about half the steps.

Memory: no pass over the data holds an n x p temporary.  The densities,
the moment pass and the dense scatter each walk the data in
``_kernels.row_blocks`` blocks of about 256 KiB of rows (residuals and
their squares and weighted centred rows are block-sized); the k-means start
standardizes no row, and the starts take their means and variances from
the moment pass, not from copied rows.  The responsibilities are one K x n
array, built by the E-step and kept by ``Responsibilities`` without a copy;
each component's weights are a contiguous row of it, which the CM step
reads in place.  Everything else a step allocates is n x K, p x q or
smaller, apart from the p x p scatter of the dense paths.

The primary engine alternates the usual weight/mean updates with a
conditional maximization over each component's uniquenesses on the profile
objective (see profileopt), recovering loadings in closed form afterwards.
Nothing in that path assembles a p x p matrix, so it scales to p far beyond
n.  Per CM step and component the work is one pass over the data after the
weighted mean (the centred squares, or at p <= linops.DENSE_THRESHOLD the
dense scatter whose diagonal they are) plus one eigensolve per profile
evaluation (linops.top_eigenpairs).  At p <= DENSE_THRESHOLD a solve is one
``eigh`` of the whitened dense scatter; above it, a scatter of at most
2q + 10 weighted rows takes one small Gram GEMM and one small ``eigh``, one
of at most p / 2 rows a Lanczos, and any other a few block products (301
for 86 solves on perfbench's mid_np at feature seed 5).

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

import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

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
    expand_factor_spec,
    free_param_count,
    max_admissible_q,
)

AECM_P_LIMIT = 500
# steps of each start's short run in the emEM start protocol, for both
# engines; a short run takes the same step as a long one
SHORT_RUN_ITERS = 1
# plain steps a run takes before it steps on in SQUAREM cycles (_advance)
_SQUAREM_AFTER = 3
# Lloyd restarts of the k-means start, and the iteration cap of each
KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 100
# relative inertia gap below which two k-means restarts count as tied
_INERTIA_TIE = 1e-12
_LOG_2PI = math.log(2.0 * math.pi)
_log = logging.getLogger(__name__)


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
    """Engine settings; defaults follow the calibration used throughout.

    The short runs of the start protocol take ``SHORT_RUN_ITERS`` steps of
    the same engine step as the long runs.
    """

    n_components: int
    factor_spec: int | tuple[int, ...]
    tol: float = 1e-6
    max_iter: int = 500
    n_random_starts: int = 20
    n_finalists: int = 3
    seed: int = 0

    def factor_vector(self) -> tuple[int, ...]:
        return expand_factor_spec(self.factor_spec, self.n_components)

    def validate_for(self, data: DataMatrix) -> None:
        if self.n_components < 1:
            raise ValueError("need at least one component")
        if self.n_components > data.n:
            raise ValueError("more components than observations")
        if self.tol < 0 or self.max_iter < 1:
            raise ValueError("tol must be >= 0 and max_iter >= 1")
        if self.n_random_starts < 0 or self.n_finalists < 1:
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


def _component_masses(resp: Responsibilities, qs) -> list[float]:
    """Each component's responsibility mass, checked against its floor.

    Raises EmptyCluster for the first component whose mass is below
    max(q_k + 1, 2), so a step that cannot complete does no per-component
    work first.
    """
    masses = []
    for k, q in enumerate(qs):
        mass = float(np.sum(resp.by_component[k]))
        floor = float(max(q + 1, 2))
        if mass < floor:
            raise EmptyCluster(k, mass, floor)
        masses.append(mass)
    return masses


def component_log_densities(component: ComponentParams, y: np.ndarray) -> np.ndarray:
    """Log N(y | mean, Lambda Lambda^T + Psi) for each row, via Woodbury.

    With W = Psi^{-1/2} Lambda, M = I + W^T W = L L^T and the p x q
    P = Psi^{-1} Lambda L^{-T}, the quadratic form of a residual d = y - mean
    is d^T Psi^{-1} d - ||P^T d||^2, and log det Sigma = log det M +
    sum log psi.  Each residual is centred on this component's own mean, so
    no offset of the data cancels in the sum.  Per ``_kernels.row_blocks``
    block that is two products: z = d P, then the squares d * d times the
    vector 1/psi, written straight into the result, less the row sums of
    z * z.  P is formed once per call from the q x q inverse of L.  Cost is
    O(n p q + p q^2); no p x p object appears, and every row gets the same
    arithmetic whatever the block size.
    """
    psi = component.uniquenesses
    inv_psi = 1.0 / psi
    logdet = float(np.sum(np.log(psi)))
    q = component.n_factors
    if q:
        # M from the symmetric product W^T W: formed as I + Lambda^T
        # (Lambda / psi), three draws of the psi = 1e-4 case that the
        # extended-precision test in tests/test_ecm.py builds came out up
        # to 5.2e-6 nats off, against 1.9e-6
        w = component.loadings * (1.0 / np.sqrt(psi))[:, None]
        chol = np.linalg.cholesky(np.eye(q) + w.T @ w)
        linv = solve_triangular(chol, np.eye(q), lower=True)
        logdet += 2.0 * float(np.sum(np.log(np.diag(chol))))
        proj = (component.loadings * inv_psi[:, None]) @ linv.T
        ones = np.ones(q)
    quad = np.empty(y.shape[0])
    for rows in _kernels.row_blocks(y):
        d = y[rows] - component.mean
        if q:
            z = d @ proj
        d *= d
        out = np.matmul(d, inv_psi, out=quad[rows])
        if q:
            z *= z
            out -= z @ ones
    quad += component.p * _LOG_2PI + logdet
    quad *= -0.5
    return quad


def log_density(component: ComponentParams, y: np.ndarray) -> float:
    """Log density of a single observation under one component."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (component.p,):
        raise ValueError(f"expected a length-{component.p} vector")
    if not np.all(np.isfinite(y)):
        raise NonFiniteDensity("observation contains non-finite entries")
    return float(component_log_densities(component, y[None, :])[0])


def e_step(model: MixtureModel, data: DataMatrix):
    """Responsibilities and the observed-data log-likelihood.

    The log-joint is built K x n, one contiguous row per component, and
    normalized in place along axis 0; the finished array is made read-only
    and handed to ``Responsibilities`` as its n x K transpose, which keeps
    it without a copy.
    """
    y = data.values
    logjoint = np.empty((model.n_components, data.n))
    for k, comp in enumerate(model.components):
        logjoint[k] = component_log_densities(comp, y)
        logjoint[k] += math.log(comp.weight)
    # normalize in place: logjoint becomes the responsibilities
    mx = logjoint.max(axis=0)
    logjoint -= mx
    gamma = np.exp(logjoint, out=logjoint)
    colsum = gamma.sum(axis=0)
    gamma /= colsum
    lse = mx + np.log(colsum)
    gamma.setflags(write=False)
    return Responsibilities(gamma=gamma.T), float(np.sum(lse))


def cm_step(
    data: DataMatrix, resp: Responsibilities, current: MixtureModel
) -> MixtureModel:
    """One conditional maximization sweep given fixed responsibilities.

    Per component: weighted moments in one pass, uniquenesses by bounded
    L-BFGS-B on the profile objective warm-started at the current values,
    loadings recovered in closed form.  It has no settings of its own: every
    run of the engine, short or long, takes this same step.  Factor counts
    are those of ``current``.  Raises EmptyCluster when a component's mass
    drops below max(q_k + 1, 2); every mass is checked before any
    component's moments or eigensolves.
    """
    y = data.values
    qs = current.factor_vector
    masses = _component_masses(resp, qs)
    comps = []
    for k, cur in enumerate(current.components):
        scov = linops.WeightedCovOperator(y, resp.by_component[k])
        # the whitened loadings Lambda / sqrt(psi) warm-start the eigensolves
        # as they are: top_eigenpairs orthonormalizes a warm block itself
        warm = None
        if qs[k]:
            warm = cur.loadings / np.sqrt(cur.uniquenesses)[:, None]
        obj = profileopt.ProfileObjective(
            scov, n_eff=masses[k], q=qs[k], warm_vectors=warm
        )
        psi_hat = profileopt.optimize_psi(obj, cur.uniquenesses)
        lam_hat = profileopt.recover_loadings(obj, psi_hat)
        comps.append((scov.center, lam_hat, psi_hat))
        # the operator's copy of its rows must not sit beside the next
        # component's moment pass
        del scov, obj
    total = math.fsum(masses)
    return MixtureModel(
        components=tuple(
            ComponentParams(
                weight=mass / total, mean=mean, loadings=lam, uniquenesses=psi
            )
            for mass, (mean, lam, psi) in zip(masses, comps)
        )
    )


def _aecm_step(data, resp, current):
    """One AECM iteration: (weights, means) cycle then (loadings, psi) cycle."""
    y = data.values
    qs = current.factor_vector
    masses = _component_masses(resp, qs)
    total = math.fsum(masses)
    mid_model = MixtureModel(
        components=tuple(
            ComponentParams(
                weight=mass / total,
                mean=(w @ y) / mass,
                loadings=comp.loadings,
                uniquenesses=comp.uniquenesses,
            )
            for mass, w, comp in zip(masses, resp.by_component, current.components)
        )
    )

    resp2, _ = e_step(mid_model, data)
    masses2 = _component_masses(resp2, qs)
    comps = []
    for k, comp in enumerate(mid_model.components):
        scatter = linops.dense_scatter(y, resp2.by_component[k], comp.mean, masses2[k])
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
class _Run:
    """One engine run, stepped forward in place by ``_advance``."""

    model: MixtureModel | None
    resp: Responsibilities | None
    trace: list
    n_iter: int = 0
    converged: bool = False


def _start_run(data, model) -> _Run:
    resp, ll = e_step(model, data)
    return _Run(model, resp, [ll])


def _accept(run, ll, tol) -> None:
    run.converged = ll - run.trace[-1] < tol
    run.trace.append(ll)
    run.n_iter += 1


def _plain_step(data, run, step_fn, tol) -> None:
    """One step function call and its E-step, taken as one step.

    A step that scores below the run's last by less than ``tol`` is not
    taken: with a uniqueness on the box bound, a step can lose a few 1e-8
    nats to rounding alone.  The run keeps its last model, re-scored by one
    E-step, and is converged.  A fall of ``tol`` or more is taken and stays
    in the trace, where ``FitReport`` reports it.
    """
    last = run.model
    run.model = step_fn(data, run.resp, last)
    # the last responsibilities die before the E-step builds the next
    run.resp = None
    run.resp, ll = e_step(run.model, data)
    fall = run.trace[-1] - ll
    if 0.0 < fall < tol:
        _log.debug(
            "step %d falls %.3g below the last, under tol %.3g: not taken",
            run.n_iter + 1, fall, tol,
        )
        run.model = last
        run.resp = None
        run.resp, _ = e_step(last, data)
        run.converged = True
        return
    _accept(run, ll, tol)


def _flat(model: MixtureModel) -> np.ndarray:
    """The vector SQUAREM extrapolates: (log weights, means, log psi)."""
    comps = model.components
    return np.concatenate(
        [np.log([c.weight for c in comps])]
        + [c.mean for c in comps]
        + [np.log(c.uniquenesses) for c in comps]
    )


def _extrapolate(x0, r, model: MixtureModel) -> MixtureModel:
    """SQUAREM's proposal from a cycle's x0, r = x1 - x0 and its ``model``.

    With v = x2 - x1 - r and alpha = min(-|r| / |v|, -1), the proposal is
    x0 - 2 alpha r + alpha^2 v, which is x2 at alpha = -1.  Its weights are
    renormalized, its uniquenesses clipped to the box, and its loadings are
    those of ``model``.  Raises ValueError when the point is no model (a
    non-finite mean, a weight that underflows).
    """
    v = _flat(model) - x0 - 2.0 * r
    v_norm = float(np.linalg.norm(v))
    alpha = min(-float(np.linalg.norm(r)) / v_norm, -1.0) if v_norm > 0 else -1.0
    with np.errstate(over="ignore", invalid="ignore"):
        x = x0 - 2.0 * alpha * r + alpha * alpha * v
        K, p = model.n_components, model.p
        weights = np.exp(x[:K] - np.max(x[:K]))
        weights /= math.fsum(weights)
        means = x[K:K + K * p].reshape(K, p)
        psis = np.clip(np.exp(x[K + K * p:]), PSI_MIN, PSI_MAX).reshape(K, p)
    return MixtureModel(
        components=tuple(
            ComponentParams(
                weight=float(w), mean=mean, loadings=comp.loadings, uniquenesses=psi
            )
            for w, mean, psi, comp in zip(weights, means, psis, model.components)
        )
    )


def _stabilized(data, step_fn, x0, r, model):
    """One step from SQUAREM's proposal: (model, responsibilities, loglik).

    A function of its own so that, when a step raises, the proposal and its
    responsibilities die with its frame.
    """
    proposal = _extrapolate(x0, r, model)
    resp, _ = e_step(proposal, data)
    stepped = step_fn(data, resp, proposal)
    # the proposal and its responsibilities die before the next E-step
    del proposal, resp
    return (stepped, *e_step(stepped, data))


def _squarem_step(data, run, step_fn, x0, r, tol) -> None:
    """The step that ends a cycle, or a re-scored ``run.model`` if it fails.

    The stabilized proposal is accepted as one step when its log-likelihood
    is finite and at least the run's last; a start failure or ValueError on
    the way counts as a rejection.
    """
    run.resp = None
    try:
        stepped = _stabilized(data, step_fn, x0, r, run.model)
    except (*_START_FAILURES, ValueError):
        stepped = None
    ll = -math.inf if stepped is None else stepped[2]
    if math.isfinite(ll) and ll >= run.trace[-1]:
        run.model, run.resp, _ = stepped
        _accept(run, ll, tol)
        return
    # the rejected model and its responsibilities die before the re-scoring
    stepped = None
    run.resp, _ = e_step(run.model, data)


def _advance(data, run, step_fn, *, max_iter, tol) -> _Run:
    """Step ``run`` until it converges or has taken ``max_iter`` steps in all.

    The first ``_SQUAREM_AFTER`` steps are plain: a step function call and
    its E-step.  A run still going after them steps on in SQUAREM cycles
    (Varadhan & Roland 2008) over x = (log weights, means, log psi), with
    the loadings left out.  A cycle takes two plain steps theta0 -> theta1
    -> theta2, keeping only x0 and r = x1 - x0, then extrapolates (see
    ``_extrapolate``), runs an E-step at the proposal and one stabilizing
    step with its E-step, which gives theta3.  theta3 is accepted as one
    step when its log-likelihood is finite and at least theta2's and
    nothing from ``_START_FAILURES`` or a ValueError was raised; otherwise
    the run continues from theta2, re-scored by one more E-step.  The
    proposal and its responsibilities die before theta3's E-step, and
    theta2's responsibilities before the proposal's.

    A plain step that falls below the last by less than ``tol`` is not
    taken, and ends the run converged (see ``_plain_step``).  ``trace`` and
    ``n_iter`` count accepted steps only, and convergence is tested on each
    of them, so a cycle may end after either plain step.  An accepted
    cycle costs three step-function calls and four E-steps for three steps,
    one E-step more than plain stepping; a rejected one costs three
    step-function calls and five E-steps for two, or fewer when the
    stabilizing step raises.
    """
    x0 = r = None
    while not run.converged and run.n_iter < max_iter:
        if run.n_iter < _SQUAREM_AFTER:
            _plain_step(data, run, step_fn, tol)
        elif x0 is None:
            x0 = _flat(run.model)
            _plain_step(data, run, step_fn, tol)
        elif r is None:
            r = _flat(run.model) - x0
            _plain_step(data, run, step_fn, tol)
        else:
            _squarem_step(data, run, step_fn, x0, r, tol)
            x0 = r = None
    return run


def _start_rngs(config: FitConfig):
    children = np.random.SeedSequence(config.seed).spawn(config.n_random_starts + 1)
    return [np.random.Generator(np.random.Philox(c)) for c in children]


def _random_start(data: DataMatrix, K: int, qs, rng, var) -> MixtureModel:
    """K random rows as means, tiny random loadings, ``var`` clipped to the
    uniqueness box as uniquenesses."""
    y = data.values
    n, p = y.shape
    psi = np.clip(var, PSI_MIN, PSI_MAX)
    idx = rng.choice(n, size=K, replace=False)
    comps = []
    for k in range(K):
        lam = 0.01 * rng.standard_normal((p, qs[k]))
        comps.append(
            ComponentParams(
                weight=1.0 / K, mean=y[idx[k]], loadings=lam, uniquenesses=psi
            )
        )
    return MixtureModel(components=tuple(comps))


def _kmeans_labels(y, K, rng, mean, var):
    """Plain Lloyd iterations on standardized data; best of KMEANS_RESTARTS.

    The centres c live in standardized units, but the data are never
    standardized: with the column ``mean`` m and ``var`` s^2 of y (the
    fit's unit-weight moment pass), the scores z.c = y.(c/s) - m.(c/s) are
    one GEMM on y and the updated centres are (onehot y / counts - m) / s.
    A row's ||z||^2 adds the same to each centre's distance, so no label
    needs it; a restart's inertia adds their sum, n * sum(var / s^2).  Each
    row goes to its first nearest centre, as ``argmin`` picks.
    """
    n = y.shape[0]
    std = np.sqrt(var)
    std = np.where(std < 1e-12, 1.0, std)
    norm_sum = n * float(np.sum(var / std**2))
    rows = np.arange(n)
    onehot = np.zeros((K, n))
    best_labels, best_inertia = None, np.inf
    for _ in range(KMEANS_RESTARTS):
        centers = y[rng.choice(n, size=K, replace=False)] - mean
        centers /= std
        labels = None
        for _ in range(KMEANS_MAX_ITER):
            # ||z - c||^2 - ||z||^2 = -2 z.c + |c|^2 as K x n, one
            # contiguous row per centre; the m.(c/s) part of z.c joins the
            # per-centre |c|^2
            scaled = centers / std
            d2 = scaled @ y.T
            d2 *= -2.0
            d2 += (np.einsum("ij,ij->i", centers, centers)
                   + 2.0 * (scaled @ mean))[:, None]
            new_labels = d2.argmin(axis=0)
            if labels is not None and np.array_equal(new_labels, labels):
                break
            labels = new_labels
            # every centre's sum in one product; an empty cluster's centre
            # stays where it was
            onehot.fill(0.0)
            onehot[labels, rows] = 1.0
            counts = np.bincount(labels, minlength=K)
            filled = counts > 0
            sums = (onehot @ y)[filled] / counts[filled, None]
            sums -= mean
            sums /= std
            centers[filled] = sums
        # restarts that reach one partition under permuted labels differ
        # in inertia by rounding only, and the first of them is kept
        inertia = norm_sum + float(d2.min(axis=0).sum())
        if inertia < (1.0 - _INERTIA_TIE) * best_inertia:
            best_inertia, best_labels = inertia, labels
    return best_labels


def _start_from_labels(data, labels, K, qs, rng):
    y = data.values
    n, p = y.shape
    counts = np.bincount(labels, minlength=K)
    for k in range(K):
        if counts[k] < 2:
            raise EmptyCluster(k, float(counts[k]), 2.0)
    comps = []
    for k in range(K):
        # the cluster's mean and variance from the moment pass on 0/1
        # weights, with no copy of its rows
        mean, var = _kernels.weighted_stats(
            y, (labels == k).astype(np.float64), float(counts[k])
        )
        lam = 0.01 * rng.standard_normal((p, qs[k]))
        comps.append(
            ComponentParams(
                weight=counts[k] / n,
                mean=mean,
                loadings=lam,
                uniquenesses=np.clip(var, PSI_MIN, PSI_MAX),
            )
        )
    return MixtureModel(components=tuple(comps))


def _kmeans_start(data, K, qs, rng, mean, var):
    """The k-means start; EmptyCluster when a cluster has fewer than two rows."""
    labels = _kmeans_labels(data.values, K, rng, mean, var)
    return _start_from_labels(data, labels, K, qs, rng)


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


def _fit_protocol(data, config, *, engine, step_fn, initial_model, threads):
    started = time.perf_counter()
    config.validate_for(data)
    qs = config.factor_vector()
    K = config.n_components

    if initial_model is not None:
        if initial_model.p != data.p or initial_model.n_components != K:
            raise ValueError("initial model shape disagrees with the configuration")
        if initial_model.factor_vector != qs:
            raise ValueError("initial model factor counts disagree with factor_spec")
        run = _advance(
            data, _start_run(data, initial_model), step_fn,
            max_iter=config.max_iter, tol=config.tol,
        )
        return _make_report(data, config, engine, run, started)

    # each start is built when its short run begins and handed to it, so a
    # start model dies at the run's first CM step and at most ``threads`` are
    # alive at once
    rngs = _start_rngs(config)
    mean, var = _kernels.weighted_stats(data.values, np.ones(data.n), float(data.n))
    builders = [
        partial(_random_start, data, K, qs, rngs[s], var)
        for s in range(config.n_random_starts)
    ]
    builders.append(
        partial(_kmeans_start, data, K, qs, rngs[config.n_random_starts], mean, var)
    )

    def short_run(build):
        try:
            return _advance(
                data, _start_run(data, build()), step_fn,
                max_iter=SHORT_RUN_ITERS, tol=config.tol,
            )
        except _START_FAILURES:
            return None

    short_runs = _map(short_run, builders, threads)

    survivors = [(i, run) for i, run in enumerate(short_runs) if run is not None]
    if not survivors:
        raise AllStartsFailed(
            f"all {len(builders)} initializations degenerated before or "
            "during their short runs"
        )
    survivors.sort(key=lambda item: (-item[1].trace[-1], item[0]))
    finalists = survivors[: config.n_finalists]
    del short_runs, survivors

    def long_run(item):
        idx, run = item
        try:
            return idx, _advance(
                data, run, step_fn, max_iter=config.max_iter, tol=config.tol
            )
        except _START_FAILURES:
            run.model = run.resp = None
            return idx, None

    finished = _map(long_run, finalists, threads)

    completed = [(idx, run) for idx, run in finished if run is not None]
    if not completed:
        raise AllStartsFailed("every finalist degenerated before convergence")
    completed.sort(key=lambda item: (-item[1].trace[-1], item[0]))
    return _make_report(data, config, engine, completed[0][1], started)


def _make_report(data, config, engine, run, started) -> FitReport:
    model = run.model
    d = free_param_count(model)
    loglik = run.trace[-1]
    bic = -2.0 * loglik + d * math.log(data.n)
    return FitReport(
        model=model,
        responsibilities=run.resp,
        hard_assignment=np.argmax(run.resp.by_component, axis=0),
        loglik_trace=np.asarray(run.trace, dtype=np.float64),
        bic=float(bic),
        n_iter=run.n_iter,
        converged=run.converged,
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

    Without ``initial_model`` the start protocol of the module docstring
    picks the run; with it, a single run proceeds from the given parameters,
    which is also how warm-started refits and engine comparisons from common
    starts are done.  Either way a run takes at most ``max_iter`` steps.
    """
    return _fit_protocol(
        data,
        config,
        engine="gmmfad",
        step_fn=cm_step,
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
