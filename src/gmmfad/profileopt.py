"""Profile likelihood over uniquenesses with the loadings solved out.

For one component with weighted scatter S (weight mass n_eff) the complete
M-step objective over (Lambda, Psi) admits a closed-form maximizer in Lambda
given Psi: with G = Psi^{-1/2} S Psi^{-1/2} and eigenpairs (theta_j, v_j),

    Lambda* = Psi^{1/2} V diag(sqrt(max(theta_j - 1, 0))),

the analogue of the classical principal-factor solution (Lawley & Maxwell
1971; Tipping & Bishop 1999 derive the same structure for isotropic Psi).
Substituting back leaves a function of Psi alone,

    Qp(Psi) = c - (n_eff/2) [ log det Psi + tr(Psi^{-1} S)
                              + sum_{j <= q, theta_j > 1} (log theta_j - theta_j + 1) ],

where eigenvalues at or below one drop out (their optimal factor scale is
zero), making Qp continuously differentiable across the truncation boundary.

First-order eigenvalue perturbation of G(psi) gives the exact gradient.
Writing u_i = log psi_i (the optimizer works on the log scale),

    dQp/du_i = -(n_eff/2) [ 1 - S_ii / psi_i
                            + sum_{j: theta_j > 1} (theta_j - 1) v_ij^2 ],

using d theta_j / d psi_i = -theta_j v_ij^2 / psi_i.  The maximization
keeps every uniqueness in the box [model.PSI_MIN, model.PSI_MAX] =
[1e-4, 1e4], which rules out Heywood collapse, and minimizes
F = -Qp * 2/n_eff: -Qp's curvature in u is about n_eff/2 (in the diagonal
term log psi_i + S_ii/psi_i it is exactly n_eff/2 at psi_i = S_ii), so F
has about unit curvature whatever the component's mass.

The eigensolve picks the optimizer.  At p <= linops.DENSE_THRESHOLD it
returns the whole spectrum (theta_m, v_m) of G from one dense eigh with the
leading pairs, and second-order perturbation
gives F's exact Hessian in u at no further solve, as in the Newton-Raphson
for ML factor analysis of Jennrich & Robinson (1969):

    H = diag(S_ii / psi_i) - sum_{j act} sum_m c_jm (v_j o v_m)(v_j o v_m)^T,

with "act" meaning j <= q and theta_j > 1, c_jj = theta_j,
c_jm = (theta_j - 1)(theta_j + theta_m)/(theta_j - theta_m) for m inactive
and (theta_j + theta_m)/2 for m active too, where the singular terms of the
pair cancel.  There a projected Newton (Bertsekas 1982) runs, on the
Hessian with its eigenvalues made absolute and floored (see _newton).
Above the threshold only the leading q pairs are solved, and L-BFGS-B
(Byrd et al. 1995) runs.  It takes its first step as if the Hessian were
the identity, which F's scaling makes about the right length.  scipy's box
costs O(p) Python work per call, so the run leaves it out: it works on a
similarity-scaled copy of u whose first step and stopping rules are those
of the boxed run, and hands over to a boxed run only when a trial point
would leave the box (see _lbfgsb).

Every eigensolve is one linops.top_eigenpairs call, handed S with the
whitening psi^{-1/2} as its ``scale`` and the previous evaluation's pairs
as its start; linops picks the route.  A scatter of no more weighted rows
than the iterative basis width min(p, 2q + 10), as in typical n << p fits,
is solved exactly on its small Gram matrix: one GEMM and one small eigh
per evaluation.  The iterative solvers start from the previous Ritz
vectors carried to the new psi, each row scaled by sqrt(psi_prev / psi):
the loadings they stand for, whitened at the new psi instead of the old,
just as cm_step builds the first start from the current loadings.
Successive solves during a line search thus start near their answer.  The
previous pair, the start, is held until the solve returns (a p x q array
and a p-vector beside the solve's own), and not kept past it.  A psi
bit-identical to the previous one is not solved again, so the start, which
optimize_psi and L-BFGS-B both evaluate, costs one solve, and
recover_loadings at the result costs none.  The objective evaluates psi
clipped to the box, the value optimize_psi returns, so a uniqueness on a
bound does not defeat that cache.  A start whose projected gradient is
already within L-BFGS-B's tolerance is returned without running either
optimizer.
"""

from __future__ import annotations

import logging

import numpy as np
from scipy.optimize import Bounds, minimize

from . import linops
from .model import PSI_MAX, PSI_MIN

MAX_INNER_ITER = 50
# L-BFGS-B stops when the max-norm of the projected gradient of -Qp is at
# most this (scipy's default); optimize_psi applies the same test to the start
PGTOL = 1e-5
# L-BFGS-B stops when an iteration lowers its objective F by at most
# _FTOL * max(|F|, 1) (scipy's default, factr = 1e7)
_FTOL = 1e7 * float(np.finfo(np.float64).eps)
_LOG_MIN, _LOG_MAX = float(np.log(PSI_MIN)), float(np.log(PSI_MAX))
# the projected Newton's Armijo constant, its eigenvalue floor relative to
# the largest |eigenvalue| of the free block, the widest margin inside which
# a coordinate near a bound is held there, and the largest last step (in
# log psi) with which its projected-gradient test stops the run
_ARMIJO = 1e-4
_EIG_FLOOR = 1e-8
_EPS = 1e-3
_XTOL = 1e-2
_log = logging.getLogger(__name__)


class _LeftBox(Exception):
    """A trial point of the unboxed L-BFGS-B run lies outside the box."""


class ProfileObjective:
    """State for repeated profile evaluations at one CM step.

    Holds the scatter operator, its diagonal, the effective sample mass
    n_eff (the component's responsibility sum), the factor count q, and the
    last solve with its psi.  Every eigensolve is one linops.top_eigenpairs
    call with scale = psi^{-1/2}, which whitens the scatter inside the
    solve, and the last solve's pairs as ``v0``, which the iterative routes
    carry to the new psi; ``warm_vectors`` given to the constructor start
    the first solve as they are.  On the dense route
    (p <= linops.DENSE_THRESHOLD) the pairs carry the whole spectrum, which
    ``hessian`` reads.  Asking again at a bit-identical psi returns the last
    solve without solving.  Before each solve the previous pair and the
    warm vectors are dropped: a solve that raises leaves neither behind, and
    a pair already returned is never changed.  The vectors come back with
    no sign convention; recover_loadings fixes the signs of the loadings it
    hands out.
    """

    def __init__(
        self, scov, n_eff: float, q: int, *, warm_vectors: np.ndarray | None = None
    ):
        if n_eff <= 0:
            raise ValueError("n_eff must be positive")
        p = scov.p
        if q < 0 or (q > 0 and q >= p):
            raise linops.InvalidRank(f"need 0 <= q < p, got q={q}, p={p}")
        self.scov = scov
        self.n_eff = float(n_eff)
        self.q = int(q)
        self.p = p
        self.scov_diag = np.maximum(np.asarray(scov.diag(), dtype=np.float64), 0.0)
        self.warm_vectors = warm_vectors
        # (psi bytes, EigPairs) of the last solve
        self._last = (None, None)

    def eigenpairs(self, psi: np.ndarray) -> linops.EigPairs:
        """Leading q eigenpairs of Psi^{-1/2} S Psi^{-1/2} at this psi."""
        key = psi.tobytes()
        if key == self._last[0]:
            return self._last[1]
        start = self.warm_vectors if self._last[1] is None else self._last[1]
        # a solve that raises leaves neither a pair nor a start behind
        self.warm_vectors, self._last = None, (None, None)
        pairs = linops.top_eigenpairs(self.scov, self.q, scale=1.0 / np.sqrt(psi),
                                      v0=start)
        self._last = (key, pairs)
        return pairs

    def _psi(self, log_psi: np.ndarray) -> np.ndarray:
        # clipped, so that a uniqueness on a bound is evaluated at the value
        # optimize_psi returns: exp(log PSI_MAX) exceeds PSI_MAX by an ulp
        psi = np.exp(log_psi)
        return np.minimum(np.maximum(psi, PSI_MIN, out=psi), PSI_MAX, out=psi)

    def value_and_gradient(self, log_psi: np.ndarray):
        """Qp and its gradient with respect to log psi.

        psi is exp(log_psi) clipped to [PSI_MIN, PSI_MAX], the value
        optimize_psi returns; inside the box the clip moves psi by at most
        an ulp, and outside it these are not the profile's value and
        gradient.
        """
        log_psi = np.asarray(log_psi, dtype=np.float64)
        psi = self._psi(log_psi)
        ratio = self.scov_diag / psi
        base = float(np.sum(log_psi) + np.sum(ratio))
        grad = 1.0 - ratio
        if self.q > 0:
            pairs = self.eigenpairs(psi)
            theta = pairs.values
            active = theta > 1.0
            if np.any(active):
                th = theta[active]
                base += float(np.sum(np.log(th) - th + 1.0))
                v2 = pairs.vectors[:, active] ** 2
                grad = grad + v2 @ (th - 1.0)
        half = -0.5 * self.n_eff
        return half * base, half * grad

    def hessian(self, log_psi: np.ndarray) -> np.ndarray:
        """Hessian of -Qp * 2/n_eff with respect to log psi, for q > 0.

        It reads the whole spectrum (theta_m, v_m) of the whitened scatter,
        so it runs on the dense route only, and at the psi of the last
        evaluation it makes no solve.  With w_jm = v_j * v_m (elementwise)
        and "active" meaning j <= q and theta_j > 1,

            H = diag(S_ii / psi_i) - sum_{j act} sum_m c_jm w_jm w_jm^T,

        c_jj = theta_j, c_jm = (theta_j - 1)(theta_j + theta_m)/(theta_j -
        theta_m) for m inactive, and (theta_j + theta_m)/2 for m active too,
        where the singular terms of the pair cancel (Jennrich & Robinson
        1969).  A tie theta_m = theta_j between an active and an inactive
        pair, where the profile has no second derivative, gives NaN
        entries.
        """
        psi = self._psi(np.asarray(log_psi, dtype=np.float64))
        spectrum = self.eigenpairs(psi).spectrum
        theta, vectors = spectrum.values, spectrum.vectors
        hess = np.diag(self.scov_diag / psi)
        act = np.flatnonzero(theta[: self.q] > 1.0)
        if act.size:
            th = theta[act, None]
            gap = th - theta
            gap[:, act] = 1.0
            # a tie gives NaN, without a warning
            coef = (th - 1.0) * (th + theta) / np.where(gap == 0.0, np.nan, gap)
            coef[:, act] = 0.5 * (th + theta[act])
            coef[np.arange(act.size), act] = theta[act]
            # columns w_jm, j active and m over the whole spectrum
            w = (vectors[:, act, None] * vectors[:, None, :]).reshape(self.p, -1)
            hess -= (w * coef.ravel()) @ w.T
        return hess


def profile_value_and_gradient(obj: ProfileObjective, log_psi: np.ndarray):
    """Module-level entry point mirroring ProfileObjective.value_and_gradient."""
    return obj.value_and_gradient(log_psi)


def optimize_psi(obj: ProfileObjective, psi_init: np.ndarray) -> np.ndarray:
    """Maximize the profile objective over psi inside [PSI_MIN, PSI_MAX].

    Minimizes F = -Qp * s, s = 2/n_eff, over u = log psi from the
    (clipped) warm start, and returns the best point evaluated: the first
    with the highest finite profile value, or the start when none is
    finite.  When the start's eigensolve returned the whole spectrum (the
    dense route) a projected Newton on the exact Hessian runs (_newton);
    otherwise L-BFGS-B runs (_lbfgsb).  Both stop when the max-norm of the
    projected gradient of F is at most PGTOL * s (the Newton once its last
    step was short), take at most MAX_INNER_ITER iterations on one budget
    of 2 * MAX_INNER_ITER evaluations, and evaluate no point outside the
    box.

    A start whose projected gradient meets that test is returned as it is,
    which is where either optimizer would stop before its first iteration.
    On a non-finite start, a solver failure or an eigensolver breakdown the
    best point so far stands, so the result never has a lower profile value
    than the start, which preserves the ECM ascent property; a failure is
    logged at DEBUG.
    """
    if obj.q == 0:
        # separable closed form: log psi_j + d_j/psi_j peaks at psi_j = d_j,
        # and the term is unimodal, so the box clamp is the box optimum
        return np.clip(obj.scov_diag, PSI_MIN, PSI_MAX)
    psi_init = np.asarray(psi_init, dtype=np.float64)
    u0 = np.log(np.clip(psi_init, PSI_MIN, PSI_MAX))

    best = {"u": u0, "f": None}

    # -Qp's curvature is about n_eff/2: scaled by its inverse, F has about
    # unit curvature, and L-BFGS-B's identity-Hessian first step does not
    # overshoot
    scale = 2.0 / obj.n_eff
    gtol = PGTOL * scale

    def negated(u):
        val, grad = obj.value_and_gradient(u)
        f = -val
        if np.isfinite(f) and (best["f"] is None or f < best["f"]):
            best["u"] = u.copy()
            best["f"] = f
        # the gradient is a fresh array: scale it in place
        grad *= -scale
        return f * scale, grad

    try:
        f0, g0 = negated(u0)
        if np.isfinite(f0) and np.max(np.abs(_projected(u0, g0))) > gtol:
            # the start's solve: the dense route returns every pair
            if obj._last[1].spectrum is not None:
                _newton(obj, negated, u0, f0, g0, gtol)
            else:
                _lbfgsb(negated, best, u0, f0, g0, gtol)
    except (linops.NoConvergence, FloatingPointError) as exc:
        _log.debug(
            "optimize_psi keeps its best point after %s: %s", type(exc).__name__, exc
        )
    return np.clip(np.exp(best["u"]), PSI_MIN, PSI_MAX)


def _projected(u, g):
    """L-BFGS-B's projected gradient: each component is capped by the
    distance to the bound that a descent step moves toward."""
    return np.where(g < 0, np.maximum(u - _LOG_MAX, g), np.minimum(u - _LOG_MIN, g))


def _newton(obj, negated, u, f, g, gtol):
    """Projected Newton (Bertsekas 1982) on F = negated from (u, f, g).

    Coordinates on a bound, or within eps = min(_EPS, ||pg||) of one, whose
    gradient points out of the box are held: they step along -g.  The others
    step along -B^{-1} g, with B the free block of the exact Hessian with
    each eigenvalue replaced by its absolute value, floored at
    _EIG_FLOOR * max |lambda|.  Armijo backtracking by halves runs along the
    projected arc clip(u + alpha d), so no point outside the box is
    evaluated.

    The run stops on the projected-gradient test once its last step moved
    no coordinate by more than _XTOL: along a Heywood coordinate the
    profile flattens like psi_i, the gradient falls under the test while
    each Newton step still moves log psi_i by about one, and the coordinate
    goes on to the bound, as it does at any n_eff.  It also stops when the
    full step's predicted decrease is within L-BFGS-B's relative tolerance
    of F, after MAX_INNER_ITER iterations or 2 * MAX_INNER_ITER
    evaluations, and when a line search fails; the last two are logged at
    DEBUG.  The solve at the best point is left in obj's cache.
    """
    budget = 2 * MAX_INNER_ITER
    step, stop = np.inf, None
    # the solve at the first best point, which optimize_psi returns
    kept, kept_f = obj._last, f
    for _ in range(MAX_INNER_ITER):
        pg = _projected(u, g)
        if np.abs(pg).max() <= gtol and step <= _XTOL:
            break
        eps = min(_EPS, float(np.sqrt(pg @ pg)))
        hold = ((u <= _LOG_MIN + eps) & (g > 0)) | ((u >= _LOG_MAX - eps) & (g < 0))
        free = ~hold
        d = -g
        if free.any():
            hess = obj.hessian(u)
            if hold.any():
                hess = hess[np.ix_(free, free)]
            if np.isfinite(hess).all():
                lam, vec = np.linalg.eigh(hess)
                lam = np.abs(lam)
                top = lam.max()
                if top > 0:
                    lam = np.maximum(lam, _EIG_FLOOR * top)
                    d[free] = vec @ ((vec.T @ d[free]) / lam)
        # Armijo along the projected arc: the predicted decrease is
        # alpha g'B^{-1}g on the free coordinates and g'(u - u(alpha)) on
        # the held ones
        slope = -float(g[free] @ d[free])
        alpha, moved = 1.0, None
        trial = _clip_log(u + d)
        if slope + float(g[hold] @ (u - trial)[hold]) <= _FTOL * max(abs(f), 1.0):
            break
        while budget > 0 and not np.array_equal(trial, u):
            budget -= 1
            ft, gt = negated(trial)
            if ft < kept_f:
                kept, kept_f = obj._last, ft
            if ft <= f - _ARMIJO * (alpha * slope
                                    + float(g[hold] @ (u - trial)[hold])):
                moved = trial, ft, gt
                break
            alpha *= 0.5
            trial = _clip_log(u + alpha * d)
        if moved is None:
            stop = "its budget" if budget == 0 else "a failed line search"
            break
        step = float(np.abs(trial - u).max())
        u, f, g = moved
    else:
        stop = "its budget"
    obj._last = kept
    if stop is not None:
        _log.debug("optimize_psi's Newton stops on %s with %d of %d "
                   "evaluations left", stop, budget, 2 * MAX_INNER_ITER)


def _clip_log(u):
    """u clipped to [log PSI_MIN, log PSI_MAX], in place."""
    return np.minimum(np.maximum(u, _LOG_MIN, out=u), _LOG_MAX, out=u)


def _lbfgsb(negated, best, u0, f0, g0, gtol):
    """L-BFGS-B on F = negated from (u0, f0, g0), unboxed while it can be.

    The run leaves out scipy's box, whose set-up costs O(p) Python work per
    call.  It works on z with u = u0 + c z and c = ||g0||, and is handed
    F / c^2 and g / c.  The z-Hessian is then the u-Hessian, and scipy's
    unboxed first step, min(1 / ||d||, 1e10) d, lands on u0 - g0, the unit
    step a boxed run takes first.  Its stopping rules are the boxed run's:
    gtol / c is the same max-norm test on g, and ftol is rescaled so that
    scipy's test dF' <= ftol max(|F'|, 1) on F' = F / c^2 is, at the start's
    |F|, the boxed run's dF <= ftol max(|F|, 1) at scipy's default ftol.  A
    boxed L-BFGS-B run takes over from the best point so far when a trial
    point would leave the box (logged at DEBUG), and runs from the start
    when its projected gradient differs from g0, which is when u0 - g0
    leaves the box.  The runs share one budget of 2 * MAX_INNER_ITER
    evaluations, which scipy checks only between iterations, so a line
    search can overrun it.
    """
    budget = 2 * MAX_INNER_ITER
    p = u0.size

    def lbfgsb(fun, x0, bounds, **options):
        minimize(fun, x0, jac=True, method="L-BFGS-B", bounds=bounds,
                 options={"maxiter": MAX_INNER_ITER, "maxfun": budget, **options})

    boxed = not np.array_equal(_projected(u0, g0), g0)
    if not boxed:
        c = float(np.linalg.norm(g0))

        def similar(z):
            nonlocal budget
            u = u0 + c * z
            # written so that a NaN coordinate fails it too
            if not (_LOG_MIN <= u.min() and u.max() <= _LOG_MAX):
                raise _LeftBox
            budget -= 1
            f, g = negated(u)
            g /= c
            return f / (c * c), g

        try:
            lbfgsb(similar, np.zeros(p), None, gtol=gtol / c,
                   ftol=_FTOL * max(abs(f0), 1.0) / max(abs(f0), c * c))
        except _LeftBox:
            boxed = True
            _log.debug("optimize_psi goes on inside the box from its "
                       "best point with %d of %d evaluations left",
                       budget, 2 * MAX_INNER_ITER)
    if boxed and budget > 0:
        box = Bounds(np.full(p, _LOG_MIN), np.full(p, _LOG_MAX))
        lbfgsb(negated, best["u"], box, gtol=gtol, ftol=_FTOL)


def recover_loadings(obj: ProfileObjective, psi_hat: np.ndarray) -> np.ndarray:
    """Closed-form loadings at the fitted uniquenesses.

    Columns whose whitened eigenvalue is at most one are exactly zero.  Each
    column's sign is fixed so its largest-magnitude coordinate is
    non-negative; the fitted covariance is invariant to this choice.  The
    construction makes Lambda^T Psi^{-1} Lambda diagonal, the standard
    rotation-fixing constraint.
    """
    psi_hat = np.asarray(psi_hat, dtype=np.float64)
    if obj.q == 0:
        return np.zeros((obj.p, 0))
    pairs = obj.eigenpairs(psi_hat)
    delta = np.sqrt(np.maximum(pairs.values - 1.0, 0.0))
    lam = np.sqrt(psi_hat)[:, None] * pairs.vectors * delta[None, :]
    peak = lam[np.argmax(np.abs(lam), axis=0), np.arange(obj.q)]
    lam *= np.where(peak < 0, -1.0, 1.0)
    return lam
