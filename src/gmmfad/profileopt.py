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

using d theta_j / d psi_i = -theta_j v_ij^2 / psi_i.  The maximization runs
L-BFGS-B (Byrd et al. 1995) inside a box keeping every uniqueness in
[model.PSI_MIN, model.PSI_MAX] = [1e-4, 1e4], which rules out Heywood
collapse.  L-BFGS-B minimizes -Qp * 2/n_eff: -Qp's curvature in u is about
n_eff/2 (in the diagonal term log psi_i + S_ii/psi_i it is exactly n_eff/2
at psi_i = S_ii), and L-BFGS-B takes its first step as if the Hessian were
the identity: on the unscaled objective that step would overshoot by a
factor of about n_eff/2 and be backtracked.  Eigenpairs of G come from the
shared linops solver, handed S with the whitening psi^{-1/2} as its
``scale``.  A scatter of no more weighted rows than the iterative basis
width min(p, 2q + 10), as in typical n << p fits, is solved exactly on its
small Gram matrix: one GEMM and one small eigh per evaluation.  The
iterative solvers start from the previous evaluation's Ritz vectors
carried to the new psi, each row scaled by sqrt(psi_prev / psi): the
loadings they stand for, whitened at the new psi instead of the old, just
as cm_step builds the first start from the current loadings.  Successive
solves during a line search thus start near their answer.  The objective
drops its previous vectors and pair before each solve, so no extra p x q
array is held during it.  A psi bit-identical to the previous one is not
solved again, so the start, which optimize_psi and L-BFGS-B both
evaluate, costs one solve, and recover_loadings at the last iterate costs
none.  A start whose projected gradient is already within L-BFGS-B's
tolerance is returned without running the solver.
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
_log = logging.getLogger(__name__)


class ProfileObjective:
    """State for repeated profile evaluations at one CM step.

    Holds the scatter operator, its diagonal, the effective sample mass
    n_eff (the component's responsibility sum), the factor count q, and the
    previous solve's eigenvectors with their whitening.  Every eigensolve is
    linops.top_eigenpairs on the scatter with scale = psi^{-1/2}, which
    whitens it inside the solve and picks the solver (dense at
    p <= linops.DENSE_THRESHOLD), warm-started from the previous vectors
    times sqrt(psi_prev / psi); ``warm_vectors`` given to the constructor
    start the first solve as they are.  The last solve is kept with its
    psi, so asking again at a bit-identical psi returns it without
    solving.  Before each solve the previous vectors and pair are dropped:
    a solve that raises leaves neither behind, and a pair already returned
    is never changed.  The vectors come back with no sign convention;
    recover_loadings fixes the signs of the loadings it hands out.
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
        # the whitening psi^{-1/2} of the warm vectors, when known
        self._warm_scale = None
        self._last = (None, None)  # (psi bytes, EigPairs) of the last solve

    def eigenpairs(self, psi: np.ndarray) -> linops.EigPairs:
        """Leading q eigenpairs of Psi^{-1/2} S Psi^{-1/2} at this psi."""
        key = psi.tobytes()
        if key == self._last[0]:
            return self._last[1]
        scale = 1.0 / np.sqrt(psi)
        warm = self.warm_vectors
        if self._warm_scale is not None:
            # the vectors whitened at the previous psi, carried to this one
            warm = warm * (scale / self._warm_scale)[:, None]
        # no previous vectors or pair outlive the solve's start, and none is
        # left behind if it raises
        self.warm_vectors, self._warm_scale, self._last = None, None, (None, None)
        pairs = linops.top_eigenpairs(self.scov, self.q, scale=scale, v0=warm)
        self.warm_vectors, self._warm_scale = pairs.vectors, scale
        self._last = (key, pairs)
        return pairs

    def value_and_gradient(self, log_psi: np.ndarray):
        """Qp and its gradient with respect to log psi."""
        log_psi = np.asarray(log_psi, dtype=np.float64)
        psi = np.exp(log_psi)
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


def profile_value_and_gradient(obj: ProfileObjective, log_psi: np.ndarray):
    """Module-level entry point mirroring ProfileObjective.value_and_gradient."""
    return obj.value_and_gradient(log_psi)


def optimize_psi(obj: ProfileObjective, psi_init: np.ndarray) -> np.ndarray:
    """Maximize the profile objective over psi inside [PSI_MIN, PSI_MAX].

    Runs bounded L-BFGS-B on u = log psi from the (clipped) warm start, for
    at most MAX_INNER_ITER iterations and twice as many evaluations, and
    returns the best point it evaluated: the first with the highest finite
    profile value, or the start when none is finite.  L-BFGS-B sees the
    negated profile and its gradient times s = 2/n_eff, which gives the
    objective about unit curvature near its optimum, so the first trial
    step is about the right length whatever the component's mass; its
    gradient tolerance is PGTOL * s, so it stops where the unscaled
    gradient would meet PGTOL.  A start whose scaled projected gradient has
    max-norm at most PGTOL * s is returned as it is, which is where
    L-BFGS-B would stop before its first iteration.  On a non-finite
    start, a solver failure or an eigensolver breakdown the best point so
    far stands, so the result never has a lower profile value than the
    start, which preserves the ECM ascent property; a failure is logged at
    DEBUG.
    """
    if obj.q == 0:
        # separable closed form: log psi_j + d_j/psi_j peaks at psi_j = d_j,
        # and the term is unimodal, so the box clamp is the box optimum
        return np.clip(obj.scov_diag, PSI_MIN, PSI_MAX)
    psi_init = np.asarray(psi_init, dtype=np.float64)
    u0 = np.log(np.clip(psi_init, PSI_MIN, PSI_MAX))
    # arrays, not a list of pairs: scipy converts a list entry by entry
    bounds = Bounds(np.full(obj.p, np.log(PSI_MIN)), np.full(obj.p, np.log(PSI_MAX)))

    best = {"u": u0, "f": None}

    # -Qp's curvature is about n_eff/2: scaled by its inverse, L-BFGS-B's
    # identity-Hessian first step does not overshoot
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
        # L-BFGS-B's projected gradient: each component is capped by the
        # distance to the bound that a descent step moves toward
        projected = np.where(
            g0 < 0, np.maximum(u0 - bounds.ub, g0), np.minimum(u0 - bounds.lb, g0)
        )
        if np.isfinite(f0) and np.max(np.abs(projected)) > gtol:
            minimize(
                negated,
                u0,
                jac=True,
                method="L-BFGS-B",
                bounds=bounds,
                options={
                    "maxiter": MAX_INNER_ITER,
                    # the budget caps objective evaluations too: line searches
                    # inside one iteration may otherwise spend several solves
                    "maxfun": 2 * MAX_INNER_ITER,
                    "gtol": gtol,
                },
            )
    except (linops.NoConvergence, FloatingPointError) as exc:
        _log.debug(
            "optimize_psi keeps its best point after %s: %s", type(exc).__name__, exc
        )
    return np.clip(np.exp(best["u"]), PSI_MIN, PSI_MAX)


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
