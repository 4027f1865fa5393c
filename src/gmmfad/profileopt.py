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
[1e-4, 1e4], which rules out Heywood collapse.  Eigenpairs come from the
shared linops solver; each evaluation reuses the previous one's Ritz vectors
as a warm start, so successive solves during a line search cost a handful of
matvecs.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, minimize

from . import linops
from .model import PSI_MAX, PSI_MIN

DEFAULT_BOX = (PSI_MIN, PSI_MAX)
MAX_INNER_ITER = 50
LBFGSB_MEMORY = 10


class ProfileObjective:
    """State for repeated profile evaluations at one CM step.

    Holds the scatter operator, its diagonal, the effective sample mass
    n_eff (the component's responsibility sum), the factor count q, and the
    previous solve's eigenvectors, which warm-start the next one.  Every
    eigensolve goes through linops.top_eigenpairs on the whitened operator
    ScaledCovOperator(scov, psi^{-1/2}), which picks the solver (dense at
    p <= dense_threshold).  The vectors come back with no sign convention;
    recover_loadings fixes the signs of the loadings it hands out.
    """

    def __init__(
        self,
        scov,
        n_eff: float,
        q: int,
        *,
        eig_tol: float = 1e-8,
        dense_threshold: int = linops.DENSE_THRESHOLD,
        warm_vectors: np.ndarray | None = None,
    ):
        if n_eff <= 0:
            raise ValueError("n_eff must be positive")
        p = scov.shape[0]
        if q < 0 or (q > 0 and q >= p):
            raise linops.InvalidRank(f"need 0 <= q < p, got q={q}, p={p}")
        self.scov = scov
        self.n_eff = float(n_eff)
        self.q = int(q)
        self.p = p
        self.scov_diag = np.maximum(np.asarray(scov.diag(), dtype=np.float64), 0.0)
        self.eig_tol = eig_tol
        self.dense_threshold = dense_threshold
        self.warm_vectors = warm_vectors
        self.n_evaluations = 0

    def eigenpairs(self, psi: np.ndarray) -> linops.EigPairs:
        """Leading q eigenpairs of Psi^{-1/2} S Psi^{-1/2} at this psi."""
        pairs = linops.top_eigenpairs(
            linops.ScaledCovOperator(self.scov, 1.0 / np.sqrt(psi)),
            self.q,
            tol=self.eig_tol,
            dense_threshold=self.dense_threshold,
            v0=self.warm_vectors,
        )
        self.warm_vectors = pairs.vectors
        return pairs

    def value_and_gradient(self, log_psi: np.ndarray):
        """Qp and its gradient with respect to log psi."""
        log_psi = np.asarray(log_psi, dtype=np.float64)
        psi = np.exp(log_psi)
        self.n_evaluations += 1
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


def optimize_psi(
    obj: ProfileObjective,
    psi_init: np.ndarray,
    *,
    box: tuple[float, float] = DEFAULT_BOX,
    max_inner_iter: int = MAX_INNER_ITER,
) -> np.ndarray:
    """Maximize the profile objective over psi inside the box.

    Runs bounded L-BFGS-B on u = log psi from the (clipped) warm start and
    returns the best iterate seen.  The result never has a lower profile
    value than the start: on any solver failure, non-finite evaluation, or
    eigensolver breakdown the best evaluated point (at worst the start
    itself) is returned, which preserves the ECM ascent property.
    """
    lo, hi = box
    if not (0 < lo < hi):
        raise ValueError("box must satisfy 0 < lo < hi")
    if obj.q == 0:
        # separable closed form: log psi_j + d_j/psi_j peaks at psi_j = d_j,
        # and the term is unimodal, so the box clamp is the box optimum
        return np.clip(obj.scov_diag, lo, hi)
    psi_init = np.asarray(psi_init, dtype=np.float64)
    u0 = np.log(np.clip(psi_init, lo, hi))
    # arrays, not a list of pairs: scipy converts a list entry by entry
    bounds = Bounds(np.full(obj.p, np.log(lo)), np.full(obj.p, np.log(hi)))

    best = {"u": u0, "f": None}

    def negated(u):
        val, grad = obj.value_and_gradient(u)
        f = -val
        if np.isfinite(f) and (best["f"] is None or f < best["f"]):
            best["u"] = u.copy()
            best["f"] = f
        return f, -grad

    try:
        f0, _ = negated(u0)
        if not np.isfinite(f0):
            raise FloatingPointError("profile objective non-finite at the start")
        res = minimize(
            negated,
            u0,
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={
                "maxiter": max_inner_iter,
                # the budget caps objective evaluations too: line searches
                # inside one iteration may otherwise spend several solves
                "maxfun": max(2 * max_inner_iter, 4),
                "maxcor": LBFGSB_MEMORY,
            },
        )
        u_final = res.x
        f_final = float(res.fun)
        if not np.isfinite(f_final) or f_final > best["f"]:
            u_final = best["u"]
    except (linops.NoConvergence, FloatingPointError):
        u_final = best["u"]
    return np.clip(np.exp(u_final), lo, hi)


def _canonical_signs(columns: np.ndarray) -> np.ndarray:
    # make the largest-magnitude coordinate of each column non-negative
    if columns.size == 0:
        return columns
    idx = np.argmax(np.abs(columns), axis=0)
    flip = columns[idx, np.arange(columns.shape[1])] < 0
    if np.any(flip):
        columns = columns.copy()
        columns[:, flip] *= -1.0
    return columns


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
    return _canonical_signs(lam)
