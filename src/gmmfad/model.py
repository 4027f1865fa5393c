"""Value types for factor-analyzer mixtures and their counting rules.

A component models its covariance as ``Lambda @ Lambda.T + Psi`` with
``Lambda`` a p x q loadings matrix and ``Psi`` a positive diagonal, so a
mixture is identified by (weight, mean, loadings, uniquenesses) per
component.  To keep estimation well-posed the factor count must satisfy the
classical identifiability bound q < p + (1 - sqrt(1 + 8p))/2 (Lawley &
Maxwell 1971, ch. 2), equivalently the requirement that the factor model has
fewer free parameters than an unrestricted covariance.

All containers are frozen dataclasses and freeze their array payloads; fit
code treats them as immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

PSI_MIN = 1e-4
PSI_MAX = 1e4
_WEIGHT_TOL = 1e-12


def _frozen_array(x, dtype=np.float64, ndim=None) -> np.ndarray:
    arr = np.array(x, dtype=dtype, order="C", copy=True)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DataMatrix:
    """An n x p sample, optionally with integer class labels."""

    values: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        values = _frozen_array(self.values, ndim=2)
        if values.shape[0] < 2:
            raise ValueError("need at least two rows")
        if values.shape[1] < 1:
            raise ValueError("need at least one feature")
        if not np.all(np.isfinite(values)):
            raise ValueError("data contains non-finite entries")
        object.__setattr__(self, "values", values)
        if self.labels is not None:
            labels = _frozen_array(self.labels, dtype=np.int64, ndim=1)
            if labels.shape[0] != values.shape[0]:
                raise ValueError("labels length must match the number of rows")
            if labels.size and labels.min() < 0:
                raise ValueError("labels must be non-negative integers")
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ComponentParams:
    """One factor-analyzer component: weight, mean, loadings, uniquenesses."""

    weight: float
    mean: np.ndarray
    loadings: np.ndarray
    uniquenesses: np.ndarray

    def __post_init__(self):
        if not (0.0 < self.weight <= 1.0):
            raise ValueError(f"weight must lie in (0, 1], got {self.weight}")
        mean = _frozen_array(self.mean, ndim=1)
        loadings = _frozen_array(self.loadings, ndim=2)
        psi = _frozen_array(self.uniquenesses, ndim=1)
        p = mean.shape[0]
        if loadings.shape[0] != p or psi.shape[0] != p:
            raise ValueError("mean, loadings and uniquenesses disagree on p")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(loadings))):
            raise ValueError("non-finite component parameters")
        if not np.all(psi >= PSI_MIN):
            raise ValueError(f"uniquenesses must be >= {PSI_MIN}")
        q = loadings.shape[1]
        if q > 0 and q > max_admissible_q(p):
            raise ValueError(
                f"q={q} violates the identifiability bound for p={p} "
                f"(max admissible {max_admissible_q(p)})"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "loadings", loadings)
        object.__setattr__(self, "uniquenesses", psi)

    @property
    def n_factors(self) -> int:
        return self.loadings.shape[1]

    @property
    def p(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class MixtureModel:
    """A finite mixture of factor-analyzer components."""

    components: tuple[ComponentParams, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("a mixture needs at least one component")
        p = comps[0].p
        if any(c.p != p for c in comps):
            raise ValueError("components disagree on dimension p")
        total = math.fsum(c.weight for c in comps)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"weights must sum to 1 within {_WEIGHT_TOL}, got {total}")
        object.__setattr__(self, "components", comps)

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def p(self) -> int:
        return self.components[0].p

    @property
    def factor_vector(self) -> tuple[int, ...]:
        return tuple(c.n_factors for c in self.components)


@dataclass(frozen=True)
class Responsibilities:
    """Posterior component memberships, one row per observation."""

    gamma: np.ndarray

    def __post_init__(self):
        gamma = _frozen_array(self.gamma, ndim=2)
        if np.any(gamma < 0):
            raise ValueError("responsibilities must be non-negative")
        rowsums = gamma.sum(axis=1)
        if not np.allclose(rowsums, 1.0, rtol=0.0, atol=1e-12):
            raise ValueError("responsibility rows must sum to one within 1e-12")
        object.__setattr__(self, "gamma", gamma)

    @property
    def n(self) -> int:
        return self.gamma.shape[0]

    @property
    def n_components(self) -> int:
        return self.gamma.shape[1]


@dataclass(frozen=True)
class FitReport:
    """Everything a fit returns: model, memberships, trace, criteria, costs."""

    model: MixtureModel
    responsibilities: Responsibilities
    hard_assignment: np.ndarray
    loglik_trace: np.ndarray
    bic: float
    n_iter: int
    converged: bool
    wall_time_s: float
    engine: str = "gmmfad"
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "hard_assignment", _frozen_array(self.hard_assignment, np.int64, 1)
        )
        trace = _frozen_array(self.loglik_trace, np.float64, 1)
        if trace.size == 0:
            raise ValueError("loglik_trace must record at least one iteration")
        steps = np.diff(trace)
        if steps.size and float(steps.min()) < -1e-8:
            raise ValueError(
                f"loglik_trace decreases by {-float(steps.min()):.3e} "
                "(ascent property violated)"
            )
        object.__setattr__(self, "loglik_trace", trace)

    @property
    def loglik(self) -> float:
        return float(self.loglik_trace[-1])


def max_admissible_q(p: int) -> int:
    """Largest q strictly below the bound p + (1 - sqrt(1 + 8p))/2.

    Returns -1 for p = 1, where no positive factor count is admissible.
    Exact-integer bounds (p triangular) are resolved with integer
    arithmetic so no float rounding can push the result over the line.
    """
    if p < 1:
        raise ValueError("p must be positive")
    disc = 1 + 8 * p
    s = math.isqrt(disc)
    if s * s == disc:
        # bound = (2p + 1 - s)/2 exactly; s is odd, so the numerator is even
        return (2 * p + 1 - s) // 2 - 1
    return math.floor(p + (1.0 - math.sqrt(disc)) / 2.0)


def component_param_count(p: int, q: int) -> int:
    """Free covariance parameters of one component: p*q + p - q(q-1)/2.

    The q(q-1)/2 deduction removes the rotational indeterminacy of the
    loadings; means and weights are counted by free_param_count.
    """
    if q < 0:
        raise ValueError("q must be non-negative")
    return p * q + p - q * (q - 1) // 2


def free_param_count(model: MixtureModel) -> int:
    """Total free parameters: (K-1) weights + K*p means + covariance blocks."""
    K = model.n_components
    p = model.p
    cov = sum(component_param_count(p, c.n_factors) for c in model.components)
    return (K - 1) + K * p + cov

