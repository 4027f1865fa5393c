"""Synthetic factor-analyzer mixtures with a controllable separation knob.

Truth draws use a counter-based Philox generator so replication across
machines and processes is exact given the seed.  Component means scale as
``separation * N(0, I)``; larger separation spreads the means while the
within-component covariances stay O(1) (standard-normal loadings,
uniquenesses uniform on [0.2, 0.8]), so the knob directly controls overlap.
Mixing weights are |N(0,1)| normalized, floored at 0.05, and renormalized,
keeping every component populated at realistic sample sizes.

The realized difficulty of a drawn truth can be quantified with
``bayes_misclassification_rate``, the Monte Carlo error rate of the
true-parameter posterior classifier; tests use it to calibrate separation
regimes instead of an overlap-targeting search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ecm import e_step
from .model import (
    ComponentParams,
    DataMatrix,
    MixtureModel,
    expand_factor_spec,
    max_admissible_q,
)

WEIGHT_FLOOR = 0.05


@dataclass(frozen=True)
class SimSpec:
    """Shape and difficulty of a synthetic mixture draw."""

    n: int
    p: int
    n_components: int
    factor_spec: int | tuple[int, ...]
    separation: float = 1.0
    seed: int = 0

    def factor_vector(self) -> tuple[int, ...]:
        return expand_factor_spec(self.factor_spec, self.n_components)

    def validate(self) -> None:
        if self.n < 2 or self.p < 1 or self.n_components < 1:
            raise ValueError("need n >= 2, p >= 1, K >= 1")
        if self.separation < 0:
            raise ValueError("separation must be non-negative")
        qs = self.factor_vector()
        cap = max_admissible_q(self.p)
        for q in qs:
            if q < 0 or (q > 0 and q > cap):
                raise ValueError(f"q={q} not admissible at p={self.p}")
        if self.n < self.n_components * (max(qs) + 2):
            raise ValueError("n too small to populate every component")


def draw_truth(spec: SimSpec) -> MixtureModel:
    """Draw ground-truth mixture parameters for the given spec.

    Draw order is fixed (weights, then mean/loadings/uniquenesses per
    component) so truths are reproducible bit for bit from the seed.
    """
    spec.validate()
    rng = np.random.Generator(np.random.Philox(spec.seed))
    K = spec.n_components
    qs = spec.factor_vector()
    raw = np.abs(rng.standard_normal(K))
    raw = raw / raw.sum()
    raw = np.maximum(raw, WEIGHT_FLOOR)
    weights = raw / raw.sum()
    comps = []
    for k in range(K):
        mean = spec.separation * rng.standard_normal(spec.p)
        lam = rng.standard_normal((spec.p, qs[k]))
        psi = rng.uniform(0.2, 0.8, size=spec.p)
        comps.append(
            ComponentParams(
                weight=float(weights[k]),
                mean=mean,
                loadings=lam,
                uniquenesses=psi,
            )
        )
    return MixtureModel(components=tuple(comps))


def sample_dataset(model: MixtureModel, n: int, seed: int = 0) -> DataMatrix:
    """Sample n observations with their component labels attached.

    The labels are drawn first, then each component's m_k x q_k scores and
    m_k x p noise in turn; an empty shape (q_k = 0, m_k = 0) draws nothing.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    rng = np.random.Generator(np.random.Philox(seed))
    K = model.n_components
    p = model.p
    weights = np.array([c.weight for c in model.components])
    labels = rng.choice(K, size=n, p=weights / weights.sum())
    y = np.empty((n, p))
    for k, comp in enumerate(model.components):
        idx = np.flatnonzero(labels == k)
        scores = rng.standard_normal((idx.size, comp.n_factors))
        noise = rng.standard_normal((idx.size, p)) * np.sqrt(comp.uniquenesses)
        y[idx] = comp.mean + noise + scores @ comp.loadings.T
    return DataMatrix(values=y, labels=labels)


def bayes_misclassification_rate(
    model: MixtureModel, n: int = 20000, seed: int = 1
) -> float:
    """Monte Carlo error rate of the true-parameter posterior classifier."""
    sample = sample_dataset(model, n, seed=seed)
    resp, _ = e_step(model, sample)
    predicted = np.argmax(resp.gamma, axis=1)
    return float(np.mean(predicted != sample.labels))
