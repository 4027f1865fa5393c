"""Clustering agreement metrics.

ARI follows Hubert & Arabie (1985): pair-counting agreement corrected for
chance under the permutation model, computed from the contingency table.
Confusion metrics map clusters to classes by the accuracy-maximizing
assignment first, since cluster indices are arbitrary; Cohen's kappa is
reported alongside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _codes(labels) -> np.ndarray:
    arr = np.asarray(labels)
    if arr.ndim != 1:
        raise ValueError("labels must be one-dimensional")
    if arr.size == 0:
        raise ValueError("labels must be non-empty")
    _, codes = np.unique(arr, return_inverse=True)
    return codes


def contingency_table(a, b) -> np.ndarray:
    ca, cb = _codes(a), _codes(b)
    if ca.shape != cb.shape:
        raise ValueError("label vectors must have equal length")
    na, nb = ca.max() + 1, cb.max() + 1
    table = np.zeros((na, nb), dtype=np.int64)
    np.add.at(table, (ca, cb), 1)
    return table


def _comb2(x):
    return x * (x - 1) // 2


def adjusted_rand_index(a, b) -> float:
    """Chance-corrected pair-counting agreement of two partitions."""
    table = contingency_table(a, b)
    n = int(table.sum())
    sum_ij = int(_comb2(table).sum())
    sum_a = int(_comb2(table.sum(axis=1)).sum())
    sum_b = int(_comb2(table.sum(axis=0)).sum())
    total = _comb2(n)
    expected = sum_a * sum_b / total if total else 0.0
    max_index = 0.5 * (sum_a + sum_b)
    denom = max_index - expected
    if denom == 0.0:
        # both partitions carry no pair information (all singletons or one
        # block); identical partitions count as perfect agreement
        return 1.0 if sum_a == sum_b == sum_ij else 0.0
    return float((sum_ij - expected) / denom)


@dataclass(frozen=True)
class ConfusionMetrics:
    accuracy: float
    sensitivity: float
    specificity: float
    kappa: float


def confusion_metrics(pred, truth, positive_class) -> ConfusionMetrics:
    """Two-class confusion metrics after accuracy-maximizing cluster mapping.

    ``pred`` may use at most two distinct cluster indices; ``truth`` must be
    binary and contain ``positive_class``.  Sensitivity is the recall of the
    positive class, specificity the recall of the other.  Kappa is defined
    as 0 when the chance-agreement denominator vanishes.
    """
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError("pred and truth must be equal-length vectors")
    pred_vals = np.unique(pred)
    truth_vals = np.unique(truth)
    if pred_vals.size > 2:
        raise ValueError("confusion metrics need at most two predicted clusters")
    if truth_vals.size > 2:
        raise ValueError("confusion metrics need binary truth labels")
    if positive_class not in truth_vals:
        raise ValueError(f"positive class {positive_class!r} absent from truth")
    positive = truth == positive_class

    # the cluster read as positive is the one with the higher accuracy, the
    # lower label on a tie
    pred_positive = max(
        (pred == pred_vals[0], pred == pred_vals[-1]),
        key=lambda as_positive: np.mean(as_positive == positive),
    )

    tp = int(np.sum(pred_positive & positive))
    fn = int(np.sum(~pred_positive & positive))
    tn = int(np.sum(~pred_positive & ~positive))
    fp = int(np.sum(pred_positive & ~positive))
    n = tp + fn + tn + fp
    accuracy = (tp + tn) / n
    sensitivity = tp / (tp + fn) if tp + fn else 0.0
    specificity = tn / (tn + fp) if tn + fp else 0.0
    po = accuracy
    pe = ((tp + fp) * (tp + fn) + (fn + tn) * (fp + tn)) / (n * n)
    kappa = (po - pe) / (1.0 - pe) if pe < 1.0 else 0.0
    return ConfusionMetrics(
        accuracy=accuracy,
        sensitivity=sensitivity,
        specificity=specificity,
        kappa=kappa,
    )
