"""Hot numerical kernels over the weighted data, in plain numpy.

Four kernels dominate the fit at large p: the weighted-covariance
matrix-vector product; its p x b block form (two GEMMs over the data), which
the block eigensolver applies once per iteration to scatters with n > p and
the Lanczos uses to seed a warm start; the Lanczos basis-growth cycle, which
strings single products together with reorthogonalization and serves only
scatters with n <= p (one call per restart instead of one per column keeps
interpreter overhead off the hot path); and the fused weighted first/second
moment pass (one read of the data per CM step per component).
Everything BLAS-shaped beyond them (densities, eigendecompositions) lives
with its callers.
"""

from __future__ import annotations

import numpy as np


def wcov_matvec(y, w, center, v, weight_sum):
    # sum_i w_i (y_i - c)((y_i - c) . v) / weight_sum, no n x p temporary
    c = y @ v - center @ v
    wc = w * c
    r = y.T @ wc
    r -= wc.sum() * center
    r /= weight_sum
    return r


def wcov_matmat(y, w, center, scale, V, weight_sum):
    # D S D V for a p x b block, D = diag(scale): wcov_matvec's product with
    # GEMMs in place of GEMVs, and no n x p temporary
    u = scale[:, None] * V
    c = y @ u
    c -= center @ u
    c *= w[:, None]
    r = y.T @ c
    r -= np.outer(center, c.sum(axis=0))
    r /= weight_sum
    r *= scale[:, None]
    return r


def weighted_stats(y, w):
    # (weight_sum, weighted mean, weighted raw second moment), one logical pass
    weight_sum = float(np.sum(w))
    mean = (w @ y) / weight_sum
    m2 = (w @ np.square(y)) / weight_sum
    return weight_sum, mean, m2


# basis-extension breakdown thresholds shared with linops: a direction whose
# norm is below BREAKDOWN_ABS carries no information, and one reduced below
# BREAKDOWN_REL by reorthogonalization lies in the span
BREAKDOWN_ABS = 1e-12
BREAKDOWN_REL = 1e-6


def lanczos_grow(y, w, center, scale, weight_sum, basis, images, start,
                 next_dir):
    """Grow basis/images in place from column ``start``; return fill count.

    Each step twice projects the pending direction off the current basis,
    normalizes it, stores it, and applies the scaled weighted scatter
    D Y' W Y D / weight_sum (about ``center``) to produce both its image and
    the next pending direction.  Stops at the full basis width or on
    breakdown; the return value is the first unfilled column either way.
    """
    m = basis.shape[1]
    v = next_dir.astype(np.float64, copy=True)
    j = start
    while j < m:
        nrm = float(np.sqrt(v @ v))
        if nrm <= BREAKDOWN_ABS:
            return j
        v /= nrm
        for _ in range(2):
            if j:
                v -= basis[:, :j] @ (basis[:, :j].T @ v)
        nrm = float(np.sqrt(v @ v))
        if nrm <= BREAKDOWN_REL:
            return j
        v /= nrm
        basis[:, j] = v
        u = scale * v
        c = w * (y @ u - center @ u)
        r = (y.T @ c - c.sum() * center) / weight_sum
        r *= scale
        images[:, j] = r
        v = r.copy()
        j += 1
    return j


def backend_name() -> str:
    """Kernel implementation in use; always ``"numpy"``."""
    return "numpy"
