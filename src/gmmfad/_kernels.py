"""Hot numerical kernels over the weighted data, in plain numpy.

These kernels dominate the fit at large p, one for each eigensolver route
of ``linops.top_eigenpairs`` above linops.DENSE_THRESHOLD plus the moment
pass:

* the whitened weighted rows X and their Gram matrix X X^T, for the exact
  solve of a scatter whose n_s weighted rows are no more than the
  iterative basis width min(p, 2q + 10), the route that serves the
  n << p fits;
* the Lanczos basis-growth cycle, which strings single products together
  with reorthogonalization and serves scatters of more rows than that but
  at most p/2 (one call per restart instead of one per column keeps
  interpreter overhead off the hot path).  The Gram solve could take this
  range too; the Lanczos stays while the benchmark's self-tests
  (``perfbench/test_layers.py``) require this kernel to run;
* the unscaled weighted-covariance product with a p x b block (one pass
  of row blocks, each read by its two GEMMs while in cache, with no n x b
  temporary; ``linops._product`` applies the solve's whitening scale
  on both sides), which the block eigensolver applies once
  per iteration to scatters of more than p/2 rows and the Lanczos uses to
  image its start block (a single product is its one-column case);
* the weighted moment pass (the mean, then the centred second moment) for
  the start protocol and each CM-step scatter above linops.DENSE_THRESHOLD,
  given the weight sum its caller already holds; a smaller scatter reads
  its diagonal off its dense matrix, built in one pass.

Everything BLAS-shaped beyond them (densities, dense scatters,
eigendecompositions) lives with its callers.

Every pass of a fit that would otherwise hold an n x p or n x b temporary
(the moment pass and the block product here, the densities, the dense
scatter) walks the data in
``row_blocks``: runs of rows of about
BLOCK_BYTES, so that each temporary is a block that stays in cache, and
when the whole sample fits in one block the pass is a single slice.
"""

from __future__ import annotations

import numpy as np

# bytes of data rows per block of a row pass
BLOCK_BYTES = 256 * 1024
# a block is a whole number of these rows, and at least one of them: BLAS
# kernels (OpenBLAS's among them) tile the rows of a product in groups that
# divide 64, so a product on a block gives each row the same bits as one
# product over all rows, and a per-row result such as a density does not
# depend on BLOCK_BYTES
_ROW_TILE = 64


def row_blocks(y):
    """Slices of consecutive rows of ``y``, about BLOCK_BYTES each, in order."""
    n = y.shape[0]
    tiles = BLOCK_BYTES // (_ROW_TILE * y.itemsize * max(1, y.shape[1]))
    step = _ROW_TILE * max(1, tiles)
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


def wcov_matmat(y, w, center, V, weight_sum):
    # S V for a p x b block, S the weighted scatter
    # sum_i w_i (y_i - c)(y_i - c)^T / weight_sum, in one pass of row
    # blocks: each block's two GEMMs, C = w_b (y_b - c) V and y_b^T C, read
    # it while it is in cache, and no n x p or n x b temporary is held.
    # Whitening is the caller's (linops._product)
    cv = center @ V
    r = np.zeros((y.shape[1], V.shape[1]))
    c_sum = np.zeros(V.shape[1])
    for rows in row_blocks(y):
        yb = y[rows]
        c = yb @ V
        c -= cv
        c *= w[rows, None]
        r += yb.T @ c
        c_sum += c.sum(axis=0)
    r -= np.outer(center, c_sum)
    r /= weight_sum
    return r


def wcov_gram(y, w, center, scale, weight_sum):
    # (X, X X^T) for X = diag(sqrt(w / weight_sum)) (Y - c) D, D = diag(scale):
    # the scaled scatter is X^T X, and its n x n Gram matrix X X^T has the
    # same non-zero eigenvalues.  Callers pass only a few rows, so X is small
    x = y - center
    x *= np.sqrt(w / weight_sum)[:, None]
    x *= scale
    return x, x @ x.T


def weighted_stats(y, w, weight_sum):
    # (weighted mean, weighted centred second moment
    # sum_i w_i (y_i - mean)^2 / weight_sum), weight_sum = sum(w) taken by
    # the caller: the mean in one product, then the centred squares a block
    # of rows at a time, so the second moment has no cancellation however
    # far the data sit from the origin
    mean = (w @ y) / weight_sum
    m2 = np.zeros(y.shape[1])
    for rows in row_blocks(y):
        d = y[rows] - mean
        d *= d
        m2 += w[rows] @ d
    m2 /= weight_sum
    return mean, m2


# breakdown thresholds of lanczos_grow: a direction whose norm is below
# BREAKDOWN_ABS carries no information, and one reduced below BREAKDOWN_REL
# by reorthogonalization lies in the span
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
