"""Matrix-free weighted-covariance operators and their leading eigenpairs.

The CM step never needs the weighted scatter matrix itself, only its action
on blocks of vectors and its diagonal.  For responsibilities w and weighted
mean mu,

    S v = (1/sum(w)) * sum_i w_i (y_i - mu) <y_i - mu, v>
        = (1/sum(w)) * [ Y^T (w * c) - (sum_i w_i c_i) mu ],   c = Y v - (mu.v) 1,

two GEMV-shaped products on each block of rows, in one pass over the data,
and a rank-one correction: O(np) time and O(p) extra memory beyond a block.
A row with w_i = 0 adds exact zeros to every product, so a matrix-free
scatter operator keeps, from its construction on, only the support, the
n_s rows of non-zero weight: on separated clusters the E-step's exp
underflows to exactly zero on many rows.

Both operators (``WeightedCovOperator`` and ``DenseSymOperator``) answer
one protocol: the size ``p``, the block product ``matmat(block)`` and a
guard-checked ``to_dense()``.  The whitening is the solve's: given
``scale``, ``top_eigenpairs`` returns the leading pairs of D A D with
D = diag(scale), D = diag(psi^{-1/2}) for the uniqueness solver, and every
route applies D on both sides of the operator's own product (``_product``,
or the Gram and Lanczos kernels, which take the scale as an argument).
Below ``dense_threshold`` the operator is materialized and handed to LAPACK;
``dense_scatter`` is the one routine that builds a scatter matrix, for the
operator and for the dense AECM baseline alike.  A scatter operator of
p <= DENSE_THRESHOLD builds it in its constructor, when the active guard
allows, and reads its diagonal off it, so its moments take one centred
pass over the data, not two.  Above the threshold the solver is chosen by
the support size n_s, since a scatter of n_s rows has rank at most n_s, and
by the width m = min(p, 2q + 10) of an iterative solver's basis:

* a scatter operator with n_s <= m: an exact solve on the n_s x n_s Gram
  matrix (``_gram_eigpairs``, the snapshot method of Sirovich 1987; its
  product is ``_kernels.wcov_gram``).  The scatter's rank is below the
  basis width, so a Krylov basis would break down before it filled.  The
  solve forms nothing larger than n_s x n_s beside the n_s x p weighted
  rows, needs no start and no tolerance, and cannot fail to converge.
* a scatter operator with m < n_s and 2 n_s <= p: a thick-restart Lanczos
  (Wu & Simon 2000) with full reorthogonalization on the fused
  ``_kernels.lanczos_grow`` cycle.  A restart keeps a few Ritz pairs beyond
  the requested q as they are, already orthonormal, and continues along the
  residual of the first pair that has not converged.  The Gram solve would
  serve this range as well; the Lanczos stays while the benchmark's
  self-tests (``perfbench/test_layers.py``) require its kernel to run.
* every other operator: a warm-started block Rayleigh-Ritz subspace
  iteration (Halko, Martinsson & Tropp 2011), one ``matmat`` on the whole
  p x b block per iteration; for a scatter that is one kernel call, one
  pass of GEMMs over row blocks.  A scatter whose support is between p/2
  and p rows solves faster here than on the Lanczos's one product per
  column.

The two iterative solvers start from one orthonormalized block
(``_start_basis``: the warm-start subspace, which the uniqueness solver
uses to make successive eigensolves nearly free, then seeded random
columns) and share one Rayleigh-Ritz step with one residual test
(``_ritz_pairs``): a pair is accepted when
||A y_j - theta_j y_j|| <= tol * max(1, theta_j).  No solver fixes
eigenvector signs.

A scoped allocation guard lets callers assert that nothing in a region
materializes a dense matrix wider than a given limit; ``dense_scatter`` and
every ``to_dense`` check it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import _kernels

DENSE_THRESHOLD = 64
# restarts (block iterations) an iterative solve may take before NoConvergence
MAX_RESTARTS = 200
# seed of every random column: the block solver's padding columns, a cold
# Lanczos start, a Lanczos breakdown reseed and the Gram solve's completion
# of a null space
SEED = 0


class LinopsError(Exception):
    pass


class InvalidRank(LinopsError, ValueError):
    """Requested rank is outside 1 <= q < p."""


class NoConvergence(LinopsError, RuntimeError):
    """Restarts (block iterations) exhausted before residuals met tolerance."""

    def __init__(self, msg, n_restarts=None, residuals=None):
        super().__init__(msg)
        self.n_restarts = n_restarts
        self.residuals = residuals


class DegenerateWeights(LinopsError, ValueError):
    """Weight mass too small to define a scatter; the cluster is emptying."""


class DenseAllocationError(LinopsError, RuntimeError):
    """A dense matrix wider than the active guard limit was requested."""


_dense_limit: int | None = None


@contextmanager
def forbid_dense_above(limit: int = DENSE_THRESHOLD):
    """Fail any dense d x d assembly with d > limit inside the block."""
    global _dense_limit
    previous = _dense_limit
    _dense_limit = limit if previous is None else min(previous, limit)
    try:
        yield
    finally:
        _dense_limit = previous


def _check_dense_allowed(dim: int):
    if _dense_limit is not None and dim > _dense_limit:
        raise DenseAllocationError(
            f"dense {dim} x {dim} assembly forbidden (guard limit {_dense_limit})"
        )


def dense_scatter(y, w, center, weight_sum) -> np.ndarray:
    """The p x p scatter sum_i w_i (y_i - c)(y_i - c)^T / weight_sum.

    Guard-checked.  Z = diag(sqrt(w)) (Y - center) is built in place one
    ``_kernels.row_blocks`` block at a time and S = sum of the blocks'
    Z^T Z, over weight_sum, so no n x p temporary is held and S is exactly
    symmetric.
    """
    _check_dense_allowed(y.shape[1])
    s = np.zeros((y.shape[1], y.shape[1]))
    for rows in _kernels.row_blocks(y):
        z = y[rows] - center
        z *= np.sqrt(w[rows])[:, None]
        s += z.T @ z
    s /= weight_sum
    return s


class WeightedCovOperator:
    """Weighted scatter of the data about its weighted mean, matrix-free.

    Parameters
    ----------
    values : (n, p) array
        Data rows.  Stored C-contiguous float64.
    weights : (n,) array
        Non-negative responsibilities.  Their sum must exceed 1e-10 * n,
        otherwise the cluster is considered empty and DegenerateWeights is
        raised for the engine to handle.

    The weighted moments, hence ``center`` and ``diag``, are taken over all
    n rows.  At p <= DENSE_THRESHOLD, unless a guard forbids that size, the
    constructor builds the scatter after the weighted mean and reads
    ``diag`` off it, so the moments take one centred pass, and ``_y`` and
    ``_w`` are the inputs.  Otherwise ``_kernels.weighted_stats`` makes that
    pass, and the constructor then keeps in ``_y`` and ``_w`` only the
    ``n_rows`` rows of non-zero weight, in order, which every matrix-free
    product (``matmat``, ``matvec``, the Lanczos and the Gram kernels) and
    ``to_dense`` read.  With every weight positive there is no copy, and
    ``_y`` is the input itself when that is already C-contiguous float64.
    """

    def __init__(self, values, weights):
        y = np.ascontiguousarray(values, dtype=np.float64)
        w = np.ascontiguousarray(weights, dtype=np.float64)
        if y.ndim != 2 or w.ndim != 1 or w.shape[0] != y.shape[0]:
            raise ValueError("values must be (n, p) and weights (n,)")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        n, p = y.shape
        self.weight_sum = float(np.sum(w))
        if self.weight_sum < 1e-10 * n:
            raise DegenerateWeights(
                f"weight sum {self.weight_sum:.3e} below 1e-10 * n"
            )
        self._dense = None
        if p <= DENSE_THRESHOLD and (_dense_limit is None or p <= _dense_limit):
            # the solve will want the scatter: build it now, one centred
            # pass, and read the diagonal off it
            self.center = (w @ y) / self.weight_sum
            self._dense = dense_scatter(y, w, self.center, self.weight_sum)
            self._diag = np.diag(self._dense)
        else:
            self.center, self._diag = _kernels.weighted_stats(
                y, w, self.weight_sum
            )
            # the products keep only the rows of non-zero weight; copied
            # after the moment pass, the copy adds nothing to its peak
            support = np.flatnonzero(w)
            if support.size < n:
                y, w = y[support], w[support]
        self._y = y
        self._w = w

    @property
    def p(self) -> int:
        return self._y.shape[1]

    @property
    def n_rows(self) -> int:
        """Rows the matrix-free products run over."""
        return self._y.shape[0]

    def matmat(self, block: np.ndarray) -> np.ndarray:
        """S @ block (p x b): one kernel call over the kept rows."""
        return _kernels.wcov_matmat(self._y, self._w, self.center, block,
                                    self.weight_sum)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """S v: ``matmat`` on one column."""
        v = np.ascontiguousarray(v, dtype=np.float64)
        if v.shape != (self.p,):
            raise ValueError(f"expected a length-{self.p} vector")
        return self.matmat(v[:, None])[:, 0]

    def diag(self) -> np.ndarray:
        return self._diag

    def to_dense(self) -> np.ndarray:
        """Materialize the p x p scatter (``dense_scatter``); guard-checked."""
        _check_dense_allowed(self.p)
        if self._dense is None:
            self._dense = dense_scatter(self._y, self._w, self.center,
                                        self.weight_sum)
        return self._dense


@dataclass
class DenseSymOperator:
    """Wrap an explicit symmetric matrix behind the operator protocol."""

    matrix: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        self.matrix = a

    @property
    def p(self) -> int:
        return self.matrix.shape[0]

    def matmat(self, block):
        return self.matrix @ block

    def diag(self):
        return np.diag(self.matrix).copy()

    def to_dense(self):
        _check_dense_allowed(self.p)
        return self.matrix


@dataclass(frozen=True)
class EigPairs:
    """Leading eigenvalues (descending) and matching orthonormal vectors."""

    values: np.ndarray
    vectors: np.ndarray


def _product(op, scale, block):
    """D A D block for D = diag(scale): the images scaled in place."""
    images = op.matmat(scale[:, None] * block)
    images *= scale[:, None]
    return images


def _grow_basis(op, scale, basis, images, ncols, next_dir, rng):
    """Fill basis/images up to full width; NoConvergence on stalled growth."""
    m = basis.shape[1]
    attempts = 0
    while ncols < m:
        filled = int(_kernels.lanczos_grow(
            op._y, op._w, op.center, scale, op.weight_sum,
            basis, images, ncols, np.ascontiguousarray(next_dir, np.float64),
        ))
        if filled > ncols:
            attempts = 0
        ncols = filled
        if ncols < m:  # breakdown: the Krylov space closed, reseed
            attempts += 1
            if attempts >= 3:
                raise NoConvergence("could not extend the Krylov basis")
            next_dir = rng.standard_normal(basis.shape[0])
    return ncols


def _dense_eigpairs(op, scale, q: int) -> EigPairs:
    # LAPACK returns the eigenvalues ascending: the leading q are the last q
    vals, vecs = np.linalg.eigh(scale[:, None] * op.to_dense() * scale[None, :])
    return EigPairs(
        values=np.ascontiguousarray(vals[: -q - 1 : -1]),
        vectors=np.ascontiguousarray(vecs[:, : -q - 1 : -1]),
    )


def _start_basis(v0, p: int, width: int, rng) -> np.ndarray:
    """Orthonormal p x width start: the columns of ``v0``, then seeded ones.

    ``v0`` is a start vector or a p x j subspace (a j x p one is transposed);
    its first ``width`` columns come first, random columns fill the rest, and
    one QR orthonormalizes the block.  A rank-deficient block still gives
    orthonormal columns.
    """
    start = np.empty((p, width))
    j = 0
    if v0 is not None:
        v0 = np.atleast_2d(np.asarray(v0, dtype=np.float64))
        warm = (v0.T if v0.shape[0] != p else v0)[:, :width]
        j = warm.shape[1]
        start[:, :j] = warm
    if j < width:
        start[:, j:] = rng.standard_normal((p, width - j))
    return np.linalg.qr(start)[0]


def _ritz_pairs(basis, images, q, tol):
    """Rayleigh-Ritz of A on span(basis), given images = A @ basis.

    Returns theta (descending) and s, the q leading Ritz vectors y_j, their
    residuals A y_j - theta_j y_j and whether each is <= tol * max(1, theta_j).
    """
    h = basis.T @ images
    theta, s = np.linalg.eigh(0.5 * (h + h.T))
    theta, s = theta[::-1], s[:, ::-1]
    ritz = basis @ s[:, :q]
    resid = images @ s[:, :q]
    resid -= ritz * theta[:q]
    bound = tol * np.maximum(1.0, np.abs(theta[:q]))
    ok = np.linalg.norm(resid, axis=0) <= bound
    return theta, s, ritz, resid, ok


def _block_eigpairs(op, scale, q, tol, v0, rng) -> EigPairs:
    """Warm block Rayleigh-Ritz subspace iteration, one block product a step.

    The b = min(p - 1, 2q + 10) columns start from ``v0``, which need not be
    orthonormal, padded with random columns.  Each iteration applies the
    operator to the whole block, tests the leading q Ritz pairs
    (``_ritz_pairs``) and, short of convergence, moves the block to
    qr(A V S).
    """
    p = op.p
    basis = _start_basis(v0, p, min(p - 1, 2 * q + 10), rng)
    for _ in range(MAX_RESTARTS):
        images = _product(op, scale, basis)
        theta, s, ritz, resid, ok = _ritz_pairs(basis, images, q, tol)
        if bool(np.all(ok)):
            return EigPairs(values=np.ascontiguousarray(theta[:q]), vectors=ritz)
        del ritz
        basis = np.linalg.qr(images @ s)[0]
    raise NoConvergence(
        f"block subspace iteration did not converge in {MAX_RESTARTS} iterations",
        n_restarts=MAX_RESTARTS,
        residuals=np.linalg.norm(resid, axis=0),
    )


def _gram_eigpairs(op, scale, q) -> EigPairs:
    """Exact leading pairs of a scatter from its n_s x n_s Gram matrix.

    The scaled scatter is X^T X for the n_s x p matrix X of
    ``_kernels.wcov_gram``; each eigenpair (theta, u) of X X^T with
    theta > 0 gives the pair (theta, X^T u / sqrt(theta)) of the scatter
    (the snapshot method, Sirovich 1987).  A theta at or below n_s * eps *
    theta_max is rounding, not signal: its column, and any column past
    n_s, is completed orthonormally against the others by ``_start_basis``
    from seeded random columns, and reported with theta = 0.
    """
    x, gram = _kernels.wcov_gram(op._y, op._w, op.center, scale,
                                 op.weight_sum)
    theta, u = np.linalg.eigh(gram)
    n_s = theta.size
    # descending, the leading min(q, n_s); the rank counts those above
    # rounding
    theta, u = theta[: -q - 1 : -1], u[:, : -q - 1 : -1]
    floor = n_s * np.finfo(np.float64).eps * max(theta[0], 0.0)
    rank = int(np.count_nonzero(theta > floor))
    values = np.zeros(q)
    values[:rank] = theta[:rank]
    vectors = x.T @ u[:, :rank]
    vectors /= np.sqrt(theta[:rank])
    if rank < q:
        rng = np.random.Generator(np.random.Philox(SEED))
        fill = _start_basis(vectors, op.p, q, rng)[:, rank:]
        vectors = np.hstack([vectors, fill])
    return EigPairs(values=values, vectors=vectors)


def _lanczos_eigpairs(op, scale, q, tol, v0, rng) -> EigPairs:
    """Thick-restart Lanczos on the fused growth kernel; scatters only."""
    p = op.p
    m = min(p, 2 * q + 10)
    keep = min(q + 3, m - 2)
    # F-order keeps the column slices used by every projection contiguous
    basis = np.empty((p, m), order="F")
    images = np.empty((p, m), order="F")

    # start from the warm columns (at most m - 1), or one random column
    ncols = 1 if v0 is None else min(max(np.size(v0) // p, 1), m - 1)
    basis[:, :ncols] = _start_basis(v0, p, ncols, rng)
    images[:, :ncols] = _product(op, scale, basis[:, :ncols])

    next_dir = images[:, ncols - 1].copy()
    for _ in range(MAX_RESTARTS):
        # grow the basis to m columns along the Krylov/residual directions
        ncols = _grow_basis(op, scale, basis, images, ncols, next_dir, rng)

        # the projection is tridiagonal-plus-arrowhead in exact arithmetic
        # but is formed whole since reorthogonalization is full
        theta, s, ritz, resid, ok = _ritz_pairs(basis, images, q, tol)
        if bool(np.all(ok)):
            return EigPairs(values=np.ascontiguousarray(theta[:q]), vectors=ritz)

        # thick restart: the leading Ritz pairs, orthonormal as they are,
        # replace the basis and their images, and growth continues along
        # the residual of the first pair that has not converged
        del ritz
        next_dir = resid[:, int(np.argmin(ok))]
        basis[:, :keep] = basis @ s[:, :keep]
        images[:, :keep] = images @ s[:, :keep]
        ncols = keep

    raise NoConvergence(
        f"Lanczos did not converge in {MAX_RESTARTS} restarts",
        n_restarts=MAX_RESTARTS,
        residuals=np.linalg.norm(resid, axis=0),
    )


# the routes of top_eigenpairs that start from its ``v0``
WARM_STARTED = frozenset({"lanczos", "block"})


def route(op, q: int, dense_threshold: int | None = None) -> str:
    """The solver top_eigenpairs runs for q pairs of ``op``, by the rule its
    docstring gives: "dense", "gram", "lanczos" or "block"."""
    p = op.p
    if p <= (DENSE_THRESHOLD if dense_threshold is None else dense_threshold):
        return "dense"
    if isinstance(op, WeightedCovOperator):
        if op.n_rows <= min(p, 2 * q + 10):
            return "gram"
        if 2 * op.n_rows <= p:
            return "lanczos"
    return "block"


def top_eigenpairs(
    op,
    q: int,
    *,
    scale: np.ndarray | None = None,
    tol: float = 1e-8,
    dense_threshold: int | None = None,
    v0: np.ndarray | None = None,
) -> EigPairs:
    """Leading q eigenpairs of D A D, A = ``op`` symmetric PSD, D = diag(scale).

    With ``scale`` None, D is the identity.  At p <= ``dense_threshold``
    (DENSE_THRESHOLD, read at call time, when not given) the scaled
    operator is materialized and solved by LAPACK.  Above it, a
    ``WeightedCovOperator`` with n_s = ``n_rows`` rows of non-zero weight
    takes one of two routes.  With n_s <= m = min(p, 2q + 10) it is
    solved exactly on its n_s x n_s Gram matrix, which ignores ``v0`` and
    ``tol``; eigenvalues at rounding level come back as 0, with vectors
    that complete the others orthonormally.  With m < n_s <= p / 2 it runs
    a thick-restart Lanczos on m vectors (kept, though the Gram solve
    could take this range too, while the benchmark's self-tests require its
    kernel).  Every other operator runs a warm block Rayleigh-Ritz
    subspace iteration on min(p - 1, 2q + 10) columns.  The two iterative
    solvers stop when every requested pair has
    ||A y_j - theta_j y_j|| <= tol * max(1, theta_j); the floor of tol
    protects near-null directions of rank-deficient scatters.  ``v0`` may
    be a single start vector or a p x j warm-start subspace (typically the
    previous solve's vectors, or whitened loadings); both iterative solvers
    orthonormalize it with one QR, the Lanczos keeping at most m - 1 of its
    columns and the block solver padding it with random columns.  It need
    not be orthonormal or have full rank.  Values come back descending, and
    the vectors as an orthonormal basis with no sign convention.

    Raises NoConvergence when MAX_RESTARTS restarts (block iterations) do
    not reach the tolerance, which the Gram solve never does, InvalidRank
    unless 1 <= q < p, and ValueError unless ``scale`` has length p.
    Every random column (padding, a cold start, a breakdown reseed, a
    null-space completion) comes from one generator seeded with SEED per
    solve, so a solve is deterministic.
    """
    p = op.p
    if not 1 <= q < p:
        raise InvalidRank(f"need 1 <= q < p, got q={q}, p={p}")
    scale = np.ones(p) if scale is None else np.asarray(scale, np.float64)
    if scale.shape != (p,):
        raise ValueError(f"scale must have length p = {p}")
    solver = route(op, q, dense_threshold)
    if solver == "dense":
        return _dense_eigpairs(op, scale, q)
    if solver == "gram":
        return _gram_eigpairs(op, scale, q)
    rng = np.random.Generator(np.random.Philox(SEED))
    if solver == "lanczos":
        return _lanczos_eigpairs(op, scale, q, tol, v0, rng)
    return _block_eigpairs(op, scale, q, tol, v0, rng)
