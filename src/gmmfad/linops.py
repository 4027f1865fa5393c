"""Matrix-free weighted-covariance operators and their leading eigenpairs.

The CM step never needs the weighted scatter matrix itself, only its action
on vectors and its diagonal.  For responsibilities w and weighted mean mu,

    S v = (1/sum(w)) * sum_i w_i (y_i - mu) <y_i - mu, v>
        = (1/sum(w)) * [ Y^T (w * c) - (sum_i w_i c_i) mu ],   c = Y v - (mu.v) 1,

two GEMV-shaped passes over the data and a rank-one correction, O(np) time
and O(n + p) extra memory.  The whitened operator D S D with
D = diag(psi^{-1/2}) composes the same way.

Below ``dense_threshold`` the operator is materialized and handed to
LAPACK.  Above it there are two regimes, chosen by the shape of the data
behind a scatter operator and nothing else:

* n > p: a warm-started block Rayleigh-Ritz subspace iteration (Halko,
  Martinsson & Tropp 2011).  Each iteration applies the operator to a whole
  p x b block in one GEMM-shaped kernel call, so the cost per column is
  BLAS-3 rather than a Python-level loop of GEMVs.
* n <= p, and any operator that is not a weighted scatter: a thick-restart
  Lanczos (Wu & Simon 2000) with full reorthogonalization.  Restarts keep a
  few Ritz vectors beyond the requested q and continue along the dominant
  residual direction.

Both take a warm-start subspace, which the uniqueness solver uses to make
successive eigensolves nearly free, and both stop on the same true-residual
test.

A scoped allocation guard lets callers assert that nothing in a region
materializes a dense matrix wider than a given limit; the only routines that
can build one funnel through the guard check.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from . import _kernels

DENSE_THRESHOLD = 64


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


class WeightedCovOperator:
    """Weighted scatter of the data about a center, applied matrix-free.

    Parameters
    ----------
    values : (n, p) array
        Data rows.  Stored C-contiguous float64.
    weights : (n,) array
        Non-negative responsibilities.  Their sum must exceed 1e-10 * n,
        otherwise the cluster is considered empty and DegenerateWeights is
        raised for the engine to handle.
    center : (p,) array, optional
        Defaults to the weighted mean of the rows.
    """

    def __init__(self, values, weights, center=None):
        y = np.ascontiguousarray(values, dtype=np.float64)
        w = np.ascontiguousarray(weights, dtype=np.float64)
        if y.ndim != 2 or w.ndim != 1 or w.shape[0] != y.shape[0]:
            raise ValueError("values must be (n, p) and weights (n,)")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        n = y.shape[0]
        if float(np.sum(w)) < 1e-10 * n:
            raise DegenerateWeights(
                f"weight sum {float(np.sum(w)):.3e} below 1e-10 * n"
            )
        self._y = y
        self._w = w
        if center is None:
            weight_sum, mean, m2 = _kernels.weighted_stats(y, w)
            self.center = mean
            self._diag = np.maximum(m2 - mean * mean, 0.0)
            self.weight_sum = float(weight_sum)
        else:
            self.center = np.ascontiguousarray(center, dtype=np.float64)
            if self.center.shape != (y.shape[1],):
                raise ValueError("center must have length p")
            self._diag = None
            self.weight_sum = float(np.sum(w))
        self._dense = None

    @property
    def p(self) -> int:
        return self._y.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.p, self.p)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.ascontiguousarray(v, dtype=np.float64)
        if v.shape != (self.p,):
            raise ValueError(f"expected a length-{self.p} vector")
        return _kernels.wcov_matvec(self._y, self._w, self.center, v, self.weight_sum)

    def diag(self) -> np.ndarray:
        if self._diag is None:
            _, _, m2 = _kernels.weighted_stats(self._y, self._w)
            centered = m2 - 2.0 * self.center * ((self._w @ self._y) / self.weight_sum)
            self._diag = np.maximum(centered + self.center**2, 0.0)
        return self._diag

    def to_dense(self) -> np.ndarray:
        """Materialize the p x p scatter; small p only, guard-checked."""
        _check_dense_allowed(self.p)
        if self._dense is None:
            z = self._y - self.center
            self._dense = (z.T * self._w) @ z / self.weight_sum
        return self._dense


class ScaledCovOperator:
    """The whitened scatter D S D, D = diag(scale), matrix-free."""

    def __init__(self, base, scale):
        self.base = base
        self.scale = np.ascontiguousarray(scale, dtype=np.float64)
        if self.scale.shape != (base.p,):
            raise ValueError("scale must have length p")

    @property
    def p(self) -> int:
        return self.base.p

    @property
    def shape(self) -> tuple[int, int]:
        return (self.p, self.p)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.scale * self.base.matvec(self.scale * v)

    def diag(self) -> np.ndarray:
        return self.scale**2 * self.base.diag()

    def to_dense(self) -> np.ndarray:
        dense = self.base.to_dense()
        return self.scale[:, None] * dense * self.scale[None, :]


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

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def matvec(self, v):
        return self.matrix @ v

    def diag(self):
        return np.diag(self.matrix).copy()

    def to_dense(self):
        return self.matrix


def dense_weighted_scatter(values, weights, center) -> np.ndarray:
    """Dense weighted scatter about a center; p x p, guard-checked."""
    values = np.asarray(values, dtype=np.float64)
    _check_dense_allowed(values.shape[1])
    w = np.asarray(weights, dtype=np.float64)
    weight_sum = float(np.sum(w))
    if weight_sum < 1e-10 * values.shape[0]:
        raise DegenerateWeights(f"weight sum {weight_sum:.3e} below 1e-10 * n")
    z = values - np.asarray(center, dtype=np.float64)
    return (z.T * w) @ z / weight_sum


def apply(op, v: np.ndarray) -> np.ndarray:
    """Apply an operator to a vector with a dimension check."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (op.shape[0],):
        raise ValueError(f"operator is {op.shape}, vector has shape {v.shape}")
    return op.matvec(v)


def operator_to_dense(op) -> np.ndarray:
    """Densify an operator (guard-checked); prefers a native to_dense."""
    p = op.shape[0]
    _check_dense_allowed(p)
    if hasattr(op, "to_dense"):
        return np.asarray(op.to_dense(), dtype=np.float64)
    out = np.empty((p, p))
    e = np.zeros(p)
    for j in range(p):
        e[j] = 1.0
        out[:, j] = op.matvec(e)
        e[j] = 0.0
    return 0.5 * (out + out.T)


@dataclass(frozen=True)
class EigPairs:
    """Leading eigenvalues (descending) and matching orthonormal vectors."""

    values: np.ndarray
    vectors: np.ndarray


def _canonical_signs(vectors: np.ndarray) -> np.ndarray:
    # make the largest-magnitude coordinate of each column non-negative
    if vectors.size == 0:
        return vectors
    idx = np.argmax(np.abs(vectors), axis=0)
    flip = vectors[idx, np.arange(vectors.shape[1])] < 0
    if np.any(flip):
        vectors = vectors.copy()
        vectors[:, flip] *= -1.0
    return vectors


class _LazyRng:
    """Defers generator construction; most Lanczos calls never draw."""

    __slots__ = ("_seed", "_gen")

    def __init__(self, seed):
        self._seed = seed
        self._gen = None

    def standard_normal(self, size):
        if self._gen is None:
            self._gen = np.random.default_rng(np.random.Philox(self._seed))
        return self._gen.standard_normal(size)


def _orthonormalize_against(v, basis, ncols, rng):
    """Project v off the first ncols of basis twice; random restart on breakdown."""
    for _ in range(3):
        scale = math.sqrt(float(v @ v))
        if scale <= _kernels.BREAKDOWN_ABS:
            v = rng.standard_normal(v.shape[0])
            scale = math.sqrt(float(v @ v))
        v = v / scale
        for _ in range(2):
            if ncols:
                v -= basis[:, :ncols] @ (basis[:, :ncols].T @ v)
        nrm = math.sqrt(float(v @ v))
        if nrm > _kernels.BREAKDOWN_REL:
            return v / nrm
        v = rng.standard_normal(v.shape[0])
    raise NoConvergence("could not extend the Krylov basis")


def _scatter_parts(op):
    """(WeightedCovOperator, scale) behind a scatter operator, else None."""
    if isinstance(op, WeightedCovOperator):
        return op, np.ones(op.p)
    if isinstance(op, ScaledCovOperator) and isinstance(
        op.base, WeightedCovOperator
    ):
        return op.base, op.scale
    return None


def _block_images(op, block):
    """A @ block; one GEMM-shaped kernel call for the scatter operators."""
    parts = _scatter_parts(op)
    if parts is None:
        return np.column_stack([op.matvec(col) for col in block.T])
    base, scale = parts
    return _kernels.wcov_matmat(
        base._y, base._w, base.center, scale, block, base.weight_sum
    )


def _fused_grow_fn(op):
    """Kernel-backed basis growth for the scatter operators, else None."""
    parts = _scatter_parts(op)
    if parts is None:
        return None
    base, scale = parts

    def grow(basis, images, start, next_dir):
        return _kernels.lanczos_grow(
            base._y, base._w, base.center, scale, base.weight_sum,
            basis, images, start, np.ascontiguousarray(next_dir, np.float64),
        )

    return grow


def _grow_basis(op, fused, basis, images, ncols, next_dir, rng):
    """Fill basis/images up to full width; NoConvergence on stalled growth."""
    m = basis.shape[1]
    attempts = 0
    while ncols < m:
        if fused is not None:
            filled = int(fused(basis, images, ncols, next_dir))
            if filled > ncols:
                attempts = 0
            ncols = filled
            if ncols < m:  # breakdown: the Krylov space closed, reseed
                attempts += 1
                if attempts >= 3:
                    raise NoConvergence("could not extend the Krylov basis")
                next_dir = rng.standard_normal(basis.shape[0])
        else:
            vec = _orthonormalize_against(next_dir, basis, ncols, rng)
            basis[:, ncols] = vec
            images[:, ncols] = op.matvec(vec)
            next_dir = images[:, ncols].copy()
            ncols += 1
    return ncols


def _dense_eigpairs(op, q: int) -> EigPairs:
    g = operator_to_dense(op)
    vals, vecs = np.linalg.eigh(g)
    order = np.argsort(vals)[::-1][:q]
    return EigPairs(
        values=np.ascontiguousarray(vals[order]),
        vectors=_canonical_signs(np.ascontiguousarray(vecs[:, order])),
    )


def _warm_block(v0, p: int) -> np.ndarray:
    # a start vector or a p x j subspace, as p x j columns
    v0 = np.atleast_2d(np.asarray(v0, dtype=np.float64))
    return v0.T if v0.shape[0] != p else v0


def _block_eigpairs(op, q, tol, max_restarts, v0, rng) -> EigPairs:
    """Warm block Rayleigh-Ritz subspace iteration, one GEMM product a step.

    The b = min(p - 1, 2q + 10) columns start from ``v0`` padded with random
    columns.  Each iteration applies the operator to the whole block, solves
    the b x b Rayleigh-Ritz problem, tests the true residuals of the leading
    q Ritz pairs and, short of convergence, moves the block to qr(A V S).
    """
    p = op.shape[0]
    b = min(p - 1, 2 * q + 10)
    start = np.empty((p, b))
    j = 0
    if v0 is not None:
        warm = _warm_block(v0, p)[:, :b]
        j = warm.shape[1]
        start[:, :j] = warm
    if j < b:
        start[:, j:] = rng.standard_normal((p, b - j))
    basis = np.linalg.qr(start)[0]
    res_norms = None
    for _ in range(max_restarts):
        images = _block_images(op, basis)
        h = basis.T @ images
        theta, s = np.linalg.eigh(0.5 * (h + h.T))
        theta = theta[::-1]
        s = s[:, ::-1]
        ritz_images = images @ s
        ritz = basis @ s[:, :q]
        res_norms = np.linalg.norm(ritz_images[:, :q] - ritz * theta[:q], axis=0)
        if bool(np.all(res_norms <= tol * max(1.0, abs(theta[0])))):
            return EigPairs(
                values=np.ascontiguousarray(theta[:q]),
                vectors=_canonical_signs(np.ascontiguousarray(ritz)),
            )
        basis = np.linalg.qr(ritz_images)[0]
    raise NoConvergence(
        f"block subspace iteration did not converge in {max_restarts} iterations",
        n_restarts=max_restarts,
        residuals=res_norms,
    )


def top_eigenpairs(
    op,
    q: int,
    *,
    tol: float = 1e-8,
    max_restarts: int = 200,
    dense_threshold: int = DENSE_THRESHOLD,
    v0: np.ndarray | None = None,
    seed: int = 0,
) -> EigPairs:
    """Leading q eigenpairs of a symmetric PSD operator.

    Below ``dense_threshold`` the operator is materialized and solved
    densely.  Above it, a scatter operator (``WeightedCovOperator``, or a
    ``ScaledCovOperator`` over one) whose data has more rows than columns
    (n > p) goes to a warm block Rayleigh-Ritz subspace iteration on a block
    of min(p - 1, 2q + 10) columns, one GEMM-shaped product per iteration.
    Every other operator, and n <= p data, runs a thick-restart Lanczos with
    a basis of min(p, 2q + 10) vectors and full reorthogonalization.  Both
    check true residuals ||A y_j - theta_j y_j|| <= tol * max(1, theta_1)
    on every requested pair (theta_1 sets the operator scale; an absolute
    floor of tol protects near-null directions of rank-deficient scatters).
    ``v0`` may be a single start vector or a p x j warm-start subspace
    (typically the previous solve's Ritz vectors).

    Raises NoConvergence when ``max_restarts`` restarts (block iterations
    on the n > p path) do not reach the tolerance, and InvalidRank unless
    1 <= q < p.
    """
    p = op.shape[0]
    if not 1 <= q < p:
        raise InvalidRank(f"need 1 <= q < p, got q={q}, p={p}")
    if p <= dense_threshold:
        return _dense_eigpairs(op, q)

    rng = _LazyRng(seed)  # Lanczos draws only on cold starts and breakdowns
    parts = _scatter_parts(op)
    if parts is not None and parts[0]._y.shape[0] > p:
        return _block_eigpairs(op, q, tol, max_restarts, v0, rng)

    m = min(p, 2 * q + 10)
    keep = min(q + 3, m - 2)
    # F-order keeps the column slices used by every projection contiguous
    basis = np.empty((p, m), order="F")
    images = np.empty((p, m), order="F")

    # seed the basis: warm subspace if given, else a single start vector
    ncols = 0
    if v0 is not None:
        block = _warm_block(v0, p)[:, : m - 1]
        qf, rf = np.linalg.qr(block)
        full_rank = bool(
            np.all(np.abs(np.diag(rf)) > 1e-8 * max(1.0, abs(rf[0, 0])))
        )
        if full_rank and qf.shape[1]:
            ncols = qf.shape[1]
            basis[:, :ncols] = qf
        else:  # degenerate warm block: orthonormalize one column at a time
            for j in range(block.shape[1]):
                basis[:, ncols] = _orthonormalize_against(
                    block[:, j].copy(), basis, ncols, rng
                )
                ncols += 1
        if ncols:
            images[:, :ncols] = _block_images(op, basis[:, :ncols])
    if ncols == 0:
        vec = _orthonormalize_against(rng.standard_normal(p), basis, 0, rng)
        basis[:, 0] = vec
        images[:, 0] = op.matvec(vec)
        ncols = 1

    fused = _fused_grow_fn(op)
    next_dir = images[:, ncols - 1].copy()
    last_res = None
    for _ in range(max_restarts):
        # grow the basis to m columns along the Krylov/residual directions
        ncols = _grow_basis(op, fused, basis, images, ncols, next_dir, rng)

        # Rayleigh-Ritz on the full basis; h is tridiagonal-plus-arrowhead in
        # exact arithmetic but is formed whole since reorthogonalization is full
        h = basis.T @ images
        h = 0.5 * (h + h.T)
        theta, s = np.linalg.eigh(h)
        order = np.argsort(theta)[::-1]
        theta = theta[order]
        s = s[:, order]

        ritz = basis @ s[:, : max(q, keep)]
        ritz_images = images @ s[:, : max(q, keep)]
        resid = ritz_images[:, :q] - ritz[:, :q] * theta[:q]
        res_norms = np.linalg.norm(resid, axis=0)
        last_res = res_norms
        scale = max(1.0, abs(theta[0]))
        ok = res_norms <= tol * scale
        if bool(np.all(ok)):
            vecs = _canonical_signs(np.ascontiguousarray(ritz[:, :q]))
            return EigPairs(values=np.ascontiguousarray(theta[:q]), vectors=vecs)

        # thick restart: keep leading Ritz vectors, continue along the first
        # unconverged residual.  A(kq) = A(ritz R^{-1}) = ritz_images R^{-1},
        # so the kept images come from a triangular solve, not fresh matvecs;
        # R is near-identity because Ritz vectors are already orthonormal.
        kq, kr = np.linalg.qr(ritz[:, :keep])
        if np.all(np.abs(np.diag(kr)) > 1e-10):
            basis[:, :keep] = kq
            images[:, :keep] = solve_triangular(
                kr.T, ritz_images[:, :keep].T, lower=True
            ).T
        else:  # defensive: rebuild images directly on a degenerate restart
            basis[:, :keep] = kq
            images[:, :keep] = _block_images(op, kq)
        ncols = keep
        first_bad = int(np.argmin(ok))
        next_dir = resid[:, first_bad].copy()

    raise NoConvergence(
        f"Lanczos did not converge in {max_restarts} restarts",
        n_restarts=max_restarts,
        residuals=last_res,
    )
