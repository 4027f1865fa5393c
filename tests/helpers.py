"""Independent oracles shared across test modules.

These helpers deliberately use plain dense numpy formulas (loops where that
is the clearest statement of the definition) so that the matrix-free
production code is checked against an implementation that shares no code
path with it.
"""

import tracemalloc

import numpy as np

from gmmfad.model import ComponentParams, MixtureModel


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.Philox(seed))


def random_spd(p: int, rng, *, eig_low=0.1, eig_high=50.0, gap_at=None,
               gap_factor=2.0) -> np.ndarray:
    """Dense SPD matrix with spectrum in [eig_low, eig_high].

    With ``gap_at=q`` the spectrum is forced to have a multiplicative gap of
    ``gap_factor`` between eigenvalue q and q+1 so subspace angles against a
    dense solver are well defined.
    """
    a = rng.standard_normal((p, p))
    basis, _ = np.linalg.qr(a)
    vals = np.sort(rng.uniform(eig_low, eig_high, size=p))[::-1]
    if gap_at is not None and 0 < gap_at < p:
        target = vals[gap_at - 1] / gap_factor
        if vals[gap_at] > target:
            vals[gap_at:] *= target / vals[gap_at]
    return (basis * vals) @ basis.T


def random_component(p: int, q: int, rng, *, weight=1.0) -> ComponentParams:
    return ComponentParams(
        weight=weight,
        mean=rng.standard_normal(p),
        loadings=rng.standard_normal((p, q)),
        uniquenesses=rng.uniform(0.2, 0.8, size=p),
    )


def random_mixture(p: int, qs, rng) -> MixtureModel:
    k = len(qs)
    raw = rng.uniform(0.5, 1.5, size=k)
    weights = raw / raw.sum()
    comps = [random_component(p, q, rng, weight=w) for q, w in zip(qs, weights)]
    # nudge the last weight so fsum of the tuple is exactly 1
    total = sum(c.weight for c in comps[:-1])
    comps[-1] = ComponentParams(
        weight=1.0 - total,
        mean=comps[-1].mean,
        loadings=comps[-1].loadings,
        uniquenesses=comps[-1].uniquenesses,
    )
    return MixtureModel(components=tuple(comps))


def dense_covariance(component: ComponentParams) -> np.ndarray:
    lam = np.atleast_2d(component.loadings)
    if component.n_factors == 0:
        lam = np.zeros((component.mean.size, 0))
    return lam @ lam.T + np.diag(component.uniquenesses)


def dense_log_density(y: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    """Gaussian log-density via explicit solve + slogdet (no low-rank tricks)."""
    p = mean.size
    diff = y - mean
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0
    quad = diff @ np.linalg.solve(cov, diff)
    return float(-0.5 * (p * np.log(2.0 * np.pi) + logdet + quad))


def dense_weighted_cov(y: np.ndarray, w: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Literal sum_i w_i (y_i - c)(y_i - c)^T / sum_i w_i, as a loop."""
    p = y.shape[1]
    out = np.zeros((p, p))
    for i in range(y.shape[0]):
        d = y[i] - center
        out += w[i] * np.outer(d, d)
    return out / w.sum()


def subspace_angle(u: np.ndarray, v: np.ndarray) -> float:
    """Largest principal angle (radians) between the column spans of u, v."""
    qu, _ = np.linalg.qr(u)
    qv, _ = np.linalg.qr(v)
    sv = np.linalg.svd(qu.T @ qv, compute_uv=False)
    return float(np.arccos(np.clip(sv.min(), -1.0, 1.0)))


def small_dataset(seed=0, n=300, p=10, k=2, q=2, separation=2.5):
    """High-separation synthetic MFA data for engine tests."""
    from gmmfad.simgen import SimSpec, draw_truth, sample_dataset

    spec = SimSpec(n=n, p=p, n_components=k, factor_spec=q,
                   separation=separation, seed=seed)
    truth = draw_truth(spec)
    data = sample_dataset(truth, n, seed=seed + 1)
    return data, truth


def count_calls(monkeypatch, owner, name) -> list:
    """Wrap ``owner.name`` for the test; the returned list grows per call."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def traced_peak(fn) -> int:
    """Bytes ``fn()`` held at its peak, above what was allocated at entry."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return peak - base


def kmeans_labels_masked(y, K, rng, n_restarts=10, max_iter=100):
    """Lloyd's k-means with each centre the mean of its masked rows.

    Consumes ``rng`` as the engine's k-means start does.  Returns the best
    restart's labels and how many centre updates met an empty cluster
    (whose centre then stays where it was).
    """
    n = y.shape[0]
    std = y.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    z = (y - y.mean(axis=0)) / std
    zsq = np.einsum("ij,ij->i", z, z)
    best_labels, best_inertia, empty_updates = None, np.inf, 0
    for _ in range(n_restarts):
        centers = z[rng.choice(n, size=K, replace=False)].copy()
        labels = None
        for _ in range(max_iter):
            d2 = zsq[:, None] - 2.0 * (z @ centers.T) + np.einsum(
                "ij,ij->i", centers, centers
            )
            new_labels = np.argmin(d2, axis=1)
            if labels is not None and np.array_equal(new_labels, labels):
                break
            labels = new_labels
            for k in range(K):
                mask = labels == k
                if np.any(mask):
                    centers[k] = z[mask].mean(axis=0)
                else:
                    empty_updates += 1
        inertia = float(np.take_along_axis(d2, labels[:, None], 1).sum())
        if inertia < best_inertia:
            best_inertia, best_labels = inertia, labels
    return best_labels, empty_updates
