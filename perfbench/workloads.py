"""The benchmark's workloads: fixed synthetic data sets and the call on each.

Every workload draws one data set from ``simgen`` with fixed seeds and
calls one public entry point of gmmfad on it: ``fit`` on wide_p, mid_np
and tall_n, ``select_per_cluster_q`` on select_grid.  The benchmark seed
only permutes the features.  A fit's likelihood, its optimum and its work
do not depend on feature order, so seeds give different inputs with the
same expected cost.  The data are not redrawn per seed: on wide_p a
redraw moves one fit between 5 and 12 s, because whether a random start
survives the short runs depends on the draw, and no median over the few
fits that fit in a run is steady under that.

The sizes keep a run near 15-40 s on a 2-core machine; the one-call
tracemalloc pass for the peak memory costs 2x (wide_p) to 4x
(select_grid) a plain call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import gmmfad
from gmmfad import DataMatrix, FitConfig, SearchGrid, SimSpec, linops

# every call runs under this guard: no dense d x d assembly above d = 64
DENSE_GUARD = 64
MIN_ARI = 0.85
ALLOCATOR_WARM_BYTES = 16 * 2**20


@dataclass(frozen=True)
class Workload:
    """One data set and the public call made on it."""

    name: str
    why: str
    spec: SimSpec
    sample_seed: int
    config: FitConfig
    # non-empty for the selection workload: the grid handed to
    # select_per_cluster_q, and the (K, q vector) it must choose
    k_values: tuple[int, ...] = ()
    q_max: int = 0
    expect: tuple | None = None

    @property
    def call_name(self) -> str:
        return "select_s" if self.k_values else "fit_s"

    def make_inputs(self, seed: int) -> DataMatrix:
        """The workload's data set with its features permuted by ``seed``."""
        data = gmmfad.sample_dataset(
            gmmfad.draw_truth(self.spec), self.spec.n, seed=self.sample_seed
        )
        perm = np.random.Generator(np.random.Philox(seed)).permutation(data.p)
        return DataMatrix(
            values=np.ascontiguousarray(data.values[:, perm]), labels=data.labels
        )

    def call(self, data: DataMatrix):
        """The timed operation; returns the fit report it produced."""
        with linops.forbid_dense_above(DENSE_GUARD):
            if self.k_values:
                grid = SearchGrid(
                    k_values=self.k_values, q_max=self.q_max, fit_config=self.config
                )
                report, _ = gmmfad.select_per_cluster_q(data, grid, threads=1)
                return report
            return gmmfad.fit(data, self.config, threads=1)

    def check(self, report, data: DataMatrix) -> tuple[list[str], dict]:
        """(failed checks, quality metrics) for one call's report."""
        failures = []
        loglik = report.loglik
        if not math.isfinite(loglik):
            failures.append(f"non-finite log-likelihood {loglik}")
        steps = np.diff(report.loglik_trace)
        if steps.size and float(steps.min()) < -1e-8:
            failures.append("log-likelihood decreased")
        ari = gmmfad.adjusted_rand_index(report.hard_assignment, data.labels)
        if self.expect is not None:
            chosen = (report.model.n_components, report.model.factor_vector)
            if chosen != self.expect:
                failures.append(f"selected {chosen}, expected {self.expect}")
        elif ari < MIN_ARI:
            failures.append(f"ARI {ari:.3f} below {MIN_ARI}")
        quality = {
            "nll_per_obs": -loglik / data.n,
            "bic_per_obs": report.bic / data.n,
            "ari": ari,
        }
        return failures, quality


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wide_p",
            why="62x4026 lymphoma-shaped twin, n << p: bound by the Lanczos "
                "eigensolver; 4 of 5 starts empty a cluster",
            spec=SimSpec(n=62, p=4026, n_components=3, factor_spec=(10, 9, 8),
                         separation=6.0, seed=10),
            sample_seed=11,
            config=FitConfig(n_components=3, factor_spec=(10, 9, 8), tol=1e-5,
                             max_iter=200, n_random_starts=4, n_finalists=2,
                             seed=0),
        ),
        Workload(
            name="mid_np",
            why="1000x300, n > p with both large: the side of an eigen-backend "
                "choice where an n x n Gram solve does not pay",
            spec=SimSpec(n=1000, p=300, n_components=2, factor_spec=5,
                         separation=3.0, seed=20),
            sample_seed=21,
            config=FitConfig(n_components=2, factor_spec=5, tol=1e-5,
                             max_iter=200, n_random_starts=2, n_finalists=2,
                             seed=0),
        ),
        Workload(
            name="tall_n",
            why="20000x20, p <= 64: bound by the k-means start and the E-step; "
                "never calls the eigensolver, so an eigensolver change reads no change",
            spec=SimSpec(n=20000, p=20, n_components=3, factor_spec=2,
                         separation=3.0, seed=30),
            sample_seed=31,
            config=FitConfig(n_components=3, factor_spec=2, tol=1e-5,
                             max_iter=200, n_random_starts=2, n_finalists=2,
                             seed=0),
        ),
        Workload(
            name="select_grid",
            why="300x10 paper simulation, K<=3, q<=2 grid plus per-cluster "
                "descent: many tiny warm-started fits, per-call overhead shows",
            spec=SimSpec(n=300, p=10, n_components=2, factor_spec=2,
                         separation=3.0, seed=0),
            sample_seed=1,
            config=FitConfig(n_components=2, factor_spec=2, tol=1e-5,
                             max_iter=150, n_random_starts=8, n_finalists=2,
                             seed=0),
            k_values=(1, 2, 3),
            q_max=2,
            expect=(2, (2, 2)),
        ),
    )
}


def warm_up() -> None:
    """Small fits that reach every code path the workloads time.

    A 30x120 fit goes through the Lanczos eigensolver and its kernels, and
    a 60x6 selection through the dense path, the grid and warm refits.

    It also frees one 16 MiB block.  glibc raises its mmap threshold to the
    size of the largest mapped block freed so far (up to 32 MiB), and
    without this some processes kept the 128 KiB starting value and mapped
    and faulted in every large array anew: on tall_n that was 3 s of system
    time per run and 1.8 s fits instead of 1.2 s.
    """
    np.empty(ALLOCATOR_WARM_BYTES // 8)
    wide = gmmfad.sample_dataset(
        gmmfad.draw_truth(SimSpec(n=30, p=120, n_components=2, factor_spec=2,
                                  separation=4.0, seed=1)), 30, seed=2)
    small = gmmfad.sample_dataset(
        gmmfad.draw_truth(SimSpec(n=60, p=6, n_components=2, factor_spec=1,
                                  separation=4.0, seed=3)), 60, seed=4)
    config = FitConfig(n_components=2, factor_spec=2, tol=1e-4, max_iter=5,
                       n_random_starts=1, n_finalists=1, seed=0)
    with linops.forbid_dense_above(DENSE_GUARD):
        gmmfad.fit(wide, config)
        grid = SearchGrid(k_values=(1, 2), q_max=1, fit_config=FitConfig(
            n_components=2, factor_spec=1, tol=1e-4, max_iter=5,
            n_random_starts=1, n_finalists=1, seed=0))
        gmmfad.select_per_cluster_q(small, grid)
