"""Model selection over (K, q) by BIC, common-q grids and per-cluster descent.

BIC is -2 loglik + d log n with d the free parameter count; lower is
better.  Ties within 1e-6 break toward fewer parameters, then smaller K,
then the lexicographically smaller factor vector, so selections are
deterministic under grid reordering.

The per-cluster search wraps the common-q grid: for each K it takes that
K's best common-q fit and greedily varies one component's factor count at a
time (plus/minus one, within bounds), refitting warm-started from the
incumbent, until no single move improves BIC; it refits no cell the grid
fitted.  Warm starts reuse the incumbent's weights, means and uniquenesses;
the changed component's loadings are zero-padded or truncated, which leaves
the first E-step's covariances intact in the padded directions.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .ecm import FIT_FAILURES, AllStartsFailed, FitConfig, fit
from .model import (
    DataMatrix,
    FitReport,
    MixtureModel,
    free_param_count,
    max_admissible_q,
)

BIC_TIE_TOL = 1e-6

BIC_TABLE_COLUMNS = (
    "K", "q_spec", "loglik", "n_params", "bic", "n_iter", "seconds", "status"
)


@dataclass(frozen=True)
class SearchGrid:
    """The (K, q) cells to visit and the fit settings used in each."""

    k_values: tuple[int, ...]
    q_max: int
    fit_config: FitConfig

    def __post_init__(self):
        object.__setattr__(self, "k_values", tuple(int(k) for k in self.k_values))
        if not self.k_values or any(k < 1 for k in self.k_values):
            raise ValueError("k_values must be positive and non-empty")
        if self.q_max < 0:
            raise ValueError("q_max must be non-negative")

    def q_cap(self, p: int) -> int:
        """The largest factor count searched at dimension p."""
        return min(self.q_max, max(max_admissible_q(p), 0))


@dataclass(frozen=True)
class BicRow:
    """One fitted cell of the selection table.

    ``status`` is ``"ok"`` for a fitted cell and otherwise the class name of
    the exception that failed it.
    """

    K: int
    q_spec: tuple[int, ...]
    loglik: float
    n_params: int
    bic: float
    n_iter: int
    seconds: float
    status: str = "ok"


def _row_from_report(report: FitReport, seconds: float) -> BicRow:
    return BicRow(
        K=report.model.n_components,
        q_spec=report.model.factor_vector,
        loglik=report.loglik,
        n_params=free_param_count(report.model),
        bic=report.bic,
        n_iter=report.n_iter,
        seconds=seconds,
    )


def _better(a: BicRow, b: BicRow) -> bool:
    """True when a beats b under BIC with the deterministic tie-breaks."""
    if not math.isfinite(a.bic):
        return False
    if not math.isfinite(b.bic):
        return True
    if abs(a.bic - b.bic) > BIC_TIE_TOL:
        return a.bic < b.bic
    if a.n_params != b.n_params:
        return a.n_params < b.n_params
    if a.K != b.K:
        return a.K < b.K
    return a.q_spec < b.q_spec


def _run_cell(data, config, threads, initial_model=None):
    t0 = time.perf_counter()
    try:
        config.validate_for(data)
    except ValueError as exc:  # an inadmissible cell (K > n, q too large)
        status = type(exc).__name__
    else:
        # a warm refit skips the start protocol, so it meets these failures
        # here; any other exception is a defect and propagates
        try:
            report = fit(data, config, initial_model=initial_model, threads=threads)
        except FIT_FAILURES as exc:
            status = type(exc).__name__
        else:
            return report, _row_from_report(report, time.perf_counter() - t0)
    row = BicRow(
        K=config.n_components,
        q_spec=config.factor_vector(),
        loglik=float("-inf"),
        n_params=0,
        bic=float("inf"),
        n_iter=0,
        seconds=time.perf_counter() - t0,
        status=status,
    )
    return None, row


def _grid_search(data, grid, threads):
    """Fit every common-q cell; return (table rows, {K: best (report, row)})."""
    rows: list[BicRow] = []
    per_k: dict[int, tuple] = {}
    common_qs = tuple(range(1, grid.q_cap(data.p) + 1)) or (0,)
    for K in grid.k_values:
        for q in common_qs:
            config = replace(grid.fit_config, n_components=K, factor_spec=q)
            report, row = _run_cell(data, config, threads)
            rows.append(row)
            if report is None:
                continue
            if K not in per_k or _better(row, per_k[K][1]):
                per_k[K] = (report, row)
    if not per_k:
        raise AllStartsFailed("no grid cell produced a usable fit")
    return rows, per_k


def _best_of(per_k) -> tuple:
    """The best (report, row) of the per-K winners, visited in K order."""
    best = None
    for cand in per_k.values():
        if best is None or _better(cand[1], best[1]):
            best = cand
    return best


def select_common_q(data: DataMatrix, grid: SearchGrid, *, threads: int = 1):
    """Fit every (K, common q) cell; return (best report, table rows).

    Cells are visited in ascending (K, q) order; a failed cell records an
    infinite-BIC row whose status names the exception, and never wins.
    Raises AllStartsFailed when no cell produced a fit at all.
    """
    rows, per_k = _grid_search(data, grid, threads)
    return _best_of(per_k)[0], rows


def _adapt_factor_dim(model: MixtureModel, k: int, new_q: int) -> MixtureModel:
    """Pad or truncate one component's loadings to a new factor count."""
    comps = list(model.components)
    comp = comps[k]
    lam = comp.loadings
    if new_q < comp.n_factors:
        lam = lam[:, :new_q]
    elif new_q > comp.n_factors:
        lam = np.hstack([lam, np.zeros((comp.p, new_q - comp.n_factors))])
    comps[k] = replace(comp, loadings=lam)
    return MixtureModel(components=tuple(comps))


def select_per_cluster_q(data: DataMatrix, grid: SearchGrid, *, threads: int = 1):
    """Greedy per-component factor-count search seeded by the common-q winner.

    For each K the descent starts at that K's best common-q cell and, per
    sweep, tries every single-component move q_k -> q_k +/- 1 within
    [0, q_max], refitting warm-started from the incumbent model; the best
    improving move is taken until none improves; a cell the grid visited is
    not refitted.  Returns (best report, one table row per visited cell).
    """
    rows, per_k = _grid_search(data, grid, threads)
    overall_report, overall_row = _best_of(per_k)
    cap = grid.q_cap(data.p)
    for K, (incumbent, incumbent_row) in per_k.items():
        visited = {row.q_spec for row in rows if row.K == K}
        improved = True
        while improved:
            improved = False
            sweep_best = None
            qvec = incumbent.model.factor_vector
            for k in range(K):
                for delta in (+1, -1):
                    cand = list(qvec)
                    cand[k] += delta
                    if not 0 <= cand[k] <= cap:
                        continue
                    cand_t = tuple(cand)
                    if cand_t in visited:
                        continue
                    visited.add(cand_t)
                    config = replace(
                        grid.fit_config, n_components=K, factor_spec=cand_t
                    )
                    warm = _adapt_factor_dim(incumbent.model, k, cand[k])
                    report, row = _run_cell(
                        data, config, threads, initial_model=warm
                    )
                    rows.append(row)
                    if report is None:
                        continue
                    if sweep_best is None or _better(row, sweep_best[1]):
                        sweep_best = (report, row)
            if sweep_best is not None and _better(sweep_best[1], incumbent_row):
                incumbent, incumbent_row = sweep_best
                improved = True
        if _better(incumbent_row, overall_row):
            overall_report, overall_row = incumbent, incumbent_row
    return overall_report, rows


def format_q_spec(q_spec: Sequence[int]) -> str:
    qs = tuple(int(q) for q in q_spec)
    if len(set(qs)) == 1:
        return str(qs[0])
    return ";".join(str(q) for q in qs)


def write_bic_table(rows: Sequence[BicRow], fh) -> None:
    """Emit the selection table as CSV to ``fh``, in the documented column order."""
    writer = csv.writer(fh)
    writer.writerow(BIC_TABLE_COLUMNS)
    for row in rows:
        writer.writerow(
            [
                row.K,
                format_q_spec(row.q_spec),
                f"{row.loglik:.10g}",
                row.n_params,
                f"{row.bic:.10g}",
                row.n_iter,
                f"{row.seconds:.6f}",
                row.status,
            ]
        )
