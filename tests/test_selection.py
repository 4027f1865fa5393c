import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from gmmfad import ecm, profileopt
from gmmfad.ecm import AllStartsFailed, FitConfig, fit
from gmmfad.linops import NoConvergence
from gmmfad.model import DataMatrix
from gmmfad.selection import (
    BIC_TABLE_COLUMNS,
    BicRow,
    SearchGrid,
    _adapt_factor_dim,
    _better,
    _run_cell,
    format_q_spec,
    select_common_q,
    select_per_cluster_q,
    write_bic_table,
)
from gmmfad.simgen import SimSpec, draw_truth, sample_dataset

from .helpers import small_dataset


def _cfg(monkeypatch, short_run_iters=1, **kw):
    monkeypatch.setattr(ecm, "SHORT_RUN_ITERS", short_run_iters)
    base = dict(n_components=2, factor_spec=2, n_random_starts=6,
                n_finalists=2, max_iter=200, seed=0)
    base.update(kw)
    return FitConfig(**base)


def _row(bic, *, K=2, q=(2, 2), loglik=-100.0, n_params=50):
    return BicRow(K=K, q_spec=tuple(q), loglik=loglik, n_params=n_params,
                  bic=bic, n_iter=3, seconds=0.1)


# ---------------------------------------------------------------- tie breaks


def test_better_prefers_lower_bic():
    assert _better(_row(10.0), _row(11.0))
    assert not _better(_row(11.0), _row(10.0))


def test_better_breaks_ties_toward_fewer_params_then_k_then_q():
    a = _row(10.0, n_params=40)
    b = _row(10.0 + 1e-8, n_params=50)
    assert _better(a, b) and not _better(b, a)
    c = _row(10.0, K=2, n_params=50)
    d = _row(10.0, K=3, n_params=50)
    assert _better(c, d)
    e = _row(10.0, q=(2, 3), n_params=50)
    f = _row(10.0, q=(3, 2), n_params=50)
    assert _better(e, f)


def test_better_never_prefers_failed_rows():
    ok = _row(1e9)
    failed = _row(float("inf"), loglik=float("-inf"), n_params=0)
    assert _better(ok, failed)
    assert not _better(failed, ok)


def test_dominant_cell_wins():
    # strictly higher loglik and fewer parameters -> lower BIC at any n
    better = _row(2 * 90 + 10 * 5.7, loglik=-90.0, n_params=10)
    worse = _row(2 * 95 + 20 * 5.7, loglik=-95.0, n_params=20)
    assert _better(better, worse)


# ------------------------------------------------------------- common-q grid


def test_single_cell_grid_returns_that_fit(monkeypatch):
    data, _ = small_dataset(seed=61)
    grid = SearchGrid(k_values=(2,), q_max=1, fit_config=_cfg(monkeypatch))
    best, rows = select_common_q(data, grid)
    assert len(rows) == 1
    direct = fit(data, _cfg(monkeypatch, n_components=2, factor_spec=1))
    assert best.loglik == direct.loglik
    assert best.bic == direct.bic


def test_winner_bic_is_table_minimum(monkeypatch):
    data, _ = small_dataset(seed=67)
    grid = SearchGrid(k_values=(1, 2), q_max=2, fit_config=_cfg(monkeypatch))
    best, rows = select_common_q(data, grid)
    finite = [r.bic for r in rows if math.isfinite(r.bic)]
    assert best.bic == min(finite)


def test_table_rows_deterministic_under_fixed_seed(monkeypatch):
    data, _ = small_dataset(seed=71)
    grid = SearchGrid(k_values=(1, 2), q_max=2, fit_config=_cfg(monkeypatch, seed=9))
    _, rows_a = select_common_q(data, grid)
    _, rows_b = select_common_q(data, grid)
    key = lambda r: (r.K, r.q_spec, r.loglik, r.n_params, r.bic, r.n_iter)
    assert [key(r) for r in rows_a] == [key(r) for r in rows_b]


def test_failed_cells_record_infinite_bic(monkeypatch):
    data, _ = small_dataset(seed=73)
    # K=200 exceeds n=300's start floor satisfiability? no - it violates
    # nothing at config time, so use K > n which fails validation instead
    grid = SearchGrid(k_values=(2, 301), q_max=1, fit_config=_cfg(monkeypatch))
    best, rows = select_common_q(data, grid)
    bad = [r for r in rows if r.K == 301]
    assert bad and all(math.isinf(r.bic) for r in bad)
    assert all(r.status == "ValueError" for r in bad)
    assert all(r.status == "ok" for r in rows if r.K == 2)
    assert best.model.n_components == 2


def test_all_cells_failed_raises(monkeypatch):
    data, _ = small_dataset(seed=79)
    grid = SearchGrid(k_values=(301,), q_max=1, fit_config=_cfg(monkeypatch))
    with pytest.raises(AllStartsFailed):
        select_common_q(data, grid)


def test_warm_cell_eigensolve_failure_records_infinite_bic(monkeypatch):
    # a warm refit skips the start protocol, so the cell itself must catch
    # the eigensolver's failure instead of aborting the whole search
    data, _ = small_dataset(seed=103)
    warm = fit(data, _cfg(monkeypatch)).model

    def no_convergence(obj, psi_hat):
        raise NoConvergence("forced")

    monkeypatch.setattr(profileopt, "recover_loadings", no_convergence)
    report, row = _run_cell(data, _cfg(monkeypatch), 1, initial_model=warm)
    assert report is None
    assert math.isinf(row.bic)
    assert row.status == "NoConvergence"


def test_warm_cell_empty_cluster_records_its_class_name(monkeypatch):
    # a warm model whose second mean sits far from every row leaves that
    # cluster without mass at the first CM step
    data, _ = small_dataset(seed=103)
    warm = fit(data, _cfg(monkeypatch)).model
    far = replace(warm.components[1], mean=warm.components[1].mean + 1e3)
    warm = replace(warm, components=(warm.components[0], far))
    report, row = _run_cell(data, _cfg(monkeypatch), 1, initial_model=warm)
    assert report is None
    assert math.isinf(row.bic)
    assert row.status == "EmptyCluster"


def test_defect_inside_fit_propagates_from_the_search(monkeypatch):
    # only the fit failures a cell can meet become infinite-BIC rows; a
    # plain ValueError from inside fit is a defect and must not be hidden
    data, _ = small_dataset(seed=107)

    def defect(*args, **kwargs):
        raise ValueError("defect inside the CM step")

    monkeypatch.setattr(ecm, "cm_step", defect)
    grid = SearchGrid(k_values=(2,), q_max=1, fit_config=_cfg(monkeypatch))
    with pytest.raises(ValueError, match="defect inside the CM step"):
        select_common_q(data, grid)


def test_a_rounding_fall_on_the_box_bound_does_not_fail_a_selection():
    # on these data a K = 1 run with a uniqueness on the lower bound takes
    # steps a few 1e-8 nats below its last by rounding alone; they must not
    # fail the search
    data = sample_dataset(draw_truth(SimSpec(n=300, p=10, n_components=2,
                                             factor_spec=2, separation=3.0,
                                             seed=100)), 300, seed=101)
    cfg = FitConfig(n_components=1, factor_spec=1, tol=1e-5,
                    n_random_starts=8, n_finalists=2, seed=1100)
    best, rows = select_common_q(data, SearchGrid(k_values=(1, 2), q_max=2,
                                                  fit_config=cfg))
    assert [row.status for row in rows] == ["ok"] * 4
    assert best.model.n_components == 2


# ---------------------------------------------------------------- per-cluster


def test_per_cluster_never_worse_than_common(monkeypatch):
    data, _ = small_dataset(seed=89)
    grid = SearchGrid(k_values=(2,), q_max=3, fit_config=_cfg(monkeypatch))
    best_common, _ = select_common_q(data, grid)
    best_q, rows = select_per_cluster_q(data, grid)
    assert best_q.bic <= best_common.bic + 1e-6
    assert best_q.bic == min(r.bic for r in rows if math.isfinite(r.bic))


def test_per_cluster_recovery_of_planted_q_vector(monkeypatch):
    hits = 0
    for rep in range(20):
        spec = SimSpec(n=400, p=10, n_components=2, factor_spec=(3, 1),
                       separation=2.5, seed=900 + rep)
        truth = draw_truth(spec)
        data = sample_dataset(truth, 400, seed=1900 + rep)
        grid = SearchGrid(k_values=(2,), q_max=4,
                          fit_config=_cfg(monkeypatch, seed=rep, tol=1e-5,
                                          max_iter=150))
        best, _ = select_per_cluster_q(data, grid)
        got = tuple(sorted(best.model.factor_vector, reverse=True))
        hits += got == (3, 1)
    assert hits > 10, f"recovered (3,1) in only {hits}/20 replications"


def test_per_cluster_search_fits_each_cell_once(monkeypatch):
    # at K = 1 the descent's one move in range from the grid's winner, (1,)
    # or (2,), lands on the other grid cell
    data, _ = small_dataset(seed=83, n=200, p=8)
    grid = SearchGrid(k_values=(1, 2), q_max=2,
                      fit_config=_cfg(monkeypatch, n_random_starts=2,
                                      max_iter=50))
    _, rows = select_per_cluster_q(data, grid)
    cells = [(row.K, row.q_spec) for row in rows]
    assert len(cells) == len(set(cells))
    assert {(1, (1,)), (1, (2,)), (2, (1, 1)), (2, (2, 2))} <= set(cells)


def test_nested_q_warm_start_is_monotone(monkeypatch):
    data, _ = small_dataset(seed=97)
    small = fit(data, _cfg(monkeypatch, factor_spec=2))
    warm = small.model
    for k in range(2):
        warm = _adapt_factor_dim(warm, k, 3)
    large = fit(data, _cfg(monkeypatch, factor_spec=3, max_iter=300),
                initial_model=warm)
    assert large.loglik >= small.loglik - 1e-6


def test_adapt_factor_dim_pads_and_truncates():
    data, truth = small_dataset(seed=101)
    padded = _adapt_factor_dim(truth, 0, 4)
    assert padded.components[0].n_factors == 4
    np.testing.assert_array_equal(padded.components[0].loadings[:, 2:],
                                  np.zeros((10, 2)))
    np.testing.assert_array_equal(padded.components[0].loadings[:, :2],
                                  truth.components[0].loadings)
    cut = _adapt_factor_dim(truth, 1, 1)
    assert cut.components[1].n_factors == 1
    np.testing.assert_array_equal(cut.components[1].loadings,
                                  truth.components[1].loadings[:, :1])


# -------------------------------------------------------------------- output


def test_format_q_spec():
    assert format_q_spec((2, 2)) == "2"
    assert format_q_spec((3, 1)) == "3;1"
    assert format_q_spec((4,)) == "4"


def test_write_bic_table_round_trip(tmp_path):
    rows = [
        _row(123.456, K=2, q=(2, 2)),
        replace(_row(float("inf"), K=3, q=(1, 1, 1)), status="EmptyCluster"),
    ]
    path = tmp_path / "bic.csv"
    with open(path, "w", newline="") as fh:
        write_bic_table(rows, fh)
    with open(path) as fh:
        got = list(csv.reader(fh))
    assert got[0] == list(BIC_TABLE_COLUMNS)
    assert got[1][0] == "2" and got[1][1] == "2"
    assert got[2][0] == "3" and got[2][1] == "1"
    assert float(got[1][4]) == pytest.approx(123.456)
    assert got[2][4] == "inf"
    assert got[1][7] == "ok" and got[2][7] == "EmptyCluster"
