"""End-to-end checks of the command line surface.

Everything goes through ``gmmfad.cli.main(argv)`` in-process so exit codes
and artifacts can be asserted directly.  Fits are kept deliberately tiny.
"""

import csv
import json
import os
import warnings

import numpy as np
import pytest

from gmmfad import selection
from gmmfad.cli import main, run_bench
from gmmfad.metrics import confusion_metrics
from gmmfad.selection import BIC_TABLE_COLUMNS


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _write_lines(path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(str(x) for x in lines) + "\n")


def _simulate(tmp_path, name, *, n, p, k, q, separation, seed):
    out = tmp_path / name
    rc = main(
        [
            "simulate",
            "--n", str(n), "--p", str(p), "--k", str(k), "--q", str(q),
            "--separation", str(separation), "--seed", str(seed),
            "--out-dir", str(out),
        ]
    )
    assert rc == 0
    return out / "sim_rep000_data.csv", out / "sim_rep000_labels.csv"


_FAST_FIT = ["--tol", "1e-5", "--max-iter", "80", "--starts", "6",
             "--finalists", "2"]


# ---------------------------------------------------------------------------
# pipeline closure: simulate -> fit -> metrics


def test_simulate_writes_replicate_artifacts(tmp_path):
    out = tmp_path / "sim"
    rc = main(
        ["simulate", "--n", "50", "--p", "6", "--k", "2", "--q", "1",
         "--reps", "2", "--seed", "5", "--out-dir", str(out)]
    )
    assert rc == 0
    for rep in range(2):
        stem = out / f"sim_rep{rep:03d}"
        data = _read_csv(f"{stem}_data.csv")
        assert len(data) == 50 and len(data[0]) == 6
        labels = _read_csv(f"{stem}_labels.csv")
        assert labels[0] == ["label"] and len(labels) == 51
        truth = _read_json(f"{stem}_truth.json")
        assert truth["spec"]["k"] == 2
        assert len(truth["model"]["weights"]) == 2


def test_simulate_repeat_is_byte_identical(tmp_path):
    args = ["simulate", "--n", "40", "--p", "5", "--k", "2", "--q", "1",
            "--seed", "11"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out-dir", str(a)]) == 0
    assert main(args + ["--out-dir", str(b)]) == 0
    for name in ("sim_rep000_data.csv", "sim_rep000_labels.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_fit_pipeline_recovers_planted_clusters(tmp_path):
    data_csv, labels_csv = _simulate(
        tmp_path, "sim", n=200, p=8, k=2, q=2, separation=3.0, seed=7
    )
    out = tmp_path / "fit"
    rc = main(
        ["fit", "--data", str(data_csv), "--labels", str(labels_csv),
         "--k", "2", "--q", "2", "--seed", "3", "--out-dir", str(out)]
        + _FAST_FIT
    )
    assert rc == 0

    payload = _read_json(out / "fit.json")
    assert payload["engine"] == "gmmfad"
    assert payload["converged"] is True
    assert payload["schema_version"] == 3
    assert set(payload["config"]) == {"n_components", "factor_spec", "tol",
                                      "max_iter", "n_random_starts",
                                      "n_finalists"}
    assert payload["config"]["n_components"] == 2
    assert payload["config"]["factor_spec"] == [2, 2]
    assert payload["n_params"] == payload["model"]["p"] * 2 * 3 + 1 + 2 * (8 - 1)
    trace = payload["loglik_trace"]
    assert trace[-1] == pytest.approx(payload["loglik"])
    assert payload["wall_time_s"] > 0

    assignments = _read_csv(out / "assignments.csv")
    assert assignments[0] == ["cluster"]
    assert len(assignments) == 201
    assert set(row[0] for row in assignments[1:]) <= {"0", "1"}

    for k in range(2):
        table = _read_csv(out / f"loadings_k{k}.csv")
        assert table[0] == ["F1", "F2"]
        assert len(table) == 9  # header + one row per feature

    metrics = _read_json(out / "metrics.json")
    assert metrics["ari"] >= 0.8  # well separated; truth order of K and q
    assert 0.0 <= metrics["accuracy"] <= 1.0


def test_fit_artifacts_deterministic_after_masking_wall_time(tmp_path):
    data_csv, labels_csv = _simulate(
        tmp_path, "sim", n=120, p=6, k=2, q=1, separation=2.5, seed=9
    )
    dirs = [tmp_path / "r1", tmp_path / "r2"]
    for out in dirs:
        rc = main(
            ["fit", "--data", str(data_csv), "--labels", str(labels_csv),
             "--k", "2", "--q", "1", "--seed", "17", "--out-dir", str(out)]
            + _FAST_FIT
        )
        assert rc == 0
    first, second = (_read_json(d / "fit.json") for d in dirs)
    # wall-clock time is the only run-dependent field in the payload
    first.pop("wall_time_s")
    second.pop("wall_time_s")
    assert first == second
    for name in ("assignments.csv", "loadings_k0.csv", "loadings_k1.csv",
                 "metrics.json"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_fit_with_label_column_by_name(tmp_path):
    rng = np.random.default_rng(4)
    rows = []
    for label, shift in (("A", 0.0), ("B", 8.0)):
        for _ in range(20):
            x = rng.normal(shift, 0.5, size=2)
            rows.append(f"{x[0]:.6f},{x[1]:.6f},{label}")
    path = tmp_path / "labelled.csv"
    _write_lines(path, ["x1,x2,diagnosis"] + rows)

    out = tmp_path / "fit"
    rc = main(
        ["fit", "--data", str(path), "--label-col", "diagnosis",
         "--k", "2", "--q", "0", "--seed", "1", "--out-dir", str(out)]
        + _FAST_FIT
    )
    assert rc == 0
    payload = _read_json(out / "fit.json")
    assert payload["label_mapping"] == {"A": 0, "B": 1}
    # no factors: no header, and one empty row per feature
    assert _read_csv(out / "loadings_k0.csv") == [[], []]
    metrics = _read_json(out / "metrics.json")
    assert metrics["ari"] == pytest.approx(1.0)
    assert metrics["accuracy"] == pytest.approx(1.0)
    assert metrics["positive_class_code"] == 0  # first truth code in file order


def test_fit_headerless_with_text_label_column_by_index(tmp_path):
    # the text labels must not make the first data row read as a header
    rng = np.random.default_rng(6)
    rows = []
    for i in range(40):
        label, shift = ("B", 0.0) if i % 2 == 0 else ("M", 8.0)
        x = rng.normal(shift, 0.5, size=6)
        rows.append(",".join(f"{v:.6f}" for v in x) + f",{label}")
    path = tmp_path / "headerless.csv"
    _write_lines(path, rows)

    out = tmp_path / "fit"
    rc = main(
        ["fit", "--data", str(path), "--label-col", "6",
         "--k", "2", "--q", "1", "--seed", "1", "--out-dir", str(out)]
        + _FAST_FIT
    )
    assert rc == 0
    assert len(_read_csv(out / "assignments.csv")) == 1 + len(rows)
    assert _read_json(out / "fit.json")["label_mapping"] == {"B": 0, "M": 1}


def test_fit_numeric_header_with_label_column_by_index(tmp_path, monkeypatch):
    # feature names that are numbers: the label name, which never recurs in
    # its column, marks the first row as a header
    rng = np.random.default_rng(6)
    rows = []
    for i in range(40):
        label, shift = ("B", 0.0) if i % 2 == 0 else ("M", 8.0)
        x = rng.normal(shift, 0.5, size=6)
        rows.append(",".join(f"{v:.6f}" for v in x) + f",{label}")
    path = tmp_path / "numeric_header.csv"
    _write_lines(path, ["1,2,3,4,5,6,diagnosis"] + rows)

    opened = []
    builtin_open = open

    def counting_open(file, *args, **kwargs):
        if file == str(path):
            opened.append(file)
        return builtin_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    out = tmp_path / "fit"
    with pytest.warns(UserWarning, match="read as a header"):
        rc = main(
            ["fit", "--data", str(path), "--label-col", "6",
             "--k", "2", "--q", "1", "--seed", "1", "--out-dir", str(out)]
            + _FAST_FIT
        )
    assert rc == 0
    assert len(_read_csv(out / "assignments.csv")) == 1 + len(rows)
    assert _read_json(out / "fit.json")["label_mapping"] == {"B": 0, "M": 1}
    assert len(opened) == 1


def test_fit_gdt_writes_tie_sidecar(tmp_path):
    rng = np.random.default_rng(2)
    col0 = np.repeat(np.arange(15.0), 2)  # every value shared by two rows
    col1 = rng.normal(size=30)
    path = tmp_path / "tied.csv"
    _write_lines(path, [f"{a},{b:.9f}" for a, b in zip(col0, col1)])

    out = tmp_path / "fit"
    rc = main(
        ["fit", "--data", str(path), "--k", "1", "--q", "0", "--gdt",
         "--seed", "0", "--out-dir", str(out)] + _FAST_FIT
    )
    assert rc == 0
    ties = _read_json(out / "gdt_ties.json")
    assert ties["n_features"] == 2
    assert ties["tie_counts"] == [30, 0]
    assert ties["features_with_ties"] == 1


# ---------------------------------------------------------------------------
# eval subcommand against hand-computed metrics


def test_eval_hand_case(tmp_path, capsys):
    truth = tmp_path / "truth.csv"
    pred = tmp_path / "pred.csv"
    _write_lines(truth, ["M", "M", "M", "B", "B", "B"])
    _write_lines(pred, [0, 0, 1, 1, 1, 1])
    out = tmp_path / "eval"
    rc = main(
        ["eval", "--pred", str(pred), "--truth", str(truth),
         "--positive-class", "M", "--out-dir", str(out)]
    )
    assert rc == 0
    metrics = _read_json(out / "metrics.json")
    # contingency {2,0;1,3}: index 4, expected 2.8, max 6.5
    assert metrics["ari"] == pytest.approx(12.0 / 37.0)
    assert metrics["accuracy"] == pytest.approx(5.0 / 6.0)
    assert metrics["sensitivity"] == pytest.approx(2.0 / 3.0)
    assert metrics["specificity"] == pytest.approx(1.0)
    assert metrics["kappa"] == pytest.approx(2.0 / 3.0)
    assert metrics["positive_class"] == "M"
    printed = json.loads(capsys.readouterr().out.strip())
    assert printed == metrics


def test_eval_defaults_positive_class_to_first_truth_label(tmp_path):
    truth = tmp_path / "truth.csv"
    pred = tmp_path / "pred.csv"
    _write_lines(truth, ["B", "B", "M", "M"])
    _write_lines(pred, [1, 1, 0, 0])
    out = tmp_path / "eval"
    assert main(["eval", "--pred", str(pred), "--truth", str(truth),
                 "--out-dir", str(out)]) == 0
    metrics = _read_json(out / "metrics.json")
    assert metrics["positive_class"] == "B"
    assert metrics["sensitivity"] == pytest.approx(1.0)
    # cross-check the whole row against the library on the same inputs
    cm = confusion_metrics(np.array([1, 1, 0, 0]), np.array([0, 0, 1, 1]), 0)
    assert metrics["accuracy"] == pytest.approx(cm.accuracy)


def test_eval_unknown_positive_class_is_a_usage_error(tmp_path):
    truth = tmp_path / "truth.csv"
    pred = tmp_path / "pred.csv"
    _write_lines(truth, ["B", "M"])
    _write_lines(pred, [0, 1])
    rc = main(["eval", "--pred", str(pred), "--truth", str(truth),
               "--positive-class", "Z", "--out-dir", str(tmp_path / "e")])
    assert rc == 2


@pytest.mark.parametrize(
    "truth_rows, pred_rows",
    [(["B", "M", "X", "B", "M", "X"], [0, 1, 1, 0, 1, 0]),
     (["B", "M", "B", "M", "B", "M"], [0, 1, 2, 0, 1, 2])],
    ids=["three-classes", "three-clusters"],
)
def test_eval_positive_class_without_confusion_metrics_is_a_usage_error(
        tmp_path, capsys, truth_rows, pred_rows):
    # a positive class only means something for the binary confusion
    # metrics; asked for where there are none, it is refused, not ignored
    truth = tmp_path / "truth.csv"
    pred = tmp_path / "pred.csv"
    _write_lines(truth, truth_rows)
    _write_lines(pred, pred_rows)
    out = tmp_path / "e"
    rc = main(["eval", "--pred", str(pred), "--truth", str(truth),
               "--positive-class", "M", "--out-dir", str(out)])
    assert rc == 2
    assert "--positive-class" in capsys.readouterr().err
    assert not (out / "metrics.json").exists()
    # without the flag the same files score the ARI alone
    assert main(["eval", "--pred", str(pred), "--truth", str(truth),
                 "--out-dir", str(out)]) == 0
    assert list(_read_json(out / "metrics.json")) == ["ari"]


def test_eval_length_mismatch_exits_2(tmp_path):
    truth = tmp_path / "truth.csv"
    pred = tmp_path / "pred.csv"
    _write_lines(truth, ["B", "M", "B"])
    _write_lines(pred, [0, 1])
    rc = main(["eval", "--pred", str(pred), "--truth", str(truth),
               "--out-dir", str(tmp_path / "e")])
    assert rc == 2


def test_eval_rejects_multi_column_label_files(tmp_path, capsys):
    # id,label rows used to be flattened, ids and header cells scored as labels
    truth = tmp_path / "truth.csv"
    pred = tmp_path / "pred.csv"
    _write_lines(truth, ["id,truth", "a,B", "b,B", "c,M", "d,M"])
    _write_lines(pred, ["id,cluster", "a,0", "b,0", "c,1", "d,1"])
    rc = main(["eval", "--pred", str(pred), "--truth", str(truth),
               "--out-dir", str(tmp_path / "e")])
    assert rc == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("headers", [("diagnosis", "group"), ("truth", "cluster"),
                                     None],
                         ids=["diagnosis-group", "truth-cluster", "no-header"])
def test_eval_drops_a_first_label_only_when_it_does_not_recur(tmp_path, capsys,
                                                               headers):
    # a header of any name is not scored as one more label, and a headerless
    # file keeps its first label, which recurs
    truth = tmp_path / "truth.csv"
    pred = tmp_path / "pred.csv"
    truth_rows, pred_rows = ["B", "M", "B", "M", "B", "M"], [0, 0, 0, 1, 1, 1]
    if headers:
        truth_rows, pred_rows = [headers[0]] + truth_rows, [headers[1]] + pred_rows
    _write_lines(truth, truth_rows)
    _write_lines(pred, pred_rows)
    args = ["eval", "--pred", str(pred), "--truth", str(truth),
            "--out-dir", str(tmp_path / "e")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(args)
    assert rc == 0
    # only a header outside the usual label-column names warns
    warned = [str(w.message) for w in caught]
    assert len(warned) == (2 if headers == ("diagnosis", "group") else 0)
    assert all("read as a header" in m for m in warned)
    metrics = json.loads(capsys.readouterr().out.strip())
    # contingency {2,1;1,2}: index 2, expected 2.4, max 6
    assert metrics["ari"] == pytest.approx(-1.0 / 9.0)
    assert round(metrics["ari"], 3) == -0.111
    assert metrics["accuracy"] == pytest.approx(2.0 / 3.0)
    assert metrics["positive_class"] == "B"


def test_eval_scores_every_line_of_short_files_of_one_length(tmp_path, capsys):
    # no label recurs in either file, so neither first line is a header
    truth = tmp_path / "truth.csv"
    pred = tmp_path / "pred.csv"
    _write_lines(truth, ["B", "M"])
    _write_lines(pred, [0, 1])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["eval", "--pred", str(pred), "--truth", str(truth),
                   "--out-dir", str(tmp_path / "e")])
    assert rc == 0
    assert [str(w.message) for w in caught] == []
    metrics = json.loads(capsys.readouterr().out.strip())
    assert metrics["ari"] == pytest.approx(1.0)
    assert metrics["accuracy"] == pytest.approx(1.0)  # 2 of 2 labels


@pytest.mark.parametrize("header_in", ["pred", "truth"])
def test_eval_drops_the_header_that_makes_the_lengths_agree(tmp_path, capsys,
                                                            header_in):
    files = {"truth": ["B", "M", "B", "M"], "pred": [0, 1, 0, 1]}
    files[header_in] = ["group"] + files[header_in]
    for name, lines in files.items():
        _write_lines(tmp_path / f"{name}.csv", lines)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["eval", "--pred", str(tmp_path / "pred.csv"),
                   "--truth", str(tmp_path / "truth.csv"),
                   "--out-dir", str(tmp_path / "e")])
    assert rc == 0
    assert [str(w.message) for w in caught] == []
    assert json.loads(capsys.readouterr().out.strip())["accuracy"] == 1.0


@pytest.mark.parametrize("first", ["grp", "9"])
def test_fit_label_sidecar_header_follows_the_data_length(tmp_path, first):
    # a first label that does not recur is a header only in an n + 1 line file
    data_csv, labels_csv = _simulate(
        tmp_path, "sim", n=40, p=5, k=2, q=1, separation=3.0, seed=1
    )
    labels = [row[0] for row in _read_csv(labels_csv)[1:]]
    sidecar = tmp_path / "labels.csv"
    lines = [first] + labels if first == "grp" else [first] + labels[1:]
    _write_lines(sidecar, lines)
    out = tmp_path / "fit"
    rc = main(["fit", "--data", str(data_csv), "--labels", str(sidecar),
               "--k", "2", "--q", "1", "--seed", "1", "--out-dir", str(out)]
              + _FAST_FIT)
    assert rc == 0
    mapping = _read_json(out / "fit.json")["label_mapping"]
    assert ("9" in mapping) == (first == "9")
    assert "grp" not in mapping


# ---------------------------------------------------------------------------
# exit codes


def test_missing_data_file_exits_2(tmp_path):
    rc = main(["fit", "--data", str(tmp_path / "nope.csv"), "--k", "2",
               "--q", "1", "--out-dir", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("option", ["data", "labels", "pred", "truth", "fit",
                                    "out-dir"])
def test_an_unusable_path_exits_2(tmp_path, capsys, option):
    # an input path that is a directory, or an --out-dir that is a file
    data_csv, labels_csv = _simulate(
        tmp_path, "sim", n=20, p=4, k=2, q=1, separation=2.0, seed=1
    )
    folder = tmp_path / "folder"
    folder.mkdir()
    out = tmp_path / "o"
    paths = {"data": data_csv, "labels": labels_csv, "pred": labels_csv,
             "truth": labels_csv, "fit": labels_csv, "out-dir": out}
    if option == "out-dir":
        out.write_text("")
    else:
        paths[option] = folder
    if option in ("data", "labels"):
        argv = ["fit", "--data", str(paths["data"]), "--labels",
                str(paths["labels"]), "--k", "2", "--q", "1"] + _FAST_FIT
    elif option == "fit":
        argv = ["report", "--fit", str(paths["fit"])]
    else:
        argv = ["eval", "--pred", str(paths["pred"]), "--truth",
                str(paths["truth"])]
    assert main(argv + ["--out-dir", str(paths["out-dir"])]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert out.is_file() if option == "out-dir" else not out.exists()


@pytest.mark.parametrize("command", ["fit", "select"])
@pytest.mark.parametrize("flag", [["--starts", "-1"], ["--finalists", "0"],
                                  ["--max-iter", "0"], ["--tol", "-1"],
                                  ["--tol", "nan"]])
def test_a_bad_protocol_setting_exits_2(tmp_path, capsys, command, flag):
    # select used to record every cell as failed and exit 3
    data_csv, _ = _simulate(
        tmp_path, "sim", n=40, p=5, k=2, q=1, separation=2.0, seed=2
    )
    shape = (["--k", "2", "--q", "1"] if command == "fit"
             else ["--k-range", "1..2", "--q-max", "1"])
    out = tmp_path / "o"
    rc = main([command, "--data", str(data_csv)] + shape + flag
              + ["--out-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_ragged_csv_exits_2(tmp_path):
    path = tmp_path / "ragged.csv"
    _write_lines(path, ["1.0,2.0", "3.0,4.0,5.0", "6.0,7.0"])
    rc = main(["fit", "--data", str(path), "--k", "1", "--q", "0",
               "--out-dir", str(tmp_path / "o")])
    assert rc == 2


def test_label_sidecar_length_mismatch_exits_2(tmp_path, capsys):
    data_csv, _ = _simulate(
        tmp_path, "sim", n=40, p=5, k=2, q=1, separation=2.0, seed=1
    )
    labels = tmp_path / "short_labels.csv"
    # a short file, and an id,label file whose cells would number 2n
    for lines, line in (([0, 1, 0], None), ([f"{i},{i % 2}" for i in range(40)], 1)):
        _write_lines(labels, lines)
        rc = main(["fit", "--data", str(data_csv), "--labels", str(labels),
                   "--k", "2", "--q", "1", "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        if line is not None:
            assert f"line {line}:" in capsys.readouterr().err


def test_aecm_dimension_guard_exits_2(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "wide.csv"
    _write_lines(
        path,
        [",".join(f"{v:.6f}" for v in row) for row in rng.normal(size=(4, 501))],
    )
    rc = main(["fit", "--data", str(path), "--engine", "aecm", "--k", "1",
               "--q", "0", "--out-dir", str(tmp_path / "o")])
    assert rc == 2  # p over the dense baseline limit and no --force


def test_k_range_out_of_order_exits_2(tmp_path):
    data_csv, _ = _simulate(
        tmp_path, "sim", n=40, p=5, k=2, q=1, separation=2.0, seed=2
    )
    rc = main(["select", "--data", str(data_csv), "--k-range", "4..2",
               "--q-max", "1", "--out-dir", str(tmp_path / "o")])
    assert rc == 2


def test_infeasible_cluster_floor_exits_3(tmp_path):
    # 12 rows cannot hold 5 clusters of soft mass >= 3, so every start
    # dies to the floor and the run ends in AllStartsFailed
    data_csv, _ = _simulate(
        tmp_path, "sim", n=12, p=6, k=2, q=1, separation=2.0, seed=3
    )
    rc = main(
        ["fit", "--data", str(data_csv), "--k", "5", "--q", "2",
         "--starts", "4", "--finalists", "1", "--out-dir", str(tmp_path / "o")]
    )
    assert rc == 3


# ---------------------------------------------------------------------------
# select / report / bench smokes


def test_select_writes_bic_table_and_best_fit(tmp_path, capsys):
    data_csv, labels_csv = _simulate(
        tmp_path, "sim", n=150, p=6, k=2, q=1, separation=3.0, seed=21
    )
    out = tmp_path / "sel"
    rc = main(
        ["select", "--data", str(data_csv), "--labels", str(labels_csv),
         "--k-range", "1..2", "--q-max", "1", "--tol", "1e-4",
         "--max-iter", "60", "--starts", "4", "--finalists", "1",
         "--seed", "5", "--out-dir", str(out)]
    )
    assert rc == 0
    table = _read_csv(out / "bic_table.csv")
    assert tuple(table[0]) == BIC_TABLE_COLUMNS
    assert len(table) > 1
    payload = _read_json(out / "fit.json")
    assert payload["bic"] == pytest.approx(
        min(float(r[table[0].index("bic")]) for r in table[1:])
    )
    assert "selected K=" in capsys.readouterr().out
    assert (out / "metrics.json").exists()


def test_select_leaves_no_partial_bic_table(tmp_path, monkeypatch):
    # the second row fails to format after the header and the first row
    # have been written
    data_csv, _ = _simulate(
        tmp_path, "sim", n=60, p=5, k=2, q=1, separation=3.0, seed=22
    )
    formatted = []
    format_q_spec = selection.format_q_spec

    def fail_second(q_spec):
        formatted.append(q_spec)
        if len(formatted) == 2:
            raise ValueError("row failed to format")
        return format_q_spec(q_spec)

    monkeypatch.setattr(selection, "format_q_spec", fail_second)
    out = tmp_path / "sel"
    rc = main(
        ["select", "--data", str(data_csv), "--k-range", "1..2", "--q-max", "1",
         "--out-dir", str(out)] + _FAST_FIT
    )
    assert rc == 2
    assert len(formatted) == 2
    assert os.listdir(out) == []


def test_report_blanks_small_loadings(tmp_path):
    fit_json = tmp_path / "fit.json"
    with open(fit_json, "w") as fh:
        json.dump(
            {"model": {"loadings": [[[0.5, 0.05], [-0.3, 0.002]]]}}, fh
        )
    out = tmp_path / "rep"
    rc = main(["report", "--fit", str(fit_json), "--suppress-below", "0.1",
               "--out-dir", str(out)])
    assert rc == 0
    table = _read_csv(out / "loadings_report_k0.csv")
    assert table[0] == ["F1", "F2"]
    assert table[1] == ["0.5000", ""]
    assert table[2] == ["-0.3000", ""]


@pytest.mark.parametrize(
    "text",
    ['{"ari": 1.0}', "[1, 2]", '{"model": "x"}', '{"model": {"loadings": 5}}',
     '{"model": {"loadings": [[[1], [2, 3]]]}}', "not json"],
    ids=["metrics-json", "list", "model-not-an-object", "loadings-not-a-list",
         "ragged-loadings", "not-json"],
)
def test_report_on_a_json_that_is_not_a_fit_exits_2(tmp_path, capsys, text):
    path = tmp_path / "metrics.json"
    path.write_text(text)
    rc = main(["report", "--fit", str(path), "--out-dir", str(tmp_path / "rep")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(path) in err and "fit.json" in err


def test_bench_smoke(tmp_path, capsys):
    out = tmp_path / "bench"
    rc = main(["bench", "--n", "60", "--p", "8", "--k", "2", "--q", "1",
               "--reps", "1", "--seed", "1", "--out-dir", str(out)])
    assert rc == 0
    summary = _read_json(out / "bench_summary.json")
    assert summary["reps"] == 1
    assert summary["median_speedup"] > 0
    rows = _read_csv(out / "bench_rows.csv")
    assert rows[0][0] == "rep" and len(rows) == 2
    assert "median_speedup" in capsys.readouterr().out


@pytest.mark.parametrize("command", [
    ["bench", "--n", "60", "--p", "8", "--k", "2", "--q", "1"],
    ["simulate", "--n", "50", "--p", "6", "--k", "2", "--q", "1"],
])
@pytest.mark.parametrize("reps", ["0", "-1"])
def test_reps_below_one_exits_2(tmp_path, capsys, command, reps):
    out = tmp_path / "out"
    assert main(command + ["--reps", reps, "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --reps must be at least 1")
    assert captured.out == ""
    assert not out.exists()


def test_run_bench_rejects_no_reps():
    with pytest.raises(ValueError, match="--reps"):
        run_bench(60, 8, 2, 1, 0, seed=1)


# ---------------------------------------------------------------------------
# --help coverage: every documented flag must be discoverable

_HELP_FLAGS = {
    "simulate": ["--n", "--p", "--k", "--q", "--separation", "--reps",
                 "--seed", "--out-dir"],
    "fit": ["--data", "--labels", "--label-col", "--k", "--q", "--gdt",
            "--tol", "--max-iter", "--starts", "--finalists", "--engine",
            "--force", "--seed", "--threads", "--out-dir"],
    "select": ["--data", "--labels", "--label-col", "--k-range", "--q-max",
               "--per-cluster-q", "--gdt", "--tol", "--max-iter", "--starts",
               "--finalists", "--seed", "--threads", "--out-dir"],
    "eval": ["--pred", "--truth", "--positive-class", "--out-dir"],
    "bench": ["--n", "--p", "--k", "--q", "--reps", "--seed", "--threads",
              "--out-dir"],
    "report": ["--fit", "--suppress-below", "--out-dir"],
}


def test_top_level_help_lists_all_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for name in _HELP_FLAGS:
        assert name in text


@pytest.mark.parametrize("command", sorted(_HELP_FLAGS))
def test_subcommand_help_lists_every_flag(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in _HELP_FLAGS[command]:
        assert flag in text, f"{command} --help missing {flag}"
