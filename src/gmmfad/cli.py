"""Command-line front end.

Subcommands: ``simulate``, ``fit``, ``select``, ``eval``, ``bench`` and the
``report`` formatter.  Every subcommand accepts ``--out-dir``; those that
draw random numbers (``simulate``, ``fit``, ``select``, ``bench``) take
``--seed``, and those that fit (``fit``, ``select``, ``bench``) take
``--threads``.  Artifacts are written atomically (temp file in the target
directory, then rename), JSON artifacts are schema-versioned and
deterministic for a fixed seed up to the recorded timings.

Exit codes: 0 on success, 2 on validation problems (bad flags, malformed
input, inadmissible configurations), 3 when fitting fails to produce a
usable model (all starts degenerate, eigensolver non-convergence).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
import time
from dataclasses import replace

import numpy as np

from .ecm import FIT_FAILURES, FitConfig, fit, fit_baseline_aecm
from .metrics import adjusted_rand_index, confusion_metrics
from .model import DataMatrix, FitReport, free_param_count
from .preprocess import (
    feature_tie_counts,
    gaussian_distributional_transform,
    label_codes,
    load_csv,
    read_label_pair,
    read_labels,
)
from .selection import SearchGrid, select_common_q, select_per_cluster_q, write_bic_table
from .simgen import SimSpec, draw_truth, sample_dataset

FIT_SCHEMA_VERSION = 3


def _atomic_write(path: str, writer) -> None:
    """Write via a sibling temp file and rename into place, creating the
    directory first: only a command that writes a file leaves one behind."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            writer(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, payload) -> None:
    _atomic_write(path, lambda fh: json.dump(payload, fh, sort_keys=True, indent=2))


def _write_rows(path: str, header, rows) -> None:
    def writer(fh):
        w = csv.writer(fh)
        if header:
            w.writerow(header)
        w.writerows(rows)

    _atomic_write(path, writer)


def _parse_q(text: str) -> int | tuple[int, ...]:
    parts = [s.strip() for s in text.split(",") if s.strip()]
    if not parts:
        raise ValueError("--q must be an integer or a comma-separated list")
    values = tuple(int(s) for s in parts)
    return values[0] if len(values) == 1 else values


def _parse_k_range(text: str) -> tuple[int, ...]:
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise ValueError(f"--k-range bounds out of order: {text!r}")
        return tuple(range(lo, hi + 1))
    return (int(text),)


def _parse_label_col(text):
    """``--label-col`` as a column index when it is an integer, else a name."""
    if text is None:
        return None
    try:
        return int(text)
    except ValueError:
        return text


def _rep_seed(seed: int, rep: int) -> int:
    return int(np.random.SeedSequence((seed, rep)).generate_state(1)[0])


def _model_payload(model):
    return {
        "weights": [c.weight for c in model.components],
        "means": [c.mean.tolist() for c in model.components],
        "loadings": [c.loadings.tolist() for c in model.components],
        "uniquenesses": [c.uniquenesses.tolist() for c in model.components],
        "factor_spec": list(model.factor_vector),
        "n_components": model.n_components,
        "p": model.p,
    }


def _label_metrics(pred, truth, positive=None):
    """ARI of ``pred`` against ``truth``, plus the confusion metrics when the
    truth has two classes and ``pred`` at most two clusters.

    ``positive`` is the truth code scored as positive; it defaults to the
    first truth label's code, and giving it for labels that have no
    confusion metrics is a ValueError.  Returns (metrics, positive code or
    None).
    """
    metrics = {"ari": adjusted_rand_index(pred, truth)}
    n_classes, n_clusters = np.unique(truth).size, np.unique(pred).size
    if n_classes != 2 or n_clusters > 2:
        if positive is not None:
            raise ValueError(
                "--positive-class needs two truth classes and at most two "
                f"predicted clusters, got {n_classes} and {n_clusters}"
            )
        return metrics, None
    pos = int(truth[0]) if positive is None else positive
    cm = confusion_metrics(pred, truth, pos)
    metrics.update(
        accuracy=cm.accuracy,
        sensitivity=cm.sensitivity,
        specificity=cm.specificity,
        kappa=cm.kappa,
    )
    return metrics, pos


def _write_fit_artifacts(report: FitReport, out_dir: str, *, config: FitConfig,
                         truth_labels=None, label_mapping=None):
    payload = {
        "schema_version": FIT_SCHEMA_VERSION,
        "engine": report.engine,
        "seed": report.seed,
        "config": {
            "n_components": config.n_components,
            "factor_spec": list(config.factor_vector()),
            "tol": config.tol,
            "max_iter": config.max_iter,
            "n_random_starts": config.n_random_starts,
            "n_finalists": config.n_finalists,
        },
        "model": _model_payload(report.model),
        "loglik": report.loglik,
        "loglik_trace": report.loglik_trace.tolist(),
        "bic": report.bic,
        "n_params": free_param_count(report.model),
        "n_iter": report.n_iter,
        "converged": report.converged,
        "wall_time_s": report.wall_time_s,
    }
    if label_mapping:
        payload["label_mapping"] = {str(k): v for k, v in label_mapping.items()}
    _write_json(os.path.join(out_dir, "fit.json"), payload)
    _write_rows(
        os.path.join(out_dir, "assignments.csv"),
        ["cluster"],
        [[int(c)] for c in report.hard_assignment],
    )
    for k, comp in enumerate(report.model.components):
        header = [f"F{j + 1}" for j in range(comp.n_factors)]
        rows = [[f"{v:.10g}" for v in row] for row in comp.loadings]
        _write_rows(os.path.join(out_dir, f"loadings_k{k}.csv"), header, rows)

    if truth_labels is not None:
        metrics, pos = _label_metrics(report.hard_assignment, truth_labels)
        if pos is not None:
            metrics["positive_class_code"] = pos
        _write_json(os.path.join(out_dir, "metrics.json"), metrics)


def _prepare_data(args):
    data, mapping = load_csv(
        args.data, label_column=_parse_label_col(args.label_col), return_mapping=True
    )
    if args.labels:
        codes, mapping = label_codes(read_labels(args.labels, data.n))
        data = DataMatrix(values=data.values, labels=codes)
    if args.gdt:
        ties = feature_tie_counts(data)
        data = gaussian_distributional_transform(data)
        _write_json(
            os.path.join(args.out_dir, "gdt_ties.json"),
            {
                "n_features": int(ties.size),
                "tie_counts": ties.tolist(),
                "features_with_ties": int(np.sum(ties > 0)),
            },
        )
    return data, mapping


def _check_reps(reps) -> None:
    if reps < 1:
        raise ValueError(f"--reps must be at least 1, got {reps}")


def cmd_simulate(args):
    _check_reps(args.reps)
    qspec = _parse_q(args.q)
    for rep in range(args.reps):
        seed = _rep_seed(args.seed, rep)
        spec = SimSpec(
            n=args.n,
            p=args.p,
            n_components=args.k,
            factor_spec=qspec,
            separation=args.separation,
            seed=seed,
        )
        truth = draw_truth(spec)
        sample = sample_dataset(truth, args.n, seed=seed + 1)
        stem = os.path.join(args.out_dir, f"sim_rep{rep:03d}")
        _write_rows(
            stem + "_data.csv",
            None,
            [[f"{v:.17g}" for v in row] for row in sample.values],
        )
        _write_rows(stem + "_labels.csv", ["label"], [[int(v)] for v in sample.labels])
        _write_json(
            stem + "_truth.json",
            {
                "schema_version": FIT_SCHEMA_VERSION,
                "spec": {
                    "n": args.n,
                    "p": args.p,
                    "k": args.k,
                    "q": list(spec.factor_vector()),
                    "separation": args.separation,
                    "seed": seed,
                },
                "model": _model_payload(truth),
            },
        )
    print(f"wrote {args.reps} replicate(s) to {args.out_dir}")


def _fit_config(args, n_components, factor_spec) -> FitConfig:
    return FitConfig(
        n_components=n_components,
        factor_spec=factor_spec,
        tol=args.tol,
        max_iter=args.max_iter,
        n_random_starts=args.starts,
        n_finalists=args.finalists,
        seed=args.seed,
    )


def cmd_fit(args):
    data, mapping = _prepare_data(args)
    config = _fit_config(args, args.k, _parse_q(args.q))
    if args.engine == "aecm":
        report = fit_baseline_aecm(
            data, config, threads=args.threads, force=args.force
        )
    else:
        report = fit(data, config, threads=args.threads)
    _write_fit_artifacts(
        report,
        args.out_dir,
        config=config,
        truth_labels=data.labels,
        label_mapping=mapping,
    )
    print(
        f"engine={report.engine} loglik={report.loglik:.6f} bic={report.bic:.6f} "
        f"iters={report.n_iter} converged={report.converged}"
    )


def cmd_select(args):
    data, mapping = _prepare_data(args)
    config = _fit_config(args, 2, 1)  # K and q replaced per cell
    grid = SearchGrid(
        k_values=_parse_k_range(args.k_range), q_max=args.q_max, fit_config=config
    )
    if args.per_cluster_q:
        report, rows = select_per_cluster_q(data, grid, threads=args.threads)
    else:
        report, rows = select_common_q(data, grid, threads=args.threads)
    _atomic_write(
        os.path.join(args.out_dir, "bic_table.csv"),
        lambda fh: write_bic_table(rows, fh),
    )
    best_config = replace(
        config,
        n_components=report.model.n_components,
        factor_spec=report.model.factor_vector,
    )
    _write_fit_artifacts(
        report, args.out_dir, config=best_config, truth_labels=data.labels,
        label_mapping=mapping,
    )
    print(
        f"selected K={report.model.n_components} "
        f"q={report.model.factor_vector} bic={report.bic:.6f}"
    )


def cmd_eval(args):
    (pred, _), (truth, truth_map) = map(
        label_codes, read_label_pair(args.pred, args.truth)
    )
    positive = None
    if args.positive_class is not None:
        if args.positive_class not in truth_map:
            raise ValueError(
                f"--positive-class {args.positive_class!r} not among truth labels"
            )
        positive = truth_map[args.positive_class]
    metrics, pos = _label_metrics(pred, truth, positive)
    if pos is not None:
        metrics["positive_class"] = next(k for k, v in truth_map.items() if v == pos)
    _write_json(os.path.join(args.out_dir, "metrics.json"), metrics)
    print(json.dumps(metrics, sort_keys=True))


def run_bench(n, p, k, q, reps, seed, *, threads=1):
    """Paired engine timings on matched synthetic replicates (separation 1.5)."""
    _check_reps(reps)
    rows = []
    speedups = []
    for rep in range(reps):
        rep_seed = _rep_seed(seed, rep)
        spec = SimSpec(
            n=n, p=p, n_components=k, factor_spec=q,
            separation=1.5, seed=rep_seed,
        )
        truth = draw_truth(spec)
        sample = sample_dataset(truth, n, seed=rep_seed + 1)
        config = FitConfig(
            n_components=k, factor_spec=q, n_random_starts=10, n_finalists=2,
            seed=rep_seed,
        )
        t0 = time.perf_counter()
        r_primary = fit(sample, config, threads=threads)
        t_primary = time.perf_counter() - t0
        t0 = time.perf_counter()
        r_baseline = fit_baseline_aecm(sample, config, threads=threads, force=True)
        t_baseline = time.perf_counter() - t0
        speedup = t_baseline / t_primary
        speedups.append(speedup)
        rows.append(
            {
                "rep": rep,
                "gmmfad_seconds": t_primary,
                "aecm_seconds": t_baseline,
                "gmmfad_loglik": r_primary.loglik,
                "aecm_loglik": r_baseline.loglik,
                "gmmfad_iters": r_primary.n_iter,
                "aecm_iters": r_baseline.n_iter,
                "speedup": speedup,
            }
        )
    arr = np.array(speedups)
    summary = {
        "n": n,
        "p": p,
        "k": k,
        "q": q if isinstance(q, int) else list(q),
        "reps": reps,
        "median_speedup": float(np.median(arr)),
        "q1_speedup": float(np.quantile(arr, 0.25)),
        "q3_speedup": float(np.quantile(arr, 0.75)),
    }
    return rows, summary


def cmd_bench(args):
    rows, summary = run_bench(
        args.n, args.p, args.k, _parse_q(args.q), args.reps, args.seed,
        threads=args.threads,
    )
    header = list(rows[0].keys())
    _write_rows(
        os.path.join(args.out_dir, "bench_rows.csv"),
        header,
        [[row[h] for h in header] for row in rows],
    )
    _write_json(os.path.join(args.out_dir, "bench_summary.json"), summary)
    print(json.dumps(summary, sort_keys=True))


def cmd_report(args):
    try:
        with open(args.fit) as fh:
            payload = json.load(fh)
        loadings = [np.asarray(lam, dtype=np.float64)
                    for lam in payload["model"]["loadings"]]
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"{args.fit}: not a fit.json (no model loadings)") from None
    threshold = args.suppress_below
    for k, lam in enumerate(loadings):
        header = [f"F{j + 1}" for j in range(lam.shape[1] if lam.ndim == 2 else 0)]
        rows = []
        for row in np.atleast_2d(lam):
            rows.append(
                ["" if abs(v) < threshold else f"{v:.4f}" for v in row]
            )
        _write_rows(
            os.path.join(args.out_dir, f"loadings_report_k{k}.csv"), header, rows
        )
    print(
        f"wrote {len(loadings)} loadings report(s) "
        f"(|value| < {threshold} suppressed)"
    )


def _add_common(sub, *, seed: bool, threads: bool):
    if seed:
        sub.add_argument("--seed", type=int, default=0)
    if threads:
        sub.add_argument("--threads", type=int, default=1)
    sub.add_argument("--out-dir", default=".")


def _add_fit_options(sub):
    """The data and fit-protocol flags shared by ``fit`` and ``select``."""
    sub.add_argument("--data", required=True)
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--labels", help="CSV with one truth label per line")
    group.add_argument("--label-col", help="label column name or index in --data")
    sub.add_argument("--gdt", action="store_true")
    sub.add_argument("--tol", type=float, default=1e-6)
    sub.add_argument("--max-iter", type=int, default=500)
    sub.add_argument("--starts", type=int, default=20)
    sub.add_argument("--finalists", type=int, default=3)
    _add_common(sub, seed=True, threads=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmmfad",
        description="Clustering with Gaussian mixtures of factor analyzers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw synthetic mixture replicates")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--p", type=int, required=True)
    sim.add_argument("--k", type=int, required=True)
    sim.add_argument("--q", required=True, help="int or comma-separated list")
    sim.add_argument("--separation", type=float, default=1.0)
    sim.add_argument("--reps", type=int, default=1)
    _add_common(sim, seed=True, threads=False)
    sim.set_defaults(func=cmd_simulate)

    fit_p = sub.add_parser("fit", help="fit a mixture to a CSV")
    fit_p.add_argument("--k", type=int, required=True)
    fit_p.add_argument("--q", required=True, help="int or comma-separated list")
    fit_p.add_argument("--engine", choices=("gmmfad", "aecm"), default="gmmfad")
    fit_p.add_argument("--force", action="store_true",
                       help="let the aecm baseline exceed its p limit")
    _add_fit_options(fit_p)
    fit_p.set_defaults(func=cmd_fit)

    sel = sub.add_parser("select", help="BIC search over K and q")
    sel.add_argument("--k-range", required=True, help="e.g. 1..4 or 2")
    sel.add_argument("--q-max", type=int, required=True)
    sel.add_argument("--per-cluster-q", action="store_true")
    _add_fit_options(sel)
    sel.set_defaults(func=cmd_select)

    ev = sub.add_parser("eval", help="score predicted labels against truth")
    ev.add_argument("--pred", required=True)
    ev.add_argument("--truth", required=True)
    ev.add_argument("--positive-class", default=None)
    _add_common(ev, seed=False, threads=False)
    ev.set_defaults(func=cmd_eval)

    bench = sub.add_parser("bench", help="paired engine timing comparison")
    bench.add_argument("--n", type=int, required=True)
    bench.add_argument("--p", type=int, required=True)
    bench.add_argument("--k", type=int, required=True)
    bench.add_argument("--q", required=True)
    bench.add_argument("--reps", type=int, default=5)
    _add_common(bench, seed=True, threads=True)
    bench.set_defaults(func=cmd_bench)

    rep = sub.add_parser("report", help="format loadings with suppression")
    rep.add_argument("--fit", required=True, help="path to a fit.json")
    rep.add_argument("--suppress-below", type=float, default=0.1)
    _add_common(rep, seed=False, threads=False)
    rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except FIT_FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
