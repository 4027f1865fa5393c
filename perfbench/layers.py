"""Per-layer tracing for the benchmark, installed from outside the library.

A ``Tracer`` wraps the public function at each layer boundary of gmmfad
(ecm, profileopt, linops, _kernels, selection) by rebinding module and class
attributes, records one span per call (name, start, end, parent) in memory,
and restores every original attribute when its ``installed()`` block ends.
A layer's self time is its span's duration minus the durations of its
child spans.  A target that a future version of the library no longer has
is reported as absent with zero calls instead of failing the run, so the
same benchmark code measures a parent commit and its change.

Spans use one stack, so tracing assumes the traced code runs on one thread
(every workload fits with ``threads=1``).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


def _lanczos_grow_counts(args, kwargs, result):
    # lanczos_grow(y, w, center, scale, weight_sum, basis, images, start, next_dir)
    n, p = args[0].shape
    columns = int(result) - int(args[7])
    return {"columns": columns, "bytes": 16 * n * p * columns}


def _matvec_counts(args, kwargs, result):
    # args[0] is the WeightedCovOperator; its data matrix is private, so a
    # version without ``_y`` counts no bytes instead of failing the run
    data = getattr(args[0], "_y", None)
    return {"bytes": 0 if data is None else 16 * data.shape[0] * data.shape[1]}


def _cell_counts(args, kwargs, result):
    # _run_cell(data, config, engine, threads, initial_model=None)
    warm = kwargs.get("initial_model", args[4] if len(args) > 4 else None)
    return {"warm": int(warm is not None), "failed": int(result[0] is None)}


@dataclass(frozen=True)
class Target:
    """One wrapped function: metric prefix, defining module, attribute path."""

    name: str
    module: str
    attr: str
    counts: Callable | None = None


TARGETS = (
    Target("selection.select", "gmmfad.selection", "select_per_cluster_q"),
    Target("selection.cell", "gmmfad.selection", "_run_cell", _cell_counts),
    Target("ecm.fit", "gmmfad.ecm", "fit"),
    Target("ecm.e_step", "gmmfad.ecm", "e_step"),
    Target("ecm.cm_step", "gmmfad.ecm", "cm_step"),
    Target("profileopt.optimize_psi", "gmmfad.profileopt", "optimize_psi"),
    Target("profileopt.value_and_gradient", "gmmfad.profileopt",
           "ProfileObjective.value_and_gradient"),
    Target("profileopt.recover_loadings", "gmmfad.profileopt", "recover_loadings"),
    Target("linops.top_eigenpairs", "gmmfad.linops", "top_eigenpairs"),
    Target("linops.matvec", "gmmfad.linops", "WeightedCovOperator.matvec",
           _matvec_counts),
    # metric names must start with a letter, so the _kernels layer reports
    # under "kernels"
    Target("kernels.lanczos_grow", "gmmfad._kernels", "lanczos_grow",
           _lanczos_grow_counts),
    Target("kernels.weighted_stats", "gmmfad._kernels", "weighted_stats"),
)

# (metric, unit) in the order the traced run prints them
LAYER_METRICS = (
    ("ecm.fit.calls", "count"),
    ("ecm.fit.self_s", "s"),
    ("ecm.e_step.calls", "count"),
    ("ecm.e_step.self_s", "s"),
    ("ecm.cm_step.calls", "count"),
    ("ecm.cm_step.self_s", "s"),
    ("ecm.cm_step.raised", "count"),
    ("profileopt.optimize_psi.calls", "count"),
    ("profileopt.optimize_psi.self_s", "s"),
    ("profileopt.value_and_gradient.calls", "count"),
    ("profileopt.value_and_gradient.self_s", "s"),
    ("profileopt.evals_per_solve", "ratio"),
    ("profileopt.recover_loadings.calls", "count"),
    ("profileopt.recover_loadings.self_s", "s"),
    ("linops.top_eigenpairs.calls", "count"),
    ("linops.top_eigenpairs.self_s", "s"),
    ("linops.top_eigenpairs.raised", "count"),
    ("linops.matvec.calls", "count"),
    ("linops.matvec.self_s", "s"),
    ("linops.products_per_solve", "ratio"),
    ("linops.bytes_computed", "B"),
    ("kernels.lanczos_grow.calls", "count"),
    ("kernels.lanczos_grow.columns", "count"),
    ("kernels.lanczos_grow.self_s", "s"),
    ("kernels.weighted_stats.calls", "count"),
    ("kernels.weighted_stats.self_s", "s"),
    ("selection.cells", "count"),
    ("selection.warm_cells", "count"),
    ("selection.cells_failed", "count"),
    ("selection.self_s", "s"),
    ("trace.absent", "count"),
)


@dataclass(frozen=True)
class Span:
    """One traced call; ``parent`` is the id of the enclosing span."""

    id: int
    name: str
    start: float
    end: float
    self_s: float
    parent: int | None


def _package_modules(package: str):
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == package or name.startswith(package + "."))
    ]


def _resolve(target: Target):
    """(owner, attribute name, current value) or None when absent."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, attr = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


def current(target: Target):
    """The object the target's attribute holds right now, or None."""
    found = _resolve(target)
    return None if found is None else found[2]


class Tracer:
    """Spans and counters for the targets, while ``installed()`` is active."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._counts = defaultdict(lambda: defaultdict(float))
        self._stack: list[list] = []  # open spans as [id, child seconds]
        self._next_id = 0

    def reset(self) -> None:
        """Drop recorded spans and counters; wrappers stay installed."""
        self.spans.clear()
        self._counts.clear()

    def _wrap(self, target: Target, fn):
        name = target.name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = [self._next_id, 0.0]
            self._next_id += 1
            self._stack.append(frame)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                self.spans.append(Span(
                    frame[0], name, start, end, duration - frame[1],
                    None if parent is None else parent[0],
                ))
                counts = self._counts[name]
                counts["calls"] += 1
                counts["self_s"] += duration - frame[1]
                if not ok:
                    counts["raised"] += 1
            if target.counts is not None:
                for key, value in target.counts(args, kwargs, result).items():
                    counts[key] += value
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every present target for the block, then restore them all."""
        self.absent = []
        patches = []  # (owner, attribute, original)

        def patch(owner, attr, original, wrapped):
            patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)

        try:
            for target in TARGETS:
                found = _resolve(target)
                if found is None:
                    self.absent.append(target.name)
                    continue
                owner, attr, fn = found
                wrapped = self._wrap(target, fn)
                if isinstance(owner, type):
                    patch(owner, attr, fn, wrapped)
                    continue
                # the function may also be bound by name in other modules of
                # the package (``from .ecm import fit``); rebind all of them
                package = target.module.split(".")[0]
                for module in _package_modules(package):
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            patch(module, key, fn, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def count(self, name: str, key: str) -> float:
        return self._counts[name][key] if name in self._counts else 0.0

    def metrics(self) -> dict:
        """Every LAYER_METRICS value for the spans recorded since reset()."""
        c = self.count
        out = {}
        for target in TARGETS:
            for key in ("calls", "self_s", "raised", "columns"):
                out[f"{target.name}.{key}"] = c(target.name, key)
        solves = c("linops.top_eigenpairs", "calls")
        products = c("linops.matvec", "calls") + c("kernels.lanczos_grow", "columns")
        psi_solves = c("profileopt.optimize_psi", "calls")
        out.update({
            "profileopt.evals_per_solve":
                c("profileopt.value_and_gradient", "calls") / psi_solves
                if psi_solves else 0.0,
            "linops.products_per_solve": products / solves if solves else 0.0,
            "linops.bytes_computed":
                c("linops.matvec", "bytes") + c("kernels.lanczos_grow", "bytes"),
            "selection.cells": c("selection.cell", "calls"),
            "selection.warm_cells": c("selection.cell", "warm"),
            "selection.cells_failed": c("selection.cell", "failed"),
            "selection.self_s":
                c("selection.select", "self_s") + c("selection.cell", "self_s"),
            "trace.absent": float(len(self.absent)),
        })
        return {name: out[name] for name, _ in LAYER_METRICS}

