"""Tests of the benchmark's own tracing and reporting.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import run

gmmfad, _ = run._import_package()

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402  (needs gmmfad on the path)

HERE = Path(__file__).resolve().parent


def _originals():
    return {t.name: layers.current(t) for t in layers.TARGETS}


def test_self_times_are_non_negative_and_children_fit_in_parents():
    tracer = layers.Tracer()
    with tracer.installed():
        workloads.warm_up()
    assert tracer.spans and not tracer.absent
    by_id = {s.id: s for s in tracer.spans}
    child_time = {}
    for span in tracer.spans:
        assert span.self_s >= 0.0
        if span.parent is not None:
            parent = by_id[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
            child_time[span.parent] = (
                child_time.get(span.parent, 0.0) + span.end - span.start
            )
    assert child_time
    for parent_id, total in child_time.items():
        parent = by_id[parent_id]
        assert total <= parent.end - parent.start
    names = {s.name for s in tracer.spans}
    assert {"ecm.fit", "linops.top_eigenpairs", "kernels.lanczos_grow",
            "selection.select", "selection.cell"} <= names
    metrics = tracer.metrics()
    assert metrics["linops.top_eigenpairs.calls"] > 0
    assert metrics["selection.cells"] >= metrics["selection.warm_cells"] > 0


class _ProbeWorkload:
    """Records, during each call, which targets hold their original objects."""

    def __init__(self):
        self.originals = _originals()
        self.seen = []

    def call(self, data):
        self.seen.append({
            t.name: layers.current(t) is self.originals[t.name]
            for t in layers.TARGETS
        })
        # long enough for the speed probe to take samples
        time.sleep(3 * speed.PROBE_INTERVAL_S)
        return None

    def check(self, report, data):
        return [], {"nll_per_obs": 1.0, "bic_per_obs": 1.0, "ari": 1.0}


def test_untraced_run_installs_no_wrappers():
    probe = _ProbeWorkload()
    run._end_to_end(run.Calls(probe, None, speed.SpeedProbe()), 0.0, 0.0)
    assert len(probe.seen) == 1 + run.MIN_TIMED_CALLS
    assert all(all(seen.values()) for seen in probe.seen)

    probe.seen.clear()
    run._per_layer(run.Calls(probe, None, speed.SpeedProbe()), 0.0)
    assert probe.seen and not any(any(seen.values()) for seen in probe.seen)
    assert _originals() == probe.originals


def test_speed_probe_samples_only_inside_its_block():
    probe = speed.SpeedProbe()
    before = signal.getsignal(signal.SIGALRM)
    started = time.perf_counter()
    with probe.sampling():
        time.sleep(10 * speed.PROBE_INTERVAL_S)
    elapsed = time.perf_counter() - started
    taken = len(probe.python_s)
    time.sleep(3 * speed.PROBE_INTERVAL_S)
    assert 3 <= taken == len(probe.python_s) == len(probe.blas_s)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0.0 < probe.busy_s < elapsed
    assert probe.scale() > 0.0


def test_probe_time_is_taken_out_of_call_times():
    probe = speed.SpeedProbe()

    class ProbedWorkload:
        # the call takes 0.05 s, of which the probe took 0.03 s
        def call(self, data):
            time.sleep(0.05)
            probe.busy_s += 0.03

        def check(self, report, data):
            return [], {}

    seconds = run.Calls(ProbedWorkload(), None, probe).run()
    assert 0.015 < seconds < 0.035


def test_absent_target_reads_as_zero_calls(monkeypatch):
    # the dense path (p <= 64) never reaches lanczos_grow, so the fit runs
    monkeypatch.delattr(gmmfad._kernels, "lanczos_grow")
    data = workloads.WORKLOADS["select_grid"].make_inputs(0)
    config = gmmfad.FitConfig(n_components=2, factor_spec=1, max_iter=3,
                              n_random_starts=1, n_finalists=1)
    tracer = layers.Tracer()
    with tracer.installed():
        gmmfad.fit(data, config)
    assert tracer.absent == ["kernels.lanczos_grow"]
    assert not hasattr(gmmfad._kernels, "lanczos_grow")
    metrics = tracer.metrics()
    assert metrics["kernels.lanczos_grow.calls"] == 0
    assert metrics["trace.absent"] == 1
    assert metrics["ecm.fit.calls"] == 1


def test_benchmark_json_names_what_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        layers.LAYER_METRICS + (("trace.call_s", "s"),)
    )


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mid_np",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
