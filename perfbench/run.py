"""Fit/select benchmark for gmmfad.

Run from the repository root:

    python3 perfbench/run.py --workload wide_p --seed 1 --seconds 12 --trace 0

Workloads: wide_p, mid_np, tall_n, select_grid (see workloads.py).  The
package is imported from ``src/`` next to this directory.  A run sets up
three times (import, inputs, warm-up) and reports the median; then with
``--trace 0`` it makes one call under tracemalloc for the peak memory and
times calls for ``--seconds`` seconds with nothing wrapped; with
``--trace 1`` it times calls with every layer wrapped by layers.Tracer and
reports per-layer work and self time instead.  Every call's output is
checked, and a failed check counts in ``failed`` without stopping the
run.  Human-readable lines come first; the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.

``call_s`` is in calibrated seconds: the mean wall time of the timed
calls times the factor ``speed.SpeedProbe`` measured over them, which
cancels most of the switching of a shared host's vCPUs between a fast
and a slow speed (see speed.py).  ``setup_s`` stays in wall seconds.
The human-readable lines also print the raw mean and the factor; the
traced run reports raw wall times.
"""

import os

# BLAS runs on one thread: at its default of two threads on a two-core
# machine, the wide_p fit took twice as long (see NOTES.md)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import layers
import speed

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_REPEATS = 3
# times the package import in a fresh interpreter: argv[1] is SRC
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "started = time.perf_counter(); import gmmfad; "
    "print(time.perf_counter() - started)"
)
MIN_TIMED_CALLS = 3

# (metric, unit) printed with --trace 0; call_s is fit_s on the fit
# workloads and select_s on select_grid
END_TO_END = (
    ("call_s", "s"),
    ("peak_mib", "MiB"),
    ("setup_s", "s"),
    ("nll_per_obs", "nats"),
    ("bic_per_obs", "nats"),
    ("ari", "ratio"),
    ("passed_frac", "ratio"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_package():
    """Import gmmfad from SRC only; (module, seconds), or exit with code 2."""
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import gmmfad
    except ImportError as exc:
        print(f"cannot import gmmfad from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if Path(gmmfad.__file__).resolve().parent.parent != SRC:
        print(f"gmmfad was imported from {gmmfad.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    return gmmfad, time.perf_counter() - started


def _fresh_import_s() -> float:
    """Seconds the package import takes in a new interpreter."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(probe.stdout)


class Calls:
    """Runs and checks the workload's call, counting attempts and failures."""

    def __init__(self, workload, data, probe):
        self.workload = workload
        self.data = data
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.quality = None

    def _elapsed(self, started, busy_before):
        # wall time less the time the speed probe took during the call
        return time.perf_counter() - started - (self.probe.busy_s - busy_before)

    def run(self):
        """Seconds taken by one checked call."""
        self.attempted += 1
        busy_before = self.probe.busy_s
        started = time.perf_counter()
        try:
            report = self.workload.call(self.data)
        except Exception:
            seconds = self._elapsed(started, busy_before)
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return seconds
        seconds = self._elapsed(started, busy_before)
        failures, quality = self.workload.check(report, self.data)
        if failures:
            self.failed += 1
            print("check failed: " + "; ".join(failures), file=sys.stderr)
        elif self.quality is None:
            self.quality = quality
        return seconds

    def timed(self, seconds, after_each=None):
        """Call repeatedly for about ``seconds``; the list of call times.

        A call starts only while the window is predicted to hold it, after
        at least MIN_TIMED_CALLS calls.
        """
        times = []
        window = time.perf_counter()
        while True:
            times.append(self.run())
            if after_each is not None:
                after_each()
            elapsed = time.perf_counter() - window
            if (len(times) >= MIN_TIMED_CALLS
                    and elapsed + statistics.median(times) > seconds):
                return times


def _end_to_end(calls, seconds, setup_s):
    # a full collection first, so that when the collector runs during the
    # pass does not depend on the garbage set-up left behind
    gc.collect()
    tracemalloc.start()
    try:
        calls.run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    with calls.probe.sampling():
        times = calls.timed(seconds)
    # zeros only when no call passed, and then the result says correct=false
    quality = calls.quality or {"nll_per_obs": 0.0, "bic_per_obs": 0.0, "ari": 0.0}
    values = {
        "call_s": statistics.fmean(times) * calls.probe.scale(),
        "wall_s": statistics.fmean(times),
        "peak_mib": peak / 2**20,
        "setup_s": setup_s,
        **quality,
        "passed_frac": 1.0 - calls.failed / calls.attempted,
    }
    return values, END_TO_END, len(times)


def _per_layer(calls, seconds):
    tracer = layers.Tracer()
    per_call = []

    def collect():
        per_call.append(tracer.metrics())
        tracer.reset()

    with tracer.installed():
        times = calls.timed(seconds, after_each=collect)
    for metrics, seconds_taken in zip(per_call, times):
        metrics["trace.call_s"] = seconds_taken
    units = layers.LAYER_METRICS + (("trace.call_s", "s"),)
    values = {
        name: statistics.median(m[name] for m in per_call) for name, _ in units
    }
    return values, units, len(times)


def main(argv=None) -> int:
    args = _parse(argv)
    gmmfad, import_s = _import_package()
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    # set-up is the median of SETUP_REPEATS rounds of importing the
    # package, making the inputs and warming up; the import can happen
    # once per process, so rounds after the first time it in a new one
    setup_times = []
    for round_ in range(SETUP_REPEATS):
        if round_:
            import_s = _fresh_import_s()
        started = time.perf_counter()
        data = workload.make_inputs(args.seed)
        workloads.warm_up()
        setup_times.append(import_s + time.perf_counter() - started)
    setup_s = statistics.median(setup_times)

    calls = Calls(workload, data, speed.SpeedProbe())
    if args.trace:
        values, units, n_timed = _per_layer(calls, args.seconds)
    else:
        values, units, n_timed = _end_to_end(calls, args.seconds, setup_s)

    print(f"{workload.name} seed={args.seed} trace={args.trace}: "
          f"{calls.attempted} calls, {calls.failed} failed, {n_timed} timed; "
          f"backend {gmmfad.backend_name()}")
    for name, unit in units:
        label = workload.call_name if name == "call_s" else name
        print(f"  {label:<40} {values[name]:>16.6f} {unit}")
    if not args.trace:
        probe = calls.probe
        print(f"  {workload.call_name + ' (wall mean)':<40} {values['wall_s']:>16.6f} s")
        print(f"  {'speed factor':<40} {probe.scale():>16.6f} over "
              f"{len(probe.python_s)} samples, probe means "
              f"{statistics.fmean(probe.python_s):.3e} s (Python), "
              f"{statistics.fmean(probe.blas_s):.3e} s (BLAS)")
        print(f"  {'loglik_per_obs':<40} {-values['nll_per_obs']:>16.6f} nats")
        print(f"  {'failed_frac':<40} {1.0 - values['passed_frac']:>16.6f} ratio")
    print(json.dumps({
        "correct": calls.failed == 0,
        "attempted": calls.attempted,
        "failed": calls.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
