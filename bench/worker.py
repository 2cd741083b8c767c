"""One fresh interpreter running one workload of the benchmark.

Builds the workload's inputs, runs one warm-up pass, prints ``READY`` with
the set-up's timed segments, and then, by ``--mode``:

- ``setup``: exits (the caller only times the set-up);
- ``timed``: runs whole rounds for ``--seconds``, checks every output and
  prints a diagnostics line and, last, the end-to-end metrics as JSON;
- ``traced``: runs whole rounds with a span around every call, then calls
  the layers no task of this workload reaches, and prints the per-layer
  metrics as JSON.

``run.py`` starts it; run it directly only to debug a workload.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# Per-layer metrics: (base name, unit). Each base yields <base>.ms (or
# <base>_s for whole processes), <base>.calls and <base>.failed.
LAYER_METRICS = [
    ("core.classify", "ms"),
    ("core.leading_minors.n256", "ms"),
    ("cholesky.factor.n64", "ms"),
    ("cholesky.factor.n256", "ms"),
    ("cholesky.factor_tpm.n64", "ms"),
    ("cholesky.compose.n256", "ms"),
    ("cholesky.resign.n64", "ms"),
    ("cholesky.resign.n256", "ms"),
    ("algebra.tensor_matrix", "ms"),
    ("ssrpm.is_ssrpm.n12", "ms"),
    ("geometry.cone_factor.n10", "ms"),
    ("geometry.cone_compose.n10", "ms"),
    ("geometry.log_cholesky_mean", "ms"),
    ("geometry.lpm_distance", "ms"),
    ("biggroup.box_op", "ms"),
    ("sampling.wishart_factors", "ms"),
    ("sampling.wishart_sample", "ms"),
    ("sampling.inertial_clone_sample", "ms"),
    ("sampling.inverse_wishart_sample", "ms"),
    ("sampling.wishart_log_density", "ms"),
    ("sampling.cholesky_normal_log_density", "ms"),
    ("inequalities.simulate_walk.star", "ms"),
    ("inequalities.simulate_walk.box", "ms"),
    ("inequalities.verify_from_stats", "ms"),
    ("matio.read_matrix", "ms"),
    ("matio.matrix_to_json_line", "ms"),
    ("cli.interpreter", "s"),
    ("cli.import", "s"),
    ("cli.import_scipy", "s"),
] + [(f"cli.main.{cmd}", "ms") for cmd in (
    "classify", "factor", "resign", "distance", "mean", "density", "sample", "verify",
    "ssrpm-check")]

# Calls per missing per-layer metric in a traced run; whole processes are
# slower and steadier, so they get fewer.
PROBE_REPEATS = {"ms": 5, "s": 3}


def layer_metric_names():
    names = []
    for base, unit in LAYER_METRICS:
        names += [base + (".ms" if unit == "ms" else "_s"), base + ".calls", base + ".failed"]
    return names


def import_program():
    """Import lpmch from this checkout's sources, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "lpmch", "__init__.py")):
        raise SystemExit(f"error: no lpmch sources at {SRC}")
    sys.path.insert(0, SRC)
    import lpmch
    if os.path.dirname(os.path.dirname(os.path.abspath(lpmch.__file__))) != SRC:
        raise SystemExit(f"error: lpmch imported from {lpmch.__file__}, not {SRC}")
    return lpmch


class Runner:
    """Runs rounds of a workload's tasks and keeps what the metrics need."""

    def __init__(self, workload, trace=False):
        import refs
        self.refs = refs
        self.workload = workload
        self.trace = trace
        self.latencies = []          # (seconds, probe scale, class, index in the round)
        self.spans = []
        self.errors = []             # relative errors of checked outputs
        self.failures = Counter()    # exception type of calls that raised
        self.wrong = []              # outputs that failed their check
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.ref_ms = []
        self.probes = defaultdict(list)  # probe name -> readings, in seconds
        self._last_probe = None

    def call(self, task, round_no, index=-1, check=True):
        self.attempted += 1
        # The task's speed probe right before and right after the call: the
        # call's time times refs.probe_scale of the two readings is its time
        # on a host where the probe takes its reference time (class_costs).
        p0 = self._probe_before(task.probe)
        t0 = time.perf_counter()
        try:
            out = task.run()
        except Exception as exc:  # a failed operation is counted, and the run goes on
            t1 = time.perf_counter()
            self.failed += 1
            self.failures[f"{task.cls}: {type(exc).__name__}"] += 1
            self._span(task, round_no, t0, t1, self._scale(task.probe, p0), ok=False)
            return
        t1 = time.perf_counter()
        scale = self._scale(task.probe, p0)
        self.latencies.append((t1 - t0, scale, task.cls, index))
        self._span(task, round_no, t0, t1, scale, ok=True)
        if not check:
            return
        try:
            err = task.check(out)
        except self.refs.CheckError as exc:
            self.wrong.append(f"{task.cls}: {exc}")
        else:
            if err is not None:
                self.errors.append(err)

    def _probe_before(self, probe):
        # Back-to-back calls with the same probe share the reading between
        # them; only the previous call's check lies in between.
        if self._last_probe is not None and self._last_probe[0] is probe:
            return self._last_probe[1]
        return probe()

    def _scale(self, probe, p0):
        p1 = probe()
        self._last_probe = (probe, p1)
        self.probes[probe.__name__].append(p1)
        return self.refs.probe_scale(probe, p0, p1)

    def _span(self, task, round_no, t0, t1, scale, ok):
        if self.trace:
            self.spans.append({"layer": task.layer, "task": task.cls, "round": round_no,
                               "calls": task.calls, "start": t0, "end": t1,
                               "scaled": (t1 - t0) * scale, "ok": ok})

    def rounds_for(self, seconds):
        """Whole rounds until another one would overrun `seconds`; at least one."""
        t_end = time.perf_counter() + seconds
        while True:
            self.ref_ms.append(self.refs.reference_kernel_ms())
            start = time.perf_counter()
            for i, task in enumerate(self.workload.tasks):
                self.call(task, self.rounds, i)
            self.rounds += 1
            now = time.perf_counter()
            if now + (now - start) > t_end:
                break

    def finish(self):
        try:
            self.errors += self.workload.finish()
        except self.refs.CheckError as exc:
            self.wrong.append(f"deferred: {exc}")

    def class_costs(self):
        """(seconds, class) for each task of the round, at its class's cost.

        The host's speed swings by up to 2x, in phases from under a second to
        minutes, so a raw time says as much about the host as about lpmch.
        Each call is therefore scaled by the speed probe timed around it
        (refs.probe_scale), and a class (same call, size and input family)
        costs the median of its scaled calls in this run. Every round
        measures the whole task mix.
        """
        scaled, classes = defaultdict(list), {}
        for t, scale, cls, i in self.latencies:
            if i >= 0:
                scaled[cls].append(t * scale)
                classes[i] = cls
        cost = {c: float(statistics.median(v)) for c, v in scaled.items()}
        return [(cost[c], c) for _, c in sorted(classes.items())]


def _environment():
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    threads = {k: os.environ.get(k) for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"cpu_count": os.cpu_count(), "blas_threads": threads,
            "numpy": numpy.__version__, "scipy": scipy_version,
            "python": platform.python_version(), "machine": platform.machine()}


def _probe_summary(probes):
    import numpy as np
    out = {}
    for name, readings in probes.items():
        ms = 1000 * np.array(readings)
        out[name] = {"median": float(np.median(ms)), "min": float(ms.min()),
                     "max": float(ms.max()), "count": len(ms)}
    return out


def _peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli-calls" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed(runner, args):
    import numpy as np
    runner.rounds_for(args.seconds)
    peak = _peak_rss_mb(args.workload)
    runner.finish()
    raw = np.array([t for t, _, _, _ in runner.latencies])
    best = runner.class_costs()
    times = np.array([t for t, _ in best])
    per_class = defaultdict(list)
    for t, _, cls, _ in runner.latencies:
        per_class[cls].append(t)
    digits = min(runner.refs.digits(e) for e in runner.errors or [0.0])
    metrics = {
        "tasks_per_s": (len(times) / float(times.sum()), "1/s"),
        "task_p50_ms": (1000 * float(np.percentile(times, 50)), "ms"),
        "task_p90_ms": (1000 * float(np.percentile(times, 90)), "ms"),
        "peak_rss_mb": (peak, "MB"),
        "residual_digits": (digits, "digits"),
    }
    ranked = sorted(best)

    def quantile_class(q):
        return ranked[round(q * (len(ranked) - 1))][1]

    diag = {
        "workload": args.workload, "seed": args.seed, "rounds": runner.rounds,
        "tasks_per_round": len(runner.workload.tasks),
        "attempted": runner.attempted, "failed": runner.failed,
        "failures": dict(runner.failures), "wrong": runner.wrong[:5],
        "program_s": float(raw.sum()),
        # The same statistics over every call of the run, unscaled.
        "unscaled": {"tasks_per_s": len(raw) / float(raw.sum()),
                     "task_p50_ms": 1000 * float(np.percentile(raw, 50)),
                     "task_p90_ms": 1000 * float(np.percentile(raw, 90))},
        "ref_kernel_ms": float(np.median(runner.ref_ms)),
        "ref_kernel_ms_range": [float(min(runner.ref_ms)), float(max(runner.ref_ms))],
        "probe_ms": _probe_summary(runner.probes),
        "p50_class": quantile_class(0.5), "p90_class": quantile_class(0.9),
        "class_median_unscaled_ms": {c: round(1000 * float(np.median(v)), 3)
                                     for c, v in sorted(per_class.items())},
        "checked_outputs": len(runner.errors),
        "env": _environment(),
    }
    return diag, metrics


def traced(runner, args, lpmch_root):
    import numpy as np
    import workloads
    runner.rounds_for(args.seconds)
    # The same throughput the untraced run reports, for the tracing overhead.
    best = [t for t, _ in runner.class_costs()]
    loop_tasks_per_s = len(best) / sum(best)
    covered = {s["layer"] for s in runner.spans}
    missing = [base for base, _ in LAYER_METRICS if base not in covered]
    # Reach the missing layers through this workload's probes, then through
    # the tasks and probes of the other workloads.
    sources = [runner.workload]
    others = [w for w in workloads.WORKLOADS if w != args.workload]
    units = dict(LAYER_METRICS)
    while missing:
        providers = {}
        for wl in sources:
            for task in wl.probes + wl.tasks:
                if task.layer in missing and task.layer not in providers:
                    providers[task.layer] = task
        for base, task in providers.items():
            for _ in range(PROBE_REPEATS[units[base]]):
                runner.call(task, -1)
        missing = [b for b in missing if b not in providers]
        if not missing or not others:
            break
        name = others.pop(0)
        other = workloads.build(name, args.seed, lpmch_root,
                                os.path.join(OUT_DIR, f"probe-{name}-{os.getpid()}"))
        sources.append(other)
        for task in other.warmup_tasks():
            task.run()
    for wl in sources[1:]:
        wl.close()
    runner.finish()

    by_layer = defaultdict(list)
    for s in runner.spans:
        if s["layer"] is not None:
            by_layer[s["layer"]].append(s)
    metrics = {}
    for base, unit in LAYER_METRICS:
        spans = by_layer.get(base, [])
        # Scaled by the speed probe, as the end-to-end timings are.
        per_call = [s["scaled"] / s["calls"] for s in spans if s["ok"]]
        value = float(np.median(per_call)) if per_call else float("nan")
        if unit == "ms":
            metrics[base + ".ms"] = (1000 * value, "ms")
        else:
            metrics[base + "_s"] = (value, "s")
        metrics[base + ".calls"] = (sum(s["calls"] for s in spans), "count")
        metrics[base + ".failed"] = (sum(s["calls"] for s in spans if not s["ok"]), "count")

    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl")
    with open(trace_path, "w") as fh:
        for s in runner.spans:
            fh.write(json.dumps(s) + "\n")
    diag = {
        "workload": args.workload, "seed": args.seed, "rounds": runner.rounds,
        "attempted": runner.attempted, "failed": runner.failed,
        "failures": dict(runner.failures), "wrong": runner.wrong[:5],
        "traced_tasks_per_s": loop_tasks_per_s,
        "ref_kernel_ms": float(np.median(runner.ref_ms)),
        "trace_file": os.path.relpath(trace_path, lpmch_root),
        "env": _environment(),
    }
    return diag, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    args = parser.parse_args(argv)

    import_program()
    import refs
    import workloads

    # The set-up in segments, each scaled by the speed probes at its ends:
    # the interpreter's start and imports (run.py scales that one, as it
    # holds the probe before the start), building the inputs, and each
    # warm-up call with its own probe.
    imported = time.monotonic()
    first_probe = refs.probe_s()
    last = [refs.probe_s, first_probe]
    segments = []

    def segment(probe, work):
        before = last[1] if last[0] is probe else probe()
        t0 = time.monotonic()
        out = work()
        t1 = time.monotonic()
        after = probe()
        segments.append([t1 - t0, refs.probe_scale(probe, before, after)])
        last[:] = [probe, after]
        return out

    workdir = os.path.join(OUT_DIR, f"{args.workload}-{os.getpid()}")
    wl = segment(refs.probe_s, lambda: workloads.build(args.workload, args.seed, ROOT, workdir))
    try:
        runner = Runner(wl, trace=args.mode == "traced")
        for task in wl.warmup_tasks():
            segment(task.probe, task.run)
        print("READY " + json.dumps({"imported": imported, "probe": first_probe,
                                     "segments": segments}), flush=True)
        if args.mode == "setup":
            return 0
        if args.mode == "timed":
            diag, metrics = timed(runner, args)
        else:
            diag, metrics = traced(runner, args, ROOT)
    finally:
        wl.close()
    print(json.dumps({"diagnostics": diag}, sort_keys=True))
    print(json.dumps({
        "correct": not runner.wrong,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
