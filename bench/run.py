"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program measured is the lpmch package under the
``src/`` directory next to this benchmark's directory. With ``--trace 0``
the set-up is timed in several fresh interpreters and the last of them goes
on to the timed phase; the last line printed is the end-to-end result. With
``--trace 1`` one interpreter runs the traced phase and the last line holds
the per-layer metrics. The line before the result is a diagnostics record
(rounds, attempted and failed operations, reference-kernel time, the CPU
count, BLAS threads and library versions).
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

# One BLAS thread, here (for the speed probe) and in the workers: a second
# one made no task faster at these sizes on a 2-core host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import refs  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("factor-large", "stats-small", "walk-mc", "cli-calls")

# Fresh interpreters whose set-up is timed; setup_s is the median of their
# set-up times, each scaled segment by segment by the speed probe, as task
# times are (see _scaled_setup).
SETUPS = 3
# Everything, set-ups included, must end well inside three minutes.
DEADLINE_S = 170.0


def _worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _start(args, mode, env):
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode]
    # A session of its own, so that the watchdog can stop the worker's own
    # children (the cli-calls processes) together with it.
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
                            start_new_session=True)


def _kill(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _scaled_setup(t0, p0, ready):
    """A worker's set-up time, each segment scaled by the probes at its ends.

    The first segment, from starting the interpreter to its imports done,
    is bracketed by this process's probe before the start and the worker's
    first probe; the worker reports the rest (see worker.py).
    """
    total = (ready["imported"] - t0) * refs.probe_scale(refs.probe_s, p0, ready["probe"])
    return total + sum(t * scale for t, scale in ready["segments"])


def _fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    return 1


def main(argv=None):
    parser = argparse.ArgumentParser(description="lpmch benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lpmch", "__init__.py")):
        return _fail(f"no lpmch sources at {SRC}; run from a checkout of the repository")

    env = _worker_env()
    deadline = time.monotonic() + DEADLINE_S
    modes = ["traced"] if args.trace else ["setup"] * (SETUPS - 1) + ["timed"]
    setups, scaled = [], []
    for mode in modes:
        p0 = refs.probe_s()
        t0 = time.monotonic()
        proc = _start(args, mode, env)
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), _kill, (proc,))
        watchdog.start()
        try:
            ready = proc.stdout.readline().strip()
            setups.append(time.monotonic() - t0)
            if ready.startswith("READY "):
                scaled.append(_scaled_setup(t0, p0, json.loads(ready[6:])))
            out, _ = proc.communicate()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                _kill(proc)
                proc.wait()
        if not ready.startswith("READY ") or proc.returncode != 0:
            return _fail(f"{mode} worker for {args.workload} exited with code "
                         f"{proc.returncode} before finishing")

    lines = out.strip().splitlines()
    try:
        diag = json.loads(lines[-2])["diagnostics"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        return _fail("worker printed no result")
    if not args.trace:
        diag["setup_s_unscaled"] = setups
        diag["setup_s_samples"] = scaled
        result["metrics"]["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}
    print(json.dumps({"diagnostics": diag}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
