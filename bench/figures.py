"""Regenerate the figures in bench/README.md.

    python3 bench/figures.py [--seeds 1,...,10]

Runs ``run.py`` once per seed on every workload with tracing off, then once
per workload with tracing on, for the run length in BENCHMARK.json, and
prints, per workload, each end-to-end
metric's median and its spread (distance between the first and third
quartile as a share of the median), followed by the per-layer medians.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS


def _run(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["diagnostics"], json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]

    for workload in WORKLOADS:
        values, shares = {}, set()
        for seed in seeds:
            diag, result = _run(workload, seed, seconds, 0)
            shares.add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"# {workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"rounds={diag['rounds']} ref_kernel_ms={diag['ref_kernel_ms']:.2f} "
                  + "".join(f"{k}_median_ms={v['median']:.3f} "
                            for k, v in diag["probe_ms"].items())
                  + f"p50_class={diag['p50_class']} p90_class={diag['p90_class']}", flush=True)
        print(f"\n{workload}: env {json.dumps(diag['env'], sort_keys=True)}")
        print("| metric | median | quartile spread |\n|---|---|---|")
        for name, v in values.items():
            med = statistics.median(v)
            spread = ""
            if len(v) >= 2:
                q = statistics.quantiles(v, n=4)
                spread = f"{(q[2] - q[0]) / med:.3f}"
            print(f"| {name} | {med:.4g} | {spread} |")
        print(f"failed shares: {sorted(shares)}\n", flush=True)
        diag, result = _run(workload, seeds[0], seconds, 1)
        print(f"{workload} traced: tasks_per_s={diag['traced_tasks_per_s']:.4g}")
        for name, m in result["metrics"].items():
            if not name.endswith((".calls", ".failed")):
                print(f"  {name} {m['value']:.4g}")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
