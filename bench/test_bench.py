"""Quick tests of the benchmark itself: its checks reject wrong answers, and
every workload runs to its end at a tiny size.

    python3 -m pytest -q bench
"""

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import worker

worker.import_program()

import refs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from lpmch.core import ConePoint  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def _tiny(name, tmp_path, seed=3):
    return workloads.build(name, seed, worker.ROOT, str(tmp_path / name), tiny=True)


def _task(wl, prefix):
    return next(t for t in wl.tasks if t.cls.startswith(prefix))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_runs_tiny(name, tmp_path):
    wl = _tiny(name, tmp_path)
    runner = worker.Runner(wl)
    try:
        for task in wl.tasks:
            runner.call(task, 0)
        runner.finish()
    finally:
        wl.close()
    assert runner.failed == 0, runner.failures
    assert runner.wrong == []
    assert runner.errors and max(runner.errors) < 1e-12


@pytest.mark.parametrize("cls", ["lpm.factor.canon.n16", "lpm.factor.general.n32",
                                 "tpm.factor.general.n16"])
def test_factor_check_rejects_perturbed_factor(cls, tmp_path):
    task = _task(_tiny("factor-large", tmp_path), cls)
    F = task.run()
    task.check(F)
    G = F.copy()
    G[-1, 0] += 1e-8 * np.linalg.norm(F)
    with pytest.raises(refs.CheckError):
        task.check(G)


def test_pattern_checks_reject_one_flipped_sign(tmp_path):
    wl = _tiny("factor-large", tmp_path)
    task = _task(wl, "lpm.compose.n16")
    out = task.run()
    flipped = out.pattern[:3] + (-out.pattern[3],) + out.pattern[4:]
    with pytest.raises(refs.CheckError):
        task.check(ConePoint(matrix=out.matrix, cone=out.cone, pattern=flipped))

    task = _task(_tiny("stats-small", tmp_path), "wishart_sample.n10")
    draws = task.run()
    task.check(draws)
    eps = draws[0].pattern
    flipped = eps[:-1] + (-eps[-1],)
    L = refs.random_factor(np.random.default_rng(0), len(eps))
    draws[0] = ConePoint(matrix=refs.lpm_matrix(L, flipped), cone="lpm", pattern=eps)
    with pytest.raises(refs.CheckError):
        task.check(draws)


def test_minor_check_rejects_one_flipped_sign(tmp_path):
    task = _task(_tiny("factor-large", tmp_path), "lpm.leading_minors.n32")
    minors = task.run()
    task.check(minors)
    minors[5] = -minors[5]
    with pytest.raises(refs.CheckError):
        task.check(minors)


@pytest.mark.parametrize("cls", ["wishart_log_density.n10", "inverse_wishart_log_density.n10",
                                 "cholesky_normal_log_density.n10"])
def test_density_check_rejects_relative_error_1e_6(cls, tmp_path):
    wl = _tiny("stats-small", tmp_path)
    task = _task(wl, cls)
    values = task.run()
    task.check(values)
    wl.finish()
    values[7] *= 1 + 1e-6
    task.check(values)
    with pytest.raises(refs.CheckError):
        wl.finish()


def test_sample_check_rejects_one_changed_byte(tmp_path):
    wl = _tiny("cli-calls", tmp_path)
    try:
        task = _task(wl, "cli.sample")
        first = task.run()
        task.check(first)
        second = task.run()
        task.check(second)
        data = bytearray(second.stdout)
        i = max(data.rindex(d) for d in (b"1", b"2", b"3"))
        data[i] = ord("4")
        changed = subprocess.CompletedProcess(second.args, 0, bytes(data), b"")
        with pytest.raises(refs.CheckError):
            task.check(changed)
    finally:
        wl.close()


def test_walk_check_rejects_perturbed_distances(tmp_path):
    task = _task(_tiny("walk-mc", tmp_path), "simulate.zero-cov")
    stats = task.run()
    task.check(stats)
    stats.d_z1[3, 4] *= 1 + 1e-6
    with pytest.raises(refs.CheckError):
        task.check(stats)


def test_class_costs_are_medians_scaled_by_the_probe(monkeypatch):
    def probe():
        return 2e-3

    monkeypatch.setitem(refs.PROBE_REF_S, probe, 1e-3)
    task = workloads.Task("sleep", lambda: time.sleep(0.002), lambda out: None, probe=probe)
    runner = worker.Runner(workloads.Workload("fake", [task]))
    for r in range(3):
        runner.call(task, r, 0)
    [(cost, cls)] = runner.class_costs()
    raw = sorted(t for t, _, _, _ in runner.latencies)
    assert cls == "sleep"
    assert cost == pytest.approx(raw[1] / 2)


def test_benchmark_json_names_every_metric():
    with open(os.path.join(worker.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    assert [m["name"] for m in spec["per_layer"]] == worker.layer_metric_names()
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "tasks_per_s", "task_p50_ms", "task_p90_ms", "peak_rss_mb",
        "residual_digits"}


def test_run_refuses_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(worker.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "walk-mc",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
