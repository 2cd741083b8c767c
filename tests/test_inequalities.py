import json
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from conftest import random_factor
from lpmch import (
    INEQUALITIES,
    PRESETS,
    BigGroupElement,
    DistributionSpec,
    RngStream,
    classify,
    cone_compose,
    inequalities,
    preset_config,
    simulate_walk,
    verify_from_stats,
    verify_inequality,
)
from lpmch.cli import main
from lpmch.errors import GroupMismatch, SpecInvalid
from lpmch.matio import format_float


def test_all_inequalities_pass_on_presets_small():
    for name in PRESETS:
        for which in INEQUALITIES:
            walk, params = preset_config(name, which)
            stats = simulate_walk(RngStream(0), walk, paths=2000,
                                  group=params.get("group", "star"),
                                  p=params.get("p", 2), z1=params.get("z1"))
            report = verify_from_stats(stats, which, params)
            assert report.applicable, (name, which)
            assert report.passed, (name, which, report)


def test_deterministic_walk_exact_probabilities():
    # zero covariance makes every partial sum deterministic, so the
    # probabilities on both sides are exactly 0 or 1
    walk, params = preset_config("deterministic_walk", "ottaviani_skorohod")
    stats = simulate_walk(RngStream(1), walk, paths=50)
    assert np.allclose(stats.d_z1, 0.0)
    assert np.allclose(stats.d_to_end, 0.0)
    report = verify_from_stats(stats, "ottaviani_skorohod", params)
    assert report.lhs == 0.0 and report.rhs == 0.0
    assert report.lhs_se == 0.0 and report.rhs_se == 0.0
    assert report.passed
    report = verify_from_stats(stats, "mogulskii_min",
                               {"a": 1.0, "b": 1.0, "m": 1})
    assert report.lhs == 1.0 and report.rhs == 1.0 and report.passed


def test_verify_inequality_end_to_end():
    walk, params = preset_config("pd_walk", "mogulskii_min")
    params["paths"] = 3000
    report = verify_inequality(RngStream(2), "mogulskii_min", walk, params)
    assert report.n_paths == 3000
    assert report.passed
    assert 0.0 <= report.lhs <= 1.0 and 0.0 <= report.rhs <= 1.0


def test_mogulskii_window_parameter():
    walk, params = preset_config("pd_walk", "mogulskii_min")
    stats = simulate_walk(RngStream(3), walk, paths=2000)
    for m in (1, 5, len(walk)):
        report = verify_from_stats(stats, "mogulskii_min", {**params, "m": m})
        assert report.passed
    with pytest.raises(SpecInvalid):
        verify_from_stats(stats, "mogulskii_min", {**params, "m": 0})
    with pytest.raises(SpecInvalid):
        verify_from_stats(stats, "mogulskii_min", {**params, "m": len(walk) + 1})


def test_levy_ottaviani_parity():
    walk, _ = preset_config("pd_walk", "levy_ottaviani")
    stats = simulate_walk(RngStream(4), walk, paths=4000)
    for a_list in ([1.0, 0.5], [0.7, 0.7, 0.7], [0.5, 0.5, 1.0, 1.0]):
        report = verify_from_stats(stats, "levy_ottaviani", {"a_list": a_list})
        assert report.passed, (a_list, report)
    with pytest.raises(SpecInvalid):
        verify_from_stats(stats, "levy_ottaviani", {"a_list": [1.0]})


def test_hoffmann_jorgensen_not_applicable():
    walk, params = preset_config("pd_walk", "hoffmann_jorgensen")
    stats = simulate_walk(RngStream(5), walk, paths=500)
    bad_count = verify_from_stats(stats, "hoffmann_jorgensen",
                                  {**params, "counts": [0, 1]})
    assert not bad_count.applicable and not bad_count.passed
    too_many = verify_from_stats(stats, "hoffmann_jorgensen",
                                 {**params, "counts": [8, 8],
                                  "thresholds": [1.0, 2.0]})
    assert not too_many.applicable
    assert "reason" in too_many.details
    ok = verify_from_stats(stats, "hoffmann_jorgensen", params)
    assert ok.applicable and "index_set" in ok.details


def test_group_mismatch_mixed_patterns_in_star_mode():
    pd = DistributionSpec(kind="wishart", pattern=(1, 1), cone="lpm",
                          sigma=np.eye(2), dof=4)
    signed = DistributionSpec(kind="wishart", pattern=(1, -1), cone="lpm",
                              sigma=np.eye(2), dof=4)
    with pytest.raises(GroupMismatch):
        simulate_walk(RngStream(6), [pd, signed], paths=10, group="star")
    # the same walk is fine in the global group
    stats = simulate_walk(RngStream(6), [pd, signed], paths=10, group="box")
    assert stats.n_steps == 2
    # reference point in another cone
    z1 = classify(np.diag([1.0, -1.0]))
    with pytest.raises(GroupMismatch):
        simulate_walk(RngStream(7), [pd, pd], paths=10, group="star", z1=z1)


def test_dimension_mismatch_and_empty_walk():
    pd2 = DistributionSpec(kind="wishart", pattern=(1, 1), cone="lpm",
                           sigma=np.eye(2), dof=4)
    pd3 = DistributionSpec(kind="wishart", pattern=(1, 1, 1), cone="lpm",
                           sigma=np.eye(3), dof=5)
    with pytest.raises(GroupMismatch):
        simulate_walk(RngStream(8), [pd2, pd3], paths=10)
    with pytest.raises(SpecInvalid):
        simulate_walk(RngStream(8), [], paths=10)


def test_unknown_inequality_and_preset():
    walk, params = preset_config("pd_walk", "mogulskii_min")
    stats = simulate_walk(RngStream(9), walk, paths=100)
    with pytest.raises(SpecInvalid):
        verify_from_stats(stats, "nope", params)
    with pytest.raises(SpecInvalid):
        preset_config("nope", "mogulskii_min")


def test_box_metric_pattern_penalty():
    # a mixed-cone walk with p = inf caps mismatch contributions at one
    walk, params = preset_config("mixed_box_walk", "ottaviani_skorohod")
    stats2 = simulate_walk(RngStream(10), walk, paths=500, group="box", p=2)
    stats_inf = simulate_walk(RngStream(10), walk, paths=500, group="box",
                              p=math.inf)
    assert np.all(stats_inf.d_z1 <= stats2.d_z1 + 1e-12)
    report = verify_from_stats(stats2, "ottaviani_skorohod", params)
    assert report.passed


def test_report_fields():
    walk, params = preset_config("pd_walk", "hoffmann_jorgensen")
    stats = simulate_walk(RngStream(11), walk, paths=1000)
    report = verify_from_stats(stats, "hoffmann_jorgensen", params)
    assert report.inequality == "hoffmann_jorgensen"
    assert report.n_paths == 1000
    assert report.details["lhs_threshold"] == pytest.approx(
        3 * 1.0 + 2 * 1 * 2.0 + 2 * 1.0)


def _stacked_walk(rng, walk, paths, group="star", p=2, z1=None):
    """(d_z1, d_to_end, d_inc) as simulate_walk computed them before it ran
    step by step and drew ahead: each step's draws then its arithmetic, in
    turn on one thread, every increment and pattern stacked into
    (paths, steps, .) arrays, cumsum / cumprod along the step axis, norms
    over 3-D arrays."""
    n = walk[0].dim
    etas, pats = [], []
    for spec in walk:
        draws = inequalities._step_draws(rng, spec, paths)
        v, pat = inequalities._step_increments(spec, draws)
        etas.append(v)
        pats.append(np.broadcast_to(pat, (paths, n)))
    etas = np.stack(etas, axis=1)
    pats = np.stack(pats, axis=1)
    z_eta, z_pat = inequalities._reference(z1, n)
    S_eta = np.cumsum(etas, axis=1)
    S_pat = np.cumprod(pats, axis=1)
    d_z1 = np.linalg.norm(S_eta - z_eta, axis=2)
    d_end = np.linalg.norm(S_eta[:, -1:, :] - S_eta, axis=2)
    d_inc = np.linalg.norm(etas, axis=2)
    if group == "box":
        combine = inequalities._combine
        d_z1 = combine(d_z1, np.any(S_pat != z_pat, axis=2), p)
        d_end = combine(d_end, np.any(S_pat != S_pat[:, -1:, :], axis=2), p)
        d_inc = combine(d_inc, np.any(pats != 1, axis=2), p)
    return d_z1, d_end, d_inc


def _assert_matches_stacked(seed, walk, paths, **kw):
    stats = simulate_walk(RngStream(seed), walk, paths, **kw)
    expected = _stacked_walk(RngStream(seed), walk, paths, **kw)
    for got, want in zip((stats.d_z1, stats.d_to_end, stats.d_inc), expected):
        assert got.shape == (paths, len(walk))
        assert got.flags.c_contiguous
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_presets_match_the_stacked_walk(name):
    walk, params = preset_config(name, INEQUALITIES[0])
    for seed in (0, 1):
        _assert_matches_stacked(seed, walk, 700, group=params["group"],
                                p=params.get("p", 2))
    for p in (1, 2, math.inf):
        _assert_matches_stacked(2, walk, 300, group="box", p=p)


def _walk_steps(n, eps):
    rng = np.random.default_rng(n)
    sigma = np.eye(n) + 0.2
    wishart = DistributionSpec(kind="wishart", pattern=eps, cone="lpm",
                               sigma=sigma / n, dof=n + 2)
    normal = DistributionSpec(kind="cholesky_normal",
                              m0=cone_compose(random_factor(rng, n), eps),
                              sigma_tilde=0.2 * np.eye(n * (n + 1) // 2))
    pd = DistributionSpec(kind="wishart", pattern=(1,) * n, cone="lpm",
                          sigma=sigma / n, dof=n + 2)
    clone = DistributionSpec(kind="inertial_clone", base=pd, all_cones=True)
    return {"wishart": [wishart] * 5, "cholesky_normal": [normal] * 4,
            "mixed": [wishart, normal, wishart], "clone": [clone, pd, clone]}


def _reference_points(n, eps):
    z = cone_compose(random_factor(np.random.default_rng(n + 1), n), eps)
    coords = np.random.default_rng(n + 2).standard_normal(n * (n + 1) // 2)
    return {"none": None, "cone_point": z, "big_group": BigGroupElement(z),
            "tuple": (coords, eps)}


@pytest.mark.parametrize("z_kind", ["none", "cone_point", "big_group", "tuple"])
@pytest.mark.parametrize("walk_kind", ["wishart", "cholesky_normal", "mixed", "clone"])
@pytest.mark.parametrize("n", [1, 3])
def test_walks_match_the_stacked_walk(n, walk_kind, z_kind):
    _assert_walk_kind_matches_stacked(n, walk_kind, z_kind)


def _assert_walk_kind_matches_stacked(n, walk_kind, z_kind):
    eps = (1,) if n == 1 else (1, -1, -1)
    walk = _walk_steps(n, eps)[walk_kind]
    z1 = _reference_points(n, eps)[z_kind]
    if walk_kind != "clone":  # clone paths lie in several cones
        _assert_matches_stacked(4, walk, 400, group="star", z1=z1)
    for p in (1, 2, math.inf):
        _assert_matches_stacked(5, walk, 400, group="box", p=p, z1=z1)


def test_wishart_walk_at_n10_matches_the_stacked_walk():
    rng = np.random.default_rng(6)
    eps = tuple(int(e) for e in rng.choice((1, -1), 10))
    walk = [DistributionSpec(kind="wishart", pattern=eps, cone="lpm",
                             sigma=np.eye(10) / 10, dof=12)] * 10
    _assert_matches_stacked(7, walk, 500)
    _assert_matches_stacked(7, walk, 500, group="box", p=3)


@pytest.mark.parametrize("n", [2, 5, 8, 9, 17])
def test_box_walk_pattern_rows_of_any_width_match_the_stacked_walk(n):
    """Pattern rows are padded to 2, 8, 8, 16 and 24 entries and compared 8
    at a time; every step, reference point and end mismatch is that of
    np.any over the unpadded rows."""
    rng = np.random.default_rng(n)
    pd = DistributionSpec(kind="wishart", pattern=(1,) * n, cone="lpm",
                          sigma=np.eye(n) / n, dof=n + 2)
    walk = [DistributionSpec(kind="inertial_clone", base=pd, all_cones=True), pd,
            DistributionSpec(kind="inertial_clone", base=pd, k=n // 2)] * 2
    eps = tuple(int(e) for e in rng.choice((1, -1), n))
    z1 = (rng.standard_normal(n * (n + 1) // 2), eps)
    for p in (1, math.inf):
        _assert_matches_stacked(8, walk, 300, group="box", p=p, z1=z1)


@pytest.fixture
def fast_switching():
    """The interpreter switches threads every microsecond, so that a walk's
    worker and its calling thread interleave as finely as they can."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


class _CountedThread(threading.Thread):
    started = 0

    def start(self):
        type(self).started += 1
        super().start()


@pytest.mark.parametrize("z_kind", ["none", "cone_point", "big_group", "tuple"])
@pytest.mark.parametrize("walk_kind", ["wishart", "cholesky_normal", "mixed", "clone"])
@pytest.mark.parametrize("n", [1, 3])
def test_walks_drawn_ahead_match_the_stacked_walk(fast_switching, n, walk_kind, z_kind):
    _assert_walk_kind_matches_stacked(n, walk_kind, z_kind)


def test_a_large_walk_draws_ahead_and_matches_the_stacked_walk(monkeypatch):
    rng = np.random.default_rng(10)
    eps = tuple(int(e) for e in rng.choice((1, -1), 10))
    lpm, tpm = (DistributionSpec(kind="wishart", pattern=eps, cone=cone, sigma=np.eye(10) / 10,
                                 dof=12) for cone in ("lpm", "tpm"))
    paths = 2400
    monkeypatch.setattr(_CountedThread, "started", 0)
    monkeypatch.setattr(threading, "Thread", _CountedThread)
    _assert_matches_stacked(11, [lpm] * 2, paths)
    _assert_matches_stacked(11, [tpm] * 3, paths, group="box", p=2)
    assert _CountedThread.started == 1 + 1  # one worker per walk


def _error_walks():
    eps = (1, -1, -1)
    good = DistributionSpec(kind="wishart", pattern=eps, cone="lpm", sigma=np.eye(3), dof=5)
    other = DistributionSpec(kind="wishart", pattern=(1, 1, 1), cone="lpm",
                             sigma=np.eye(3), dof=5)
    bad = DistributionSpec(kind="wishart", pattern=eps, cone="lpm", sigma=np.eye(3), dof=2)
    return good, other, bad


def _state_after_draws(seed, steps, paths):
    rng = RngStream(seed)
    for spec in steps:
        inequalities._step_draws(rng, spec, paths)
    return rng.generator.bit_generator.state


def test_drawn_ahead_errors_are_raised_at_their_step():
    good, other, bad = _error_walks()
    # Step 1 leaves the walk's cone while the worker meets step 2's invalid
    # spec: the step-1 GroupMismatch is raised.
    with pytest.raises(GroupMismatch):
        simulate_walk(RngStream(0), [good, other, bad], 100)
    # The worker's SpecInvalid is raised at step 2, after steps 0 and 1 were
    # summed; the invalid step draws nothing.
    # A step of a kind a walk cannot take raises the same way.
    inverse = DistributionSpec(kind="inverse_wishart", pattern=good.pattern, cone="lpm",
                               sigma=np.eye(3), dof=5)
    for step, message in ((bad, "dof 2 below dimension 3"),
                          (inverse, "walk steps cannot have kind 'inverse_wishart'")):
        rng = RngStream(0)
        with pytest.raises(SpecInvalid, match=message):
            simulate_walk(rng, [good, good, step, good], 100)
        assert rng.generator.bit_generator.state == _state_after_draws(0, [good, good], 100)
    # A step that raises in its arithmetic leaves the stream after the draws
    # of the next step, which ran ahead.
    rng = RngStream(0)
    with pytest.raises(GroupMismatch):
        simulate_walk(rng, [good, other, good, good], 100)
    assert rng.generator.bit_generator.state == _state_after_draws(0, [good, other, good], 100)


def test_walks_leave_no_thread_behind(monkeypatch):
    good, other, bad = _error_walks()
    step_draws = inequalities._step_draws

    def slow_draws(*args):  # a worker still drawing when its walk raises
        time.sleep(0.05)
        return step_draws(*args)

    monkeypatch.setattr(inequalities, "_step_draws", slow_draws)
    before = threading.active_count()
    simulate_walk(RngStream(0), [good] * 4, 100)
    assert threading.active_count() == before
    for walk, error in (([good, other, good], GroupMismatch), ([good, good, bad], SpecInvalid),
                        ([good, other, bad], GroupMismatch)):
        with pytest.raises(error):
            simulate_walk(RngStream(0), walk, 100)
        assert threading.active_count() == before


def test_an_interrupt_while_drawing_ahead_leaves_the_walk(monkeypatch):
    # An interrupt in step 1's draws, made on the worker while step 0 is
    # summed, is raised at step 1, and the worker is joined.
    good, _, _ = _error_walks()
    calls = {"draws": 0, "sums": 0}
    step_draws, step_increments = inequalities._step_draws, inequalities._step_increments

    def draws(*args):
        calls["draws"] += 1
        if calls["draws"] == 2:
            raise KeyboardInterrupt
        return step_draws(*args)

    def increments(*args, **kw):
        calls["sums"] += 1
        return step_increments(*args, **kw)

    monkeypatch.setattr(inequalities, "_step_draws", draws)
    monkeypatch.setattr(inequalities, "_step_increments", increments)
    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        simulate_walk(RngStream(0), [good] * 3, 100)
    assert calls == {"draws": 2, "sums": 1}
    assert threading.active_count() == before


def test_concurrent_walks_drawn_ahead_under_fast_switching(fast_switching):
    # Four walks on four threads, each with its own worker: eight threads,
    # more than a small host has cores, switching every microsecond; each
    # walk still equals its stacked walk.
    walk = _walk_steps(3, (1, -1, -1))["mixed"]
    results = {}

    def run(seed):
        results[seed] = simulate_walk(RngStream(seed), walk, 300, group="box")

    threads = [threading.Thread(target=run, args=(seed,)) for seed in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    for seed in range(4):
        expected = _stacked_walk(RngStream(seed), walk, 300, group="box")
        stats = results[seed]
        for got, want in zip((stats.d_z1, stats.d_to_end, stats.d_inc), expected):
            assert np.array_equal(got, want)


def test_extreme_probabilities_reduce_indicator_columns_as_the_list_form():
    rng = np.random.default_rng(12)
    for paths, cols in ((1, 1), (7, 3), (500, 10)):
        indicators = rng.random((paths, cols)) < rng.random(cols)
        columns = [indicators[:, k] for k in range(cols)]
        value = lambda t: t[0]
        assert inequalities._min_prob(indicators) == min(map(inequalities._prob, columns),
                                                         key=value)
        assert inequalities._max_prob(indicators) == max(map(inequalities._prob, columns),
                                                         key=value)


@pytest.mark.parametrize("width", range(1, 13))
def test_squared_norms_are_the_row_sums_of_add_reduce(width):
    # Rows of fewer than 8 entries are summed a column at a time, wider ones
    # by add.reduce; both must give its bits. Magnitudes from 1e-8 to 1e8 make
    # any other order of the sum show.
    rng = np.random.default_rng(width)
    y = rng.standard_normal((1000, width)) * 10.0 ** rng.uniform(-8, 8, (1000, width))
    want = np.add.reduce(y * y, axis=1)
    out = np.empty(1000)
    inequalities._squared_norms(y, np.empty_like(y), out)
    assert out.tobytes() == want.tobytes()
    inequalities._squared_norms(y, y, out)  # in place, as a walk calls it
    assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(1, 1), (9, 1), (7, 3), (500, 10)])
def test_row_folds_are_the_row_max_and_min(shape):
    # Small integers give ties and exact zeros in most rows.
    a = np.random.default_rng(shape[1]).integers(0, 3, shape).astype(float)
    for fold, reduce in ((np.maximum, np.max), (np.minimum, np.min)):
        for window in (a, a[:, shape[1] // 2:]):
            got = inequalities._fold_columns(fold, window)
            assert got.tobytes() == reduce(window, axis=1).tobytes()


def test_walk_memory_is_one_partial_sum_buffer():
    # The stacked form peaked at 4.5 times the (steps, paths, m) buffer here.
    n, steps, paths = 10, 10, 10_000
    rng = np.random.default_rng(8)
    eps = tuple(int(e) for e in rng.choice((1, -1), n))
    walk = [DistributionSpec(kind="wishart", pattern=eps, cone="lpm",
                             sigma=np.eye(n) / n, dof=n + 2)] * steps
    buffer = steps * paths * (n * (n + 1) // 2) * 8
    tracemalloc.start()
    try:
        simulate_walk(RngStream(9), walk, paths)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * buffer, peak / buffer


def test_reference_point_of_another_dimension():
    pd_walk, _ = preset_config("pd_walk", INEQUALITIES[0])
    wrong = [cone_compose(np.eye(2), (1, 1)), (np.zeros(3), (1, 1)),
             (np.zeros(2), (1,))]
    for z1 in wrong:
        for group in ("star", "box"):
            with pytest.raises(GroupMismatch, match="dimension"):
                simulate_walk(RngStream(0), pd_walk, 10, group=group, z1=z1)


@pytest.mark.parametrize("paths", [0, -5])
def test_walks_need_a_path(paths):
    walk, _ = preset_config("pd_walk", INEQUALITIES[0])
    with pytest.raises(SpecInvalid, match="at least one path"):
        simulate_walk(RngStream(0), walk, paths)


def _verify(capsys, tmp_path, preset, *argv):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"preset": preset}))
    code = main(["verify", "--config", str(config), *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("trials", ["--trials=0", "--trials=-5"])
def test_verify_without_trials_is_spec_invalid(capsys, tmp_path, trials):
    code, out, err = _verify(capsys, tmp_path, "pd_walk", "--inequality",
                             "mogulskii_min", "--seed", "1", trials)
    assert code == 1 and out == ""
    assert err.startswith("SpecInvalid: ")


# `lpmch verify --trials 1000 --seed 7` as printed by the stacked walk.
_SEEDED_VERIFY = {
    ("pd_walk", "ottaviani_skorohod"): """\
inequality: ottaviani_skorohod
paths: 1000
applicable: True
lhs: 0.19453000000000001 (se 0.011244235331937875)
rhs: 0.75 (se 0.013693063937629153)
passed: True
""",
    ("pd_walk", "hoffmann_jorgensen"): """\
inequality: hoffmann_jorgensen
paths: 1000
applicable: True
lhs: 0.0070000000000000001 (se 0.0026364749192814255)
rhs: 1.7403586500000001 (se 0.014806017673943846)
passed: True
""",
    ("mixed_box_walk", "levy_ottaviani"): """\
inequality: levy_ottaviani
paths: 1000
applicable: True
lhs: 0.98099999999999998 (se 0.0043172908171676388)
rhs: 2 (se 0)
passed: True
""",
    ("mixed_box_walk", "hoffmann_jorgensen"): """\
inequality: hoffmann_jorgensen
paths: 1000
applicable: True
lhs: 0.001 (se 0.00099949987493746085)
rhs: 1.9809999999999999 (se 0.0043172908171676362)
passed: True
""",
    ("deterministic_walk", "ottaviani_skorohod"): """\
inequality: ottaviani_skorohod
paths: 1000
applicable: True
lhs: 0 (se 0)
rhs: 0 (se 0)
passed: True
""",
    ("deterministic_walk", "hoffmann_jorgensen"): """\
inequality: hoffmann_jorgensen
paths: 1000
applicable: True
lhs: 0 (se 0)
rhs: 0 (se 0)
passed: True
""",
}


@pytest.mark.parametrize("preset, which", sorted(_SEEDED_VERIFY))
def test_seeded_verify_output_is_unchanged(capsys, tmp_path, preset, which):
    code, out, err = _verify(capsys, tmp_path, preset, "--inequality", which,
                             "--trials", "1000", "--seed", "7")
    assert code == 0 and err == ""
    assert out == _SEEDED_VERIFY[preset, which]


def test_star_walk_checks_every_path_of_every_step():
    base = DistributionSpec(kind="wishart", pattern=(1, 1), cone="lpm",
                            sigma=np.eye(2), dof=4)
    clone = DistributionSpec(kind="inertial_clone", base=base, all_cones=True)
    with pytest.raises(GroupMismatch):
        simulate_walk(RngStream(0), [clone], 1000, group="star")
    # A clone of one cone stays in it: inertia 0 is the all-plus cone only.
    pd_clone = DistributionSpec(kind="inertial_clone", base=base, k=0)
    stats = simulate_walk(RngStream(0), [pd_clone] * 3, 50, group="star",
                          z1=cone_compose(np.eye(2), (1, 1)))
    assert stats.d_z1.shape == (50, 3)


def test_walk_checks_run_before_the_first_draw():
    walk, _ = preset_config("pd_walk", INEQUALITIES[0])
    bad_calls = [(ValueError, {"group": "x"}),
                 (GroupMismatch, {"z1": (np.zeros(3), (1, 1))}),
                 (GroupMismatch, {"group": "box", "z1": cone_compose(np.eye(2), (1, 1))})]
    for error, kw in bad_calls:
        rng = RngStream(0)
        state = rng.generator.bit_generator.state
        with pytest.raises(error):
            simulate_walk(rng, walk, 10, **kw)
        assert rng.generator.bit_generator.state == state
    pd2 = DistributionSpec(kind="wishart", pattern=(1, 1), cone="lpm",
                           sigma=np.eye(2), dof=4)
    rng = RngStream(0)
    state = rng.generator.bit_generator.state
    with pytest.raises(GroupMismatch, match="mixed dimensions"):
        simulate_walk(rng, [walk[0], pd2], 10)
    assert rng.generator.bit_generator.state == state
    # A step without the fields that fix its dimension.
    incomplete = [DistributionSpec(kind="cholesky_normal", sigma_tilde=np.eye(1)),
                  DistributionSpec(kind="inertial_clone", all_cones=True),
                  DistributionSpec(kind="wishart", pattern=(1,), dof=3)]
    for step in incomplete:
        for steps in ([walk[0], step], [step, walk[0]]):
            with pytest.raises(SpecInvalid, match="needs"):
                simulate_walk(rng, steps, 10)
            assert rng.generator.bit_generator.state == state


@pytest.mark.parametrize("p", [0, 0.5, math.nan])
def test_box_walk_exponent_is_checked_before_the_first_draw(capsys, tmp_path, p):
    walk, _ = preset_config("mixed_box_walk", INEQUALITIES[0])
    rng = RngStream(0)
    state = rng.generator.bit_generator.state
    with pytest.raises(ValueError, match=r"p must be in \[1, inf\]"):
        simulate_walk(rng, walk, 10, group="box", p=p)
    assert rng.generator.bit_generator.state == state
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"preset": "mixed_box_walk", "p": p}))
    code = main(["verify", "--config", str(config), "--inequality", INEQUALITIES[0],
                 "--trials", "50", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: p must be in [1, inf]")


def test_verify_config_exponent_may_be_the_string_inf(capsys, tmp_path):
    which = "mogulskii_min"
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"preset": "mixed_box_walk", "p": "inf"}))
    code = main(["verify", "--config", str(config), "--inequality", which,
                 "--trials", "500", "--seed", "4"])
    out = capsys.readouterr().out
    assert code == 0
    walk, params = preset_config("mixed_box_walk", which)
    report = verify_inequality(RngStream(4), which, walk,
                               {**params, "paths": 500, "p": math.inf})
    assert f"lhs: {format_float(report.lhs)} (se {format_float(report.lhs_se)})" in out
    assert f"rhs: {format_float(report.rhs)} (se {format_float(report.rhs_se)})" in out


def test_verify_config_reference_point_reaches_the_walk(capsys, tmp_path):
    which = "mogulskii_min"
    config = tmp_path / "c.json"
    z1 = [[0.5], [1]]
    config.write_text(json.dumps({"preset": "pd_walk", "z1": z1}))
    code = main(["verify", "--config", str(config), "--inequality", which,
                 "--trials", "500", "--seed", "4"])
    out = capsys.readouterr().out
    assert code == 0
    walk, params = preset_config("pd_walk", which)
    shifted = verify_inequality(RngStream(4), which, walk, {**params, "paths": 500, "z1": z1})
    plain = verify_inequality(RngStream(4), which, walk, {**params, "paths": 500})
    assert shifted.lhs != plain.lhs
    assert f"lhs: {format_float(shifted.lhs)} (se {format_float(shifted.lhs_se)})" in out
    assert f"rhs: {format_float(shifted.rhs)} (se {format_float(shifted.rhs_se)})" in out
    # A reference point outside the walk's one cone is refused.
    config.write_text(json.dumps({"preset": "pd_walk", "z1": [[0.0], [-1]]}))
    code = main(["verify", "--config", str(config), "--inequality", which,
                 "--trials", "500", "--seed", "4"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("GroupMismatch: ")


def test_verify_config_reference_pattern_may_be_a_string(capsys, tmp_path):
    outputs = []
    for z1 in ([[0.5], "+"], [[0.5], [1]]):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"preset": "pd_walk", "z1": z1}))
        code = main(["verify", "--config", str(config), "--inequality", "mogulskii_min",
                     "--trials", "500", "--seed", "4"])
        assert code == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]


# Values of a JSON type that fits no parameter, by their JSON names. A list
# holding null fits neither a number nor a list of numbers.
_MISFITS = {"null": None, "bool": True, "string": "x", "list": [None], "object": {"x": 1}}


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("which", INEQUALITIES)
def test_a_verify_config_value_of_the_wrong_type_is_a_usage_error(capsys, tmp_path, preset,
                                                                   which):
    _, params = preset_config(preset, which)
    for key in params:
        for kind, value in _MISFITS.items():
            config = tmp_path / "c.json"
            config.write_text(json.dumps({"preset": preset, key: value}))
            code = main(["verify", "--config", str(config), "--inequality", which,
                         "--trials", "50", "--seed", "1"])
            captured = capsys.readouterr()
            assert (code, captured.out) == (2, ""), (key, kind)
            assert captured.err.startswith(f"error: {key} must be "), (key, kind, captured.err)


@pytest.mark.parametrize("key, value", [
    ("z1", 5), ("z1", True), ("z1", "x"), ("z1", {"x": 1}), ("z1", [[0.5], "+", 1]),
    ("z1", [["x"], "+"]), ("z1", [[0.5], [True]]), ("m", 1.5), ("counts", [2, 0.5]),
    ("preset", None), ("preset", ["pd_walk"])])
def test_verify_config_values_that_no_walk_takes_are_usage_errors(capsys, tmp_path, key,
                                                                   value):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"preset": "pd_walk", key: value}))
    code = main(["verify", "--config", str(config), "--inequality", "hoffmann_jorgensen",
                 "--trials", "50", "--seed", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"error: {key} must be ")


def test_parameter_types_are_checked_before_the_first_draw():
    walk, params = preset_config("pd_walk", "mogulskii_min")
    rng = RngStream(0)
    state = rng.generator.bit_generator.state
    with pytest.raises(ValueError, match="a must be a number, got None"):
        verify_inequality(rng, "mogulskii_min", walk, {**params, "a": None})
    assert rng.generator.bit_generator.state == state
    stats = simulate_walk(rng, walk, paths=20)
    with pytest.raises(ValueError, match="b must be a number, got True"):
        verify_from_stats(stats, "mogulskii_min", {**params, "b": True})
    # Integral floats are integers, and the README's reference points pass.
    for z1 in ([[0.5], [1]], [[0.5], "+"], None):
        verify_from_stats(stats, "mogulskii_min", {**params, "m": 1.0, "z1": z1})
