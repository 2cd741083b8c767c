"""Monte-Carlo verification of stochastic inequalities for cone-valued walks.

A walk is a list of step distributions; partial sums are taken in the
per-cone group (fixed pattern, factor coordinates add) or in the global
group (patterns multiply as well). Both sides of each inequality are
estimated on the same simulated paths, and a report compares them with a
three-standard-error allowance.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .core import LPM, ConePoint, as_pattern, pattern_from_string
from .geometry import eta
from .errors import GroupMismatch, SpecInvalid
from .sampling import DistributionSpec, _law
from .biggroup import BigGroupElement, _check_p, _combine

__all__ = ["Report", "WalkStats", "simulate_walk", "verify_from_stats",
           "verify_inequality", "INEQUALITIES", "PRESETS", "preset_config"]

INEQUALITIES = ("mogulskii_min", "mogulskii_max", "ottaviani_skorohod",
                "levy_ottaviani", "hoffmann_jorgensen")


@dataclass
class Report:
    """Estimates of both sides of one inequality, with a pass flag."""

    inequality: str
    n_paths: int
    lhs: float
    rhs: float
    lhs_se: float
    rhs_se: float
    passed: bool
    applicable: bool = True
    details: dict = field(default_factory=dict)


@dataclass
class WalkStats:
    """Per-path distance summaries of a simulated walk.

    d_z1[i, k]: distance from the reference point to the k-th partial sum;
    d_to_end[i, k]: distance from the k-th partial sum to the last one;
    d_inc[i, k]: distance from the identity to the k-th increment.
    Each array is C-contiguous with shape (n_paths, n_steps): one row per
    path.
    """

    n_paths: int
    n_steps: int
    d_z1: np.ndarray
    d_to_end: np.ndarray
    d_inc: np.ndarray


def _step_draws(rng, spec, paths, out=None):
    """The draws of one walk step for every path: the draws of the step's
    law (see sampling), filled into out (paths n(n+1)/2 floats) when it is
    given. An invalid spec, or one of a kind a walk cannot take, raises
    SpecInvalid before the first draw."""
    law = _law(spec)
    if law.increments is None:
        raise SpecInvalid(f"walk steps cannot have kind {spec.kind!r}")
    return law.draws(rng.generator, paths, out)


def _step_increments(spec, draws, out=None):
    """The arithmetic of one walk step, by the step's law: its coordinate
    increments (the law's increments), written into out (paths, m) when it
    is given, from its draws, and their patterns (the law's patterns, as
    the samplers read them): one (n,) pattern shared by every path, or
    (paths, n) for a clone step."""
    law = _law(spec)
    return law.increments(draws, out), np.asarray(law.patterns(draws), dtype=int)


def _fold_columns(ufunc, a, out=None):
    """ufunc.reduce(a, axis=1) of a 2-D array with at least one column, as a
    fold of its columns from left to right, into out when it is given.

    A reduction along a short row axis runs one inner loop per row; the fold
    runs one loop down the long axis per column (a max at 20000 x 10 takes
    under a quarter of the time). Maximum and minimum give the bits of ufunc.reduce in
    any order; add gives them only where reduce also sums from left to
    right (see _squared_norms)."""
    if out is None:
        out = a[:, 0].copy()
    else:
        np.copyto(out, a[:, 0])
    for j in range(1, a.shape[1]):
        ufunc(out, a[:, j], out=out)
    return out


def _squared_norms(y, scratch, out):
    """out[i] = the sum of y[i] * y[i], as np.linalg.norm(y, axis=1) sums it
    before its square root (add.reduce along the row), with y * y in
    scratch.

    Rows of fewer than 8 coordinates (n <= 3) are summed down the path axis,
    one column at a time. NumPy sums such a row from left to right, as the
    fold does; from 8 entries on it sums pairwise, so wider rows keep
    add.reduce. The stacked-walk tests hold this against np.linalg.norm."""
    np.multiply(y, y, out=scratch)
    if y.shape[1] < 8:
        _fold_columns(np.add, scratch, out)
    else:
        np.add.reduce(scratch, axis=1, out=out)


def _norms(squared):
    """The C-contiguous (paths, steps) square roots of (steps, paths) squared
    norms."""
    out = np.empty(squared.shape[::-1])
    np.sqrt(squared.T, out=out)
    return out


def _row_width(n):
    """Entries per padded pattern row: the least of 1, 2, 4 and 8 that is at
    least n, else n rounded up to a multiple of 8."""
    return next((w for w in (1, 2, 4, 8) if w >= n), -(-n // 8) * 8)


def _padded_rows(pat, width):
    """The +-1 pattern row (n,) or rows (paths, n) pat as int8 rows of the
    given width, padded with +1."""
    out = np.ones(pat.shape[:-1] + (width,), dtype=np.int8)
    out[..., :pat.shape[-1]] = pat
    return out


def _mismatch(rows, ref):
    """Whether each padded pattern row of rows differs from ref, broadcast
    against rows, comparing 8 entries at a time as one integer; np.any along
    a short row axis would run one inner loop per row."""
    wide = np.dtype(f"i{min(rows.shape[-1], 8)}")
    a, b = rows.view(wide), ref.view(wide)
    out = a[..., 0] != b[..., 0]
    for j in range(1, a.shape[-1]):
        out |= a[..., j] != b[..., j]
    return out


def _reference(z1, n):
    if z1 is None:
        return np.zeros(n * (n + 1) // 2), np.ones(n, dtype=int)
    if isinstance(z1, ConePoint):
        z1 = BigGroupElement(z1)
    if isinstance(z1, BigGroupElement):
        return eta(z1.factor), np.array(z1.pattern, dtype=int)
    v, pattern = z1
    if isinstance(pattern, str):
        pattern = pattern_from_string(pattern)
    return np.asarray(v, dtype=float), np.array(as_pattern(pattern), dtype=int)


def simulate_walk(rng, walk, paths, group="star", p=2, z1=None):
    """Simulate partial sums of the walk and collect the distance arrays.

    group='star' works inside one cone: every path of every step, and z1 if
    given, must share one pattern. group='box' works in the global group,
    where the metric adds a unit penalty for a pattern mismatch via the l^p
    norm.

    The walk runs one step at a time. A step's increments are drawn for all
    paths at once and added into one (steps, paths, m) float buffer of
    partial sums, m = n(n+1)/2 coordinates; box walks also keep a
    (steps, paths, w) int8 buffer of pattern products, each row padded with
    +1 to a width w of 1, 2, 4 or a multiple of 8 entries, so that a row is
    compared with another as one integer per 8 entries. A step is its draws
    (its random-stream calls; see sampling) and its arithmetic. Step k + 1's
    draws run on the walk's one worker thread while the calling thread turns
    step k's draws into increments, partial sums and distances. The stream
    is still read by one thread at a time, in step order, so the result is
    bit for bit that of drawing and summing in turn, on any number of cores.
    Memory is therefore those buffers and two (paths, m) draw buffers (the
    draws run one step ahead; a spent one is the scratch of the distances),
    plus the temporaries of one block of paths. No thread outlives the call.
    The returned arrays are C-contiguous (paths, steps); see WalkStats.

    Before the first draw, fewer than one path raises SpecInvalid, another
    group or a box walk's p outside [1, inf] ValueError, and steps or a z1
    of mixed dimensions GroupMismatch. A star step outside the walk's one
    cone raises GroupMismatch, and an invalid step SpecInvalid, at that
    step; so does any exception of a step's draws, an interrupt included.
    When a walk raises at one step, the stream may also have given the draws
    of the next one.
    """
    walk = list(walk)
    if not walk:
        raise SpecInvalid("walk must have at least one step")
    if paths < 1:
        raise SpecInvalid(f"a walk needs at least one path, got {paths}")
    if group not in ("star", "box"):
        raise ValueError(f"group must be 'star' or 'box', got {group!r}")
    p = _check_p(p) if group == "box" else p
    n = walk[0].dim
    m = n * (n + 1) // 2
    if any(spec.dim != n for spec in walk):
        raise GroupMismatch("walk steps have mixed dimensions")
    z_eta, z_pat = _reference(z1, n)
    if z_eta.shape != (m,) or z_pat.shape != (n,):
        raise GroupMismatch(f"reference point does not have the walk's dimension {n}")
    # The one pattern of a star walk: z1's, else that of the first draw.
    star_pattern = z_pat if group == "star" and z1 is not None else None
    steps = len(walk)
    S = np.empty((steps, paths, m))
    width = _row_width(n)
    P = np.empty((steps, paths, width), dtype=np.int8) if group == "box" else None
    # Squared norms, one contiguous row per step; rooted after the walk.
    sq_z1, sq_end, sq_inc = (np.empty((steps, paths)) for _ in range(3))
    mis_inc = []
    # Step k's draws fill buffers[k % 2] while step k - 1 is summed; once
    # step k's increments are made, its buffer is the scratch of its norms.
    buffers = (np.empty((paths, m)), np.empty((paths, m)))
    # Imported here: of this module, only a walk needs it.
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=1) as worker:
        ahead = worker.submit(_step_draws, rng, walk[0], paths, buffers[0].reshape(-1))
        for k, spec in enumerate(walk):
            draws = ahead.result()
            if k + 1 < steps:
                ahead = worker.submit(_step_draws, rng, walk[k + 1], paths,
                                      buffers[(k + 1) % 2].reshape(-1))
            v, pat = _step_increments(spec, draws, out=S[k])
            if group == "star":
                if star_pattern is None:
                    star_pattern = pat.reshape(-1, n)[0]
                if np.any(pat != star_pattern):
                    raise GroupMismatch("per-cone walks need one pattern shared by "
                                        "every path, every step and the reference point")
            scratch = buffers[k % 2]
            _squared_norms(v, scratch, sq_inc[k])
            if k > 0:
                np.add(v, S[k - 1], out=S[k])
            np.subtract(S[k], z_eta, out=scratch)
            _squared_norms(scratch, scratch, sq_z1[k])
            if P is not None:
                row = _padded_rows(pat, width)
                if k == 0:
                    P[0] = row
                else:
                    np.multiply(P[k - 1], row, out=P[k])
                mis_inc.append(np.broadcast_to(_mismatch(row, np.ones(width, np.int8)), paths))

    scratch = buffers[0]
    for k in range(steps):
        np.subtract(S[-1], S[k], out=scratch)
        _squared_norms(scratch, scratch, sq_end[k])
    d_z1, d_end, d_inc = _norms(sq_z1), _norms(sq_end), _norms(sq_inc)
    if P is not None:
        mis_z1 = np.ascontiguousarray(_mismatch(P, _padded_rows(z_pat, width)).T)
        mis_end = np.ascontiguousarray(_mismatch(P, P[-1]).T)
        d_z1 = _combine(d_z1, mis_z1, p)
        d_end = _combine(d_end, mis_end, p)
        d_inc = _combine(d_inc, np.stack(mis_inc, axis=1), p)
    return WalkStats(n_paths=paths, n_steps=steps, d_z1=d_z1, d_to_end=d_end,
                     d_inc=d_inc)


def _prob(indicator):
    p = float(np.mean(indicator))
    return p, math.sqrt(p * (1.0 - p) / indicator.shape[0])


def _product(terms):
    """(value, se) of a product of (value, se) estimates, by the delta method."""
    values = [v for v, _ in terms]
    value = float(np.prod(values))
    var = 0.0
    for i, (_, se) in enumerate(terms):
        rest = float(np.prod(values[:i] + values[i + 1:]))
        var += (rest * se) ** 2
    return value, math.sqrt(var)


def _column_counts(indicators):
    """The true entries of each column of a (paths, k) boolean array, as one
    matrix-vector product; sums of 0s and 1s are exact in any order. (An
    axis-0 mean runs one short inner loop per row: 4 times slower at 20000
    x 10.)"""
    return np.ones(indicators.shape[0]) @ indicators


def _min_prob(indicators):
    """min_k P(event_k) over the columns k of a (paths, k) indicator array:
    value and the SE of the minimizing estimate (the first, on a tie)."""
    return _prob(indicators[:, np.argmin(_column_counts(indicators))])


def _max_prob(indicators):
    return _prob(indicators[:, np.argmax(_column_counts(indicators))])


def _is_number(x):
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _is_integer(x):
    return _is_number(x) and float(x).is_integer()


def _is_list_of(kind):
    return lambda x: isinstance(x, (list, tuple, np.ndarray)) and all(map(kind, x))


def _is_reference(z1):
    """None, a cone point, a big-group element, or a pair (chart
    coordinates, pattern) with the pattern a '+-' string or a list of
    integers; _reference reads it."""
    if z1 is None or isinstance(z1, (ConePoint, BigGroupElement)):
        return True
    if not (isinstance(z1, (list, tuple)) and len(z1) == 2):
        return False
    v, pattern = z1
    return _is_list_of(_is_number)(v) and (isinstance(pattern, str)
                                           or _is_list_of(_is_integer)(pattern))


# The type of each parameter a walk or an inequality reads: its test and
# what a value must be. A boolean is not a number.
_PARAM_TYPES = {
    **dict.fromkeys(("a", "b", "alpha", "beta", "s"), (_is_number, "a number")),
    **dict.fromkeys(("m", "paths"), (_is_integer, "an integer")),
    **dict.fromkeys(("a_list", "thresholds"), (_is_list_of(_is_number), "a list of numbers")),
    "counts": (_is_list_of(_is_integer), "a list of integers"),
    "group": (lambda x: isinstance(x, str), "a string"),
    # p goes through float (see biggroup._check_p), so "inf" is one.
    "p": (lambda x: _is_number(x) or isinstance(x, str), "in [1, inf]"),
    "z1": (_is_reference, "null or a pair [coordinates, pattern]"),
}


def _check_params(params):
    """ValueError naming the first parameter whose value has the wrong type
    (see _PARAM_TYPES). Keys that no walk or inequality reads are left
    alone."""
    for key, value in params.items():
        if key in _PARAM_TYPES and not _PARAM_TYPES[key][0](value):
            raise ValueError(f"{key} must be {_PARAM_TYPES[key][1]}, got {value!r}")


def verify_from_stats(stats, which, params):
    """Evaluate one inequality on precomputed walk statistics. A parameter
    of the wrong type raises ValueError naming it.

    The maxima and minima over steps fold the step columns down the path
    axis (_fold_columns), since a reduction along each path's short row runs
    one inner loop per path; they are exact, so the reports are those of
    np.max and np.min along the rows."""
    _check_params(params)
    n = stats.n_steps
    d_z1, d_end, d_inc = stats.d_z1, stats.d_to_end, stats.d_inc
    details = dict(params)

    if which in ("mogulskii_min", "mogulskii_max"):
        a, b = float(params["a"]), float(params["b"])
        m = int(params.get("m", 1))
        if not 1 <= m <= n:
            raise SpecInvalid(f"need 1 <= m <= n, got m={m}")
        window = slice(m - 1, n)
        if which == "mogulskii_min":
            first = _prob(_fold_columns(np.minimum, d_z1[:, window]) <= a)
            rhs = _prob(d_z1[:, -1] <= a + b)
        else:
            first = _prob(_fold_columns(np.maximum, d_z1[:, window]) >= a)
            rhs = _prob(d_z1[:, -1] >= a - b)
        second = _min_prob(d_end[:, window] <= b)
        lhs = _product([first, second])
    elif which == "ottaviani_skorohod":
        alpha, beta = float(params["alpha"]), float(params["beta"])
        first = _prob(_fold_columns(np.maximum, d_z1) >= alpha + beta)
        second = _min_prob(d_end <= beta)
        lhs = _product([first, second])
        rhs = _prob(d_z1[:, -1] >= alpha)
    elif which == "levy_ottaviani":
        a_list = [float(a) for a in params["a_list"]]
        l = len(a_list)
        if l < 2:
            raise SpecInvalid("levy_ottaviani needs at least two thresholds")
        U = _fold_columns(np.maximum, d_z1)
        lhs = _prob(U > sum(a_list))
        terms = [_max_prob(d_z1 > a) for a in a_list[1:]]
        terms.append(_max_prob((d_z1 if l % 2 == 1 else d_end) > a_list[0]))
        rhs = (sum(v for v, _ in terms),
               math.sqrt(sum(se**2 for _, se in terms)))
    elif which == "hoffmann_jorgensen":
        counts = [int(c) for c in params["counts"]]
        thresholds = [float(t) for t in params["thresholds"]]
        s = float(params["s"])
        if len(counts) != len(thresholds) or not counts:
            raise SpecInvalid("counts and thresholds must align and be nonempty")
        reason = ("every count must be >= 1" if any(c < 1 for c in counts) else
                  "sum of counts exceeds n+1" if sum(counts) > n + 1 else None)
        if reason:
            return Report(inequality=which, n_paths=stats.n_paths, lhs=math.nan,
                          rhs=math.nan, lhs_se=math.nan, rhs_se=math.nan,
                          passed=False, applicable=False,
                          details={**details, "reason": reason})
        U = _fold_columns(np.maximum, d_z1)
        M = _fold_columns(np.maximum, d_inc)
        le = [_prob(U <= t) for t in thresholds]
        gt = [(1.0 - v, se) for v, se in le]
        in_zero = [le[i][0] ** (counts[i] - (1 if i == 0 else 0))
                   <= 1.0 / math.factorial(counts[i])
                   for i in range(len(counts))]
        bound = ((2 * counts[0] - 1) * thresholds[0]
                 + 2 * sum(c * t for c, t in zip(counts[1:], thresholds[1:]))
                 + (sum(counts) - 1) * s)
        lhs = _prob(U > bound)
        head = _prob(M > s)
        factors = []
        if not in_zero[0]:
            factors.append(le[0])
        for i, (c, flag) in enumerate(zip(counts, in_zero)):
            v, se = gt[i]
            if flag:
                factors.append((v**c, c * v ** max(c - 1, 0) * se))
            else:
                ratio = v / le[i][0]
                dratio = se / le[i][0] ** 2  # d(v/(1-v))/dv = 1/(1-v)^2
                factors.append((ratio**c / math.factorial(c),
                                c * ratio ** max(c - 1, 0) * dratio
                                / math.factorial(c)))
        tail = _product(factors) if factors else (1.0, 0.0)
        rhs = (head[0] + tail[0], math.sqrt(head[1] ** 2 + tail[1] ** 2))
        details["index_set"] = [i + 1 for i, f in enumerate(in_zero) if f]
        details["lhs_threshold"] = bound
    else:
        raise SpecInvalid(f"unknown inequality {which!r}; choose from {INEQUALITIES}")

    lhs_v, lhs_se = lhs
    rhs_v, rhs_se = rhs
    slack = 3.0 * math.sqrt(lhs_se**2 + rhs_se**2)
    return Report(inequality=which, n_paths=stats.n_paths, lhs=lhs_v, rhs=rhs_v,
                  lhs_se=lhs_se, rhs_se=rhs_se,
                  passed=bool(lhs_v <= rhs_v + slack), details=details)


def verify_inequality(rng, which, walk, params):
    """Simulate the walk and check one inequality; see verify_from_stats.

    params may carry 'paths' (default 10000), 'group' ('star' or 'box'),
    'p' (for the global metric), 'z1' (reference point), and the constants of
    the chosen inequality. A parameter of the wrong type raises ValueError
    naming it before the walk starts.
    """
    _check_params(params)
    stats = simulate_walk(rng, walk, paths=int(params.get("paths", 10_000)),
                          group=params.get("group", "star"),
                          p=params.get("p", 2), z1=params.get("z1"))
    return verify_from_stats(stats, which, params)


# Every preset walk has this many steps.
_STEPS = 10


def _lognormal_step(sigma_tilde):
    """A Cholesky-normal step around the 1 x 1 identity."""
    return DistributionSpec(kind="cholesky_normal",
                            m0=ConePoint(matrix=np.eye(1), cone=LPM, pattern=(1,)),
                            sigma_tilde=np.array([[sigma_tilde]]))


def _preset_pd():
    return [_lognormal_step(1.0)] * _STEPS, {"group": "star"}


def _preset_box():
    base = DistributionSpec(kind="wishart", pattern=(1, 1), cone=LPM,
                            sigma=0.25 * np.eye(2), dof=4)
    step = DistributionSpec(kind="inertial_clone", base=base, all_cones=True)
    return [step] * _STEPS, {"group": "box", "p": 2}


def _preset_deterministic():
    return [_lognormal_step(0.0)] * _STEPS, {"group": "star"}


PRESETS = {
    "pd_walk": _preset_pd,
    "mixed_box_walk": _preset_box,
    "deterministic_walk": _preset_deterministic,
}

_PRESET_PARAMS = {
    "mogulskii_min": {"a": 1.0, "b": 1.0, "m": 1},
    "mogulskii_max": {"a": 2.0, "b": 1.0, "m": 1},
    "ottaviani_skorohod": {"alpha": 1.0, "beta": 1.0},
    "levy_ottaviani": {"a_list": [1.0, 1.0]},
    "hoffmann_jorgensen": {"counts": [2, 1], "thresholds": [1.0, 2.0], "s": 1.0},
}


def preset_config(name, which):
    """(walk, params) for one named preset and one inequality."""
    if not isinstance(name, str):
        raise ValueError(f"preset must be a string, got {name!r}")
    if name not in PRESETS:
        raise SpecInvalid(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    walk, base = PRESETS[name]()
    params = dict(base)
    params.update(_PRESET_PARAMS[which])
    return walk, params
