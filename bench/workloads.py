"""The benchmark's four workloads: seeded inputs, one round of tasks, checks.

A workload is one round of tasks, the same list in every round of a run
and in every run with the same seed. A task is one call (or a fixed batch
of calls) into lpmch plus a check of its output against a reference made
by ``refs`` without lpmch. ``check`` returns the relative error when the
output has a numerical reference and None when the check is exact (a
pattern, an exit code, a pass flag); it raises ``refs.CheckError`` on a
wrong answer.

Tasks carry ``layer``, the per-layer metric their call feeds in a traced
run, and ``calls``, how many calls into that layer one task makes.
"""

import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

import lpmch
from lpmch import inequalities, matio
from lpmch.cli import main as cli_main
from lpmch.core import ConePoint
from lpmch.sampling import wishart_factors

import refs
from refs import CheckError, UNIT_ROUNDOFF as U

WORKLOADS = ("factor-large", "stats-small", "walk-mc", "cli-calls")

# Relative-error ceilings. Factors and compositions of well-conditioned
# inputs come out within a few n*u; these ceilings leave two or more orders
# of magnitude of room and still reject a relative perturbation of 1e-6.
FACTOR_C = 100.0        # forward error <= FACTOR_C * n * u * cond(A) * cond(B)
BACKWARD_C = 100.0      # ||F B F* - A|| / ||A|| <= BACKWARD_C * n * u * growth
SMALL_TOL = 1e-9        # everything computed at n <= 12


@dataclass
class Task:
    cls: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[float]]
    layer: Optional[str] = None
    calls: int = 1
    # The host-speed probe timed around the call (see refs.PROBE_REF_S).
    probe: Callable[[], float] = refs.probe_s


@dataclass
class Workload:
    name: str
    tasks: list
    # Trace-only calls for per-layer metrics that no task of the round feeds.
    probes: list = field(default_factory=list)
    # Checks whose references need scipy.stats, run after the timed phase so
    # that importing scipy.stats does not count against the program's memory.
    finish: Callable[[], list] = lambda: []
    close: Callable[[], None] = lambda: None
    # Tasks run once, unchecked, before timing; by default the first task of
    # every kind of call, whatever its size.
    warmup: Optional[list] = None

    def warmup_tasks(self):
        if self.warmup is not None:
            return self.warmup
        first = {}
        for t in self.tasks:
            first.setdefault(re.sub(r"\.n\d+.*$", "", t.cls), t)
        return list(first.values())


def _point(M, cone, eps):
    return ConePoint(matrix=M, cone=cone, pattern=tuple(eps))


def _lower_inverse_product(LA, LB, cone):
    """Known factor of A against basis B: LA LB^-1 (LPM) or LB^-1 LA (TPM)."""
    if cone == "lpm":
        return np.linalg.solve(LB.T, LA.T).T
    return np.linalg.solve(LB, LA)


# ----------------------------------------------------------------------------
# factor-large: the elimination kernel at n = 64 and n = 256
# ----------------------------------------------------------------------------

# Fifteen points at n = 64 and six at n = 256, so that a round holds 100
# tasks: the median task falls among the n = 64 factorizations and the 90th
# percentile, with ten tasks beyond it, among the n = 256 ones.
SMALL_KINDS = [("lpm", "random"), ("tpm", "random"), ("lpm", "kron"),
               ("tpm", "kron"), ("lpm", "plus"), ("tpm", "random"),
               ("lpm", "dsum"), ("tpm", "plus"), ("lpm", "random"),
               ("tpm", "random"), ("lpm", "kron"), ("tpm", "kron"),
               ("lpm", "random"), ("tpm", "random"), ("lpm", "random")]
LARGE_KINDS = [("lpm", "random"), ("tpm", "random"), ("lpm", "dsum-plus"),
               ("lpm", "plus"), ("tpm", "random"), ("lpm", "random")]


def _structured_input(rng, n, cone, kind):
    """(A, L, eps): a cone point's matrix, its known factor, and its pattern."""
    if kind == "kron":
        parts = [(refs.random_factor(rng, k), refs.random_pattern(rng, k))
                 for k in (8, n // 8)]
        L = np.kron(parts[0][0], parts[1][0])
        d = np.kron(refs.canonical_signs(parts[0][1]),
                    refs.canonical_signs(parts[1][1]))
        eps = refs.pattern_of_signs(d)
        A = np.kron(*(refs.cone_matrix(Lp, ep, cone) for Lp, ep in parts))
        return A, L, eps
    if kind in ("dsum", "dsum-plus"):
        blocks = []
        for _ in range(n // 8):
            Lb = refs.random_factor(rng, 8)
            eb = (1,) * 8 if kind == "dsum-plus" else refs.random_pattern(rng, 8)
            blocks.append((Lb, eb))
        L = refs.block_diag([b[0] for b in blocks])
        d = np.concatenate([refs.canonical_signs(b[1]) for b in blocks])
        eps = refs.pattern_of_signs(d)
        if cone != "lpm":
            raise ValueError("direct-sum inputs are leading-minor points")
        return refs.block_diag([refs.lpm_matrix(Lb, eb) for Lb, eb in blocks]), L, eps
    eps = (1,) * n if kind == "plus" else refs.random_pattern(rng, n)
    L = refs.random_factor(rng, n)
    return refs.cone_matrix(L, eps, cone), L, eps


class _FactorCase:
    """One cone point with a known factor, a general basis and references."""

    def __init__(self, rng, n, cone, kind):
        self.n, self.cone, self.kind = n, cone, kind
        A, self.L, self.eps = _structured_input(rng, n, cone, kind)
        self.A = _point(A, cone, self.eps)
        LB = refs.random_factor(rng, n)
        self.B = _point(refs.cone_matrix(LB, self.eps, cone), cone, self.eps)
        self.F_general = _lower_inverse_product(self.L, LB, cone)
        self.canon = lpmch.canonical_point(self.eps, cone)
        self.delta = refs.random_pattern(rng, n)
        self._cond = {}
        self._minors = None

    def cond(self, key, M):
        if key not in self._cond:
            self._cond[key] = float(np.linalg.cond(M))
        return self._cond[key]

    def check_factor(self, F, basis):
        known = self.L if basis is self.canon else self.F_general
        n = self.n
        tol = FACTOR_C * n * U * self.cond("A", self.A.matrix) * self.cond(
            id(basis), basis.matrix)
        err = refs.expect_close(F, known, tol, f"factor {self.cone} n={n}")
        if np.any(np.triu(F, 1) != 0):
            raise CheckError("factor is not lower triangular")
        Bm = basis.matrix
        back = F @ Bm @ F.T if self.cone == "lpm" else F.T @ Bm @ F
        growth = (float(np.linalg.norm(F)) ** 2 * float(np.linalg.norm(Bm))
                  / float(np.linalg.norm(self.A.matrix)))
        btol = BACKWARD_C * n * U * max(1.0, growth)
        refs.expect_close(back, self.A.matrix, btol,
                          f"backward residual {self.cone} n={n}")
        return err

    def check_compose(self, out):
        refs.expect_equal((out.cone, out.pattern), (self.cone, self.eps), "compose cone")
        return refs.expect_close(out.matrix, self.A.matrix,
                                 BACKWARD_C * self.n * U, f"compose n={self.n}")

    def check_resign(self, out):
        refs.expect_equal(out.pattern, self.delta, "resign pattern")
        ref = refs.lpm_matrix(self.L, self.delta)
        return refs.expect_close(out.matrix, ref,
                                 BACKWARD_C * self.n * U * self.cond("A", self.A.matrix),
                                 f"resign n={self.n}")

    def check_minors(self, minors):
        if self._minors is None:
            work = self.A.matrix if self.cone == "lpm" else refs.reverse(self.A.matrix)
            self._minors = refs.leading_slogdets(work)
        signs, logs = self._minors
        minors = np.asarray(minors, dtype=float)
        if not np.all(np.isfinite(minors)) or np.any(np.sign(minors) != signs):
            raise CheckError(f"leading minor signs disagree with slogdet (n={self.n})")
        if np.any(signs != np.asarray(self.eps)):
            raise CheckError("slogdet signs disagree with the constructed pattern")
        # log|minor| error, relative to the size of the log-magnitudes.
        err = float(np.max(np.abs(np.log(np.abs(minors)) - logs)))
        err /= max(1.0, float(np.max(np.abs(logs))))
        if not err <= SMALL_TOL:
            raise CheckError(f"log|minors| off by {err:.3e} (n={self.n})")
        return err

    def tasks(self):
        # Task classes name the input family too: a later kernel may treat
        # structured inputs differently from random ones.
        tag = f"n{self.n}"
        fam = f"{tag}.{self.kind}"
        A, canon, B = self.A, self.canon, self.B
        if self.cone == "lpm":
            fac, comp = lpmch.factor, lpmch.compose
            flayer = f"cholesky.factor.{tag}"
            minors = lambda: lpmch.leading_minors(A.matrix)
        else:
            fac, comp = lpmch.factor_tpm, lpmch.compose_tpm
            flayer = f"cholesky.factor_tpm.{tag}"
            minors = lambda: lpmch.leading_minors(lpmch.reverse_matrix(A.matrix))
        out = [
            Task(f"{self.cone}.factor.canon.{fam}", lambda: fac(A, canon),
                 lambda F: self.check_factor(F, canon), flayer),
            Task(f"{self.cone}.factor.general.{fam}", lambda: fac(A, B),
                 lambda F: self.check_factor(F, B), flayer),
            Task(f"{self.cone}.compose.{fam}", lambda: comp(self.L, canon),
                 self.check_compose,
                 f"cholesky.compose.{tag}" if self.cone == "lpm" else None),
            Task(f"{self.cone}.leading_minors.{fam}", minors, self.check_minors,
                 f"core.leading_minors.{tag}" if self.cone == "lpm" else None),
        ]
        if self.cone == "lpm":
            out.append(Task(f"lpm.resign.{fam}", lambda: lpmch.resign(A, self.delta),
                            self.check_resign, f"cholesky.resign.{tag}"))
        return out


def _ssrpm_task(rng, n):
    """is_ssrpm on toeplitz_example(a, b, n), parameters away from degeneracy."""
    while True:
        a = float(rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 3.0))
        b = float(rng.uniform(-1.0, 1.0))
        if abs(a - b) >= 0.5 and min(abs(a + (k - 1) * b) for k in range(1, n + 1)) >= 0.2:
            break
    M, _ = lpmch.toeplitz_example(a, b, n)
    expected = refs.toeplitz_pattern(a, b, n)

    def check(pattern):
        refs.expect_close(M, b * np.ones((n, n)) + (a - b) * np.eye(n), 0.0,
                          "toeplitz_example")
        refs.expect_equal(pattern, expected, f"is_ssrpm(a={a}, b={b})")

    return Task(f"is_ssrpm.n{n}", lambda: lpmch.is_ssrpm(M), check, f"ssrpm.is_ssrpm.n{n}")


def _tensor_task(rng):
    (L1, e1), (L2, e2) = [(refs.random_factor(rng, 8), refs.random_pattern(rng, 8))
                          for _ in range(2)]
    P1 = _point(refs.lpm_matrix(L1, e1), "lpm", e1)
    P2 = _point(refs.lpm_matrix(L2, e2), "lpm", e2)
    K = np.kron(P1.matrix, P2.matrix)
    expected = tuple(int(s) for s in refs.leading_slogdets(K)[0])

    def check(out):
        refs.expect_equal(out.pattern, expected, "tensor_matrix pattern")
        return refs.expect_close(out.matrix, K, 64 * U, "tensor_matrix")

    return Task("tensor_matrix.n64", lambda: lpmch.tensor_matrix(P1, P2), check,
                "algebra.tensor_matrix")


def factor_large(seed, sizes=(64, 256), ssrpm_n=12):
    """Factorizations of seeded cone points at two sizes, plus SSRPM checks.

    The round interleaves the small and large points so that a slow phase of
    the host hits every task class alike.
    """
    rng = np.random.default_rng([seed, 1])
    small = [_FactorCase(rng, sizes[0], cone, kind) for cone, kind in SMALL_KINDS]
    large = [_FactorCase(rng, sizes[1], cone, kind) for cone, kind in LARGE_KINDS]
    extras = [_ssrpm_task(rng, ssrpm_n), _tensor_task(rng),
              _ssrpm_task(rng, ssrpm_n), _tensor_task(rng)]
    tasks = []
    per_large = math.ceil(len(small) / len(large))
    for i, case in enumerate(large):
        for s in small[i * per_large:(i + 1) * per_large]:
            tasks += s.tasks()
        tasks += case.tasks()
        tasks += extras[i:i + 1]
    return Workload("factor-large", tasks)


# ----------------------------------------------------------------------------
# stats-small: bulk draws, means, densities and pair operations at n = 3, 10
# ----------------------------------------------------------------------------

def _spd(rng, n):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    S = (Q * rng.uniform(0.5, 2.0, n)) @ Q.T
    return (S + S.T) / 2


def _inertia_patterns(n, k):
    out = []
    for eps in itertools.product((1, -1), repeat=n):
        changes = sum(1 for a, b in zip((1,) + eps, eps) if a != b)
        if changes == k:
            out.append(eps)
    return out


class _Law:
    """The laws at one size n: specs, 200 known-factor points, references."""

    def __init__(self, rng, n, seed, draws, points):
        self.n, self.draws, self.seed = n, draws, seed
        self.eps = refs.random_pattern(rng, n)
        self.sigma = _spd(rng, n)
        self.dof = n + 3
        S = lpmch.DistributionSpec
        self.wishart = S(kind="wishart", pattern=self.eps, sigma=self.sigma, dof=self.dof)
        self.inv_wishart = S(kind="inverse_wishart", pattern=self.eps,
                             sigma=self.sigma, dof=self.dof)
        base = S(kind="wishart", pattern=(1,) * n, sigma=self.sigma, dof=self.dof)
        self.k = n // 3
        self.clone = S(kind="inertial_clone", base=base, k=self.k)
        self.L0 = refs.random_factor(rng, n)
        m = n * (n + 1) // 2
        self.st_diag = rng.uniform(0.01, 0.05, m)
        self.normal = S(kind="cholesky_normal",
                        m0=_point(refs.lpm_matrix(self.L0, self.eps), "lpm", self.eps),
                        sigma_tilde=np.diag(self.st_diag))
        self.Ls = np.stack([refs.random_factor(rng, n) for _ in range(points)])
        self.points = [_point(refs.lpm_matrix(L, self.eps), "lpm", self.eps)
                       for L in self.Ls]
        self.pending = []

    def rng(self, stream):
        return lpmch.RngStream(self.seed, stream)

    # -- draws --------------------------------------------------------------
    def _stack(self, draws):
        if len(draws) != self.draws:
            raise CheckError(f"{len(draws)} draws, expected {self.draws}")
        if any(p.cone != "lpm" for p in draws):
            raise CheckError("draw in the wrong cone kind")
        return np.stack([p.matrix for p in draws])

    def check_wishart(self, draws):
        X = self._stack(draws)
        refs.check_patterns(X, [self.eps], f"wishart n={self.n}")
        refs.check_mean(refs.pd_image(X), self.dof * self.sigma,
                        refs.wishart_mean_se(self.sigma, self.dof, self.draws),
                        f"wishart n={self.n}")

    def check_factors(self, F):
        if F.shape != (self.draws, self.n, self.n) or np.any(np.triu(F, 1) != 0) \
                or np.any(np.diagonal(F, axis1=1, axis2=2) <= 0):
            raise CheckError("wishart factors: not a stack of Cholesky-space matrices")
        refs.check_mean(F @ np.swapaxes(F, 1, 2), self.dof * self.sigma,
                        refs.wishart_mean_se(self.sigma, self.dof, self.draws),
                        f"wishart factors n={self.n}")

    def check_inverse_wishart(self, draws):
        X = self._stack(draws)
        refs.check_patterns(X, [self.eps], f"inverse wishart n={self.n}")
        # X^-1 is a trailing-minor Wishart draw with scale sigma^-1; its PD
        # image is J pd_image(J X^-1 J) J.
        M = np.linalg.inv(X)[:, ::-1, ::-1]
        W = refs.pd_image(M)[:, ::-1, ::-1]
        inv_sigma = np.linalg.inv(self.sigma)
        refs.check_mean(W, self.dof * inv_sigma,
                        refs.wishart_mean_se(inv_sigma, self.dof, self.draws),
                        f"inverse wishart n={self.n}")

    def check_clone(self, draws):
        X = self._stack(draws)
        refs.check_patterns(X, _inertia_patterns(self.n, self.k), f"clone n={self.n}")
        refs.check_mean(refs.pd_image(X), self.dof * self.sigma,
                        refs.wishart_mean_se(self.sigma, self.dof, self.draws),
                        f"clone n={self.n}")

    def check_normal(self, draws):
        X = self._stack(draws)
        refs.check_patterns(X, [self.eps], f"cholesky-normal n={self.n}")
        refs.check_mean(refs.eta(refs.canonical_factor(X)), refs.eta(self.L0),
                        np.sqrt(self.st_diag / self.draws), f"cholesky-normal n={self.n}")

    # -- means and densities -------------------------------------------------
    def check_mean_point(self, out):
        refs.expect_equal((out.cone, out.pattern), ("lpm", self.eps), "mean cone")
        got = refs.eta(refs.canonical_factor(out.matrix))
        return refs.expect_close(got, refs.eta(self.Ls).mean(axis=0), SMALL_TOL,
                                 f"log_cholesky_mean n={self.n}")

    def densities(self, law):
        fn, spec = {"wishart": (lpmch.wishart_log_density, self.wishart),
                    "inverse_wishart": (lpmch.inverse_wishart_log_density, self.inv_wishart),
                    "cholesky_normal": (lpmch.cholesky_normal_log_density, self.normal)}[law]
        return lambda: np.array([fn(p, spec) for p in self.points])

    def defer_density(self, law):
        def check(values):
            values = np.asarray(values, dtype=float)
            if values.shape != (len(self.points),) or not np.all(np.isfinite(values)):
                raise CheckError(f"{law} densities: bad shape or non-finite values")
            self.pending.append((law, values))
        return check

    def density_refs(self, law):
        from scipy import stats
        W = self.Ls @ np.swapaxes(self.Ls, 1, 2)
        if law == "wishart":
            return np.array([stats.wishart.logpdf(w, df=self.dof, scale=self.sigma) for w in W])
        if law == "inverse_wishart":
            return np.array([stats.invwishart.logpdf(w, df=self.dof, scale=self.sigma)
                             for w in W])
        mvn = stats.multivariate_normal(mean=refs.eta(self.L0), cov=np.diag(self.st_diag))
        return mvn.logpdf(refs.eta(self.Ls))

    def finish(self):
        errs = []
        cache = {}
        for law, values in self.pending:
            if law not in cache:
                cache[law] = self.density_refs(law)
            errs.append(refs.expect_close(values, cache[law], SMALL_TOL,
                                          f"{law} log-density n={self.n}"))
        self.pending.clear()
        return errs


def _pair_tasks(law, i):
    """Distance, geodesic and star product on one pair of points at law.n."""
    n, eps = law.n, law.eps
    a, b = 2 * i, 2 * i + 1
    A, B = law.points[a], law.points[b]
    LA, LB = law.Ls[a], law.Ls[b]
    t = 0.25 + 0.5 * (i % 2)
    strict = lambda L: np.tril(L, -1)
    dA, dB = np.diag(LA), np.diag(LB)
    geo = strict(LA) * (1 - t) + strict(LB) * t + np.diag(dA ** (1 - t) * dB ** t)
    star = strict(LA) + strict(LB) + np.diag(dA * dB)
    dist = float(np.linalg.norm(refs.eta(LA) - refs.eta(LB)))

    def point_check(ref_L, what):
        def check(out):
            refs.expect_equal((out.cone, out.pattern), ("lpm", eps), what)
            return refs.expect_close(out.matrix, refs.lpm_matrix(ref_L, eps), SMALL_TOL, what)
        return check

    tag = f"n{n}"
    return [
        Task(f"lpm_distance.{tag}", lambda: lpmch.lpm_distance(A, B),
             lambda v: refs.expect_close(v, dist, SMALL_TOL, "lpm_distance"),
             "geometry.lpm_distance" if n == 10 else None),
        Task(f"lpm_geodesic.{tag}", lambda: lpmch.lpm_geodesic(A, B, t),
             point_check(geo, "lpm_geodesic")),
        Task(f"star_op.{tag}", lambda: lpmch.star_op(A, B), point_check(star, "star_op")),
    ]


def _group_tasks(rng, law):
    """box_op and dp_distance between points of two different cones at law.n."""
    n = law.n
    delta = refs.random_pattern(rng, n)
    La, Lb = refs.random_factor(rng, n), refs.random_factor(rng, n)
    a = lpmch.BigGroupElement(_point(refs.lpm_matrix(La, law.eps), "lpm", law.eps))
    b = lpmch.BigGroupElement(_point(refs.lpm_matrix(Lb, delta), "lpm", delta))
    prod_eps = tuple(x * y for x, y in zip(law.eps, delta))
    G = np.tril(La, -1) + np.tril(Lb, -1) + np.diag(np.diag(La) * np.diag(Lb))
    mismatch = 0.0 if delta == law.eps else 1.0
    dp = math.hypot(float(np.linalg.norm(refs.eta(La) - refs.eta(Lb))), mismatch)

    def check_box(out):
        refs.expect_equal(out.pattern, prod_eps, "box_op pattern")
        refs.expect_close(out.factor, G, SMALL_TOL, "box_op factor")
        return refs.expect_close(out.point.matrix, refs.lpm_matrix(G, prod_eps),
                                 SMALL_TOL, "box_op")

    return [
        Task(f"box_op.n{n}", lambda: lpmch.box_op(a, b), check_box,
             "biggroup.box_op" if n == 10 else None),
        Task(f"dp_distance.n{n}", lambda: lpmch.dp_distance(a, b, p=2),
             lambda v: refs.expect_close(v, dp, SMALL_TOL, "dp_distance")),
    ]


def _classify_task(law, i):
    P = law.points[-1 - i]

    def check(out):
        refs.expect_equal((out.cone, out.pattern), ("lpm", law.eps), f"classify n={law.n}")
        return refs.expect_close(out.matrix, P.matrix, 0.0, "classify matrix")

    return Task(f"classify.n{law.n}", lambda: lpmch.classify(P.matrix), check,
                "core.classify" if law.n == 10 else None)


def _big_tasks(law, stream):
    """The bulk tasks at law.n: four samplers, a mean and three densities."""
    n, draws, points = law.n, law.draws, len(law.points)
    layer = lambda name: f"sampling.{name}"
    return [
        Task(f"wishart_sample.n{n}",
             lambda: lpmch.wishart_sample(law.rng(stream), law.wishart, draws),
             law.check_wishart, layer("wishart_sample")),
        Task(f"inverse_wishart_sample.n{n}",
             lambda: lpmch.inverse_wishart_sample(law.rng(stream + 1), law.inv_wishart, draws),
             law.check_inverse_wishart, layer("inverse_wishart_sample")),
        Task(f"inertial_clone_sample.n{n}",
             lambda: lpmch.inertial_clone_sample(law.rng(stream + 2), law.clone, draws),
             law.check_clone, layer("inertial_clone_sample")),
        Task(f"cholesky_normal_sample.n{n}",
             lambda: lpmch.cholesky_normal_sample(law.rng(stream + 3), law.normal, draws),
             law.check_normal),
        Task(f"log_cholesky_mean.n{n}", lambda: lpmch.log_cholesky_mean(law.points),
             law.check_mean_point, "geometry.log_cholesky_mean"),
        Task(f"wishart_log_density.n{n}", law.densities("wishart"),
             law.defer_density("wishart"), layer("wishart_log_density"), calls=points),
        Task(f"inverse_wishart_log_density.n{n}", law.densities("inverse_wishart"),
             law.defer_density("inverse_wishart"), calls=points),
        Task(f"cholesky_normal_log_density.n{n}", law.densities("cholesky_normal"),
             law.defer_density("cholesky_normal"), layer("cholesky_normal_log_density"),
             calls=points),
    ]


def stats_small(seed, draws=2000, points=200, pairs=8, classify=10, groups=4):
    """Many small cone points: bulk draws, means, densities and pair operations.

    A round holds 16 bulk tasks at n = 10 and 84 small ones at n = 3 and 10,
    so that the median task is a pair operation and the 90th percentile,
    with ten tasks beyond it, a bulk task.
    """
    rng = np.random.default_rng([seed, 2])
    law3 = _Law(rng, 3, seed, draws, points)
    law10 = _Law(rng, 10, seed, draws, points)
    # Two of each bulk task per round (fresh draws in the second), so that
    # each bulk class is timed twice a round.
    big = _big_tasks(law10, 1) + _big_tasks(law10, 5)
    small = []
    for law in (law3, law10):
        for i in range(pairs):
            small += _pair_tasks(law, i)
        small += [_classify_task(law, i) for i in range(classify)]
        for _ in range(groups):
            small += _group_tasks(rng, law)
    # Spread the bulk tasks evenly through the round.
    tasks = []
    step = math.ceil(len(small) / len(big))
    for i, t in enumerate(big):
        tasks += small[step * i:step * (i + 1)] + [t]
    tasks += small[step * len(big):]

    L10 = law10.Ls[0]
    probes = [
        Task("cone_factor.n10", lambda: lpmch.cone_factor(law10.points[0]),
             lambda F: refs.expect_close(F, L10, SMALL_TOL, "cone_factor"),
             "geometry.cone_factor.n10"),
        Task("cone_compose.n10", lambda: lpmch.cone_compose(L10, law10.eps),
             lambda P: refs.expect_close(P.matrix, law10.points[0].matrix, SMALL_TOL,
                                         "cone_compose"),
             "geometry.cone_compose.n10"),
        Task("wishart_factors.n10", lambda: wishart_factors(law10.rng(1), law10.wishart, draws),
             law10.check_factors, "sampling.wishart_factors"),
    ]

    def finish():
        return law3.finish() + law10.finish()

    return Workload("stats-small", tasks, probes=probes, finish=finish)


# ----------------------------------------------------------------------------
# walk-mc: Monte-Carlo walks and the inequality reports on them
# ----------------------------------------------------------------------------

# Constants for the n = 10 Wishart walks. These walks drift (distance about
# 3 after one step, 14 to 17 after ten), so most of their events are sure or
# impossible and their reports check consistency only; the presets' reports
# carry the events whose probabilities lie strictly between 0 and 1.
WISHART_WALK_PARAMS = {
    "mogulskii_min": {"a": 6.0, "b": 6.0, "m": 1},
    "mogulskii_max": {"a": 12.0, "b": 6.0, "m": 1},
    "ottaviani_skorohod": {"alpha": 6.0, "beta": 6.0},
    "levy_ottaviani": {"a_list": [6.0, 6.0]},
    "hoffmann_jorgensen": {"counts": [2, 1], "thresholds": [6.0, 12.0], "s": 6.0},
}


def _walk_tasks(label, rng_of, walk, params_of, paths, layer):
    holder = {}
    group = params_of(inequalities.INEQUALITIES[0]).get("group", "star")
    p = params_of(inequalities.INEQUALITIES[0]).get("p", 2)
    steps = len(walk)

    def simulate():
        holder["stats"] = inequalities.simulate_walk(rng_of(), walk, paths, group=group, p=p)
        return holder["stats"]

    def check_stats(stats):
        for arr in (stats.d_z1, stats.d_to_end, stats.d_inc):
            if arr.shape != (paths, steps) or not np.all(np.isfinite(arr)) or arr.min() < 0:
                raise CheckError(f"{label}: malformed walk statistics")

    def verify():
        return [inequalities.verify_from_stats(holder["stats"], which, params_of(which))
                for which in inequalities.INEQUALITIES]

    def check_reports(reports):
        for r in reports:
            if not (r.applicable and r.passed):
                raise CheckError(f"{label}: {r.inequality} report failed "
                                 f"(lhs {r.lhs:.4g}, rhs {r.rhs:.4g})")

    return (Task(f"simulate.{label}", simulate, check_stats, layer),
            Task(f"verify.{label}", verify, check_reports, "inequalities.verify_from_stats",
                 calls=len(inequalities.INEQUALITIES)))


def walk_mc(seed, paths=20000, big_paths=10000, n=10, steps=10):
    """The three preset walks, two n = 10 Wishart star walks and a check walk."""
    rng = np.random.default_rng([seed, 3])
    stream = itertools.count(1)
    sims, verifies = [], []

    def add(label, walk, params_of, npaths, layer):
        s = next(stream)
        sim, ver = _walk_tasks(label, lambda: lpmch.RngStream(seed, s), walk, params_of,
                               npaths, layer)
        sims.append(sim)
        verifies.append(ver)

    for name in inequalities.PRESETS:
        walk, _ = inequalities.preset_config(name, inequalities.INEQUALITIES[0])
        layer = "inequalities.simulate_walk.box" if name == "mixed_box_walk" else None
        add(name, walk, lambda which, name=name: inequalities.preset_config(name, which)[1],
            paths, layer)
    for label in ("wishart-a", "wishart-b"):
        eps = refs.random_pattern(rng, n)
        spec = lpmch.DistributionSpec(kind="wishart", pattern=eps, sigma=_spd(rng, n) / n,
                                      dof=n + 2)
        add(label, [spec] * steps,
            lambda which: {"group": "star", **WISHART_WALK_PARAMS[which]},
            big_paths, "inequalities.simulate_walk.star")

    # A zero-covariance Cholesky-normal walk: every step is eta(L0), so the
    # k-th partial sum sits at distance ||(k+1) eta(L0) - eta(Lz)|| from z1.
    eps = refs.random_pattern(rng, n)
    L0, Lz = refs.random_factor(rng, n), refs.random_factor(rng, n)
    m0 = _point(refs.lpm_matrix(L0, eps), "lpm", eps)
    z1 = _point(refs.lpm_matrix(Lz, eps), "lpm", eps)
    m = n * (n + 1) // 2
    spec = lpmch.DistributionSpec(kind="cholesky_normal", m0=m0, sigma_tilde=np.zeros((m, m)))
    ks = np.arange(1, steps + 1)
    step = refs.eta(L0)
    expected = {
        "d_z1": np.linalg.norm(ks[:, None] * step - refs.eta(Lz), axis=1),
        "d_to_end": (steps - ks) * np.linalg.norm(step),
        "d_inc": np.full(steps, np.linalg.norm(step)),
    }
    s0 = next(stream)

    def check_zero(stats):
        errs = []
        for key, ref in expected.items():
            got = getattr(stats, key)
            if got.shape != (big_paths, steps):
                raise CheckError(f"zero-covariance walk: {key} has shape {got.shape}")
            errs.append(refs.expect_close(got, np.broadcast_to(ref, got.shape), SMALL_TOL,
                                          f"zero-covariance walk {key}"))
        return max(errs)

    zero = Task("simulate.zero-cov", lambda: inequalities.simulate_walk(
        lpmch.RngStream(seed, s0), [spec] * steps, big_paths, z1=z1), check_zero)

    tasks = []
    for sim, ver in zip(sims, verifies):
        tasks += [sim, ver]
    tasks.insert(6, zero)
    return Workload("walk-mc", tasks)


# ----------------------------------------------------------------------------
# cli-calls: one lpmch process per call
# ----------------------------------------------------------------------------

class _CliCase:
    """Matrix files in a scratch directory and the expected answers."""

    def __init__(self, root, seed, workdir, n=10, count=2000, ssrpm_n=12):
        rng = np.random.default_rng([seed, 4])
        self.root, self.dir, self.n, self.count = root, workdir, n, count
        os.makedirs(workdir, exist_ok=True)
        self.seed = int(rng.integers(1, 2**31 - 1))
        self.eps = refs.random_pattern(rng, n)
        self.delta = refs.random_pattern(rng, n)
        self.Ls = [refs.random_factor(rng, n) for _ in range(3)]
        self.mats = [refs.lpm_matrix(L, self.eps) for L in self.Ls]
        self.sigma = _spd(rng, n)
        self.dof = n + 3
        while True:
            a, b = float(rng.uniform(1.0, 3.0)), float(rng.uniform(-1.0, 1.0))
            if abs(a - b) >= 0.5 and min(abs(a + k * b) for k in range(ssrpm_n)) >= 0.2:
                break
        self.ssrpm = (a, b, ssrpm_n)
        for i, M in enumerate(self.mats):
            matio.write_matrix(M, self.path(f"P{i}.json"))
        matio.write_matrix(self.sigma, self.path("S.json"))
        matio.write_matrix(b * np.ones((ssrpm_n, ssrpm_n)) + (a - b) * np.eye(ssrpm_n),
                           self.path("T.json"))
        with open(self.path("cfg.json"), "w") as fh:
            json.dump({"preset": "mixed_box_walk"}, fh)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.pop("LPMCH_SEED", None)
        self.first_sample = None
        self.pending = []

    def path(self, name):
        return os.path.join(self.dir, name)

    def eps_str(self, eps):
        return "".join("+" if s > 0 else "-" for s in eps)

    def commands(self):
        p = self.path
        e = self.eps_str(self.eps)
        # Patterns go in as --flag=value: argparse would take a separate
        # value that starts with '-' for an option.
        sample = ["sample", "--dist", "wishart", "--sigma", p("S.json"), "--dof",
                  str(self.dof), f"--epsilon={e}", "--count", str(self.count),
                  "--seed", str(self.seed)]
        return [
            ("classify", ["classify", p("P0.json")], self.check_classify),
            ("sample", sample, self.check_sample),
            ("factor", ["factor", p("P0.json"), "-o", p("L.json")], self.check_factor),
            ("resign", ["resign", p("P0.json"), f"--to={self.eps_str(self.delta)}",
                        "-o", p("R.json")], self.check_resign),
            ("verify", ["verify", "--inequality", "ottaviani_skorohod", "--config",
                        p("cfg.json"), "--seed", str(self.seed)], self.check_verify),
            ("distance", ["distance", p("P0.json"), p("P1.json")], self.check_distance),
            ("mean", ["mean", p("P0.json"), p("P1.json"), p("P2.json"), "-o", p("M.json")],
             self.check_mean),
            ("sample", sample, self.check_sample),
            ("density", ["density", p("P0.json"), "--dist", "wishart", "--sigma", p("S.json"),
                         "--dof", str(self.dof), f"--epsilon={e}"], self.defer_density),
            ("ssrpm-check", ["ssrpm-check", p("T.json")], self.check_ssrpm),
        ]

    def run(self, argv):
        # No timeout (see refs.process_probe_s); run.py's watchdog covers a hang.
        return subprocess.run([sys.executable, "-m", "lpmch.cli"] + argv, env=self.env,
                              cwd=self.root, capture_output=True)

    # -- checks ---------------------------------------------------------------
    @staticmethod
    def _ok(proc, what):
        if proc.returncode != 0:
            raise CheckError(f"{what}: exit code {proc.returncode}: "
                             f"{proc.stderr.decode(errors='replace')[-300:]}")
        return proc.stdout.decode()

    def check_classify(self, proc):
        lines = dict(line.split(": ", 1) for line in
                     self._ok(proc, "classify").strip().splitlines())
        refs.expect_equal(lines["pattern"], self.eps_str(self.eps), "classify pattern")
        minors = np.array([float(x) for x in lines["minors"].split()])
        signs, logs = refs.leading_slogdets(self.mats[0])
        if np.any(np.sign(minors) != signs):
            raise CheckError("classify minors: signs disagree with slogdet")
        return refs.expect_close(np.log(np.abs(minors)), logs, SMALL_TOL, "classify minors")

    def check_factor(self, proc):
        self._ok(proc, "factor")
        return refs.expect_close(matio.read_matrix(self.path("L.json")), self.Ls[0],
                                 SMALL_TOL, "cli factor")

    def check_resign(self, proc):
        self._ok(proc, "resign")
        return refs.expect_close(matio.read_matrix(self.path("R.json")),
                                 refs.lpm_matrix(self.Ls[0], self.delta), SMALL_TOL,
                                 "cli resign")

    def check_distance(self, proc):
        value = float(self._ok(proc, "distance"))
        ref = float(np.linalg.norm(refs.eta(self.Ls[0]) - refs.eta(self.Ls[1])))
        return refs.expect_close(value, ref, SMALL_TOL, "cli distance")

    def check_mean(self, proc):
        self._ok(proc, "mean")
        got = refs.eta(refs.canonical_factor(matio.read_matrix(self.path("M.json"))))
        ref = refs.eta(np.stack(self.Ls)).mean(axis=0)
        return refs.expect_close(got, ref, SMALL_TOL, "cli mean")

    def defer_density(self, proc):
        self.pending.append(float(self._ok(proc, "density")))

    def check_sample(self, proc):
        out = proc.stdout
        self._ok(proc, "sample")
        if self.first_sample is None:
            lines = out.decode().splitlines()
            header = json.loads(lines[0])
            refs.expect_equal((header["seed"], header["count"], len(lines) - 1),
                              (self.seed, self.count, self.count), "sample header/count")
            X = np.stack([np.array(json.loads(line)["rows"]) for line in lines[1:]])
            refs.check_patterns(X, [self.eps], "cli sample")
            refs.check_mean(refs.pd_image(X), self.dof * self.sigma,
                            refs.wishart_mean_se(self.sigma, self.dof, self.count),
                            "cli sample")
            self.first_sample = out
        elif out != self.first_sample:
            raise CheckError("two sample streams with the same seed differ")

    def check_verify(self, proc):
        lines = dict(line.split(": ", 1) for line in
                     self._ok(proc, "verify").strip().splitlines())
        refs.expect_equal((lines["passed"], lines["applicable"], lines["paths"]),
                          ("True", "True", "10000"), "cli verify")

    def check_ssrpm(self, proc):
        a, b, n = self.ssrpm
        refs.expect_equal(self._ok(proc, "ssrpm-check").strip(),
                          self.eps_str(refs.toeplitz_pattern(a, b, n)), "cli ssrpm-check")

    def finish(self):
        if not self.pending:
            return []
        from scipy import stats
        L = self.Ls[0]
        ref = stats.wishart.logpdf(L @ L.T, df=self.dof, scale=self.sigma)
        errs = [refs.expect_close(v, ref, SMALL_TOL, "cli density") for v in self.pending]
        self.pending.clear()
        return errs

    # -- trace-only probes ----------------------------------------------------
    def probes(self):
        env = self.env

        def interpreter(code):
            def run():
                proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=self.root,
                                      capture_output=True)
                return proc.returncode
            return run

        def exit0(code):
            if code != 0:
                raise CheckError(f"exit code {code}")

        def in_process(argv):
            def run():
                import contextlib
                import io
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    return cli_main(argv)
            return run

        out = [
            Task("interpreter", interpreter("pass"), exit0, "cli.interpreter",
                 probe=refs.process_probe_s),
            Task("import", interpreter("import lpmch.cli"), exit0, "cli.import",
                 probe=refs.process_probe_s),
            Task("import_scipy", interpreter("import scipy.linalg, scipy.special"), exit0,
                 "cli.import_scipy", probe=refs.process_probe_s),
            Task("read_matrix", lambda: matio.read_matrix(self.path("P0.json")),
                 lambda A: refs.expect_close(A, self.mats[0], 0.0, "read_matrix"),
                 "matio.read_matrix"),
            Task("matrix_to_json_line", lambda: matio.matrix_to_json_line(self.mats[0]),
                 lambda s: refs.expect_close(np.array(json.loads(s)["rows"]), self.mats[0],
                                             0.0, "matrix_to_json_line"),
                 "matio.matrix_to_json_line"),
        ]
        seen = set()
        for cmd, argv, _ in self.commands():
            if cmd not in seen:
                seen.add(cmd)
                out.append(Task(f"main.{cmd}", in_process(argv), exit0, f"cli.main.{cmd}"))
        return out


def cli_calls(seed, root, workdir, count=2000):
    case = _CliCase(root, seed, workdir, count=count)
    tasks = [Task(f"cli.{cmd}", lambda argv=argv: case.run(argv), check,
                  probe=refs.process_probe_s)
             for cmd, argv, check in case.commands()]
    # One call warms the file cache; a full round of processes would put
    # seconds of process starts into every set-up measurement.
    return Workload("cli-calls", tasks, probes=case.probes(), finish=case.finish,
                    close=lambda: shutil.rmtree(workdir, ignore_errors=True),
                    warmup=tasks[:1])


def build(name, seed, root, workdir, tiny=False):
    """The named workload; tiny=True shrinks every size for quick tests."""
    if name == "factor-large":
        return factor_large(seed, sizes=(16, 32), ssrpm_n=6) if tiny else factor_large(seed)
    if name == "stats-small":
        return stats_small(seed, draws=200, points=20) if tiny else stats_small(seed)
    if name == "walk-mc":
        return walk_mc(seed, paths=500, big_paths=300) if tiny else walk_mc(seed)
    if name == "cli-calls":
        return cli_calls(seed, root, workdir, count=20 if tiny else 2000)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
