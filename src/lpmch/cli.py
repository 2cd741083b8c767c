"""Batch command-line front end over file-based matrices.

Exit codes: 0 on success, 1 on a domain error (the error class name is
printed as a machine-readable tag), 2 on usage errors. The environment
variable LPMCH_SEED overrides any --seed flag.
"""

import argparse
import json
import os
import sys

import numpy as np

from .core import (
    DEFAULT_TOL,
    LPM,
    TPM,
    _classify_with_minors,
    classify,
    negative_inertia,
    pattern_from_string,
    pattern_to_string,
)
from .errors import LpmchError, SpecInvalid
from .matio import _json_lines, format_float, read_matrix, write_matrix

# Every other lpmch module is imported by the commands that use it, so that
# a call compiles and imports only what its command needs.

__all__ = ["main"]


def _seed(args):
    env = os.environ.get("LPMCH_SEED")
    if env is not None:
        return int(env)
    if getattr(args, "seed", None) is None:
        raise SpecInvalid("a seed is required (--seed or LPMCH_SEED)")
    return int(args.seed)


def _classified(path, cone, tol):
    return classify(read_matrix(path), cone=cone, tol=tol)


def _cmd_classify(args):
    point, minors = _classify_with_minors(read_matrix(args.matrix), args.cone, args.tol)
    print(f"pattern: {pattern_to_string(point.pattern)}")
    print(f"inertia: {negative_inertia(point.pattern)}")
    print("minors: " + " ".join(format_float(m) for m in minors))
    return 0


def _cmd_factor(args):
    from .cholesky import canonical_point, factor, factor_tpm
    point = _classified(args.matrix, args.cone, args.tol)
    if args.basis == "diag":
        eps = pattern_from_string(args.epsilon) if args.epsilon else point.pattern
        base = canonical_point(eps, point.cone)
    else:
        base = _classified(args.basis, point.cone, args.tol)
    L = factor(point, base) if args.cone == LPM else factor_tpm(point, base)
    write_matrix(np.asarray(L, dtype=float), args.output)
    return 0


def _cmd_distance(args):
    A = _classified(args.a, args.cone, args.tol)
    B = _classified(args.b, args.cone, args.tol)
    if args.group == "star":
        from . import geometry
        value = geometry.lpm_distance(A, B)
    else:
        from . import biggroup
        value = biggroup.dp_distance(biggroup.BigGroupElement(A),
                                     biggroup.BigGroupElement(B), p=args.p)
    print(format_float(value))
    return 0


def _cmd_geodesic(args):
    from . import geometry
    A = _classified(args.a, args.cone, args.tol)
    B = _classified(args.b, args.cone, args.tol)
    out = geometry.lpm_geodesic(A, B, args.t)
    write_matrix(out.matrix, args.output)
    return 0


def _cmd_mean(args):
    from . import geometry
    points = [_classified(path, args.cone, args.tol) for path in args.matrices]
    out = geometry.log_cholesky_mean(points)
    write_matrix(out.matrix, args.output)
    return 0


# The law kind of each --dist name.
_DISTS = {"wishart": "wishart", "inv-wishart": "inverse_wishart",
          "cholesky-normal": "cholesky_normal", "clone": "inertial_clone"}


def _spec_from_args(args):
    from . import sampling
    kind = _DISTS[args.dist]
    if args.dist == "cholesky-normal":
        if not (args.m0 and args.sigma_tilde):
            raise SpecInvalid("cholesky-normal needs --m0 and --sigma-tilde")
        m0 = _classified(args.m0, args.cone, args.tol)
        return sampling.DistributionSpec(kind=kind, cone=args.cone, m0=m0,
                                         sigma_tilde=read_matrix(args.sigma_tilde))
    if args.sigma is None or args.dof is None:
        raise SpecInvalid(f"{args.dist} needs --sigma and --dof")
    sigma = read_matrix(args.sigma)
    if args.dist == "clone":
        base = sampling.DistributionSpec(kind="wishart", cone=LPM,
                                         pattern=tuple([1] * len(sigma)), sigma=sigma,
                                         dof=args.dof)
        return sampling.DistributionSpec(kind=kind, cone=args.cone, base=base,
                                         k=args.k, all_cones=args.all_cones)
    if not args.epsilon:
        raise SpecInvalid(f"{args.dist} needs --epsilon")
    return sampling.DistributionSpec(kind=kind, cone=args.cone,
                                     pattern=pattern_from_string(args.epsilon),
                                     sigma=sigma, dof=args.dof)


def _cmd_sample(args):
    from . import sampling
    from .cholesky import _cone_matrices
    if args.count < 0:
        raise SpecInvalid(f"--count must be >= 0, got {args.count}")
    law = sampling._law(_spec_from_args(args))
    seed = _seed(args)
    header = {"spec": {"dist": args.dist, "cone": law.spec.cone,
                       "dim": law.n, "dof": law.dof,
                       "epsilon": args.epsilon, "k": law.spec.k,
                       "all_cones": law.spec.all_cones},
              "seed": seed, "count": args.count}
    print(json.dumps(header, sort_keys=True))
    # The matrices that law.points would wrap as cone points, made and
    # written one block of draws at a time. Only split holds the draws, so
    # the Cholesky-normal law's normals go once its coordinates are made.
    for _, block in law.split(law.draws(sampling.RngStream(seed).generator, args.count)):
        stack = _cone_matrices(law.factors(block), law.patterns(block), law.cone)
        sys.stdout.write(_json_lines(stack))
    return 0


def _cmd_density(args):
    from . import sampling
    law = sampling._law(_spec_from_args(args))
    M = _classified(args.matrix, args.cone, args.tol)
    print(format_float(law.log_density(M, args.measure)))
    return 0


def _cmd_resign(args):
    from .cholesky import resign
    point = _classified(args.matrix, LPM, args.tol)
    out = resign(point, pattern_from_string(args.to))
    write_matrix(out.matrix, args.output)
    return 0


def _cmd_verify(args):
    from . import inequalities, sampling
    with open(args.config) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"{args.config}: expected a JSON object")
    # A key that nothing reads would leave the preset's value in its place.
    keys = ({"preset"} | inequalities._PARAM_TYPES.keys()) - {"paths"}
    for key in config:
        if key == "paths":
            raise ValueError("paths is not a config key; give the number of paths "
                             "with --trials")
        if key not in keys:
            raise ValueError(f"unknown config key {key!r}; choose from {sorted(keys)}")
    preset = config.get("preset", "pd_walk")
    walk, params = inequalities.preset_config(preset, args.inequality)
    params.update({k: v for k, v in config.items() if k != "preset"})
    params["paths"] = args.trials
    report = inequalities.verify_inequality(sampling.RngStream(_seed(args)),
                                            args.inequality, walk, params)
    print(f"inequality: {report.inequality}")
    print(f"paths: {report.n_paths}")
    print(f"applicable: {report.applicable}")
    print(f"lhs: {format_float(report.lhs)} (se {format_float(report.lhs_se)})")
    print(f"rhs: {format_float(report.rhs)} (se {format_float(report.rhs_se)})")
    print(f"passed: {report.passed}")
    return 0


def _cmd_ssrpm_check(args):
    from . import ssrpm
    pattern = ssrpm.is_ssrpm(read_matrix(args.matrix), tol=args.tol)
    print("not SSRPM" if pattern is None else pattern_to_string(pattern))
    return 0


class _Inequalities:
    """The choices of verify --inequality: inequalities.INEQUALITIES, with
    that module imported when argparse first reads them."""

    @staticmethod
    def _names():
        from .inequalities import INEQUALITIES
        return INEQUALITIES

    def __contains__(self, name):
        return name in self._names()

    def __iter__(self):
        return iter(self._names())


class _PatternArg(argparse.Action):
    """Stores a '+-' pattern string as given.

    Some argparse versions drop an explicit option value of exactly '--'
    (as in --to=--) as the end-of-options marker and pass an empty list;
    for a single-value option that list can only have come from '--'.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, "--" if values == [] else values)


def _add_common(parser):
    parser.add_argument("--cone", choices=[LPM, TPM], default=LPM)
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL)


def _add_dist_flags(parser):
    parser.add_argument("--dist", required=True, choices=_DISTS)
    parser.add_argument("--sigma", help="scale matrix file")
    parser.add_argument("--dof", type=int, help="degrees of freedom")
    parser.add_argument("--epsilon", action=_PatternArg,
                        help="sign pattern over '+-'")
    parser.add_argument("--m0", help="centre matrix file (cholesky-normal)")
    parser.add_argument("--sigma-tilde", dest="sigma_tilde",
                        help="coordinate covariance file (cholesky-normal)")
    parser.add_argument("--k", type=int, help="target inertia (clone)")
    parser.add_argument("--all-cones", action="store_true",
                        help="clone over every pattern instead of one inertia")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lpmch",
        description="Generalized Cholesky factorization, log-Cholesky geometry, "
                    "and random matrices on signed minor cones.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="sign pattern, inertia, and minors")
    p.add_argument("matrix")
    _add_common(p)
    p.set_defaults(run=_cmd_classify)

    p = sub.add_parser("factor", help="lower triangular factor against a basis")
    p.add_argument("matrix")
    p.add_argument("--basis", default="diag",
                   help="'diag' for the canonical diagonal, or a matrix file")
    p.add_argument("--epsilon", action=_PatternArg,
                   help="pattern for the canonical basis")
    p.add_argument("--output", "-o")
    _add_common(p)
    p.set_defaults(run=_cmd_factor)

    p = sub.add_parser("distance", help="distance between two cone points")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--group", choices=["star", "box"], default="star")
    p.add_argument("--p", default="2", help="exponent for the global metric")
    _add_common(p)
    p.set_defaults(run=_cmd_distance)

    p = sub.add_parser("geodesic", help="point along the geodesic between A and B")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--output", "-o")
    _add_common(p)
    p.set_defaults(run=_cmd_geodesic)

    p = sub.add_parser("mean", help="log-Cholesky barycentre of cone points")
    p.add_argument("matrices", nargs="+")
    p.add_argument("--output", "-o")
    _add_common(p)
    p.set_defaults(run=_cmd_mean)

    p = sub.add_parser("sample", help="stream draws as newline-delimited JSON")
    _add_dist_flags(p)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int)
    _add_common(p)
    p.set_defaults(run=_cmd_sample)

    p = sub.add_parser("density", help="log-density of a matrix under a law")
    p.add_argument("matrix")
    _add_dist_flags(p)
    p.add_argument("--measure", choices=["eta", "lebesgue"],
                   help="reference measure of the density: eta (cholesky-normal "
                        "only, its default) or lebesgue")
    _add_common(p)
    p.set_defaults(run=_cmd_density)

    p = sub.add_parser("resign", help="move a matrix to another cone")
    p.add_argument("matrix")
    p.add_argument("--to", required=True, action=_PatternArg,
                   help="target pattern over '+-'")
    p.add_argument("--output", "-o")
    _add_common(p)
    p.set_defaults(run=_cmd_resign)

    p = sub.add_parser("verify", help="Monte-Carlo check of a stochastic inequality")
    # Choices given after add_argument, which would read them to check the
    # metavar: argparse reads them only when it parses or prints verify's
    # options.
    p.add_argument("--inequality", required=True).choices = _Inequalities()
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int)
    p.add_argument("--config", required=True,
                   help="JSON file: preset name plus parameter overrides")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("ssrpm-check", help="common sign pattern of all principal "
                                           "minors, if any, from the Schur complement "
                                           "recursion (n <= 20)")
    p.add_argument("matrix")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(run=_cmd_ssrpm_check)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except LpmchError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
