import os

import numpy as np
from hypothesis import settings

from lpmch import all_patterns, cone_compose, negative_inertia

# On CI (GitHub Actions sets CI) property tests draw a fixed sequence of
# examples, so a failure there reproduces from its log.
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def random_lower(rng, n, complex_scalars=False):
    """Random lower triangular matrix with diagonal in [0.5, 2]."""
    L = np.tril(rng.standard_normal((n, n)), -1)
    if complex_scalars:
        L = L + 1j * np.tril(rng.standard_normal((n, n)), -1)
    return L + np.diag(rng.uniform(0.5, 2.0, n))


def random_factor(rng, n):
    """Lower triangular, diagonal in [0.5, 2], strict-lower entries N(0, 1/n).

    With unit-variance entries the condition number of such a factor grows
    exponentially (median about 6e7 at n = 64, 3e14 at n = 128), and the
    composed matrices are too ill-conditioned for any unpivoted elimination
    to keep the pivot signs; with variance 1/n it stays near 10 up to n = 128.
    """
    strict = np.tril(rng.standard_normal((n, n)), -1) / np.sqrt(n)
    return strict + np.diag(rng.uniform(0.5, 2.0, n))


def random_cone_point(rng, eps, cone="lpm", complex_scalars=False):
    """Random point of the cone with pattern eps, built through composition."""
    L = random_lower(rng, len(eps), complex_scalars)
    return cone_compose(L, eps, cone)


def patterns_up_to(n):
    for m in range(1, n + 1):
        yield from all_patterns(m)


def clone_patterns(spec):
    """The patterns an inertial clone mixes over, each with equal weight, in
    the order its pattern draw indexes: all 2^n patterns with all_cones, else
    those of inertia k. The enumerated reference for the unranked draw."""
    patterns = all_patterns(spec.base.dim)
    if spec.all_cones:
        return patterns
    return [eps for eps in patterns if negative_inertia(eps) == spec.k]
