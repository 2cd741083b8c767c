"""Property tests for the LDL* kernel and the maps built on it, up to n = 64."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lpmch import (
    canonical_point,
    compose,
    compose_tpm,
    cone_compose,
    factor,
    factor_tpm,
    leading_minors,
    resign,
)
from lpmch.core import ldl

PROPERTY = settings(max_examples=40, deadline=None)


def patterns_of(n):
    return st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n).map(tuple)


sizes = st.integers(1, 64)
patterns = sizes.flatmap(patterns_of)
pattern_pairs = sizes.flatmap(lambda n: st.tuples(patterns_of(n), patterns_of(n)))
seeds = st.integers(0, 2**32 - 1)


def random_factor(rng, n):
    """Lower triangular, diagonal in [0.5, 2], strict-lower entries N(0, 1/n).

    With unit-variance entries the condition number of such a factor grows
    exponentially (median about 6e7 at n = 64, 3e14 at n = 128), and the
    composed matrices are too ill-conditioned for any unpivoted elimination
    to keep the pivot signs; with variance 1/n it stays near 10 up to n = 128.
    """
    strict = np.tril(rng.standard_normal((n, n)), -1) / np.sqrt(n)
    return strict + np.diag(rng.uniform(0.5, 2.0, n))


def relative_error(X, Y):
    return np.linalg.norm(X - Y) / np.linalg.norm(Y)


@PROPERTY
@given(patterns, seeds)
def test_ldl_reconstructs(eps, seed):
    A = compose(random_factor(np.random.default_rng(seed), len(eps)), canonical_point(eps))
    L, d = ldl(A.matrix)
    assert np.array_equal(np.diagonal(L), np.ones(len(eps)))
    assert np.array_equal(L, np.tril(L))
    assert relative_error((L * d) @ L.T, A.matrix) < 1e-13


@PROPERTY
@given(patterns, seeds)
def test_leading_minors_signs_and_logdets(eps, seed):
    A = compose(random_factor(np.random.default_rng(seed), len(eps)), canonical_point(eps))
    minors = leading_minors(A.matrix)
    assert tuple(int(s) for s in np.sign(minors)) == eps
    logdets = [np.linalg.slogdet(A.matrix[:k, :k])[1] for k in range(1, len(eps) + 1)]
    assert np.allclose(np.log(np.abs(minors)), logdets, rtol=1e-12, atol=1e-11)


@PROPERTY
@given(patterns, seeds)
def test_factor_inverts_compose_against_general_basis(eps, seed):
    rng = np.random.default_rng(seed)
    n = len(eps)
    L = random_factor(rng, n)
    B = cone_compose(random_factor(rng, n), eps)
    assert relative_error(factor(compose(L, B), B), L) < 1e-11
    C = cone_compose(random_factor(rng, n), eps, cone="tpm")
    assert relative_error(factor_tpm(compose_tpm(L, C), C), L) < 1e-11


@PROPERTY
@given(pattern_pairs, seeds)
def test_resign_round_trip(pair, seed):
    eps, delta = pair
    A = compose(random_factor(np.random.default_rng(seed), len(eps)), canonical_point(eps))
    assert relative_error(resign(resign(A, delta), eps).matrix, A.matrix) < 1e-13
