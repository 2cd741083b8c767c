"""Property tests for the LDL* kernel and the maps built on it, up to n = 64,
and tests of the blocked kernel across its panel boundaries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_factor
from lpmch import (
    canonical_point,
    compose,
    compose_tpm,
    cone_compose,
    cone_factor,
    factor,
    factor_tpm,
    leading_minors,
    resign,
    reverse_matrix,
)
from lpmch.core import _unit_lower_inverse, ldl

PROPERTY = settings(max_examples=40, deadline=None)


def patterns_of(n):
    return st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n).map(tuple)


sizes = st.integers(1, 64)
patterns = sizes.flatmap(patterns_of)
pattern_pairs = sizes.flatmap(lambda n: st.tuples(patterns_of(n), patterns_of(n)))
seeds = st.integers(0, 2**32 - 1)


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


def unblocked_ldl(A):
    """The plain rank-1 elimination loop: the reference for the blocked kernel."""
    U = np.array(A, dtype=complex if np.iscomplexobj(A) else float)
    n = U.shape[0]
    L = np.eye(n, dtype=U.dtype)
    d = np.full(n, np.nan)
    for k in range(n):
        d[k] = U[k, k].real
        if U[k, k] == 0:
            break
        col = U[k + 1:, k] / U[k, k]
        L[k + 1:, k] = col
        U[k + 1:, k + 1:] -= np.outer(col, U[k, k + 1:])
    return L, d


def seeded_cone_matrix(n, cone, seed=0):
    """A point of a random cone of size n, and the matrix whose leading minors
    carry its pattern (the reversal for TPM)."""
    rng = np.random.default_rng([seed, n])
    eps = tuple(int(e) for e in rng.choice((1, -1), n))
    A = cone_compose(random_factor(rng, n), eps, cone).matrix
    return eps, A, (A if cone == "lpm" else reverse_matrix(A))


@pytest.mark.parametrize("cone", ("lpm", "tpm"))
@pytest.mark.parametrize("n", (31, 32, 33, 63, 64, 65, 97, 130, 256))
def test_blocked_ldl_across_panel_boundaries(n, cone):
    eps, _, work = seeded_cone_matrix(n, cone)
    L, d = ldl(work)
    L0, d0 = unblocked_ldl(work)
    assert relative_error((L * d) @ L.T, work) < 1e-13
    assert relative_error(L, L0) < 1e-13
    assert relative_error(d, d0) < 1e-13
    assert tuple(int(s) for s in np.sign(leading_minors(work))) == eps


def wide_factor(rng, n, complex_scalars=False):
    """Lower triangular, diagonal in [0.5, 2], strict-lower entries N(0, 0.3^2)
    (real and imaginary parts each, for complex scalars): far worse
    conditioned than random_factor at n >= 64."""
    strict = np.tril(rng.standard_normal((n, n)), -1)
    if complex_scalars:
        strict = strict + 1j * np.tril(rng.standard_normal((n, n)), -1)
    return 0.3 * strict + np.diag(rng.uniform(0.5, 2.0, n))


@pytest.mark.parametrize("cone", ("lpm", "tpm"))
@pytest.mark.parametrize("n", (128, 256))
def test_ldl_backward_error_of_ill_conditioned_points(n, cone):
    """Panels whose upper half is eliminated apart from their lower half let
    the two halves drift, and L diag(d) L* then misses A by 1e-13 at n = 128
    and 1e-9 at n = 256; built from the lower half alone, it stays near u."""
    rng = np.random.default_rng([n, 0])
    eps = tuple(int(e) for e in rng.choice((1, -1), n))
    A = cone_compose(wide_factor(rng, n), eps, cone)
    work = A.matrix if cone == "lpm" else reverse_matrix(A.matrix)
    L, d = ldl(work)
    assert relative_error((L * d) @ L.T, work) < 1e-14
    assert relative_error(cone_compose(cone_factor(A), eps, cone).matrix, A.matrix) < 1e-14


def test_ldl_complex_hermitian_ill_conditioned():
    """An exactly Hermitian matrix is factored, not refused: drift between
    the halves of a panel would give its leading minors an imaginary part."""
    rng = np.random.default_rng([128, 0])
    K = wide_factor(rng, 128, complex_scalars=True)
    H = (K * rng.choice((1.0, -1.0), 128)) @ K.conj().T
    H = (H + H.conj().T) / 2
    L, d = ldl(H)
    assert relative_error((L * d) @ L.conj().T, H) < 1e-13


@pytest.mark.parametrize("n", (20, 40))
def test_leading_minors_rejects_non_hermitian_input(n):
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n)) + n * np.eye(n)
    with pytest.raises(ValueError, match="not Hermitian"):
        leading_minors(A)
    S = (A + A.T) / 2
    with pytest.raises(ValueError, match="not Hermitian"):
        leading_minors(S + 1j * S[::-1])
    assert np.array_equal(leading_minors(S), np.cumprod(ldl(S)[1]))


@pytest.mark.parametrize("cone", ("lpm", "tpm"))
@pytest.mark.parametrize("n", (1, 2, 3, 10, 17, 31, 32))
def test_ldl_within_one_panel_is_the_plain_loop(n, cone):
    _, _, work = seeded_cone_matrix(n, cone)
    L, d = ldl(work)
    L0, d0 = unblocked_ldl(work)
    assert np.array_equal(L, L0) and np.array_equal(d, d0)


def test_ldl_stops_at_exact_zero_pivot_in_a_later_panel():
    A = np.eye(70)
    A[40, 40] = 0.0
    L, d = ldl(A)
    assert np.array_equal(d[:41], np.r_[np.ones(40), 0.0])
    assert np.all(np.isnan(d[41:]))
    assert np.array_equal(L, np.eye(70))


def test_ldl_complex_hermitian_across_panels():
    rng = np.random.default_rng(70)
    n = 70
    K = random_factor(rng, n) + 1j * np.tril(rng.standard_normal((n, n)), -1) / np.sqrt(n)
    H = (K * rng.choice((1.0, -1.0), n)) @ K.conj().T
    L, d = ldl(H)
    assert d.dtype == float
    assert relative_error((L * d) @ L.conj().T, H) < 1e-13


def test_ldl_rejects_complex_symmetric_in_a_later_panel():
    rng = np.random.default_rng(71)
    K = random_factor(rng, 70)
    S = (K @ K.T).astype(complex)
    S[40, 40] += 0.5j
    with pytest.raises(ValueError, match="not Hermitian"):
        ldl(S)


@pytest.mark.parametrize("n", (20, 70))
def test_ldl_does_not_depend_on_memory_layout(n):
    _, A, _ = seeded_cone_matrix(n, "tpm")
    R = reverse_matrix(A)
    assert not R.flags.c_contiguous
    L, d = ldl(R)
    Lc, dc = ldl(np.ascontiguousarray(R))
    assert np.array_equal(L, Lc) and np.array_equal(d, dc)


@settings(max_examples=10, deadline=None)
@given(seeds)
@pytest.mark.parametrize("n", (31, 32, 33, 64, 97, 256))
def test_unit_lower_inverse(n, seed):
    """Exactly lower triangular with a unit diagonal, and a left residual
    within the componentwise bound |XL - I| <= c_n u |X||L| of Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 14, taken
    normwise with c_n = n; the unit-lower factor of a cone point is the
    matrix factor inverts."""
    rng = np.random.default_rng(seed)
    eps = tuple(int(e) for e in rng.choice((1, -1), n))
    L = ldl(cone_compose(random_factor(rng, n), eps).matrix)[0]
    X = _unit_lower_inverse(L)
    assert not np.triu(X, 1).any()
    assert np.array_equal(np.diagonal(X), np.ones(n))
    u = np.finfo(float).eps / 2
    bound = n * u * np.linalg.norm(np.abs(X) @ np.abs(L))
    assert np.linalg.norm(X @ L - np.eye(n)) <= bound
