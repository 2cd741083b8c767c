"""Property tests for the LDL* kernel and the maps built on it, up to n = 64,
and tests of the blocked kernel across its panel boundaries."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_factor
from lpmch import (
    ConePoint,
    DistributionSpec,
    canonical_point,
    compose,
    compose_tpm,
    cone_compose,
    cone_factor,
    factor,
    factor_tpm,
    inverse_wishart_log_density,
    leading_minors,
    resign,
    reverse_matrix,
    symmetrize,
    wishart_log_density,
)
from lpmch.core import _blocked_ldl, _classify_with_minors, _lower_inverse, ldl
from lpmch.errors import MinorNearZero

PROPERTY = settings(max_examples=40, deadline=None)


def patterns_of(n):
    return st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n).map(tuple)


sizes = st.integers(1, 64)
patterns = sizes.flatmap(patterns_of)
pattern_pairs = sizes.flatmap(lambda n: st.tuples(patterns_of(n), patterns_of(n)))
seeds = st.integers(0, 2**32 - 1)
# Decimal exponents of the scales 1e-4..1e4 that points and sigmas are taken at.
log_scales = st.floats(-4, 4)


def tpm_twin(P):
    """The TPM point of the reversal of P's matrix, with P's pattern."""
    return ConePoint(matrix=symmetrize(reverse_matrix(P.matrix)), cone="tpm", pattern=P.pattern)


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
@given(patterns, log_scales, seeds)
def test_tpm_maps_are_the_reversals_of_lpm_maps(eps, log_scale, seed):
    """With R the reversal, factor_tpm(R(P), R(B)) is R(factor(P, B)) and
    cone_factor(R(P)) is R(cone_factor(P)) bit for bit, classify of R(A) in
    the TPM cone has the pattern and minors of classify(A) (or fails at the
    same minor), and compose_tpm(R(L), R(B)) is R(compose(L, B)) to
    rounding: within 2 n u |L| |B| |L|*, twice the error bound of either."""
    rng = np.random.default_rng(seed)
    n = len(eps)
    L = np.sqrt(10.0 ** log_scale) * random_factor(rng, n)
    B = compose(random_factor(rng, n), canonical_point(eps))
    P = compose(L, B)
    RP, RB = tpm_twin(P), tpm_twin(B)
    for basis, reversed_basis in ((B, RB), (canonical_point(eps), canonical_point(eps, "tpm"))):
        assert np.array_equal(factor_tpm(RP, reversed_basis), reverse_matrix(factor(P, basis)))
    assert np.array_equal(cone_factor(RP), reverse_matrix(cone_factor(P)))

    try:
        point, minors = _classify_with_minors(P.matrix)
    except MinorNearZero as exc:
        with pytest.raises(MinorNearZero) as info:
            _classify_with_minors(reverse_matrix(P.matrix), "tpm")
        assert info.value.k == exc.k
    else:
        twin, twin_minors = _classify_with_minors(reverse_matrix(P.matrix), "tpm")
        assert (twin.cone, twin.pattern) == ("tpm", point.pattern)
        assert np.array_equal(twin_minors, minors)

    u = np.finfo(float).eps / 2
    bound = 2 * n * u * np.linalg.norm(np.abs(L) @ np.abs(B.matrix) @ np.abs(L).T)
    twin = compose_tpm(reverse_matrix(L), RB)
    assert (twin.cone, twin.pattern) == ("tpm", eps)
    assert np.linalg.norm(twin.matrix - reverse_matrix(P.matrix)) <= bound


@PROPERTY
@given(patterns, log_scales, seeds)
def test_tpm_densities_are_the_lpm_densities_of_the_reversals(eps, log_scale, seed):
    """The TPM Wishart and inverse-Wishart log-densities at R(M) under the
    scale R(sigma) are those of the LPM laws at M under sigma, within
    1e-13 relative."""
    rng = np.random.default_rng(seed)
    n, scale = len(eps), 10.0 ** log_scale
    X = rng.standard_normal((n, n))
    sigma = symmetrize(scale * (X @ X.T / n + np.eye(n)))
    M = compose(np.sqrt(scale) * random_factor(rng, n), canonical_point(eps))
    RM = tpm_twin(M)
    for kind, density in (("wishart", wishart_log_density),
                          ("inverse_wishart", inverse_wishart_log_density)):
        lpm = DistributionSpec(kind=kind, pattern=eps, cone="lpm", sigma=sigma, dof=n + 2)
        tpm = DistributionSpec(kind=kind, pattern=eps, cone="tpm",
                               sigma=reverse_matrix(sigma), dof=n + 2)
        assert density(RM, tpm) == pytest.approx(density(M, lpm), rel=1e-13, abs=0)


@PROPERTY
@given(pattern_pairs, seeds)
def test_resign_round_trip(pair, seed):
    eps, delta = pair
    A = compose(random_factor(np.random.default_rng(seed), len(eps)), canonical_point(eps))
    assert relative_error(resign(resign(A, delta), eps).matrix, A.matrix) < 1e-13


@pytest.fixture
def cholesky_calls(monkeypatch):
    """The outcome of every np.linalg.cholesky call, in order: "factored" or
    "raised"."""
    calls = []
    cholesky = np.linalg.cholesky

    def counted(*args, **kwargs):
        try:
            C = cholesky(*args, **kwargs)
        except np.linalg.LinAlgError:
            calls.append("raised")
            raise
        calls.append("factored")
        return C

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    return calls


# How far the Cholesky path of ldl may move L (entrywise, L is unit lower) and
# d (entrywise, relative) from the elimination on definite input: both are
# backward stable there (Higham, Accuracy and Stability of Numerical
# Algorithms, 2nd ed., chs. 9-10), and on 4000 seeded points of
# test_ldl_takes_cholesky_on_definite_input's kind the largest moves were
# 3.2e-15 and 3.6e-15. The backward residual there exceeded the
# elimination's by at most 1.95 units of rounding.
L_MOVE = 1e-14
D_MOVE = 1e-14


def assert_near_elimination(L, d, L0, d0):
    assert np.array_equal(L, np.tril(L)) and np.array_equal(np.diagonal(L), np.ones(len(d)))
    assert np.max(np.abs(L - L0)) <= L_MOVE
    assert np.max(np.abs(d - d0) / np.abs(d0)) <= D_MOVE


def definite_pattern(n, sign):
    """The pattern whose canonical signs are all sign: every minor positive,
    or minors alternating from negative."""
    return tuple(1 if sign > 0 else (-1) ** (k + 1) for k in range(n))


@PROPERTY
@given(sizes, st.sampled_from((1, -1)), st.sampled_from(("lpm", "tpm")),
       st.floats(-8, 8), seeds)
def test_ldl_takes_cholesky_on_definite_input(n, sign, cone, log_scale, seed):
    """On positive and negative definite points at scales 1e-8..1e8, ldl is
    the blocked elimination within L_MOVE and D_MOVE, and its backward
    residual is no worse than the elimination's, up to four units of
    rounding."""
    rng = np.random.default_rng(seed)
    A = cone_compose(random_factor(rng, n), definite_pattern(n, sign), cone).matrix
    work = 10.0 ** log_scale * (A if cone == "lpm" else reverse_matrix(A))
    L, d = ldl(work)
    L0, d0 = _blocked_ldl(work)
    assert np.all(sign * d > 0)
    assert_near_elimination(L, d, L0, d0)
    u = np.finfo(float).eps / 2
    assert relative_error((L * d) @ L.T, work) <= relative_error((L0 * d0) @ L0.T, work) + 4 * u


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("n", (2, 10, 64))
def test_cholesky_runs_for_definite_input_only(n, sign, cholesky_calls):
    rng = np.random.default_rng(n)
    A = cone_compose(random_factor(rng, n), definite_pattern(n, sign)).matrix
    ldl(A)
    assert cholesky_calls == ["factored"]
    # Canonical signs (1, -1, ..., -1) and (-1, 1, ..., 1).
    for eps in ((1, -1) * (n // 2), (-1,) * n):
        for B in (canonical_point(eps).matrix,
                  cone_compose(random_factor(rng, n), eps).matrix):
            assert np.any(np.diagonal(B) > 0) and np.any(np.diagonal(B) < 0)
            ldl(B)
    assert cholesky_calls == ["factored"]


@pytest.mark.parametrize("n", (10, 64))
def test_ldl_falls_back_when_cholesky_fails_late(n, cholesky_calls):
    """Only the last canonical sign is negative, and the last row of the
    factor makes every diagonal entry positive: LAPACK fails at the last
    pivot, and ldl is the elimination bit for bit."""
    L = random_factor(np.random.default_rng(n), n)
    L[-1, :-1] = 1.0
    L[-1, -1] = 0.5
    A = compose(L, canonical_point((1,) * (n - 1) + (-1,))).matrix
    assert np.all(np.diagonal(A) > 0)
    L1, d1 = ldl(A)
    assert cholesky_calls == ["raised"]
    L0, d0 = _blocked_ldl(A)
    assert np.array_equal(L1, L0) and np.array_equal(d1, d0)
    assert np.array_equal(np.sign(d1), np.r_[np.ones(n - 1), -1.0])


@pytest.mark.parametrize("n, k", ((3, 1), (70, 40)))
def test_ldl_falls_back_at_an_exact_zero_pivot(n, k, cholesky_calls):
    """A positive diagonal whose (k+1)-th pivot is exactly zero: the
    elimination stops there with NaN after it, as without the Cholesky path."""
    A = np.eye(n)
    A[k, k - 1] = A[k - 1, k] = 1.0
    L, d = ldl(A)
    assert cholesky_calls == ["raised"]
    assert np.array_equal(d[:k + 1], np.r_[np.ones(k), 0.0])
    assert np.all(np.isnan(d[k + 1:]))
    L0, d0 = _blocked_ldl(A)
    assert np.array_equal(L, L0) and np.array_equal(d, d0, equal_nan=True)


@pytest.mark.parametrize("A", ([[5e-324, 1e-8], [1e-8, 1e308]], [[np.inf, 1.0], [1.0, 1.0]]),
                         ids=("overflow", "inf"))
def test_ldl_falls_back_on_a_non_finite_factor(A, cholesky_calls):
    """LAPACK factors both matrices, but L21 is 1e-8 / 5e-324, beyond the
    float range, in the first, and inf / inf in the second: ldl is the
    elimination's, with the elimination's warnings and no others."""
    A = np.array(A)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        L, d = ldl(A)
    with warnings.catch_warnings(record=True) as expected:
        warnings.simplefilter("always")
        L0, d0 = _blocked_ldl(A)
    assert [str(w.message) for w in caught] == [str(w.message) for w in expected]
    assert cholesky_calls == ["factored"]
    assert np.array_equal(L, L0) and np.array_equal(d, d0)


@pytest.mark.parametrize("n", (2, 10, 70))
def test_complex_input_takes_the_elimination(n, cholesky_calls):
    rng = np.random.default_rng(n)
    K = random_factor(rng, n) + 1j * np.tril(rng.standard_normal((n, n)), -1) / np.sqrt(n)
    H = K @ K.conj().T
    L, d = ldl(H)
    L0, d0 = _blocked_ldl(H)
    assert np.array_equal(L, L0) and np.array_equal(d, d0)
    assert np.all(d > 0)
    # Complex symmetric, not Hermitian, with a positive diagonal.
    S = (K @ K.T).real + 0.5j * (np.ones((n, n)) - np.eye(n))
    with pytest.raises(ValueError, match="not Hermitian"):
        ldl(S)
    assert cholesky_calls == []


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
def test_ldl_within_one_panel_is_the_plain_loop(n, cone, cholesky_calls):
    """Bit for bit, unless the input is definite and takes the Cholesky path;
    then within the bounds of the Cholesky path (assert_near_elimination)."""
    _, _, work = seeded_cone_matrix(n, cone)
    L, d = ldl(work)
    L0, d0 = unblocked_ldl(work)
    definite = np.all(d0 > 0) or np.all(d0 < 0)
    assert cholesky_calls.count("factored") == int(definite)
    if definite:
        assert_near_elimination(L, d, L0, d0)
    else:
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
    X = _lower_inverse(L)
    assert not np.triu(X, 1).any()
    assert np.array_equal(np.diagonal(X), np.ones(n))
    u = np.finfo(float).eps / 2
    bound = n * u * np.linalg.norm(np.abs(X) @ np.abs(L))
    assert np.linalg.norm(X @ L - np.eye(n)) <= bound


@settings(max_examples=10, deadline=None)
@given(seeds)
@pytest.mark.parametrize("dtype", (float, complex))
@pytest.mark.parametrize("n", (1, 2, 3, 10, 31, 32))
def test_panel_inverse_is_one_lapack_inverse(n, dtype, seed):
    """A unit-lower matrix of at most 32 rows, as each panel of the blocked
    elimination is, is one leaf of _lower_inverse: its LAPACK inverse cut to
    the strict lower triangle plus I, bit for bit. ldl's factors rest on
    this: each of its panels takes exactly this one LAPACK inverse."""
    rng = np.random.default_rng(seed)
    L = np.tril(rng.standard_normal((n, n)), -1).astype(dtype)
    if dtype is complex:
        L += 1j * np.tril(rng.standard_normal((n, n)), -1)
    L += np.eye(n)
    expected = np.tril(np.linalg.inv(L), -1) + np.eye(n)
    assert np.array_equal(_lower_inverse(L), expected)
