import warnings

import numpy as np
import pytest

from conftest import random_cone_point
from lpmch import (
    ConePoint,
    DistributionSpec,
    RngStream,
    all_patterns,
    canonical_diagonal,
    canonical_point,
    cholesky_normal_sample,
    classify,
    cone_compose,
    cone_factor,
    cones_with_inertia,
    invert_cone_point,
    is_lower_triangular,
    leading_minors,
    lpm_perturbation,
    negative_inertia,
    pattern_from_string,
    pattern_to_string,
    reverse_matrix,
    reverse_pattern,
    symmetrize,
    wishart_sample,
)
from lpmch import sampling
from lpmch.core import _cache_factor, _classify_with_minors
from lpmch.errors import MinorNearZero, NonFiniteInput, SingularMatrix, SpecInvalid

NON_FINITE = (np.full((2, 2), np.nan), np.array([[1.0, 0.5], [0.5, np.inf]]))


def test_pattern_strings():
    assert pattern_from_string("+-+") == (1, -1, 1)
    assert pattern_to_string((1, -1, 1)) == "+-+"
    with pytest.raises(ValueError):
        pattern_from_string("+x")


def test_all_patterns_and_symmetrize_refuse_what_has_no_size():
    with pytest.raises(ValueError, match="a sign pattern needs n >= 1, got n=0"):
        all_patterns(0)
    with pytest.raises(ValueError, match=r"expected a square matrix, got shape \(2, 3\)"):
        symmetrize(np.ones((2, 3)))


@pytest.mark.parametrize("eps, expected", [
    ((1, 1, 1), np.eye(3)),
    ((1, -1), np.diag([1.0, -1.0])),
    ((-1, -1, 1), np.diag([-1.0, 1.0, -1.0])),
])
def test_canonical_diagonal(eps, expected):
    assert np.array_equal(canonical_diagonal(eps), expected)


def test_classify_examples():
    assert classify(np.array([[1.0, 2.0], [2.0, 1.0]])).pattern == (1, -1)
    assert classify(np.eye(4)).pattern == (1, 1, 1, 1)
    with pytest.raises(MinorNearZero) as exc:
        classify(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert exc.value.k == 1


def test_classify_canonical_diagonal_roundtrip():
    for n in range(1, 9):
        for eps in all_patterns(n):
            assert classify(canonical_diagonal(eps)).pattern == eps


def test_classify_hermitian_complex():
    A = np.array([[2.0, 1 + 1j], [1 - 1j, 1.0]])
    # minors 2 and 2*1 - |1+i|^2 = 0 -> boundary
    with pytest.raises(MinorNearZero):
        classify(A)
    B = np.array([[2.0, 1 + 1j], [1 - 1j, 2.0]])
    assert classify(B).pattern == (1, 1)


def test_classify_keeps_small_imaginary_parts():
    # Leading minors 1e-9 and -5e-19: the imaginary parts, though below 1e-8,
    # decide the sign of the second minor.
    A = 1e-9 * np.array([[1, 1 + 1j], [1 - 1j, 1.5]])
    assert leading_minors(A)[1] < 0
    assert classify(A, tol=0).pattern == (1, -1)


@pytest.mark.parametrize("cone", ("lpm", "tpm"))
def test_classify_minors_beyond_the_float_range(cone):
    # Well scaled and positive definite, but the leading minors pass 1e308
    # near k = 100; the sign test is taken in logs and never sees them.
    X = np.random.default_rng(0).standard_normal((256, 256))
    A = 1280 * np.eye(256) + (X + X.T) / 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        point, minors = _classify_with_minors(A, cone)
    assert point.pattern == (1,) * 256
    assert np.isinf(minors[-1])
    # A cutoff tol * 1e10**k beyond 1e308 is no error either: the 31st minor
    # here is at most that cutoff, and is refused by name.
    d = [1e10] * 30 + [1.0] * 10
    with pytest.raises(MinorNearZero) as exc:
        classify(np.diag(d if cone == "lpm" else d[::-1]), cone)
    assert exc.value.k in (31, 32)


@pytest.mark.parametrize("cone", ("lpm", "tpm"))
@pytest.mark.parametrize("tol", (-1.0, float("nan"), float("inf")))
def test_classify_tolerance_must_be_finite_and_nonnegative(tol, cone):
    # With a negative or NaN tol, the zero minor of [[1, 1], [1, 1]] would
    # pass as negative.
    with pytest.raises(ValueError, match=f"tolerance must be finite and >= 0, got {tol}"):
        classify(np.ones((2, 2)), cone, tol=tol)
    with pytest.raises(MinorNearZero):
        classify(np.ones((2, 2)), cone, tol=0.0)


@pytest.mark.parametrize("cone", ("lpm", "tpm"))
@pytest.mark.parametrize("A", NON_FINITE, ids=("nan", "inf"))
def test_classify_refuses_non_finite_input_by_name(A, cone):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInput, match="every entry must be finite"):
            classify(A, cone)


@pytest.mark.parametrize("A", NON_FINITE, ids=("nan", "inf"))
def test_leading_minors_refuses_non_finite_input_by_name(A):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInput, match="every entry must be finite"):
            leading_minors(A)


@pytest.mark.parametrize("shape", ((2, 3), (3,), (2, 2, 2), (0, 0)))
def test_minors_need_one_square_matrix_of_size_at_least_one(shape):
    A = np.ones(shape)
    for minors in (leading_minors, classify):
        with pytest.raises(ValueError, match="expected a square matrix"):
            minors(A)


def test_leading_minors_beyond_the_float_range_are_signed_infinities():
    X = np.random.default_rng(0).standard_normal((256, 256))
    A = 1280 * np.eye(256) + (X + X.T) / 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        minors = leading_minors(A)
    assert np.all(np.sign(minors) == 1)
    assert int(np.sum(np.isinf(minors))) == 157
    # A negative minor past the float range keeps its sign.
    minors = leading_minors(np.diag([-1e200, 1e200]))
    assert minors[-1] == -np.inf


def test_a_boolean_matrix_is_its_zero_one_matrix():
    # NumPy adds booleans as a logical or (I + I* = I, so symmetrize halved
    # the diagonal) and refuses to subtract them (the Hermitian test).
    B, I = np.eye(3, dtype=bool), np.eye(3)
    assert np.array_equal(symmetrize(B), I)
    assert np.array_equal(classify(B).matrix, classify(I).matrix)
    assert classify(B).pattern == classify(I).pattern
    assert np.array_equal(leading_minors(B), leading_minors(I))


def test_leading_minors_against_determinants():
    rng = np.random.default_rng(11)
    for n in range(1, 6):
        A = rng.standard_normal((n, n))
        A = (A + A.T) / 2
        minors = leading_minors(A)
        for k in range(1, n + 1):
            assert minors[k - 1] == pytest.approx(
                np.linalg.det(A[:k, :k]), rel=1e-10, abs=1e-12)


# Leading minors 1, -3, -10; trailing minors 3, 2, -10.
INDEFINITE = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 1.0], [0.0, 1.0, 3.0]])


@pytest.mark.parametrize("call, error", [
    (lambda: classify(INDEFINITE, cone="xyz"), ValueError),
    (lambda: cone_factor(ConePoint(matrix=INDEFINITE, cone="xyz", pattern=(1, -1, -1))),
     ValueError),
    (lambda: canonical_point((1, -1), "xyz"), ValueError),
    (lambda: cone_compose(np.eye(2), (1, -1), cone="xyz"), ValueError),
    (lambda: wishart_sample(RngStream(0), DistributionSpec(
        kind="wishart", cone="xyz", pattern=(1, -1), sigma=np.eye(2), dof=3)), SpecInvalid),
    (lambda: cholesky_normal_sample(RngStream(0), DistributionSpec(
        kind="cholesky_normal", cone="xyz", m0=canonical_point((1, -1)),
        sigma_tilde=np.eye(3))), SpecInvalid),
], ids=["classify", "cone_factor", "canonical_point", "cone_compose", "wishart", "normal"])
def test_a_cone_other_than_lpm_and_tpm_is_refused(call, error):
    # Each took an unknown cone for LPM or TPM and labelled its point with it.
    with pytest.raises(error, match="cone must be 'lpm' or 'tpm', got 'xyz'"):
        call()


@pytest.mark.parametrize("carries_factor", (False, True))
def test_cone_swaps_refuse_a_cone_other_than_lpm_and_tpm(carries_factor):
    # invert_cone_point took any such cone for TPM and labelled its result LPM.
    point = ConePoint(matrix=np.diag([1.0, -1.0]), cone="xyz", pattern=(1, -1))
    if carries_factor:
        _cache_factor(point, np.eye(2))
    with pytest.raises(ValueError, match="cone must be 'lpm' or 'tpm', got 'xyz'"):
        invert_cone_point(point)


@pytest.mark.parametrize("cone", ("lpm", "tpm", "xyz"))
def test_inverse_wishart_draws_in_its_own_cone(cone):
    # The law draws its factors in its own cone and pattern; a law whose cone
    # is neither (only reachable past spec validation) refuses.
    spec = DistributionSpec(kind="inverse_wishart", cone="lpm", pattern=(1, -1),
                            sigma=np.eye(2), dof=3)
    law = sampling._InverseWishart(spec, (np.eye(2),), (1, -1))
    law.cone = cone
    draws = law.draws(np.random.default_rng(0), 5)
    if cone == "xyz":
        with pytest.raises(ValueError, match="cone must be 'lpm' or 'tpm', got 'xyz'"):
            law.factors(draws)
        return
    assert is_lower_triangular(law.factors(draws))
    for point in law.points(draws):
        assert (point.cone, point.pattern) == (cone, (1, -1))
        assert classify(point.matrix, cone=cone).pattern == (1, -1)


def test_reverse_matrix():
    A = np.array([[1.0, 2.0], [2.0, 5.0]])
    assert np.array_equal(reverse_matrix(A), np.array([[5.0, 2.0], [2.0, 1.0]]))
    rng = np.random.default_rng(0)
    B = rng.standard_normal((4, 4))
    assert np.array_equal(reverse_matrix(reverse_matrix(B)), B)
    A = np.array([[1.0, 2.0], [2.0, 1.0]])
    assert classify(reverse_matrix(A), cone="tpm").pattern == classify(A).pattern


def test_reverse_matrix_of_a_stack_reverses_each_matrix():
    rng = np.random.default_rng(1)
    for n in (1, 2, 5):
        S = rng.standard_normal((3, 4, n, n)) + 1j * rng.standard_normal((3, 4, n, n))
        R = reverse_matrix(S)
        assert R.shape == S.shape
        for index in np.ndindex(3, 4):
            assert np.array_equal(R[index], reverse_matrix(S[index]))
            assert np.array_equal(R[index], S[index].conj().T[::-1, ::-1])


def test_reverse_pattern():
    assert reverse_pattern((1, -1)) == (-1, -1)
    assert reverse_pattern((1, 1, 1)) == (1, 1, 1)
    assert reverse_pattern((1,)) == (1,)
    for n in range(1, 11):
        for eps in all_patterns(n):
            assert reverse_pattern(reverse_pattern(eps)) == eps


def test_invert_cone_point():
    eps = (1, -1, 1)
    D = canonical_point(eps)
    Dinv = invert_cone_point(D)
    assert np.allclose(Dinv.matrix, D.matrix)
    assert Dinv.cone == "tpm"
    assert Dinv.pattern == reverse_pattern(eps)

    A = classify(np.array([[1.0, 2.0], [2.0, 1.0]]))
    Ainv = invert_cone_point(A)
    assert np.allclose(Ainv.matrix, np.array([[-1, 2], [2, -1]]) / 3.0)
    assert (Ainv.cone, Ainv.pattern) == ("tpm", (-1, -1))
    # Trailing minors of the inverse: -1/3 and 1/9 - 4/9 = -1/3.
    assert classify(Ainv.matrix, cone="tpm").pattern == (-1, -1)

    back = invert_cone_point(Ainv)
    assert np.allclose(back.matrix, A.matrix, atol=1e-12)
    assert (back.cone, back.pattern) == (A.cone, A.pattern)


def test_invert_singular():
    point = classify(np.array([[1.0, 2.0], [2.0, 1.0]]))
    bad = type(point)(matrix=np.ones((2, 2)), cone="lpm", pattern=(1, -1))
    with pytest.raises(SingularMatrix):
        invert_cone_point(bad)


def test_lpm_perturbation_examples():
    t, eps = lpm_perturbation(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert (t, eps) == (1.0, (1, -1))
    t, eps = lpm_perturbation(np.eye(3))
    assert (t, eps) == (1.0, (1, 1, 1))
    t, eps = lpm_perturbation(np.diag([-2.0, 3.0]))
    assert (t, eps) == (2.0, (-1, -1))
    t, eps = lpm_perturbation(np.zeros((3, 3)))
    assert (t, eps) == (1.0, (1, 1, 1))


def test_lpm_perturbation_stable_pattern():
    rng = np.random.default_rng(5)
    for n in range(2, 7):
        A = rng.standard_normal((n, n))
        A = (A + A.T) / 2
        t_A, eps = lpm_perturbation(A)
        for t in np.linspace(0.1, 0.9, 5) * t_A:
            assert classify(A + t * np.eye(n)).pattern == eps


def test_lpm_perturbation_of_complex_input_keeps_its_imaginary_part():
    # Cast to float, [[1, 2i], [-2i, 1]] lost its off-diagonal entries and
    # gave the pattern of the identity.
    H = np.array([[1.0, 2j], [-2j, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lpm_perturbation(H) == (1.0, (1, -1))
        # The self-adjoint part of a complex symmetric matrix, as classify takes it.
        S = np.array([[2.0, 1 + 1j], [1 + 1j, 2.0]])
        assert lpm_perturbation(S) == lpm_perturbation(symmetrize(S))
        H = np.array([[2.0, 1 + 1j, 0.5], [1 - 1j, -1.0, 2j], [0.5, -2j, 3.0]])
        t_A, eps = lpm_perturbation(H)
        assert classify(H + t_A / 2 * np.eye(3)).pattern == eps
    # Real input is still taken as floats, a boolean one included.
    assert lpm_perturbation(np.eye(2, dtype=bool)) == (1.0, (1, 1))


def test_negative_inertia():
    assert negative_inertia((1, 1, 1, 1)) == 0
    for n in range(1, 8):
        alt = tuple((-1) ** k for k in range(1, n + 1))
        assert negative_inertia(alt) == n
    assert negative_inertia((1, -1, 1)) == 2
    eigs = np.linalg.eigvalsh(canonical_diagonal((1, -1, 1)))
    assert int(np.sum(eigs < 0)) == 2


def test_inertia_reverse_invariant():
    for n in range(1, 11):
        for eps in all_patterns(n):
            assert negative_inertia(reverse_pattern(eps)) == negative_inertia(eps)


def test_cones_with_inertia():
    assert cones_with_inertia(2, 0) == [(1, 1)]
    got = set(cones_with_inertia(3, 1))
    assert got == {(-1, -1, -1), (1, -1, -1), (1, 1, -1)}
    from math import comb
    for n in range(1, 11):
        total = 0
        for k in range(n + 1):
            cones = cones_with_inertia(n, k)
            assert len(cones) == comb(n, k)
            # the enumerated filter, in the same order, as tuples of ints
            assert cones == [eps for eps in all_patterns(n) if negative_inertia(eps) == k]
            assert all(type(s) is int for eps in cones for s in eps)
            total += len(cones)
        assert total == 2**n
    with pytest.raises(ValueError):
        cones_with_inertia(3, 4)


def test_cones_with_inertia_does_not_enumerate():
    # 780 of 2^40 patterns
    got = cones_with_inertia(40, 2)
    assert len(got) == 780 == len(set(got))
    assert all(negative_inertia(eps) == 2 for eps in got)
    assert got == sorted(got, reverse=True)


def test_cone_sample_inertia_matches_eigenvalues():
    rng = np.random.default_rng(17)
    for n in range(1, 6):
        for eps in all_patterns(n):
            A = random_cone_point(rng, eps)
            eigs = np.linalg.eigvalsh(A.matrix)
            assert int(np.sum(eigs < 0)) == negative_inertia(eps)
