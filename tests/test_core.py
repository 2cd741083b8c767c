import numpy as np
import pytest

from conftest import random_cone_point
from lpmch import (
    all_patterns,
    canonical_diagonal,
    canonical_point,
    classify,
    cones_with_inertia,
    invert_cone_point,
    leading_minors,
    lpm_perturbation,
    negative_inertia,
    pattern_from_string,
    pattern_to_string,
    reverse_matrix,
    reverse_pattern,
)
from lpmch.errors import MinorNearZero, SingularMatrix


def test_pattern_strings():
    assert pattern_from_string("+-+") == (1, -1, 1)
    assert pattern_to_string((1, -1, 1)) == "+-+"
    with pytest.raises(ValueError):
        pattern_from_string("+x")


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


@pytest.mark.parametrize("cone", ("lpm", "tpm"))
@pytest.mark.parametrize("tol", (-1.0, float("nan"), float("inf")))
def test_classify_tolerance_must_be_finite_and_nonnegative(tol, cone):
    # With a negative or NaN tol, the zero minor of [[1, 1], [1, 1]] would
    # pass as negative.
    with pytest.raises(ValueError, match=f"tolerance must be finite and >= 0, got {tol}"):
        classify(np.ones((2, 2)), cone, tol=tol)
    with pytest.raises(MinorNearZero):
        classify(np.ones((2, 2)), cone, tol=0.0)


def test_leading_minors_against_determinants():
    rng = np.random.default_rng(11)
    for n in range(1, 6):
        A = rng.standard_normal((n, n))
        A = (A + A.T) / 2
        minors = leading_minors(A)
        for k in range(1, n + 1):
            assert minors[k - 1] == pytest.approx(
                np.linalg.det(A[:k, :k]), rel=1e-10, abs=1e-12)


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
