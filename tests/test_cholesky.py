import warnings

import numpy as np
import pytest

from conftest import random_cone_point, random_factor, random_lower
from lpmch import (
    ConePoint,
    all_patterns,
    canonical_point,
    classify,
    compose,
    compose_tpm,
    cone_compose,
    factor,
    factor_tpm,
    is_lower_triangular,
    resign,
    reverse_matrix,
    symmetrize,
)
from lpmch.cholesky import _check_radicands
from lpmch.core import DEFAULT_TOL, _lower_inverse, canonical_signs, ldl
from lpmch.errors import ConeKindMismatch, NegativeRadicand, PatternMismatch
from lpmch.geometry import cone_factor


def test_compose_examples():
    D = canonical_point((1, -1))
    assert np.array_equal(compose(np.eye(2), D).matrix, D.matrix)
    L = np.array([[1.0, 0.0], [2.0, np.sqrt(3.0)]])
    assert np.allclose(compose(L, D).matrix, [[1, 2], [2, 1]])


def test_compose_sign_correctness():
    rng = np.random.default_rng(2)
    for eps in all_patterns(4):
        D = canonical_point(eps)
        for _ in range(10):
            A = compose(random_lower(rng, 4), D)
            assert classify(A.matrix).pattern == eps


@pytest.mark.parametrize("complex_scalars", [False, True])
def test_factor_roundtrip(complex_scalars):
    rng = np.random.default_rng(3)
    for n in range(1, 7):
        for eps in all_patterns(n):
            B = random_cone_point(rng, eps, complex_scalars=complex_scalars)
            for _ in range(3):
                L = random_lower(rng, n, complex_scalars)
                A = compose(L, B)
                assert np.abs(factor(A, B) - L).max() < 1e-9


def test_factor_examples():
    A = classify(np.array([[1.0, 2.0], [2.0, 1.0]]))
    D = canonical_point((1, -1))
    assert np.allclose(factor(A, A), np.eye(2), atol=1e-12)
    assert np.allclose(factor(A, D), [[1, 0], [2, np.sqrt(3)]], atol=1e-12)

    B = classify(np.array([[1.0, 1.0], [1.0, -1.0]]))
    L = factor(A, B)
    q = np.sqrt(3.0 / 2.0)
    assert np.allclose(L, [[1.0, 0.0], [2.0 - q, q]], atol=1e-12)
    assert np.allclose(compose(L, B).matrix, A.matrix, atol=1e-12)


def test_factor_closed_form_2x2():
    # l = sqrt(a/m), q = sqrt((ac-b^2)/a * m/(mv-u^2)), p = b/(lm) - uq/m
    rng = np.random.default_rng(4)
    for eps in all_patterns(2):
        A = random_cone_point(rng, eps)
        B = random_cone_point(rng, eps)
        (a, b), (_, c) = A.matrix
        (m, u), (_, v) = B.matrix
        l = np.sqrt(a / m)
        q = np.sqrt((a * c - b * b) / a * m / (m * v - u * u))
        p = b / (l * m) - u * q / m
        assert np.allclose(factor(A, B), [[l, 0.0], [p, q]], atol=1e-10)


def test_factor_minor_ratio_identity():
    rng = np.random.default_rng(5)
    for n in range(1, 6):
        for eps in all_patterns(n):
            A = random_cone_point(rng, eps)
            L = factor(A, canonical_point(eps))
            prev = 1.0
            for j in range(n):
                det_j = np.linalg.det(A.matrix[:j + 1, :j + 1])
                sign = (1 if j == 0 else eps[j - 1]) * eps[j]
                assert L[j, j] ** 2 == pytest.approx(sign * det_j / prev, rel=1e-8)
                prev = det_j


def test_factor_pd_matches_classical_cholesky():
    rng = np.random.default_rng(6)
    for n in range(1, 9):
        X = rng.standard_normal((n, n))
        A = classify(X @ X.T + n * np.eye(n))
        L = factor(A, canonical_point((1,) * n))
        assert np.abs(L - np.linalg.cholesky(A.matrix)).max() < 1e-10


def test_factor_errors():
    A = classify(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(PatternMismatch):
        factor(A, canonical_point((1, 1)))
    bad = type(A)(matrix=np.diag([1.0, -1.0]), cone="lpm", pattern=(1, -1))
    wrong = type(A)(matrix=np.eye(2), cone="lpm", pattern=(1, -1))
    with pytest.raises(NegativeRadicand):
        factor(wrong, bad)
    with pytest.raises(ConeKindMismatch):
        factor(A, canonical_point((1, -1), cone="tpm"))
    # A factor of another size than the basis ended in NumPy's matmul error.
    for comp, cone in ((compose, "lpm"), (compose_tpm, "tpm")):
        with pytest.raises(PatternMismatch, match="factor size 3 != basis dimension 2"):
            comp(np.eye(3), canonical_point((1, 1), cone))


@pytest.mark.parametrize("comp, cone, other",
                         ((compose, "lpm", "tpm"), (compose_tpm, "tpm", "lpm")))
def test_compose_refuses_a_basis_of_the_other_cone(comp, cone, other):
    message = f"expected a basis of the {cone} cone, got {other}"
    with pytest.raises(ConeKindMismatch, match=message):
        comp(np.eye(2), canonical_point((1, -1), other))


def test_resign_errors():
    with pytest.raises(ConeKindMismatch, match="resign needs an LPM point, got tpm"):
        resign(canonical_point((1, -1), "tpm"), (1, 1))
    with pytest.raises(PatternMismatch, match="pattern length 3 != dimension 2"):
        resign(canonical_point((1, -1)), (1, 1, 1))


@pytest.mark.parametrize("tol", (-1.0, float("nan"), float("inf")))
def test_radicand_tolerance_must_be_finite_and_nonnegative(tol):
    A = classify(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
        factor(A, canonical_point((1, -1)), tol=tol)
    with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
        resign(A, (1, 1), tol=tol)


def test_commuting_square():
    rng = np.random.default_rng(7)
    for eps in all_patterns(3):
        B = random_cone_point(rng, eps)
        B_rev = classify(symmetrize(reverse_matrix(B.matrix)), cone="tpm")
        for _ in range(5):
            L = random_lower(rng, 3)
            left = reverse_matrix(compose(L, B).matrix)
            right = compose_tpm(reverse_matrix(L), B_rev).matrix
            assert np.allclose(left, right, atol=1e-12)


def test_compose_factor_tpm():
    C = canonical_point((1, -1), cone="tpm")
    assert np.array_equal(compose_tpm(np.eye(2), C).matrix, C.matrix)

    A = classify(reverse_matrix(np.array([[1.0, 2.0], [2.0, 1.0]])), cone="tpm")
    L = factor_tpm(A, C)
    expected = reverse_matrix(np.array([[1.0, 0.0], [2.0, np.sqrt(3.0)]]))
    assert np.allclose(L, expected, atol=1e-12)
    assert np.allclose(L, [[np.sqrt(3.0), 0.0], [2.0, 1.0]], atol=1e-12)

    rng = np.random.default_rng(8)
    for eps in all_patterns(4):
        C4 = canonical_point(eps, cone="tpm")
        for _ in range(5):
            L = random_lower(rng, 4)
            assert np.abs(factor_tpm(compose_tpm(L, C4), C4) - L).max() < 1e-10


def test_resign_examples():
    A = classify(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert resign(A, (1, -1)) is A
    out = resign(A, (1, 1))
    assert out.pattern == (1, 1)
    assert np.allclose(out.matrix, [[1, 2], [2, 7]], atol=1e-12)


def test_resign_against_factor_compose_oracle():
    rng = np.random.default_rng(9)
    for eps in all_patterns(3):
        for delta in all_patterns(3):
            A = random_cone_point(rng, eps)
            got = resign(A, delta)
            L = factor(A, canonical_point(eps))
            expected = compose(L, canonical_point(delta))
            assert np.allclose(got.matrix, expected.matrix, atol=1e-10)
            assert got.pattern == delta
            # Round-trip back to the original cone.
            back = resign(got, eps)
            assert np.allclose(back.matrix, A.matrix, atol=1e-10)


def test_resign_complex():
    rng = np.random.default_rng(10)
    eps, delta = (1, -1, 1), (-1, -1, -1)
    A = random_cone_point(rng, eps, complex_scalars=True)
    got = resign(A, delta)
    L = factor(A, canonical_point(eps))
    expected = compose(L, canonical_point(delta))
    assert np.allclose(got.matrix, expected.matrix, atol=1e-10)


def test_factor_generic_n256():
    # A generic symmetric matrix that classify accepts: its factor against the
    # canonical point must be finite, lower triangular and reproduce A.
    X = np.random.default_rng(0).standard_normal((256, 256))
    A = classify((X + X.T) / 2)
    D = canonical_point(A.pattern)
    L = factor(A, D)
    assert np.all(np.isfinite(L)) and is_lower_triangular(L)
    residual = np.linalg.norm(compose(L, D).matrix - A.matrix) / np.linalg.norm(A.matrix)
    assert residual <= 1e-6


FACTOR_SIZES = (16, 31, 32, 33, 64, 65, 256)


def seeded_pair(n, cone):
    """Two points of one random cone of size n, built from well-conditioned factors."""
    rng = np.random.default_rng([n, cone == "lpm"])
    eps = tuple(int(e) for e in rng.choice((1, -1), n))
    return (cone_compose(random_factor(rng, n), eps, cone),
            cone_compose(random_factor(rng, n), eps, cone))


@pytest.mark.parametrize("cone", ["lpm", "tpm"])
@pytest.mark.parametrize("n", FACTOR_SIZES)
def test_factor_outputs_are_exactly_lower_triangular(n, cone):
    A, B = seeded_pair(n, cone)
    fac, comp = (factor, compose) if cone == "lpm" else (factor_tpm, compose_tpm)
    for basis in (B, canonical_point(A.pattern, cone)):
        F = fac(A, basis)
        assert not np.triu(F, 1).any() and is_lower_triangular(F)
        residual = np.linalg.norm(comp(F, basis).matrix - A.matrix)
        assert residual <= 1e-13 * np.linalg.norm(A.matrix)


@pytest.mark.parametrize("cone", ["lpm", "tpm"])
@pytest.mark.parametrize("n", (1, 2, 3) + FACTOR_SIZES)
def test_factor_against_the_canonical_basis_is_cone_factor(n, cone):
    A, _ = seeded_pair(n, cone)
    fac = factor if cone == "lpm" else factor_tpm
    assert np.array_equal(fac(A, canonical_point(A.pattern, cone)), cone_factor(A))


def factor_by_elimination(A, B, tol=DEFAULT_TOL):
    """factor through the LDL* of both points, whatever the basis: the path
    that a basis with a nonzero strict-lower entry takes."""
    LA, dA = ldl(A.matrix)
    LB, dB = ldl(B.matrix)
    radicand = dA / dB
    _check_radicands(radicand, tol)
    return (LA * np.sqrt(radicand)) @ _lower_inverse(LB)


@pytest.mark.parametrize("n", [3, 40])
def test_zero_pivot_in_the_basis_raises_at_its_index(n):
    rng = np.random.default_rng(n)
    eps = tuple(int(e) for e in rng.choice((1, -1), n))
    A = cone_compose(random_factor(rng, n), eps)
    for k in sorted({0, 1, n // 2, n - 1}):
        diag = canonical_signs(eps)
        diag[k] = 0.0
        bases = [ConePoint(matrix=np.diag(diag), cone="lpm", pattern=eps)]
        if k > 0:
            # The same zero pivot at k in a basis that has to be eliminated:
            # its block [[s, s], [s, s]] at k - 1, k leaves pivot k - 1 as it was.
            M = np.diag(diag)
            M[k, k - 1] = M[k - 1, k] = M[k, k] = diag[k - 1]
            bases.append(ConePoint(matrix=M, cone="lpm", pattern=eps))
        for B in bases:
            # factor raises without NumPy warning about the division first.
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(NegativeRadicand, match="non-finite") as info:
                    factor(A, B)
            assert caught == []
            assert info.value.j == k + 1
            with np.errstate(divide="ignore", invalid="ignore"):
                with pytest.raises(NegativeRadicand) as info:
                    factor_by_elimination(A, B)
            assert info.value.j == k + 1


def test_negative_radicand_names_its_case():
    cases = [(2, -1.5, "nonpositive radicand -1.5"),
             (1, 0.0, "nonpositive radicand 0.0"),
             (3, np.inf, "non-finite radicand inf"),
             (3, np.nan, "non-finite radicand nan"),
             (4, 1e-40, "radicand 1e-40 at or below the tolerance")]
    for j, value, what in cases:
        assert str(NegativeRadicand(j, value)) == f"{what} at diagonal position {j}"


def test_diagonal_basis_with_a_complex_diagonal():
    rng = np.random.default_rng(3)
    eps = (1, -1, 1)
    A = cone_compose(random_factor(rng, 3), eps)
    diag = canonical_signs(eps) * [2.0, 1.0, 0.5]
    B = ConePoint(matrix=np.diag(diag + [0.0, 1e-3j, 0.0]), cone="lpm", pattern=eps)
    for fac in (factor, factor_by_elimination):
        with pytest.raises(ValueError, match="not Hermitian"):
            fac(A, B)
    B = ConePoint(matrix=np.diag(diag).astype(complex), cone="lpm", pattern=eps)
    assert np.array_equal(factor(A, B), factor_by_elimination(A, B))


@pytest.mark.parametrize("n", [3, 40])
def test_basis_with_zero_strict_lower_part_need_not_be_symmetric(n):
    rng = np.random.default_rng(n)
    eps = tuple(int(e) for e in rng.choice((1, -1), n))
    A = cone_compose(random_factor(rng, n), eps)
    D = np.diag(canonical_signs(eps) * rng.uniform(0.5, 2.0, n))
    B = ConePoint(matrix=D + np.triu(rng.standard_normal((n, n)), 1), cone="lpm", pattern=eps)
    F = factor(A, B)
    assert np.array_equal(F, factor_by_elimination(A, B))
    assert np.array_equal(F, factor(A, ConePoint(matrix=D, cone="lpm", pattern=eps)))
