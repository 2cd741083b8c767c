import warnings
from itertools import combinations

import numpy as np
import pytest

from conftest import random_cone_point
from lpmch import all_patterns, almost_n_example, classify, is_ssrpm, toeplitz_example
from lpmch import ssrpm
from lpmch.core import scale, symmetrize
from lpmch.errors import ComplexFactor, ConstraintViolation, DegenerateParameters, \
    DimensionCap, NonFiniteInput


def test_is_ssrpm_examples():
    assert is_ssrpm(np.eye(4)) == (1, 1, 1, 1)
    assert is_ssrpm(np.diag([1.0, -1.0])) is None
    M, eps = toeplitz_example(1.0, -0.6, 3)
    assert eps == (1, 1, -1)
    assert is_ssrpm(M) == (1, 1, -1)


def test_is_ssrpm_dimension_cap():
    with pytest.raises(DimensionCap):
        is_ssrpm(np.eye(21))
    assert is_ssrpm(np.eye(21), cap=21) == (1,) * 21


def test_is_ssrpm_minors_beyond_the_float_range():
    # The 12 x 12 minor is 1e360, and its cutoff 1e-10 * 1e30**12 is 1e350.
    assert is_ssrpm(1e30 * np.eye(12)) == (1,) * 12


@pytest.mark.parametrize("A", (np.full((2, 2), np.nan), np.array([[1.0, -np.inf], [0.0, 1.0]])),
                         ids=("nan", "inf"))
def test_is_ssrpm_refuses_non_finite_input_by_name(A):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInput, match="every entry must be finite"):
            is_ssrpm(A)


def test_is_ssrpm_refuses_complex_input_by_name():
    # Cast to float, this matrix used to give the pattern (1, 1).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for A in ([[2, 1 + 1j], [1 + 1j, 2]], [[2, 1j], [-1j, 2]], [[np.nan * 1j, 0], [0, 1]]):
            with pytest.raises(ComplexFactor, match="nonzero imaginary part"):
                is_ssrpm(A)
        # A complex dtype with no imaginary part is real input.
        assert is_ssrpm(np.array([[2, 1], [1, 2]], dtype=complex)) == (1, 1)


@pytest.mark.parametrize("A", (np.ones((3, 2, 2)), np.ones((2, 3)), np.ones(3), np.ones((0, 0))),
                         ids=("stack", "rectangle", "vector", "empty"))
def test_is_ssrpm_refuses_anything_but_one_square_matrix(A):
    with pytest.raises(ValueError, match="expected a square matrix of size at least 1"):
        is_ssrpm(A)


@pytest.mark.parametrize("a, b", ((np.nan, 1.0), (1.0, np.inf), (-np.inf, 0.5)))
def test_toeplitz_example_refuses_non_finite_parameters(a, b):
    with pytest.raises(NonFiniteInput, match="need finite a and b"):
        toeplitz_example(a, b, 3)


@pytest.mark.parametrize("n", (0, -2))
def test_toeplitz_example_needs_a_matrix(n):
    with pytest.raises(ConstraintViolation, match="need n >= 1"):
        toeplitz_example(1.0, -0.6, n)
    M, eps = toeplitz_example(1.0, -0.6, 1)
    assert M.shape == (1, 1) and eps == (1,)


@pytest.mark.parametrize("tol", (-1.0, float("nan"), float("inf")))
def test_is_ssrpm_tolerance_must_be_finite_and_nonnegative(tol):
    with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
        is_ssrpm(np.ones((2, 2)), tol=tol)
    assert is_ssrpm(np.ones((2, 2)), tol=0.0) is None


def test_ssrpm_subset_of_lpm():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = -rng.uniform(0.5, 2.0)
        b = a - rng.uniform(0.5, 2.0)
        M, _ = toeplitz_example(a, b, 4)
        eps = is_ssrpm(M)
        if eps is not None:
            assert classify(M).pattern == eps


@pytest.mark.parametrize("a, b, n, expected", [
    (3.0, -1.0, 3, (1, 1, 1)),
    (1.0, 2.0, 2, (1, -1)),
    (-1.0, -2.0, 2, (-1, -1)),
])
def test_toeplitz_example(a, b, n, expected):
    M, eps = toeplitz_example(a, b, n)
    assert eps == expected
    assert is_ssrpm(M) == expected
    assert np.allclose(M, b * np.ones((n, n)) + (a - b) * np.eye(n))


def test_toeplitz_minor_closed_form():
    rng = np.random.default_rng(1)
    from itertools import combinations
    for n in range(2, 7):
        for _ in range(5):
            a, b = rng.uniform(-3, 3, 2)
            if abs(a - b) < 0.1 or any(abs(a + (k - 1) * b) < 0.1
                                       for k in range(1, n + 1)):
                continue
            M, _ = toeplitz_example(a, b, n)
            for k in range(1, n + 1):
                expected = (a + (k - 1) * b) * (a - b) ** (k - 1)
                for subset in combinations(range(n), k):
                    idx = np.asarray(subset)
                    got = np.linalg.det(M[np.ix_(idx, idx)])
                    assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_toeplitz_eigenstructure():
    a, b, n = 2.0, 0.5, 5
    M, _ = toeplitz_example(a, b, n)
    eigs = np.sort(np.linalg.eigvalsh(M))
    expected = np.sort([a - b] * (n - 1) + [a + (n - 1) * b])
    assert np.allclose(eigs, expected, atol=1e-10)


def test_toeplitz_degenerate():
    with pytest.raises(DegenerateParameters):
        toeplitz_example(1.0, 1.0, 3)
    with pytest.raises(DegenerateParameters):
        toeplitz_example(2.0, -1.0, 3)  # a + 2b = 0 at k = 3


def test_almost_n_example():
    M = almost_n_example(-1.0, -2.0, -3.0, 3)
    from itertools import combinations
    # all proper principal minors negative, full determinant +1
    for k in (1, 2):
        for subset in combinations(range(3), k):
            idx = np.asarray(subset)
            assert np.linalg.det(M[np.ix_(idx, idx)]) < 0
    assert np.linalg.det(M) == pytest.approx(1.0, abs=1e-12)
    assert is_ssrpm(M) == (-1, -1, 1)
    # the negation realizes the mirrored pattern
    assert is_ssrpm(-M) == (1, -1, -1)


def test_almost_n_constraints():
    # for a=-1, b=-2, n=3 the admissible interval is (-4, -8/3)
    with pytest.raises(ConstraintViolation):
        almost_n_example(-1.0, -2.0, -4.5, 3)
    with pytest.raises(ConstraintViolation):
        almost_n_example(-1.0, -2.0, -2.0, 3)
    with pytest.raises(ConstraintViolation):
        almost_n_example(-2.0, -1.0, -3.0, 3)  # needs b < a < 0
    with pytest.raises(ConstraintViolation):
        almost_n_example(-1.0, -2.0, -3.0, 2)


def test_equality_characterization():
    # Random cone samples are all SSRPM exactly for the two definite patterns.
    rng = np.random.default_rng(2)
    n = 3
    definite = {(1, 1, 1), (-1, 1, -1)}
    for eps in all_patterns(n):
        hits = sum(
            is_ssrpm(random_cone_point(rng, eps).matrix) == eps
            for _ in range(60))
        if eps in definite:
            assert hits == 60
        else:
            assert hits < 60


def per_subset_ssrpm(A, tol=1e-10):
    """One det per principal submatrix: the reference for the batched test."""
    A = symmetrize(np.asarray(A, dtype=float))
    n = A.shape[0]
    s = max(1.0, scale(A))
    pattern = []
    for k in range(1, n + 1):
        signs = set()
        for subset in combinations(range(n), k):
            idx = np.asarray(subset)
            minor = float(np.linalg.det(A[np.ix_(idx, idx)]))
            if abs(minor) <= tol * s**k:
                return None
            signs.add(1 if minor > 0 else -1)
        if len(signs) > 1:
            return None
        pattern.append(signs.pop())
    return tuple(pattern)


@pytest.mark.parametrize("growth", [4096, 3])
def test_is_ssrpm_matches_per_subset_minors(monkeypatch, growth):
    # A growth bound of 3 hands 22 of these matrices to slogdet part way,
    # at levels 1 to 5; 4096, near the default, hands one.
    monkeypatch.setattr(ssrpm, "_GROWTH", growth)
    rng = np.random.default_rng(12)
    found = []
    for _ in range(30):
        n = int(rng.integers(1, 9))
        X = rng.standard_normal((n, n))
        a, b = rng.uniform(-2.0, 2.0, 2)
        for A in (X + X.T, X @ X.T + 0.1 * np.eye(n), -X @ X.T - 0.1 * np.eye(n),
                  toeplitz_example(a, b, n)[0]):
            expected = per_subset_ssrpm(A)
            assert is_ssrpm(A) == expected
            found.append(expected is not None)
    assert any(found) and not all(found)


def sweep_matrices(rng, n):
    """A symmetric, a definite, a negative definite and a Toeplitz matrix."""
    X = rng.standard_normal((n, n))
    a, b = rng.uniform(-2.0, 2.0, 2)
    return (X + X.T, X @ X.T + 0.1 * np.eye(n), -X @ X.T - 0.1 * np.eye(n),
            toeplitz_example(a, b, n)[0])


def test_is_ssrpm_matches_per_subset_minors_up_to_the_old_cap():
    rng = np.random.default_rng(14)
    found = []
    for n in range(9, 15):
        for A in sweep_matrices(rng, n):
            expected = per_subset_ssrpm(A)
            assert is_ssrpm(A) == expected
            found.append(expected is not None)
    assert any(found) and not all(found)


def test_slogdet_levels_match_per_subset_minors(monkeypatch):
    # With no growth allowed, every level past the first takes slogdet.
    monkeypatch.setattr(ssrpm, "_GROWTH", 0.0)
    rng = np.random.default_rng(8)
    for n in range(1, 9):
        for A in sweep_matrices(rng, n):
            assert is_ssrpm(A) == per_subset_ssrpm(A)


def test_a_near_zero_pivot_hands_the_later_levels_to_slogdet(monkeypatch):
    # a + b = 1e-5 makes the 2 x 2 pivots tiny and the Schur complements
    # beyond them about 1e5 times the entries of M.
    levels = []
    slogdets = ssrpm._slogdets
    monkeypatch.setattr(ssrpm, "_slogdets",
                        lambda A, level: levels.append(level) or slogdets(A, level))
    M, eps = toeplitz_example(1.0, -0.99999, 8)
    assert is_ssrpm(M) == eps == per_subset_ssrpm(M)
    assert levels == list(range(2, 8))


@pytest.mark.parametrize("n", (15, 17, 20))
@pytest.mark.parametrize("a, b", ((1.3, -0.2), (-1.0, -2.5), (2.0, 0.5), (-2.0, 0.9)))
def test_is_ssrpm_of_toeplitz_examples_up_to_the_cap(a, b, n):
    M, eps = toeplitz_example(a, b, n)
    assert is_ssrpm(M) == eps


@pytest.mark.parametrize("n", (15, 17, 20))
@pytest.mark.parametrize("a, b", ((-1.0, -2.0), (-0.5, -3.0)))
def test_is_ssrpm_of_almost_n_examples_up_to_the_cap(a, b, n):
    lower = (n - 2) * b**2 / (a + (n - 3) * b)
    upper = (n - 1) * b**2 / (a + (n - 2) * b)
    M = almost_n_example(a, b, (lower + upper) / 2, n)
    assert is_ssrpm(M) == (-1,) * (n - 1) + (1,)
    assert is_ssrpm(-M) == tuple((-1) ** k for k in range(n - 1)) + ((-1) ** n,)


@pytest.mark.parametrize("tol", (ssrpm.DEFAULT_TOL, 0.0))
def test_an_exact_zero_principal_minor_is_not_ssrpm(tol):
    # Every leading minor is 1, but the minor on {1, 2} is exactly 0.
    A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
    assert is_ssrpm(A, tol=tol) is None
    assert is_ssrpm(np.diag([1.0, 0.0, 1.0]), tol=tol) is None
