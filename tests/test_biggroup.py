import math

import numpy as np
import pytest

from conftest import random_cone_point, random_lower
from lpmch import (
    BigGroupElement,
    ConePoint,
    all_patterns,
    box_inv,
    box_op,
    canonical_point,
    compose,
    dp_distance,
    group_op,
    identity_element,
    invert_cone_point,
    lpm_distance,
    schur_pattern,
    star_op,
    torsion_order,
)
from lpmch.errors import ConeKindMismatch, GroupMismatch


def elem(rng, eps, cone="lpm"):
    return BigGroupElement(random_cone_point(rng, eps, cone=cone))


def test_cached_factor_invariant():
    rng = np.random.default_rng(0)
    for eps in all_patterns(3):
        A = elem(rng, eps)
        back = compose(A.factor, canonical_point(eps))
        assert np.allclose(back.matrix, A.point.matrix, atol=1e-10)


def test_box_identity_and_diagonals():
    rng = np.random.default_rng(1)
    e = identity_element(3)
    A = elem(rng, (1, -1, 1))
    assert np.allclose(box_op(A, e).point.matrix, A.point.matrix, atol=1e-10)
    for eps in all_patterns(2):
        for delta in all_patterns(2):
            D = BigGroupElement(canonical_point(eps))
            E = BigGroupElement(canonical_point(delta))
            prod = box_op(D, E)
            expected = canonical_point(schur_pattern(eps, delta))
            assert np.allclose(prod.point.matrix, expected.matrix, atol=1e-12)


def test_box_is_star_on_pd():
    rng = np.random.default_rng(2)
    ones = (1, 1, 1)
    A, B = elem(rng, ones), elem(rng, ones)
    assert np.allclose(box_op(A, B).point.matrix,
                       star_op(A.point, B.point).matrix, atol=1e-10)


def test_box_group_axioms():
    rng = np.random.default_rng(3)
    for _ in range(20):
        eps, delta, gamma = (tuple(rng.choice([1, -1], 3)) for _ in range(3))
        A, B, C = elem(rng, eps), elem(rng, delta), elem(rng, gamma)
        ab_c = box_op(box_op(A, B), C)
        a_bc = box_op(A, box_op(B, C))
        assert np.allclose(ab_c.point.matrix, a_bc.point.matrix, atol=1e-10)
        assert ab_c.pattern == a_bc.pattern
        assert np.allclose(box_op(A, B).point.matrix,
                           box_op(B, A).point.matrix, atol=1e-10)
        inv = box_inv(A)
        prod = box_op(A, inv)
        assert np.allclose(prod.point.matrix, np.eye(3), atol=1e-10)
        assert prod.pattern == (1, 1, 1)


def test_box_direct_product_structure():
    rng = np.random.default_rng(4)
    A, B = elem(rng, (1, -1, 1)), elem(rng, (-1, -1, 1))
    prod = box_op(A, B)
    assert prod.pattern == schur_pattern(A.pattern, B.pattern)
    assert np.allclose(prod.factor, group_op(A.factor, B.factor), atol=1e-12)


def test_box_inv_diagonal():
    D = BigGroupElement(canonical_point((1, -1)))
    assert np.allclose(box_inv(D).point.matrix, D.point.matrix, atol=1e-12)
    e = identity_element(2)
    assert np.allclose(box_inv(e).point.matrix, np.eye(2), atol=1e-12)


def test_dp_distance():
    rng = np.random.default_rng(5)
    eps, delta = (1, -1), (-1, 1)
    A, B = elem(rng, eps), elem(rng, eps)
    assert dp_distance(A, B) == pytest.approx(lpm_distance(A.point, B.point),
                                              abs=1e-12)
    D, E = BigGroupElement(canonical_point(eps)), BigGroupElement(canonical_point(delta))
    assert dp_distance(D, E, p=math.inf) == 1.0
    assert dp_distance(D, E, p=1) == 1.0
    with pytest.raises(ValueError):
        dp_distance(A, B, p=0.5)


@pytest.mark.parametrize("p", [0, 0.5, -math.inf, math.nan, "-1", None, [2]])
def test_dp_distance_exponent_must_lie_in_one_to_infinity(p):
    D = BigGroupElement(canonical_point((1, -1)))
    E = BigGroupElement(canonical_point((-1, 1)))
    with pytest.raises(ValueError, match=r"p must be in \[1, inf\]"):
        dp_distance(D, E, p=p)
    assert dp_distance(D, E, p="inf") == dp_distance(D, E, p=math.inf) == 1.0


def test_dp_bi_invariance():
    rng = np.random.default_rng(6)
    for p in (1, 2, math.inf):
        for _ in range(10):
            eps, delta, gamma = (tuple(rng.choice([1, -1], 3)) for _ in range(3))
            A, B, C = elem(rng, eps), elem(rng, delta), elem(rng, gamma)
            assert dp_distance(box_op(C, A), box_op(C, B), p=p) == pytest.approx(
                dp_distance(A, B, p=p), abs=1e-12)


def test_torsion():
    rng = np.random.default_rng(7)
    assert torsion_order(identity_element(3)) == 1
    assert torsion_order(BigGroupElement(canonical_point((1, -1)))) == 2
    L = np.array([[1.0, 0.0], [2.0, 2.0]])
    A = BigGroupElement(compose(L, canonical_point((1, -1))))
    assert torsion_order(A) == math.inf
    assert torsion_order(elem(rng, (1, 1, -1))) == math.inf


def test_tpm_reversal_isometric_isomorphism():
    rng = np.random.default_rng(8)
    from lpmch import reverse_matrix, symmetrize, classify
    for _ in range(10):
        eps, delta = (tuple(rng.choice([1, -1], 3)) for _ in range(2))
        A, B = elem(rng, eps), elem(rng, delta)

        def rev(E):
            return BigGroupElement(
                classify(symmetrize(reverse_matrix(E.point.matrix)), cone="tpm"))

        rA, rB = rev(A), rev(B)
        assert dp_distance(rA, rB) == pytest.approx(dp_distance(A, B), abs=1e-10)
        assert np.allclose(rev(box_op(A, B)).point.matrix,
                           box_op(rA, rB).point.matrix, atol=1e-10)


def test_mismatch_errors():
    rng = np.random.default_rng(9)
    A = elem(rng, (1, -1))
    B = elem(rng, (1, -1), cone="tpm")
    with pytest.raises(ConeKindMismatch):
        box_op(A, B)
    C = elem(rng, (1, -1, 1))
    with pytest.raises(GroupMismatch):
        dp_distance(A, C)


@pytest.mark.parametrize("bad", (-np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2)[0]))
def test_a_given_factor_is_checked_when_the_element_is_made(bad):
    # Two elements given -I as their factor composed to the identity factor.
    P = canonical_point((1, -1))
    with pytest.raises(ValueError, match="expected lower triangular with positive diagonal"):
        BigGroupElement(P, factor=bad)
    with pytest.raises(GroupMismatch, match="factor size 3 != point dimension 2"):
        BigGroupElement(P, factor=np.eye(3))


def test_a_given_factor_is_kept_as_a_read_only_copy():
    P = canonical_point((1, -1))
    F = np.array([[1, 0], [2, 3]])
    E = BigGroupElement(P, factor=F)
    F[1, 1] = -1
    assert np.array_equal(E.factor, [[1.0, 0.0], [2.0, 3.0]])
    assert E.factor.dtype == float and not E.factor.flags.writeable
    assert np.allclose(box_op(E, box_inv(E)).factor, np.eye(2), rtol=0, atol=1e-15)


def test_group_elements_refuse_a_cone_other_than_lpm_and_tpm():
    # Their results are built unchecked, so the cone is checked where an
    # element gets it: identity_element, or a point given with its factor.
    with pytest.raises(ValueError, match="cone must be 'lpm' or 'tpm', got 'xyz'"):
        identity_element(2, "xyz")
    P = ConePoint(matrix=np.diag([1.0, -1.0]), cone="xyz", pattern=(1, -1))
    with pytest.raises(ValueError, match="cone must be 'lpm' or 'tpm', got 'xyz'"):
        BigGroupElement(P, factor=np.eye(2))
