import numpy as np
import pytest

from conftest import random_cone_point, random_lower
from lpmch import (
    all_patterns,
    canonical_diagonal,
    canonical_point,
    classify,
    compose,
    distance,
    dsum_matrix,
    dsum_pattern,
    group_op,
    negative_inertia,
    reverse_matrix,
    reverse_pattern,
    tensor_matrix,
    tensor_pattern,
)
from lpmch.errors import ConeKindMismatch


def test_dsum_pattern():
    assert dsum_pattern((1, -1), (1,)) == (1, -1, -1)
    assert dsum_pattern((1, 1), (1, 1)) == (1, 1, 1, 1)


def test_dsum_canonical_diagonals():
    for eps in all_patterns(2):
        for delta in all_patterns(2):
            D = canonical_diagonal(dsum_pattern(eps, delta))
            blocks = np.zeros((4, 4))
            blocks[:2, :2] = canonical_diagonal(eps)
            blocks[2:, 2:] = canonical_diagonal(delta)
            assert np.array_equal(D, blocks)


def test_dsum_matrix_classifies():
    rng = np.random.default_rng(0)
    for n, m in [(1, 2), (2, 2), (3, 2), (2, 3)]:
        eps = tuple(rng.choice([1, -1], n))
        delta = tuple(rng.choice([1, -1], m))
        A = random_cone_point(rng, eps)
        B = random_cone_point(rng, delta)
        S = dsum_matrix(A, B)
        assert S.pattern == dsum_pattern(eps, delta)
        assert classify(S.matrix).pattern == S.pattern


def test_dsum_phi_compatibility():
    rng = np.random.default_rng(1)
    eps, delta = (1, -1), (-1, 1, 1)
    Bp = random_cone_point(rng, eps)
    Bq = random_cone_point(rng, delta)
    L, K = random_lower(rng, 2), random_lower(rng, 3)
    LK = np.zeros((5, 5))
    LK[:2, :2], LK[2:, 2:] = L, K
    left = compose(LK, dsum_matrix(Bp, Bq)).matrix
    right = dsum_matrix(compose(L, Bp), compose(K, Bq)).matrix
    assert np.allclose(left, right, atol=1e-10)


def test_dsum_block_padding_isometry():
    rng = np.random.default_rng(2)
    J = random_lower(rng, 3)
    L, K = random_lower(rng, 2), random_lower(rng, 2)

    def pad(front, back):
        out = np.eye(front.shape[0] + back.shape[0])
        out[:front.shape[0], :front.shape[0]] = front
        out[front.shape[0]:, front.shape[0]:] = back
        return out

    assert distance(pad(J, L), pad(J, K)) == pytest.approx(distance(L, K),
                                                           abs=1e-12)
    assert distance(pad(L, J), pad(K, J)) == pytest.approx(distance(L, K),
                                                           abs=1e-12)


def test_dsum_reversal_antilaw():
    rng = np.random.default_rng(3)
    A = random_cone_point(rng, (1, -1))
    B = random_cone_point(rng, (-1, 1, -1))
    left = reverse_matrix(dsum_matrix(A, B).matrix)
    rev_A = classify(reverse_matrix(A.matrix), cone="tpm")
    rev_B = classify(reverse_matrix(B.matrix), cone="tpm")
    rev_sum = dsum_matrix(rev_B, rev_A)
    assert np.allclose(left, rev_sum.matrix, atol=1e-12)
    assert rev_sum.pattern == dsum_pattern(A.pattern, B.pattern)
    assert classify(rev_sum.matrix, cone="tpm").pattern == rev_sum.pattern
    for n in range(1, 4):
        for m in range(1, 4):
            for eps in all_patterns(n):
                for delta in all_patterns(m):
                    assert reverse_pattern(dsum_pattern(eps, delta)) == \
                        dsum_pattern(reverse_pattern(delta), reverse_pattern(eps))


def test_dsum_inertia_additivity():
    for n in range(1, 6):
        for m in range(1, 6):
            for eps in all_patterns(n):
                for delta in all_patterns(m):
                    assert negative_inertia(dsum_pattern(eps, delta)) == \
                        negative_inertia(eps) + negative_inertia(delta)


def test_dsum_cone_mismatch():
    rng = np.random.default_rng(4)
    A = random_cone_point(rng, (1, -1))
    B = random_cone_point(rng, (1,), cone="tpm")
    with pytest.raises(ConeKindMismatch):
        dsum_matrix(A, B)


def test_tensor_cone_mismatch():
    rng = np.random.default_rng(4)
    A = random_cone_point(rng, (1, -1))
    B = random_cone_point(rng, (1,), cone="tpm")
    with pytest.raises(ConeKindMismatch, match="cone kinds differ: lpm vs tpm"):
        tensor_matrix(A, B)


def test_tensor_pattern():
    assert tensor_pattern((1, 1), (1, 1, 1)) == (1,) * 6
    assert tensor_pattern((1, -1), (-1, -1)) == (-1, -1, -1, 1)
    # the canonical diagonals tensor to the canonical diagonal of the result
    for eps in all_patterns(2):
        for delta in all_patterns(2):
            D = np.kron(canonical_diagonal(eps), canonical_diagonal(delta))
            assert np.array_equal(D, canonical_diagonal(tensor_pattern(eps, delta)))


def test_tensor_reversal_law():
    for n in range(1, 4):
        for m in range(1, 4):
            for eps in all_patterns(n):
                for delta in all_patterns(m):
                    assert reverse_pattern(tensor_pattern(eps, delta)) == \
                        tensor_pattern(reverse_pattern(eps), reverse_pattern(delta))


def test_tensor_matrix_classifies():
    rng = np.random.default_rng(5)
    for eps in all_patterns(2):
        for delta in all_patterns(2):
            A = random_cone_point(rng, eps)
            B = random_cone_point(rng, delta)
            T = tensor_matrix(A, B)
            assert T.pattern == tensor_pattern(eps, delta)
            assert classify(T.matrix).pattern == T.pattern


def test_tensor_phi_compatibility():
    rng = np.random.default_rng(6)
    eps, delta = (1, -1), (-1, 1, 1)
    L, K = random_lower(rng, 2), random_lower(rng, 3)
    left = compose(np.kron(L, K), canonical_point(tensor_pattern(eps, delta)))
    right = tensor_matrix(compose(L, canonical_point(eps)),
                          compose(K, canonical_point(delta)))
    assert np.allclose(left.matrix, right.matrix, atol=1e-10)


def test_tensor_does_not_distribute_over_group_op():
    # Stored witness: tensoring is not a group homomorphism in each slot.
    L = np.array([[1.0, 0.0], [1.0, 2.0]])
    L2 = np.array([[1.0, 0.0], [0.0, 3.0]])
    K = np.array([[1.0, 0.0], [1.0, 1.0]])
    left = np.kron(group_op(L, L2), K)
    right = group_op(np.kron(L, K), np.kron(L2, K))
    assert not np.allclose(left, right)
