"""Results (i) to (iv) as properties over size and scale.

(i)/(ii): Phi_B : L -> L B L* is a bijection of the Cholesky space onto the
cone of B, inverted by factor (factor_tpm in the TPM cone), and its
differential is inverted by differential_inv. These run on sizes around the
32-row blocks of the elimination and of the triangular inverse.

The dualities: invert_cone_point swaps the cones and reverses the pattern,
and reverse_pattern is an involution. LPM_inf: the embedding A -> A (+) (1)
into the next size, with factor F (+) (1), is a homomorphism of the global
group and an isometry of dp_distance.

(iii): each cone is an abelian group under star_op, with the canonical
basis as its identity and star_inv as its inverse, and the union of the
cones one under box_op (patterns multiply), with identity_element and
box_inv; lpm_distance is the distance of the points' factors.

(iv): eta is an isometric isomorphism from the Cholesky group onto
Euclidean space, so the group law, its inverse, scalar powers, geodesics,
the distance and the metric are the matching vector operations on eta
coordinates. The group operations and geodesics also hold on complex
Hermitian points.

Sizes run from 1 to 64 and factor scales from 1e-4 to 1e4. A coordinate
identity holds to c n u of the size of the coordinates involved (at least
1, since the log-diagonal goes through exp and log)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_factor
from lpmch import (
    BigGroupElement,
    ConePoint,
    box_inv,
    box_op,
    canonical_diagonal,
    canonical_point,
    compose,
    compose_tpm,
    cone_compose,
    cone_factor,
    differential,
    differential_inv,
    distance,
    dp_distance,
    dsum_matrix,
    eta,
    factor,
    factor_tpm,
    geodesic,
    geodesic_between,
    group_inv,
    group_op,
    identity_element,
    invert_cone_point,
    lpm_distance,
    lpm_geodesic,
    metric_tensor,
    reverse_matrix,
    reverse_pattern,
    scalar_mul,
    schur_pattern,
    star_inv,
    star_op,
    symmetrize,
)

PROPERTY = settings(max_examples=25, deadline=None)
U = np.finfo(float).eps / 2

sizes = st.integers(1, 64)
# Sizes on both sides of the 32-row blocks.
block_sizes = st.sampled_from((1, 2, 3, 10, 31, 32, 33, 40, 64))
# Decimal exponents of the factor scales.
log_scales = st.floats(-4, 4)
seeds = st.integers(0, 2**32 - 1)
cones = st.sampled_from(("lpm", "tpm"))


def coordinates(L):
    """eta by its definition: log-diagonal, then the strict-lower entries row by row."""
    return np.concatenate([np.log(np.diagonal(L)), L[np.tril_indices(len(L), -1)]])


def factors(seed, n, *log_scales, complex_scalars=False):
    """One factor per scale: diagonal in [0.5, 2], strict-lower entries
    N(0, 1/n) (complex with both parts so when asked), times the scale."""
    rng = np.random.default_rng(seed)
    out = []
    for log_scale in log_scales:
        L = random_factor(rng, n)
        if complex_scalars:
            L = L + 1j * np.tril(rng.standard_normal((n, n)), -1) / np.sqrt(n)
        out.append(10.0**log_scale * L)
    return out


def pattern(seed, n):
    return tuple(int(e) for e in np.random.default_rng(seed).choice((1, -1), n))


def minor_signs(M, cone):
    """The signs of the leading (LPM) or trailing (TPM) minors of M, each from
    its own determinant."""
    n = len(M)
    blocks = (M[:k, :k] if cone == "lpm" else M[n - k:, n - k:] for k in range(1, n + 1))
    return tuple(int(np.sign(np.linalg.slogdet(B)[0].real)) for B in blocks)


def assert_close(n, x, y, *sizes_of):
    """|x - y| <= 4 n u max(1, |entries of sizes_of|), entrywise."""
    size = max(1.0, *(float(np.max(np.abs(s))) for s in sizes_of))
    assert np.max(np.abs(x - y)) <= 4 * n * U * size


@PROPERTY
@given(sizes, log_scales, log_scales, st.floats(-3, 3), st.floats(-0.5, 1.5), seeds)
def test_the_group_operations_are_vector_operations_on_eta(n, a, b, alpha, t, seed):
    L, K = factors(seed, n, a, b)
    v, w = coordinates(L), coordinates(K)
    assert_close(n, eta(group_op(L, K)), v + w, v, w, v + w)
    assert_close(n, eta(group_inv(L)), -v, v)
    assert_close(n, eta(scalar_mul(alpha, L)), alpha * v, alpha * v)
    assert_close(n, eta(geodesic_between(L, K, t)), v + t * (w - v), v, w, v + t * (w - v))


@PROPERTY
@given(sizes, log_scales, log_scales, seeds)
def test_distance_is_the_euclidean_distance_of_coordinates(n, a, b, seed):
    L, K = factors(seed, n, a, b)
    v, w = coordinates(L), coordinates(K)
    assert_close(n, distance(L, K), np.linalg.norm(v - w), v, w)


@PROPERTY
@given(sizes, log_scales, seeds)
def test_metric_is_the_squared_speed_of_the_geodesic(n, a, seed):
    # eta moves along a straight line at constant speed, so the speed is the
    # coordinate distance covered in unit time.
    (L,) = factors(seed, n, a)
    X = 10.0**a * np.tril(np.random.default_rng(seed + 1).standard_normal((n, n)))
    v, w = coordinates(L), coordinates(geodesic(L, X, 1.0))
    assert_close(n, np.sqrt(metric_tensor(L, X, X)), np.linalg.norm(w - v), v, w)


@PROPERTY
@given(sizes, log_scales, cones, seeds)
def test_complex_star_inverse_gives_the_canonical_basis(n, a, cone, seed):
    (L,) = factors(seed, n, a, complex_scalars=True)
    P = cone_compose(L, pattern(seed, n), cone)
    D = canonical_diagonal(P.pattern)
    D = reverse_matrix(D) if cone == "tpm" else D
    identity = star_op(P, star_inv(P)).matrix
    assert np.max(np.abs(identity - D)) <= 4 * n * U


@PROPERTY
@given(sizes, log_scales, cones, st.floats(-0.5, 1.5), seeds)
def test_complex_box_op_and_geodesic_keep_the_pattern(n, a, cone, t, seed):
    # Minor signs are certain only on a well-conditioned matrix. Both results
    # stay so at every scale when the geodesic joins two points of one scale,
    # and when the second box factor has a unit diagonal under a strict-lower
    # part of the first's scale: diagonals multiply and strict-lower parts add.
    L, K = factors(seed, n, a, a, complex_scalars=True)
    eps, delta = pattern(seed, n), pattern(seed + 1, n)
    A, B = cone_compose(L, eps, cone), cone_compose(K, eps, cone)
    C = cone_compose(np.tril(K, -1) + np.diag(np.diagonal(K) / 10.0**a), delta, cone)
    product = box_op(BigGroupElement(A), BigGroupElement(C)).point
    assert product.pattern == schur_pattern(eps, delta)
    assert minor_signs(product.matrix, cone) == product.pattern
    G = lpm_geodesic(A, B, t)
    assert G.pattern == eps and minor_signs(G.matrix, cone) == eps


@PROPERTY
@given(block_sizes, log_scales, log_scales, cones, seeds)
def test_factor_inverts_compose_against_a_general_basis(n, a, b, cone, seed):
    # The relative error is within c n u cond(A), c = 4, with A the composed
    # point. A seeded sweep of 720 cases reached 1.7 n u cond(A) at n = 1 and
    # at most 0.03 n u cond(A) from n = 10 on.
    L, K = factors(seed, n, a, b)
    eps = pattern(seed, n)
    # A plain point carries no factor, so factor eliminates the basis.
    B = ConePoint(matrix=cone_compose(K, eps, cone).matrix, cone=cone, pattern=eps)
    comp, fac = (compose, factor) if cone == "lpm" else (compose_tpm, factor_tpm)
    A = comp(L, B)
    error = np.linalg.norm(fac(A, B) - L)
    assert error <= 4 * n * U * np.linalg.cond(A.matrix) * np.linalg.norm(L)


@PROPERTY
@given(block_sizes, log_scales, seeds)
def test_the_differentials_invert_each_other(n, a, seed):
    # Each round trip multiplies by L and by its inverse twice, so the
    # relative error is within c n u cond(L)^2, c = 8. A seeded sweep of 360
    # cases reached 2.6 n u cond(L)^2 at n = 1 and at most 0.02 n u cond(L)^2
    # from n = 10 on.
    (L,) = factors(seed, n, a)
    eps = pattern(seed, n)
    rng = np.random.default_rng(seed + 1)
    X = 10.0**a * np.tril(rng.standard_normal((n, n)))
    W = 10.0**(2 * a) * symmetrize(rng.standard_normal((n, n)))
    bound = 8 * n * U * np.linalg.cond(L) ** 2
    back = differential_inv(L, differential(L, X, eps), eps)
    assert np.linalg.norm(back - X) <= bound * np.linalg.norm(X)
    back = differential(L, differential_inv(L, W, eps), eps)
    assert np.linalg.norm(back - W) <= bound * np.linalg.norm(W)


@PROPERTY
@given(sizes, log_scales, cones, seeds)
def test_inverting_swaps_the_cones_and_reverses_the_pattern(n, a, cone, seed):
    # A seeded sweep of 300 cases returned the factor to within 1.3 n u of
    # its largest entry.
    (L,) = factors(seed, n, a)
    eps = pattern(seed, n)
    inverse = invert_cone_point(cone_compose(L, eps, cone))
    assert inverse.cone == ("tpm" if cone == "lpm" else "lpm")
    assert inverse.pattern == reverse_pattern(eps)
    assert reverse_pattern(inverse.pattern) == eps
    back = invert_cone_point(inverse)
    assert back.cone == cone and back.pattern == eps
    assert np.max(np.abs(cone_factor(back) - L)) <= 4 * n * U * np.max(np.abs(L))


def embedded(A, F):
    """The image of A, with factor F, under the embedding A -> A (+) (1) into
    the next size: the block sum with the 1 x 1 identity point, given the
    factor F (+) (1) rather than one derived from its matrix."""
    n = len(F)
    G = np.eye(n + 1)
    G[:n, :n] = F
    one = identity_element(1, A.cone).point
    return BigGroupElement(dsum_matrix(A, one), factor=G)


@PROPERTY
@given(sizes, log_scales, log_scales, cones, st.sampled_from((1, 2, "inf")), seeds)
def test_the_embedding_into_the_next_size_is_an_isometric_homomorphism(n, a, b, cone, p,
                                                                       seed):
    # A seeded sweep of 300 cases (relative to the largest entry, or to the
    # distance) reached 0.04 (n + 1) u for the matrices and 0.24 n u for the
    # distances; the factors of both sides of the homomorphism were equal.
    L, K = factors(seed, n, a, b)
    A, B = cone_compose(L, pattern(seed, n), cone), cone_compose(K, pattern(seed + 1, n), cone)
    iA, iB = embedded(A, L), embedded(B, K)

    def assert_same_point(X, Y):
        assert X.cone == Y.cone == cone and X.pattern == Y.pattern
        assert np.max(np.abs(X.matrix - Y.matrix)) <= (n + 1) * U * np.max(np.abs(Y.matrix))

    assert_same_point(iA.point, cone_compose(iA.factor, iA.pattern, cone))
    C = box_op(BigGroupElement(A), BigGroupElement(B))
    left, right = box_op(iA, iB), embedded(C.point, C.factor)
    assert np.array_equal(left.factor, right.factor)
    assert_same_point(left.point, right.point)
    d = dp_distance(BigGroupElement(A), BigGroupElement(B), p)
    assert abs(dp_distance(iA, iB, p) - d) <= 2 * n * U * d


@PROPERTY
@given(sizes, log_scales, log_scales, log_scales, cones, seeds)
def test_star_op_makes_each_cone_an_abelian_group(n, a, b, c, cone, seed):
    # A seeded sweep of 600 cases, with the box group's below, reached 1.7 n u
    # for associativity, n u for the inverse and 0.04 n u for the identity.
    L, K, J = factors(seed, n, a, b, c)
    eps = pattern(seed, n)
    A, B, C = (cone_compose(F, eps, cone) for F in (L, K, J))
    u, v, w = coordinates(L), coordinates(K), coordinates(J)
    AB = star_op(A, B)
    assert AB.cone == cone and AB.pattern == eps
    # Coordinates add, and floating-point addition commutes.
    assert np.array_equal(AB.matrix, star_op(B, A).matrix)
    assert_close(n, eta(cone_factor(star_op(AB, C))),
                 eta(cone_factor(star_op(A, star_op(B, C)))), u, v, w, u + v + w)
    assert_close(n, eta(cone_factor(star_op(A, canonical_point(eps, cone)))), u, u)
    assert_close(n, eta(cone_factor(star_op(A, star_inv(A)))), 0 * u, u)


@PROPERTY
@given(sizes, log_scales, log_scales, log_scales, cones, seeds)
def test_box_op_makes_the_cones_one_abelian_group(n, a, b, c, cone, seed):
    L, K, J = factors(seed, n, a, b, c)
    A, B, C = (BigGroupElement(cone_compose(F, pattern(seed + i, n), cone))
               for i, F in enumerate((L, K, J)))
    u, v, w = coordinates(L), coordinates(K), coordinates(J)
    AB, BA = box_op(A, B), box_op(B, A)
    assert AB.cone == cone and AB.pattern == BA.pattern == schur_pattern(A.pattern, B.pattern)
    assert np.array_equal(AB.factor, BA.factor)
    left, right = box_op(AB, C), box_op(A, box_op(B, C))
    assert left.pattern == right.pattern
    assert_close(n, eta(left.factor), eta(right.factor), u, v, w, u + v + w)
    one = identity_element(n, cone)
    A1 = box_op(A, one)
    assert A1.pattern == A.pattern
    assert_close(n, eta(A1.factor), u, u)
    A0 = box_op(A, box_inv(A))
    assert A0.pattern == one.pattern
    assert_close(n, eta(A0.factor), 0 * u, u)


@PROPERTY
@given(sizes, log_scales, log_scales, cones, seeds)
def test_lpm_distance_is_the_distance_of_the_factors(n, a, b, cone, seed):
    L, K = factors(seed, n, a, b)
    eps = pattern(seed, n)
    A, B = cone_compose(L, eps, cone), cone_compose(K, eps, cone)
    assert lpm_distance(A, B) == distance(L, K)
    # Points that carry no factor derive theirs by elimination.
    A, B = (ConePoint(matrix=X.matrix, cone=cone, pattern=eps) for X in (A, B))
    assert lpm_distance(A, B) == distance(cone_factor(A), cone_factor(B))
