import warnings

import numpy as np
import pytest

from conftest import random_cone_point, random_lower
from lpmch import (
    BigGroupElement,
    all_patterns,
    box_inv,
    canonical_point,
    classify,
    compose,
    cone_compose,
    differential,
    differential_inv,
    distance,
    dp_distance,
    eta,
    eta_inv,
    geodesic,
    geodesic_between,
    group_inv,
    group_op,
    klein_apply,
    log_cholesky_mean,
    lpm_distance,
    lpm_geodesic,
    metric_tensor,
    scalar_mul,
    star_inv,
    star_op,
)
from lpmch.errors import ComplexFactor, GroupMismatch, NonFiniteInput, PatternMismatch
from lpmch.geometry import KLEIN_MAPS, cone_factor

L_WITNESS = np.array([[1.0, 0.0], [2.0, 2.0]])


def test_group_op():
    rng = np.random.default_rng(0)
    L = random_lower(rng, 4)
    assert np.allclose(group_op(L, np.eye(4)), L)
    assert np.allclose(group_op(L_WITNESS, L_WITNESS), [[1, 0], [4, 4]])
    for _ in range(20):
        K, J = random_lower(rng, 4), random_lower(rng, 4)
        assert np.allclose(group_op(K, J), group_op(J, K))


def test_group_inv():
    assert np.allclose(group_inv(np.eye(3)), np.eye(3))
    inv = group_inv(L_WITNESS)
    assert np.allclose(inv, [[1, 0], [-2, 0.5]])
    assert np.allclose(group_op(L_WITNESS, inv), np.eye(2))
    assert np.allclose(np.linalg.inv(inv), [[1, 0], [4, 2]])


def test_matrix_inverse_is_not_a_group_map():
    # Regression: the two ways of "inverting" genuinely differ.
    a = np.linalg.inv(group_inv(L_WITNESS))
    b = group_inv(np.linalg.inv(L_WITNESS))
    assert not np.allclose(a, b)


def test_scalar_mul():
    rng = np.random.default_rng(1)
    L = random_lower(rng, 3)
    assert np.allclose(scalar_mul(1.0, L), L)
    assert np.allclose(scalar_mul(0.0, L), np.eye(3))
    assert np.allclose(scalar_mul(0.5, np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    # vector-space axioms through eta
    assert np.allclose(eta(scalar_mul(2.5, L)), 2.5 * eta(L))


def test_eta():
    assert np.array_equal(eta(np.eye(3)), np.zeros(6))
    assert np.allclose(eta(L_WITNESS), [0.0, np.log(2.0), 2.0])
    rng = np.random.default_rng(2)
    for _ in range(20):
        L = random_lower(rng, 5)
        K = random_lower(rng, 5)
        assert np.allclose(eta_inv(eta(L)), L)
        assert np.allclose(eta(group_op(L, K)), eta(L) + eta(K))
        assert np.allclose(eta(group_inv(L)), -eta(L))


@pytest.mark.parametrize("v", ([np.nan, 0.0, 0.0], [0.0, 0.0, -np.inf], [800.0, 0.0, 0.0],
                               [[0.0, 0.0, 0.0], [0.0, 710.0, 1.0]]),
                         ids=("nan", "inf", "overflow", "stack"))
def test_eta_inv_refuses_coordinates_of_no_finite_factor(v):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInput, match="must be finite"):
            eta_inv(v)
    edge = eta_inv([np.log(np.finfo(float).max), 0.0, 0.0])
    assert np.isfinite(edge).all() and edge[0, 0] > 0


@pytest.mark.parametrize("v", ([-800.0, 0.0, 0.0], [[0.0, 0.0, 0.0], [0.0, -746.0, 1.0]]),
                         ids=("one", "stack"))
def test_eta_inv_refuses_a_diagonal_that_underflows_to_zero(v):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInput, match="finite and nonzero"):
            eta_inv(v)
    # exp(-745.0) rounds to the smallest subnormal, exp(-745.2) to 0.
    assert eta_inv([-745.0, 0.0, 0.0])[0, 0] == np.finfo(float).smallest_subnormal
    with pytest.raises(NonFiniteInput):
        eta_inv([-745.2, 0.0, 0.0])


def test_distance_paper_values():
    assert distance(L_WITNESS, np.eye(2)) == pytest.approx(
        np.sqrt(4 + np.log(2.0) ** 2), abs=1e-12)
    assert distance(np.array([[1.0, 0.0], [-1.0, 0.5]]), np.eye(2)) == pytest.approx(
        np.sqrt(1 + np.log(2.0) ** 2), abs=1e-12)
    assert distance(L_WITNESS, L_WITNESS) == 0.0


def test_distance_is_a_bi_invariant_metric():
    rng = np.random.default_rng(3)
    for _ in range(20):
        L, K, J = (random_lower(rng, 4) for _ in range(3))
        assert distance(L, K) == pytest.approx(distance(K, L), abs=1e-12)
        assert distance(L, K) <= distance(L, J) + distance(J, K) + 1e-12
        assert distance(group_op(J, L), group_op(J, K)) == pytest.approx(
            distance(L, K), abs=1e-12)


def test_metric_tensor():
    rng = np.random.default_rng(4)
    X = np.tril(rng.standard_normal((3, 3)))
    Y = np.tril(rng.standard_normal((3, 3)))
    assert metric_tensor(np.eye(3), X, Y) == pytest.approx(np.sum(X * Y))
    for _ in range(20):
        L = random_lower(rng, 3)
        Z = np.tril(rng.standard_normal((3, 3)))
        assert metric_tensor(L, Z, Z) > 0


def test_metric_matches_geodesic_speed():
    rng = np.random.default_rng(5)
    L = random_lower(rng, 3)
    X = np.tril(rng.standard_normal((3, 3)))
    t = 1e-4
    speed = distance(L, geodesic(L, X, t)) / t
    assert speed == pytest.approx(np.sqrt(metric_tensor(L, X, X)), rel=1e-5)


def test_geodesic():
    rng = np.random.default_rng(6)
    L = random_lower(rng, 4)
    X = np.tril(rng.standard_normal((4, 4)))
    assert np.allclose(geodesic(L, X, 0.0), L)
    assert np.allclose(geodesic(np.eye(2), np.eye(2), 1.0), np.e * np.eye(2))
    base = distance(L, geodesic(L, X, 1.0))
    for t in (0.25, 0.5, 2.0):
        assert distance(L, geodesic(L, X, t)) == pytest.approx(abs(t) * base,
                                                               abs=1e-10)


def test_geodesic_one_parameter_subgroup():
    rng = np.random.default_rng(7)
    X = np.tril(rng.standard_normal((4, 4)))
    for s, t in [(0.3, 0.9), (-1.0, 2.0)]:
        lhs = geodesic(np.eye(4), X, s + t)
        rhs = group_op(geodesic(np.eye(4), X, s), geodesic(np.eye(4), X, t))
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_geodesic_between():
    rng = np.random.default_rng(8)
    L, K = random_lower(rng, 4), random_lower(rng, 4)
    assert np.allclose(geodesic_between(L, K, 0.0), L, atol=1e-12)
    assert np.allclose(geodesic_between(L, K, 1.0), K, atol=1e-12)
    assert np.allclose(geodesic_between(L, L, 0.5), L, atol=1e-12)
    mid = geodesic_between(np.eye(2), np.diag([4.0, 4.0]), 0.5)
    assert np.allclose(mid, np.diag([2.0, 2.0]), atol=1e-12)


def test_differential():
    rng = np.random.default_rng(9)
    X = np.tril(rng.standard_normal((3, 3)))
    assert np.allclose(differential(np.eye(3), X, (1, 1, 1)), X + X.T)
    for eps in all_patterns(3):
        for _ in range(10):
            L = random_lower(rng, 3)
            Z = np.tril(rng.standard_normal((3, 3)))
            W = differential(L, Z, eps)
            assert np.allclose(differential_inv(L, W, eps), Z, atol=1e-10)
    # Complex factors: both round trips, through a tangent and through a
    # Hermitian perturbation. With plain transposes both missed.
    for eps in all_patterns(3):
        L = random_lower(rng, 3, complex_scalars=True)
        Z = complex_tangent(rng, 3)
        assert np.allclose(differential_inv(L, differential(L, Z, eps), eps), Z, atol=1e-10)
        H = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        H = H + H.conj().T
        assert np.allclose(differential(L, differential_inv(L, H, eps), eps), H, atol=1e-10)


def complex_tangent(rng, n):
    """A tangent at a complex factor: real diagonal, complex strict-lower part."""
    return np.tril(rng.standard_normal((n, n))) + 1j * np.tril(rng.standard_normal((n, n)), -1)


def test_differential_inv_refuses_a_perturbation_that_is_not_symmetric():
    # It used to return a tangent whose differential was off by 4.0.
    with pytest.raises(ValueError, match="perturbation is not symmetric"):
        differential_inv(np.eye(3), np.arange(9.0).reshape(3, 3), (1, 1, 1))
    # Symmetric up to rounding passes, as leading_minors' test lets it.
    rng = np.random.default_rng(12)
    eps = (1, -1, 1)
    L, Z = random_lower(rng, 3), np.tril(rng.standard_normal((3, 3)))
    W = differential(L, Z, eps)
    W[0, 2] += 1e-12 * np.abs(W).max()
    assert np.allclose(differential_inv(L, W, eps), Z, atol=1e-10)


def test_differential_finite_difference():
    rng = np.random.default_rng(10)
    eps = (1, -1, 1)
    D = canonical_point(eps)
    L = random_lower(rng, 3)
    X = np.tril(rng.standard_normal((3, 3)))
    h = 1e-6
    fd = (compose(L + h * X, D).matrix - compose(L, D).matrix) / h
    assert np.abs(fd - differential(L, X, eps)).max() < 1e-4


def test_complex_differential_finite_difference():
    # With plain transposes the differential was off by 9.4 here.
    rng = np.random.default_rng(13)
    eps = (1, -1, 1)
    D = canonical_point(eps)
    L = random_lower(rng, 3, complex_scalars=True)
    X = complex_tangent(rng, 3)
    h = 1e-6
    fd = (compose(L + h * X, D).matrix - compose(L, D).matrix) / h
    assert np.abs(fd - differential(L, X, eps)).max() < 1e-4
    assert np.allclose(differential_inv(L, fd, eps), X, atol=1e-4)


def test_star_structure():
    rng = np.random.default_rng(11)
    for eps in all_patterns(3):
        D = canonical_point(eps)
        A = random_cone_point(rng, eps)
        B = random_cone_point(rng, eps)
        assert np.allclose(star_op(D, A).matrix, A.matrix, atol=1e-10)
        assert np.allclose(star_op(A, star_inv(A)).matrix, D.matrix, atol=1e-10)
        assert np.allclose(star_op(A, B).matrix, star_op(B, A).matrix, atol=1e-10)


def test_lpm_distance_isometry():
    rng = np.random.default_rng(12)
    for eps in all_patterns(3):
        D = canonical_point(eps)
        L, K = random_lower(rng, 3), random_lower(rng, 3)
        assert lpm_distance(compose(L, D), compose(K, D)) == pytest.approx(
            distance(L, K), abs=1e-10)


def test_lpm_geometry_transfers_group_laws():
    # Every Cholesky-space identity holds verbatim on each cone.
    rng = np.random.default_rng(13)
    for n in range(1, 5):
        for eps in all_patterns(n):
            A, B, C = (random_cone_point(rng, eps) for _ in range(3))
            assert lpm_distance(star_op(C, A), star_op(C, B)) == pytest.approx(
                lpm_distance(A, B), abs=1e-10)
            assert np.allclose(lpm_geodesic(A, B, 1.0).matrix, B.matrix,
                               atol=1e-10)
            assert np.allclose(lpm_geodesic(A, B, 0.0).matrix, A.matrix,
                               atol=1e-10)


def test_tpm_geometry():
    rng = np.random.default_rng(14)
    eps = (1, -1)
    A = random_cone_point(rng, eps, cone="tpm")
    B = random_cone_point(rng, eps, cone="tpm")
    C = canonical_point(eps, cone="tpm")
    assert np.allclose(star_op(C, A).matrix, A.matrix, atol=1e-10)
    assert lpm_distance(A, B) > 0
    assert classify(lpm_geodesic(A, B, 0.5).matrix, cone="tpm").pattern == eps


def test_pattern_mismatch():
    rng = np.random.default_rng(15)
    A = random_cone_point(rng, (1, 1))
    B = random_cone_point(rng, (1, -1))
    with pytest.raises(PatternMismatch):
        star_op(A, B)
    with pytest.raises(PatternMismatch):
        lpm_distance(A, B)


def test_log_cholesky_mean():
    rng = np.random.default_rng(16)
    eps = (1, -1, 1)
    D = canonical_point(eps)
    A = random_cone_point(rng, eps)
    B = random_cone_point(rng, eps)
    assert np.allclose(log_cholesky_mean([A]).matrix, A.matrix, atol=1e-12)

    # Two-point closed form on the factors.
    L, K = cone_factor(A), cone_factor(B)
    pair = cone_factor(log_cholesky_mean([A, B]))
    expected = np.tril(L + K, -1) / 2 + np.diag(
        np.sqrt(np.diagonal(L) * np.diagonal(K)))
    assert np.allclose(pair, expected, atol=1e-10)

    assert np.allclose(log_cholesky_mean([A, star_inv(A)]).matrix, D.matrix,
                       atol=1e-10)


def test_eta_inv_of_a_non_triangular_length_and_the_mean_of_nothing():
    with pytest.raises(ValueError, match="vector length 2 is not triangular"):
        eta_inv([0.0, 0.0])
    with pytest.raises(ValueError, match="mean of an empty collection"):
        log_cholesky_mean([])


def test_klein_maps():
    rng = np.random.default_rng(17)
    assert np.allclose(klein_apply("rev", L_WITNESS), [[2, 0], [2, 1]])
    for _ in range(10):
        L, K = random_lower(rng, 4), random_lower(rng, 4)
        for sigma in KLEIN_MAPS:
            out = klein_apply(sigma, klein_apply(sigma, L))
            assert np.allclose(out, L, atol=1e-12)
            assert distance(klein_apply(sigma, L), klein_apply(sigma, K)) == \
                pytest.approx(distance(L, K), abs=1e-12)
    with pytest.raises(ValueError):
        klein_apply("nope", np.eye(2))


@pytest.mark.parametrize("sigma", sorted(KLEIN_MAPS))
def test_klein_maps_check_their_factor(sigma):
    # "id" passed a non-factor through, "rev" reversed a negative diagonal
    # into another non-factor, and both dropped an imaginary part with only a
    # ComplexWarning.
    with pytest.raises(ComplexFactor):
        klein_apply(sigma, [[1, 0], [1 + 2j, 2]])
    for L in ([[1, 5], [0, 1]], [[1, 5], [0, -1]], [[1, 0], [0, -1]], [[[1.0]]]):
        with pytest.raises(ValueError, match="lower triangular with positive diagonal"):
            klein_apply(sigma, L)
    real = klein_apply(sigma, np.array([[1, 0], [1, 2]], dtype=complex))
    assert real.dtype == float
    assert np.array_equal(real, klein_apply(sigma, [[1.0, 0.0], [1.0, 2.0]]))


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_a_non_finite_time_or_power_is_refused(t):
    # Each returned a factor or a point whose entries were all NaN.
    rng = np.random.default_rng(23)
    L, K, X = random_lower(rng, 3), random_lower(rng, 3), np.tril(rng.standard_normal((3, 3)))
    A, B = cone_compose(L, (1, -1, 1)), cone_compose(K, (1, -1, 1))
    for call in (lambda: scalar_mul(t, L), lambda: geodesic(L, X, t),
                 lambda: geodesic_between(L, K, t), lambda: lpm_geodesic(A, B, t)):
        with pytest.raises(NonFiniteInput, match="must be finite"):
            call()


def test_eta_rejects_complex_factors():
    A = np.array([[2.0, 1 + 1j], [1 - 1j, 3.0]])
    with pytest.raises(ComplexFactor):
        lpm_distance(classify(A), classify(A.conj()))


def test_the_real_only_functions_refuse_complex_factors():
    # The group operations run on complex points; the chart, the distances
    # and the mean are real.
    A = cone_compose(np.array([[1.0, 0.0], [1 + 1j, 2.0]]), (1, -1))
    EA = BigGroupElement(A)
    for call in (lambda: eta(cone_factor(A)), lambda: distance(cone_factor(A), np.eye(2)),
                 lambda: lpm_distance(A, star_inv(A)), lambda: log_cholesky_mean([A, A]),
                 lambda: dp_distance(EA, box_inv(EA))):
        with pytest.raises(ComplexFactor):
            call()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [[[-1.0, 0.0], [0.5, 1.0]], [[0.0, 0.0], [0.5, 1.0]],
                                 [[np.nan, 0.0], [0.5, 1.0]], [[1.0, 0.2], [0.5, 1.0]], 0.0])
def test_eta_refuses_what_is_not_a_factor(bad):
    # A diagonal entry that is not positive gave a nan (or -inf) coordinate
    # and only a RuntimeWarning; an upper entry was silently dropped. So did
    # the functions of the Cholesky space, and 0 as L gave inf in
    # metric_tensor and NumPy's LinAlgError in differential_inv. Tangents
    # are not checked.
    message = "expected lower triangular with positive diagonal"
    bad = np.array(bad)
    I, X = np.eye(2), np.array([[-1.0, 0.0], [3.0, -2.0]])
    calls = [lambda: eta(bad), lambda: distance(L_WITNESS, bad),
             lambda: group_op(bad, I), lambda: group_op(I, bad), lambda: group_inv(bad),
             lambda: scalar_mul(0.5, bad), lambda: metric_tensor(bad, X, X),
             lambda: geodesic(bad, X, 0.5), lambda: geodesic_between(I, bad, 0.5),
             lambda: geodesic_between(bad, I, 0.5), lambda: differential(bad, X, (1, -1)),
             lambda: differential_inv(bad, X + X.T, (1, -1))]
    if bad.ndim == 2:
        calls.append(lambda: eta(np.stack([L_WITNESS, bad])))
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()
    assert metric_tensor(I, X, X) == 14.0
    assert np.array_equal(geodesic(I, X, 0.0), I)


def test_distance_between_factors_of_different_sizes():
    # Each ended in NumPy's broadcast or matmul error.
    I2, I3 = np.eye(2), np.eye(3)
    for call in (lambda: distance(I2, I3), lambda: group_op(I2, I3),
                 lambda: geodesic_between(I2, I3, 0.5)):
        with pytest.raises(GroupMismatch, match="dimensions differ: 2 vs 3"):
            call()
    # A tangent of another shape is refused; a larger one is not read in part.
    for call in (lambda: geodesic(I2, I3, 0.5), lambda: metric_tensor(I2, I3, I2),
                 lambda: metric_tensor(I2, I2, I3), lambda: geodesic(I2, np.ones(4), 0.5),
                 lambda: differential(I3, I2, (1, -1, 1)),
                 lambda: differential_inv(I3, I2, (1, -1, 1))):
        with pytest.raises(GroupMismatch, match="tangent shape"):
            call()
    for call in (lambda: differential(I2, I2, (1, -1, 1)),
                 lambda: differential_inv(I2, I2, (1,))):
        with pytest.raises(PatternMismatch, match="pattern length"):
            call()
