"""The factor a cone point carries: filled by the builders that hold it or by
the first cone_factor call, and never used once the matrix has changed."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_factor
from lpmch import (
    BigGroupElement,
    ConePoint,
    DistributionSpec,
    RngStream,
    box_op,
    canonical_point,
    classify,
    cone_compose,
    cone_factor,
    eta,
    eta_inv,
    factor,
    factor_tpm,
    box_inv,
    identity_element,
    inertial_clone_sample,
    invert_cone_point,
    inverse_wishart_sample,
    log_cholesky_mean,
    lpm_geodesic,
    reverse_matrix,
    star_inv,
    star_op,
    wishart_sample,
)
from lpmch import cholesky
from lpmch.core import _cached_factor, canonical_diagonal, reverse_point
from lpmch.sampling import cholesky_normal_sample, wishart_factors


def fresh(P):
    """The same matrix, cone and pattern as P, with no cached factor."""
    return ConePoint(matrix=P.matrix, cone=P.cone, pattern=P.pattern)


def built_point(seed, n, cone="lpm", scale=1.0):
    rng = np.random.default_rng(seed)
    L = scale * random_factor(rng, n)
    eps = tuple(int(e) for e in rng.choice((1, -1), n))
    return cone_compose(L, eps, cone), L


def count_ldl(monkeypatch):
    calls = []
    kernel = cholesky.ldl
    monkeypatch.setattr(cholesky, "ldl", lambda A: calls.append(1) or kernel(A))
    return calls


@pytest.mark.parametrize("cone", ("lpm", "tpm"))
def test_built_point_returns_the_factor_it_was_composed_from(cone, monkeypatch):
    P, L = built_point(1, 10, cone)
    calls = count_ldl(monkeypatch)
    assert np.array_equal(cone_factor(P), L)
    fac = factor if cone == "lpm" else factor_tpm
    assert np.array_equal(fac(P, canonical_point(P.pattern, cone)), L)
    assert calls == []


def test_first_cone_factor_call_fills_the_cache(monkeypatch):
    P = fresh(built_point(2, 10)[0])
    calls = count_ldl(monkeypatch)
    first = cone_factor(P)
    assert calls == [1]
    assert np.array_equal(cone_factor(P), first) and calls == [1]


@pytest.mark.parametrize("cone", ("lpm", "tpm"))
def test_in_place_edit_is_never_served_a_stale_factor(cone):
    P, L = built_point(3, 10, cone)
    cone_factor(P)
    P.matrix[...] *= 4.0
    got = cone_factor(P)
    assert np.array_equal(got, cone_factor(fresh(P)))
    assert np.allclose(got, 2.0 * L, rtol=1e-13, atol=0)
    # One changed entry is enough; the strict upper triangle counts too.
    P.matrix[0, -1] += 1e-3
    assert np.array_equal(cone_factor(P), cone_factor(fresh(P)))


def test_writing_into_the_returned_factor_leaves_the_cache_alone():
    P, L = built_point(4, 10)
    F = cone_factor(P)
    F[...] = 0.0
    assert np.array_equal(cone_factor(P), L)
    assert cone_factor(P) is not cone_factor(P)


@pytest.mark.parametrize("cone", ("lpm", "tpm"))
@pytest.mark.parametrize("n", (1, 3, 10, 33, 64))
def test_classified_point_caches_the_factor_it_derives(n, cone):
    # Pivots near 1, so that the minors clear classify's cutoff at every size.
    rng = np.random.default_rng(n)
    L = np.diag(rng.uniform(0.95, 1.05, n)) \
        + 0.1 * np.tril(rng.standard_normal((n, n)), -1) / n
    eps = tuple(int(e) for e in rng.choice((1, -1), n))
    C = classify(cone_compose(L, eps, cone).matrix, cone)
    assert C.pattern == eps and _cached_factor(C) is None
    F = cone_factor(C)
    assert np.array_equal(_cached_factor(C), F)
    assert np.array_equal(F, cone_factor(fresh(C)))


def test_group_element_reads_the_point_cache():
    P, _ = built_point(6, 10)
    assert BigGroupElement(P).factor is _cached_factor(P)
    Q = fresh(P)
    E = BigGroupElement(Q)
    assert E.factor is _cached_factor(Q)
    assert np.array_equal(E.factor, cone_factor(fresh(P)))


def test_group_element_sees_an_in_place_edit_of_its_point():
    P = cone_compose(np.array([[1.0, 0.0], [0.5, 2.0]]), (1, -1))
    E = BigGroupElement(P)
    given = BigGroupElement(P, factor=np.eye(2))
    assert np.array_equal(E.factor, [[1.0, 0.0], [0.5, 2.0]])
    P.matrix[...] *= 4.0
    new = [[2.0, 0.0], [1.0, 4.0]]
    assert np.allclose(cone_factor(P), new, rtol=0, atol=1e-15)
    assert np.array_equal(E.factor, cone_factor(P))
    assert np.array_equal(box_op(E, identity_element(2)).factor, cone_factor(P))
    # A factor given explicitly is kept as given.
    assert np.array_equal(given.factor, np.eye(2))


@pytest.mark.parametrize("cone", ("lpm", "tpm"))
def test_reverse_point_carries_the_reversed_factor(cone, monkeypatch):
    P, L = built_point(7, 10, cone)
    calls = count_ldl(monkeypatch)
    R = reverse_point(P)
    assert R.cone != P.cone
    assert np.array_equal(cone_factor(R), reverse_matrix(L)) and calls == []
    # A stale cache is not carried over.
    P.matrix[...] *= 2.0
    assert _cached_factor(reverse_point(P)) is None


def test_sampled_points_fill_their_cache_on_first_use():
    # Draws are rarely asked for their factor, so samplers keep none.
    n, eps = 4, (1, -1, -1, 1)
    sigma = np.eye(n) + 0.3
    m0, _ = built_point(8, n)
    specs = (
        DistributionSpec(kind="wishart", pattern=eps, sigma=sigma, dof=7),
        DistributionSpec(kind="inverse_wishart", pattern=eps, sigma=sigma, dof=7),
        DistributionSpec(kind="inertial_clone", k=1,
                         base=DistributionSpec(kind="wishart", pattern=(1,) * n,
                                               sigma=sigma, dof=7)),
        DistributionSpec(kind="cholesky_normal", m0=m0,
                         sigma_tilde=0.01 * np.eye(n * (n + 1) // 2)),
    )
    samplers = (wishart_sample, inverse_wishart_sample, inertial_clone_sample,
                cholesky_normal_sample)
    for sample, spec in zip(samplers, specs):
        points = sample(RngStream(1), spec, 20)
        assert all(_cached_factor(p) is None for p in points)
        F = [cone_factor(p) for p in points]
        assert all(np.array_equal(_cached_factor(p), f) for p, f in zip(points, F))
    F = wishart_factors(RngStream(1), specs[0], size=20)
    for p, f in zip(wishart_sample(RngStream(1), specs[0], 20), F):
        assert np.allclose(cone_factor(p), f, rtol=0, atol=1e-12)


def test_mean_of_built_points_averages_their_factors(monkeypatch):
    rng = np.random.default_rng(9)
    eps = (1, -1, 1, 1, -1)
    Ls = np.stack([random_factor(rng, 5) for _ in range(30)])
    points = [cone_compose(L, eps) for L in Ls]
    calls = count_ldl(monkeypatch)
    M = log_cholesky_mean(points)
    assert calls == []
    assert np.array_equal(cone_factor(M), eta_inv(np.mean(eta(Ls), axis=0)))


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from((3, 10, 33, 64)), log_scale=st.floats(-4, 4),
       cone=st.sampled_from(("lpm", "tpm")), seed=st.integers(0, 2**32 - 1))
def test_star_inverse_gives_the_canonical_basis(n, log_scale, cone, seed):
    # Re-derived from the rounded matrix, the factor of the star inverse loses
    # the element at scales away from 1 (NegativeRadicand at n = 10 and factor
    # scale 10); the factor the inverse was composed from does not.
    P, _ = built_point(seed, n, cone, scale=10.0**log_scale)
    identity = star_op(P, star_inv(P)).matrix
    D = reverse_matrix(canonical_diagonal(P.pattern)) if cone == "tpm" \
        else canonical_diagonal(P.pattern)
    assert np.linalg.norm(identity - D) <= 1e-12 * np.linalg.norm(D)


def routed_results(n, cone, complex_scalars):
    """The points of every operation that builds its result from a factor it
    made, on seeded points of one pattern (and a second pattern for box_op):
    the group operations, geodesic, mean, identity and inverse. The mean and
    the identity are real only."""
    rng = np.random.default_rng(7 * n + (cone == "tpm"))

    def point(eps):
        L = random_factor(rng, n)
        if complex_scalars:
            L = L + 1j * np.tril(rng.standard_normal((n, n)), -1) / np.sqrt(n)
        return cone_compose(L, eps, cone)

    eps, delta = (tuple(int(e) for e in rng.choice((1, -1), n)) for _ in range(2))
    A, B, C, D = point(eps), point(eps), point(eps), point(delta)
    results = {"star_op": star_op(A, B), "star_inv": star_inv(A),
               "lpm_geodesic": lpm_geodesic(A, B, 0.3),
               "box_op": box_op(BigGroupElement(A), BigGroupElement(D)).point,
               "box_inv": box_inv(BigGroupElement(D)).point,
               "invert_cone_point": invert_cone_point(A)}
    if not complex_scalars:
        results["log_cholesky_mean"] = log_cholesky_mean([A, B, C])
        results["identity_element"] = identity_element(n, cone).point
    return results


@pytest.mark.parametrize("cone", ("lpm", "tpm"))
@pytest.mark.parametrize("n, complex_scalars", [
    (1, False), (2, False), (3, False), (10, False), (33, False), (64, False),
    (1, True), (2, True), (3, True), (10, True)])
def test_points_built_from_library_factors_are_the_cone_compose_points(
        n, cone, complex_scalars):
    # These skip cone_compose's checks and copy; what they build must not
    # differ from it by a bit.
    for name, P in routed_results(n, cone, complex_scalars).items():
        Q = cone_compose(cone_factor(P), P.pattern, P.cone)
        F, G = _cached_factor(P), _cached_factor(Q)
        assert P.matrix.dtype == Q.matrix.dtype, name
        assert F.dtype == G.dtype == (complex if complex_scalars else float), name
        assert P.matrix.tobytes() == Q.matrix.tobytes(), name
        assert F.tobytes() == G.tobytes(), name
        assert P.pattern == Q.pattern and all(type(e) is int for e in P.pattern), name


def test_cone_compose_checks_and_copies_the_callers_factor():
    L = random_factor(np.random.default_rng(4), 4)
    want = L.copy()
    P = cone_compose(L, (1, -1, -1, 1))
    L[2, 1], L[3, 3] = 99.0, -1.0
    assert np.array_equal(cone_factor(P), want)
    assert np.array_equal(_cached_factor(P), want)
    assert cone_factor(cone_compose([[1, 0], [2, 3]], (1, -1))).dtype == float
    for bad in (np.ones((2, 2)), np.eye(2)[np.newaxis], np.diag([1.0, 0.0])):
        with pytest.raises(ValueError, match="expected lower triangular"):
            cone_compose(bad, (1, -1))
    with pytest.raises(ValueError, match="cone must be 'lpm' or 'tpm', got 'xyz'"):
        cone_compose(np.eye(2), (1, -1), cone="xyz")
    with pytest.raises(ValueError, match="not a sign pattern"):
        cone_compose(np.eye(2), (1, 0))
