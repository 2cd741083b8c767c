"""The stacked triangular inverse and the inverse-Wishart route built on it.

core._lower_inverse inverts a lower triangular matrix or a stack of them by
halving. Inverse-Wishart draws and the inverse of a point that carries its
factor F are composed from F^{-1} in the opposite cone, with no general
inverse of the matrix.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import random_factor
from lpmch import (
    DistributionSpec,
    RngStream,
    classify,
    cone_compose,
    cone_factor,
    invert_cone_point,
    inverse_wishart_sample,
    reverse_pattern,
    symmetrize,
    wishart_sample,
)
from lpmch.cholesky import _inverse
from lpmch.core import _cached_factor, _lower_inverse

U = np.finfo(float).eps / 2
CONES = ("lpm", "tpm")


def scaled_factors(rng, n, members):
    """A stack of lower triangular factors, each with its diagonal scaled by
    factors 10**k, k uniform in [-4, 4], so that scales from 1e-4 to 1e4
    meet in one matrix."""
    return np.array([random_factor(rng, n) * 10.0 ** rng.uniform(-4, 4, n)
                     for _ in range(members)]).reshape(members, n, n)


# -- _lower_inverse ------------------------------------------------------------

@pytest.mark.parametrize("members", (0, 1, 7))
@pytest.mark.parametrize("n", (1, 2, 3, 10, 33, 64))
def test_lower_inverse_of_a_stack(n, members):
    """Exactly lower triangular with a positive diagonal, a left residual
    within c n u cond(L) (c = 4; the 2 x 2 to 64 x 64 cases here stay below
    a hundredth of the bound, n = 1 reaches u), and each member bit for bit
    its own inverse as a stack of one. Each member inverted as one matrix
    (blocks of 32 by LAPACK) is exactly lower triangular too, with the
    diagonal exactly 1/l_ii and a residual within the same bound."""
    L = scaled_factors(np.random.default_rng(100 * n + members), n, members)
    X = _lower_inverse(L)
    assert X.shape == L.shape and X.dtype == float
    assert not np.triu(X, 1).any()
    assert (np.diagonal(X, axis1=-2, axis2=-1) > 0).all()
    for Li, Xi in zip(L, X):
        bound = 4 * n * U * np.linalg.cond(Li)
        assert np.linalg.norm(Xi @ Li - np.eye(n)) <= bound
        Yi = _lower_inverse(Li)
        assert not np.triu(Yi, 1).any()
        assert np.array_equal(np.diagonal(Yi), 1.0 / np.diagonal(Li))
        assert np.linalg.norm(Yi @ Li - np.eye(n)) <= bound
        assert np.array_equal(Xi, _lower_inverse(Li[np.newaxis])[0])


def test_lower_inverse_reads_any_memory_layout():
    """A reversed view (a TPM factor stack, as the samplers build it) gives
    the inverses of its contiguous copy, bit for bit."""
    F = scaled_factors(np.random.default_rng(1), 10, 5)
    R = F.transpose(0, 2, 1)[:, ::-1, ::-1]
    assert not R.flags.c_contiguous
    assert np.array_equal(_lower_inverse(R), _lower_inverse(np.ascontiguousarray(R)))


def test_lower_inverse_of_a_complex_factor():
    rng = np.random.default_rng(2)
    L = random_factor(rng, 6) + 1j * np.tril(rng.standard_normal((6, 6)), -1)
    X = _lower_inverse(L)
    assert X.dtype == complex and not np.triu(X, 1).any()
    assert np.allclose(X @ L, np.eye(6), atol=1e-13)


# -- inverse-Wishart draws -------------------------------------------------------

def laws(n, cone):
    """The inverse-Wishart law at n in cone and its forward Wishart law (the
    reversed cone and pattern, the inverse scale), with dof n + 3."""
    rng = np.random.default_rng(n)
    eps = tuple(int(e) for e in rng.choice((1, -1), n))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sigma = (Q * rng.uniform(0.5, 2.0, n)) @ Q.T
    spec = DistributionSpec(kind="inverse_wishart", pattern=eps, cone=cone,
                            sigma=sigma, dof=n + 3)
    fwd = replace(spec, kind="wishart", cone="tpm" if cone == "lpm" else "lpm",
                  pattern=reverse_pattern(eps), sigma=np.linalg.inv(symmetrize(sigma)))
    return spec, fwd


@pytest.mark.parametrize("size", (None, 0, 2000))
@pytest.mark.parametrize("cone", CONES)
@pytest.mark.parametrize("n", (1, 3, 10, 33))
def test_inverse_wishart_draws_are_inverses_of_wishart_draws(n, cone, size):
    """Within 1e-12 of the largest entry of a general inverse of the forward
    draws, whose own error is about u cond(M) (at n = 33 the largest
    difference is 7e-13), in the law's cone and pattern, exactly."""
    spec, fwd = laws(n, cone)
    draws = inverse_wishart_sample(RngStream(7), spec, size)
    forward = wishart_sample(RngStream(7), fwd, size)
    if size is None:
        draws, forward = [draws], [forward]
    assert len(draws) == len(forward) == (1 if size is None else size)
    for X, M in zip(draws, forward):
        ref = _inverse(M.matrix)
        assert np.abs(X.matrix - ref).max() <= 1e-12 * np.abs(ref).max()
        assert (X.cone, X.pattern) == (cone, spec.pattern)
    if draws:
        assert minor_signs(np.stack([X.matrix for X in draws]), cone) == {spec.pattern}


def minor_signs(X, cone):
    """The sign patterns of the leading (LPM) or trailing (TPM) principal
    minors of a matrix stack, from np.linalg.slogdet of each block."""
    n = X.shape[-1]
    blocks = [X[:, :k, :k] if cone == "lpm" else X[:, n - k:, n - k:] for k in range(1, n + 1)]
    signs = np.stack([np.linalg.slogdet(B)[0] for B in blocks], axis=1)
    return {tuple(int(s) for s in row) for row in signs}


# -- invert_cone_point ----------------------------------------------------------

@pytest.mark.parametrize("cone", CONES)
@pytest.mark.parametrize("n", (1, 3, 10, 33))
def test_inverting_a_point_with_a_factor_caches_the_inverse_factor(n, cone):
    rng = np.random.default_rng(n)
    eps = tuple(int(e) for e in rng.choice((1, -1), n))
    L = random_factor(rng, n)
    point = cone_compose(L, eps, cone)
    inv = invert_cone_point(point)
    G = _lower_inverse(L[np.newaxis])[0]
    assert (inv.cone, inv.pattern) == ("tpm" if cone == "lpm" else "lpm", reverse_pattern(eps))
    assert np.array_equal(_cached_factor(inv), G)
    assert np.array_equal(cone_factor(inv), G)
    # The factor route and a general inverse agree to rounding.
    assert np.allclose(inv.matrix, _inverse(point.matrix), rtol=0, atol=1e-12)
    back = invert_cone_point(inv)
    assert (back.cone, back.pattern) == (cone, eps)
    assert np.allclose(back.matrix, point.matrix, rtol=0, atol=1e-12)
    assert np.allclose(cone_factor(back), L, rtol=0, atol=1e-12)


def test_inverting_a_point_without_a_factor_takes_the_general_inverse():
    point = classify(np.array([[2.0, 1.0, 0.0], [1.0, -1.0, 0.5], [0.0, 0.5, 1.0]]))
    inv = invert_cone_point(point)
    assert np.array_equal(inv.matrix, _inverse(point.matrix))
    assert inv._factor_cache is None
