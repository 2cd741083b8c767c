"""One factor and a stack of factors take the same path.

The chart works over the last axes, and every sampler turns one stack of
factors into cone points; draw i of a batch must be bit-for-bit the cone
point of factor i taken on its own.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import clone_patterns, random_lower
from lpmch import (
    DistributionSpec,
    RngStream,
    bartlett_sample,
    cholesky_normal_sample,
    cone_compose,
    eta,
    eta_inv,
    inertial_clone_sample,
    invert_cone_point,
    inverse_wishart_sample,
    is_lower_triangular,
    leading_minors,
    reverse_pattern,
    symmetrize,
    wishart_sample,
)
from lpmch.cholesky import _cone_matrices
from lpmch.core import canonical_signs, reverse_matrix
from lpmch.errors import ComplexFactor
from lpmch.sampling import cholesky_normal_etas, wishart_factors

CONES = ["lpm", "tpm"]
EPS = (1, -1, -1, 1)
DRAWS = 25


def _sigma(n):
    X = np.random.default_rng(n).standard_normal((n, n))
    return X @ X.T / n + np.eye(n)


def test_eta_stack_matches_slices():
    rng = np.random.default_rng(0)
    F = np.stack([random_lower(rng, 5) for _ in range(7)])
    V = eta(F)
    assert V.shape == (7, 15)
    for Fi, Vi in zip(F, V):
        assert np.array_equal(Vi, eta(Fi))
    back = eta_inv(V)
    assert back.shape == F.shape
    for Vi, Li in zip(V, back):
        assert np.array_equal(Li, eta_inv(Vi))
    assert np.allclose(back, F)


def test_eta_stack_rejects_complex():
    F = np.stack([np.eye(3, dtype=complex)] * 4)
    F[2, 1, 0] = 1j
    with pytest.raises(ComplexFactor):
        eta(F)


def test_symmetrize_and_triangularity_over_stacks():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((6, 4, 4))
    H = symmetrize(A)
    for Ai, Hi in zip(A, H):
        assert np.array_equal(Hi, symmetrize(Ai))
    F = np.stack([random_lower(rng, 4) for _ in range(6)])
    assert is_lower_triangular(F)
    F[3, 0, 2] = 1.0
    assert not is_lower_triangular(F)


@pytest.mark.parametrize("cone", CONES)
def test_wishart_draws_match_single_composition(cone):
    spec = DistributionSpec(kind="wishart", pattern=EPS, cone=cone,
                            sigma=_sigma(4), dof=6)
    draws = wishart_sample(RngStream(3), spec, size=DRAWS)
    F = wishart_factors(RngStream(3), spec, size=DRAWS)
    for point, Fi in zip(draws, F):
        assert np.array_equal(point.matrix, cone_compose(Fi, EPS, cone).matrix)
        assert (point.cone, point.pattern) == (cone, EPS)


@pytest.mark.parametrize("cone", CONES)
def test_inverse_wishart_draws_match_single_inversion(cone):
    spec = DistributionSpec(kind="inverse_wishart", pattern=EPS, cone=cone,
                            sigma=_sigma(4), dof=6)
    fwd = replace(spec, kind="wishart", cone="tpm" if cone == "lpm" else "lpm",
                  pattern=reverse_pattern(EPS), sigma=np.linalg.inv(spec.sigma))
    draws = inverse_wishart_sample(RngStream(4), spec, size=DRAWS)
    F = wishart_factors(RngStream(4), fwd, size=DRAWS)
    for point, Fi in zip(draws, F):
        single = invert_cone_point(cone_compose(Fi, fwd.pattern, fwd.cone))
        assert np.array_equal(point.matrix, single.matrix)
        assert (point.cone, point.pattern) == (single.cone, single.pattern) == (cone, EPS)


@pytest.mark.parametrize("cone", CONES)
def test_cholesky_normal_draws_match_single_composition(cone):
    m0 = cone_compose(random_lower(np.random.default_rng(5), 4), EPS, cone)
    spec = DistributionSpec(kind="cholesky_normal", cone=cone, m0=m0,
                            sigma_tilde=0.1 * np.eye(10))
    draws = cholesky_normal_sample(RngStream(5), spec, size=DRAWS)
    V = cholesky_normal_etas(RngStream(5), spec, size=DRAWS)
    for point, v in zip(draws, V):
        assert np.array_equal(point.matrix, cone_compose(eta_inv(v), EPS, cone).matrix)


@pytest.mark.parametrize("cone", CONES)
def test_clone_draws_match_single_composition(cone):
    base = DistributionSpec(kind="wishart", pattern=(1,) * 4, sigma=_sigma(4), dof=6)
    spec = DistributionSpec(kind="inertial_clone", cone=cone, base=base, k=2)
    draws = inertial_clone_sample(RngStream(6), spec, size=DRAWS)
    twin = RngStream(6)
    patterns = clone_patterns(spec)
    idx = twin.generator.integers(len(patterns), size=DRAWS)
    F = wishart_factors(twin, base, size=DRAWS)
    for point, i, Fi in zip(draws, idx, F):
        assert point.pattern == patterns[i]
        assert np.array_equal(point.matrix, cone_compose(Fi, patterns[i], cone).matrix)


def _sampler(name, n, cone):
    """draw(rng, size) of the named sampler, on a spec of size n in the cone."""
    if name == "bartlett_sample":
        return lambda rng, size: bartlett_sample(rng, n, n + 2, size)
    eps = tuple(int(e) for e in np.random.default_rng(n).choice((1, -1), n))
    wishart = DistributionSpec(kind="wishart", pattern=eps, cone=cone, sigma=_sigma(n), dof=n + 2)
    normal = DistributionSpec(kind="cholesky_normal", cone=cone,
                              m0=cone_compose(random_lower(np.random.default_rng(n), n), eps, cone),
                              sigma_tilde=0.1 * np.eye(n * (n + 1) // 2))
    clone = DistributionSpec(kind="inertial_clone", cone=cone, k=n // 2,
                             base=replace(wishart, pattern=(1,) * n, cone="lpm"))
    sampler, spec = {
        "wishart_sample": (wishart_sample, wishart),
        "wishart_factors": (wishart_factors, wishart),
        "inverse_wishart_sample": (inverse_wishart_sample, replace(wishart, kind="inverse_wishart")),
        "cholesky_normal_sample": (cholesky_normal_sample, normal),
        "cholesky_normal_etas": (cholesky_normal_etas, normal),
        "inertial_clone_sample": (inertial_clone_sample, clone),
    }[name]
    return lambda rng, size: sampler(rng, spec, size)


SAMPLERS = ["wishart_sample", "inverse_wishart_sample", "cholesky_normal_sample",
            "inertial_clone_sample", "wishart_factors", "cholesky_normal_etas"]


@pytest.mark.parametrize("name, n, cone", [
    (name, n, cone) for name in SAMPLERS for n in (3, 10) for cone in CONES
] + [("bartlett_sample", n, None) for n in (3, 10)])
def test_single_draw_is_first_of_batch(name, n, cone):
    # size None is [0] of size 1 bit for bit, for points and arrays alike.
    draw = _sampler(name, n, cone)
    one, batch = draw(RngStream(7), None), draw(RngStream(7), 1)
    assert len(batch) == 1
    if isinstance(one, np.ndarray):
        assert one.dtype == batch.dtype and one.shape == batch.shape[1:]
        assert one.tobytes() == batch[0].tobytes()
        assert draw(RngStream(7), 0).shape == (0,) + one.shape
    else:
        first = batch[0]
        assert one.matrix.tobytes() == first.matrix.tobytes()
        assert (one.cone, one.pattern) == (first.cone, first.pattern) and one.cone == cone
        # The draw lies in its cone: the signs of its leading (LPM) or
        # trailing (TPM) minors are its pattern.
        oriented = one.matrix if cone == "lpm" else reverse_matrix(one.matrix)
        assert tuple(np.sign(leading_minors(oriented)).astype(int)) == one.pattern
        assert draw(RngStream(7), 0) == []
    assert len(draw(RngStream(7), 5)) == 5


def _dense_cone_matrices(F, patterns, cone):
    """F_i D_i F_i* (LPM) or F_i* D_i F_i (TPM) with each canonical basis D_i
    built as a dense diagonal matrix, as the congruence once did."""
    signs = np.broadcast_to(canonical_signs(patterns), F.shape[:-1])
    n = F.shape[-1]
    D = np.zeros(F.shape)
    D[:, np.arange(n), np.arange(n)] = signs if cone == "lpm" else signs[:, ::-1]
    Fh = np.swapaxes(F.conj(), -1, -2)
    return symmetrize(F @ D @ Fh if cone == "lpm" else Fh @ D @ F)


def _factor_stacks(n):
    rng = np.random.default_rng(n)
    m = 6
    lower = np.stack([random_lower(rng, n) for _ in range(m)])
    diagonal = np.zeros((m, n, n))
    diagonal[:, np.arange(n), np.arange(n)] = rng.uniform(0.5, 2.0, (m, n))
    # A TPM Wishart stack is the reversal view of a lower triangular stack.
    return {"random": lower, "reversed": reverse_matrix(lower),
            "identity": np.broadcast_to(np.eye(n), (m, n, n)), "diagonal": diagonal}


@pytest.mark.parametrize("cone", CONES)
@pytest.mark.parametrize("n", [1, 3, 10, 33])
def test_cone_matrices_match_the_dense_basis(n, cone):
    rng = np.random.default_rng(100 + n)
    one = tuple(int(e) for e in rng.choice((1, -1), n))
    each = rng.choice((1, -1), (6, n))
    for F in _factor_stacks(n).values():
        for patterns in (one, each):
            got = _cone_matrices(F, patterns, cone)
            want = _dense_cone_matrices(F, patterns, cone)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
