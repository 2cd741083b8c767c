from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from conftest import clone_patterns, random_lower
from lpmch import (
    DistributionSpec,
    RngStream,
    bartlett_sample,
    canonical_point,
    cholesky_normal_log_density,
    cholesky_normal_sample,
    classify,
    cones_with_inertia,
    compose,
    eta,
    factor,
    inertial_clone_sample,
    invert_cone_point,
    inverse_wishart_log_density,
    inverse_wishart_sample,
    jacobian_logdet,
    log_cholesky_mean,
    lpm_distance,
    negative_inertia,
    reverse_matrix,
    reverse_pattern,
    symmetrize,
    wishart_log_density,
    wishart_sample,
)
from lpmch.errors import NonFiniteInput, PatternMismatch, SpecInvalid
from lpmch.geometry import cone_factor, cone_compose
from lpmch.core import _unrank_patterns
from lpmch.sampling import cholesky_normal_etas, wishart_factors


def wishart_spec(eps, sigma, dof, cone="lpm"):
    return DistributionSpec(kind="wishart", pattern=eps, cone=cone,
                            sigma=np.asarray(sigma, dtype=float), dof=dof)


def test_rng_stream_determinism():
    a = bartlett_sample(RngStream(42, 3), 3, 7, size=5)
    b = bartlett_sample(RngStream(42, 3), 3, 7, size=5)
    assert np.array_equal(a, b)
    c = bartlett_sample(RngStream(42, 4), 3, 7, size=5)
    assert not np.array_equal(a, c)
    assert RngStream(1).spawn(9).stream == 9


def test_bartlett_moments():
    rng = RngStream(0)
    n, N, m = 3, 8, 40_000
    K = bartlett_sample(rng, n, N, size=m)
    assert np.all(np.diagonal(K, axis1=1, axis2=2) > 0)
    # squared diagonals are chi-square with N - j + 1 dof
    for j in range(n):
        draws = K[:, j, j] ** 2
        se = draws.std() / np.sqrt(m)
        assert abs(draws.mean() - (N - j)) < 3 * se
    # trace of K K^T accumulates the component means
    traces = np.einsum("mij,mij->m", K, K)
    expected = sum(N - j for j in range(n)) + n * (n - 1) / 2
    assert abs(traces.mean() - expected) < 3 * traces.std() / np.sqrt(m)
    with pytest.raises(SpecInvalid):
        bartlett_sample(rng, 3, 2)


def test_bartlett_n1_chi_square():
    rng = RngStream(1)
    N, m = 5, 20_000
    draws = bartlett_sample(rng, 1, N, size=m)[:, 0, 0] ** 2
    assert stats.kstest(draws, "chi2", args=(N,)).pvalue > 0.01


def test_wishart_pd_mean():
    sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    spec = wishart_spec((1, 1), sigma, 6)
    F = wishart_factors(RngStream(2), spec, size=30_000)
    Ms = F @ np.transpose(F, (0, 2, 1))
    mean = Ms.mean(axis=0)
    se = Ms.std(axis=0) / np.sqrt(Ms.shape[0])
    assert np.all(np.abs(mean - 6 * sigma) < 3 * se)


@pytest.mark.parametrize("cone", ["lpm", "tpm"])
def test_wishart_draws_follow_the_self_adjoint_part_of_sigma(cone):
    # validate and the densities read (sigma + sigma^T) / 2; so do the draws.
    sigma = np.array([[2.0, 0.0], [1.0, 2.0]])
    F = wishart_factors(RngStream(19), wishart_spec((1, 1), sigma, 6, cone=cone), size=20_000)
    Ms = F @ np.swapaxes(F, -1, -2) if cone == "lpm" else np.swapaxes(F, -1, -2) @ F
    se = Ms.std(axis=0) / np.sqrt(Ms.shape[0])
    assert np.all(np.abs(Ms.mean(axis=0) - 6 * symmetrize(sigma)) < 4 * se)
    inv_spec = DistributionSpec(kind="inverse_wishart", pattern=(1, 1), cone=cone,
                                sigma=sigma, dof=8)
    Xs = np.array([X.matrix for X in inverse_wishart_sample(RngStream(20), inv_spec,
                                                            size=20_000)])
    se = Xs.std(axis=0) / np.sqrt(Xs.shape[0])
    # E[X] = sigma / (N - n - 1) for the inverse Wishart.
    assert np.all(np.abs(Xs.mean(axis=0) - symmetrize(sigma) / 5) < 4 * se)


def test_wishart_pattern_correctness():
    rng = RngStream(3)
    spec = wishart_spec((1, -1, 1), np.eye(3), 5)
    for M in wishart_sample(rng, spec, size=300):
        assert M.pattern == (1, -1, 1)
        assert classify(M.matrix).pattern == (1, -1, 1)
        assert int(np.sum(np.linalg.eigvalsh(M.matrix) < 0)) == \
            negative_inertia((1, -1, 1))


def test_wishart_tpm_draws():
    rng = RngStream(4)
    spec = wishart_spec((1, -1), np.eye(2), 5, cone="tpm")
    for M in wishart_sample(rng, spec, size=100):
        assert classify(M.matrix, cone="tpm").pattern == (1, -1)


def test_wishart_reversal_duality():
    # reverse of LPM draws from sigma matches TPM draws from reversed sigma
    sigma = np.array([[2.0, 0.7], [0.7, 1.0]])
    eps, N, m = (1, -1), 6, 5000
    lpm = wishart_factors(RngStream(5, 0), wishart_spec(eps, sigma, N), size=m)
    Ml = lpm @ np.transpose(lpm, (0, 2, 1))
    D = np.diag([1.0, -1.0])
    Ml = np.einsum("mij,jk,mlk->mil", lpm, D, lpm)
    rev_sigma = symmetrize(reverse_matrix(sigma))
    tpm = wishart_factors(RngStream(5, 1),
                          wishart_spec(eps, rev_sigma, N, cone="tpm"), size=m)
    C = reverse_matrix(np.diag([1.0, -1.0]))
    Mt = np.einsum("mji,jk,mkl->mil", tpm, C, tpm)
    rev_Ml = np.transpose(Ml, (0, 2, 1))[:, ::-1, ::-1]
    # expectation identity, componentwise within 3 standard errors
    se = (rev_Ml.std(axis=0) + Mt.std(axis=0)) / np.sqrt(m)
    assert np.all(np.abs(rev_Ml.mean(axis=0) - Mt.mean(axis=0)) < 3 * se)
    # two-sample test on the log |det| statistic
    stat_l = np.log(np.abs(np.linalg.det(rev_Ml)))
    stat_t = np.log(np.abs(np.linalg.det(Mt)))
    assert stats.ks_2samp(stat_l, stat_t).pvalue > 0.01


def test_wishart_log_density_n1():
    spec = wishart_spec((1,), np.eye(1), 2)
    x = classify(np.array([[1.0]]))
    assert wishart_log_density(x, spec) == pytest.approx(-0.5 - np.log(2.0),
                                                         abs=1e-12)
    # agrees with the chi-square density for several points and dofs
    for N in (2, 5, 9):
        spec = wishart_spec((1,), np.eye(1), N)
        for v in (0.5, 1.0, 4.0):
            x = classify(np.array([[v]]))
            assert wishart_log_density(x, spec) == pytest.approx(
                stats.chi2.logpdf(v, N), abs=1e-10)


def test_wishart_density_transfer_invariance():
    # the density value only depends on the factor, not on the cone label
    rng = np.random.default_rng(6)
    sigma = np.array([[1.5, 0.2], [0.2, 1.0]])
    from lpmch import resign
    spec_signed = wishart_spec((1, -1), sigma, 7)
    spec_pd = wishart_spec((1, 1), sigma, 7)
    M = wishart_sample(RngStream(7), spec_signed)
    M_pd = resign(M, (1, 1))
    assert wishart_log_density(M, spec_signed) == pytest.approx(
        wishart_log_density(M_pd, spec_pd), abs=1e-10)


def test_wishart_density_pattern_mismatch():
    spec = wishart_spec((1, 1), np.eye(2), 5)
    M = wishart_sample(RngStream(8), wishart_spec((1, -1), np.eye(2), 5))
    with pytest.raises(PatternMismatch):
        wishart_log_density(M, spec)


def test_jacobian_logdet_values():
    assert jacobian_logdet(np.array([[3.0]])) == pytest.approx(np.log(6.0))
    assert jacobian_logdet(np.eye(2)) == pytest.approx(np.log(4.0))
    assert jacobian_logdet(np.array([[2.0, 0.0], [3.0, 5.0]])) == pytest.approx(
        np.log(80.0))


def _phi_coords(vec, n, eps):
    rows, cols = np.tril_indices(n)
    L = np.zeros((n, n))
    L[rows, cols] = vec
    A = compose(L, canonical_point(eps)).matrix
    return A[rows, cols]


def test_jacobian_logdet_finite_difference():
    rng = np.random.default_rng(9)
    for n in range(1, 5):
        for _ in range(4):
            eps = tuple(rng.choice([1, -1], n))
            L = random_lower(rng, n)
            rows, cols = np.tril_indices(n)
            x0 = L[rows, cols]
            h = 1e-6
            J = np.empty((x0.size, x0.size))
            for i in range(x0.size):
                xp, xm = x0.copy(), x0.copy()
                xp[i] += h
                xm[i] -= h
                J[:, i] = (_phi_coords(xp, n, eps) - _phi_coords(xm, n, eps)) / (2 * h)
            fd = np.log(abs(np.linalg.det(J)))
            assert jacobian_logdet(L, eps) == pytest.approx(fd, rel=1e-5)


@pytest.mark.parametrize("L", [[[1.0, 0.0], [0.0, -1.0]], [[1.0, 2.0], [0.0, 1.0]],
                               [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]],
                         ids=["negative-diagonal", "upper", "not-square"])
def test_jacobian_logdet_refuses_a_non_factor(L):
    # The negative diagonal gave NaN with a RuntimeWarning; an upper
    # triangular L was taken for its diagonal.
    with pytest.raises(ValueError, match="lower triangular with positive diagonal"):
        jacobian_logdet(np.array(L))


def test_cholesky_normal():
    m0 = classify(np.array([[2.0, 0.3], [0.3, 1.0]]))
    tight = DistributionSpec(kind="cholesky_normal", m0=m0,
                             sigma_tilde=1e-12 * np.eye(3))
    M = cholesky_normal_sample(RngStream(10), tight)
    assert np.abs(M.matrix - m0.matrix).max() < 1e-4

    spec = DistributionSpec(kind="cholesky_normal", m0=m0,
                            sigma_tilde=0.1 * np.eye(3))
    vs = cholesky_normal_etas(RngStream(11), spec, size=20_000)
    target = eta(cone_factor(m0))
    se = vs.std(axis=0) / np.sqrt(vs.shape[0])
    assert np.all(np.abs(vs.mean(axis=0) - target) < 3 * se)

    draws = cholesky_normal_sample(RngStream(12), spec, size=5000)
    mean_point = log_cholesky_mean(draws)
    assert lpm_distance(mean_point, m0) < 0.02


def test_cholesky_normal_log_density():
    m0 = classify(np.eye(2))
    spec = DistributionSpec(kind="cholesky_normal", m0=m0,
                            sigma_tilde=0.5 * np.eye(3))
    M = cholesky_normal_sample(RngStream(13), spec)
    v = eta(cone_factor(M))
    expected = stats.multivariate_normal.logpdf(v, mean=np.zeros(3),
                                                cov=0.5 * np.eye(3))
    assert cholesky_normal_log_density(M, spec) == pytest.approx(expected,
                                                                 abs=1e-10)
    L = cone_factor(M)
    shift = jacobian_logdet(L) + np.sum(np.log(np.diagonal(L)))
    assert cholesky_normal_log_density(M, spec, measure="lebesgue") == \
        pytest.approx(expected - shift, abs=1e-10)


def test_inverse_wishart():
    eps = (1, -1)
    sigma = np.array([[1.0, 0.2], [0.2, 2.0]])
    fwd = wishart_spec(eps, sigma, 6)
    inv_spec = DistributionSpec(kind="inverse_wishart", cone="tpm",
                                pattern=reverse_pattern(eps),
                                sigma=np.linalg.inv(sigma), dof=6)
    for M in wishart_sample(RngStream(14), fwd, size=200):
        X = invert_cone_point(M)
        assert (X.cone, X.pattern) == ("tpm", reverse_pattern(eps))
        assert classify(X.matrix, cone="tpm").pattern == reverse_pattern(eps)
    draws = inverse_wishart_sample(RngStream(15), inv_spec, size=50)
    for X in draws:
        assert (X.cone, X.pattern) == ("tpm", reverse_pattern(eps))


def test_inverse_wishart_density_n1():
    # inverse of a chi-square draw has an inverse-gamma density
    spec = DistributionSpec(kind="inverse_wishart", cone="tpm", pattern=(1,),
                            sigma=np.eye(1), dof=4)
    for v in (0.5, 1.0, 2.0):
        X = classify(np.array([[v]]), cone="tpm")
        assert inverse_wishart_log_density(X, spec) == pytest.approx(
            stats.invgamma.logpdf(v, 2, scale=0.5), abs=1e-10)


def test_inverse_wishart_change_of_variables_1d():
    # densities of x and 1/x differ by the 1-d Jacobian 2 log x
    N, v = 5, 1.7
    fwd = wishart_spec((1,), np.eye(1), N)
    inv_spec = DistributionSpec(kind="inverse_wishart", cone="tpm", pattern=(1,),
                                sigma=np.eye(1), dof=N)
    M = classify(np.array([[v]]))
    X = classify(np.array([[1.0 / v]]), cone="tpm")
    lhs = inverse_wishart_log_density(X, inv_spec)
    assert lhs == pytest.approx(wishart_log_density(M, fwd) + 2 * np.log(v),
                                abs=1e-10)


def test_inertial_clone():
    base = wishart_spec((1, 1, 1), np.eye(3), 6)
    spec = DistributionSpec(kind="inertial_clone", base=base, k=2)
    rng = RngStream(16)
    counts = {}
    for M in inertial_clone_sample(rng, spec, size=2000):
        assert negative_inertia(M.pattern) == 2
        assert int(np.sum(np.linalg.eigvalsh(M.matrix) < 0)) == 2
        counts[M.pattern] = counts.get(M.pattern, 0) + 1
    cones = cones_with_inertia(3, 2)
    assert set(counts) == set(cones)
    observed = [counts[eps] for eps in cones]
    assert stats.chisquare(observed).pvalue > 0.01

    pd_only = DistributionSpec(kind="inertial_clone", base=base, k=0)
    M = inertial_clone_sample(RngStream(17), pd_only)
    assert M.pattern == (1, 1, 1)


def test_unranked_clone_patterns_follow_the_enumeration():
    for n in range(1, 11):
        base = wishart_spec((1,) * n, np.eye(n), n)
        for k in range(n + 1):
            spec = DistributionSpec(kind="inertial_clone", base=base, k=k)
            expected = clone_patterns(spec)
            got = _unrank_patterns(np.arange(len(expected)), n, k)
            assert [tuple(p) for p in got.tolist()] == expected
        spec = DistributionSpec(kind="inertial_clone", base=base, all_cones=True)
        got = _unrank_patterns(np.arange(2**n), n)
        assert [tuple(p) for p in got.tolist()] == clone_patterns(spec)


def test_inertial_clone_at_n40():
    # 2^40 patterns: drawn by unranking, never enumerated
    n = 40
    base = wishart_spec((1,) * n, np.eye(n), n + 2)
    spec = DistributionSpec(kind="inertial_clone", base=base, k=20)
    draws = inertial_clone_sample(RngStream(40), spec, size=3)
    assert [negative_inertia(M.pattern) for M in draws] == [20, 20, 20]
    assert all(len(M.pattern) == n for M in draws)


def test_clone_count_beyond_int64_is_invalid():
    base = wishart_spec((1,) * 70, np.eye(70), 72)
    for spec in (DistributionSpec(kind="inertial_clone", base=base, k=35),
                 DistributionSpec(kind="inertial_clone", base=base, all_cones=True)):
        with pytest.raises(SpecInvalid):
            inertial_clone_sample(RngStream(70), spec)


def test_change_of_variables_box_probability():
    # transfer preserves probabilities of factor-coordinate boxes
    sigma = np.array([[1.0, 0.3], [0.3, 2.0]])
    m = 20_000
    signed = wishart_factors(RngStream(18, 0), wishart_spec((-1, 1), sigma, 5),
                             size=m)
    pd = wishart_factors(RngStream(18, 1), wishart_spec((1, 1), sigma, 5),
                         size=m)

    def box_prob(F):
        return np.mean((F[:, 0, 0] < 1.5) & (F[:, 1, 0] > 0.0)
                       & (F[:, 1, 1] < 2.0))

    p1, p2 = box_prob(signed), box_prob(pd)
    se = np.sqrt(p1 * (1 - p1) / m) + np.sqrt(p2 * (1 - p2) / m)
    assert abs(p1 - p2) < 3 * max(se, 1e-3)


def test_spec_validation():
    with pytest.raises(SpecInvalid):
        wishart_spec((1, 1), np.eye(2), 1).validate()
    with pytest.raises(SpecInvalid):
        wishart_spec((1, 1), np.diag([1.0, -1.0]), 5).validate()
    with pytest.raises(SpecInvalid):
        DistributionSpec(kind="nope").validate()
    base = wishart_spec((1, -1), np.eye(2), 5)
    with pytest.raises(SpecInvalid):
        DistributionSpec(kind="inertial_clone", base=base, k=1).validate()
    # Clones push Wishart factors; other base laws are refused up front.
    normal = DistributionSpec(kind="cholesky_normal", m0=classify(np.eye(2)),
                              sigma_tilde=np.eye(3))
    inverse = DistributionSpec(kind="inverse_wishart", pattern=(1, 1),
                               sigma=np.eye(2), dof=5)
    for other in (normal, inverse):
        with pytest.raises(SpecInvalid):
            DistributionSpec(kind="inertial_clone", base=other, k=1).validate()


def kind_specs():
    """A valid 2 x 2 spec of each kind."""
    wishart = wishart_spec((1, 1), np.eye(2), 4)
    return {"wishart": wishart,
            "inverse_wishart": DistributionSpec(kind="inverse_wishart", pattern=(1, 1),
                                                sigma=np.eye(2), dof=4),
            "cholesky_normal": DistributionSpec(kind="cholesky_normal", m0=classify(np.eye(2)),
                                                sigma_tilde=np.eye(3)),
            "inertial_clone": DistributionSpec(kind="inertial_clone", base=wishart, k=1)}


POINT = cone_compose(np.eye(2), (1, 1))
KIND_FUNCTIONS = {
    "wishart": [lambda rng, spec: wishart_factors(rng, spec, 3),
                lambda rng, spec: wishart_sample(rng, spec, 3),
                lambda rng, spec: wishart_log_density(POINT, spec)],
    "inverse_wishart": [lambda rng, spec: inverse_wishart_sample(rng, spec, 3),
                        lambda rng, spec: inverse_wishart_log_density(POINT, spec)],
    "cholesky_normal": [lambda rng, spec: cholesky_normal_etas(rng, spec, 3),
                        lambda rng, spec: cholesky_normal_sample(rng, spec, 3),
                        lambda rng, spec: cholesky_normal_log_density(POINT, spec)],
    "inertial_clone": [lambda rng, spec: inertial_clone_sample(rng, spec, 3)],
}
MISMATCHES = [(kind, i, other) for kind, fns in KIND_FUNCTIONS.items()
              for i in range(len(fns)) for other in KIND_FUNCTIONS if other != kind]


@pytest.mark.parametrize("kind, index, other", MISMATCHES)
def test_a_function_named_after_a_kind_refuses_every_other_kind(kind, index, other):
    rng = RngStream(0)
    state = rng.generator.bit_generator.state
    with pytest.raises(SpecInvalid, match=f"need a {kind} spec, got kind '{other}'"):
        KIND_FUNCTIONS[kind][index](rng, kind_specs()[other])
    assert rng.generator.bit_generator.state == state
    KIND_FUNCTIONS[kind][index](rng, kind_specs()[kind])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("kind", ["wishart", "inverse_wishart", "inertial_clone",
                                  "cholesky_normal"])
def test_non_finite_law_parameters_are_named_errors(kind, bad):
    spec = kind_specs()[kind]
    if kind == "inertial_clone":
        spec.base.sigma[1, 0] = bad
    elif kind == "cholesky_normal":
        spec.sigma_tilde[1, 0] = bad
    else:
        spec.sigma[1, 0] = bad
    with pytest.raises(NonFiniteInput):
        spec.validate()
    rng = RngStream(0)
    state = rng.generator.bit_generator.state
    with pytest.raises(NonFiniteInput):
        KIND_FUNCTIONS[kind][0](rng, spec)
    assert rng.generator.bit_generator.state == state


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("kind, index", [(kind, i) for kind in ("wishart", "inverse_wishart",
                                                                 "inertial_clone")
                                         for i in range(len(KIND_FUNCTIONS[kind]))])
def test_a_non_finite_dof_is_refused_before_any_draw(kind, index, bad):
    # dof < n is false for both, so neither failed validation before.
    spec = kind_specs()[kind]
    if kind == "inertial_clone":
        spec = replace(spec, base=replace(spec.base, dof=bad))
    else:
        spec = replace(spec, dof=bad)
    rng = RngStream(0)
    state = rng.generator.bit_generator.state
    with pytest.raises(SpecInvalid, match="dof must be finite"):
        KIND_FUNCTIONS[kind][index](rng, spec)
    assert rng.generator.bit_generator.state == state


def test_pd_densities_match_scipy_n3():
    # On the all-plus cone the transferred laws are the classical ones, which
    # checks the multivariate gamma normalisation beyond n = 1.
    rng = np.random.default_rng(16)
    X = rng.standard_normal((3, 3))
    sigma = X @ X.T + 3 * np.eye(3)
    for N in (3, 5, 8):
        w = wishart_spec((1, 1, 1), sigma, N)
        iw = DistributionSpec(kind="inverse_wishart", pattern=(1, 1, 1), sigma=sigma, dof=N)
        for _ in range(3):
            Y = rng.standard_normal((3, 3))
            M = classify(Y @ Y.T + np.eye(3))
            assert wishart_log_density(M, w) == pytest.approx(
                stats.wishart.logpdf(M.matrix, df=N, scale=sigma), abs=1e-9)
            assert inverse_wishart_log_density(M, iw) == pytest.approx(
                stats.invwishart.logpdf(M.matrix, df=N, scale=sigma), abs=1e-9)
