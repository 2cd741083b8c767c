"""Log-densities against SciPy on signed cones of both kinds, and the law a
spec prepares for its densities: kept per spec content, prepared again after
an in-place edit, and never kept for a spec that fails validation."""

import numpy as np
import pytest
from scipy import stats

from conftest import random_factor
from lpmch import (
    ConePoint,
    DistributionSpec,
    RngStream,
    cholesky_normal_log_density,
    cholesky_normal_sample,
    cone_compose,
    cone_factor,
    eta,
    inverse_wishart_log_density,
    inverse_wishart_sample,
    wishart_log_density,
    wishart_sample,
)
from lpmch.errors import NegativeRadicand, PatternMismatch, SpecInvalid

TOL = dict(rel=1e-12, abs=1e-12)


def spd(rng, n):
    X = rng.standard_normal((n, n))
    return X @ X.T / n + np.eye(n)


def signed_pattern(rng, n):
    """A random pattern with at least one minus sign."""
    eps = rng.choice((1, -1), n)
    eps[rng.integers(n)] = -1
    return tuple(int(e) for e in eps)


def pd_image(L, cone):
    """L L^T (LPM) or L^T L (TPM)."""
    return L @ L.T if cone == "lpm" else L.T @ L


def specs(rng, n, cone, eps):
    sigma, N = spd(rng, n), n + 2
    m = n * (n + 1) // 2
    Y = rng.standard_normal((m, m))
    return (DistributionSpec(kind="wishart", pattern=eps, cone=cone, sigma=sigma, dof=N),
            DistributionSpec(kind="inverse_wishart", pattern=eps, cone=cone,
                             sigma=sigma, dof=N),
            DistributionSpec(kind="cholesky_normal", cone=cone,
                             m0=cone_compose(random_factor(rng, n), eps, cone),
                             sigma_tilde=Y @ Y.T / m + 0.1 * np.eye(m)))


CASES = [(2, "tpm"), (3, "tpm"), (10, "tpm"), (10, "lpm")]


@pytest.mark.parametrize("n, cone", CASES)
def test_densities_of_signed_draws_match_scipy(n, cone):
    rng = np.random.default_rng(n + len(cone))
    eps = signed_pattern(rng, n)
    w, iw, normal = specs(rng, n, cone, eps)
    stream = RngStream(n, 0 if cone == "lpm" else 1)
    for M in wishart_sample(stream, w, size=5):
        W = pd_image(cone_factor(M), cone)
        assert (M.cone, M.pattern) == (cone, eps)
        assert wishart_log_density(M, w) == pytest.approx(
            stats.wishart.logpdf(W, df=w.dof, scale=w.sigma), **TOL)
    for X in inverse_wishart_sample(stream, iw, size=5):
        W = pd_image(cone_factor(X), cone)
        assert (X.cone, X.pattern) == (cone, eps)
        assert inverse_wishart_log_density(X, iw) == pytest.approx(
            stats.invwishart.logpdf(W, df=iw.dof, scale=iw.sigma), **TOL)
    mean = eta(cone_factor(normal.m0))
    for M in cholesky_normal_sample(stream, normal, size=5):
        assert (M.cone, M.pattern) == (cone, eps)
        assert cholesky_normal_log_density(M, normal) == pytest.approx(
            stats.multivariate_normal.logpdf(eta(cone_factor(M)), mean=mean,
                                             cov=normal.sigma_tilde), **TOL)


def density(M, spec):
    return {"wishart": wishart_log_density,
            "inverse_wishart": inverse_wishart_log_density,
            "cholesky_normal": cholesky_normal_log_density}[spec.kind](M, spec)


def rebuilt(spec):
    """A spec with copies of spec's entries and no prepared law."""
    if spec.kind == "cholesky_normal":
        m0 = spec.m0
        return DistributionSpec(kind=spec.kind, cone=spec.cone,
                                m0=ConePoint(np.array(m0.matrix), m0.cone, m0.pattern),
                                sigma_tilde=np.array(spec.sigma_tilde))
    return DistributionSpec(kind=spec.kind, pattern=spec.pattern, cone=spec.cone,
                            sigma=np.array(spec.sigma), dof=spec.dof)


@pytest.mark.parametrize("cone", ("lpm", "tpm"))
@pytest.mark.parametrize("kind, entry", [("wishart", "sigma"),
                                         ("inverse_wishart", "sigma"),
                                         ("cholesky_normal", "sigma_tilde"),
                                         ("cholesky_normal", "m0")])
def test_an_in_place_edit_prepares_the_law_again(kind, entry, cone):
    rng = np.random.default_rng(3)
    eps = signed_pattern(rng, 3)
    spec = {s.kind: s for s in specs(rng, 3, cone, eps)}[kind]
    M = cone_compose(random_factor(rng, 3), eps, cone)
    before = density(M, spec)
    assert density(M, spec) == before
    array = spec.m0.matrix if entry == "m0" else getattr(spec, entry)
    array[...] *= 2.0
    after = density(M, spec)
    assert after != before
    assert after == density(M, rebuilt(spec))


@pytest.mark.parametrize("kind", ("wishart", "cholesky_normal"))
def test_an_in_place_edit_of_a_list_pattern_prepares_the_law_again(kind):
    rng = np.random.default_rng(6)
    eps = signed_pattern(rng, 3)
    spec = {s.kind: s for s in specs(rng, 3, "lpm", eps)}[kind]
    if kind == "cholesky_normal":
        m0 = spec.m0
        spec = DistributionSpec(kind=kind, m0=ConePoint(m0.matrix, m0.cone, list(eps)),
                                sigma_tilde=spec.sigma_tilde)
        given = spec.m0.pattern
    else:
        spec = DistributionSpec(kind=kind, pattern=list(eps), sigma=spec.sigma, dof=spec.dof)
        given = spec.pattern
    M = cone_compose(random_factor(rng, 3), eps)
    density(M, spec)
    given[0] = -given[0]
    with pytest.raises(PatternMismatch):
        density(M, spec)


def test_validation_runs_once_per_spec_content(monkeypatch):
    calls = []
    validate = DistributionSpec.validate

    def counted(spec):
        calls.append(spec.kind)
        return validate(spec)

    monkeypatch.setattr(DistributionSpec, "validate", counted)
    rng = np.random.default_rng(4)
    eps = signed_pattern(rng, 3)
    w, iw, normal = specs(rng, 3, "lpm", eps)
    points = [cone_compose(random_factor(rng, 3), eps, "lpm") for _ in range(4)]
    for spec in (w, iw, normal):
        for M in points:
            density(M, spec)
    assert calls == ["wishart", "inverse_wishart", "cholesky_normal"]
    w.sigma[0, 0] += 1.0
    density(points[0], w)
    density(points[1], w)
    assert calls[3:] == ["wishart"]


def test_an_invalid_spec_raises_on_every_call():
    rng = np.random.default_rng(5)
    eps = signed_pattern(rng, 2)
    w, iw, normal = specs(rng, 2, "lpm", eps)
    M = cone_compose(random_factor(rng, 2), eps, "lpm")
    good, sigma = density(M, w), np.array(w.sigma)
    w.sigma[...] = np.diag([1.0, -1.0])
    for _ in range(3):
        with pytest.raises(SpecInvalid):
            density(M, w)
    w.sigma[...] = sigma
    assert density(M, w) == good
    bad_dof = DistributionSpec(kind="wishart", pattern=eps, sigma=np.eye(2), dof=1)
    # sigma_tilde PSD but singular: valid to sample from, no density.
    singular = DistributionSpec(kind="cholesky_normal", m0=normal.m0,
                                sigma_tilde=np.zeros((3, 3)))
    for spec in (bad_dof, singular):
        for _ in range(3):
            with pytest.raises(SpecInvalid):
                density(M, spec)


def test_each_bad_input_raises_its_named_error():
    rng = np.random.default_rng(6)
    eps = (1, -1)
    w, iw, normal = specs(rng, 2, "lpm", eps)
    M = cone_compose(random_factor(rng, 2), eps, "lpm")
    other = cone_compose(random_factor(rng, 2), (-1, 1), "lpm")
    tpm = cone_compose(random_factor(rng, 2), eps, "tpm")
    singular = DistributionSpec(kind="cholesky_normal", m0=normal.m0,
                                sigma_tilde=np.zeros((3, 3)))
    # m0 claims a pattern its matrix does not have.
    broken_m0 = DistributionSpec(kind="cholesky_normal", sigma_tilde=np.eye(3),
                                 m0=ConePoint(np.diag([1.0, 1.0]), "lpm", eps))
    invalid = DistributionSpec(kind="wishart", pattern=eps, sigma=-np.eye(2), dof=5)
    for _ in range(2):
        for spec in (w, iw, normal, singular, broken_m0):
            for point in (other, tpm):
                with pytest.raises(PatternMismatch):
                    density(point, spec)
        with pytest.raises(SpecInvalid):
            density(other, invalid)
        with pytest.raises(SpecInvalid):
            cholesky_normal_log_density(M, singular, measure="nope")
        with pytest.raises(NegativeRadicand):
            density(M, broken_m0)
        with pytest.raises(PatternMismatch):
            cholesky_normal_log_density(other, normal, measure="nope")
        with pytest.raises(ValueError, match="measure"):
            cholesky_normal_log_density(M, normal, measure="nope")


def test_specs_compare_by_identity():
    rng = np.random.default_rng(7)
    w, iw, normal = specs(rng, 3, "lpm", (1, -1, 1))
    for spec in (w, iw, normal):
        twin = rebuilt(spec)
        assert spec == spec and not spec != spec
        assert spec != twin and not spec == twin
        assert len({spec, twin, spec}) == 2
