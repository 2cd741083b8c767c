"""Random matrices on signed minor cones.

Samplers and log-densities for the transferred Wishart family (signed
Bartlett construction), the Cholesky-normal law, the inverse Wishart, and
inertial cloning. All densities are computed in log space; all draws are
reproducible from an explicit seeded stream.

Every sampler draws one (m, n, n) stack of lower triangular factors (a
Bartlett stack, or the chart image of a stack of normal coordinates) and
turns the whole stack into cone points in one batched congruence at the
end; the inverse Wishart inverts that stack in one call. Densities read
the factor of a point against its canonical basis (cone_factor), which
the point keeps after the first read.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    LPM,
    TPM,
    ConePoint,
    _inverse,
    _unrank_patterns,
    as_pattern,
    reverse_matrix,
    reverse_pattern,
    symmetrize,
)
from .cholesky import _cone_matrices, _congruence, _factor
from .geometry import _as_points, _cone_points, _strict_lower_indices, eta, eta_inv
from .errors import PatternMismatch, SpecInvalid

__all__ = [
    "RngStream", "DistributionSpec",
    "bartlett_sample", "wishart_sample", "wishart_log_density",
    "jacobian_logdet", "cholesky_normal_sample", "cholesky_normal_log_density",
    "inverse_wishart_sample", "inverse_wishart_log_density",
    "inertial_clone_sample",
]


class RngStream:
    """A seeded random stream: identical (seed, stream) means identical draws."""

    def __init__(self, seed, stream=0):
        self.seed = int(seed)
        self.stream = int(stream)
        self._generator = np.random.default_rng([self.seed, self.stream])

    @property
    def generator(self):
        return self._generator

    def spawn(self, stream):
        """An independent stream with the same seed and a new stream id."""
        return RngStream(self.seed, stream)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream={self.stream})"


@dataclass(frozen=True)
class DistributionSpec:
    """Parameters of one sampleable law on a cone.

    kind: 'wishart', 'inverse_wishart', 'cholesky_normal', or 'inertial_clone'.
    sigma: PD scale matrix (wishart kinds); dof: degrees of freedom N.
    m0 / sigma_tilde: centre cone point and PSD covariance in linear
    coordinates (cholesky_normal).
    base / k / all_cones: PD-supported base spec and target inertia for
    inertial cloning (all_cones spreads the mass over every pattern instead).
    """

    kind: str
    pattern: tuple = None
    cone: str = LPM
    sigma: np.ndarray = None
    dof: int = None
    m0: ConePoint = None
    sigma_tilde: np.ndarray = None
    base: "DistributionSpec" = None
    k: int = None
    all_cones: bool = False

    @property
    def dim(self):
        if self.kind == "cholesky_normal":
            return self.m0.dim
        if self.kind == "inertial_clone":
            return self.base.dim
        return np.asarray(self.sigma).shape[0]

    def validate(self):
        if self.kind in ("wishart", "inverse_wishart"):
            if self.sigma is None or self.dof is None or self.pattern is None:
                raise SpecInvalid(f"{self.kind} needs sigma, dof, and pattern")
            sigma = np.asarray(self.sigma, dtype=float)
            n = sigma.shape[0]
            if len(as_pattern(self.pattern)) != n:
                raise SpecInvalid("pattern length does not match sigma")
            if self.dof < n:
                raise SpecInvalid(f"dof {self.dof} below dimension {n}")
            if np.any(np.linalg.eigvalsh(symmetrize(sigma)) <= 0):
                raise SpecInvalid("sigma must be positive definite")
        elif self.kind == "cholesky_normal":
            if self.m0 is None or self.sigma_tilde is None:
                raise SpecInvalid("cholesky_normal needs m0 and sigma_tilde")
            n = self.m0.dim
            m = n * (n + 1) // 2
            st = np.asarray(self.sigma_tilde, dtype=float)
            if st.shape != (m, m):
                raise SpecInvalid(f"sigma_tilde must be {m}x{m}, got {st.shape}")
            if np.any(np.linalg.eigvalsh(symmetrize(st)) < -1e-12):
                raise SpecInvalid("sigma_tilde must be positive semidefinite")
        elif self.kind == "inertial_clone":
            if self.base is None or self.base.kind != "wishart":
                raise SpecInvalid("inertial_clone needs a wishart base spec")
            self.base.validate()
            if any(s != 1 for s in as_pattern(self.base.pattern)):
                raise SpecInvalid("inertial_clone base must be PD-supported")
            if not self.all_cones:
                if self.k is None or not 0 <= self.k <= self.base.dim:
                    raise SpecInvalid(f"need 0 <= k <= n, got k={self.k}")
        else:
            raise SpecInvalid(f"unknown distribution kind {self.kind!r}")
        return self


def bartlett_sample(rng, n, N, size=None):
    """Lower triangular K with chi diagonals and standard normal lower entries.

    Diagonal entry j (1-based) is the square root of a chi-square draw with
    N - j + 1 degrees of freedom, so K K^T is Wishart with identity scale.
    """
    if not (N >= n >= 1):
        raise SpecInvalid(f"need dof >= n >= 1, got dof={N}, n={n}")
    g = rng.generator
    m = 1 if size is None else int(size)
    K = np.zeros((m, n, n))
    for j in range(n):
        K[:, j, j] = np.sqrt(g.chisquare(N - j, size=m))
    rows, cols = _strict_lower_indices(n)
    if rows.size:
        K[:, rows, cols] = g.standard_normal((m, rows.size))
    return K[0] if size is None else K


def wishart_factors(rng, spec, size=None):
    """Cone factors of Wishart draws against the canonical basis of the cone.

    A leading-minor draw is L0 K D K^T L0^T with L0 the classical Cholesky
    factor of sigma, so its factor is L0 K; trailing-minor draws are the
    reversals of leading-minor draws with the reversed scale.
    """
    spec.validate()
    sigma = np.asarray(spec.sigma, dtype=float)
    if spec.cone == TPM:
        sigma = symmetrize(reverse_matrix(sigma))
    n = sigma.shape[0]
    L0 = np.linalg.cholesky(sigma)
    F = L0 @ bartlett_sample(rng, n, spec.dof, size=size)
    return reverse_matrix(F) if spec.cone == TPM else F


def wishart_sample(rng, spec, size=None):
    """Signed-Bartlett Wishart draw(s) as cone points."""
    F = wishart_factors(rng, spec, size=1 if size is None else size)
    return _cone_points(F, as_pattern(spec.pattern), spec.cone, size)


def _multigammaln(a, d):
    """log Gamma_d(a), the multivariate gamma function, for a > (d - 1) / 2."""
    return (d * (d - 1) / 4.0 * math.log(math.pi)
            + sum(math.lgamma(a - j / 2.0) for j in range(d)))


def _pd_wishart_logpdf(W_logdet, W, sigma, N):
    n = sigma.shape[0]
    sign, sigma_logdet = np.linalg.slogdet(sigma)
    if sign <= 0:
        raise SpecInvalid("sigma must be positive definite")
    return (0.5 * (N - n - 1) * W_logdet
            - 0.5 * float(np.trace(np.linalg.solve(sigma, W)))
            - 0.5 * n * N * np.log(2.0)
            - _multigammaln(N / 2.0, n)
            - 0.5 * N * sigma_logdet)


def _check_point_matches(M, spec, pattern=None):
    pattern = as_pattern(spec.pattern if pattern is None else pattern)
    if M.cone != spec.cone or M.pattern != pattern:
        raise PatternMismatch(
            f"point is {M.cone}{M.pattern}, spec wants {spec.cone}{pattern}")


def _pd_image(L, cone):
    """The PD matrix behind a cone factor: L L* (LPM) or L* L (TPM)."""
    return _congruence(L, np.ones(L.shape[-1]), cone).real


def wishart_log_density(M, spec):
    """Log-density of the transferred Wishart at the cone point M.

    The transfer rides the factorization: the density at L D L* is the
    classical Wishart density at L L^T (L^T L in the TPM cone).
    """
    spec.validate()
    _check_point_matches(M, spec)
    L = _factor(M)
    W_logdet = 2.0 * float(np.sum(np.log(np.diagonal(L).real)))
    return float(_pd_wishart_logpdf(W_logdet, _pd_image(L, M.cone),
                                    np.asarray(spec.sigma, dtype=float), spec.dof))


def jacobian_logdet(L, eps=None):
    """log |det| of the differential of L -> L D_eps L^T at L.

    Equals n log 2 + sum_j (n+1-j) log l_jj, independent of the pattern.
    """
    d = np.diagonal(np.asarray(L)).real
    n = d.size
    weights = np.arange(n, 0, -1)
    return float(n * np.log(2.0) + np.sum(weights * np.log(d)))


def _psd_sqrt(S):
    w, U = np.linalg.eigh(symmetrize(np.asarray(S, dtype=float)))
    return U * np.sqrt(np.clip(w, 0.0, None))


def cholesky_normal_etas(rng, spec, size=None):
    """Linear-coordinate draws: normal around the coordinates of the centre."""
    spec.validate()
    mean = eta(_factor(spec.m0))
    A = _psd_sqrt(spec.sigma_tilde)
    m = 1 if size is None else int(size)
    z = rng.generator.standard_normal((m, mean.size))
    draws = mean[np.newaxis] + z @ A.T
    return draws[0] if size is None else draws


def cholesky_normal_sample(rng, spec, size=None):
    """Cone point(s) whose factor coordinates are multivariate normal."""
    v = cholesky_normal_etas(rng, spec, size=1 if size is None else size)
    return _cone_points(eta_inv(v), spec.m0.pattern, spec.cone, size)


def cholesky_normal_log_density(M, spec, measure="eta"):
    """Log-density of the Cholesky-normal law at M.

    With measure='eta' (the definition) the density lives on the linear
    coordinates of the factor; measure='lebesgue' re-expresses it against the
    flat measure on symmetric matrices by subtracting the full log-Jacobian
    of coordinates -> matrix.
    """
    spec.validate()
    _check_point_matches(M, spec, spec.m0.pattern)
    L = _factor(M)
    v = eta(L)
    mean = eta(_factor(spec.m0))
    St = symmetrize(np.asarray(spec.sigma_tilde, dtype=float))
    diff = v - mean
    sign, logdet = np.linalg.slogdet(St)
    if sign <= 0:
        raise SpecInvalid("density needs a positive definite sigma_tilde")
    quad = float(diff @ np.linalg.solve(St, diff))
    out = -0.5 * (quad + logdet + v.size * np.log(2.0 * np.pi))
    if measure == "lebesgue":
        # d(matrix)/d(coords) = dPhi/dL times dL/d(coords); the latter only
        # rescales the diagonal rows by l_jj.
        out -= jacobian_logdet(L) + float(np.sum(np.log(np.diagonal(L))))
    elif measure != "eta":
        raise ValueError(f"measure must be 'eta' or 'lebesgue', got {measure!r}")
    return float(out)


def inverse_wishart_sample(rng, spec, size=None):
    """Draw(s) from the inverse of a transferred Wishart.

    Inverts Wishart draws on the cone with the reversed pattern and kind, so
    the results land in spec's cone and pattern.
    """
    spec.validate()
    fwd = replace(spec, kind="wishart",
                  cone=LPM if spec.cone == TPM else TPM,
                  pattern=reverse_pattern(spec.pattern),
                  sigma=np.linalg.inv(np.asarray(spec.sigma, dtype=float)))
    F = wishart_factors(rng, fwd, size=1 if size is None else size)
    M = _inverse(_cone_matrices(F, fwd.pattern, fwd.cone))
    return _as_points(M, as_pattern(spec.pattern), spec.cone, size)


def inverse_wishart_log_density(X, spec):
    """Log-density of the transferred inverse Wishart at X.

    sigma plays the role of the inverse-Wishart scale: the law of M^{-1}
    when M is Wishart with scale sigma^{-1}.
    """
    spec.validate()
    _check_point_matches(X, spec)
    W = _pd_image(_factor(X), X.cone)
    omega = symmetrize(np.asarray(spec.sigma, dtype=float))
    n = omega.shape[0]
    N = spec.dof
    sign_o, omega_logdet = np.linalg.slogdet(omega)
    if sign_o <= 0:
        raise SpecInvalid("sigma must be positive definite")
    _, W_logdet = np.linalg.slogdet(W)
    return float(0.5 * N * omega_logdet
                 - 0.5 * n * N * np.log(2.0)
                 - _multigammaln(N / 2.0, n)
                 - 0.5 * (N + n + 1) * W_logdet
                 - 0.5 * np.trace(omega @ np.linalg.inv(W)))


def _draw_clone_patterns(rng, spec, size):
    """size patterns drawn uniformly from those an inertial clone mixes over
    (all_patterns(n), or cones_with_inertia(n, k)), as a (size, n) int array
    unranked from one integers(count) call. A count beyond the int64 range
    raises SpecInvalid."""
    n = spec.base.dim
    k = None if spec.all_cones else spec.k
    count = 2**n if k is None else math.comb(n, k)
    if count > np.iinfo(np.int64).max:
        raise SpecInvalid(f"{count} clone patterns at n={n} exceed the int64 range")
    return _unrank_patterns(rng.generator.integers(count, size=size), n, k)


def inertial_clone_sample(rng, spec, size=None):
    """PD base draws pushed to a uniformly random cone of fixed inertia."""
    spec.validate()
    patterns = _draw_clone_patterns(rng, spec, 1 if size is None else size)
    F = wishart_factors(rng, spec.base, size=len(patterns))
    return _cone_points(F, patterns, spec.cone, size)
