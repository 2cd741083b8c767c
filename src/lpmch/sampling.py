"""Random matrices on signed minor cones.

Samplers and log-densities for the transferred Wishart family (signed
Bartlett construction), the Cholesky-normal law, the inverse Wishart, and
inertial cloning. All densities are computed in log space; all draws are
reproducible from an explicit seeded stream.

Every sampler draws one (m, n, n) stack of lower triangular factors (a
Bartlett stack, or the chart image of a stack of normal coordinates) and
turns the whole stack into cone points in one batched congruence at the
end; the inverse Wishart inverts that stack in one call. Each sampler is
the composition of its draws and its arithmetic: the draws are its
generator calls, in stream order, into plain arrays (chi-square and normal
draws of Bartlett factors, the standard normals of the Cholesky-normal law,
the pattern positions of a clone); the arithmetic reads no stream and turns
the draws into factors or coordinates. Densities read
the factor of a point against its canonical basis (cone_factor), which
the point keeps after the first read.

A density splits into a spec-only part and a per-point part. The spec-only
part, the spec's prepared law, is made by the first density call on a spec:
the spec is validated, and the Cholesky factor of sigma, the normalising
constant and, for the Cholesky-normal law, the coordinates of the centre and
the inverse of sigma_tilde are computed once and kept on the spec. The law
is kept against copies of the entries of sigma, sigma_tilde and m0.matrix;
after an in-place edit of any of them the next density call validates and
prepares the spec again. The per-point part reads the point's factor L:
log det is 2 sum log l_jj, and the trace term is a squared Frobenius norm.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .core import (
    LPM,
    TPM,
    ConePoint,
    _inverse,
    _read_only,
    _same_entries,
    _strict_lower_indices,
    _unrank_patterns,
    as_pattern,
    reverse_matrix,
    reverse_pattern,
    symmetrize,
)
from .cholesky import _cone_matrices, _factor
from .geometry import _as_points, _cone_points, eta, eta_inv
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


@dataclass(frozen=True, eq=False)
class DistributionSpec:
    """Parameters of one sampleable law on a cone.

    kind: 'wishart', 'inverse_wishart', 'cholesky_normal', or 'inertial_clone'.
    sigma: PD scale matrix (wishart kinds); dof: degrees of freedom N.
    m0 / sigma_tilde: centre cone point and PSD covariance in linear
    coordinates (cholesky_normal).
    base / k / all_cones: PD-supported base spec and target inertia for
    inertial cloning (all_cones spreads the mass over every pattern instead).

    Specs compare by identity, as cone points do. A spec keeps its prepared
    law (see the module docstring) after its first density call; it is used
    only while sigma, sigma_tilde and m0.matrix hold exactly the entries it
    was prepared from, and the pattern (m0.pattern for cholesky_normal) the
    signs it was prepared from.
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
    # (entries, law): read-only copies of the array entries the law was
    # prepared from (_density_arrays) and the _Law; None until a density call.
    _law_cache: tuple = field(default=None, init=False, repr=False, compare=False)

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


def _bartlett_draws(g, n, N, m, out=None):
    """The generator calls of m Bartlett factors of size n and dof N, in
    stream order: chisquare(N - j) for each diagonal entry j (0-based), one
    per factor, then standard normals for the strict lower triangles, row by
    row. Returns (chi, z) of shapes (n, m) and (m, n(n-1)/2), views of out
    (m n(n+1)/2 floats) when it is given. Only the chi-square draws allocate."""
    if not (N >= n >= 1):
        raise SpecInvalid(f"need dof >= n >= 1, got dof={N}, n={n}")
    r = n * (n - 1) // 2
    buf = np.empty(m * (n + r)) if out is None else out
    chi, z = buf[:n * m].reshape(n, m), buf[n * m:].reshape(m, r)
    for j in range(n):
        chi[j] = g.chisquare(N - j, size=m)
    g.standard_normal(out=z)
    return chi, z


@lru_cache
def _bartlett_index(n):
    """Flat positions, in a [z | sqrt chi | 0] row of n(n-1)/2 + n + 1
    entries, of the entries of an n x n Bartlett factor, row-major."""
    r = n * (n - 1) // 2
    index = np.full((n, n), r + n)
    index[_strict_lower_indices(n)] = np.arange(r)
    index[np.diag_indices(n)] = r + np.arange(n)
    return _read_only(index.ravel())


def _bartlett_factors(draws):
    """The (m, n, n) Bartlett factors of (chi, z) draws: sqrt chi on the
    diagonal, z below it row by row, zero above; one take from a contiguous
    [z | sqrt chi | 0] row per factor."""
    chi, z = draws
    n, (m, r) = chi.shape[0], z.shape
    row = np.empty((m, r + n + 1))
    row[:, :r] = z
    for j in range(n):
        np.sqrt(chi[j], out=row[:, r + j])
    row[:, r + n] = 0.0
    return np.take(row, _bartlett_index(n), axis=1).reshape(m, n, n)


def bartlett_sample(rng, n, N, size=None):
    """Lower triangular K with chi diagonals and standard normal lower entries.

    Diagonal entry j (1-based) is the square root of a chi-square draw with
    N - j + 1 degrees of freedom, so K K^T is Wishart with identity scale.
    The stream is read as the chi-square draws of every factor, one diagonal
    entry at a time, then the strict lower entries of every factor, one
    factor at a time; the factors are assembled from those draws afterwards.
    """
    m = 1 if size is None else int(size)
    K = _bartlett_factors(_bartlett_draws(rng.generator, n, N, m))
    return K[0] if size is None else K


def _scale_factor(sigma, cone):
    """The Cholesky factor of the self-adjoint part of sigma (the matrix
    that validate and the densities read) in the leading orientation of the
    cone: of that part itself (LPM) or of its reversal (TPM)."""
    sigma = symmetrize(np.asarray(sigma, dtype=float))
    return np.linalg.cholesky(reverse_matrix(sigma) if cone == TPM else sigma)


def _wishart_factors(L0, draws, cone):
    """Cone factors of Bartlett draws with scale factor L0: L0 K, reversed in
    the TPM cone."""
    F = L0 @ _bartlett_factors(draws)
    return reverse_matrix(F) if cone == TPM else F


def wishart_factors(rng, spec, size=None):
    """Cone factors of Wishart draws against the canonical basis of the cone.

    A leading-minor draw is L0 K D K^T L0^T with L0 the classical Cholesky
    factor of the self-adjoint part of sigma, so its factor is L0 K;
    trailing-minor draws are the reversals of leading-minor draws with the
    reversed scale.
    """
    spec.validate()
    m = 1 if size is None else int(size)
    draws = _bartlett_draws(rng.generator, spec.dim, spec.dof, m)
    F = _wishart_factors(_scale_factor(spec.sigma, spec.cone), draws, spec.cone)
    return F[0] if size is None else F


def wishart_sample(rng, spec, size=None):
    """Signed-Bartlett Wishart draw(s) as cone points."""
    F = wishart_factors(rng, spec, size=1 if size is None else size)
    return _cone_points(F, as_pattern(spec.pattern), spec.cone, size)


def _multigammaln(a, d):
    """log Gamma_d(a), the multivariate gamma function, for a > (d - 1) / 2."""
    return (d * (d - 1) / 4.0 * math.log(math.pi)
            + sum(math.lgamma(a - j / 2.0) for j in range(d)))


def _density_arrays(spec):
    """The array entries a validated spec's densities depend on."""
    if spec.kind == "cholesky_normal":
        return (spec.sigma_tilde, spec.m0.matrix)
    return (spec.sigma,)


def _given_pattern(spec):
    """A copy of the pattern, as given, that points must carry under spec."""
    return tuple(spec.m0.pattern if spec.kind == "cholesky_normal" else spec.pattern)


class _Law:
    """The spec-only part of the log-densities of one validated spec, from
    read-only copies of its array entries and of its pattern (given, and
    normalized once, here). Each other term is computed when a density first
    asks for it, after that density's point checks, and then kept; a term
    that raises is not kept, so it raises on every call."""

    def __init__(self, spec, entries):
        self.dof, self.m0, self.entries = spec.dof, spec.m0, entries
        self.given_pattern = _given_pattern(spec)
        self.pattern = as_pattern(self.given_pattern)

    @cached_property
    def scale(self):
        """(C, C^-1, log det sigma, log Gamma_n(N/2) + n N log(2) / 2), C the
        Cholesky factor of sigma."""
        try:
            C = np.linalg.cholesky(symmetrize(self.entries[0].astype(float)))
        except np.linalg.LinAlgError:
            raise SpecInvalid("sigma must be positive definite") from None
        n, N = C.shape[0], self.dof
        return (C, np.tril(np.linalg.inv(C)), 2.0 * float(np.sum(np.log(np.diagonal(C)))),
                _multigammaln(N / 2.0, n) + 0.5 * n * N * math.log(2.0))

    @cached_property
    def normal(self):
        """(coordinates of the centre, sigma_tilde^-1, normalising constant)
        of the Cholesky-normal density."""
        mean = eta(_factor(self.m0))
        St = symmetrize(self.entries[0].astype(float))
        sign, logdet = np.linalg.slogdet(St)
        if sign <= 0:
            raise SpecInvalid("density needs a positive definite sigma_tilde")
        return mean, np.linalg.inv(St), -0.5 * (logdet + mean.size * math.log(2.0 * math.pi))


def _prepared_law(spec):
    """spec's prepared law: the kept one while spec's array entries are bit
    for bit, and its pattern entry by entry, those it was prepared from, else
    a new one, made after spec.validate() and kept on spec (a spec that fails
    validation keeps nothing)."""
    if spec._law_cache is not None:
        entries, law = spec._law_cache
        if all(map(_same_entries, _density_arrays(spec), entries)) \
                and _given_pattern(spec) == law.given_pattern:
            return law
    spec.validate()
    entries = tuple(_read_only(np.array(a)) for a in _density_arrays(spec))
    law = _Law(spec, entries)
    object.__setattr__(spec, "_law_cache", (entries, law))
    return law


def _check_point_matches(M, spec, pattern):
    if M.cone != spec.cone or M.pattern != pattern:
        raise PatternMismatch(
            f"point is {M.cone}{M.pattern}, spec wants {spec.cone}{pattern}")


def _factor_logdet(L):
    """log det of L L* (or L* L): 2 sum log l_jj."""
    return 2.0 * float(np.log(L.diagonal().real).sum())


def _squared_norm(Y):
    """The squared Frobenius norm of Y."""
    return float(np.vdot(Y, Y).real)


def wishart_log_density(M, spec):
    """Log-density of the transferred Wishart at the cone point M.

    The transfer rides the factorization: the density at L D L* is the
    classical Wishart density at W = L L^T (L^T L in the TPM cone). With C
    the Cholesky factor of sigma, tr(sigma^-1 W) is ||C^-1 L||^2 (LPM) or
    ||C^-1 L^T||^2 (TPM).
    """
    law = _prepared_law(spec)
    _check_point_matches(M, spec, law.pattern)
    L = _factor(M)
    _, C_inv, sigma_logdet, gamma = law.scale
    n, N = L.shape[0], spec.dof
    Y = C_inv @ (L if M.cone == LPM else L.T)
    return float(0.5 * (N - n - 1) * _factor_logdet(L) - 0.5 * _squared_norm(Y)
                 - gamma - 0.5 * N * sigma_logdet)


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


def _normal_draws(g, spec, m, out=None):
    """The generator call of m Cholesky-normal draws: an (m, n(n+1)/2)
    standard normal array, filled into out when it is given."""
    n = spec.m0.dim
    shape = (m, n * (n + 1) // 2)
    z = np.empty(shape) if out is None else out.reshape(shape)
    g.standard_normal(out=z)
    return z


def _normal_affine(spec):
    """(coordinates of the centre, PSD square root A of sigma_tilde): the
    spec-only part of turning standard normals z into draws mean + z A^T."""
    return eta(_factor(spec.m0)), _psd_sqrt(spec.sigma_tilde)


def _normal_etas(affine, z, out=None):
    """The draws mean + z A^T of standard normals z, (mean, A) = affine, into
    out when it is given."""
    mean, A = affine
    out = np.matmul(z, A.T, out=out)
    out += mean
    return out


def cholesky_normal_etas(rng, spec, size=None):
    """Linear-coordinate draws: normal around the coordinates of the centre."""
    spec.validate()
    affine = _normal_affine(spec)
    m = 1 if size is None else int(size)
    draws = _normal_etas(affine, _normal_draws(rng.generator, spec, m))
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
    law = _prepared_law(spec)
    _check_point_matches(M, spec, law.pattern)
    L = _factor(M)
    v = eta(L)
    mean, St_inv, const = law.normal
    diff = v - mean
    out = -0.5 * float(diff @ St_inv @ diff) + const
    if measure == "lebesgue":
        # d(matrix)/d(coords) = dPhi/dL times dL/d(coords); the latter only
        # rescales the diagonal rows by l_jj.
        out -= jacobian_logdet(L) + float(np.sum(np.log(np.diagonal(L))))
    elif measure != "eta":
        raise ValueError(f"measure must be 'eta' or 'lebesgue', got {measure!r}")
    return float(out)


def inverse_wishart_sample(rng, spec, size=None):
    """Draw(s) from the inverse of a transferred Wishart.

    Inverts Wishart draws with scale the inverse of the self-adjoint part of
    sigma, on the cone with the reversed pattern and kind, so the results
    land in spec's cone and pattern.
    """
    spec.validate()
    cone = LPM if spec.cone == TPM else TPM
    pattern = reverse_pattern(spec.pattern)
    L0 = _scale_factor(np.linalg.inv(symmetrize(np.asarray(spec.sigma, dtype=float))), cone)
    draws = _bartlett_draws(rng.generator, spec.dim, spec.dof, 1 if size is None else int(size))
    M = _inverse(_cone_matrices(_wishart_factors(L0, draws, cone), pattern, cone))
    return _as_points(M, as_pattern(spec.pattern), spec.cone, size)


def inverse_wishart_log_density(X, spec):
    """Log-density of the transferred inverse Wishart at X.

    sigma plays the role of the inverse-Wishart scale: the law of M^{-1}
    when M is Wishart with scale sigma^{-1}. At W = L L^T (L^T L in the TPM
    cone), with C the Cholesky factor of sigma, tr(sigma W^-1) is
    ||L^-1 C||^2 (LPM) or ||L^-T C||^2 (TPM).
    """
    law = _prepared_law(spec)
    _check_point_matches(X, spec, law.pattern)
    L = _factor(X)
    C, _, sigma_logdet, gamma = law.scale
    n, N = L.shape[0], spec.dof
    Y = np.linalg.solve(L if X.cone == LPM else L.T, C)
    return float(0.5 * N * sigma_logdet - gamma
                 - 0.5 * (N + n + 1) * _factor_logdet(L) - 0.5 * _squared_norm(Y))


def _clone_ranks(g, spec, m):
    """The generator call of m inertial-clone patterns: their positions among
    the patterns the clone mixes over (all_patterns(n), or
    cones_with_inertia(n, k)), from one integers(count) call. A count beyond
    the int64 range raises SpecInvalid before any draw."""
    n = spec.base.dim
    count = 2**n if spec.all_cones else math.comb(n, spec.k)
    if count > np.iinfo(np.int64).max:
        raise SpecInvalid(f"{count} clone patterns at n={n} exceed the int64 range")
    return g.integers(count, size=m)


def _clone_patterns(spec, ranks):
    """The (m, n) int array of the clone patterns at positions ranks."""
    return _unrank_patterns(ranks, spec.base.dim, None if spec.all_cones else spec.k)


def inertial_clone_sample(rng, spec, size=None):
    """PD base draws pushed to a uniformly random cone of fixed inertia."""
    spec.validate()
    g, m = rng.generator, 1 if size is None else int(size)
    patterns = _clone_patterns(spec, _clone_ranks(g, spec, m))
    draws = _bartlett_draws(g, spec.base.dim, spec.base.dof, m)
    F = _wishart_factors(_scale_factor(spec.base.sigma, spec.base.cone), draws, spec.base.cone)
    return _cone_points(F, patterns, spec.cone, size)
