"""Random matrices on signed minor cones.

Samplers and log-densities for the transferred Wishart family (signed
Bartlett construction), the Cholesky-normal law, the inverse Wishart, and
inertial cloning. All densities are computed in log space; all draws are
reproducible from an explicit seeded stream.

Each kind of DistributionSpec has one law class, found through the table
_LAWS from kind to class: _Wishart, _InverseWishart, _CholeskyNormal and
_Clone. The class owns the kind's validation (DistributionSpec.validate and
dim dispatch to it), and its instance, the law of one validated spec, owns
what the samplers, densities and walk steps compute from that spec:

- draws(g, m, out): the law's generator calls, in stream order, into plain
  arrays (the chi-square and normal draws of Bartlett factors, the standard
  normals of the Cholesky-normal law, the pattern positions of a clone),
  filled into out when it is given;
- the arithmetic, which reads no stream: from draws to an (m, n, n) stack
  of factors (factors: L0 K, their inverses for the inverse Wishart, eta_inv
  of the coordinates etas, or the base law's for a clone) and their
  patterns (patterns); to a walk step's coordinate increments and patterns
  (increments; the Wishart law makes them one block of paths at a time);
  and, in _SpecLaw alone, to cone points (points): the stack composed
  against the patterns' canonical bases in one batched congruence;
- log_density(M): the per-point part of a density. It reads the factor L
  of M against its canonical basis (cone_factor), which the point keeps
  after the first read: log det is 2 sum log l_jj, and the trace term is a
  squared Frobenius norm in the leading orientation of the cone.

A spec's law is made by the first call that needs it (_law): the spec is
validated, and the law is kept on the spec against read-only copies of the
entries of sigma (the base's, for a clone), sigma_tilde and m0.matrix, and
of the pattern as given (m0.pattern for the Cholesky-normal law, the
base's for a clone). Its spec-only terms (the one scale factor of sigma
that a Wishart law's draws and densities share, the inverse Wishart's
factor of the inverse of sigma for its draws, the inverse and normalising
constant of a density, the coordinates of the centre and the PSD square
root of sigma_tilde) are computed when first asked for and then kept.
After an in-place edit of any of those arrays or of the pattern, the next
call validates the spec and makes its law again; a spec that fails
validation keeps nothing. A function named after a kind raises
SpecInvalid for a spec of another kind before any draw or arithmetic.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import (
    LPM,
    TPM,
    ConePoint,
    _check_finite,
    _lower_inverse,
    _opposite,
    _orient,
    _read_only,
    _same_entries,
    _unrank_patterns,
    as_pattern,
    symmetrize,
)
from .cholesky import _check_lower, _cone_points, _factor
from .geometry import _eta, _from_rows, _real, eta, eta_inv
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

    Each kind has one law class (see the module docstring). validate and
    dim dispatch to it: an unknown kind or cone, a missing field, a NaN or
    infinite entry of sigma or sigma_tilde (NonFiniteInput) or a parameter
    out of its range (a NaN or infinite dof included) raises. The samplers,
    densities and walk steps use the spec's law, which the spec keeps after
    its first use. It is used only while sigma (the base's, for a clone),
    sigma_tilde and m0.matrix hold exactly the entries it was made from, and
    the pattern (m0.pattern for cholesky_normal, the base's for a clone) the
    signs it was made from.

    Specs compare by identity, as cone points do.
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
    # The law, which holds read-only copies of the arrays it was made from
    # (its class's parts); None until the law is first used.
    _law_cache: "_SpecLaw" = field(default=None, init=False, repr=False, compare=False)

    @property
    def dim(self):
        """The matrix size n; SpecInvalid when a field the law needs is missing."""
        return np.asarray(_law_class(self).parts(self)[0][0]).shape[0]

    def validate(self):
        if self.cone not in (LPM, TPM):
            raise SpecInvalid(f"cone must be {LPM!r} or {TPM!r}, got {self.cone!r}")
        _law_class(self).validate(self)
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


def _bartlett_factors(draws):
    """The (m, n, n) Bartlett factors of (chi, z) draws: sqrt chi on the
    diagonal, z below it row by row, zero above; assembled from one
    [sqrt chi | z | 0] row per factor, as eta_inv assembles its coordinates."""
    chi, z = draws
    n, (m, r) = chi.shape[0], z.shape
    row = np.zeros((m, n + r + 1))
    for j in range(n):
        np.sqrt(chi[j], out=row[:, j])
    row[:, n:n + r] = z
    return _from_rows(row, n)


def _drawn(draw, size):
    """draw(m) of m = size draws, or the first of draw(1) when size is None:
    the one-draw rule of every sampler."""
    out = draw(1 if size is None else int(size))
    return out[0] if size is None else out


def bartlett_sample(rng, n, N, size=None):
    """Lower triangular K with chi diagonals and standard normal lower entries.

    Diagonal entry j (1-based) is the square root of a chi-square draw with
    N - j + 1 degrees of freedom, so K K^T is Wishart with identity scale.
    The stream is read as the chi-square draws of every factor, one diagonal
    entry at a time, then the strict lower entries of every factor, one
    factor at a time; the factors are assembled from those draws afterwards.
    """
    return _drawn(lambda m: _bartlett_factors(_bartlett_draws(rng.generator, n, N, m)), size)


def _multigammaln(a, d):
    """log Gamma_d(a), the multivariate gamma function, for a > (d - 1) / 2."""
    return (d * (d - 1) / 4.0 * math.log(math.pi)
            + sum(math.lgamma(a - j / 2.0) for j in range(d)))


def _factor_logdet(L):
    """log det of L L* (or L* L): 2 sum log l_jj."""
    return 2.0 * float(np.log(L.diagonal().real).sum())


def _squared_norm(Y):
    """The squared Frobenius norm of Y."""
    return float(np.vdot(Y, Y).real)


# Factor entries per block of paths in a walk step's Wishart arithmetic: the
# block's (paths, n, n) temporaries stay near 1 MB, whatever the path count.
# With one block per step, the walk-mc benchmark on a 2-core x86-64 host ran
# 19 % fewer tasks per second and peaked 15 % higher in resident memory.
_BLOCK_ENTRIES = 1 << 17


class _SpecLaw:
    """The law of one validated spec, from read-only copies of the arrays
    its class's parts names (entries) and of its pattern as given. Each
    spec-only term is a cached_property: computed when first asked for (by a
    density, after its point checks) and then kept; a term that raises is
    not kept, so it raises on every call."""

    def __init__(self, spec, entries, given_pattern):
        self.spec, self.entries, self.given_pattern = spec, entries, given_pattern
        self.cone, self.n, self.dof = spec.cone, spec.dim, spec.dof
        self.pattern = as_pattern(given_pattern)

    def sample(self, rng, size):
        """Cone point(s) of size draws; one point when size is None."""
        return _drawn(lambda m: self.points(self.draws(rng.generator, m)), size)

    def points(self, draws):
        """The cone points of draws, composed from their factors and patterns."""
        return _cone_points(self.factors(draws), self.patterns(draws), self.cone)

    def patterns(self, draws):
        """The pattern of every draw: the law's own."""
        return self.pattern

    def factor_of(self, M):
        """The factor of M (see cone_factor); PatternMismatch unless M is in
        the law's cone and pattern."""
        if M.cone != self.cone or M.pattern != self.pattern:
            raise PatternMismatch(
                f"point is {M.cone}{M.pattern}, spec wants {self.cone}{self.pattern}")
        return _factor(M)


class _Wishart(_SpecLaw):
    """The transferred Wishart law: Bartlett draws K, cone factors L0 K
    (reversed in the TPM cone), L0 the scale factor."""

    kind = "wishart"

    @staticmethod
    def parts(spec):
        """(the arrays the law reads, the first n x n; its pattern as given),
        or SpecInvalid when a field the law needs is missing."""
        if spec.sigma is None or spec.dof is None or spec.pattern is None:
            raise SpecInvalid(f"{spec.kind} needs sigma, dof, and pattern")
        return (spec.sigma,), spec.pattern

    @staticmethod
    def validate(spec):
        n = spec.dim
        sigma = np.asarray(spec.sigma, dtype=float)
        if len(as_pattern(spec.pattern)) != n:
            raise SpecInvalid("pattern length does not match sigma")
        if not math.isfinite(spec.dof):
            raise SpecInvalid(f"dof must be finite, got {spec.dof}")
        if spec.dof < n:
            raise SpecInvalid(f"dof {spec.dof} below dimension {n}")
        _check_finite(sigma)
        if np.any(np.linalg.eigvalsh(symmetrize(sigma)) <= 0):
            raise SpecInvalid("sigma must be positive definite")

    @cached_property
    def scale(self):
        """(L0, L0^-1, log det sigma, log Gamma_n(N/2) + n N log(2) / 2), L0 the
        Cholesky factor of sigma oriented as the law's cone (core._orient)."""
        try:
            L0 = np.linalg.cholesky(_orient(symmetrize(self.entries[0].astype(float)), self.cone))
        except np.linalg.LinAlgError:
            raise SpecInvalid("sigma must be positive definite") from None
        n, N = L0.shape[0], self.dof
        return (L0, _lower_inverse(L0), _factor_logdet(L0),
                _multigammaln(N / 2.0, n) + 0.5 * n * N * math.log(2.0))

    @cached_property
    def forward(self):
        """(the cone of the Bartlett draws' factors, their scale factor L0)."""
        return self.cone, self.scale[0]

    def draws(self, g, m, out=None):
        return _bartlett_draws(g, self.n, self.dof, m, out)

    def factors(self, draws):
        """The cone factors L0 K of Bartlett draws K, reversed in the TPM cone."""
        cone, L0 = self.forward
        return _orient(L0 @ _bartlett_factors(draws), cone)

    def increments(self, draws, out=None):
        chi, z = draws
        n, paths = chi.shape
        out = np.empty((paths, n * (n + 1) // 2)) if out is None else out
        block = max(1, _BLOCK_ENTRIES // (n * n))
        for a in range(0, paths, block):
            _eta(self.factors((chi[:, a:a + block], z[a:a + block])), out[a:a + block])
        return out, np.array(self.pattern, dtype=int)

    @staticmethod
    def check_measure(measure):
        """The Wishart densities are against the Lebesgue measure: measure
        None or 'lebesgue'; any other raises ValueError."""
        if measure not in (None, "lebesgue"):
            raise ValueError(f"the Wishart densities are against the Lebesgue measure; "
                             f"got measure {measure!r}")

    def log_density(self, M, measure=None):
        """See wishart_log_density and check_measure."""
        self.check_measure(measure)
        L = self.factor_of(M)
        _, L0_inv, sigma_logdet, gamma = self.scale
        n, N = L.shape[0], self.dof
        Y = L0_inv @ _orient(L, self.cone)
        return float(0.5 * (N - n - 1) * _factor_logdet(L) - 0.5 * _squared_norm(Y)
                     - gamma - 0.5 * N * sigma_logdet)


class _InverseWishart(_Wishart):
    """The transferred inverse Wishart: the inverses of Wishart draws of the
    reversed cone and pattern. A walk cannot take it."""

    kind = "inverse_wishart"
    increments = None  # no walk step

    @cached_property
    def forward(self):
        """(the reversed cone, the factor of the inverse of sigma in it)."""
        cone = _opposite(self.cone)
        inverse = np.linalg.inv(symmetrize(self.entries[0].astype(float)))
        return cone, np.linalg.cholesky(_orient(symmetrize(inverse), cone))

    def factors(self, draws):
        """The inverses of the Wishart draws F D F* (F* D F in the TPM cone)
        of the reversed cone and pattern are F^{-*} D F^{-1} (F^{-1} D F^{-*}),
        so F^{-1} is their factor in the law's own cone and pattern, whose
        canonical signs are those of the reversed pattern read backwards."""
        return _lower_inverse(super().factors(draws))

    def log_density(self, X, measure=None):
        """See inverse_wishart_log_density and check_measure."""
        self.check_measure(measure)
        L = self.factor_of(X)
        L0, _, sigma_logdet, gamma = self.scale
        n, N = L.shape[0], self.dof
        Y = np.linalg.solve(_orient(L, self.cone), L0)
        return float(0.5 * N * sigma_logdet - gamma
                     - 0.5 * (N + n + 1) * _factor_logdet(L) - 0.5 * _squared_norm(Y))


class _CholeskyNormal(_SpecLaw):
    """The Cholesky-normal law: standard normals z, coordinates mean + z A^T
    with mean the coordinates of the centre and A the PSD square root of
    sigma_tilde."""

    kind = "cholesky_normal"

    @staticmethod
    def parts(spec):
        if spec.m0 is None or spec.sigma_tilde is None:
            raise SpecInvalid("cholesky_normal needs m0 and sigma_tilde")
        return (spec.m0.matrix, spec.sigma_tilde), spec.m0.pattern

    @staticmethod
    def validate(spec):
        n = spec.dim
        m = n * (n + 1) // 2
        st = np.asarray(spec.sigma_tilde, dtype=float)
        if st.shape != (m, m):
            raise SpecInvalid(f"sigma_tilde must be {m}x{m}, got {st.shape}")
        _check_finite(st)
        if np.any(np.linalg.eigvalsh(symmetrize(st)) < -1e-12):
            raise SpecInvalid("sigma_tilde must be positive semidefinite")

    @cached_property
    def mean(self):
        return eta(_factor(self.spec.m0))

    @cached_property
    def root(self):
        w, U = np.linalg.eigh(symmetrize(np.asarray(self.entries[1], dtype=float)))
        return U * np.sqrt(np.clip(w, 0.0, None))

    @cached_property
    def normal(self):
        """(sigma_tilde^-1, normalising constant) of the density."""
        St = symmetrize(self.entries[1].astype(float))
        sign, logdet = np.linalg.slogdet(St)
        if sign <= 0:
            raise SpecInvalid("density needs a positive definite sigma_tilde")
        return np.linalg.inv(St), -0.5 * (logdet + len(St) * math.log(2.0 * math.pi))

    def draws(self, g, m, out=None):
        shape = (m, self.n * (self.n + 1) // 2)
        return g.standard_normal(out=np.empty(shape) if out is None else out.reshape(shape))

    def etas(self, z, out=None):
        """The coordinates mean + z A^T of standard normals z, into out when
        it is given."""
        out = np.matmul(z, self.root.T, out=out)
        return np.add(out, self.mean, out=out)

    def factors(self, z):
        """The factors of the coordinates of standard normals z."""
        return eta_inv(self.etas(z))

    def increments(self, z, out=None):
        return self.etas(z, out), np.array(self.pattern, dtype=int)

    def log_density(self, M, measure=None):
        """See cholesky_normal_log_density; measure None is 'eta'."""
        L = self.factor_of(M)
        diff = _eta(_real(L)) - self.mean  # L is a factor the library made
        St_inv, const = self.normal
        out = -0.5 * float(diff @ St_inv @ diff) + const
        if measure == "lebesgue":
            # d(matrix)/d(coords) = dPhi/dL times dL/d(coords); the latter only
            # rescales the diagonal rows by l_jj.
            out -= jacobian_logdet(L) + float(np.sum(np.log(np.diagonal(L))))
        elif measure not in (None, "eta"):
            raise ValueError(f"measure must be 'eta' or 'lebesgue', got {measure!r}")
        return float(out)


class _Clone(_SpecLaw):
    """Inertial cloning: draws of the PD-supported Wishart base law pushed
    to uniformly drawn patterns of the target inertia (or of any inertia).
    Its draws are the pattern positions, then the base law's draws."""

    kind = "inertial_clone"

    @staticmethod
    def parts(spec):
        if spec.base is None or spec.base.kind != "wishart":
            raise SpecInvalid("inertial_clone needs a wishart base spec")
        return _Wishart.parts(spec.base)

    @staticmethod
    def validate(spec):
        n = spec.dim
        spec.base.validate()
        if any(s != 1 for s in as_pattern(spec.base.pattern)):
            raise SpecInvalid("inertial_clone base must be PD-supported")
        if not spec.all_cones and (spec.k is None or not 0 <= spec.k <= n):
            raise SpecInvalid(f"need 0 <= k <= n, got k={spec.k}")

    def __init__(self, spec, entries, given_pattern):
        super().__init__(spec, entries, given_pattern)
        self.base = _Wishart(spec.base, entries, given_pattern)

    def draws(self, g, m, out=None):
        return _clone_ranks(g, self.spec, m), self.base.draws(g, m, out)

    def factors(self, draws):
        return self.base.factors(draws[1])

    def patterns(self, draws):
        """The drawn pattern of every draw, one row each."""
        return _clone_patterns(self.spec, draws[0])

    def increments(self, draws, out=None):
        return self.base.increments(draws[1], out)[0], self.patterns(draws)

    def log_density(self, M, measure=None):
        raise SpecInvalid("no density for inertial clones; use the base law")


_LAWS = {law.kind: law for law in (_Wishart, _InverseWishart, _CholeskyNormal, _Clone)}


def _law_class(spec):
    """The law class of spec's kind."""
    law = _LAWS.get(spec.kind)
    if law is None:
        raise SpecInvalid(f"unknown distribution kind {spec.kind!r}")
    return law


def _law(spec, cls=None):
    """spec's law: the kept one while spec's arrays are bit for bit, and its
    pattern entry by entry, those it was made from, else a new one, made
    after spec.validate() and kept on spec (a spec that fails validation
    keeps nothing). With cls, a spec of another kind raises SpecInvalid
    first."""
    kind = _law_class(spec)
    if cls is not None and kind is not cls:
        raise SpecInvalid(f"need a {cls.kind} spec, got kind {spec.kind!r}")
    arrays, given = kind.parts(spec)
    law = spec._law_cache
    if law is None or tuple(given) != law.given_pattern \
            or not all(map(_same_entries, arrays, law.entries)):
        spec.validate()
        law = kind(spec, tuple(_read_only(np.array(a)) for a in arrays), tuple(given))
        object.__setattr__(spec, "_law_cache", law)
    return law


def wishart_factors(rng, spec, size=None):
    """Cone factors of Wishart draws against the canonical basis of the cone.

    A leading-minor draw is L0 K D K^T L0^T with L0 the classical Cholesky
    factor of the self-adjoint part of sigma, so its factor is L0 K;
    trailing-minor draws are the reversals of leading-minor draws with the
    reversed scale.
    """
    law = _law(spec, _Wishart)
    return _drawn(lambda m: law.factors(law.draws(rng.generator, m)), size)


def wishart_sample(rng, spec, size=None):
    """Signed-Bartlett Wishart draw(s) as cone points."""
    return _law(spec, _Wishart).sample(rng, size)


def wishart_log_density(M, spec):
    """Log-density of the transferred Wishart at the cone point M.

    The transfer rides the factorization: the density at L D L* is the
    classical Wishart density at W = L L^T (L^T L in the TPM cone). With R
    the identity (LPM) or the reversal (TPM) and L0 the Cholesky factor of
    R(sigma), tr(sigma^-1 W) is ||L0^-1 R(L)||^2 and det sigma is
    (det L0)^2.
    """
    return _law(spec, _Wishart).log_density(M)


def jacobian_logdet(L, eps=None):
    """log |det| of the differential of L -> L D_eps L^T at L.

    Equals n log 2 + sum_j (n+1-j) log l_jj, independent of the pattern.
    ValueError, as from eta, unless L is a factor.
    """
    d = np.diagonal(_check_lower(L)).real
    n = d.size
    weights = np.arange(n, 0, -1)
    return float(n * np.log(2.0) + np.sum(weights * np.log(d)))


def cholesky_normal_etas(rng, spec, size=None):
    """Linear-coordinate draws: normal around the coordinates of the centre."""
    law = _law(spec, _CholeskyNormal)
    return _drawn(lambda m: law.etas(law.draws(rng.generator, m)), size)


def cholesky_normal_sample(rng, spec, size=None):
    """Cone point(s) whose factor coordinates are multivariate normal."""
    return _law(spec, _CholeskyNormal).sample(rng, size)


def cholesky_normal_log_density(M, spec, measure="eta"):
    """Log-density of the Cholesky-normal law at M.

    With measure='eta' (the definition) the density lives on the linear
    coordinates of the factor; measure='lebesgue' re-expresses it against the
    flat measure on symmetric matrices by subtracting the full log-Jacobian
    of coordinates -> matrix.
    """
    return _law(spec, _CholeskyNormal).log_density(M, measure)


def inverse_wishart_sample(rng, spec, size=None):
    """Draw(s) from the inverse of a transferred Wishart.

    Inverts Wishart draws with scale the inverse of the self-adjoint part of
    sigma, on the cone with the reversed pattern and kind, so the results
    land in spec's cone and pattern. The inverse of a draw F D F* (F* D F
    in the TPM cone) is composed from F^{-1}, its factor in spec's cone, so
    each draw is invert_cone_point of the forward draw composed from F, bit
    for bit; no matrix is inverted.
    """
    return _law(spec, _InverseWishart).sample(rng, size)


def inverse_wishart_log_density(X, spec):
    """Log-density of the transferred inverse Wishart at X.

    sigma plays the role of the inverse-Wishart scale: the law of M^{-1}
    when M is Wishart with scale sigma^{-1}. At W = L L^T (L^T L in the TPM
    cone), with R and L0 as in wishart_log_density, tr(sigma W^-1) is
    ||R(L)^-1 L0||^2.
    """
    return _law(spec, _InverseWishart).log_density(X)


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
    return _law(spec, _Clone).sample(rng, size)
