"""Log-Cholesky geometry and abelian group structure.

The Cholesky space of lower triangular matrices with positive diagonal is
a flat Riemannian manifold and an abelian group. Its chart ``eta`` (the
log-diagonal, then the strict-lower entries row by row) is an isometric
isomorphism onto Euclidean space, so every operation here is arithmetic on
eta coordinates, mapped back by the inverse chart: the group operation adds
coordinates, the inverse negates them, ``scalar_mul`` scales them,
geodesics are straight lines, the metric is the dot product of tangent
coordinates and the barycentre is their mean. Everything transfers to each
signed minor cone through the factorization maps, making each cone an
isometric copy of the Cholesky space.

The functions of the Cholesky space check their factor arguments: one that
is not a factor raises eta's ValueError, factors of two sizes and a tangent
of another shape GroupMismatch, a pattern of another length PatternMismatch
and a NaN or infinite time or power NonFiniteInput; the entries of tangents
are not checked. eta_inv raises NonFiniteInput for coordinates that map to
no finite factor with a positive diagonal. The functions of cone points
read the points' factors, which the library made, unchecked, and build
their results from the factors they make (cholesky._built_point) without
cone_compose's edge checks and copy: those factors are valid by
construction.
Coordinates follow the factor's dtype, so the group operations and
geodesics also run on complex Hermitian points and factors; ``eta``,
``distance``, ``lpm_distance`` and ``log_cholesky_mean`` are real and raise
ComplexFactor for a factor with a nonzero imaginary part.
"""

import math
from functools import lru_cache

import numpy as np

from .core import LPM, _check_hermitian, _lower_inverse, _opposite, _read_only, \
    as_pattern, canonical_diagonal, reverse_matrix, symmetrize
from .cholesky import _built_point, _check_lower, _check_same_cone, _factor
from .errors import ComplexFactor, GroupMismatch, NonFiniteInput, PatternMismatch

__all__ = [
    "group_op", "group_inv", "scalar_mul", "eta", "eta_inv",
    "distance", "metric_tensor", "geodesic", "geodesic_between",
    "differential", "differential_inv",
    "lpm_distance", "lpm_geodesic", "star_op", "star_inv",
    "log_cholesky_mean", "klein_apply", "KLEIN_MAPS",
]


def _checked(L):
    """A factor argument, checked (eta's ValueError), as a float or complex array."""
    L = _check_lower(L)
    return L if L.dtype.kind in "fc" else L.astype(float)


def _checked_pair(L, K):
    """Two factor arguments, checked; GroupMismatch when their sizes differ."""
    L, K = _checked(L), _checked(K)
    if L.shape != K.shape:
        raise GroupMismatch(f"dimensions differ: {L.shape[-1]} vs {K.shape[-1]}")
    return L, K


def _finite(t, name):
    """t, unchanged; NonFiniteInput when it is NaN or infinite."""
    if not math.isfinite(t):
        raise NonFiniteInput(f"{name} must be finite, got {t}")
    return t


def group_op(L, K):
    """L (.) K = eta_inv(eta(L) + eta(K)): strict-lower parts add, diagonals
    multiply. Abelian, identity Id."""
    L, K = _checked_pair(L, K)
    return _eta_inv(_eta(L) + _eta(K))


def group_inv(L):
    """eta_inv(-eta(L)): the strict-lower part negated, the diagonal inverted."""
    return _eta_inv(-_eta(_checked(L)))


def scalar_mul(alpha, L):
    """alpha . L = eta_inv(alpha eta(L)): the strict-lower part scaled, the
    diagonal raised to alpha."""
    return _eta_inv(_finite(float(alpha), "alpha") * _eta(_checked(L)))


def eta(L):
    """Linear coordinates (log-diagonal block; strict-lower block, row-major).

    A stack of factors gives one row per factor. The chart is real: a factor
    with a nonzero imaginary part raises ComplexFactor, and one that is not
    lower triangular with a positive diagonal ValueError.
    """
    L = _real(L)
    return _eta(_check_lower(L, L.ndim))


def _real(L):
    """L as a float array; ComplexFactor when it has a nonzero imaginary part."""
    L = np.asarray(L)
    if np.iscomplexobj(L) and np.any(L.imag != 0):
        raise ComplexFactor("eta needs a real factor; complex scalars are "
                            "not supported by the log-Cholesky chart")
    return L.real.astype(float, copy=False)


def _eta(L, out=None):
    """eta of a factor or stack, unchecked and in its dtype (float or
    complex), into out when it is given: one take of the coordinates'
    entries, then an in-place log of the diagonal block."""
    n = L.shape[-1]
    v = L.reshape(L.shape[:-2] + (n * n,)).take(_eta_index(n), axis=-1, out=out, mode="clip")
    np.log(v[..., :n], out=v[..., :n])
    return v


@lru_cache
def _eta_index(n):
    """Flat positions, in an n x n factor, of its eta coordinates."""
    rows, cols = np.tril_indices(n, -1)
    return _read_only(np.concatenate([np.arange(n) * (n + 1), rows * n + cols]))


@lru_cache
def _factor_index(n):
    """The position of each entry of an n x n factor in a [diagonal | strict
    lower | 0] row of n(n+1)/2 + 1 entries, as an n x n array: _eta_index
    inverted, with the trailing zero above the diagonal."""
    m = n * (n + 1) // 2
    index = np.full(n * n, m)
    index[_eta_index(n)] = np.arange(m)
    return _read_only(index.reshape(n, n))


def _from_rows(rows, n):
    """The n x n factors of [diagonal | strict lower | 0] rows (the last axis),
    with one take."""
    return rows.take(_factor_index(n), axis=-1, mode="clip")


@lru_cache
def _dim_from_eta(m):
    n = int((np.sqrt(8 * m + 1) - 1) / 2)
    if n * (n + 1) != 2 * m:
        raise ValueError(f"vector length {m} is not triangular")
    return n


# The largest diagonal coordinate whose exponential is a finite float, and
# the smallest whose exponential does not underflow to 0 (half the smallest
# subnormal rounds to 0).
_LOG_MAX = math.log(np.finfo(float).max)
_LOG_MIN = math.log(np.finfo(float).smallest_subnormal) - math.log(2)


def eta_inv(v):
    """The factor of eta coordinates v, or the stack of one factor per row.
    NonFiniteInput unless every coordinate is finite and the exponential of
    every diagonal one finite and nonzero: a factor's entries are finite and
    its diagonal positive."""
    v = np.asarray(v, dtype=float)
    diagonal = v[..., :_dim_from_eta(v.shape[-1])]
    if not (np.isfinite(v).all() and diagonal.max(initial=-math.inf) <= _LOG_MAX
            and diagonal.min(initial=math.inf) >= _LOG_MIN):
        raise NonFiniteInput("eta coordinates must be finite, and the exponentials of "
                             "the diagonal ones finite and nonzero")
    return _eta_inv(v)


def _eta_inv(v):
    """eta_inv of a float or complex array, in its dtype."""
    m = v.shape[-1]
    n = _dim_from_eta(m)
    rows = np.zeros(v.shape[:-1] + (m + 1,), v.dtype)
    np.exp(v[..., :n], out=rows[..., :n])
    rows[..., n:m] = v[..., n:]
    return _from_rows(rows, n)


def distance(L, K):
    """Geodesic distance: Euclidean norm of the eta-coordinate difference."""
    v, w = eta(L), eta(K)
    if v.shape[-1] != w.shape[-1]:
        raise GroupMismatch(f"dimensions differ: {np.shape(L)[-1]} vs {np.shape(K)[-1]}")
    return float(np.linalg.norm(v - w))


def _factor_distance(L, K):
    """distance of two factors of one size that the library made or checked:
    unchecked, but ComplexFactor as eta for a complex one."""
    return float(np.linalg.norm(_eta(_real(L)) - _eta(_real(K))))


def _tangent(L, X):
    """The eta coordinates of a tangent X at the factor L, the image of X
    under the differential of eta: X's diagonal divided by L's, then X's
    strict-lower entries. GroupMismatch when X is not of L's shape."""
    X = _checked_tangent(L, X)
    d = L.diagonal()
    x = X.take(_eta_index(len(d)))
    return np.concatenate((x[:len(d)] / d, x[len(d):]))


def _checked_tangent(L, X):
    """X as an array; GroupMismatch when it is not of the factor L's shape."""
    X = np.asarray(X)
    if X.shape != L.shape:
        raise GroupMismatch(f"tangent shape {X.shape} != factor shape {L.shape}")
    return X


def metric_tensor(L, X, Y):
    """g_L(X, Y): the dot product of the tangent coordinates of X and Y at L,
    sum of strict-lower products + diagonal products / l_jj^2."""
    L = _checked(L)
    return float(_tangent(L, X) @ _tangent(L, Y))


def geodesic(L, X, t):
    """Geodesic from L with initial velocity X, at time t: the line from eta(L)
    along the tangent coordinates of X.

    Strict-lower parts move linearly; the diagonal moves exponentially, so
    the result never leaves the space.
    """
    L = _checked(L)
    return _eta_inv(_eta(L) + _finite(t, "t") * _tangent(L, X))


def geodesic_between(L, K, t):
    """Unit-time geodesic from L to K, evaluated at t (t=0 -> L, t=1 -> K):
    the segment from eta(L) to eta(K)."""
    v, w = map(_eta, _checked_pair(L, K))
    return _eta_inv(v + _finite(t, "t") * (w - v))


def _checked_basis(L, eps):
    """(the factor argument L, checked, and canonical_diagonal(eps));
    PatternMismatch unless eps has L's length."""
    L, D = _check_lower(L), canonical_diagonal(eps)
    if len(D) != len(L):
        raise PatternMismatch(f"pattern length {len(D)} != dimension {len(L)}")
    return L, D


def differential(L, X, eps):
    """Pushforward of the tangent X under L -> L D_eps L*."""
    L, D = _checked_basis(L, eps)
    X = _checked_tangent(L, X)
    return symmetrize(L @ D @ X.conj().T + X @ D @ L.conj().T)


def differential_inv(L, W, eps):
    """Pullback of a self-adjoint perturbation W to a lower triangular tangent;
    ValueError when W is not self-adjoint (by leading_minors' relative test)."""
    L, D = _checked_basis(L, eps)
    W = _checked_tangent(L, W)
    _check_hermitian(W, "perturbation is not symmetric")
    X = _lower_inverse(L)
    Z = np.tril(X @ W @ X.conj().T)
    np.fill_diagonal(Z, Z.diagonal() / 2)
    return L @ Z @ D


def cone_factor(A):
    """Factor of A against the canonical basis of its cone, as a new array.

    A point built from a factor (cone_compose and the group operations,
    geodesics and means built on it) returns the factor it was built with;
    any other point derives it from its own LDL* on the first call and
    keeps it. A cached factor is used only while A.matrix holds exactly the
    entries it was cached against, so an in-place edit of A.matrix is never
    missed.
    """
    return np.array(_factor(A))


def cone_compose(L, pattern, cone=LPM):
    """Compose L against the canonical basis of the requested cone; the point
    keeps a copy of L as its factor.

    This is the edge for a factor from outside the library: L is checked
    once (eta's ValueError unless it is one lower triangular matrix with a
    positive diagonal), then the cone (ValueError unless it is LPM or TPM)
    and the pattern (ValueError, or PatternMismatch for one of another
    length), and the copy is float or complex.
    """
    L = _check_lower(L)
    _opposite(cone)
    return _built_point(L.astype(np.result_type(L, float)), as_pattern(pattern), cone)


def lpm_distance(A, B):
    """Distance between two cone points: the factor distance, by isometry."""
    _check_same_cone(A, B, A.cone)
    return _factor_distance(_factor(A), _factor(B))


def lpm_geodesic(A, B, t):
    """Geodesic between cone points, transferred through the factorization."""
    _check_same_cone(A, B, A.cone)
    _finite(t, "t")
    v, w = _eta(_factor(A)), _eta(_factor(B))
    return _built_point(_eta_inv(v + t * (w - v)), A.pattern, A.cone)


def star_op(A, B):
    """Per-cone abelian operation; the identity element is the canonical basis."""
    _check_same_cone(A, B, A.cone)
    return _built_point(_eta_inv(_eta(_factor(A)) + _eta(_factor(B))), A.pattern, A.cone)


def star_inv(A):
    return _built_point(_eta_inv(-_eta(_factor(A))), A.pattern, A.cone)


def log_cholesky_mean(points):
    """Barycentre of cone points: the eta-coordinate average of their factors.

    The manifold is flat, so the Frechet mean is the coordinate average; for
    two points this is the pairwise formula with arithmetic-mean strict-lower
    entries and geometric-mean diagonals.
    """
    points = list(points)
    if not points:
        raise ValueError("mean of an empty collection")
    first = points[0]
    for other in points[1:]:
        _check_same_cone(first, other, first.cone)
    coords = np.mean(_eta(_real(np.stack([_factor(A) for A in points]))), axis=0)
    return _built_point(_eta_inv(coords), first.pattern, first.cone)


KLEIN_MAPS = {
    "id": lambda L: np.asarray(L, dtype=float),
    "inv": group_inv,
    "rev": reverse_matrix,
    "rev_inv": lambda L: reverse_matrix(group_inv(L)),
}


def klein_apply(sigma, L):
    """One of the four commuting isometric automorphisms of the group; L is
    checked as eta checks a factor (ComplexFactor, then ValueError)."""
    try:
        apply = KLEIN_MAPS[sigma]
    except KeyError:
        raise ValueError(f"unknown automorphism {sigma!r}; "
                         f"choose from {sorted(KLEIN_MAPS)}") from None
    return apply(_check_lower(_real(L)))
