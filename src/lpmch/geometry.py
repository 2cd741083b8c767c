"""Log-Cholesky geometry and abelian group structure.

The Cholesky space of lower triangular matrices with positive diagonal is
a flat Riemannian manifold and an abelian group under ``group_op``; the
``eta`` map is a linear-coordinates chart that turns the group into a
vector space and the distance into the Euclidean norm. Everything
transfers to each signed minor cone through the factorization maps, making
each cone an isometric copy of the Cholesky space. Real scalars only.
Factor arguments that are not factors raise eta's ValueError; tangents are
not checked.
"""

from functools import lru_cache

import numpy as np

from .core import LPM, _cache_factor, _points, _read_only, _strict_lower_indices, \
    as_pattern, canonical_diagonal, reverse_matrix, symmetrize
from .cholesky import _check_lower, _check_same_cone, _cone_matrices, _factor
from .errors import ComplexFactor, GroupMismatch

__all__ = [
    "group_op", "group_inv", "scalar_mul", "eta", "eta_inv",
    "distance", "metric_tensor", "geodesic", "geodesic_between",
    "differential", "differential_inv",
    "lpm_distance", "lpm_geodesic", "star_op", "star_inv",
    "log_cholesky_mean", "klein_apply", "KLEIN_MAPS",
]


# The one-point helpers below compute what np.tril(L, -1), a copy of
# np.diagonal(L) and strict + np.diag(diag) compute, bit for bit and in the
# same memory order, with less overhead per call: _strict's mask is cached
# per shape, and _assemble writes the diagonal itself.

def _strict(L):
    L = np.asanyarray(L)
    return np.where(_strict_lower_mask(*L.shape[-2:]), L, np.zeros(1, L.dtype))


def _diag(L):
    return np.asanyarray(L).diagonal().copy()


def _assemble(strict, diag):
    n = diag.shape[0]
    D = np.zeros((n, n), diag.dtype)
    D.reshape(-1)[::n + 1] = diag
    return strict + D


@lru_cache
def _strict_lower_mask(rows, cols=None):
    """np.tri(rows, cols, -1, dtype=bool), read-only, computed once per shape."""
    return _read_only(np.tri(rows, cols, -1, dtype=bool))


# The star and box operations and lpm_geodesic pass the factors of cone
# points to the unchecked bodies: each check costs 3-5 us, a tenth to a
# fifth of a star_op at n = 10.

def group_op(L, K):
    """L (.) K: add strict-lower parts, multiply diagonals. Abelian, identity Id."""
    return _group_op(_check_lower(L), _check_lower(K))


def _group_op(L, K):
    return _assemble(_strict(L) + _strict(K), _diag(L) * _diag(K))


def group_inv(L):
    """Group inverse: negate the strict-lower part, invert the diagonal."""
    return _group_inv(_check_lower(L))


def _group_inv(L):
    return _assemble(-_strict(L), 1.0 / _diag(L))


def scalar_mul(alpha, L):
    """alpha . L: scale the strict-lower part, raise the diagonal to alpha."""
    L = _check_lower(L)
    return _assemble(alpha * _strict(L), _diag(L) ** float(alpha))


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
    """eta of a real factor or stack, into out when it is given: one take of
    the coordinates' entries, then an in-place log of the diagonal block."""
    n = L.shape[-1]
    v = np.take(L.reshape(L.shape[:-2] + (n * n,)), _eta_index(n), axis=-1,
                out=out, mode="clip")
    np.log(v[..., :n], out=v[..., :n])
    return v


@lru_cache
def _eta_index(n):
    """Flat positions, in an n x n factor, of its eta coordinates."""
    rows, cols = _strict_lower_indices(n)
    return _read_only(np.concatenate([np.arange(n) * (n + 1), rows * n + cols]))


def _dim_from_eta(m):
    n = int((np.sqrt(8 * m + 1) - 1) / 2)
    if n * (n + 1) != 2 * m:
        raise ValueError(f"vector length {m} is not triangular")
    return n


def eta_inv(v):
    v = np.asarray(v, dtype=float)
    n = _dim_from_eta(v.shape[-1])
    L = np.zeros(v.shape[:-1] + (n, n))
    L[..., np.arange(n), np.arange(n)] = np.exp(v[..., :n])
    rows, cols = _strict_lower_indices(n)
    L[..., rows, cols] = v[..., n:]
    return L


def distance(L, K):
    """Geodesic distance: Euclidean norm of the eta-coordinate difference."""
    v, w = eta(L), eta(K)
    if v.shape[-1] != w.shape[-1]:
        raise GroupMismatch(f"dimensions differ: {np.shape(L)[-1]} vs {np.shape(K)[-1]}")
    return float(np.linalg.norm(v - w))


def metric_tensor(L, X, Y):
    """g_L(X, Y) = sum of strict-lower products + diagonal products / l_jj^2."""
    L = _check_lower(L)
    low = float(np.sum(_strict(X) * _strict(Y)))
    return low + float(np.sum(_diag(X) * _diag(Y) / _diag(L) ** 2))


def geodesic(L, X, t):
    """Geodesic from L with initial velocity X, at time t.

    Strict-lower parts move linearly; the diagonal moves exponentially, so
    the result never leaves the space.
    """
    return _geodesic(_check_lower(L), X, t)


def _geodesic(L, X, t):
    dL, dX = _diag(L), _diag(X)
    return _assemble(_strict(L) + t * _strict(X), dL * np.exp(t * dX / dL))


def geodesic_between(L, K, t):
    """Unit-time geodesic from L to K, evaluated at t (t=0 -> L, t=1 -> K)."""
    return _geodesic_between(_check_lower(L), _check_lower(K), t)


def _geodesic_between(L, K, t):
    dL, dK = _diag(L), _diag(K)
    X = _assemble(_strict(K) - _strict(L), (np.log(dK) - np.log(dL)) * dL)
    return _geodesic(L, X, t)


def differential(L, X, eps):
    """Pushforward of the tangent X under L -> L D_eps L^T."""
    L = _check_lower(L)
    D = canonical_diagonal(eps)
    W = L @ D @ X.T + X @ D @ L.T
    return symmetrize(W)


def _half_lower(A):
    return _assemble(_strict(A), _diag(A) / 2)


def differential_inv(L, W, eps):
    """Pullback of a symmetric perturbation W to a lower triangular tangent."""
    L = _check_lower(L)
    D = canonical_diagonal(eps)
    Z = np.linalg.solve(L, np.linalg.solve(L, W).T).T
    return L @ _half_lower(Z) @ D


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


def _cone_points(F, patterns, cone, size):
    """The API edge of a factor stack: its cone points (see _cone_matrices
    and core._points), with one or per-factor patterns; the list, or its
    only point when size is None."""
    points = _points(_cone_matrices(F, patterns, cone), cone, patterns)
    return points[0] if size is None else points


def cone_compose(L, pattern, cone=LPM):
    """Compose L against the canonical basis of the requested cone; the point
    keeps a copy of L as its factor."""
    L = np.asarray(L)
    L = L.astype(np.result_type(L, float))
    point = _cone_points(L[np.newaxis], as_pattern(pattern), cone, None)
    _cache_factor(point, L)
    return point


def lpm_distance(A, B):
    """Distance between two cone points: the factor distance, by isometry."""
    _check_same_cone(A, B, A.cone)
    return distance(_factor(A), _factor(B))


def lpm_geodesic(A, B, t):
    """Geodesic between cone points, transferred through the factorization."""
    _check_same_cone(A, B, A.cone)
    G = _geodesic_between(_factor(A), _factor(B), t)
    return cone_compose(G, A.pattern, A.cone)


def star_op(A, B):
    """Per-cone abelian operation; the identity element is the canonical basis."""
    _check_same_cone(A, B, A.cone)
    L = _group_op(_factor(A), _factor(B))
    return cone_compose(L, A.pattern, A.cone)


def star_inv(A):
    return cone_compose(_group_inv(_factor(A)), A.pattern, A.cone)


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
    coords = np.mean(eta(np.stack([_factor(A) for A in points])), axis=0)
    return cone_compose(eta_inv(coords), first.pattern, first.cone)


KLEIN_MAPS = {
    "id": lambda L: np.asarray(L, dtype=float),
    "inv": group_inv,
    "rev": reverse_matrix,
    "rev_inv": lambda L: reverse_matrix(group_inv(L)),
}


def klein_apply(sigma, L):
    """One of the four commuting isometric automorphisms of the group."""
    try:
        return KLEIN_MAPS[sigma](np.asarray(L, dtype=float))
    except KeyError:
        raise ValueError(f"unknown automorphism {sigma!r}; "
                         f"choose from {sorted(KLEIN_MAPS)}") from None
