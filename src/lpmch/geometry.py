"""Log-Cholesky geometry and abelian group structure.

The Cholesky space of lower triangular matrices with positive diagonal is
a flat Riemannian manifold and an abelian group under ``group_op``; the
``eta`` map is a linear-coordinates chart that turns the group into a
vector space and the distance into the Euclidean norm. Everything
transfers to each signed minor cone through the factorization maps, making
each cone an isometric copy of the Cholesky space. Real scalars only.
"""

import numpy as np

from .core import DEFAULT_TOL, LPM, ConePoint, as_pattern, canonical_diagonal, \
    reverse_matrix, reverse_point, symmetrize
from .cholesky import _check_same_cone, _cone_matrices, _signed_pivots
from .errors import ComplexFactor

__all__ = [
    "group_op", "group_inv", "scalar_mul", "eta", "eta_inv",
    "distance", "metric_tensor", "geodesic", "geodesic_between",
    "differential", "differential_inv",
    "lpm_distance", "lpm_geodesic", "star_op", "star_inv",
    "log_cholesky_mean", "klein_apply", "KLEIN_MAPS",
]


def _strict(L):
    return np.tril(L, -1)


def _diag(L):
    return np.diagonal(L).copy()


def _assemble(strict, diag):
    return strict + np.diag(diag)


def group_op(L, K):
    """L (.) K: add strict-lower parts, multiply diagonals. Abelian, identity Id."""
    return _assemble(_strict(L) + _strict(K), _diag(L) * _diag(K))


def group_inv(L):
    """Group inverse: negate the strict-lower part, invert the diagonal."""
    return _assemble(-_strict(L), 1.0 / _diag(L))


def scalar_mul(alpha, L):
    """alpha . L: scale the strict-lower part, raise the diagonal to alpha."""
    return _assemble(alpha * _strict(L), _diag(L) ** float(alpha))


def eta(L):
    """Linear coordinates (log-diagonal block; strict-lower block, row-major).

    A stack of factors gives one row per factor. The chart is real: a factor
    with a nonzero imaginary part raises ComplexFactor.
    """
    L = np.asarray(L)
    if np.iscomplexobj(L) and np.any(L.imag != 0):
        raise ComplexFactor("eta needs a real factor; complex scalars are "
                            "not supported by the log-Cholesky chart")
    L = L.real.astype(float, copy=False)
    rows, cols = np.tril_indices(L.shape[-1], -1)
    return np.concatenate([np.log(np.diagonal(L, axis1=-2, axis2=-1)),
                           L[..., rows, cols]], axis=-1)


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
    rows, cols = np.tril_indices(n, -1)
    L[..., rows, cols] = v[..., n:]
    return L


def distance(L, K):
    """Geodesic distance: Euclidean norm of the eta-coordinate difference."""
    return float(np.linalg.norm(eta(L) - eta(K)))


def metric_tensor(L, X, Y):
    """g_L(X, Y) = sum of strict-lower products + diagonal products / l_jj^2."""
    low = float(np.sum(_strict(X) * _strict(Y)))
    return low + float(np.sum(_diag(X) * _diag(Y) / _diag(L) ** 2))


def geodesic(L, X, t):
    """Geodesic from L with initial velocity X, at time t.

    Strict-lower parts move linearly; the diagonal moves exponentially, so
    the result never leaves the space.
    """
    dL, dX = _diag(L), _diag(X)
    return _assemble(_strict(L) + t * _strict(X), dL * np.exp(t * dX / dL))


def geodesic_between(L, K, t):
    """Unit-time geodesic from L to K, evaluated at t (t=0 -> L, t=1 -> K)."""
    dL, dK = _diag(L), _diag(K)
    X = _assemble(_strict(K) - _strict(L), (np.log(dK) - np.log(dL)) * dL)
    return geodesic(L, X, t)


def differential(L, X, eps):
    """Pushforward of the tangent X under L -> L D_eps L^T."""
    D = canonical_diagonal(eps)
    W = L @ D @ X.T + X @ D @ L.T
    return symmetrize(W)


def _half_lower(A):
    return np.tril(A, -1) + np.diag(_diag(A) / 2)


def differential_inv(L, W, eps):
    """Pullback of a symmetric perturbation W to a lower triangular tangent."""
    D = canonical_diagonal(eps)
    Z = np.linalg.solve(L, np.linalg.solve(L, W).T).T
    return L @ _half_lower(Z) @ D


def cone_factor(A):
    """Factor of A against the canonical basis of its cone, from A's own LDL*
    alone (TPM through the reversal)."""
    if A.cone != LPM:
        return reverse_matrix(cone_factor(reverse_point(A)))
    LA, radicand = _signed_pivots(A, DEFAULT_TOL)
    return LA * np.sqrt(radicand)


def _as_points(M, patterns, cone, size):
    """ConePoints of a matrix stack with one or per-matrix patterns; the list,
    or its only point when size is None."""
    rows = np.broadcast_to(np.asarray(patterns, dtype=int), M.shape[:-1]).tolist()
    points = [ConePoint(matrix=Mi, cone=cone, pattern=tuple(p))
              for Mi, p in zip(M, rows)]
    return points[0] if size is None else points


def _cone_points(F, patterns, cone, size):
    """The API edge of a factor stack: its cone points (see _cone_matrices)."""
    return _as_points(_cone_matrices(F, patterns, cone), patterns, cone, size)


def cone_compose(L, pattern, cone=LPM):
    """Compose L against the canonical basis of the requested cone."""
    return _cone_points(np.asarray(L)[np.newaxis], as_pattern(pattern), cone, None)


def lpm_distance(A, B):
    """Distance between two cone points: the factor distance, by isometry."""
    _check_same_cone(A, B, A.cone)
    return distance(cone_factor(A), cone_factor(B))


def lpm_geodesic(A, B, t):
    """Geodesic between cone points, transferred through the factorization."""
    _check_same_cone(A, B, A.cone)
    G = geodesic_between(cone_factor(A), cone_factor(B), t)
    return cone_compose(G, A.pattern, A.cone)


def star_op(A, B):
    """Per-cone abelian operation; the identity element is the canonical basis."""
    _check_same_cone(A, B, A.cone)
    L = group_op(cone_factor(A), cone_factor(B))
    return cone_compose(L, A.pattern, A.cone)


def star_inv(A):
    return cone_compose(group_inv(cone_factor(A)), A.pattern, A.cone)


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
    coords = np.mean([eta(cone_factor(A)) for A in points], axis=0)
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
