"""The global abelian group spanning all sign-pattern cones at one size.

A group element is a cone point together with its cached factor L against
the canonical diagonal of its cone. The product multiplies the factors in
the Cholesky group and the patterns coordinatewise, so the whole structure
is the direct product of the positive-definite group with n copies of the
sign group. The identity is the identity matrix; the canonical diagonals
are exactly the 2-torsion.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _EXPORTS
from .core import LPM, ConePoint, _opposite, _read_only, as_pattern
from .cholesky import _built_point, _factor
from .geometry import _checked, _eta, _eta_inv, _factor_distance
from .errors import ConeKindMismatch, GroupMismatch

__all__ = _EXPORTS["biggroup"]


def schur_pattern(eps, delta):
    """Coordinatewise product of two sign patterns."""
    eps, delta = as_pattern(eps), as_pattern(delta)
    if len(eps) != len(delta):
        raise GroupMismatch(f"pattern lengths differ: {len(eps)} vs {len(delta)}")
    return tuple(e * d for e, d in zip(eps, delta))


@dataclass(frozen=True, eq=False, init=False)
class BigGroupElement:
    """A cone point with its factor against the canonical basis.

    Unless given, the factor is the point's own cached one (read-only; see
    geometry.cone_factor), read each time it is used, so an in-place edit of
    the point's matrix is seen. A given factor is checked once and kept as a
    read-only copy: one that is not lower triangular with a positive
    diagonal raises eta's ValueError, one of a size other than the point's
    GroupMismatch, and a point of a cone other than LPM or TPM ValueError.
    """

    point: ConePoint
    # The factor given when the element was made, or None.
    _given_factor: np.ndarray = field(default=None, repr=False)

    def __init__(self, point, factor=None):
        if factor is not None:
            factor = _read_only(np.array(_checked(factor)))
            _opposite(point.cone)
            if len(factor) != point.dim:
                raise GroupMismatch(f"factor size {len(factor)} != point dimension {point.dim}")
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "_given_factor", factor)

    @property
    def factor(self):
        if self._given_factor is None:
            return _factor(self.point)
        return self._given_factor

    @property
    def pattern(self):
        return self.point.pattern

    @property
    def cone(self):
        return self.point.cone

    @property
    def dim(self):
        return self.point.dim


def _from_factor(L, pattern, cone):
    """The element of a factor that the library made (see cholesky._built_point)."""
    return BigGroupElement(point=_built_point(L, pattern, cone))


def identity_element(n, cone=LPM):
    _opposite(cone)
    return _from_factor(np.eye(n), as_pattern([1] * n), cone)


def _check_pair(A, B):
    if A.cone != B.cone:
        raise ConeKindMismatch(f"cone kinds differ: {A.cone} vs {B.cone}")
    if A.dim != B.dim:
        raise GroupMismatch(f"dimensions differ: {A.dim} vs {B.dim}")


def box_op(A, B):
    """Product: factors compose in the Cholesky group, patterns multiply."""
    _check_pair(A, B)
    return _from_factor(_eta_inv(_eta(A.factor) + _eta(B.factor)),
                        schur_pattern(A.pattern, B.pattern), A.cone)


def box_inv(A):
    """Inverse: the group inverse of the factor; the pattern is its own inverse."""
    return _from_factor(_eta_inv(-_eta(A.factor)), A.pattern, A.cone)


def _check_p(p):
    """float(p), so 'inf' works; ValueError unless it lies in [1, inf], also
    for a p that is not a number at all (None, a list, 'x')."""
    try:
        p = float(p)
    except (TypeError, ValueError):
        raise ValueError(f"p must be in [1, inf], got {p!r}") from None
    if not 1 <= p <= math.inf:
        raise ValueError(f"p must be in [1, inf], got {p}")
    return p


def _combine(d_factor, mismatch, p):
    """The l^p norm of (factor distance, boolean pattern mismatch), elementwise."""
    if math.isinf(p):
        return np.maximum(d_factor, mismatch)
    return (d_factor**p + np.asarray(mismatch, dtype=float) ** p) ** (1.0 / p)


def dp_distance(A, B, p=2):
    """Bi-invariant metric: the l^p norm of (factor distance, pattern mismatch),
    for p in [1, inf] (or 'inf'); ValueError for any other p."""
    _check_pair(A, B)
    p = _check_p(p)
    return float(_combine(_factor_distance(A.factor, B.factor), A.pattern != B.pattern, p))


def torsion_order(A, tol=1e-10):
    """1 for the identity, 2 for the other canonical diagonals, else infinite."""
    is_identity_factor = bool(np.allclose(A.factor, np.eye(A.dim), atol=tol))
    if not is_identity_factor:
        return math.inf
    if all(s == 1 for s in A.pattern):
        return 1
    return 2
