"""Generalized Cholesky factorization on signed minor cones.

For a fixed matrix B in the cone with pattern ``eps``, the map
Phi_B : L -> L B L* is a bijection from the Cholesky space (lower
triangular, positive diagonal) onto the same cone. ``compose`` evaluates
Phi_B and ``factor`` inverts it in closed form from the unpivoted LDL*
factorizations A = L_A D_A L_A* and B = L_B D_B L_B*:
L = L_A diag(sqrt(d_A / d_B)) L_B^{-1}, one matrix product with the blocked
inverse of L_B. A diagonal basis (such as the canonical D_eps) is its own
LDL*, (I, diag B), and is not eliminated. The trailing-minor (TPM) duals
are obtained through the reversal map, and ``resign`` moves a matrix
between cones by swapping the signs of its LDL* pivots.
"""

import numpy as np

from .core import (
    DEFAULT_TOL,
    LPM,
    TPM,
    ConePoint,
    _cache_factor,
    _cached_factor,
    _check_tol,
    _unit_lower_inverse,
    as_pattern,
    canonical_diagonal,
    canonical_signs,
    ldl,
    reverse_matrix,
    reverse_point,
    symmetrize,
)
from .errors import ConeKindMismatch, NegativeRadicand, PatternMismatch

__all__ = [
    "is_lower_triangular",
    "compose",
    "factor",
    "compose_tpm",
    "factor_tpm",
    "resign",
]


def is_lower_triangular(L, tol=0.0):
    """True when L (or every matrix of a stack L) is square lower triangular
    with strictly positive diagonal."""
    L = np.asarray(L)
    if L.ndim < 2 or L.shape[-1] != L.shape[-2]:
        return False
    upper_ok = np.all(np.abs(np.triu(L, 1)) <= tol)
    diag = np.diagonal(L, axis1=-2, axis2=-1)
    return bool(upper_ok and np.all(diag.real > 0) and np.all(diag.imag == 0))


def _check_lower(L, ndim=2):
    L = np.asarray(L)
    if L.ndim != ndim or not is_lower_triangular(L):
        raise ValueError("expected lower triangular with positive diagonal")
    return L


def _congruence(L, B, cone):
    """L B L* (LPM) or L* B L (TPM), self-adjoint; L is one factor or a stack.
    B with one axis fewer than L is a diagonal, given as its vector(s)."""
    Lh = np.swapaxes(L.conj(), -1, -2)
    left, right = (L, Lh) if cone == LPM else (Lh, L)
    if B.ndim < L.ndim:
        # In C order, as a product with a dense B would be: the one product
        # then sees the same memory layout and computes the same sums.
        return symmetrize(np.multiply(left, B[..., np.newaxis, :], order="C") @ right)
    return symmetrize(left @ B @ right)


def _check_same_cone(A, B, cone):
    if A.cone != cone or B.cone != cone:
        raise ConeKindMismatch(f"expected two {cone} points, got {A.cone} and {B.cone}")
    if A.pattern != B.pattern:
        raise PatternMismatch(f"patterns differ: {A.pattern} vs {B.pattern}")


def _check_radicands(radicand, tol):
    """Raise NegativeRadicand at the first squared diagonal entry that is
    <= tol**2 or not finite (a zero pivot of the basis gives an infinite one);
    ValueError when tol is not finite and >= 0."""
    _check_tol(tol)
    bad = np.flatnonzero(~((radicand > tol * tol) & (radicand < np.inf)))
    if bad.size:
        j = int(bad[0])
        raise NegativeRadicand(j + 1, float(radicand[j]))


def _radicands(d, divisor, tol):
    """d / divisor, the squared diagonal of a factor from the pivots of a point
    and of its basis (or its canonical signs), checked by _check_radicands."""
    with np.errstate(divide="ignore"):
        radicand = d / divisor
    _check_radicands(radicand, tol)
    return radicand


def _derived_factor(A):
    """A's factor against its canonical basis from A's own LDL* alone (TPM
    through the reversal)."""
    if A.cone != LPM:
        return reverse_matrix(_derived_factor(reverse_point(A)))
    LA, d = ldl(A.matrix)
    return LA * np.sqrt(_radicands(d, canonical_signs(A.pattern), DEFAULT_TOL))


def _factor(A):
    """A's factor against its canonical basis, read-only: the cached one, or
    derived and then cached (geometry.cone_factor returns a copy)."""
    F = _cached_factor(A)
    return _cache_factor(A, _derived_factor(A)) if F is None else F


def compose(L, B):
    """Phi_B(L) = L B L*, a point of the same LPM cone as B.

    The k-th leading minor of the result is |det L_[k]|^2 times that of B,
    so the sign pattern is inherited from B.
    """
    L = _check_lower(L)
    if B.cone != LPM:
        raise ConeKindMismatch(f"compose needs an LPM basis, got {B.cone}")
    return ConePoint(matrix=_congruence(L, B.matrix, LPM), cone=LPM,
                     pattern=B.pattern, tolerance_used=B.tolerance_used)


def factor(A, B, tol=DEFAULT_TOL):
    """The unique lower triangular L with positive diagonal and L B L* = A.

    A and B must lie in the same LPM cone. With A = L_A D_A L_A* and
    B = L_B D_B L_B* their unit-lower LDL* factorizations, the factor is
    L = L_A diag(sqrt(d_A / d_B)) L_B^{-1}, in O(n^3): one product with the
    blocked inverse of L_B. When B has no nonzero entry below its diagonal
    (and no imaginary part on it), its LDL* is (I, diag B) exactly, and
    L = L_A diag(sqrt(d_A / diag B)) needs only A's elimination. The
    diagonal entries of L are the square roots of the ratios of elimination
    pivots; a ratio at or below tol**2, or an infinite one from a zero pivot
    of B, raises NegativeRadicand. Against the canonical basis of A's
    pattern, at the default tol, L is cone_factor(A): a copy of the factor
    A carries, if it carries one (see geometry.cone_factor).
    """
    _check_same_cone(A, B, LPM)
    F = _cached_factor(A) if tol == DEFAULT_TOL else None
    if F is not None and np.array_equal(B.matrix, canonical_diagonal(A.pattern)):
        return np.array(F)
    LA, dA = ldl(A.matrix)
    Bm = B.matrix
    diagonal = np.diagonal(Bm)
    # A complex diagonal goes through ldl, which rejects a non-Hermitian one.
    if np.tril(Bm, -1).any() or diagonal.imag.any():
        LB, dB = ldl(Bm)
    else:
        LB, dB = None, diagonal.real
    scaled = LA * np.sqrt(_radicands(dA, dB, tol))
    return scaled if LB is None else scaled @ _unit_lower_inverse(LB)


def compose_tpm(L, C):
    """The trailing-minor analogue of compose: L* C L in the TPM cone of C."""
    L = _check_lower(L)
    if C.cone != TPM:
        raise ConeKindMismatch(f"compose_tpm needs a TPM basis, got {C.cone}")
    return ConePoint(matrix=_congruence(L, C.matrix, TPM), cone=TPM,
                     pattern=C.pattern, tolerance_used=C.tolerance_used)


def factor_tpm(A, C, tol=DEFAULT_TOL):
    """Invert compose_tpm by reversal: factor the reversed pair, reverse back.

    The reversal of a diagonal basis is diagonal, so it is not eliminated
    here either."""
    _check_same_cone(A, C, TPM)
    return reverse_matrix(factor(reverse_point(A), reverse_point(C), tol=tol))


def resign(A, delta, tol=DEFAULT_TOL):
    """Move A from its LPM cone to the cone with pattern delta.

    With A = L_A diag(d) L_A* its unit-lower LDL* factorization, the pivots
    carry the canonical signs s_eps of A's pattern, so A = L D_eps L* with
    L = L_A diag(sqrt(s_eps d)). The result L D_delta L* is
    L_A diag(s_eps d s_delta) L_A*. A pivot ratio s_eps d at or below
    tol**2 raises NegativeRadicand.
    """
    if A.cone != LPM:
        raise ConeKindMismatch(f"resign needs an LPM point, got {A.cone}")
    delta = as_pattern(delta)
    eps = A.pattern
    if len(delta) != len(eps):
        raise PatternMismatch(f"pattern length {len(delta)} != dimension {len(eps)}")
    if delta == eps:
        return A
    LA, d = ldl(A.matrix)
    radicand = _radicands(d, canonical_signs(eps), tol)
    out = (LA * (radicand * canonical_signs(delta))) @ LA.conj().T
    return ConePoint(matrix=symmetrize(out), cone=LPM, pattern=delta,
                     tolerance_used=A.tolerance_used)


def canonical_point(eps, cone=LPM):
    """The canonical diagonal D_eps (LPM) or its reversal counterpart (TPM)."""
    point = ConePoint(matrix=canonical_diagonal(eps), cone=LPM, pattern=as_pattern(eps))
    return point if cone == LPM else reverse_point(point)


def _cone_matrices(F, patterns, cone):
    """compose against canonical_point, batched: F_i D_i F_i* (LPM) or
    F_i* D_i F_i (TPM) for a factor stack F, with D_i the canonical basis of
    patterns[i] (patterns is one pattern or an (m, n) array of them), each
    D_i given to the congruence as its vector of signs."""
    F = _check_lower(F, ndim=3)
    signs = np.broadcast_to(canonical_signs(patterns), F.shape[:-1])
    return _congruence(F, signs if cone == LPM else signs[:, ::-1], cone)
