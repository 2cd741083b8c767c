"""Generalized Cholesky factorization on signed minor cones.

For a fixed matrix B in the cone with pattern ``eps``, the map
Phi_B : L -> L B L* is a bijection from the Cholesky space (lower
triangular, positive diagonal) onto the same cone. ``compose`` evaluates
Phi_B and ``factor`` inverts it in closed form from the unpivoted LDL*
factorizations A = L_A D_A L_A* and B = L_B D_B L_B*:
L = L_A diag(sqrt(d_A / d_B)) L_B^{-1}, one matrix product with the
triangular inverse of L_B (core._lower_inverse). A diagonal basis (such as
the canonical D_eps) is its own LDL*, (I, diag B), and is not eliminated.
The trailing-minor (TPM) maps run the same code on the reversals
(core._orient), and ``resign`` moves a matrix between cones by swapping the
signs of its LDL* pivots.
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
    _lower_inverse,
    _opposite,
    _orient,
    _points,
    as_pattern,
    canonical_diagonal,
    canonical_signs,
    ldl,
    reverse_pattern,
    symmetrize,
)
from .errors import ConeKindMismatch, NegativeRadicand, PatternMismatch, SingularMatrix

__all__ = [
    "is_lower_triangular",
    "compose",
    "factor",
    "compose_tpm",
    "factor_tpm",
    "resign",
    "invert_cone_point",
]


def is_lower_triangular(L, tol=0.0):
    """True when L (or every matrix of a stack L) is square lower triangular
    with strictly positive diagonal: every entry above the diagonal has
    modulus at most tol (exactly zero for the default tol = 0, so NaN fails
    and -0.0 passes) and every diagonal entry is real and > 0. An empty L
    (0 x 0, or a stack of none) passes whatever tol is; any other L fails
    when tol is below 0 or NaN, as np.abs(np.triu(L, 1)) <= tol would."""
    L = np.asarray(L)
    shape = L.shape
    if len(shape) < 2 or shape[-1] != shape[-2]:
        return False
    if not L.size:
        return True
    if not tol >= 0:
        return False
    upper = np.triu(L, 1)
    # Counting nonzero entries, or entries within tol, costs a fraction of
    # the ufunc reductions .any() and .all() on a small matrix.
    if np.count_nonzero(upper) if tol == 0 else \
            np.count_nonzero(np.abs(upper) <= tol) < upper.size:
        return False
    diag = L.diagonal(0, -2, -1)
    if diag.dtype.kind == "c":
        return bool(np.count_nonzero(diag.real > 0) == diag.size
                    and not np.count_nonzero(diag.imag))
    return bool(np.count_nonzero(diag > 0) == diag.size)


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


def _factor_against(A, B, tol=DEFAULT_TOL):
    """factor in the leading orientation of A's cone (core._orient): B is the
    oriented basis matrix, or the vector of its diagonal."""
    LA, dA = ldl(_orient(A.matrix, A.cone))
    LB = None
    if B.ndim == 1:
        dB = B
    # A complex diagonal goes through ldl, which rejects a non-Hermitian one.
    elif np.tril(B, -1).any() or np.diagonal(B).imag.any():
        LB, dB = ldl(B)
    else:
        dB = np.diagonal(B).real
    L = LA * np.sqrt(_radicands(dA, dB, tol))
    return _orient(L if LB is None else L @ _lower_inverse(LB), A.cone)


def _factor(A):
    """A's factor against its canonical basis, read-only: the cached one, or
    derived and then cached (geometry.cone_factor returns a copy)."""
    F = _cached_factor(A)
    return _cache_factor(A, _factor_against(A, canonical_signs(A.pattern))) if F is None else F


def _compose(L, B, cone):
    """compose (LPM) and compose_tpm (TPM)."""
    L = _check_lower(L)
    if B.cone != cone:
        raise ConeKindMismatch(f"expected a basis of the {cone} cone, got {B.cone}")
    if L.shape[0] != B.dim:
        raise PatternMismatch(f"factor size {L.shape[0]} != basis dimension {B.dim}")
    return ConePoint(matrix=_congruence(L, B.matrix, cone), cone=cone,
                     pattern=B.pattern, tolerance_used=B.tolerance_used)


def _factor_in(A, B, cone, tol):
    """factor (LPM) and factor_tpm (TPM)."""
    _check_same_cone(A, B, cone)
    Bm = _orient(B.matrix, cone)
    F = _cached_factor(A) if tol == DEFAULT_TOL else None
    if F is not None and np.array_equal(Bm, canonical_diagonal(A.pattern)):
        return np.array(F)
    return _factor_against(A, Bm, tol)


def compose(L, B):
    """Phi_B(L) = L B L*, a point of the same LPM cone as B.

    The k-th leading minor of the result is |det L_[k]|^2 times that of B,
    so the sign pattern is inherited from B. PatternMismatch when L is not
    of B's size.
    """
    return _compose(L, B, LPM)


def factor(A, B, tol=DEFAULT_TOL):
    """The unique lower triangular L with positive diagonal and L B L* = A.

    A and B must lie in the same LPM cone. With A = L_A D_A L_A* and
    B = L_B D_B L_B* their unit-lower LDL* factorizations, the factor is
    L = L_A diag(sqrt(d_A / d_B)) L_B^{-1}, in O(n^3): one product with the
    triangular inverse of L_B. When B has no nonzero entry below its diagonal
    (and no imaginary part on it), its LDL* is (I, diag B) exactly, and
    L = L_A diag(sqrt(d_A / diag B)) needs only A's elimination. The
    diagonal entries of L are the square roots of the ratios of elimination
    pivots; a ratio at or below tol**2, or an infinite one from a zero pivot
    of B, raises NegativeRadicand. Against the canonical basis of A's
    pattern, at the default tol, L is cone_factor(A): a copy of the factor
    A carries, if it carries one (see geometry.cone_factor).
    """
    return _factor_in(A, B, LPM, tol)


def compose_tpm(L, C):
    """The trailing-minor analogue of compose: L* C L in the TPM cone of C."""
    return _compose(L, C, TPM)


def factor_tpm(A, C, tol=DEFAULT_TOL):
    """Invert compose_tpm: the reversal of factor of the reversed pair, bit for
    bit on self-adjoint input. The reversal of a diagonal basis is diagonal,
    so it is not eliminated here either."""
    return _factor_in(A, C, TPM, tol)


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
    return ConePoint(matrix=_congruence(LA, radicand * canonical_signs(delta), LPM),
                     cone=LPM, pattern=delta, tolerance_used=A.tolerance_used)


def canonical_point(eps, cone=LPM):
    """The canonical diagonal D_eps (LPM) or its reversal (TPM)."""
    eps = as_pattern(eps)
    return ConePoint(matrix=_orient(canonical_diagonal(eps), cone), cone=cone, pattern=eps)


def _cone_matrices(F, patterns, cone):
    """compose against canonical_point, batched and unchecked: F_i D_i F_i*
    (LPM) or F_i* D_i F_i (TPM) for a factor stack F, with D_i the canonical
    basis of patterns[i] (patterns is one pattern or an (m, n) array of
    them), each D_i given to the congruence as its vector of signs.
    PatternMismatch when a pattern's length is not the factors' size."""
    signs = canonical_signs(np.atleast_2d(patterns))
    if signs.shape[-1] != F.shape[-1]:
        raise PatternMismatch(f"pattern length {signs.shape[-1]} != dimension {F.shape[-1]}")
    return _congruence(F, signs if cone == LPM else signs[..., ::-1], cone)


def _cone_points(F, patterns, cone):
    """The list of cone points of a factor stack that the library made (see
    _cone_matrices and core._points), with one or per-factor patterns."""
    return _points(_cone_matrices(F, patterns, cone), cone, patterns)


def _built_point(F, pattern, cone):
    """The point of one factor F that the library made (or cone_compose
    checked and copied): F composed against the canonical basis of pattern,
    with F itself cached as its factor. Nothing is checked and F is not
    copied, so nothing may write into F afterwards."""
    point, = _cone_points(F[np.newaxis], pattern, cone)
    _cache_factor(point, F)
    return point


def _inverse(M):
    """Self-adjoint inverse of a matrix or a stack; SingularMatrix if singular."""
    try:
        inv = np.linalg.inv(M)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc
    return symmetrize(inv)


def invert_cone_point(point):
    """Matrix inverse, which swaps LPM <-> TPM and reverses the pattern.

    A point that carries its factor F (cone_compose, the operations that
    build from a factor they made, geometry.cone_factor once called) is
    inverted through F: with M = F D F* in the LPM cone, M^{-1} = F^{-*} D
    F^{-1} is the TPM point of the reversed pattern with factor F^{-1},
    because the canonical signs of the reversed pattern are those of the
    pattern read backwards (likewise from TPM to LPM). F^{-1} comes from
    core._lower_inverse, as a stack of one, and the result is built from it
    by _built_point, keeping the point's tolerance_used. Any other point
    takes a general inverse of its matrix, made self-adjoint; SingularMatrix
    when it is singular.
    """
    cone = _opposite(point.cone)
    pattern = reverse_pattern(point.pattern)
    F = _cached_factor(point)
    if F is None:
        return ConePoint(matrix=_inverse(point.matrix), cone=cone, pattern=pattern,
                         tolerance_used=point.tolerance_used)
    out = _built_point(_lower_inverse(F[np.newaxis])[0], pattern, cone)
    object.__setattr__(out, "tolerance_used", point.tolerance_used)
    return out
