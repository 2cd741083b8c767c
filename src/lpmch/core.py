"""Sign patterns, minor-sign cone classification, reversal, and inertia.

A sign pattern is a tuple over {+1, -1}. A symmetric (or Hermitian) matrix
belongs to the LPM cone of pattern ``eps`` when its k-th leading principal
minor has sign ``eps[k-1]`` for every k; the TPM cone is the analogue with
trailing principal minors.
"""

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import MinorNearZero, NonFiniteInput, SingularMatrix

DEFAULT_TOL = 1e-10

LPM = "lpm"
TPM = "tpm"


def as_pattern(signs):
    """Normalize to a tuple over {+1, -1}, validating every entry."""
    eps = tuple(int(s) for s in signs)
    if len(eps) == 0 or any(s not in (1, -1) for s in eps):
        raise ValueError(f"not a sign pattern: {signs!r}")
    return eps


def pattern_from_string(s):
    """Parse a '+-' string, e.g. '+-+' -> (1, -1, 1)."""
    table = {"+": 1, "-": -1}
    try:
        return tuple(table[c] for c in s)
    except KeyError:
        raise ValueError(f"pattern string must be over '+-': {s!r}") from None


def pattern_to_string(eps):
    return "".join("+" if s > 0 else "-" for s in eps)


def all_patterns(n):
    return [as_pattern(p) for p in product((1, -1), repeat=n)]


def _unrank_patterns(idx, n, k=None):
    """The patterns at positions idx of all_patterns(n), restricted to
    negative inertia k unless k is None, as an (len(idx), n) int array, by
    combinatorial unranking: no pattern is enumerated."""
    if k is None:
        return 1 - 2 * ((idx[:, np.newaxis] >> np.arange(n - 1, -1, -1)) & 1)
    # below[a, c + 1]: the patterns of a more entries with c more sign
    # changes (none for c = -1). Clipping at the total count changes no entry
    # that a valid index reaches, and keeps the table in int64.
    count = math.comb(n, k)
    below = np.array([[0] + [min(math.comb(a, c), count) for c in range(k + 1)]
                      for a in range(n)], dtype=np.int64)
    out = np.empty((len(idx), n), dtype=int)
    prev = np.ones(len(idx), dtype=int)
    changes = np.full(len(idx), k)
    for j in range(n):
        plus = below[n - 1 - j, changes - (prev < 0) + 1]
        take_plus = idx < plus
        idx = np.where(take_plus, idx, idx - plus)
        out[:, j] = np.where(take_plus, 1, -1)
        changes -= out[:, j] != prev
        prev = out[:, j]
    return out


@dataclass(frozen=True, eq=False)
class ConePoint:
    """A symmetric matrix together with its cone kind and sign pattern.

    A point may carry its factor against the canonical basis of its cone
    (geometry.cone_factor), cached where the factor was built or first
    derived; it is used only while ``matrix`` holds exactly the entries it
    was cached against.
    """

    matrix: np.ndarray
    cone: str
    pattern: tuple
    tolerance_used: float = DEFAULT_TOL
    # (entries, factor), both read-only: the factor and a copy of the matrix
    # entries it belongs to; None until a factor is cached.
    _factor_cache: tuple = field(default=None, init=False, repr=False, compare=False)

    @property
    def dim(self):
        return self.matrix.shape[0]


def _read_only(a):
    """A read-only view of the array a."""
    view = np.asarray(a).view()
    view.setflags(write=False)
    return view


def _cache_factor(point, F):
    """Cache F as the factor of point, against a copy of the entries
    point.matrix holds now; returns the cached, read-only F. Nothing may
    write into F afterwards."""
    F = _read_only(F)
    object.__setattr__(point, "_factor_cache", (_read_only(np.array(point.matrix)), F))
    return F


def _cached_factor(point):
    """The cached factor of point (read-only), or None when there is none or
    point.matrix no longer holds, bit for bit, the entries it was cached
    against."""
    if point._factor_cache is None:
        return None
    entries, F = point._factor_cache
    M = np.asarray(point.matrix)
    same = M.dtype == entries.dtype and M.shape == entries.shape \
        and M.tobytes() == entries.tobytes()
    return F if same else None


def symmetrize(A):
    """The self-adjoint part (A + A*) / 2 of a matrix or a stack, as a new array."""
    A = np.asarray(A)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    H = (A + np.swapaxes(A.conj(), -1, -2)) / 2
    if np.iscomplexobj(H) and not H.imag.any():
        H = H.real
    return H


def scale(A):
    """Largest entry modulus, the scale used in minor tolerances."""
    return float(np.max(np.abs(A))) if np.asarray(A).size else 0.0


def _check_tol(tol):
    """A tolerance must be finite and >= 0; ValueError naming it otherwise."""
    if not 0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tol!r}")


def _check_finite(A):
    """NonFiniteInput at the first NaN or infinite entry of A."""
    bad = np.argwhere(~np.isfinite(A))
    if bad.size:
        where = tuple(int(i) for i in bad[0])
        raise NonFiniteInput(f"entry {where} is {A[where]}; every entry must be finite")


def _log_minor_cutoffs(A, tol):
    """log(tol * max(1, scale(A))**k) for k = 1..n, without overflow: the log
    of the modulus that a k-th minor of A must exceed."""
    _check_tol(tol)
    log_tol = math.log(tol) if tol > 0 else -math.inf
    return log_tol + np.arange(1, A.shape[-1] + 1) * math.log(max(1.0, scale(A)))


# Panel width of the blocked elimination in ldl.
_BLOCK = 32
# Relative size of an anti-Hermitian part, or of the imaginary part of a
# leading minor, at which input counts as not Hermitian.
_HERMITIAN_TOL = 1e-8


def _eliminate_block(U, L, d, det):
    """Unblocked elimination of the square block U, in place.

    Writes the block's unit-lower L and real pivots d; afterwards the upper
    triangle of U (pivots on its diagonal) holds the rows of the upper
    factor. det is the running leading minor, or None for real input, whose
    minors have no imaginary part to check. Returns the number of columns
    eliminated (fewer than the block's width when a pivot is exactly zero)
    and the updated det.
    """
    b = U.shape[0]
    for k in range(b):
        pivot = U[k, k]
        if det is not None:
            det *= complex(pivot)
            if abs(det.imag) > _HERMITIAN_TOL * max(1.0, abs(det)):
                raise ValueError("leading minor has a non-negligible imaginary part; "
                                 "input is not Hermitian")
        d[k] = pivot.real
        if pivot == 0:
            return k, det
        if k + 1 < b:
            col = U[k + 1:, k] / pivot
            L[k + 1:, k] = col
            U[k + 1:, k + 1:] -= col[:, np.newaxis] * U[k, k + 1:]
    return b, det


def ldl(A):
    """Unit-lower LDL* elimination without pivoting: A = L diag(d) L*.

    The one elimination kernel behind minors, factors and re-signing. Pivot
    d[k] is the ratio of the (k+1)-th to the k-th leading principal minor,
    so the minors are the running products of d. If some pivot vanishes
    exactly the elimination stops there and the remaining pivots are NaN.
    Hermitian input gives real pivots; a leading minor with a
    non-negligible imaginary part raises ValueError.

    The elimination is blocked and right-looking (Golub & Van Loan,
    Matrix Computations, 4th ed., 4.1-4.2), in panels of 32 columns. The
    plain rank-1 loop runs only inside each 32 x 32 diagonal block, giving
    L11 and D11; then L11 is inverted once, and L21 = A21 L11^{-*} D11^{-1}
    and the Schur complement update A22 -= (L21 D11) L21* are one matrix
    product each. The panel's upper half D11 L21* is never formed: outside
    the diagonal blocks only the lower triangle of A is read. For n <= 32
    only the plain loop runs.
    """
    A = np.asarray(A)
    n = A.shape[0]
    U = np.array(A, dtype=complex if np.iscomplexobj(A) else float, order="C")
    L = np.eye(n, dtype=U.dtype)
    d = np.full(n, np.nan)
    det = 1.0 + 0.0j if np.iscomplexobj(U) else None
    for p in range(0, n, _BLOCK):
        q = min(p + _BLOCK, n)
        done, det = _eliminate_block(U[p:q, p:q], L[p:q, p:q], d[p:q], det)
        if q == n:
            break
        # The columns of L below the block, up to a zero pivot if there is one.
        e = p + done
        X = _unit_lower_block_inverse(L[p:e, p:e])
        L[q:, p:e] = (U[q:, p:e] @ X.conj().T) / d[p:e]
        if e < q:
            break
        L21 = L[q:, p:q]
        U[q:, q:] -= (L21 * d[p:q]) @ L21.conj().T
    return L, d


def _unit_lower_inverse(L):
    """Inverse X of a unit-lower triangular L, block row by block row.

    X_ii = L_ii^{-1} for each 32 x 32 diagonal block and
    X_i,<i = -X_ii (L_i,<i X_<i,<i), so everything below the diagonal
    blocks comes from matrix products. np.linalg.inv pivots, so each
    inverted block is cut back to its strict lower triangle and given its
    exact unit diagonal; X is then exactly lower triangular. For n <= 32 the
    one inverted block is X.
    """
    n = L.shape[0]
    if n <= _BLOCK:
        return _unit_lower_block_inverse(L)
    X = np.zeros_like(L)
    X[:_BLOCK, :_BLOCK] = _unit_lower_block_inverse(L[:_BLOCK, :_BLOCK])
    for p in range(_BLOCK, n, _BLOCK):
        q = min(p + _BLOCK, n)
        Xii = _unit_lower_block_inverse(L[p:q, p:q])
        X[p:q, p:q] = Xii
        X[p:q, :p] = -Xii @ (L[p:q, :p] @ X[:p, :p])
    return X


def _unit_lower_block_inverse(L):
    """L^{-1} for one unit-lower block, cut back to exact lower triangularity."""
    X = np.tril(np.linalg.inv(L), -1)
    np.fill_diagonal(X, 1)
    return X


def leading_minors(A):
    """All n leading principal minors of a Hermitian (or real symmetric) A:
    the running products of the ldl pivots.

    The elimination reads only the lower triangle of A outside its 32 x 32
    diagonal blocks, so A must be Hermitian: ValueError when the largest
    entry of |A - A*| exceeds 1e-8 times the largest |A|. After an exact
    zero pivot the remaining minors are reported as NaN; callers apply
    their own tolerance per minor. A minor beyond the float range comes
    back as +inf or -inf, with its sign right and no overflow warning;
    classify tests the minors in logs instead.
    """
    A = np.asarray(A)
    if scale(A - A.conj().T) > _HERMITIAN_TOL * scale(A):
        raise ValueError("input is not Hermitian")
    with np.errstate(over="ignore"):
        return np.cumprod(ldl(A)[1])


def canonical_signs(eps):
    """(e0*e1, e1*e2, ..., e_{n-1}*e_n) with e0 = 1, as floats; eps may also
    be an unvalidated array of patterns along its last axis."""
    e = np.asarray(eps if np.ndim(eps) > 1 else as_pattern(eps), dtype=float)
    return e * np.concatenate((np.ones_like(e[..., :1]), e[..., :-1]), axis=-1)


def canonical_diagonal(eps):
    """The unit-modulus diagonal matrix diag(e1, e1*e2, ..., e_{n-1}*e_n)."""
    return np.diag(canonical_signs(eps))


def reverse_matrix(A):
    """The reversal (P A P)* with P the anti-diagonal permutation, of a matrix
    or of each matrix of a stack (the last two axes)."""
    A = np.asarray(A)
    return np.swapaxes(A.conj(), -1, -2)[..., ::-1, ::-1]


def reverse_point(point):
    """The reversal of a cone point: LPM <-> TPM with the same pattern.

    The trailing minors of A are the leading minors of its reversal, so the
    pattern carries over unchanged, and a cached factor F becomes
    reverse_matrix(F).
    """
    out = ConePoint(matrix=symmetrize(reverse_matrix(point.matrix)),
                    cone=TPM if point.cone == LPM else LPM,
                    pattern=point.pattern, tolerance_used=point.tolerance_used)
    F = _cached_factor(point)
    if F is not None:
        _cache_factor(out, reverse_matrix(F))
    return out


def reverse_pattern(eps):
    """(e_n e_{n-1}, ..., e_n e_1, e_n); identity for n = 1."""
    eps = as_pattern(eps)
    n = len(eps)
    last = eps[-1]
    return tuple(last * eps[n - 1 - j] for j in range(1, n)) + (last,)


def _classify_with_minors(A, cone=LPM, tol=DEFAULT_TOL):
    """classify, plus its minors (of the reversal for TPM), inf past the float range."""
    _check_finite(np.asarray(A))
    A = symmetrize(A)
    cutoffs = _log_minor_cutoffs(A, tol)
    d = ldl(reverse_matrix(A) if cone == TPM else A)[1]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        minors = np.cumprod(d)
        passed = np.cumsum(np.log(np.abs(d))) > cutoffs
    if not passed.all():
        k = int(np.argmin(passed)) + 1
        m = minors[k - 1]
        raise MinorNearZero(k, float(m) if np.isfinite(m) else None)
    signs = tuple(np.cumprod(np.sign(d)).astype(int).tolist())
    return ConePoint(matrix=A, cone=cone, pattern=signs, tolerance_used=tol), minors


def classify(A, cone=LPM, tol=DEFAULT_TOL):
    """Classify a symmetric matrix into its LPM or TPM cone.

    Raises MinorNearZero(k) when the k-th minor fails the scale-aware
    tolerance |minor| > tol * max(1, scale(A))**k, tested in logs so that
    neither side overflows, NonFiniteInput when an entry is NaN or infinite,
    and ValueError when tol is not finite and >= 0.
    """
    return _classify_with_minors(A, cone, tol)[0]


def _inverse(M):
    """Self-adjoint inverse of a matrix or a stack; SingularMatrix if singular."""
    try:
        inv = np.linalg.inv(M)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc
    return symmetrize(inv)


def invert_cone_point(point):
    """Matrix inverse, which swaps LPM <-> TPM and reverses the pattern."""
    return ConePoint(
        matrix=_inverse(point.matrix),
        cone=TPM if point.cone == LPM else LPM,
        pattern=reverse_pattern(point.pattern),
        tolerance_used=point.tolerance_used,
    )


def lpm_perturbation(A, tol=DEFAULT_TOL):
    """Perturbation radius t_A and the pattern of A + t*Id for 0 < t < t_A.

    t_A is the smallest nonzero eigenvalue modulus over all leading principal
    submatrices; for the zero matrix the convention is t = 1 with the all-plus
    pattern.
    """
    A = symmetrize(np.asarray(A, dtype=float))
    n = A.shape[0]
    if not A.any():
        return 1.0, as_pattern([1] * n)
    zero_cut = 1e-12 * max(1.0, scale(A))
    t_A = np.inf
    for k in range(1, n + 1):
        eigs = np.linalg.eigvalsh(A[:k, :k])
        nonzero = np.abs(eigs)[np.abs(eigs) > zero_cut]
        if nonzero.size:
            t_A = min(t_A, float(nonzero.min()))
    point = classify(A + (t_A / 2) * np.eye(n), LPM, tol)
    return t_A, point.pattern


def negative_inertia(eps):
    """Number of sign changes in the sequence 1, e1, ..., e_n."""
    return int(np.sum(canonical_signs(eps) < 0))


def cones_with_inertia(n, k):
    """All C(n, k) patterns of length n whose cones carry exactly k negative
    eigenvalues, in the order of all_patterns(n); unranked, so the other
    patterns are never enumerated."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    rows = _unrank_patterns(np.arange(math.comb(n, k)), n, k)
    return [as_pattern(p) for p in rows.tolist()]
