"""Sign patterns, minor-sign cone classification, reversal, and inertia.

A sign pattern is a tuple over {+1, -1}. A symmetric (or Hermitian) matrix
belongs to the LPM cone of pattern ``eps`` when its k-th leading principal
minor has sign ``eps[k-1]`` for every k; the TPM cone is the analogue with
trailing principal minors.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product, repeat

import numpy as np

from .errors import MinorNearZero, NonFiniteInput

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


def _points(M, cone, patterns):
    """The ConePoints of the matrix stack M in the given cone, with one
    pattern for every matrix or an (m, n) array of them: the points that
    ConePoint(matrix=M[i], cone=cone, pattern=...) would make, each pattern a
    tuple of ints, with the default tolerance and no factor cached.

    Each point is made by object.__new__ and one object.__setattr__ for each
    field that the dataclass's __init__ sets, in the same order, so the
    points keep the class's own instance layout; _factor_cache is left to
    its class default, as __init__ leaves it. With one pattern every point
    shares the one tuple.
    """
    rows = np.asarray(patterns, dtype=int)
    each = repeat(tuple(rows.tolist())) if rows.ndim == 1 else map(tuple, rows.tolist())
    new, put = object.__new__, object.__setattr__
    points = []
    for Mi, pattern in zip(M, each):
        point = new(ConePoint)
        put(point, "matrix", Mi)
        put(point, "cone", cone)
        put(point, "pattern", pattern)
        put(point, "tolerance_used", DEFAULT_TOL)
        points.append(point)
    return points


@lru_cache
def _strict_lower_indices(n):
    """(rows, cols) of the strict lower triangle of an n x n matrix, row-major,
    as read-only arrays: np.tril_indices(n, -1), computed once per n."""
    return tuple(_read_only(i) for i in np.tril_indices(n, -1))


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
    return F if _same_entries(point.matrix, entries) else None


def _same_entries(a, entries):
    """Whether a holds, bit for bit, the entries of the array entries (same
    dtype and shape too)."""
    a = np.asarray(a)
    return a.dtype == entries.dtype and a.shape == entries.shape \
        and a.tobytes() == entries.tobytes()


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


def _check_matrix(A):
    """NonFiniteInput at a NaN or infinite entry of the array A, then
    ValueError unless A is one square matrix of size at least 1."""
    _check_finite(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not A.size:
        raise ValueError(f"expected a square matrix of size at least 1, got shape {A.shape}")


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


def _check_hermitian(A, message):
    """ValueError(message) when the largest entry of |A - A*| exceeds
    _HERMITIAN_TOL times the largest |A|."""
    if scale(A - A.conj().T) > _HERMITIAN_TOL * scale(A):
        raise ValueError(message)


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

    A real A whose diagonal has one strict sign s is first given to
    LAPACK's Cholesky factorization (np.linalg.cholesky) as s A, which is
    backward stable on definite input (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., ch. 10): with C its factor and c = diag C,
    L = C diag(c)^{-1} and d = s c^2. That path reads only the lower
    triangle of A. When s A is not numerically definite (LAPACK meets a
    pivot that is not positive, an exact zero among them) or L or d has a
    non-finite entry, the blocked elimination below runs as if the path did
    not exist; complex input and diagonals with mixed signs, a zero or a
    NaN take it directly.

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
    if not np.iscomplexobj(A) and A.shape[0]:
        definite = _definite_ldl(A)
        if definite is not None:
            return definite
    return _blocked_ldl(A)


def _definite_ldl(A):
    """ldl of a real A from the Cholesky factor of s A, when the diagonal of A
    has one strict sign s and that factor exists and gives finite L and d;
    None otherwise."""
    # A Python scan of the diagonal stops at the first entry of the wrong
    # sign, so a diagonal with mixed signs costs about a microsecond at
    # n = 10.
    diag = A.diagonal().tolist()
    s = 1.0 if diag[0] > 0 else -1.0
    if not all(s * a > 0 for a in diag):
        return None
    try:
        C = np.linalg.cholesky(np.multiply(A, s, dtype=float))
    except np.linalg.LinAlgError:
        return None
    c = np.diagonal(C)
    # An infinite diagonal entry, or an L beyond the float range, warns only
    # in the blocked elimination, as it did before this path existed.
    with np.errstate(over="ignore", invalid="ignore"):
        L = C / c
        d = s * (c * c)
    if not (np.isfinite(L).all() and np.isfinite(d).all()):
        return None
    return L, d


def _blocked_ldl(A):
    """ldl by blocked elimination alone (see ldl)."""
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
        X = _lower_inverse(L[p:e, p:e])
        L[q:, p:e] = (U[q:, p:e] @ X.conj().T) / d[p:e]
        if e < q:
            break
        L21 = L[q:, p:q]
        U[q:, q:] -= (L21 * d[p:q]) @ L21.conj().T
    return L, d


def _lower_inverse(L):
    """Inverse of a lower triangular L with a nonzero diagonal, or of each
    matrix of a stack L, by halving over the last two axes.

    With L = [[L11, 0], [L21, L22]] split at n // 2, X11 and X22 are the
    inverses of the halves and X21 = -X22 (L21 X11). The leaf follows L's
    rank. One matrix halves down to blocks of at most _BLOCK = 32 rows,
    each inverted by np.linalg.inv, cut back to its lower triangle and
    given the diagonal 1/l_ii exactly: a unit-lower block, such as a panel
    of the elimination kernel, keeps its exact unit diagonal. A stack
    halves down to 1 x 1 blocks, 1/l, so every product is a stack of small
    products, with none of np.linalg.inv's LAPACK call per matrix (at
    2000 x 10 x 10, 1.8 ms against 8.4 ms on a 2-core x86-64 host with one
    BLAS thread). X is exactly lower triangular either way. Inverting a
    triangular matrix by blocks is backward stable (Du Croz and Higham, IMA
    J. Numer. Anal. 12, 1992; Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 14).

    L is first copied to a C-contiguous array, so each matrix of a stack
    meets the same products on the same memory layout as it would on its
    own: every member of a stack's result is bit for bit that member's
    inverse taken alone, as a stack of one.
    """
    L = np.ascontiguousarray(L, dtype=np.result_type(L, float))
    X = np.zeros_like(L)
    _fill_lower_inverse(L, X, _BLOCK if L.ndim == 2 else 1)
    return X


def _fill_lower_inverse(L, X, leaf):
    """Write the lower triangle of L^{-1} into X, halving down to blocks of
    at most leaf rows (see _lower_inverse)."""
    n = L.shape[-1]
    if n > leaf:
        k = n // 2
        _fill_lower_inverse(L[..., :k, :k], X[..., :k, :k], leaf)
        _fill_lower_inverse(L[..., k:, k:], X[..., k:, k:], leaf)
        X[..., k:, :k] = -(X[..., k:, k:] @ (L[..., k:, :k] @ X[..., :k, :k]))
    elif L.ndim == 2:
        X[...] = np.tril(np.linalg.inv(L))
        np.fill_diagonal(X, 1.0 / L.diagonal())
    elif n:
        X[..., 0, 0] = 1.0 / L[..., 0, 0]


def leading_minors(A):
    """All n leading principal minors of a Hermitian (or real symmetric) A:
    the running products of the ldl pivots.

    A is checked as classify checks it: NonFiniteInput when an entry is NaN
    or infinite, and ValueError unless A is one square matrix of size at
    least 1. The elimination reads only the lower triangle of A outside its
    32 x 32 diagonal blocks, and its Cholesky path (see ldl) only the lower
    triangle at all, so A must be Hermitian: ValueError when the largest
    entry of |A - A*| exceeds 1e-8 times the largest |A|. After an exact
    zero pivot the remaining minors are reported as NaN; callers apply
    their own tolerance per minor. A minor beyond the float range comes
    back as +inf or -inf, with its sign right and no overflow warning;
    classify tests the minors in logs instead.
    """
    A = np.asarray(A)
    _check_matrix(A)
    _check_hermitian(A, "input is not Hermitian")
    with np.errstate(over="ignore"):
        return np.cumprod(ldl(A)[1])


def canonical_signs(eps):
    """(e0*e1, e1*e2, ..., e_{n-1}*e_n) with e0 = 1, as floats; eps may also
    be an unvalidated array of patterns along its last axis."""
    e = np.asarray(eps if np.ndim(eps) > 1 else as_pattern(eps), dtype=float)
    signs = e.copy()
    signs[..., 1:] *= e[..., :-1]
    return signs


def canonical_diagonal(eps):
    """The unit-modulus diagonal matrix diag(e1, e1*e2, ..., e_{n-1}*e_n)."""
    return np.diag(canonical_signs(eps))


def reverse_matrix(A):
    """The reversal (P A P)* with P the anti-diagonal permutation, of a matrix
    or of each matrix of a stack (the last two axes)."""
    A = np.asarray(A)
    return np.swapaxes(A.conj(), -1, -2)[..., ::-1, ::-1]


def _opposite(cone):
    """The other cone of the reversal: TPM for LPM, LPM for TPM; ValueError
    for any other cone."""
    if cone not in (LPM, TPM):
        raise ValueError(f"cone must be {LPM!r} or {TPM!r}, got {cone!r}")
    return TPM if cone == LPM else LPM


def _orient(X, cone):
    """X (a matrix, a factor or a stack) as its leading-minor twin: itself for
    LPM, its reversal for TPM, whose leading minors are X's trailing ones. The
    reversal is an involution, so the same call takes the twin back.
    ValueError (_opposite) for any other cone."""
    return X if _opposite(cone) == TPM else reverse_matrix(X)


def reverse_pattern(eps):
    """(e_n e_{n-1}, ..., e_n e_1, e_n); identity for n = 1."""
    eps = as_pattern(eps)
    n = len(eps)
    last = eps[-1]
    return tuple(last * eps[n - 1 - j] for j in range(1, n)) + (last,)


def _classify_with_minors(A, cone=LPM, tol=DEFAULT_TOL):
    """classify, plus its minors (of the reversal for TPM), inf past the float range."""
    _check_matrix(np.asarray(A))
    A = symmetrize(A)
    cutoffs = _log_minor_cutoffs(A, tol)
    d = ldl(_orient(A, cone))[1]
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
    and ValueError when A is not one square matrix of size at least 1, tol
    is not finite and >= 0, or cone is neither 'lpm' nor 'tpm'.
    """
    return _classify_with_minors(A, cone, tol)[0]


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
