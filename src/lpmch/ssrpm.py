"""Sign-regular principal minors: membership test and example families.

A symmetric matrix is SSRPM when, for every size k, all of its k x k
principal minors (not just the leading ones) are nonzero and share one
sign. The test visits all 2**n - 1 principal minors, so it is exponential
in n and capped at n = DEFAULT_CAP.

The minors come from the principal-minor recursion of Griffin and
Tsatsomeros (Linear Algebra Appl. 419, 2006): the minors of A without index
0 are those of A22, and the minors with index 0 are a11 times those of the
Schur complement A22 - a21 a12 / a11. Applied one index at a time to a stack
of Schur complements, one per subset of the indices already taken, each
level costs O(2**level (n - level)**2) and yields exactly the minors that
contain its index. The recursion does not pivot: once a Schur complement
entry exceeds _GROWTH times the largest |A_ij|, that level and every later
one take their minors from batched slogdet calls instead.
"""

import math

import numpy as np

from . import _EXPORTS
from .core import DEFAULT_TOL, _check_matrix, _log_minor_cutoffs, scale, symmetrize
from .errors import ComplexFactor, ConstraintViolation, DegenerateParameters, DimensionCap, \
    NonFiniteInput

__all__ = _EXPORTS["ssrpm"]

DEFAULT_CAP = 20
# Largest ratio max|Schur complement entry| / max|A_ij| up to which the minors
# come from the recursion. Its backward error grows in proportion to this
# ratio, and stays near n * 1e-16 * _GROWTH (2e-11 at n = 20) of the largest
# entry, below DEFAULT_TOL.
_GROWTH = 1e4


def is_ssrpm(A, tol=DEFAULT_TOL, cap=DEFAULT_CAP):
    """The common sign pattern of all principal minors, or None.

    Returns the pattern (sign of every k x k principal minor, k = 1..n) when
    one exists and every minor clears classify's cutoff, tested in logs;
    None at the first index whose new minors mix signs within a size or
    fail the cutoff, an exact zero pivot included. Level j of the Schur
    complement recursion yields the minors of every subset whose largest
    index is j; past a Schur complement growth of _GROWTH, the remaining
    levels come from slogdet. An entry with a nonzero imaginary part raises
    ComplexFactor, before any arithmetic; a NaN or infinite entry raises
    NonFiniteInput; an A that is not one square matrix of size at least 1,
    or a tol that is not finite and >= 0, raises ValueError; n > cap raises
    DimensionCap.
    """
    A = np.asarray(A)
    if np.iscomplexobj(A) and A.imag.any():
        raise ComplexFactor("is_ssrpm needs a real matrix; an entry has a nonzero imaginary part")
    A = np.asarray(A.real, dtype=float)
    _check_matrix(A)
    A = symmetrize(A)
    n = A.shape[0]
    cutoffs = _log_minor_cutoffs(A, tol)
    if n > cap:
        raise DimensionCap(f"n={n} exceeds the SSRPM cap {cap}")
    pattern = np.zeros(n, dtype=int)
    # Row t of each array belongs to the subset T of range(level) whose
    # members are the bits of t: its Schur complement on range(level, n),
    # and the sign, log-modulus and size of det A[T, T].
    S = A[np.newaxis]
    sign = np.ones(1)
    log_minor = np.zeros(1)
    size = np.zeros(1, dtype=np.intp)
    bound = _GROWTH * scale(A)
    # A zero pivot fails the cutoff as log 0 = -inf before anything divides
    # by it; an overflow gives an inf or NaN entry, which fails the growth test.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for level in range(n):
            if S is None:
                new_sign, new_log = _slogdets(A, level)
            else:
                pivots = S[:, 0, 0]
                new_sign = sign * np.sign(pivots)
                new_log = log_minor + np.log(np.abs(pivots))
            pattern[level] = new_sign[-1]
            if not (np.all(new_log > cutoffs[size]) and np.all(new_sign == pattern[size])):
                return None
            if level == n - 1:
                break
            if S is not None:
                rest = S[:, 1:, 1:]
                update = rest - S[:, 1:, :1] / pivots[:, None, None] * S[:, :1, 1:]
                S = np.concatenate((rest, update)) if np.abs(update).max() <= bound else None
            sign = np.concatenate((sign, new_sign))
            log_minor = np.concatenate((log_minor, new_log))
            size = np.concatenate((size, size + 1))
    return tuple(pattern.tolist())


def _slogdets(A, level):
    """slogdet of A[T + [level], T + [level]] for every subset T of
    range(level), T in the row order of is_ssrpm's stack. Each minor is
    taken as the determinant of the leading (level+1) x (level+1) block with
    the rows and columns outside the subset replaced by those of the
    identity, in blocks of about 2**level entries."""
    k = level + 1
    rows = max(1, 2**level // k**2)
    lead = A[:k, :k]
    signs, logs = [], []
    for start in range(0, 2**level, rows):
        t = np.arange(start, min(start + rows, 2**level))
        member = ((t[:, np.newaxis] >> np.arange(k)) & 1).astype(bool)
        member[:, level] = True
        inside = member[:, :, np.newaxis] & member[:, np.newaxis, :]
        sign, log = np.linalg.slogdet(np.where(inside, lead, np.eye(k)))
        signs.append(sign)
        logs.append(log)
    return np.concatenate(signs), np.concatenate(logs)


def toeplitz_example(a, b, n):
    """The matrix b*J + (a-b)*Id and its predicted principal-minor pattern.

    Every k x k principal minor equals (a + (k-1)b) * (a-b)**(k-1), so the
    pattern is read off the closed form. A NaN or infinite a or b raises
    NonFiniteInput, n < 1 ConstraintViolation, and degenerate parameters
    (a = b, or a + (k-1)b = 0 for some k) DegenerateParameters.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise NonFiniteInput(f"need finite a and b, got a={a}, b={b}")
    if n < 1:
        raise ConstraintViolation(f"need n >= 1, got {n}")
    if a == b:
        raise DegenerateParameters("a == b makes all 2x2 minors vanish")
    pattern = []
    for k in range(1, n + 1):
        minor = (a + (k - 1) * b) * (a - b) ** (k - 1)
        if minor == 0:
            raise DegenerateParameters(f"a + (k-1)b = 0 at k={k}")
        pattern.append(1 if minor > 0 else -1)
    M = b * np.ones((n, n)) + (a - b) * np.eye(n)
    return M, tuple(pattern)


def almost_n_example(a, b, c, n):
    """An almost-N matrix: all proper principal minors negative, det positive.

    Built as the Toeplitz example with the last diagonal entry replaced by c;
    the parameters must satisfy 0 > a > b and
    (n-2)b^2/(a+(n-3)b) < c < (n-1)b^2/(a+(n-2)b) < 0.
    """
    if n < 3:
        raise ConstraintViolation(f"need n >= 3, got {n}")
    if not a < 0:
        raise ConstraintViolation(f"need a < 0, got a={a}")
    if not b < a:
        raise ConstraintViolation(f"need b < a, got a={a}, b={b}")
    lower = (n - 2) * b**2 / (a + (n - 3) * b)
    upper = (n - 1) * b**2 / (a + (n - 2) * b)
    if not upper < 0:
        raise ConstraintViolation(f"need (n-1)b^2/(a+(n-2)b) < 0, got {upper}")
    if not lower < c:
        raise ConstraintViolation(f"need c > (n-2)b^2/(a+(n-3)b) = {lower}, got c={c}")
    if not c < upper:
        raise ConstraintViolation(f"need c < (n-1)b^2/(a+(n-2)b) = {upper}, got c={c}")
    M, _ = toeplitz_example(a, b, n)
    M[n - 1, n - 1] = c
    return M
