"""Sign-regular principal minors: membership test and example families.

A symmetric matrix is SSRPM when, for every size k, all of its k x k
principal minors (not just the leading ones) are nonzero and share one
sign. The test is exponential in n and capped accordingly.
"""

from itertools import combinations, islice

import numpy as np

from .core import DEFAULT_TOL, _check_finite, _log_minor_cutoffs, symmetrize
from .errors import ConstraintViolation, DegenerateParameters, DimensionCap

__all__ = ["is_ssrpm", "toeplitz_example", "almost_n_example", "DEFAULT_CAP"]

DEFAULT_CAP = 14
# Principal minors per batched slogdet call, which keeps memory flat for any cap.
_CHUNK = 4096


def is_ssrpm(A, tol=DEFAULT_TOL, cap=DEFAULT_CAP):
    """The common sign pattern of all principal minors, or None.

    Returns the pattern (sign of every k x k principal minor, k = 1..n) when
    one exists and every minor clears classify's cutoff, tested in logs from
    slogdet; None as soon as some size is mixed-sign or some minor is zero up
    to tolerance. A NaN or infinite entry raises NonFiniteInput, and a tol
    that is not finite and >= 0 raises ValueError.
    """
    A = np.asarray(A, dtype=float)
    _check_finite(A)
    A = symmetrize(A)
    n = A.shape[0]
    cutoffs = _log_minor_cutoffs(A, tol)
    if n > cap:
        raise DimensionCap(f"n={n} exceeds the SSRPM cap {cap}")
    pattern = []
    for k in range(1, n + 1):
        sign_k = 0
        subsets = combinations(range(n), k)
        while chunk := list(islice(subsets, _CHUNK)):
            idx = np.array(chunk)
            signs, log_minors = np.linalg.slogdet(A[idx[:, :, None], idx[:, None, :]])
            sign_k = sign_k or int(signs[0])
            if not np.all(log_minors > cutoffs[k - 1]) or np.any(signs != sign_k):
                return None
        pattern.append(sign_k)
    return tuple(pattern)


def toeplitz_example(a, b, n):
    """The matrix b*J + (a-b)*Id and its predicted principal-minor pattern.

    Every k x k principal minor equals (a + (k-1)b) * (a-b)**(k-1), so the
    pattern is read off the closed form. Degenerate parameters (a = b, or
    a + (k-1)b = 0 for some k) are rejected.
    """
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
