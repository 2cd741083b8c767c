"""Direct sums and Kronecker products of sign patterns and cone points."""

import numpy as np

from .core import LPM, ConePoint, as_pattern, canonical_signs, symmetrize
from .errors import ConeKindMismatch

__all__ = ["dsum_pattern", "dsum_matrix", "tensor_pattern", "tensor_matrix"]


def dsum_pattern(eps, eps2):
    """(e_1, ..., e_n; e_n*e'_1, ..., e_n*e'_m): the pattern of a block sum."""
    eps, eps2 = as_pattern(eps), as_pattern(eps2)
    last = eps[-1]
    return eps + tuple(last * e for e in eps2)


def _block_diag(A, B):
    n, m = A.shape[0], B.shape[0]
    out = np.zeros((n + m, n + m), dtype=np.result_type(A, B))
    out[:n, :n] = A
    out[n:, n:] = B
    return out


def dsum_matrix(A, B):
    """Block-diagonal sum of two cone points of the same kind.

    Trailing minors of a block sum are read off the second block first, so
    for trailing-minor points the patterns combine in swapped order (this is
    exactly what the reversal map dictates).
    """
    if A.cone != B.cone:
        raise ConeKindMismatch(f"cone kinds differ: {A.cone} vs {B.cone}")
    if A.cone == LPM:
        pattern = dsum_pattern(A.pattern, B.pattern)
    else:
        pattern = dsum_pattern(B.pattern, A.pattern)
    M = _block_diag(A.matrix, B.matrix)
    return ConePoint(matrix=symmetrize(M), cone=A.cone, pattern=pattern,
                     tolerance_used=max(A.tolerance_used, B.tolerance_used))


def tensor_pattern(eps, eps2):
    """Pattern of the Kronecker product, read off the tensored diagonals.

    The canonical diagonal of the result is the Kronecker product of the
    canonical diagonals; cumulative products of its entries recover the
    pattern (e_k = e_{k-1} * d_k with e_0 = 1).
    """
    d = np.kron(canonical_signs(eps), canonical_signs(eps2))
    return tuple(int(s) for s in np.cumprod(d))


def tensor_matrix(A, B):
    """Kronecker product of two cone points of the same kind."""
    if A.cone != B.cone:
        raise ConeKindMismatch(f"cone kinds differ: {A.cone} vs {B.cone}")
    return ConePoint(matrix=symmetrize(np.kron(A.matrix, B.matrix)), cone=A.cone,
                     pattern=tensor_pattern(A.pattern, B.pattern),
                     tolerance_used=max(A.tolerance_used, B.tolerance_used))
