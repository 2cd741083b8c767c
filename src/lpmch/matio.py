"""Matrix file I/O: JSON objects {"dim": n, "rows": [[...]]} or plain CSV.

The format is picked by extension (.json vs anything else treated as CSV).
All numbers are printed with 17 significant digits so that parsing our own
output reproduces values bit-exactly.
"""

import csv
import json
from functools import lru_cache
from itertools import chain
from operator import itemgetter

import numpy as np

__all__ = ["read_matrix", "write_matrix", "format_float", "matrix_to_json_line"]


def format_float(x):
    return "%.17g" % float(x)


def _rows_to_matrix(rows, source):
    try:
        A = np.array([[float(x) for x in row] for row in rows], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{source}: non-numeric matrix entry ({exc})") from None
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise ValueError(f"{source}: expected a nonempty square matrix, "
                         f"got shape {A.shape}")
    return A


def read_matrix(path):
    """Load a square matrix from a JSON or CSV file. A JSON "dim", when
    given, must be an integer (not a boolean, a fraction or a string) equal
    to the number of rows; ValueError otherwise."""
    if path.endswith(".json"):
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or "rows" not in data:
            raise ValueError(f'{path}: expected an object with "dim" and "rows"')
        A = _rows_to_matrix(data["rows"], path)
        dim = data.get("dim", A.shape[0])
        if type(dim) is not int:
            raise ValueError(f'{path}: "dim" must be an integer, got {json.dumps(dim)}')
        if dim != A.shape[0]:
            raise ValueError(f'{path}: "dim" {dim} does not match {A.shape[0]} rows')
        return A
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    return _rows_to_matrix(rows, path)


@lru_cache
def _json_line_template(rows, cols, field="%.17g"):
    """The % template of matrix_to_json_line for a rows x cols matrix: one
    field per entry, %.17g (the format of format_float) or %s for entries
    already formatted."""
    row = "[" + ", ".join([field] * cols) + "]"
    return '{"dim": %d, "rows": [%s]}' % (rows, ", ".join([row] * rows))


@lru_cache
def _lower_triangle(n):
    """The row and column indices of the lower triangle of an n x n matrix,
    row by row, and an itemgetter that picks the n * n entries of a
    symmetric matrix, row by row, from that list of its entries (n >= 2; for
    n = 1 an itemgetter returns a bare item, not a tuple)."""
    i, j = np.indices((n, n))
    low, high = np.maximum(i, j), np.minimum(i, j)
    return (*np.tril_indices(n), itemgetter(*(low * (low + 1) // 2 + high).ravel().tolist()))


def _json_lines(stack):
    """The matrix_to_json_line of each matrix of an (m, rows, cols) stack,
    each ended by a newline, as one string.

    A bitwise symmetric stack of matrices larger than 1 x 1 has each mirrored
    pair of entries formatted once. Symmetry is tested on the int64 view,
    not with ==, because 0.0 and -0.0 print differently.
    """
    stack = np.ascontiguousarray(stack, dtype=float)
    m, rows, cols = stack.shape
    bits = stack.view(np.int64)
    if rows == cols > 1 and np.array_equal(bits, bits.transpose(0, 2, 1)):
        i, j, pick = _lower_triangle(rows)
        low = stack[:, i, j].ravel()
        text = ("%.17g " * low.size % tuple(low.tolist())).split()
        entries = chain.from_iterable(pick(text[a:a + i.size])
                                      for a in range(0, low.size, i.size))
        line = _json_line_template(rows, cols, "%s")
    else:
        entries = stack.ravel().tolist()
        line = _json_line_template(rows, cols)
    return (line + "\n") * m % tuple(entries)


def matrix_to_json_line(A):
    """One-line JSON rendering with full-precision entries."""
    return _json_lines(np.asarray(A, dtype=float)[np.newaxis])[:-1]


def write_matrix(A, path=None, stream=None):
    """Write a matrix as JSON or CSV depending on the target extension."""
    A = np.asarray(A, dtype=float)
    if path is None:
        print(matrix_to_json_line(A), file=stream)
        return
    if path.endswith(".json"):
        with open(path, "w") as fh:
            fh.write(matrix_to_json_line(A) + "\n")
        return
    with open(path, "w") as fh:
        fh.writelines(",".join(map(format_float, row)) + "\n" for row in A)
