"""Matrix file I/O: JSON objects {"dim": n, "rows": [[...]]} or plain CSV.

The format is picked by extension (.json vs anything else treated as CSV).
All numbers are printed with 17 significant digits so that parsing our own
output reproduces values bit-exactly.
"""

import csv
import json
from functools import lru_cache

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
def _json_line_template(rows, cols):
    """The % template of matrix_to_json_line for a rows x cols matrix: one
    %.17g field (the format of format_float) per entry."""
    row = "[" + ", ".join(["%.17g"] * cols) + "]"
    return '{"dim": %d, "rows": [%s]}' % (rows, ", ".join([row] * rows))


def matrix_to_json_line(A):
    """One-line JSON rendering with full-precision entries."""
    A = np.asarray(A, dtype=float)
    return _json_line_template(*A.shape) % tuple(A.ravel().tolist())


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
