"""Domain errors raised by the cone machinery.

Each error name doubles as the CLI's machine-readable failure tag.
"""

import math


class LpmchError(Exception):
    """Base class for all domain errors."""


class MinorNearZero(LpmchError):
    """A leading/trailing principal minor is zero up to tolerance."""

    def __init__(self, k, value=None):
        self.k = k
        self.value = value
        super().__init__(f"principal minor {k} is zero up to tolerance (value={value})")


class NonFiniteInput(LpmchError):
    """An input matrix entry, a time or a power is NaN or infinite."""


class SingularMatrix(LpmchError):
    pass


class PatternMismatch(LpmchError):
    pass


class NegativeRadicand(LpmchError):
    """The squared diagonal entry in the factorization is not positive and finite.

    A non-finite one comes from a zero pivot of the basis."""

    def __init__(self, j, value):
        self.j = j
        self.value = value
        if not math.isfinite(value):
            what = f"non-finite radicand {value}"
        elif value <= 0:
            what = f"nonpositive radicand {value}"
        else:
            what = f"radicand {value} at or below the tolerance"
        super().__init__(f"{what} at diagonal position {j}")


class ComplexFactor(LpmchError):
    """A factor has a nonzero imaginary part where only real scalars work."""


class ConeKindMismatch(LpmchError):
    pass


class DimensionCap(LpmchError):
    pass


class DegenerateParameters(LpmchError):
    pass


class ConstraintViolation(LpmchError):
    pass


class SpecInvalid(LpmchError):
    pass


class GroupMismatch(LpmchError):
    pass
