"""The per-point API edge: the points the samplers and cone_compose build and
the triangularity check, each against the definition it replaces. The
triangularity tests keep their names from when small sizes gathered the
strict upper triangle; the check now reads it through np.triu at every size."""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_factor
from lpmch import (
    ConePoint,
    DistributionSpec,
    RngStream,
    cholesky_normal_sample,
    cone_compose,
    inertial_clone_sample,
    inverse_wishart_sample,
    is_lower_triangular,
    wishart_sample,
)
from lpmch import cholesky
from lpmch.errors import PatternMismatch

FIELDS = [f.name for f in dataclasses.fields(ConePoint)]
# The fields ConePoint's __init__ sets on the instance; the others keep their
# class defaults until a factor is cached.
INIT_FIELDS = [f.name for f in dataclasses.fields(ConePoint) if f.init]


def dataclass_points(M, cone, patterns):
    """The points of a matrix stack as ConePoint's own __init__ makes them,
    each with its own pattern tuple."""
    rows = np.broadcast_to(np.asarray(patterns, dtype=int), M.shape[:-1]).tolist()
    return [ConePoint(matrix=Mi, cone=cone, pattern=tuple(p)) for Mi, p in zip(M, rows)]


def specs(cone, n=3):
    rng = np.random.default_rng(n)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sigma = (Q * rng.uniform(0.5, 2.0, n)) @ Q.T
    eps = (1, -1, -1)
    base = DistributionSpec(kind="wishart", pattern=(1,) * n, sigma=sigma, dof=n + 2)
    m0 = cone_compose(random_factor(rng, n), eps, cone)
    m = n * (n + 1) // 2
    return {
        "wishart": (wishart_sample, DistributionSpec(
            kind="wishart", pattern=eps, cone=cone, sigma=sigma, dof=n + 2)),
        "inverse_wishart": (inverse_wishart_sample, DistributionSpec(
            kind="inverse_wishart", pattern=eps, cone=cone, sigma=sigma, dof=n + 2)),
        "cholesky_normal": (cholesky_normal_sample, DistributionSpec(
            kind="cholesky_normal", cone=cone, m0=m0, sigma_tilde=0.02 * np.eye(m))),
        "clone_k": (inertial_clone_sample, DistributionSpec(
            kind="inertial_clone", cone=cone, base=base, k=1)),
        "clone_all": (inertial_clone_sample, DistributionSpec(
            kind="inertial_clone", cone=cone, base=base, all_cones=True)),
    }


def assert_same_point(p, q, cached=False):
    """p and q hold the same fields, set the same way, and behave alike as
    dataclass instances; they are still two points. With cached, both carry
    the same cached factor, else neither carries one."""
    assert type(p) is ConePoint
    assert p.matrix.dtype == q.matrix.dtype and p.matrix.shape == q.matrix.shape
    # tobytes, not array_equal: -0.0 and 0.0 must not pass for each other.
    assert p.matrix.tobytes() == q.matrix.tobytes()
    assert (p.cone, p.pattern, p.tolerance_used) == (q.cone, q.pattern, q.tolerance_used)
    assert all(type(e) is int for e in p.pattern)
    if cached:
        assert [a.tobytes() for a in p._factor_cache] == [a.tobytes() for a in q._factor_cache]
    else:
        assert p._factor_cache is None and q._factor_cache is None
    # Every field has a value, and the instance holds the same fields, in the
    # same order, as one that __init__ made: a field added later cannot be
    # left unset, or set where __init__ does not set it, unnoticed.
    assert all(hasattr(p, name) for name in FIELDS)
    held = INIT_FIELDS + ["_factor_cache"] * cached
    assert list(vars(p)) == held == list(vars(q))
    assert repr(p) == repr(q)
    assert pickle.dumps(p) == pickle.dumps(q)
    back = pickle.loads(pickle.dumps(p))
    assert back.matrix.tobytes() == p.matrix.tobytes() and back.pattern == p.pattern
    assert list(vars(back)) == held
    shallow = copy.copy(p)
    assert shallow.matrix is p.matrix and shallow.pattern is p.pattern
    assert list(vars(shallow)) == held
    replaced = dataclasses.replace(p, tolerance_used=1e-8)
    assert replaced.matrix is p.matrix and replaced.pattern == p.pattern
    assert replaced.tolerance_used == 1e-8 and replaced._factor_cache is None
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.cone = "tpm"
    # Equality is identity, as for every ConePoint.
    assert p == p and p != q and p != shallow


@pytest.mark.parametrize("size", (None, 0, 1, 4))
@pytest.mark.parametrize("cone", ("lpm", "tpm"))
@pytest.mark.parametrize("law", ("wishart", "inverse_wishart", "cholesky_normal",
                                 "clone_k", "clone_all"))
def test_sampler_points_are_the_dataclass_points(law, cone, size, monkeypatch):
    sample, spec = specs(cone)[law]
    got = sample(RngStream(7, 1), spec, size=size)
    monkeypatch.setattr(cholesky, "_points", dataclass_points)
    want = sample(RngStream(7, 1), spec, size=size)
    if size is None:
        got, want = [got], [want]
    assert len(got) == len(want) == (1 if size is None else size)
    for p, q in zip(got, want):
        assert_same_point(p, q)
    if not law.startswith("clone"):
        assert len({id(p.pattern) for p in got}) <= 1


@pytest.mark.parametrize("cone", ("lpm", "tpm"))
def test_cone_compose_point_is_the_dataclass_point(cone, monkeypatch):
    L = random_factor(np.random.default_rng(5), 4)
    L[3, 0] = -0.0
    got = cone_compose(L, (1, -1, 1, 1), cone)
    monkeypatch.setattr(cholesky, "_points", dataclass_points)
    want = cone_compose(L, (1, -1, 1, 1), cone)
    assert got._factor_cache[1].tobytes() == L.tobytes()
    assert_same_point(got, want, cached=True)


@pytest.mark.parametrize("pattern", ((1,), (1, -1)))
def test_cone_compose_refuses_a_pattern_of_another_length(pattern):
    with pytest.raises(PatternMismatch):
        cone_compose(np.eye(3), pattern)


# -- is_lower_triangular ------------------------------------------------------

def triu_definition(L, tol=0.0):
    """is_lower_triangular as np.triu defines it."""
    L = np.asarray(L)
    if L.ndim < 2 or L.shape[-1] != L.shape[-2]:
        return False
    upper_ok = np.all(np.abs(np.triu(L, 1)) <= tol)
    diag = np.diagonal(L, axis1=-2, axis2=-1)
    return bool(upper_ok and np.all(diag.real > 0) and np.all(diag.imag == 0))


SPECIAL = (0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-3, -1e-3, 1.0, -2.0)
entries = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def candidates(draw):
    """A matrix or a stack (possibly empty), lower triangular with a positive
    diagonal or not, real or complex."""
    shape = tuple(draw(st.lists(st.integers(0, 3), max_size=2))) + (draw(st.integers(0, 5)),) * 2
    A = np.array(draw(st.lists(entries, min_size=math.prod(shape), max_size=math.prod(shape))),
                 dtype=float).reshape(shape)
    n = shape[-1]
    if draw(st.booleans()):
        A = np.tril(A, -1) + np.eye(n) * draw(st.sampled_from((1.0, 2.5, 1e-300)))
        if n > 1 and A.size and draw(st.booleans()):
            i, j = draw(st.integers(0, n - 2)), n - 1
            A[..., i, j] = draw(st.sampled_from(SPECIAL))
    if draw(st.booleans()):
        A = A + 1j * np.eye(n) * draw(st.sampled_from((0.0, -0.0, 1.0, np.nan)))
    return A


@settings(max_examples=300, deadline=None)
@given(candidates(), st.sampled_from((0.0, 1e-3, 1.0, np.inf, -1.0, np.nan)))
def test_gathered_triangularity_check_agrees_with_triu(A, tol):
    assert is_lower_triangular(A, tol) == triu_definition(A, tol)
    assert is_lower_triangular(A) == triu_definition(A)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((31, 32, 33, 40)), st.integers(0, 2), st.integers(0, 40),
       st.integers(0, 40), st.sampled_from(SPECIAL + (1j, 1 + 1e-300j)),
       st.sampled_from((0.0, 1e-3, -1.0, np.nan)))
def test_triangularity_check_agrees_with_triu_on_both_sides_of_the_gather(
        n, stack, i, j, value, tol):
    """Sizes on either side of the largest one checked by the gather: one
    entry anywhere in a lower triangular matrix, or in a stack of them."""
    A = np.tril(np.ones((n, n)), -1) + 2 * np.eye(n)
    A = np.array(np.broadcast_to(A, (stack, n, n)) if stack else A,
                 dtype=complex if isinstance(value, complex) else float)
    A[..., i % n, j % n] = value
    assert is_lower_triangular(A, tol) == triu_definition(A, tol)


@pytest.mark.parametrize("A", (np.ones(3), np.ones((2, 3)), np.ones((2, 3, 4)), 1.0))
def test_triangularity_check_needs_square_matrices(A):
    assert is_lower_triangular(A) is False and triu_definition(A) is False


def with_entry(n, i, j, value, stack=None):
    """The n x n identity (complex when value is), or a stack of them, with
    entry (i, j) of its last matrix set to value."""
    A = np.eye(n, dtype=complex if isinstance(value, complex) else float)
    if stack is not None:
        A = np.array(np.broadcast_to(A, (stack, n, n)))
    (A if stack is None else A[-1])[i, j] = value
    return A


TRUTH_TABLE = [
    # (matrix, tol, expected)
    (np.eye(3), 0.0, True),
    (with_entry(3, 0, 2, np.nan), 0.0, False),
    (with_entry(3, 0, 2, np.nan), np.inf, False),
    (with_entry(3, 0, 2, np.inf), 0.0, False),
    (with_entry(3, 0, 2, np.inf), np.inf, True),
    (with_entry(3, 2, 0, np.nan), 0.0, True),  # below the diagonal: not read
    (with_entry(3, 1, 1, np.nan), 0.0, False),
    (with_entry(3, 1, 1, np.inf), 0.0, True),
    (with_entry(3, 1, 1, -np.inf), 0.0, False),
    (with_entry(3, 1, 1, 0.0), 0.0, False),
    (with_entry(3, 1, 1, -0.0), 0.0, False),
    (with_entry(3, 1, 1, 5e-324), 0.0, True),
    (with_entry(3, 0, 1, -0.0), 0.0, True),
    (with_entry(3, 0, 1, -0.0), -1.0, False),
    (with_entry(3, 0, 1, 1e-3), 1e-3, True),
    (with_entry(3, 0, 1, 2e-3), 1e-3, False),
    (with_entry(3, 1, 1, 1 + 0j), 0.0, True),
    (with_entry(3, 1, 1, 1 - 0j), 0.0, True),
    (with_entry(3, 1, 1, 1 + 1e-300j), 0.0, False),
    (with_entry(3, 1, 1, complex(1, np.nan)), 0.0, False),
    (with_entry(3, 0, 2, 1j), 0.0, False),
    (with_entry(3, 0, 2, 1j), 1.0, True),
    (np.eye(3), -1.0, False),
    (np.eye(3), np.nan, False),
    (np.eye(1), -1.0, False),
    (np.eye(1), np.nan, False),
    (np.zeros((0, 0)), 0.0, True),
    (np.zeros((0, 0)), -1.0, True),
    (np.zeros((0, 0)), np.nan, True),
    (np.zeros((0, 3, 3)), np.nan, True),
    (np.zeros((2, 0, 0)), -1.0, True),
    (with_entry(3, 0, 1, 0.0, stack=4), 0.0, True),
    (with_entry(3, 0, 1, np.nan, stack=4), 0.0, False),
    (with_entry(3, 2, 2, -1.0, stack=4), 0.0, False),
    (with_entry(3, 0, 1, 1e-3, stack=4), 1e-3, True),
    (with_entry(3, 0, 1, -0.0, stack=4), np.nan, False),
    (with_entry(33, 0, 32, -0.0), 0.0, True),
    (with_entry(33, 0, 32, np.nan), 0.0, False),
    (with_entry(33, 0, 32, 1e-3, stack=2), 1e-3, True),
    (with_entry(33, 5, 5, np.nan, stack=2), 0.0, False),
]


@pytest.mark.parametrize("A, tol, expected", TRUTH_TABLE)
def test_triangularity_truth_table(A, tol, expected):
    """NaN and infinite entries, -0.0 above the diagonal, complex diagonals,
    a tol below 0 or NaN, empty matrices and stacks, on both sides of the
    gather's largest size."""
    assert is_lower_triangular(A, tol) is expected
    assert triu_definition(A, tol) is expected

