"""Exact elimination in ``lattice`` checked against sympy and brute force."""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syzmirror.lattice import det_int, independent_columns, row_reduce, solve_exact

sympy = pytest.importorskip("sympy")

entries = st.integers(min_value=-3, max_value=3)


def matrices(rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


square = st.integers(min_value=1, max_value=4).flatmap(lambda n: matrices(n, n))
wide = st.tuples(st.integers(1, 3), st.integers(1, 5)).flatmap(lambda s: matrices(*s))


def first_independent_subset(rows):
    """Reference: the first k-subset of columns, in combinations order, with nonzero minor."""
    k = len(rows)
    for cols in itertools.combinations(range(len(rows[0])), k):
        if sympy.Matrix([[row[c] for c in cols] for row in rows]).det() != 0:
            return cols
    return None


@settings(max_examples=150, deadline=None)
@given(square)
def test_det_matches_sympy(matrix):
    assert det_int(matrix) == sympy.Matrix(matrix).det()


@settings(max_examples=150, deadline=None)
@given(wide)
def test_rref_and_rank_match_sympy(matrix):
    rows, pivots, _ = row_reduce(matrix)
    expected, expected_pivots = sympy.Matrix(matrix).rref()
    assert pivots == list(expected_pivots)
    assert len(pivots) == sympy.Matrix(matrix).rank()
    assert rows == [[F(int(x.p), int(x.q)) for x in expected.row(r)] for r in range(len(matrix))]


@settings(max_examples=150, deadline=None)
@given(square, st.data())
def test_solve_none_exactly_when_singular(matrix, data):
    n = len(matrix)
    rhs = data.draw(st.lists(entries, min_size=n, max_size=n))
    sol = solve_exact(matrix, rhs)
    a = sympy.Matrix(matrix)
    if a.det() == 0:
        assert sol is None
    else:
        expected = a.LUsolve(sympy.Matrix(rhs))
        assert sol == [F(int(x.p), int(x.q)) for x in expected]
        assert [sum(r * x for r, x in zip(row, sol)) for row in matrix] == rhs


@settings(max_examples=150, deadline=None)
@given(wide)
def test_pivots_are_first_independent_subset(matrix):
    assert independent_columns(matrix) == first_independent_subset(matrix)


def test_empty_matrix():
    assert det_int([]) == 1
    assert solve_exact([], []) == []
    assert independent_columns([]) == ()
