"""Fraction-free elimination in ``lattice`` checked against sympy and brute force."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syzmirror.lattice import independent_columns, row_reduce

sympy = pytest.importorskip("sympy")

entries = st.integers(min_value=-3, max_value=3)


def matrices(rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def square(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    rows = draw(matrices(n, n))
    if n > 1 and draw(st.booleans()):
        # make the first row a combination of two others: singular
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[0] = [a * x + b * y for x, y in zip(rows[1], rows[-1])]
    return rows


wide = st.tuples(st.integers(1, 3), st.integers(1, 5)).flatmap(lambda s: matrices(*s))


def first_independent_subset(rows):
    """Reference: the first k-subset of columns, in combinations order, with nonzero minor."""
    k = len(rows)
    for cols in itertools.combinations(range(len(rows[0])), k):
        if sympy.Matrix([[row[c] for c in cols] for row in rows]).det() != 0:
            return cols
    return None


def assert_matches_rref(matrix, rows, pivots):
    assert all(type(x) is int for row in rows for x in row)
    expected, expected_pivots = sympy.Matrix(matrix).rref()
    assert pivots == list(expected_pivots)
    assert len(pivots) == sympy.Matrix(matrix).rank()
    lead = rows[0][pivots[0]] if pivots else 1
    assert all(row[p] == lead for row, p in zip(rows, pivots))
    assert sympy.Matrix(rows) / lead == expected


@settings(max_examples=300, deadline=None)
@given(square())
def test_det_matches_sympy(matrix):
    rows, pivots, det = row_reduce(matrix)
    assert type(det) is int
    assert det == sympy.Matrix(matrix).det()
    assert_matches_rref(matrix, rows, pivots)


@settings(max_examples=150, deadline=None)
@given(wide)
def test_rref_and_rank_match_sympy(matrix):
    rows, pivots, _ = row_reduce(matrix)
    assert_matches_rref(matrix, rows, pivots)


@settings(max_examples=150, deadline=None)
@given(wide)
def test_pivots_are_first_independent_subset(matrix):
    assert independent_columns(matrix) == first_independent_subset(matrix)


def test_empty_matrix():
    assert row_reduce([]) == ([], [], 1)
    assert independent_columns([]) == ()
