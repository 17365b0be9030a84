"""Newton oracles for the graded curve root and the series inverse.

``solve_curve_root`` and ``fps.inverse`` solve grade by grade on the
kernel rows.  The bottom-up Newton iteration at precisions 1, 3, 7, ...
kept here is an independent route to the same series, and both graded
solvers must reproduce it exactly: on the brane curves of the library
geometries, and on dense drawn series over frames of three and four
generators, whose grade slices have several rows with holes.
"""

import json
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings

from syzmirror import Frame, TruncatedSeries, inverse
from syzmirror.cli import parse_job
from syzmirror.mirror import evaluate_curve, solve_curve_root
from tests.conftest import brane_table, dense_series, random_series

ROOT = Path(__file__).resolve().parent.parent
GEOMETRIES = {
    "local_p2": ROOT / "jobs" / "local_p2.json",
    "conifold": ROOT / "jobs" / "conifold.json",
    "local_p1xp1": ROOT / "perfbench" / "jobs" / "local_p1xp1.json",
}


def _lift(s, order):
    return TruncatedSeries(s.frame, order, dict(s.terms.items()))


def _horner(table, point, order):
    degree = max(table)
    acc = table[degree].truncate(order)
    for e in range(degree - 1, -1, -1):
        acc = acc * point
        if e in table:
            acc = acc + table[e].truncate(order)
    return acc


def bottom_up_inverse(s):
    g = TruncatedSeries.constant(s.frame, 0, 1 / s.constant_term())
    while g.order < s.order:
        g = _lift(g, min(2 * g.order + 1, s.order))
        g = g + g * (1 - s.truncate(g.order) * g)
    return g


def bottom_up_root(table, frame, order):
    """Newton from the grade-0 root -1 at precisions 1, 3, 7, ..., order."""
    shift = max(0, -min(table))
    poly = {e + shift: s for e, s in table.items()}
    derivative = {e - 1: s * e for e, s in poly.items() if e}
    slope = sum(s.constant_term() * e * (-1) ** (e - 1) for e, s in poly.items() if e)
    z2 = TruncatedSeries.constant(frame, 0, -1)
    h = TruncatedSeries.constant(frame, 0, 1 / slope)
    while z2.order < order:
        if z2.order:
            h = _lift(h, z2.order)
            h = h + h * (1 - _horner(derivative, z2, z2.order) * h)
        precision = min(2 * z2.order + 1, order)
        z2 = _lift(z2, precision)
        z2 = z2 - _horner(poly, z2, precision) * _lift(h, precision)
    return z2


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_root_and_inverse_match_bottom_up_newton(name):
    job = parse_job(json.loads(GEOMETRIES[name].read_text()))
    for order in range(1, 13):
        bframe, table = brane_table(job.toric, job.brane, order)
        root = solve_curve_root(table, bframe.frame, order)
        assert evaluate_curve(table, root, bframe.frame, order).is_zero(), (name, order)
        assert root == bottom_up_root(table, bframe.frame, order), (name, order)
        units = [root] + [s for s in table.values() if s.constant_term() != 0]
        for unit in units:
            assert inverse(unit) == bottom_up_inverse(unit), (name, order)


@settings(max_examples=40, deadline=None)
@given(dense_series(3))
@example(random_series(3, 10, 3, 1.0, random.Random(5)))
@example(random_series(4, 6, 3, 0.5, random.Random(6)))
def test_dense_inverse_matches_bottom_up_newton(s):
    g = inverse(s)
    assert g == bottom_up_inverse(s)
    assert s * g == TruncatedSeries.one(s.frame, s.order)


@settings(max_examples=25, deadline=None)
@given(dense_series(0))
@example(random_series(4, 5, 0, 1.0, random.Random(7)))
def test_dense_root_matches_bottom_up_newton(t):
    # W = (1 + t) + (1 - t) z + t z^2 - t^2 z^3 has the simple grade-0 root -1
    table = {0: 1 + t, 1: 1 - t, 2: t, 3: -(t * t)}
    root = solve_curve_root(table, t.frame, t.order)
    assert evaluate_curve(table, root, t.frame, t.order).is_zero()
    assert root == bottom_up_root(table, t.frame, t.order)


def test_constant_inverse_is_immediate():
    frame = Frame(names=("a", "b"))
    assert inverse(TruncatedSeries.constant(frame, 9, -3)) == TruncatedSeries.constant(
        frame, 9, "-1/3"
    )
