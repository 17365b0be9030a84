"""The graded brane root: its residual, its precondition and closed forms.

``solve_curve_root`` solves ``z2^shift * W = 0`` grade by grade from the
simple grade-0 root -1, so the residual is zero through the truncation
order by construction.  These tests audit that residual with
``evaluate_curve`` on random curve tables, check that a grade-0 part
without a simple root at -1 is refused, check that the root at one
order truncates to the root at every lower order (order 0 included),
and to the root of the same table solved at that order, and check the
root of every shipped brane table against the explicit solution of a
linear or quadratic equation, and of cubics and a quintic with a known
linear factor.
"""

import json
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from syzmirror import TruncatedSeries, inverse, log_series
from syzmirror.cli import parse_job
from syzmirror.errors import BranchError
from syzmirror.mirror import brane_frame, evaluate_curve, solve_curve_root
from tests.conftest import brane_table

ROOT = Path(__file__).resolve().parent.parent
JOBS = {
    "local_p2": ROOT / "jobs" / "local_p2.json",
    "conifold": ROOT / "jobs" / "conifold.json",
    "c3": ROOT / "jobs" / "c3.json",
    "local_p1xp1": ROOT / "perfbench" / "jobs" / "local_p1xp1.json",
}


def _job(name):
    job = parse_job(json.loads(JOBS[name].read_text()))
    return job.toric, job.brane


def shipped_table(name, order):
    bframe, table = brane_table(*_job(name), order)
    return table, bframe.frame


FRAMES = {name: brane_frame(*_job(name)).frame for name in ("local_p2", "conifold", "local_p1xp1")}


@st.composite
def curve_tables(draw):
    """A table of z2-degree 1 to 3 whose grade-0 part has a simple root at -1."""
    frame = FRAMES[draw(st.sampled_from(sorted(FRAMES)))]
    order = draw(st.integers(min_value=1, max_value=12))
    degree = draw(st.integers(min_value=1, max_value=3))
    lowest = -draw(st.integers(min_value=0, max_value=1))
    constants = {e: draw(st.integers(min_value=-3, max_value=3)) for e in range(1, degree + 1)}
    constants[0] = -sum(c * (-1) ** e for e, c in constants.items())
    slope = sum(c * e * (-1) ** (e - 1) for e, c in constants.items() if e)
    assume(slope != 0)
    # small exponents give dense roots, large ones isolated high grades
    spread = draw(st.sampled_from((2, order)))
    table = {}
    for e, c in constants.items():
        terms = {(0,) * frame.nvars: Fraction(c)}
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            exps = tuple(draw(st.integers(min_value=0, max_value=spread)) for _ in frame.names)
            if 1 <= frame.grade(exps) <= order:
                terms[exps] = Fraction(
                    draw(st.integers(min_value=-5, max_value=5)),
                    draw(st.integers(min_value=1, max_value=3)),
                )
        table[e + lowest] = TruncatedSeries(frame, order, terms)
    return table, frame, order


@settings(max_examples=60, deadline=None)
@given(curve_tables())
def test_certificate_agrees_with_evaluation(case):
    table, frame, order = case
    root = solve_curve_root(table, frame, order)
    assert evaluate_curve(table, root, frame, order).is_zero()


@pytest.mark.parametrize("name", ["local_p2", "local_p1xp1"])
def test_root_truncates_to_the_root_of_every_lower_order(name):
    table, frame = shipped_table(name, 10)
    root = solve_curve_root(table, frame, 10)
    assert root.order == 10
    for order in range(10):
        lower = {e: s.truncate(order) for e, s in table.items()}
        assert solve_curve_root(lower, frame, order) == root.truncate(order), order
        # the order-10 table itself is cut to the order asked for
        assert solve_curve_root(table, frame, order) == root.truncate(order), order


@pytest.mark.parametrize(
    "constants, value, slope",
    [
        ({0: 1, 1: 2, 2: 1}, 0, 0),  # (z2 + 1)^2: a double root at -1
        ({0: 2, 1: 1}, 1, 1),  # z2 + 2: -1 is not a root
        ({-1: 1, 0: 2, 1: 1}, 0, 0),  # (z2 + 1)^2 / z2, lifted by z2
        ({0: 3}, 3, 0),  # no z2 at all
    ],
)
def test_grade0_without_a_simple_root_at_minus_one_is_refused(constants, value, slope):
    frame = FRAMES["local_p2"]
    order = 4
    table = {
        e: TruncatedSeries(frame, order, {(0, 0): Fraction(c), (1, 0): Fraction(e + 3)})
        for e, c in constants.items()
    }
    with pytest.raises(BranchError) as raised:
        solve_curve_root(table, frame, order)
    message = str(raised.value)
    assert f"value {value}, slope {slope}" in message, message
    assert "-1" in message


@pytest.mark.parametrize("cofactor", [(1, 0, 1), (2, 0, 3, 0, 1), (1, 1, 1)])
def test_root_of_a_known_linear_factor(cofactor):
    # (z2 + 1 + a) * C(z2) with C(-1) != 0 has the root -1 - a; C of
    # degree 2 and 4 runs the z2^3 and z2^5 power slices
    frame, order = FRAMES["local_p1xp1"], 7
    a = TruncatedSeries(
        frame, order, {(1, 0, 0): Fraction(1), (0, 1, 1): Fraction(-2, 3), (2, 0, 1): Fraction(5)}
    )
    linear = [a + 1, TruncatedSeries.one(frame, order)]
    table = {}
    for i, x in enumerate(linear):
        for j, c in enumerate(cofactor):
            if c:
                table[i + j] = table[i + j] + x * c if i + j in table else x * c
    assert solve_curve_root(table, frame, order) == -1 - a


def _shifted(table):
    lowest = min(table)
    return [table.get(e) for e in range(lowest, max(table) + 1)]


@pytest.mark.parametrize(
    "name, orders", [("local_p2", range(1, 15)), ("local_p1xp1", range(1, 9))]
)
def test_quadratic_root_matches_catalan_closed_form(name, orders):
    # a0 + a1 z2 + a2 z2^2 = 0 has the root -(a1/a2) / C(u) near -1, with
    # u = a0 a2 / a1^2 and C the Catalan series, so that
    # log(-z2) = log(a1/a2) - sum_k binom(2k-1, k)/k u^k
    for order in orders:
        table, frame = shipped_table(name, order)
        a0, a1, a2 = _shifted(table)
        root = solve_curve_root(table, frame, order)
        inv_a1 = inverse(a1)
        u = a0 * a2 * inv_a1 * inv_a1
        assert u.constant_term() == 0
        tail = TruncatedSeries.zero(frame, order)
        power = TruncatedSeries.one(frame, order)
        for k in range(1, order + 1):
            power = power * u
            tail = tail + power * Fraction(comb(2 * k - 1, k), k)
        expected = log_series(a1 * inverse(a2)) - tail
        assert log_series(-root) == expected, (name, order)


@pytest.mark.parametrize("name", ["conifold", "c3"])
def test_linear_root_is_the_quotient(name):
    for order in range(1, 13):
        table, frame = shipped_table(name, order)
        a0, a1 = _shifted(table)
        root = solve_curve_root(table, frame, order)
        assert root == -(a0 * inverse(a1)), (name, order)
