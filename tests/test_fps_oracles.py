"""Independent oracles for the grade-by-grade and fixed-point series solvers.

Univariate ``inverse``, ``log_series``, ``exp_series`` and negative
``pow_int`` are checked against ``sympy.series``, and bivariate
``substitute`` against a sympy expansion of the composed polynomials.  Multivariate graded
frames are checked against the textbook algorithms kept below as
references: the geometric-series inverse, the Mercator-series log and
fixed-point passes that all run at full order.  The curve root is
checked by re-evaluating W on it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syzmirror import (
    Frame,
    ToricCYData,
    TruncatedSeries,
    evaluate_curve,
    exp_series,
    fixed_point_system,
    inverse,
    log_series,
    pow_int,
    solve_curve_root,
    substitute,
)
from syzmirror.errors import FixedPointDivergence
from tests.conftest import av_brane, brane_table

ORDER = 7


def rationals():
    return st.builds(
        Fraction,
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=1, max_value=5),
    )


# -- references: the full-order algorithms the solvers replaced --------


def reference_inverse(s):
    c0 = s.constant_term()
    t = TruncatedSeries.one(s.frame, s.order) - s * (1 / c0)
    acc = power = TruncatedSeries.one(s.frame, s.order)
    for _ in range(s.order):
        power = power * t
        acc = acc + power
    return acc * (1 / c0)


def reference_log(s):
    u = s - 1
    acc = TruncatedSeries.zero(s.frame, s.order)
    power = TruncatedSeries.one(s.frame, s.order)
    for k in range(1, s.order + 1):
        power = power * u
        acc = acc + power * Fraction((-1) ** (k + 1), k)
    return acc


def reference_fixed_point(updates, frame, order):
    xs = [TruncatedSeries.generator(frame, order, a) for a in range(frame.nvars)]
    for _ in range(order + 2):
        new_xs = [
            TruncatedSeries.generator(frame, order, a) * update(list(xs))
            for a, update in enumerate(updates)
        ]
        if new_xs == xs:
            return xs
        xs = new_xs
    raise FixedPointDivergence("reference iteration did not settle")


# -- univariate: sympy.series ---------------------------------------------


T = Frame(names=("t",))
SYMPY_ORDER = 5  # sympy.series is slow; the graded cases below go further


@st.composite
def univariate(draw, constant):
    coeffs = draw(st.lists(rationals(), min_size=SYMPY_ORDER, max_size=SYMPY_ORDER))
    terms = {(k,): c for k, c in enumerate([constant, *coeffs])}
    return TruncatedSeries(T, SYMPY_ORDER, terms)


def nonzero_rationals():
    return rationals().filter(lambda c: c != 0)


def sympy_coefficients(sympy, expr, t):
    """Coefficients of t^0..t^SYMPY_ORDER in the Taylor expansion of expr."""
    expansion = sympy.series(expr, t, 0, SYMPY_ORDER + 1).removeO()
    return {
        (k,): Fraction(int(c.p), int(c.q))
        for (k,), c in sympy.Poly(expansion, t).terms()
        if c != 0
    }


def as_sympy(sympy, s, t):
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * t ** e[0] for e, c in s.terms.items()),
        sympy.Integer(0),
    )


@pytest.fixture(scope="module")
def sympy_t():
    sympy = pytest.importorskip("sympy")
    return sympy, sympy.Symbol("t")


@settings(max_examples=12, deadline=None)
@given(s=nonzero_rationals().flatmap(lambda c0: univariate(c0)))
def test_inverse_matches_sympy(sympy_t, s):
    sympy, t = sympy_t
    assert inverse(s).terms == sympy_coefficients(sympy, 1 / as_sympy(sympy, s, t), t)


@settings(max_examples=12, deadline=None)
@given(s=univariate(Fraction(1)))
def test_log_matches_sympy(sympy_t, s):
    sympy, t = sympy_t
    assert log_series(s).terms == sympy_coefficients(sympy, sympy.log(as_sympy(sympy, s, t)), t)


@settings(max_examples=12, deadline=None)
@given(s=univariate(Fraction(0)))
def test_exp_matches_sympy(sympy_t, s):
    sympy, t = sympy_t
    assert exp_series(s).terms == sympy_coefficients(sympy, sympy.exp(as_sympy(sympy, s, t)), t)


@settings(max_examples=12, deadline=None)
@given(
    s=nonzero_rationals().flatmap(lambda c0: univariate(c0)),
    k=st.integers(min_value=1, max_value=3),
)
def test_negative_power_matches_sympy(sympy_t, s, k):
    sympy, t = sympy_t
    expected = sympy_coefficients(sympy, as_sympy(sympy, s, t) ** (-k), t)
    assert pow_int(s, -k).terms == expected


XY = Frame(names=("x", "y"))


@st.composite
def bivariate(draw, constant):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        i = draw(st.integers(min_value=0, max_value=SYMPY_ORDER))
        j = draw(st.integers(min_value=0, max_value=SYMPY_ORDER - i))
        terms[(i, j)] = draw(rationals())
    terms[(0, 0)] = constant
    return TruncatedSeries(XY, SYMPY_ORDER, terms)


@settings(max_examples=12, deadline=None)
@given(
    s=rationals().flatmap(lambda c0: bivariate(c0)),
    f=bivariate(Fraction(0)),
    g=bivariate(Fraction(0)),
)
def test_substitute_matches_sympy(sympy_t, s, f, g):
    sympy, _ = sympy_t
    x, y = sympy.symbols("x y")

    def as_poly(series):
        return sum(
            (sympy.Rational(c.numerator, c.denominator) * x**i * y**j
             for (i, j), c in series.terms.items()),
            sympy.Integer(0),
        )

    # s(f, g) is a polynomial, so its series expansion through total
    # degree SYMPY_ORDER is its expansion with higher monomials dropped.
    composed = sympy.expand(as_poly(s).subs({x: as_poly(f), y: as_poly(g)}, simultaneous=True))
    expected = {
        (i, j): Fraction(int(c.p), int(c.q))
        for (i, j), c in sympy.Poly(composed, x, y).terms()
        if i + j <= SYMPY_ORDER and c != 0
    }
    assert substitute(s, [f, g]).terms == expected


# -- multivariate frames: the full-order references -------------------


@st.composite
def multivariate_frames(draw):
    nvars = draw(st.integers(min_value=1, max_value=3))
    return Frame(names=tuple(f"x{i}" for i in range(nvars)))


@st.composite
def multivariate_series(draw, frame, constant, max_terms=6):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        exps = tuple(draw(st.integers(min_value=0, max_value=ORDER)) for _ in frame.names)
        terms[exps] = draw(rationals())
    terms[(0,) * frame.nvars] = constant
    return TruncatedSeries(frame, ORDER, terms)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_inverse_matches_geometric_series(data):
    frame = data.draw(multivariate_frames())
    s = data.draw(multivariate_series(frame, data.draw(nonzero_rationals())))
    assert inverse(s) == reference_inverse(s)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_log_matches_mercator_series(data):
    frame = data.draw(multivariate_frames())
    s = data.draw(multivariate_series(frame, Fraction(1)))
    assert log_series(s) == reference_log(s)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_fixed_point_matches_full_order_passes(data):
    frame = data.draw(multivariate_frames())
    multipliers = [
        data.draw(multivariate_series(frame, Fraction(0), max_terms=3)) for _ in range(frame.nvars)
    ]

    def make_update(mult):
        def update(xs):
            return exp_series(substitute(mult, xs, frame=frame, order=ORDER))

        return update

    updates = [make_update(m) for m in multipliers]
    solution = fixed_point_system(lambda xs: [u(xs) for u in updates], frame, ORDER)
    assert solution == reference_fixed_point(updates, frame, ORDER)


# -- curve root: W vanishes identically on it --------------------------


CURVE_CASES = {
    "conifold": (
        dict(rays=((0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)), max_cones=((0, 1, 2), (0, 2, 3))),
        av_brane(0, 2, 1, m=4, c=Fraction(2)),
    ),
    "local_p2": (
        dict(rays=((0, 0, 1), (1, 0, 1), (0, 1, 1), (-1, -1, 1)),
             max_cones=((0, 1, 2), (0, 2, 3), (0, 1, 3))),
        av_brane(1, 2, 3, m=4),
    ),
    "local_p1xp1": (
        dict(rays=((0, 0, 1), (1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)),
             max_cones=((0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1))),
        av_brane(1, 2, 3, m=5, frame=((1, 0, 0), (-1, 1, 0), (0, 0, 1))),
    ),
}


@pytest.mark.parametrize("order", range(1, 11))
@pytest.mark.parametrize("geometry", sorted(CURVE_CASES))
def test_curve_vanishes_on_root(geometry, order):
    toric, brane = CURVE_CASES[geometry]
    data = ToricCYData(u=(0, 0, 1), **toric)
    bframe, table = brane_table(data, brane, order)
    root = solve_curve_root(table, bframe.frame, order)
    assert root.order == order
    assert evaluate_curve(table, root, bframe.frame, order).is_zero()
