"""Property-based checks of the series-ring axioms on randomized inputs."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from syzmirror import (
    Frame,
    TruncatedSeries,
    exp_series,
    fixed_point_system,
    log_series,
    pow_int,
    substitute,
)
from syzmirror.lattice import unit_vector

ORDER = 8


@st.composite
def frames(draw):
    nvars = draw(st.integers(min_value=1, max_value=3))
    boundary = tuple(draw(st.integers(min_value=-2, max_value=2)) for _ in range(nvars))
    names = tuple(f"x{i}" for i in range(nvars))
    return Frame(names=names, boundary=boundary)


def rationals():
    return st.builds(
        Fraction,
        st.integers(min_value=-40, max_value=40),
        st.integers(min_value=1, max_value=12),
    )


@st.composite
def series_over(draw, frame, zero_constant=False, unit_constant=False, max_terms=6):
    terms = {}
    count = draw(st.integers(min_value=0, max_value=max_terms))
    for _ in range(count):
        exps = tuple(draw(st.integers(min_value=0, max_value=ORDER)) for _ in frame.names)
        if frame.grade(exps) > ORDER:
            continue
        terms[exps] = draw(rationals())
    origin = (0,) * frame.nvars
    if zero_constant:
        terms.pop(origin, None)
    if unit_constant:
        terms[origin] = Fraction(1)
    return TruncatedSeries(frame, ORDER, terms)


@st.composite
def series_triples(draw):
    frame = draw(frames())
    return (
        draw(series_over(frame)),
        draw(series_over(frame)),
        draw(series_over(frame)),
    )


@settings(max_examples=60, deadline=None)
@given(series_triples())
def test_ring_axioms(triple):
    a, b, c = triple
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@st.composite
def zero_constant_series(draw):
    frame = draw(frames())
    return draw(series_over(frame, zero_constant=True))


@settings(max_examples=40, deadline=None)
@given(zero_constant_series())
def test_log_exp_inverse(s):
    assert log_series(exp_series(s)) == s


@st.composite
def unit_series(draw):
    frame = draw(frames())
    return draw(series_over(frame, unit_constant=True))


@settings(max_examples=40, deadline=None)
@given(unit_series())
def test_exp_log_inverse(s):
    assert exp_series(log_series(s)) == s


@settings(max_examples=40, deadline=None)
@given(unit_series(), st.integers(min_value=-4, max_value=4))
def test_pow_inverse_pairs(s, k):
    assert pow_int(s, k) * pow_int(s, -k) == TruncatedSeries.one(s.frame, s.order)


@st.composite
def composition_cases(draw):
    source = draw(frames())
    target = Frame(names=("y0", "y1"))
    a = draw(series_over(source))
    b = draw(series_over(source))
    images = [draw(series_over(target, zero_constant=True, max_terms=4)) for _ in source.names]
    return a, b, images


@settings(max_examples=40, deadline=None)
@given(composition_cases())
def test_substitute_is_ring_map(case):
    a, b, images = case
    assert substitute(a + b, images) == substitute(a, images) + substitute(b, images)
    assert substitute(a * b, images) == substitute(a, images) * substitute(b, images)


@settings(max_examples=40, deadline=None)
@given(series_triples(), st.integers(min_value=0, max_value=2))
def test_log_derivative_is_derivation(triple, index):
    a, b, _ = triple
    axis = unit_vector(a.frame.nvars, index % a.frame.nvars)
    lhs = (a * b).weighted(axis)
    rhs = a.weighted(axis) * b + a * b.weighted(axis)
    assert lhs == rhs


@st.composite
def fixed_point_cases(draw):
    frame = draw(frames())
    multipliers = [
        draw(series_over(frame, zero_constant=True, max_terms=3))
        for _ in range(frame.nvars)
    ]
    return frame, multipliers


@settings(max_examples=30, deadline=None)
@given(fixed_point_cases())
def test_fixed_point_residual_is_zero(case):
    frame, multipliers = case

    def make_update(mult):
        # x_a = gen_a * exp(mult(x)); the unknowns substitute cleanly
        # because x_i = gen_i + higher has valuation 1
        def update(xs):
            return exp_series(substitute(mult, xs))

        return update

    updates = [make_update(m) for m in multipliers]
    xs = fixed_point_system(lambda xs: [u(xs) for u in updates], frame, ORDER)
    for a, x in enumerate(xs):
        rhs = TruncatedSeries.generator(frame, ORDER, a) * updates[a](xs)
        assert x == rhs
