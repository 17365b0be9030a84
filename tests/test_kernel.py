"""The packed-exponent integer kernel against a reference convolution,
and the invariants of the series that ring operations build without
re-validation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syzmirror import Frame, TruncatedSeries
from syzmirror._backend import mul_terms
from syzmirror.fps import _lift


# Reference: the Fraction loop the kernel replaced, kept verbatim.


def grade_of(exponents, grading):
    return sum(g * e for g, e in zip(grading, exponents))


def reference_mul_terms(a, b, grading, order):
    """Convolve two exponent->coefficient maps, dropping grades > order.

    Exponent vectors are tuples of non-negative ints, coefficients exact
    rationals.  Zero coefficients are pruned from the result.
    """
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    graded = sorted((grade_of(e, grading), e) for e in b)
    out = {}
    for ea, ca in a.items():
        ga = grade_of(ea, grading)
        for gb, eb in graded:
            if ga + gb > order:
                break
            e = tuple(x + y for x, y in zip(ea, eb))
            prev = out.get(e)
            prod = ca * b[eb]
            out[e] = prod if prev is None else prev + prod
    return {e: c for e, c in out.items() if c != 0}


def coefficients():
    return st.builds(
        Fraction,
        st.integers(min_value=-30, max_value=30).filter(bool),
        st.sampled_from([1, 1, 1, 2, 3, 4, 6, 7, 12]),
    )


@st.composite
def kernel_inputs(draw):
    """Two operands over one grading; exponents reach past ``order``, so
    some terms lie above it and some overflow a packed field."""
    nvars = draw(st.integers(min_value=1, max_value=5))
    grading = tuple(draw(st.sampled_from([1, 2, 3])) for _ in range(nvars))
    order = draw(st.integers(min_value=0, max_value=9))
    exponents = st.tuples(*[st.integers(min_value=0, max_value=2 * order + 3)] * nvars)
    a = draw(st.dictionaries(exponents, coefficients(), max_size=12))
    b = draw(st.dictionaries(exponents, coefficients(), max_size=12))
    return a, b, grading, order


@st.composite
def cancelling_inputs(draw):
    """c x^e (1 + x^m) times d (1 - x^m): the x^(e+m) products cancel."""
    nvars = draw(st.integers(min_value=1, max_value=5))
    grading = tuple(draw(st.sampled_from([1, 2, 3])) for _ in range(nvars))
    small = st.tuples(*[st.integers(min_value=0, max_value=2)] * nvars)
    e = draw(small)
    m = draw(small.filter(any))
    c, d = draw(coefficients()), draw(coefficients())
    shifted = tuple(x + y for x, y in zip(e, m))
    low = grade_of(shifted, grading)
    order = draw(st.integers(min_value=low, max_value=low + 6))
    return {e: c, shifted: c}, {(0,) * nvars: d, m: -d}, grading, order, shifted


def check_contract(result, a, b, grading, order):
    assert result == reference_mul_terms(a, b, grading, order)
    assert all(type(c) is Fraction and c != 0 for c in result.values())
    assert all(grade_of(e, grading) <= order for e in result)


@settings(max_examples=300, deadline=None)
@given(kernel_inputs())
def test_kernel_matches_reference(inputs):
    a, b, grading, order = inputs
    check_contract(mul_terms(a, b, grading, order), a, b, grading, order)


@settings(max_examples=100, deadline=None)
@given(cancelling_inputs())
def test_cancelled_products_are_pruned(inputs):
    a, b, grading, order, cancelled = inputs
    result = mul_terms(a, b, grading, order)
    check_contract(result, a, b, grading, order)
    assert cancelled not in result


@pytest.mark.parametrize("order", [1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64])
def test_field_boundaries(order):
    # a product exponent of exactly ``order`` fills its field to the top;
    # terms above ``order`` (one far past the field width) never combine
    grading = (1, 2, 1)
    a = {
        (0, 0, 0): Fraction(1),
        (order, 0, 0): Fraction(2),
        (order - 1, 0, 0): Fraction(-1, 3),
        (4 * order + 4, 0, 0): Fraction(5),
    }
    b = {
        (0, 0, 0): Fraction(7, 2),
        (1, 0, 0): Fraction(3),
        (0, 0, order): Fraction(-1),
        (0, 1, 0): Fraction(4),
        (order + 1, 0, 0): Fraction(9),
        (0, 0, 4 * order + 4): Fraction(6),
    }
    result = mul_terms(a, b, grading, order)
    check_contract(result, a, b, grading, order)
    assert result[(order, 0, 0)] == (
        a[(order, 0, 0)] * b[(0, 0, 0)] + a[(order - 1, 0, 0)] * b[(1, 0, 0)]
    )


# -- series built by the trusted constructor ---------------------------


@st.composite
def series_pairs(draw):
    nvars = draw(st.integers(min_value=1, max_value=3))
    grading = tuple(draw(st.sampled_from([1, 2])) for _ in range(nvars))
    frame = Frame(names=tuple(f"x{i}" for i in range(nvars)), grading=grading)
    order = draw(st.integers(min_value=0, max_value=6))
    exponents = st.tuples(*[st.integers(min_value=0, max_value=order)] * nvars)
    s = TruncatedSeries(frame, order, draw(st.dictionaries(exponents, coefficients(), max_size=8)))
    t = TruncatedSeries(frame, order, draw(st.dictionaries(exponents, coefficients(), max_size=8)))
    return s, t


def check_normal_form(r):
    assert r == TruncatedSeries(r.frame, r.order, r.terms)
    assert all(type(c) is Fraction and c != 0 for c in r.terms.values())


@settings(max_examples=150, deadline=None)
@given(series_pairs(), coefficients(), st.integers(min_value=0, max_value=3))
def test_ring_operations_build_normal_forms(pair, scalar, raise_by):
    s, t = pair
    cancelling = t + (-s)  # adding s back cancels every s term: zero sums are pruned
    for r in (s * t, s * scalar, scalar * s, -s, s + t, s - t, cancelling + s, s - s,
              _lift(s, s.order + raise_by)):
        check_normal_form(r)
    assert (s - s).is_zero()
    assert cancelling + s == t


def test_lift_never_lowers_the_order():
    s = TruncatedSeries(Frame(names=("x",)), 3, {(3,): 1})
    with pytest.raises(ValueError):
        _lift(s, 2)
