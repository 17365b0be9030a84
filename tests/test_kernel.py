"""The packed-exponent integer kernel against a reference convolution,
and the stored kernel form of series: chains of ring operations checked
against a plain Fraction-dict model, with the normal form after each,
and the integer row weights, coefficient reads and one-row constructors
likewise; the grade slices that ``exp_log`` and ``graded_root`` run on
convert back to the rows they came from."""

from copy import copy
from fractions import Fraction
from itertools import product
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syzmirror import Frame, TruncatedSeries, boundary_derivative, substitute
from syzmirror._backend import Terms, _assembled, _slices, field_width, mul_terms
from syzmirror.fps import _lift
from syzmirror.lattice import unit_vector
from tests.conftest import no_decoding, random_series


# Reference: the Fraction loop the kernel replaced.


def reference_mul_terms(a, b, order):
    """Convolve two exponent->coefficient maps, dropping total degrees > order.

    Exponent vectors are tuples of non-negative ints, coefficients exact
    rationals.  Zero coefficients are pruned from the result.
    """
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    graded = sorted((sum(e), e) for e in b)
    out = {}
    for ea, ca in a.items():
        ga = sum(ea)
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


def operand(terms, nvars, own):
    """The kernel form of ``terms`` as a series at its own order ``own``."""
    frame = Frame(names=tuple(f"x{i}" for i in range(nvars)))
    return TruncatedSeries(frame, own, terms).terms


@st.composite
def kernel_inputs(draw):
    """Two operands over one frame, each a series at its own order at
    or above ``order``; exponents reach past ``order``, so some terms lie
    above it and some operands have wider fields than the product."""
    nvars = draw(st.integers(min_value=1, max_value=5))
    order = draw(st.integers(min_value=0, max_value=9))
    exponents = st.tuples(*[st.integers(min_value=0, max_value=2 * order + 3)] * nvars)
    own = st.integers(min_value=order, max_value=4 * order + 8)
    a = operand(draw(st.dictionaries(exponents, coefficients(), max_size=12)), nvars, draw(own))
    b = operand(draw(st.dictionaries(exponents, coefficients(), max_size=12)), nvars, draw(own))
    return a, b, order


@st.composite
def cancelling_inputs(draw):
    """c x^e (1 + x^m) times d (1 - x^m): the x^(e+m) products cancel."""
    nvars = draw(st.integers(min_value=1, max_value=5))
    small = st.tuples(*[st.integers(min_value=0, max_value=2)] * nvars)
    e = draw(small)
    m = draw(small.filter(any))
    c, d = draw(coefficients()), draw(coefficients())
    shifted = tuple(x + y for x, y in zip(e, m))
    low = sum(shifted)
    order = draw(st.integers(min_value=low, max_value=low + 6))
    own = st.integers(min_value=order, max_value=2 * order + 8)
    a = operand({e: c, shifted: c}, nvars, draw(own))
    b = operand({(0,) * nvars: d, m: -d}, nvars, draw(own))
    return a, b, order, shifted


def check_contract(result, a, b, order):
    assert isinstance(result, Terms) and result.width == field_width(order)
    assert result == reference_mul_terms(a, b, order)
    assert all(type(c) is Fraction and c != 0 for c in result.values())
    assert all(sum(e) <= order for e in result)


@settings(max_examples=300, deadline=None)
@given(kernel_inputs())
def test_kernel_matches_reference(inputs):
    a, b, order = inputs
    check_contract(mul_terms(a, b, (1,) * a.nvars, order), a, b, order)


@settings(max_examples=100, deadline=None)
@given(cancelling_inputs())
def test_cancelled_products_are_pruned(inputs):
    a, b, order, cancelled = inputs
    result = mul_terms(a, b, (1,) * a.nvars, order)
    check_contract(result, a, b, order)
    assert cancelled not in result


@pytest.mark.parametrize("order", [1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64])
def test_field_boundaries(order):
    # a product exponent of exactly ``order`` fills its field to the top;
    # terms above ``order`` (one far past the product's field width, in
    # operands of a higher order and wider fields) never combine
    high = 4 * order + 4
    a = {
        (0, 0, 0): Fraction(1),
        (order, 0, 0): Fraction(2),
        (order - 1, 0, 0): Fraction(-1, 3),
        (high, 0, 0): Fraction(5),
    }
    b = {
        (0, 0, 0): Fraction(7, 2),
        (1, 0, 0): Fraction(3),
        (0, 0, order): Fraction(-1),
        (0, 1, 0): Fraction(4),
        (order + 1, 0, 0): Fraction(9),
        (0, 0, high): Fraction(6),
    }
    a, b = operand(a, 3, high), operand(b, 3, high)
    assert field_width(high) > field_width(order)
    result = mul_terms(a, b, (1,) * a.nvars, order)
    check_contract(result, a, b, order)
    assert result[(order, 0, 0)] == (
        a[(order, 0, 0)] * b[(0, 0, 0)] + a[(order - 1, 0, 0)] * b[(1, 0, 0)]
    )


# -- series built by the trusted constructor ---------------------------


@st.composite
def series_pairs(draw):
    nvars = draw(st.integers(min_value=1, max_value=3))
    frame = Frame(names=tuple(f"x{i}" for i in range(nvars)))
    order = draw(st.integers(min_value=0, max_value=6))
    exponents = st.tuples(*[st.integers(min_value=0, max_value=order)] * nvars)
    s = TruncatedSeries(frame, order, draw(st.dictionaries(exponents, coefficients(), max_size=8)))
    t = TruncatedSeries(frame, order, draw(st.dictionaries(exponents, coefficients(), max_size=8)))
    return s, t


def check_normal_form(r):
    """The stored rows are the unique kernel form of ``r``'s terms."""
    t = r.terms
    assert isinstance(t, Terms)
    assert (t.nvars, t.width) == (r.frame.nvars, field_width(r.order))
    assert all(a < b for a, b in zip(t.monos, t.monos[1:]))
    assert all(t.nums) and len(t.nums) == len(t.monos)
    assert t.den >= 1 and gcd(t.den, *t.nums) == 1
    assert all(r.frame.grade(e) <= r.order for e in t)
    assert list(t) == sorted(t)
    assert r == TruncatedSeries(r.frame, r.order, t)
    assert all(type(c) is Fraction and c != 0 for c in t.values())


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


def test_terms_refuse_item_assignment():
    s = TruncatedSeries(Frame(names=("x",)), 3, {(1,): 2})
    with pytest.raises(TypeError):
        s.terms[(2,)] = Fraction(1)
    with pytest.raises(TypeError):
        del s.terms[(1,)]
    assert s.terms == {(1,): 2}


# -- chains of operations against a Fraction-dict model -----------------

# orders on both sides of a field-width change (order.bit_length() + 1)
BOUNDARY_ORDERS = (3, 4, 7, 8, 15, 16)


def model_truncate(terms, order):
    return {e: c for e, c in terms.items() if sum(e) <= order}


def model_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c != 0}


def model_substitute(terms, images, order):
    """sum c * prod images[i]^e_i, every product by the reference loop."""
    out = {}
    for e, c in terms.items():
        mono = {(0,) * len(images): Fraction(1)}
        for i, k in enumerate(e):
            for _ in range(k):
                mono = reference_mul_terms(mono, images[i], order)
        out = model_add(out, {x: c * v for x, v in mono.items()})
    return model_truncate(out, order)


@st.composite
def operands(draw, frame, max_terms=5):
    order = draw(st.sampled_from(BOUNDARY_ORDERS))
    exponents = st.tuples(*[st.integers(min_value=0, max_value=4)] * frame.nvars)
    terms = draw(st.dictionaries(exponents, coefficients(), max_size=max_terms))
    return order, model_truncate(terms, order)


def apply_step(data, frame, series, model):
    """One random operation on ``series`` and on its (order, dict) model."""
    order, terms = model
    step = data.draw(st.sampled_from(["mul", "add", "sub", "neg", "scale", "resize", "compose"]))
    if step in ("mul", "add", "sub"):
        o, t = data.draw(operands(frame))
        other = TruncatedSeries(frame, o, t)
        low = min(order, o)
        if step == "mul":
            return series * other, (low, reference_mul_terms(terms, t, low))
        if step == "sub":
            series, t = series - other, {e: -c for e, c in t.items()}
        else:
            series = series + other
        return series, (low, model_add(model_truncate(terms, low), model_truncate(t, low)))
    if step == "neg":
        return -series, (order, {e: -c for e, c in terms.items()})
    if step == "scale":
        c = data.draw(st.one_of(st.just(Fraction(0)), coefficients(), st.integers(-3, 3)))
        return c * series, (order, {e: c * v for e, v in terms.items() if c * v != 0})
    if step == "resize":
        o = data.draw(st.sampled_from(BOUNDARY_ORDERS))
        if o <= order:
            return series.truncate(o), (o, model_truncate(terms, o))
        return _lift(series, o), (o, terms)
    # compose: x_i -> c x_i + a term of grade above 1, over the same frame
    images, image_terms = [], []
    for i in range(frame.nvars):
        exps = tuple(int(j == i) for j in range(frame.nvars))
        extra = data.draw(st.tuples(*[st.integers(0, 2)] * frame.nvars))
        t = {exps: data.draw(coefficients())}
        if sum(extra) > 1:
            t[extra] = data.draw(coefficients())
        o = data.draw(st.sampled_from(BOUNDARY_ORDERS))
        t = model_truncate(t, o)
        images.append(TruncatedSeries(frame, o, t))
        image_terms.append(t)
    low = min(order, *(im.order for im in images))
    return substitute(series, images), (
        low, model_substitute(model_truncate(terms, low), image_terms, low)
    )


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_operation_chains_match_the_dict_model(data):
    nvars = data.draw(st.integers(min_value=1, max_value=3))
    frame = Frame(names=tuple(f"x{i}" for i in range(nvars)))
    order, terms = data.draw(operands(frame, max_terms=8))
    series = TruncatedSeries(frame, order, terms)
    model = (order, terms)
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        series, model = apply_step(data, frame, series, model)
        check_normal_form(series)
        order, terms = model
        assert series.order == order
        assert series.terms == terms and terms == series.terms
        assert series == TruncatedSeries(frame, order, terms)
        assert series.constant_term() == terms.get((0,) * nvars, 0)
        grades = [sum(e) for e in terms]
        assert series.valuation() == (min(grades) if grades else None)
        assert series.is_zero() == (not terms)


@pytest.mark.parametrize("low,high", [(3, 4), (7, 8), (15, 16)])
def test_width_boundaries_round_trip(low, high):
    # exponents that fill the narrow field to the top, read at both widths
    frame = Frame(names=("x", "y"))
    terms = {(low, 0): Fraction(1, 3), (low - 2, 1): Fraction(-5), (0, 0): Fraction(2)}
    narrow = TruncatedSeries(frame, low, terms)
    wide = _lift(narrow, high)
    assert field_width(low) != field_width(high)
    for s in (wide, wide.truncate(low), wide * wide, narrow * wide):
        check_normal_form(s)
    assert wide.terms == narrow.terms == terms
    assert wide.truncate(low) == narrow
    square = wide * wide
    assert square.terms == reference_mul_terms(terms, terms, high)
    assert (narrow * wide).order == low
    assert (narrow * wide).terms == reference_mul_terms(terms, terms, low)


@settings(max_examples=100, deadline=None)
@given(series_pairs())
def test_packed_series_equals_its_plain_dict_twin(pair):
    s, t = pair
    plain = dict(s.terms)
    twin = TruncatedSeries(s.frame, s.order, plain)
    assert twin == s and s.terms == plain and plain == s.terms
    assert (s == t) == (dict(s.terms) == dict(t.terms))
    if plain:
        e = next(iter(plain))
        changed = {**plain, e: plain[e] + 1}
        assert s.terms != changed and TruncatedSeries(s.frame, s.order, changed) != s


# -- integer row weights, coefficient reads, one-row constructors -------


@st.composite
def bounded_series(draw):
    """A series over a frame whose boundary grading has odd, even and
    negative entries."""
    nvars = draw(st.integers(min_value=1, max_value=4))
    boundary = tuple(draw(st.integers(min_value=-3, max_value=3)) for _ in range(nvars))
    frame = Frame(names=tuple(f"x{i}" for i in range(nvars)), boundary=boundary)
    order = draw(st.integers(min_value=0, max_value=9))
    exponents = st.tuples(*[st.integers(min_value=0, max_value=order)] * nvars)
    return TruncatedSeries(frame, order, draw(st.dictionaries(exponents, coefficients(), max_size=12)))


def reweighted(s, weight):
    """The decoded-dict reference: each coefficient times weight(exponents)."""
    return TruncatedSeries(s.frame, s.order, {e: c * weight(e) for e, c in s.terms.items()})


@settings(max_examples=200, deadline=None)
@given(bounded_series(), st.data())
def test_row_weights_match_the_dict_reference(s, data):
    frame = s.frame
    index = data.draw(st.integers(min_value=0, max_value=frame.nvars - 1))
    odd, even = data.draw(st.sampled_from([(-1, 1), (1, -1), (-1, -1), (1, 1)]))

    def twist(series):
        return series.signed(frame.boundary, odd, even)

    # reading row weights writes no field of the series' rows
    state = {name: copy(getattr(s.terms, name)) for name in Terms.__slots__}
    def boundary(e):
        return sum(b * x for b, x in zip(frame.boundary, e))

    results = {
        "log": (s.weighted(unit_vector(frame.nvars, index)), lambda e: e[index]),
        "boundary": (boundary_derivative(s), boundary),
        "twist": (twist(s), lambda e: odd if boundary(e) % 2 else even),
    }
    for result, weight in results.values():
        check_normal_form(result)
        assert result == reweighted(s, weight)
    assert twist(twist(s)) == s
    assert {name: getattr(s.terms, name) for name in Terms.__slots__} == state


@settings(max_examples=200, deadline=None)
@given(bounded_series(), st.data())
def test_coefficient_reads_the_rows_without_decoding(s, data):
    frame, order = s.frame, s.order
    present = s.terms.exponents()
    # a series with every exponent of grade <= order present has none
    absent = [
        e for e in product(range(order + 1), repeat=frame.nvars)
        if frame.grade(e) <= order and e not in present
    ][:1]
    negative = (-1,) + present[-1][1:] if present else (-1,) * frame.nvars
    drawn = data.draw(st.tuples(*[st.integers(min_value=-2, max_value=order)] * frame.nvars))
    asked = present + absent + [negative] + ([drawn] if frame.grade(drawn) <= order else [])
    with no_decoding():
        read = [s.coefficient(e) for e in asked]
    view = dict(s.terms.items())
    assert read == [view.get(e, 0) if min(e) >= 0 else 0 for e in asked]


# Frames of 0-4 generators; a lookup bisects the rows for one packed key.
@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 4),
    st.integers(0, 6),
    st.sampled_from((1.0, 0.5, 0.1)),
    st.integers(-2, 2),
    st.randoms(use_true_random=False),
    st.data(),
)
def test_lookup_agrees_with_the_decoded_mapping(nvars, order, keep, constant, rnd, data):
    t = random_series(nvars, order, constant, keep, rnd).terms
    decoded = dict(t.items())
    assert dict(t) == decoded
    entries = st.integers(min_value=-2, max_value=(1 << t.width) + 1)
    drawn = data.draw(st.lists(st.tuples(*[entries] * nvars), max_size=6))
    for e in list(decoded) + drawn:
        assert t.get(e) == decoded.get(e)
        assert (e in t) == (e in decoded)


def test_dict_of_terms_decodes_the_rows_once(monkeypatch):
    t = random_series(3, 6, 1, 1.0, Random(0)).terms
    decoded, calls = Terms._decoded, []

    def counted(terms):
        calls.append(terms)
        return decoded(terms)

    monkeypatch.setattr(Terms, "_decoded", counted)
    plain = dict(t)
    assert len(calls) <= 1
    assert len(plain) == len(t) == 84


def test_lookup_refuses_a_tuple_of_another_length():
    t = TruncatedSeries(Frame(names=("x", "y")), 3, {(0, 0): 1, (1, 0): 2}).terms
    # zipped with the two key increments, each would read a present row
    for e in [(0,), (1, 0, 0), (1, 0, 5)]:
        with pytest.raises(KeyError):
            t[e]
        assert e not in t and t.get(e) is None


def test_lookup_refuses_entries_outside_the_field():
    frame = Frame(names=("x0", "x1", "x2"))
    s = TruncatedSeries.generator(frame, 4, 2)
    assert field_width(4) == 4
    assert s.terms[(0, 0, 1)] == 1
    # both pack to the key of x2: -16 + 17 * 2**4 == 2**8, at grade 1
    for e in [(-16, 17, 0), (-32, 34, -1)]:
        with pytest.raises(KeyError):
            s.terms[e]
        assert e not in s.terms
        assert s.coefficient(e) == 0


# the grading of a frame of one to four generators: every generator has grade 1
@pytest.mark.parametrize("grading", [(1,), (1, 1), (1, 1, 1), (1, 1, 1, 1)])
@pytest.mark.parametrize("order", range(6))
def test_one_row_constructors_match_the_checked_constructor(grading, order):
    frame = Frame(names=tuple(f"x{i}" for i in range(len(grading))))
    assert frame.grading == grading
    origin = (0,) * frame.nvars
    cases = [
        (TruncatedSeries.zero(frame, order), {}),
        (TruncatedSeries.one(frame, order), {origin: 1}),
        (TruncatedSeries.constant(frame, order, "-7/3"), {origin: Fraction(-7, 3)}),
        (TruncatedSeries.constant(frame, order, 0), {}),
    ]
    for i in range(frame.nvars):
        unit = tuple(int(j == i) for j in range(frame.nvars))
        cases.append((TruncatedSeries.generator(frame, order, i), {unit: 1}))
    for built, terms in cases:
        check_normal_form(built)
        assert built == TruncatedSeries(frame, order, terms)
    for index in (-1, frame.nvars):
        with pytest.raises(ValueError):
            TruncatedSeries.generator(frame, order, index)


# Frames of 0-4 generators; leaving monomials out puts holes in the runs.
@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 4),
    st.integers(0, 9),
    st.sampled_from((1.0, 0.9, 0.5, 0.1)),
    st.integers(-2, 2),
    st.randoms(use_true_random=False),
)
def test_slices_assemble_back_to_their_rows(nvars, order, keep, constant, rnd):
    terms = random_series(nvars, order, constant, keep, rnd).terms
    slices = _slices(terms, order)
    assert len(slices) == order + 1
    entries = [v for _, runs in slices for _, row in runs for v in row]
    assert len(entries) - entries.count(0) == len(terms)
    for _, runs in slices:
        rows = [start >> terms.width for start, _ in runs]
        assert rows == sorted(set(rows))  # one run per row, in row order
        for start, row in runs:  # a run stays in its row
            assert start >> terms.width == (start + len(row) - 1) >> terms.width
    assert _assembled(terms.nvars, terms.width, slices) == terms
