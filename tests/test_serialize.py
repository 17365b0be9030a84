"""Literal validation and the JSON output of series."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syzmirror import Frame, InputError, TruncatedSeries
from syzmirror._backend import Terms
from syzmirror.serialize import (
    parse_int_vector,
    parse_rational,
    series_to_json,
    series_to_records,
)
from tests.conftest import no_decoding


class TestRationals:
    def test_integer_form(self):
        assert parse_rational("2") == 2

    def test_fraction_form(self):
        assert parse_rational("-560/3") == F(-560, 3)

    def test_lowest_terms(self):
        assert parse_rational("6/4") == F(3, 2)

    def test_zero_denominator_rejected(self):
        with pytest.raises(InputError):
            parse_rational("1/0")

    def test_garbage_rejected(self):
        with pytest.raises(InputError):
            parse_rational("one half")

    @pytest.mark.parametrize(
        "literal,value",
        [(7, F(7)), (" 3/4 ", F(3, 4)), ("+2", F(2)), ("-0/5", F(0)), ("\t-12/8\n", F(-3, 2))],
    )
    def test_accepted_forms(self, literal, value):
        assert parse_rational(literal) == value

    @pytest.mark.parametrize(
        "literal",
        [False, True, 1.5, None, [1], "1.5", "1e3", "1_0", "", " ", "1/", "/2", "--1",
         "1/-2", "1 /2", "0x10", "\u0661", "inf", "nan"],
    )
    def test_other_literals_rejected_naming_the_value(self, literal):
        with pytest.raises(InputError) as info:
            parse_rational(literal)
        assert repr(literal) in str(info.value)

    @pytest.mark.parametrize(
        "literal",
        ["1" * 5000 + "x", "1/0" + " " * 60, "1" * 5000],
        ids=["malformed", "zero-denominator", "past-digit-limit"],
    )
    def test_long_literals_are_named_shortened(self, literal):
        with pytest.raises(InputError) as info:
            parse_rational(literal)
        message = str(info.value)
        assert f"{literal[:12]}...{literal[-4:]} ({len(literal)} characters)" in message
        assert len(message) < 300

    @pytest.mark.parametrize(
        "read",
        [parse_rational, lambda value: parse_int_vector([1, value], "toric.u")],
        ids=["rational", "int-vector"],
    )
    def test_long_non_string_values_are_named_shortened(self, read):
        # a job field holding a long list is named by its repr, shortened
        value = [1] * 5000
        with pytest.raises(InputError) as info:
            read(value)
        message = str(info.value)
        assert "[1, 1, 1, 1,..., 1] (15000 characters)" in message
        assert len(message) < 300


class TestSeriesRecords:
    def test_lexicographic_order(self):
        frame = Frame(names=("a", "b"))
        s = TruncatedSeries(frame, 4, {(1, 0): F(2), (0, 2): F(-1, 3), (0, 1): F(5)})
        records = series_to_records(s)
        assert [r["e"] for r in records] == [[0, 1], [0, 2], [1, 0]]
        assert [r["c"] for r in records] == ["5", "-1/3", "2"]

    def test_empty_frame_series(self):
        frame = Frame(names=())
        s = TruncatedSeries.constant(frame, 2, F(3, 4))
        assert series_to_json(s) == {
            "frame": {"names": [], "grading": [], "boundary": []},
            "order": 2,
            "terms": [{"e": [], "c": "3/4"}],
        }


class TestKeptPrints:
    """A series keeps no printed form: each print decodes its rows once,
    and what a run printed is kept as its output (``cli._output``)."""

    frame = Frame(names=("a", "b"))

    def series(self):
        return TruncatedSeries(self.frame, 4, {(1, 0): F(2), (0, 2): F(-1, 3), (0, 0): F(1)})

    def test_each_print_decodes_the_rows_once(self, monkeypatch):
        s, calls = self.series(), []
        records, text = series_to_records(s), str(s)
        decode = Terms.exponents
        monkeypatch.setattr(Terms, "exponents", lambda t: calls.append(t) or decode(t))
        assert series_to_records(s) == records and str(s) == text
        assert calls == [s.terms, s.terms]

    def test_editing_a_returned_record_leaves_the_next_print(self):
        s = self.series()
        first = series_to_records(s)
        edited = series_to_records(s)
        edited[0]["e"].append(9)
        edited[0]["c"] = "0"
        edited[1].clear()
        edited.append({"e": [], "c": "1"})
        assert series_to_records(s) == first == series_to_json(s)["terms"]

    def test_ring_results_print_like_constructed_series(self):
        a = TruncatedSeries(self.frame, 4, {(1, 0): F(1, 2), (0, 1): F(3)})
        for computed in (a * a - a, -a, a + 1, a.truncate(2)):
            built = TruncatedSeries(self.frame, computed.order, dict(computed.terms))
            assert computed == built
            assert str(computed) == str(built)
            assert series_to_records(computed) == series_to_records(built)
            assert computed.printed_rows == built.printed_rows


# -- printing from the rows against a Fraction reference ------------------


def reference_records(terms):
    """Each term as a record, lexicographic in the exponents, with the
    coefficient printed by ``Fraction``."""
    return [{"e": list(e), "c": str(c)} for e, c in sorted(terms.items())]


def reference_str(frame, terms):
    """The series text: terms by grade, then exponent, each coefficient
    printed by ``Fraction`` and a coefficient +-1 folded into the sign."""
    bits = []
    for exps in sorted(terms, key=lambda e: (frame.grade(e), e)):
        coeff = terms[exps]
        mono = "*".join(f"{n}^{e}" if e != 1 else n for n, e in zip(frame.names, exps) if e)
        if not mono:
            bits.append(str(coeff))
        elif coeff == 1:
            bits.append(mono)
        elif coeff == -1:
            bits.append(f"-{mono}")
        else:
            bits.append(f"{coeff}*{mono}")
    return " + ".join(bits).replace("+ -", "- ") if bits else "0"


_coefficients = st.one_of(
    st.sampled_from([F(1), F(-1)]),
    st.integers(-10**12, 10**12).filter(bool).map(F),
    st.fractions(-10**6, 10**6, max_denominator=10**4).filter(bool),
)


@st.composite
def printed_series(draw):
    """A series over 1-4 generators: possibly zero, with or without a
    constant term, coefficients of any sign and denominator."""
    nvars = draw(st.integers(1, 4))
    frame = Frame(names=tuple(f"x{i}" for i in range(nvars)))
    order = draw(st.integers(0, 6))
    exponents = st.tuples(*[st.integers(0, order)] * nvars).filter(
        lambda e: frame.grade(e) <= order
    )
    terms = draw(st.dictionaries(exponents, _coefficients, max_size=10))
    constant = draw(st.none() | _coefficients)
    if constant is not None:
        terms[(0,) * nvars] = constant
    return TruncatedSeries(frame, order, terms), terms


@settings(max_examples=300, deadline=None)
@given(printed_series())
def test_rows_print_as_the_fraction_reference(drawn):
    series, terms = drawn
    # both read the integer rows, not the decoded Fraction view; the
    # second print reads what the first kept
    with no_decoding():
        for _ in range(2):
            records, text = series_to_records(series), str(series)
            assert records == reference_records(terms)
            assert text == reference_str(series.frame, terms)
