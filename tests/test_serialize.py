"""Round trips and literal validation for the shared JSON encoding."""

from fractions import Fraction as F

import pytest

from syzmirror import Frame, InputError, TruncatedSeries
from syzmirror.serialize import (
    format_rational,
    parse_rational,
    series_from_json,
    series_from_records,
    series_to_json,
    series_to_records,
)


class TestRationals:
    def test_integer_form(self):
        assert format_rational(F(4, 2)) == "2"
        assert parse_rational("2") == 2

    def test_fraction_form(self):
        assert format_rational(F(-560, 3)) == "-560/3"
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

    @pytest.mark.parametrize("coefficient", [False, True, 0.5, "1.5", "1e3", "1_0"])
    def test_series_record_coefficient_rejected(self, coefficient):
        with pytest.raises(InputError) as info:
            series_from_records(Frame(names=("a",)), 3, [{"e": [1], "c": coefficient}])
        assert repr(coefficient) in str(info.value)


class TestSeriesRecords:
    def test_lexicographic_order(self):
        frame = Frame(names=("a", "b"))
        s = TruncatedSeries(frame, 4, {(1, 0): F(2), (0, 2): F(-1, 3), (0, 1): F(5)})
        records = series_to_records(s)
        assert [r["e"] for r in records] == [[0, 1], [0, 2], [1, 0]]
        assert [r["c"] for r in records] == ["5", "-1/3", "2"]

    def test_round_trip_exact(self):
        frame = Frame(names=("a", "b"), grading=(1, 2), boundary=(1, -1))
        s = TruncatedSeries(frame, 6, {(0, 0): F(1), (3, 1): F(-7, 11), (1, 0): F(2)})
        assert series_from_json(series_to_json(s)) == s

    def test_duplicate_exponent_rejected(self):
        frame = Frame(names=("a",))
        with pytest.raises(InputError):
            series_from_records(
                frame, 3, [{"e": [1], "c": "1"}, {"e": [1], "c": "2"}]
            )

    def test_record_above_the_order_rejected(self):
        # grade 2 * 2 = 4 under grading (1, 2) exceeds order 3
        frame = Frame(names=("a", "b"), grading=(1, 2))
        records = [{"e": [1, 0], "c": "1"}, {"e": [0, 2], "c": "5"}]
        with pytest.raises(InputError) as info:
            series_from_records(frame, 3, records)
        assert "{'e': [0, 2], 'c': '5'}" in str(info.value)
        assert "grade 4" in str(info.value)
        doc = {"frame": {"names": ["a", "b"], "grading": [1, 2]}, "order": 3, "terms": records}
        with pytest.raises(InputError):
            series_from_json(doc)
        assert series_from_records(frame, 4, records).coefficient((0, 2)) == 5

    def test_empty_frame_series(self):
        frame = Frame(names=())
        s = TruncatedSeries.constant(frame, 2, F(3, 4))
        assert series_from_json(series_to_json(s)) == s


def _record(e):
    return {"terms": [{"e": e, "c": "1"}]}


class TestStrictIntegers:
    """Integer fields read only JSON integers; every refusal is an InputError."""

    FRAME = {"names": ["a", "b"], "grading": [1, 2]}

    @pytest.mark.parametrize(
        "doc,cause",
        [
            pytest.param(_record([1.9, 0]), "1.9", id="float-exponent"),
            pytest.param(_record([True, 0]), "True", id="bool-exponent"),
            pytest.param(_record(["2", 0]), "'2'", id="string-exponent"),
            pytest.param(_record(1), "expected a list", id="scalar-exponent"),
            pytest.param(_record([1]), "record {'e': [1], 'c': '1'} needs 2", id="short-record"),
            pytest.param(_record([1, 0, 0]), "needs 2 non-negative", id="long-record"),
            pytest.param(_record([-1, 0]), "needs 2 non-negative", id="negative-exponent"),
            pytest.param({"frame": {"names": ["a", "b"], "grading": [1.7, 2]}}, "1.7",
                         id="float-grading"),
            pytest.param({"frame": {"names": ["a", "b"], "boundary": [0, "1"]}}, "'1'",
                         id="string-boundary"),
            pytest.param({"order": 2.9}, "2.9", id="float-order"),
            pytest.param({"order": True}, "True", id="bool-order"),
            pytest.param({"order": -2}, "non-negative, got -2", id="negative-order"),
            pytest.param({"frame": {"names": [1, "b"]}}, "frame name 1 is not a string",
                         id="int-name"),
            pytest.param({"frame": {"names": ["a", None]}}, "frame name None is not a string",
                         id="null-name"),
            pytest.param({"frame": {"names": "ab"}}, "must be a list of strings, got 'ab'",
                         id="string-names"),
        ],
    )
    def test_non_integer_fields_are_refused(self, doc, cause):
        full = {"frame": self.FRAME, "order": 4, "terms": [{"e": [1, 0], "c": "1"}], **doc}
        with pytest.raises(InputError) as info:
            series_from_json(full)
        assert cause in str(info.value)

