"""Shared JSON encoding for series, frames and invariant tables.

Series serialize as a list of ``{"e": [ints], "c": "p/q"}`` records
sorted lexicographically by exponent; rationals are lowest-terms
strings.  The CLI and every module use this one format, so re-parsing a
document reproduces the in-memory value exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InputError
from .fps import Frame, TruncatedSeries


def format_rational(value: Fraction) -> str:
    return str(value)


_RATIONAL_LITERAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def parse_rational(text) -> Fraction:
    """Parse a JSON integer or a string "p" or "p/q" with q > 0.

    The string holds an optional sign and decimal digits, with
    surrounding whitespace allowed; booleans, floats, decimal or
    exponent notation and digit separators are input errors that name
    the value.
    """
    if type(text) is int:
        return Fraction(text)
    if not isinstance(text, str):
        raise InputError(f"rational literal must be an integer or a string, got {text!r}")
    literal = text.strip()
    if not _RATIONAL_LITERAL.fullmatch(literal):
        raise InputError(f"malformed rational literal {text!r}: expected p or p/q")
    try:
        return Fraction(literal)
    except ZeroDivisionError:
        raise InputError(f"malformed rational literal {text!r}: zero denominator") from None


def parse_int_vector(raw, where) -> tuple[int, ...]:
    """A JSON list of integers; floats, strings and booleans are refused."""
    if not isinstance(raw, list):
        raise InputError(f"bad integer vector in {where}: expected a list")
    bad = [x for x in raw if type(x) is not int]
    if bad:
        raise InputError(f"bad integer vector in {where}: {bad[0]!r} is not an integer")
    return tuple(raw)


def series_to_records(series: TruncatedSeries) -> list[dict]:
    return [{"e": list(e), "c": format_rational(c)} for e, c in series.items()]


def series_from_records(frame: Frame, order: int, records) -> TruncatedSeries:
    terms = {}
    for rec in records:
        try:
            exps = parse_int_vector(rec["e"], f"series record {rec!r}")
            coeff = parse_rational(rec["c"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed series record {rec!r}: {exc}") from None
        if len(exps) != frame.nvars or any(e < 0 for e in exps):
            raise InputError(
                f"series record {rec!r} needs {frame.nvars} non-negative exponents"
            )
        grade = frame.grade(exps)
        if grade > order:
            raise InputError(f"series record {rec!r} has grade {grade} above the order {order}")
        if exps in terms:
            raise InputError(f"duplicate exponent {exps} in series records")
        terms[exps] = coeff
    return TruncatedSeries(frame, order, terms)


def frame_to_json(frame: Frame) -> dict:
    return {
        "names": list(frame.names),
        "grading": list(frame.grading),
        "boundary": list(frame.boundary),
    }


def frame_from_json(doc) -> Frame:
    try:
        names = doc["names"]
        if not isinstance(names, list):
            raise InputError(f"frame names must be a list of strings, got {names!r}")
        bad = [n for n in names if not isinstance(n, str)]
        if bad:
            raise InputError(f"frame name {bad[0]!r} is not a string")
        return Frame(
            names=tuple(names),
            grading=parse_int_vector(doc.get("grading", []), "frame.grading"),
            boundary=parse_int_vector(doc.get("boundary", []), "frame.boundary"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed frame document: {exc}") from None


def series_to_json(series: TruncatedSeries) -> dict:
    return {
        "frame": frame_to_json(series.frame),
        "order": series.order,
        "terms": series_to_records(series),
    }


def series_from_json(doc) -> TruncatedSeries:
    try:
        frame = frame_from_json(doc["frame"])
        (order,) = parse_int_vector([doc["order"]], "series order")
        records = doc["terms"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed series document: {exc}") from None
    if order < 0:
        raise InputError(f"series order must be non-negative, got {order}")
    return series_from_records(frame, order, records)
