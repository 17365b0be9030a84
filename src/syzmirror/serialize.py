"""JSON output of series and frames, and the literal readers of a job.

Series serialize as a list of ``{"e": [ints], "c": "p/q"}`` records
sorted lexicographically by exponent; rationals are lowest-terms
strings, read off a series' integer numerators with no ``Fraction``.
Job documents give rationals and integer vectors, which
``parse_rational`` and ``parse_int_vector`` read strictly.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InputError
from .fps import Frame, TruncatedSeries, ratio_text


_RATIONAL_LITERAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def short_repr(value, limit: int = 40) -> str:
    """``repr(value)``, or, past ``limit`` characters of ``value`` (of its
    ``repr`` if it is not a string), their first 12 and last 4 and their
    count: an error message names a long value without repeating it."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= limit:
        return repr(value)
    return f"{text[:12]}...{text[-4:]} ({len(text)} characters)"


def parse_rational(text) -> Fraction:
    """Parse a JSON integer or a string "p" or "p/q" with q > 0.

    The string holds an optional sign and decimal digits, with
    surrounding whitespace allowed; booleans, floats, decimal or
    exponent notation, digit separators and more digits than ``int``
    converts are input errors that name the value, shortened past 40
    characters.
    """
    if type(text) is int:
        return Fraction(text)
    if not isinstance(text, str):
        raise InputError(f"rational literal must be an integer or a string, got {short_repr(text)}")
    literal = text.strip()
    if not _RATIONAL_LITERAL.fullmatch(literal):
        raise InputError(f"malformed rational literal {short_repr(text)}: expected p or p/q")
    try:
        return Fraction(literal)
    except ZeroDivisionError:
        message = f"malformed rational literal {short_repr(text)}: zero denominator"
        raise InputError(message) from None
    except ValueError as exc:  # past the interpreter's digit limit
        raise InputError(f"malformed rational literal {short_repr(literal)}: {exc}") from None


def parse_int_vector(raw, where) -> tuple[int, ...]:
    """A JSON list of integers; floats, strings and booleans are refused."""
    if not isinstance(raw, list):
        raise InputError(f"bad integer vector in {where}: expected a list")
    bad = [x for x in raw if type(x) is not int]
    if bad:
        raise InputError(f"bad integer vector in {where}: {short_repr(bad[0])} is not an integer")
    return tuple(raw)


def series_to_records(series: TruncatedSeries) -> list[dict]:
    terms = series.terms
    rows = sorted(zip(terms.exponents(), terms.nums))
    return [{"e": list(e), "c": ratio_text(n, terms.den)} for e, n in rows]


def frame_to_json(frame: Frame) -> dict:
    return {
        "names": list(frame.names),
        "grading": list(frame.grading),
        "boundary": list(frame.boundary),
    }


def series_to_json(series: TruncatedSeries) -> dict:
    return {
        "frame": frame_to_json(series.frame),
        "order": series.order,
        "terms": series_to_records(series),
    }

