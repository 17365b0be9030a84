"""``exp_series`` and ``log_series`` against the algorithms they replaced.

The grade-by-grade recurrence is checked for exact equality with the
power sum ``sum s^k / k!`` and with ``E(s) * 1/s`` divided by the grade,
1/s a geometric sum of products, on drawn series over frames of one to
three generators and on the arguments the pipeline really passes,
with the kernel normal form asserted on every output.  Dense series over
frames of three and four generators, whose grade slices have several
rows with holes, are checked against the defining equations
``E(g) = E(s) g`` and ``E(L) s = E(s)``, each one ``mul_terms`` product.
"""

import json
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from syzmirror import (
    Frame,
    NonUnitSeries,
    TruncatedSeries,
    a_series,
    av_mirror_brane,
    exp_series,
    fiber_open_gw,
    inverse,
    inverse_mirror_map,
    log_series,
    mirror_map,
)
from syzmirror import _backend, fps, invariants, mirror
from syzmirror.cli import parse_job
from tests.conftest import dense_series, random_series

ROOT = Path(__file__).resolve().parent.parent


# -- references: the algorithms the recurrence replaced ----------------


def reference_exp(s):
    """The power sum sum_k s^k / k!, each term made from the last."""
    acc = term = TruncatedSeries.one(s.frame, s.order)
    for k in range(1, s.order + 1):
        term = (term * s) * Fraction(1, k)
        acc = acc + term
    return acc


def euler(s):
    """E(s): each coefficient times its grade."""
    frame = s.frame
    return TruncatedSeries(frame, s.order, {e: c * frame.grade(e) for e, c in s.terms.items()})


def reference_inverse(s):
    """1/s as the geometric sum (1/c) sum_k (1 - s/c)^k over k <= order, c
    the constant term, each power made from the last by one ``mul_terms``
    product.  ``inverse`` and ``log_series`` both run on the grade-slice
    kernel (``graded_root``, ``_convolve``), which this never calls."""
    c = s.constant_term()
    step = 1 - s * (1 / c)
    acc = term = TruncatedSeries.one(s.frame, s.order)
    for _ in range(s.order):
        term = term * step
        acc = acc + term
    return acc * (1 / c)


def reference_log(s):
    """E(s) * 1/s, then each coefficient divided by its grade."""
    frame = s.frame
    quotient = euler(s) * reference_inverse(s)
    return TruncatedSeries(
        frame, s.order, {e: c / frame.grade(e) for e, c in quotient.terms.items()}
    )


def check_normal_form(r):
    t = r.terms
    assert all(a < b for a, b in zip(t.monos, t.monos[1:]))
    assert all(t.nums) and len(t.nums) == len(t.monos)
    assert t.den >= 1 and gcd(t.den, *t.nums) == 1


def check_exp(s):
    result = exp_series(s)
    check_normal_form(result)
    assert result == reference_exp(s)


def check_log(s):
    result = log_series(s)
    check_normal_form(result)
    assert result == reference_log(s)


# -- drawn series -------------------------------------------------------

# The grading of a frame of one to six generators: every generator has grade 1.
GRADINGS = [(1,) * n for n in range(1, 7)]
DENOMINATORS = [1, 2, 3, 7, 97, 2**61 - 1, 10**12 + 39, 3**40]


@st.composite
def series(draw, constant):
    nvars = draw(st.integers(min_value=1, max_value=3))
    frame = Frame(names=tuple(f"x{i}" for i in range(nvars)))
    order = draw(st.integers(min_value=0, max_value=8))
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=7))):
        exps = tuple(draw(st.integers(min_value=0, max_value=order)) for _ in range(nvars))
        numerator = draw(st.one_of(st.integers(-9, 9), st.integers(-(10**30), 10**30)))
        terms[exps] = Fraction(numerator, draw(st.sampled_from(DENOMINATORS)))
    terms[(0,) * frame.nvars] = Fraction(constant)
    return TruncatedSeries(frame, order, terms)


@settings(max_examples=150, deadline=None)
@given(series(0))
def test_exp_matches_power_sum(s):
    check_exp(s)


@settings(max_examples=150, deadline=None)
@given(series(1))
def test_log_matches_euler_quotient(s):
    check_log(s)


@settings(max_examples=40, deadline=None)
@given(series(0))
def test_log_inverts_exp(s):
    assert log_series(exp_series(s)) == s


@settings(max_examples=40, deadline=None)
@given(dense_series(0))
@example(random_series(3, 10, 0, 1.0, random.Random(1)))
@example(random_series(4, 6, 0, 0.5, random.Random(2)))
def test_dense_exp_solves_its_equation(s):
    # g_0 = 1 and E(g) = E(s) g fix g = exp s grade by grade
    g = exp_series(s)
    check_normal_form(g)
    assert g.constant_term() == 1
    assert euler(g) == euler(s) * g


@settings(max_examples=40, deadline=None)
@given(dense_series(1))
@example(random_series(4, 6, 1, 1.0, random.Random(3)))
@example(random_series(3, 10, 1, 0.5, random.Random(4)))
def test_dense_log_solves_its_equation(s):
    # L_0 = 0 and E(L) s = E(s) fix L = log s grade by grade
    L = log_series(s)
    check_normal_form(L)
    assert L.constant_term() == 0
    assert euler(L) * s == euler(s)


@pytest.mark.parametrize("grading", GRADINGS)
@pytest.mark.parametrize("order", range(9))
def test_edge_series(grading, order):
    frame = Frame(names=tuple(f"x{i}" for i in range(len(grading))))
    assert frame.grading == grading
    zero = TruncatedSeries.zero(frame, order)
    assert exp_series(zero) == TruncatedSeries.one(frame, order)
    assert log_series(TruncatedSeries.one(frame, order)) == zero
    last = TruncatedSeries.generator(frame, order, len(grading) - 1) * Fraction(5, 3)
    check_exp(last)
    check_log(last + 1)


def test_no_kernel_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("exp and log make no mul_terms call")

    monkeypatch.setattr(fps, "mul_terms", refuse)
    frame = Frame(names=("x", "y"))
    s = TruncatedSeries(frame, 9, {(1, 0): Fraction(2, 3), (0, 1): -5, (3, 2): Fraction(1, 7)})
    assert log_series(exp_series(s)) == s


@settings(max_examples=40, deadline=None)
@given(series(Fraction(-3, 2)))
def test_reference_inverse_is_independent_of_the_graded_kernel(s):
    def refuse(*args):
        raise AssertionError("the reference calls the grade-slice kernel")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fps, "graded_root", refuse)
        patch.setattr(_backend, "_convolve", refuse)
        reciprocal = reference_inverse(s)
    assert reciprocal * s == TruncatedSeries.one(s.frame, s.order)
    assert reciprocal == inverse(s)


def test_non_units_are_refused():
    frame = Frame(names=("x", "y"))
    x = TruncatedSeries.generator(frame, 6, 0)
    for constant in (1, Fraction(-1, 2)):
        with pytest.raises(NonUnitSeries):
            exp_series(x + constant)
    for constant in (0, 2, -1, Fraction(1, 2)):
        with pytest.raises(NonUnitSeries):
            log_series(x + constant)


# -- the arguments the pipeline passes ----------------------------------

JOBS = {
    "c3": ROOT / "jobs" / "c3.json",
    "conifold": ROOT / "jobs" / "conifold.json",
    "local_p2": ROOT / "jobs" / "local_p2.json",
    "local_dp3": ROOT / "perfbench" / "jobs" / "local_dp3.json",
    "local_p1xp1": ROOT / "perfbench" / "jobs" / "local_p1xp1.json",
}

def recorded_arguments(job, monkeypatch):
    """Every argument of exp and log in the map, fiber and brane runs."""
    calls = {"exp": [], "log": []}

    def recording(kind, fn):
        def wrapper(s):
            calls[kind].append(s)
            return fn(s)

        return wrapper

    monkeypatch.setattr(mirror, "exp_series", recording("exp", exp_series))
    monkeypatch.setattr(mirror, "log_series", recording("log", log_series))
    monkeypatch.setattr(invariants, "log_series", recording("log", log_series))
    for direction in (mirror_map, inverse_mirror_map):
        data = direction(job.toric, job.truncation, job.brane)
        data.closed, data.open_unit, data.fiber
    fiber_open_gw(job.toric, job.truncation)
    if job.brane is not None:
        result = av_mirror_brane(job.toric, job.brane, job.truncation)
        invariants.extract_open_gw(result.z2)
    return calls


@pytest.mark.parametrize("name", sorted(JOBS))
def test_pipeline_arguments(name, monkeypatch):
    job = parse_job(json.loads(JOBS[name].read_text()))
    calls = recorded_arguments(job, monkeypatch)
    # an exp is taken only for a ray with A_j != 0; C3 and the conifold have none
    live = any(not a.is_zero() for a in a_series(job.toric, job.truncation))
    assert bool(calls["exp"]) == live
    assert live == (name not in ("c3", "conifold"))
    for s in calls["exp"]:
        check_exp(s)
    for s in calls["log"]:
        check_log(s)
    assert bool(calls["log"]) == (job.brane is not None)
