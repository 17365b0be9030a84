"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines inline.  Every tolerance is exact equality; there are no
floating-point comparisons anywhere.
"""

import functools
import random
import time
from fractions import Fraction as F

from syzmirror import (
    Frame,
    TruncatedSeries,
    av_mirror_brane,
    boundary_derivative,
    brane_frame,
    build_curve,
    closed_frame,
    compare_naive,
    cover_sum,
    evaluate_curve,
    exp_series,
    extract_open_gw,
    fiber_open_gw,
    fixed_point_system,
    integrality_check,
    inverse_mirror_map,
    log_series,
    mirror_map,
    multiple_cover_inversion,
    naive_brane,
    pow_int,
    solve_curve_root,
    substitute,
)
from syzmirror.invariants import InvariantTable
from syzmirror.lattice import ToricCYData, unit_vector
from tests import oracle_fiber
from tests.conftest import av_brane, brane_table, kahler_monomial

C3 = ToricCYData(rays=((0, 0, 1), (1, 0, 1), (0, 1, 1)), u=(0, 0, 1))
CONIFOLD = ToricCYData(
    rays=((0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)), u=(0, 0, 1)
)
KP2 = ToricCYData(
    rays=((0, 0, 1), (1, 0, 1), (0, 1, 1), (-1, -1, 1)), u=(0, 0, 1)
)

CONIFOLD_BRANE = av_brane(0, 2, 1, m=4, c=F(2))
C3_BRANE = av_brane(0, 2, 1, m=3, c=F(1), frame=((1,),))
KP2_EDGE_BRANE = av_brane(0, 2, 1, m=4, c=F(1, 2))
KP2_LEG_BRANE = av_brane(1, 2, 3, m=4, c=F(1))

ORDER = 8


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({label}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({label}): PASS")

        return wrapper

    return decorate


@criterion(1, "mirror-map round trip")
def test_criterion_1_round_trip():
    start = time.perf_counter()
    for data in (KP2, CONIFOLD):
        frame = closed_frame(data)
        forward = mirror_map(data, ORDER)
        backward = inverse_mirror_map(data, ORDER)
        for a in range(data.n_closed):
            composed = substitute(
                forward.closed[a], list(backward.closed), frame=frame, order=ORDER
            )
            residual = composed - TruncatedSeries.generator(frame, ORDER, a)
            assert residual.is_zero()
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"round trip took {elapsed:.2f}s, budget 5s"


@criterion(2, "conifold triviality")
def test_criterion_2_conifold_triviality():
    iota = [[1, -1, 1, -1]]
    for d in range(1, ORDER + 1):
        for i in range(4):
            assert oracle_fiber.coefficient(iota, i, (d,)) == 0
    frame = closed_frame(CONIFOLD)
    q = TruncatedSeries.generator(frame, ORDER, 0)
    assert mirror_map(CONIFOLD, ORDER).closed[0] == q
    assert inverse_mirror_map(CONIFOLD, ORDER).closed[0] == q
    one = TruncatedSeries.one(frame, ORDER)
    assert all(s == one for s in fiber_open_gw(CONIFOLD, ORDER))
    curve = build_curve(CONIFOLD, ORDER)
    assert [t.z_exponents for t in curve.terms] == [(0, 0), (1, 0), (0, 1), (-1, 1)]
    assert [t.q_exponents for t in curve.terms] == [(0,), (0,), (0,), (1,)]


@criterion(3, "local-P2 fiber invariants")
def test_criterion_3_fiber_invariants():
    deltas = fiber_open_gw(KP2, 5)
    frozen = {0: F(1), 1: F(-2), 2: F(5), 3: F(-32), 4: F(286), 5: F(-3038)}
    oracle = oracle_fiber.fiber_series(5)
    for d, value in frozen.items():
        assert oracle[d] == value, "oracle drifted from the frozen expectations"
        assert deltas[0].coefficient((d,)) == value
    assert len(deltas[0].terms) == 6


@criterion(4, "curve-root residual")
def test_criterion_4_curve_root_residual():
    cases = [
        (C3, C3_BRANE),
        (CONIFOLD, CONIFOLD_BRANE),
        (KP2, KP2_EDGE_BRANE),
        (KP2, KP2_LEG_BRANE),
    ]
    for data, brane in cases:
        bframe, table = brane_table(data, brane, ORDER)
        root = solve_curve_root(table, bframe.frame, ORDER)
        assert evaluate_curve(table, root, bframe.frame, ORDER).is_zero()


@criterion(5, "conifold closed form")
def test_criterion_5_conifold_closed_form():
    bframe, table = brane_table(CONIFOLD, CONIFOLD_BRANE, ORDER)
    root = solve_curve_root(table, bframe.frame, ORDER)
    # independent expansion of -(1 + q0) / (1 + q1 q0^-1) in the frame
    # generators P1 = q0, P2 = q1 q0^-1 by explicit geometric series
    expected = {}
    for k in range(ORDER + 1):
        expected[(0, k)] = F((-1) ** (k + 1))
        if k + 1 <= ORDER:
            expected[(1, k)] = F((-1) ** (k + 1))
    assert root.terms == expected
    assert root == TruncatedSeries(bframe.frame, ORDER, expected)


@criterion(6, "naive brane equations")
def test_criterion_6_naive_brane():
    cases = [(C3, C3_BRANE), (CONIFOLD, CONIFOLD_BRANE), (KP2, KP2_EDGE_BRANE)]
    for data, brane in cases:
        first, second = naive_brane(data, brane)
        # the zero-constant charge pins z2 = 1
        assert first.z_exponents == (0, -1)
        assert all(x == 0 for x in first.q_exponents)
        assert (first.constant, first.phase) == (0, 0)
        # the nonzero-constant charge pins z1 = e^{-c-i phi} = Q0
        assert second.z_exponents == (-1, 0)
        assert all(x == 0 for x in second.q_exponents)
        assert second.constant != 0
    for data, brane in cases + [(KP2, KP2_LEG_BRANE), (KP2, av_brane(1, 2, 0, m=4))]:
        report = compare_naive(data, brane, 6)
        assert report.z1_in_closed_ideal
        bframe = brane_frame(data, brane)
        # the z1 correction and the mixed part of z2 have no pure-open term
        for series in (report.z1_correction, report.z2_mixed):
            pure = [e for e in series.terms if not any(kahler_monomial(bframe, e)[1:])]
            assert pure == []


@criterion(7, "disc-potential identity")
def test_criterion_7_disc_potential():
    from syzmirror import disc_potential, verify_potential

    for data, brane in ((CONIFOLD, CONIFOLD_BRANE), (KP2, KP2_LEG_BRANE)):
        z2 = av_mirror_brane(data, brane, ORDER).z2
        potential = disc_potential(z2)
        assert verify_potential(z2, potential)
        assert boundary_derivative(potential) == -log_series(z2)
        table = extract_open_gw(z2)
        rebuilt = exp_series(-boundary_derivative(
            TruncatedSeries(table.frame, z2.order, table.n)
        ))
        assert rebuilt == z2


@criterion(8, "multiple-cover integrality")
def test_criterion_8_multiple_cover():
    z2 = av_mirror_brane(CONIFOLD, CONIFOLD_BRANE, ORDER).z2
    table = multiple_cover_inversion(extract_open_gw(z2))
    assert table.N == {(1, 0): F(1), (0, 1): F(1)}
    assert all(value in (F(1), F(-1)) for value in table.N.values())
    assert integrality_check(table).ok

    rng = random.Random(20260810)
    frame = Frame(names=("a", "b"), boundary=(1, -1))
    for _ in range(100):
        n = {}
        for _ in range(rng.randint(1, 6)):
            exps = (rng.randint(0, ORDER), rng.randint(0, ORDER))
            if exps == (0, 0) or frame.grade(exps) > ORDER:
                continue
            n[exps] = F(rng.randint(-90, 90), rng.randint(1, 36))
        table = multiple_cover_inversion(
            InvariantTable(frame=frame, order=ORDER, n=n)
        )
        for beta, value in n.items():
            assert cover_sum(table, beta) == value


@criterion(9, "series property suites")
def test_criterion_9_property_suites():
    start = time.perf_counter()
    rng = random.Random(987654321)
    frame = Frame(names=("x", "y"), boundary=(1, -1))
    cases = 0

    def random_series(zero_constant=False, unit_constant=False):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            exps = (rng.randint(0, ORDER), rng.randint(0, ORDER))
            if frame.grade(exps) > ORDER:
                continue
            terms[exps] = F(rng.randint(-50, 50), rng.randint(1, 20))
        if zero_constant:
            terms.pop((0, 0), None)
        if unit_constant:
            terms[(0, 0)] = F(1)
        return TruncatedSeries(frame, ORDER, terms)

    for _ in range(60):
        a, b, c = random_series(), random_series(), random_series()
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        cases += 1

    for _ in range(40):
        s = random_series(zero_constant=True)
        assert log_series(exp_series(s)) == s
        u = random_series(unit_constant=True)
        assert exp_series(log_series(u)) == u
        k = rng.randint(-4, 4)
        assert pow_int(u, k) * pow_int(u, -k) == TruncatedSeries.one(frame, ORDER)
        cases += 1

    images = [
        TruncatedSeries(frame, ORDER, {(1, 0): F(1), (1, 1): F(-2)}),
        TruncatedSeries(frame, ORDER, {(0, 1): F(3), (2, 0): F(1, 2)}),
    ]
    for _ in range(50):
        a, b = random_series(), random_series()
        assert substitute(a + b, images) == substitute(a, images) + substitute(b, images)
        assert substitute(a * b, images) == substitute(a, images) * substitute(b, images)
        axis = unit_vector(2, rng.randint(0, 1))
        lhs = (a * b).weighted(axis)
        assert lhs == a.weighted(axis) * b + a * b.weighted(axis)
        cases += 1

    for _ in range(50):
        mult = random_series(zero_constant=True)

        def update(xs, mult=mult):
            return exp_series(substitute(mult, xs))

        xs = fixed_point_system(lambda xs: [update(xs), update(xs)], frame, ORDER)
        for i, x in enumerate(xs):
            assert x == TruncatedSeries.generator(frame, ORDER, i) * update(xs)
        cases += 1

    elapsed = time.perf_counter() - start
    assert cases >= 200, f"only {cases} randomized cases"
    assert elapsed < 60.0, f"property suite took {elapsed:.2f}s, budget 60s"
