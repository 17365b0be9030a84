"""Invariant extraction, disc potential, and multiple-cover inversion."""

import random
from fractions import Fraction as F
from math import gcd, isqrt, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import mobius

from syzmirror import (
    Frame,
    MathDomainError,
    TruncatedSeries,
    av_mirror_brane,
    boundary_derivative,
    cover_sum,
    disc_potential,
    exp_series,
    extract_open_gw,
    integrality_check,
    log_series,
    multiple_cover_inversion,
    verify_potential,
)
from syzmirror._backend import monomial_text
from syzmirror.invariants import InvariantTable, _mobius, _Ratios

OPEN = Frame(names=("Q0",), boundary=(1,))


def z2_from_log(frame, order, terms):
    return exp_series(TruncatedSeries(frame, order, {e: -F(c) for e, c in terms.items()}))


class TestExtract:
    def test_single_disc(self):
        z2 = z2_from_log(OPEN, 8, {(1,): 1})
        table = extract_open_gw(z2)
        assert table.n == {(1,): F(1)}

    def test_double_cover_weighting(self):
        # z2 = exp(-2 Q0^2) with unit winding per Q0: n = 2 / boundary(2) = 1
        z2 = z2_from_log(OPEN, 8, {(2,): 2})
        table = extract_open_gw(z2)
        assert table.n == {(2,): F(1)}

    def test_conifold_pattern(self, conifold, conifold_brane):
        result = av_mirror_brane(conifold, conifold_brane, 8)
        table = extract_open_gw(result.z2)
        for k in range(1, 9):
            assert table.n[(k, 0)] == F(1, k * k)
            assert table.n[(0, k)] == F(1, k * k)
        assert len(table.n) == 16

    def test_zero_boundary_monomial_rejected(self):
        # named in lexicographic order, not in the grade-first row order
        frame = Frame(names=("Q0", "Q1", "Q2"), boundary=(1, 0, 0))
        z2 = z2_from_log(frame, 4, {(0, 1, 0): 1, (1, 1, 0): 1, (0, 0, 1): 2})
        with pytest.raises(MathDomainError, match=r"grading: \[\(0, 0, 1\), \(0, 1, 0\)\]"):
            extract_open_gw(z2)

    def test_definition_round_trip(self):
        # building z2 from a table and extracting returns the table
        frame = Frame(names=("Q0", "Q1"), boundary=(1, -1))
        wanted = {(1, 0): F(3, 2), (0, 2): F(-1, 4), (2, 1): F(5)}
        log_terms = {
            e: F(c) * sum(b * x for b, x in zip(frame.boundary, e)) for e, c in wanted.items()
        }
        z2 = z2_from_log(frame, 6, log_terms)
        assert extract_open_gw(z2).n == wanted


class TestDiscPotential:
    def test_single_disc(self):
        z2 = z2_from_log(OPEN, 8, {(1,): 1})
        assert disc_potential(z2) == TruncatedSeries(OPEN, 8, {(1,): F(1)})

    def test_pure_cover(self):
        # z2 = exp(-k Q0^k) gives F = Q0^k
        for k in (2, 3, 5):
            z2 = z2_from_log(OPEN, 8, {(k,): k})
            assert disc_potential(z2) == TruncatedSeries(OPEN, 8, {(k,): F(1)})

    def test_weighted_derivative_round_trip(self, conifold, conifold_brane):
        result = av_mirror_brane(conifold, conifold_brane, 8)
        potential = disc_potential(result.z2)
        assert verify_potential(result.z2, potential)
        assert boundary_derivative(potential) == -log_series(result.z2)


class TestMobius:
    def test_small_values(self):
        assert [_mobius(n) for n in range(1, 13)] == [
            1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0
        ]

    def test_pure_cover_tower_inverts_to_primitive(self):
        n = {(k,): F(1, k * k) for k in range(1, 9)}
        table = InvariantTable(frame=OPEN, order=8, n=n)
        filled = multiple_cover_inversion(table)
        assert filled.N == {(1,): F(1)}

    def test_primitive_class_is_its_own_instanton(self):
        table = InvariantTable(frame=OPEN, order=8, n={(1,): F(7, 3)})
        filled = multiple_cover_inversion(table)
        assert filled.N == {(1,): F(7, 3)}

    def test_conifold_table(self, conifold, conifold_brane):
        result = av_mirror_brane(conifold, conifold_brane, 8)
        filled = multiple_cover_inversion(extract_open_gw(result.z2))
        assert filled.N == {(1, 0): F(1), (0, 1): F(1)}
        assert integrality_check(filled).ok

    def test_round_trip_on_randomized_tables(self):
        rng = random.Random(77)
        frame = Frame(names=("a", "b"), boundary=(1, -1))
        for _ in range(100):
            n = {}
            for _ in range(rng.randint(1, 6)):
                exps = (rng.randint(0, 8), rng.randint(0, 8))
                if exps == (0, 0) or frame.grade(exps) > 8:
                    continue
                n[exps] = F(rng.randint(-60, 60), rng.randint(1, 24))
            table = InvariantTable(frame=frame, order=8, n=n)
            filled = multiple_cover_inversion(table)
            for beta in n:
                assert cover_sum(filled, beta) == n[beta]

    def test_matches_trial_division_reference(self):
        # the loop the gcd divisors replaced: every p up to the smallest
        # nonzero entry, and a Fraction(0) term for each absent beta/p
        def divisors(beta):
            top = min((x for x in beta if x), default=0)
            for p in range(1, top + 1):
                if all(x % p == 0 for x in beta):
                    yield p, tuple(x // p for x in beta)

        def reference(n):
            out = {}
            for beta in {reduced for key in n for _, reduced in divisors(key)}:
                total = sum(
                    (F(_mobius(p), p * p) * n.get(reduced, F(0)) for p, reduced in divisors(beta)),
                    F(0),
                )
                if total != 0:
                    out[beta] = total
            return out

        rng = random.Random(11)
        frame = Frame(names=("a", "b", "c"), boundary=(1, -1, 2))
        for _ in range(150):
            n = {}
            for _ in range(rng.randint(0, 10)):
                k = rng.choice([1, 2, 3, 4, 6, 12, 30])
                exps = tuple(k * rng.randint(0, 3) for _ in range(3))
                if any(exps):
                    n[exps] = F(rng.randint(-60, 60), rng.randint(1, 24))
            filled = multiple_cover_inversion(InvariantTable(frame=frame, order=200, n=n))
            assert filled.N == reference(n)
            for beta in filled.N:
                assert cover_sum(filled, beta) == sum(
                    (filled.N.get(reduced, F(0)) / (p * p) for p, reduced in divisors(beta)),
                    F(0),
                )


def _closure_divisors(beta):
    # the divisor generator multiple_cover_inversion ran before it
    # split off the gcd-1 classes
    g = gcd(*beta)
    small = [p for p in range(1, isqrt(g) + 1) if g % p == 0]
    for p in small + [g // p for p in reversed(small) if p * p != g]:
        yield p, tuple(x // p for x in beta)


def divisor_closure_inversion(n):
    """The Mobius sum over the whole divisor closure of the support."""
    instanton = {}
    for beta in {reduced for key in n for _, reduced in _closure_divisors(key)}:
        total = n.get(beta, F(0))
        for p, reduced in _closure_divisors(beta):
            if p > 1 and reduced in n:
                mu = _mobius(p)
                if mu:
                    total += F(mu, p * p) * n[reduced]
        if total != 0:
            instanton[beta] = total
    return instanton


# multiples of small vectors: many classes with gcd > 1, whose divisor
# classes are mostly absent from the table
_classes = st.builds(
    lambda k, base: tuple(k * x for x in base),
    st.sampled_from([1, 1, 2, 3, 4, 6, 8, 12]),
    st.tuples(*[st.integers(0, 3)] * 3).filter(any),
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_classes, st.fractions(-50, 50, max_denominator=30), max_size=12))
@example({(4, 0, 8): F(3, 2), (1, 2, 0): F(-1), (6, 6, 0): F(0), (0, 0, 12): F(5, 7)})
def test_inversion_matches_divisor_closure(n):
    frame = Frame(names=("a", "b", "c"), boundary=(1, -1, 2))
    filled = multiple_cover_inversion(InvariantTable(frame=frame, order=40, n=n))
    assert filled.N == divisor_closure_inversion(n)
    for beta in n:
        assert cover_sum(filled, beta) == n[beta]


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_classes, st.tuples(st.integers(-40, 40), st.integers(1, 36)), max_size=14))
@example({(12, 0, 12): (0, 4), (6, 0, 6): (3, 6), (2, 0, 2): (-1, 2), (3, 6, 0): (5, 1)})
def test_inversion_matches_the_mobius_reference(pairs):
    # unreduced integer pairs as extract_open_gw leaves them, zero values
    # among them; sympy's Mobius function, Fractions, and every divisor
    def divisors(beta):
        g = gcd(*beta)
        return [(p, tuple(x // p for x in beta)) for p in range(1, g + 1) if g % p == 0]

    n = {beta: F(*pair) for beta, pair in pairs.items()}
    frame = Frame(names=("a", "b", "c"), boundary=(1, -1, 2))
    table = InvariantTable(frame=frame, order=40, n=_Ratios(dict(pairs)))
    filled = multiple_cover_inversion(table)
    want = {}
    for beta in {reduced for key in n for _, reduced in divisors(key)}:
        total = sum(
            (F(int(mobius(p)), p * p) * n.get(reduced, F(0)) for p, reduced in divisors(beta)),
            F(0),
        )
        if total:
            want[beta] = total
    assert dict(filled.N) == want
    # a class of gcd 1 keeps its pair; any other is over the lcm of the
    # denominators of the terms it reads
    for beta, pair in filled.N.pairs.items():
        if gcd(*beta) == 1:
            assert pair == pairs[beta]
        else:
            read = [p * p * pairs[r][1] for p, r in divisors(beta) if mobius(p) and r in pairs]
            assert pair[1] == lcm(*read)


def reference_rows(n, N):
    """(beta, n, N) per class in sorted order as ``InvariantTable.rows``
    prints them, from ``Fraction`` maps: an integral N as an int."""
    def printed(value):
        return int(value) if value.denominator == 1 else str(value)

    return [
        (beta, str(n[beta]) if beta in n else None, printed(N[beta]) if beta in N else None)
        for beta in sorted(set(n) | set(N))
    ]


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_classes, st.fractions(-50, 50, max_denominator=30), max_size=12))
@example({(12, 0, 12): F(1, 2), (1, 1, 1): F(1), (6, 6, 6): F(-3, 4)})
def test_rows_and_flags_match_the_fraction_reference(n):
    # hand-built tables: classes of gcd up to 12 and more, non-integral N
    frame = Frame(names=("a", "b", "c"), boundary=(1, -1, 2))
    filled = multiple_cover_inversion(InvariantTable(frame=frame, order=40, n=n))
    N = divisor_closure_inversion(n)
    assert list(filled.rows()) == reference_rows(n, N)
    flagged = tuple((beta, N[beta]) for beta in sorted(N) if N[beta].denominator != 1)
    assert integrality_check(filled).flagged == flagged


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(_classes, st.fractions(-50, 50, max_denominator=30), max_size=12))
@example({(1, 0, 0): F(1, 2), (2, 0, 2): F(3)})
def test_rows_and_labels_match_the_printed_classes(n):
    # every read of a table's rows gives what the first did, read off its
    # printed classes; each label is the class's monomial
    frame = Frame(names=("a", "b", "c"), boundary=(1, -1, 2))
    filled = multiple_cover_inversion(InvariantTable(frame=frame, order=40, n=n))
    first = filled.rows()
    assert filled.rows() == first
    assert [(beta, n, N) for beta, _, n, N in filled.printed] == first
    labels = [label for _, label, _, _ in filled.printed]
    assert labels == [monomial_text(frame.names, beta) or "1" for beta, _, _ in first]


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda e: 2 * e[0] != 3 * e[1]),
        st.fractions(-20, 20, max_denominator=12).filter(bool),
        max_size=8,
    )
)
def test_extracted_rows_match_the_fraction_reference(log_terms):
    # boundary weights of both signs: each n is the row numerator over the
    # row denominator times a weight that may be negative
    frame = Frame(names=("a", "b"), boundary=(2, -3))
    neg_log = TruncatedSeries(frame, 6, log_terms)
    table = multiple_cover_inversion(extract_open_gw(exp_series(-neg_log)))
    n = {e: c / sum(b * x for b, x in zip(frame.boundary, e)) for e, c in neg_log.terms.items()}
    assert table.n == n
    assert list(table.rows()) == reference_rows(n, divisor_closure_inversion(n))


class TestIntegrality:
    def test_conifold_passes(self, conifold, conifold_brane):
        result = av_mirror_brane(conifold, conifold_brane, 8)
        filled = multiple_cover_inversion(extract_open_gw(result.z2))
        assert integrality_check(filled).ok

    def test_fractional_primitive_fails(self):
        table = InvariantTable(frame=OPEN, order=8, n={(1,): F(1, 3)})
        assert table.N is None
        assert table == InvariantTable(OPEN, 8, {(1,): F(1, 3)}, None)
        report = integrality_check(multiple_cover_inversion(table))
        assert not report.ok
        assert report.flagged[0][0] == (1,)
        again = integrality_check(multiple_cover_inversion(table))
        assert report == again and hash(report) == hash(again)
        with pytest.raises(AttributeError):
            report.flagged = ()
        with pytest.raises(AttributeError):
            table.N = {}

    def test_empty_table_passes(self):
        table = InvariantTable(frame=OPEN, order=8, n={})
        assert integrality_check(multiple_cover_inversion(table)).ok

    def test_kp2_leg_brane_integrality(self, kp2, kp2_leg_brane):
        # genuine geometry: instanton numbers of the outer-leg brane
        result = av_mirror_brane(kp2, kp2_leg_brane, 7)
        filled = multiple_cover_inversion(extract_open_gw(result.z2))
        assert integrality_check(filled).ok
        low = {b: v for b, v in filled.N.items() if filled.frame.grade(b) <= 3}
        assert low == {
            (1, 0): F(1),
            (0, 1): F(1),
            (0, 2): F(-1),
            (0, 3): F(1),
            (2, 1): F(-1),
            (1, 2): F(-2),
        }

    def test_kp2_leg_brane_column_matches_literature(self, kp2, kp2_leg_brane):
        # the single-winding disc counts of the outer brane are the
        # classic sequence 1, -1, 1, -2, 5, -13, 35, -100
        result = av_mirror_brane(kp2, kp2_leg_brane, 8)
        filled = multiple_cover_inversion(extract_open_gw(result.z2))
        column = [filled.N.get((0, k), F(0)) for k in range(1, 9)]
        assert column == [F(1), F(-1), F(1), F(-2), F(5), F(-13), F(35), F(-100)]

    def test_framing_sensitivity_is_diagnosed(self, kp2):
        # the same leg with the auxiliary index through the compact
        # divisor leaves this frame's cone: the diagnostic must flag it
        from tests.conftest import av_brane

        brane = av_brane(1, 2, 0, m=4)
        result = av_mirror_brane(kp2, brane, 7)
        filled = multiple_cover_inversion(extract_open_gw(result.z2))
        assert not integrality_check(filled).ok
