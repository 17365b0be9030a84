"""Shared geometries and branes for the test suite."""

import contextlib
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from syzmirror import BraneSpec, Frame, ToricCYData, TruncatedSeries, cli
from syzmirror._backend import Terms
from syzmirror.mirror import (
    brane_frame,
    build_curve,
    curve_in_brane_frame,
    inverse_mirror_map,
    open_series,
)


@pytest.fixture(autouse=True)
def cold_job_cache():
    """Each test starts with no parsed job, so call counts do not depend on test order."""
    cli._parse_text.cache_clear()


@pytest.fixture
def c3():
    return ToricCYData(rays=((0, 0, 1), (1, 0, 1), (0, 1, 1)), u=(0, 0, 1),
                       max_cones=((0, 1, 2),))


@pytest.fixture
def conifold():
    # resolved conifold, diagonal triangulation through rays 0 and 2
    return ToricCYData(
        rays=((0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)),
        u=(0, 0, 1),
        max_cones=((0, 1, 2), (0, 2, 3)),
    )


@pytest.fixture
def kp2():
    # total space of the canonical bundle over P^2
    return ToricCYData(
        rays=((0, 0, 1), (1, 0, 1), (0, 1, 1), (-1, -1, 1)),
        u=(0, 0, 1),
        max_cones=((0, 1, 2), (0, 2, 3), (0, 1, 3)),
    )


@pytest.fixture
def kp1xp1():
    # total space of the canonical bundle over P^1 x P^1
    return ToricCYData(
        rays=((0, 0, 1), (1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)),
        u=(0, 0, 1),
        max_cones=((0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1)),
    )


@pytest.fixture
def kdp3():
    # total space of the canonical bundle over dP3; only A_0 is nonzero
    return ToricCYData(
        rays=((0, 0, 1), (1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (1, 1, 1), (-1, -1, 1)),
        u=(0, 0, 1),
        max_cones=((0, 1, 5), (0, 5, 2), (0, 2, 3), (0, 3, 6), (0, 6, 4), (0, 4, 1)),
    )


@pytest.fixture
def c3_z5_113():
    # resolved C^3/Z_5 with weights (1, 1, 3): two interior points, so two
    # nonzero A_j with the Mori generators l1, l2 as supplied charge rows
    return ToricCYData(
        rays=((1, 1, 1), (1, 0, 1), (0, 0, 1), (2, 5, 1), (1, 2, 1)),
        u=(0, 0, 1),
        charge_rows=((-2, 1, 0, 0, 1), (1, 0, 1, 1, -3)),
    )


def av_brane(i0, i1, i2, m, c=Fraction(1), frame=((1, 0), (-1, 1)), m0=None):
    """Canonical AV brane: rows (e_i1-e_i0, e_i2-e_i0), constant on the second."""
    def diff(a, b):
        return tuple(
            (1 if j == a else 0) - (1 if j == b else 0) for j in range(m)
        )

    return BraneSpec(
        charges=(diff(i1, i0), diff(i2, i0)),
        constants=(Fraction(0), Fraction(c)),
        phases=(Fraction(0), Fraction(0)),
        av_indices=(i0, i1, i2),
        m0=m0,
        frame_generators=frame,
    )


@pytest.fixture
def conifold_brane():
    # charges (e2-e0, e1-e0), whose equations read z2 = 1 and z1 = Q0
    return av_brane(0, 2, 1, m=4, c=Fraction(2))


@pytest.fixture
def c3_brane():
    return av_brane(0, 2, 1, m=3, c=Fraction(1), frame=((1,),))


@pytest.fixture
def kp2_leg_brane():
    # brane on the leg F_{1,2} with the outer auxiliary index 3
    return av_brane(1, 2, 3, m=4, c=Fraction(1))


@pytest.fixture
def kp2_edge_brane():
    # brane on the bounded edge F_{0,2} of the compact divisor triangle;
    # geometric placement (m0) is exercised separately with offsets
    return av_brane(0, 2, 1, m=4, c=Fraction(1, 2))


@contextlib.contextmanager
def no_decoding():
    """Fail on any decode of a ``Terms`` mapping view inside the block."""

    def refuse(terms):
        raise AssertionError("decoded the Fraction view of the rows")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Terms, "_decoded", refuse)
        yield


def kahler_monomial(bframe, exps):
    """The exponents over (Q0, Q1, ...) of prod_k generators[k] ** exps[k]:
    the Kahler monomial that the brane-frame exponents ``exps`` stand for."""
    return tuple(sum(e * x for e, x in zip(exps, column)) for column in zip(*bframe.generators))


def brane_table(data, brane, order):
    """The brane frame and the corrected curve as a ``curve_in_brane_frame``
    table at ``order``, built the way ``av_mirror_brane`` builds them."""
    bframe = brane_frame(data, brane)
    closed_order = bframe.closed_order_for(order)
    inv = inverse_mirror_map(data, closed_order, brane)
    curve = build_curve(data, closed_order, corrected=True, inverse_map=inv)
    unit = open_series(inv, bframe, order)
    return bframe, curve_in_brane_frame(curve, unit, bframe, order)


# Frames of three and four generators: a grade slice of a series over
# them has several rows (fixed exponents past the second), and leaving
# monomials out puts holes inside those rows.
DENSE_NVARS = (3, 4)


def monomials(nvars, order):
    """Every exponent vector over ``nvars`` generators of total degree
    1..``order``."""
    vectors = [()]
    for _ in range(nvars):
        vectors = [e + (k,) for e in vectors for k in range(order + 1)]
    return [e for e in vectors if 0 < sum(e) <= order]


def random_series(nvars, order, constant, keep, rnd):
    """``constant`` plus each monomial of grade 1..``order`` with chance
    ``keep``, with small rational coefficients drawn from ``rnd``."""
    frame = Frame(names=tuple(f"x{i}" for i in range(nvars)))
    terms = {
        e: Fraction(rnd.choice((-1, 1)) * rnd.randint(1, 9), rnd.choice((1, 1, 2, 3)))
        for e in monomials(nvars, order)
        if rnd.random() < keep
    }
    terms[(0,) * nvars] = Fraction(constant)
    return TruncatedSeries(frame, order, terms)


@st.composite
def dense_series(draw, constant):
    """A series over three or four generators with ``constant`` plus up
    to every monomial of grade <= order (order <= 10 on three
    generators, <= 6 on four); a drawn share of the monomials is left
    out."""
    nvars = draw(st.sampled_from(DENSE_NVARS))
    order = draw(st.integers(min_value=0, max_value=10 if nvars < 4 else 6))
    keep = draw(st.sampled_from((1.0, 0.9, 0.5, 0.2)))
    return random_series(nvars, order, constant, keep, draw(st.randoms(use_true_random=False)))
