"""The inverse mirror map by Good's Lagrange inversion, against two references.

``inverse_mirror_map`` reads every coefficient of each unit
exp(-sum_j w_j A_j(q(Q))) off one product chain, with no fixed point and
no ``substitute``.  Its closed map is checked against
``reference_fixed_point``, the plain full-order iteration of
q_a = Q_a exp(-sum_j iota_j^(a) A_j(q)), and each fiber series
exp(-A_j(q(Q))) against ``substitute`` of that closed map into A_j.
Resolved C^3/Z_5 with weights (1, 1, 3) and its Mori basis is the one
geometry with two nonzero A_j, where the Lagrange determinant is a true
2 x 2 determinant of series.

With one live ray the chain drops Delta and reads every series off the
powers A^g / g! alone; on drawn series and charge columns that read-off
is checked against the Delta chain, which the several-ray path builds
and which is the reference here.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from syzmirror import (
    Frame,
    TruncatedSeries,
    closed_frame,
    exp_series,
    inverse_mirror_map,
    substitute,
)
from syzmirror.mirror import LagrangeChain
from tests.test_fps_oracles import reference_fixed_point


def reference_closed(data, a_list, order):
    """q(Q) by the plain fixed point, composing each A_j on every pass."""
    frame = closed_frame(data)
    live = [j for j, a in enumerate(a_list) if not a.is_zero()]

    def unit(row):
        def update(xs):
            total = TruncatedSeries.zero(frame, order)
            for j in live:
                if row[j]:
                    total = total - substitute(a_list[j], xs) * row[j]
            return exp_series(total)

        return update

    return reference_fixed_point(
        [unit(row) for row in data.effective_charge_basis], frame, order
    )


@pytest.mark.parametrize(
    "geometry,order",
    [("c3", 10), ("conifold", 10), ("kp2", 10), ("kp1xp1", 10), ("kdp3", 8), ("c3_z5_113", 6)],
)
def test_closed_and_composed_match_the_references(request, geometry, order):
    data = request.getfixturevalue(geometry)
    frame = closed_frame(data)
    inv = inverse_mirror_map(data, order)
    assert list(inv.closed) == reference_closed(data, inv.a_series, order)
    assert list(inv.fiber) == [
        exp_series(-substitute(a, list(inv.closed), frame=frame, order=order))
        for a in inv.a_series
    ]
    live = sum(not a.is_zero() for a in inv.a_series)
    assert live == {"c3": 0, "conifold": 0, "c3_z5_113": 2}.get(geometry, 1)


@st.composite
def one_ray_inputs(draw):
    """A series A of valuation >= 1 over a frame of 1-3 generators, its
    order, a charge column and a unit weight c."""
    nvars = draw(st.integers(min_value=1, max_value=3))
    frame = Frame(names=tuple(f"x{i}" for i in range(nvars)))
    order = draw(st.integers(min_value=1, max_value=8))
    terms = {}
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        exps = tuple(draw(st.integers(min_value=0, max_value=order)) for _ in range(nvars))
        value = Fraction(
            draw(st.integers(min_value=-20, max_value=20)),
            draw(st.integers(min_value=1, max_value=6)),
        )
        terms[exps] = value
    terms.pop((0,) * frame.nvars, None)
    a = TruncatedSeries(frame, order, terms)
    column = [[draw(st.integers(min_value=-3, max_value=3))] for _ in range(nvars)]
    c = draw(st.integers(min_value=-3, max_value=3))
    return a, column, c


@settings(max_examples=80, deadline=None)
@given(one_ray_inputs())
def test_one_ray_read_off_matches_the_delta_chain(inputs):
    a, rows, c = inputs
    assume(not a.is_zero())
    one = TruncatedSeries.one(a.frame, a.order)
    powers = LagrangeChain([a], rows, one)
    # a second live ray with charge column 0 and weight 0 forces the Delta
    # chain: Delta is the one-ray determinant, and every chain term that
    # uses the extra ray carries the weight 0
    reference = LagrangeChain([a, a], [row + [0] for row in rows], one)
    assert not powers.delta and reference.delta
    assert powers.unit([c]) == reference.unit([c, 0])
