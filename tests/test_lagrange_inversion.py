"""The inverse mirror map by Good's Lagrange inversion, against two references.

``inverse_mirror_map`` reads every coefficient of A_j(q(Q)) off one
product chain, with no fixed point and no ``substitute``.  Its closed map
is checked against ``reference_fixed_point``, the plain full-order
iteration of q_a = Q_a exp(-sum_j iota_j^(a) A_j(q)), and each
composed series against ``substitute`` of that closed map into A_j.
Resolved C^3/Z_5 with weights (1, 1, 3) and its Mori basis is the one
geometry with two nonzero A_j, where the Lagrange determinant is a true
2 x 2 determinant of series.
"""

import pytest

from syzmirror import (
    TruncatedSeries,
    closed_frame,
    exp_series,
    inverse_mirror_map,
    substitute,
)
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
    assert list(inv.composed) == [
        substitute(a, list(inv.closed), frame=frame, order=order) for a in inv.a_series
    ]
    live = sum(not a.is_zero() for a in inv.a_series)
    assert live == {"c3": 0, "conifold": 0, "c3_z5_113": 2}.get(geometry, 1)
