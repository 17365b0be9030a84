"""The geometry-side setup against the straightforward algorithms it replaces.

Each reference below is the direct method: the A-series as one pass per
ray over the whole exponent box and the brane-frame packing as an exact
rational solve.  The interior ray is checked against hand-labelled fans.
"""

import itertools
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from syzmirror import BraneFrame, ToricCYData, TruncatedSeries, a_series, closed_frame
from syzmirror.lattice import _interior_rays, charge_basis, independent_columns
from tests import oracle_fiber
from tests.conftest import kahler_monomial

ROOT = Path(__file__).resolve().parent.parent
SHIPPED_JOBS = sorted((ROOT / "jobs").glob("*.json")) + sorted(
    (ROOT / "perfbench" / "jobs").glob("*.json")
)

P1XP1_RAYS = ((0, 0, 1), (1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1))
GEOMETRIES = {
    "c3": ToricCYData(rays=((0, 0, 1), (1, 0, 1), (0, 1, 1)), u=(0, 0, 1)),
    "conifold": ToricCYData(rays=((0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)), u=(0, 0, 1)),
    "local-p2": ToricCYData(rays=((0, 0, 1), (1, 0, 1), (0, 1, 1), (-1, -1, 1)), u=(0, 0, 1)),
    "local-p1xp1": ToricCYData(rays=P1XP1_RAYS, u=(0, 0, 1)),
    "local-dp3": ToricCYData(
        rays=((0, 0, 1), (1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (1, 1, 1), (-1, -1, 1)),
        u=(0, 0, 1),
    ),
    # a sheared Z-basis: classes with two negative pairings occur
    "local-p1xp1-sheared": ToricCYData(
        rays=P1XP1_RAYS, u=(0, 0, 1), charge_rows=((-2, 1, 0, 1, 0), (2, -2, 1, -2, 1))
    ),
    # resolved C^3/Z_5 (1, 1, 3) with its Mori basis: two nonzero A_j
    "c3-z5-113": ToricCYData(
        rays=((1, 1, 1), (1, 0, 1), (0, 0, 1), (2, 5, 1), (1, 2, 1)),
        u=(0, 0, 1),
        charge_rows=((-2, 1, 0, 0, 1), (1, 0, 1, 1, -3)),
    ),
}


def box_a_series(data, i, order):
    """A_i as one pass over the whole exponent box, E_i taken for every class."""
    frame = closed_frame(data)
    iota = data.effective_charge_basis
    terms = {}
    for alpha in itertools.product(range(order + 1), repeat=frame.nvars):
        if any(alpha) and sum(alpha) <= order:
            value = oracle_fiber.coefficient(iota, i, alpha)
            if value != 0:
                terms[alpha] = value
    return TruncatedSeries(frame, order, terms)


@pytest.mark.parametrize("name", GEOMETRIES)
@pytest.mark.parametrize("order", range(1, 7))
def test_one_pass_a_series_equals_the_box_sums(name, order):
    data = GEOMETRIES[name]
    assert data.validation.ok
    series = a_series(data, order)
    assert len(series) == data.m
    for i, s in enumerate(series):
        assert s == box_a_series(data, i, order)
        assert list(s.terms) == sorted(s.terms)


def test_sheared_basis_has_classes_with_two_negative_pairings():
    # the single-negative rule is exercised, not vacuous
    iota = GEOMETRIES["local-p1xp1-sheared"].charge_rows
    pairings = [sum(a * row[j] for a, row in zip((1, 1), iota)) for j in range(5)]
    assert sum(p < 0 for p in pairings) == 2


# hand-labelled: C3 and the conifold have no interior lattice point; the
# other shipped polygons have (0, 0), listed as ray 0
SHIPPED_INTERIOR = {"c3": [], "conifold": [], "local_p2": [0], "local_p1xp1": [0], "local_dp3": [0]}


def _job_geometry(path):
    toric = json.loads(path.read_text())["toric"]
    return ToricCYData(rays=toric["rays"], u=toric["u"])


@pytest.mark.parametrize("path", SHIPPED_JOBS, ids=lambda p: p.stem)
def test_interior_ray_on_shipped_geometries(path):
    assert _interior_rays(_job_geometry(path)) == SHIPPED_INTERIOR[path.stem]


F2_RAYS = ((0, 0, 1), (1, 0, 1), (0, 1, 1), (-1, 2, 1), (0, -1, 1))


@pytest.mark.parametrize(
    "rays,expected",
    [
        # the conifold's four rays are all vertices
        pytest.param(((0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)), [], id="none"),
        # (0,0) and (1,0) both lie inside the big triangle
        pytest.param(
            ((0, 0, 1), (1, 0, 1), (-1, -1, 1), (3, -1, 1), (-1, 3, 1)), [0, 1], id="two"
        ),
        # (1,0) sits on an edge of the triangle: a boundary ray
        pytest.param(((0, 0, 1), (1, 0, 1), (0, 1, 1), (2, 0, 1)), [], id="edge-point"),
        # local F2: (0,1) sits on the edge from (1,0) to (-1,2), (0,0) is interior
        pytest.param(F2_RAYS, [0], id="f2"),
    ],
)
def test_interior_ray_on_synthetic_fans(rays, expected):
    assert _interior_rays(ToricCYData(rays=rays, u=(0, 0, 1))) == expected


def test_f2_charge_basis_is_non_positive_on_the_compact_divisor():
    rows = charge_basis(ToricCYData(rays=F2_RAYS, u=(0, 0, 1)))
    assert rows == [[0, 1, -2, 1, 0], [-2, 0, 1, 0, 1]]
    assert all(row[0] <= 0 for row in rows)


def solve_fraction(matrix, rhs):
    """Solve a square rational system by Gauss-Jordan over Fractions; None if singular."""
    n = len(matrix)
    rows = [[F(x) for x in row] + [F(b)] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(n):
            if r != col:
                rows[r] = [v - rows[r][col] * w for v, w in zip(rows[r], rows[col])]
    return [row[n] for row in rows]


def reference_pack(bframe, vec):
    """Frame exponents by one rational solve, or None if the monomial escapes."""
    cols = independent_columns(bframe.generators)
    sub = [[g[c] for g in bframe.generators] for c in cols]
    sol = solve_fraction(sub, [vec[c] for c in cols])
    if sol is None or any(x.denominator != 1 or x < 0 for x in sol):
        return None
    exps = tuple(int(x) for x in sol)
    return exps if kahler_monomial(bframe, exps) == tuple(vec) else None


FRAMES = {
    "local-p2": ((1, 0), (-1, 1)),
    "local-p1xp1": ((1, 0, 0), (-1, 1, 0), (0, 0, 1)),
    "index-two": ((1, 0), (1, 2)),
    "narrow": ((1, 0, 0), (-1, 1, 0)),
}


@pytest.mark.parametrize(
    "generators,vec,expected",
    [
        pytest.param(FRAMES["local-p2"], (1, 2), (3, 2), id="in-frame"),
        pytest.param(FRAMES["index-two"], (1, 1), None, id="fractional"),
        pytest.param(FRAMES["local-p2"], (0, -1), None, id="negative"),
        pytest.param(FRAMES["narrow"], (0, 0, 1), None, id="off-span"),
    ],
)
def test_pack_examples(generators, vec, expected):
    bframe = BraneFrame(generators)
    assert reference_pack(bframe, vec) == expected
    assert bframe.pack(vec) == expected


@pytest.mark.parametrize("name", FRAMES)
def test_pack_equals_the_rational_solve_on_a_box(name):
    bframe = BraneFrame(FRAMES[name])
    width = len(FRAMES[name][0])
    for vec in itertools.product(range(-3, 4), repeat=width):
        assert bframe.pack(vec) == reference_pack(bframe, vec), vec
