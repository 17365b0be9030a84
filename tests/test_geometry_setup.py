"""The geometry-side setup against the straightforward algorithms it replaces.

Each reference below is the direct method: the A-series as one pass per
ray over the whole exponent box, the determinant as the signed pivot
product of Gauss-Jordan elimination, the interior-ray test and the
brane-frame packing as exact rational solves.
"""

import itertools
import json
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syzmirror import BraneFrame, ToricCYData, TruncatedSeries, a_series, closed_frame
from syzmirror.lattice import (
    _interior_ray_index,
    det_int,
    independent_columns,
    row_reduce,
    solve_exact,
)
from syzmirror.mirror import coefficient_E

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
}


def box_a_series(data, i, order):
    """A_i as one pass over the whole exponent box, E_i taken for every class."""
    frame = closed_frame(data)
    iota = data.effective_charge_basis
    terms = {}
    for alpha in itertools.product(range(order + 1), repeat=frame.nvars):
        if any(alpha) and sum(alpha) <= order:
            value = coefficient_E(iota, alpha, i)
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


@st.composite
def square_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    entries = st.integers(min_value=-9, max_value=9)
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        # make the first row a combination of two others: singular
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[0] = [a * x + b * y for x, y in zip(rows[1], rows[-1])]
    return rows


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_det_int_equals_the_signed_pivot_product(matrix):
    _, pivots, det = row_reduce(matrix)
    expected = det if len(pivots) == len(matrix) else 0
    result = det_int(matrix)
    assert type(result) is int
    assert result == expected


def reference_interior_ray_index(data):
    """The interior-ray test as one rational solve per ray combination."""
    interior = []
    for i in range(data.m):
        others = [j for j in range(data.m) if j != i]
        for combo in itertools.combinations(others, data.n):
            mat = [[F(data.rays[j][coord]) for j in combo] for coord in range(data.n)]
            sol = solve_exact(mat, [F(x) for x in data.rays[i]])
            if sol is not None and all(t >= 0 for t in sol):
                interior.append(i)
                break
    return interior[0] if len(interior) == 1 else None


def _job_geometry(path):
    toric = json.loads(path.read_text())["toric"]
    return ToricCYData(rays=toric["rays"], u=toric["u"])


@pytest.mark.parametrize("path", SHIPPED_JOBS, ids=lambda p: p.stem)
def test_interior_ray_matches_the_rational_solve_on_shipped_geometries(path):
    data = _job_geometry(path)
    assert _interior_ray_index(data) == reference_interior_ray_index(data)


@pytest.mark.parametrize(
    "rays,expected",
    [
        # the conifold's four rays are all vertices
        pytest.param(((0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)), None, id="none"),
        # (0,0) and (1,0) both lie inside the big triangle
        pytest.param(
            ((0, 0, 1), (1, 0, 1), (-1, -1, 1), (3, -1, 1), (-1, 3, 1)), None, id="two"
        ),
        # (1,0) sits on an edge: a combination with one zero weight
        pytest.param(((0, 0, 1), (1, 0, 1), (0, 1, 1), (2, 0, 1)), 1, id="edge-point"),
    ],
)
def test_interior_ray_on_synthetic_fans(rays, expected):
    data = ToricCYData(rays=rays, u=(0, 0, 1))
    assert reference_interior_ray_index(data) == expected
    assert _interior_ray_index(data) == expected


def reference_pack(bframe, vec):
    """Frame exponents by one rational solve, or None if the monomial escapes."""
    cols = independent_columns(bframe.generators)
    sub = [[g[c] for g in bframe.generators] for c in cols]
    sol = solve_exact(sub, [vec[c] for c in cols])
    if sol is None or any(x.denominator != 1 or x < 0 for x in sol):
        return None
    exps = tuple(int(x) for x in sol)
    return exps if bframe.unpack(exps) == tuple(vec) else None


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
