"""Mirror maps, curve construction, brane mirrors: worked geometries.

Expected values come from three independent sources: factorial
arithmetic done by hand (low orders), the standalone multivariate
oracle in ``oracle_fiber.py`` (the fiber series and the inverse map,
found without composition), and direct expansion of closed forms (the
conifold root).
"""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from syzmirror import (
    BraneFrame,
    BranchError,
    BraneSpec,
    FrameEscape,
    MathDomainError,
    TruncatedSeries,
    a_series,
    av_mirror_brane,
    brane_frame,
    build_curve,
    closed_frame,
    coefficient_E,
    compare_naive,
    curve_in_brane_frame,
    evaluate_curve,
    exp_series,
    fiber_open_gw,
    inverse_mirror_map,
    mirror_map,
    naive_brane,
    open_series,
    pow_int,
    solve_curve_root,
    substitute,
)
from syzmirror.cli import parse_job
from syzmirror.mirror import _normalize_root, open_charge
from tests import oracle_fiber
from tests.conftest import av_brane

ROOT = Path(__file__).resolve().parent.parent
KP2_IOTA = [[-3, 1, 1, 1]]
CONIFOLD_IOTA = [[1, -1, 1, -1]]
KP1XP1_IOTA = ((-2, 1, 0, 1, 0), (-2, 0, 1, 0, 1))
KDP3_IOTA = (
    (-2, 1, 0, 1, 0, 0, 0),
    (-2, 0, 1, 0, 1, 0, 0),
    (-1, 1, 1, 0, 0, -1, 0),
    (-3, 1, 1, 0, 0, 0, 1),
)

# 1 + delta_0 through order 6 (every other 1 + delta_j is 1), from the
# oracle in oracle_fiber.py; the frozen copies guard the oracle too
KP1XP1_FIBER_0 = {
    (0, 0): 1,
    (0, 1): 1, (1, 0): 1,
    (1, 1): 3,
    (1, 2): 5, (2, 1): 5,
    (1, 3): 7, (2, 2): 35, (3, 1): 7,
    (1, 4): 9, (2, 3): 135, (3, 2): 135, (4, 1): 9,
    (1, 5): 11, (2, 4): 385, (3, 3): 1100, (4, 2): 385, (5, 1): 11,
}
KDP3_FIBER_0 = {
    (0, 0, 0, 0): 1,
    (0, 0, 0, 1): -2, (0, 1, 0, 0): 1, (1, 0, 0, 0): 1,
    (0, 0, 0, 2): 5, (0, 1, 0, 1): -4, (1, 0, 0, 1): -4, (1, 1, 0, 0): 3,
    (0, 0, 0, 3): -32, (0, 1, 0, 2): 35, (0, 2, 0, 1): -6, (1, 0, 0, 2): 35,
    (1, 1, 0, 1): -36, (1, 2, 0, 0): 5, (2, 0, 0, 1): -6, (2, 1, 0, 0): 5,
    (0, 0, 0, 4): 286, (0, 1, 0, 3): -400, (0, 2, 0, 2): 135, (0, 3, 0, 1): -8,
    (1, 0, 0, 3): -400, (1, 1, 0, 2): 531, (1, 2, 0, 1): -160, (1, 3, 0, 0): 7,
    (2, 0, 0, 2): 135, (2, 1, 0, 1): -160, (2, 2, 0, 0): 35, (3, 0, 0, 1): -8,
    (3, 1, 0, 0): 7,
    (0, 0, 0, 5): -3038, (0, 1, 0, 4): 5187, (0, 2, 0, 3): -2592, (0, 3, 0, 2): 385,
    (0, 4, 0, 1): -10, (1, 0, 0, 4): 5187, (1, 1, 0, 3): -8472, (1, 2, 0, 2): 3916,
    (1, 3, 0, 1): -500, (1, 4, 0, 0): 9, (2, 0, 0, 3): -2592, (2, 1, 0, 2): 3916,
    (2, 2, 0, 1): -1550, (2, 3, 0, 0): 135, (3, 0, 0, 2): 385, (3, 1, 0, 1): -500,
    (3, 2, 0, 0): 135, (4, 0, 0, 1): -10, (4, 1, 0, 0): 9,
    (0, 0, 0, 6): 35870, (0, 1, 0, 5): -72384, (0, 2, 0, 4): 47775, (0, 3, 0, 3): -11760,
    (0, 4, 0, 2): 910, (0, 5, 0, 1): -12, (1, 0, 0, 5): -72384, (1, 1, 0, 4): 140580,
    (1, 2, 0, 3): -87416, (1, 3, 0, 2): 19500, (1, 4, 0, 1): -1260, (1, 5, 0, 0): 11,
    (2, 0, 0, 4): 47775, (2, 1, 0, 3): -87416, (2, 2, 0, 2): 49192, (2, 3, 0, 1): -9120,
    (2, 4, 0, 0): 385, (3, 0, 0, 3): -11760, (3, 1, 0, 2): 19500, (3, 2, 0, 1): -9120,
    (3, 3, 0, 0): 1100, (4, 0, 0, 2): 910, (4, 1, 0, 1): -1260, (4, 2, 0, 0): 385,
    (5, 0, 0, 1): -12, (5, 1, 0, 0): 11,
}


class TestCoefficientE:
    def test_kp2_degree_one(self):
        assert coefficient_E(KP2_IOTA, (1,), 0) == 2

    def test_kp2_degree_two(self):
        assert coefficient_E(KP2_IOTA, (2,), 0) == -15

    def test_kp2_degree_three(self):
        assert coefficient_E(KP2_IOTA, (3,), 0) == F(560, 3)

    def test_kp2_positive_pairing_vanishes(self):
        for d in range(1, 9):
            for i in (1, 2, 3):
                assert coefficient_E(KP2_IOTA, (d,), i) == 0

    def test_conifold_all_vanish(self):
        for d in range(1, 9):
            for i in range(4):
                assert coefficient_E(CONIFOLD_IOTA, (d,), i) == 0


class TestASeries:
    def test_kp2_a0(self, kp2):
        expected = oracle_fiber.a0_coefficients(8)
        series = a_series(kp2, 8)[0]
        for d in range(1, 9):
            assert series.coefficient((d,)) == expected[d]

    def test_kp2_others_vanish(self, kp2):
        for i in (1, 2, 3):
            assert a_series(kp2, 8)[i].is_zero()

    def test_conifold_all_vanish(self, conifold):
        for i in range(4):
            assert a_series(conifold, 8)[i].is_zero()


class TestMirrorMaps:
    def test_kp2_forward_low_order(self, kp2):
        data = mirror_map(kp2, 2)
        q = TruncatedSeries.generator(closed_frame(kp2), 2, 0)
        # Q = q exp(-3 A0) = q - 6q^2 + ...
        assert data.closed[0] == TruncatedSeries(
            closed_frame(kp2), 2, {(1,): F(1), (2,): F(-6)}
        )

    def test_conifold_is_identity(self, conifold):
        data = mirror_map(conifold, 8)
        frame = closed_frame(conifold)
        assert data.closed[0] == TruncatedSeries.generator(frame, 8, 0)
        inv = inverse_mirror_map(conifold, 8)
        assert inv.closed[0] == TruncatedSeries.generator(frame, 8, 0)

    def test_c3_no_closed_directions(self, c3):
        data = mirror_map(c3, 8)
        assert data.closed == ()

    def test_kp2_inverse_matches_oracle(self, kp2):
        inv = inverse_mirror_map(kp2, 8)
        expected = oracle_fiber.inverse_map(8)
        for d in range(1, 9):
            assert inv.closed[0].coefficient((d,)) == expected[d]

    def test_round_trip_is_exact_identity(self, kp2, conifold, c3_z5_113):
        # the multi-variable frames are the ones Lagrange inversion must
        # invert; P1 x P1 and dP3 come from the benchmark's job documents
        jobs = [
            parse_job(json.loads((ROOT / "perfbench" / "jobs" / name).read_text())).toric
            for name in ("local_p1xp1.json", "local_dp3.json")
        ]
        for data in (kp2, conifold, *jobs, c3_z5_113):
            frame = closed_frame(data)
            forward = mirror_map(data, 8)
            backward = inverse_mirror_map(data, 8)
            for a in range(data.n_closed):
                composed = substitute(
                    forward.closed[a], list(backward.closed), frame=frame, order=8
                )
                assert composed == TruncatedSeries.generator(frame, 8, a)

    def test_first_order_inversion_consistency(self, kp2):
        # q_a = Q_a (1 - sum_j iota_j E_j(unit) Q + ...) at grade 2
        inv = inverse_mirror_map(kp2, 2)
        drift = -sum(
            KP2_IOTA[0][j] * coefficient_E(KP2_IOTA, (1,), j) for j in range(4)
        )
        assert inv.closed[0].coefficient((2,)) == drift


# local P1 x P1 with its second charge row sheared by -2 times the first:
# that row puts +2 on the live A_0, so its forward unit is a negative
# power of the base
SHEARED_KP1XP1_ROWS = ((-2, 1, 0, 1, 0), (2, -2, 1, -2, 1))


class TestUnitsAgainstDirectExp:
    """Every closed and open unit equals exp(+-sum_j row_j A_j), one exp per row."""

    @staticmethod
    def _direct(a_list, row, sign, frame, order):
        total = TruncatedSeries.zero(frame, order)
        for a, weight in zip(a_list, row):
            total = total + a * (sign * weight)
        return exp_series(total)

    @pytest.mark.parametrize(
        "geometry,order",
        [("c3", 6), ("conifold", 6), ("kp2", 6), ("kp1xp1", 4), ("kdp3", 3), ("sheared", 4)],
    )
    @pytest.mark.parametrize("indices", [(1, 2, 0), (2, 0, 1)], ids=["l0-plus", "l0-minus"])
    def test_both_directions(self, request, geometry, order, indices):
        from syzmirror import ToricCYData, effective_charge_basis

        if geometry == "sheared":
            base = request.getfixturevalue("kp1xp1")
            data = ToricCYData(
                rays=base.rays, u=base.u, max_cones=base.max_cones,
                charge_rows=SHEARED_KP1XP1_ROWS,
            )
            assert data.validation.ok
        else:
            data = request.getfixturevalue(geometry)
        rows = effective_charge_basis(data)
        brane = av_brane(*indices, m=data.m)
        l0 = [0] * data.m
        l0[indices[2]] += 1
        l0[indices[1]] -= 1
        frame = closed_frame(data)

        forward = mirror_map(data, order, brane)
        a_list = forward.a_series
        for a, row in enumerate(rows):
            q_a = TruncatedSeries.generator(frame, order, a)
            assert forward.closed[a] == q_a * self._direct(a_list, row, 1, frame, order)
        assert forward.open_unit == self._direct(a_list, l0, 1, frame, order)

        backward = inverse_mirror_map(data, order, brane)
        composed = [
            a if a.is_zero() else substitute(a, list(backward.closed)) for a in a_list
        ]
        assert list(backward.composed) == composed
        for a, row in enumerate(rows):
            big_q = TruncatedSeries.generator(frame, order, a)
            assert backward.closed[a] == big_q * self._direct(composed, row, -1, frame, order)
        assert backward.open_unit == self._direct(composed, l0, -1, frame, order)

    @pytest.mark.parametrize("geometry", ["c3", "conifold", "kp2", "kp1xp1", "kdp3", "c3_z5_113"])
    def test_one_exp_per_live_ray_and_sign_and_no_inverse(self, request, monkeypatch, geometry):
        # C^3/Z_5 has positive and negative weights on both live rays
        from syzmirror import fps, mirror

        data = request.getfixturevalue(geometry)
        exps = []
        monkeypatch.setattr(mirror, "exp_series", lambda s: exps.append(s) or exp_series(s))

        def refuse(s):
            raise AssertionError("a unit took a series inverse")

        monkeypatch.setattr(fps, "inverse", refuse)
        brane = av_brane(1, 2, 0, m=data.m)
        for direction in (mirror_map, inverse_mirror_map):
            exps.clear()
            result = direction(data, 4, brane)
            assert exps == []
            result.closed, result.open_unit, result.fiber
            live = [j for j, a in enumerate(result.a_series) if not a.is_zero()]
            signs = {
                (j, w > 0)
                for row in data.effective_charge_basis + (open_charge(brane, data.m),)
                for j, w in enumerate(row)
                if w and j in live
            }
            if result.composed is not None:  # the fiber series: exp(-A_j(q(Q)))
                signs |= {(j, True) for j in live}
            assert len(exps) == len(signs)


class TestFiberInvariants:
    def test_kp2_matches_oracle_and_frozen_values(self, kp2):
        deltas = fiber_open_gw(kp2, 8)
        oracle = oracle_fiber.fiber_series(8)
        frozen = [1, -2, 5, -32, 286, -3038, 35870, -454880, 6073311]
        for d in range(9):
            assert deltas[0].coefficient((d,)) == oracle[d] == frozen[d]

    def test_kp2_other_rays_trivial(self, kp2):
        deltas = fiber_open_gw(kp2, 8)
        one = TruncatedSeries.one(closed_frame(kp2), 8)
        assert deltas[1] == deltas[2] == deltas[3] == one

    def test_conifold_all_trivial(self, conifold):
        one = TruncatedSeries.one(closed_frame(conifold), 8)
        assert all(s == one for s in fiber_open_gw(conifold, 8))

    def test_syz_product_identity(self, kp2, conifold, kp1xp1, kdp3):
        # Q_a prod_j (1+delta_j)^{iota_j^(a)} = q_a(Q) exactly; on local
        # P1 x P1 the charge rows differ, on local dP3 every row reduces
        # to its weight on A_0, the only nonzero A-series
        from syzmirror import effective_charge_basis

        for data, order in ((kp2, 8), (conifold, 8), (kp1xp1, 4), (kdp3, 4)):
            frame = closed_frame(data)
            deltas = fiber_open_gw(data, order)
            inv = inverse_mirror_map(data, order)
            for a, row in enumerate(effective_charge_basis(data)):
                product = TruncatedSeries.generator(frame, order, a)
                for j, weight in enumerate(row):
                    if weight:
                        product = product * pow_int(deltas[j], weight)
                assert product == inv.closed[a]


class TestMultivariateOracle:
    """Local P1 x P1 and local dP3 against the composition-free oracle."""

    @pytest.mark.parametrize(
        "geometry,iota,frozen",
        [("kp1xp1", KP1XP1_IOTA, KP1XP1_FIBER_0), ("kdp3", KDP3_IOTA, KDP3_FIBER_0)],
    )
    def test_library_matches_oracle_and_frozen_values(self, request, geometry, iota, frozen):
        from syzmirror import effective_charge_basis

        data = request.getfixturevalue(geometry)
        # the oracle's input is the library's basis, and its rows are
        # relations among the rays
        assert effective_charge_basis(data) == iota
        for row in iota:
            assert [sum(x * ray[k] for x, ray in zip(row, data.rays)) for k in range(3)] == [0] * 3
        q, y = oracle_fiber.fiber_system(iota, 6)
        inv = inverse_mirror_map(data, 6)
        assert [s.terms for s in inv.fiber] == y
        assert y[0] == frozen
        assert all(s == {(0,) * len(iota): 1} for s in y[1:])
        assert [x.terms for x in inv.closed] == q


class TestBuildCurve:
    def test_conifold_uncorrected_form(self, conifold):
        curve = build_curve(conifold, 8, corrected=False)
        shapes = [(t.z_exponents, t.q_exponents) for t in curve.terms]
        assert shapes == [
            ((0, 0), (0,)),
            ((1, 0), (0,)),
            ((0, 1), (0,)),
            ((-1, 1), (1,)),
        ]
        one = TruncatedSeries.one(closed_frame(conifold), 8)
        assert all(t.coefficient == one for t in curve.terms)

    def test_conifold_corrected_equals_uncorrected(self, conifold):
        curve = build_curve(conifold, 8)
        assert curve == build_curve(conifold, 8, corrected=False)
        assert curve.n_z == 2
        # series coefficients are unhashable, so the curve is too
        with pytest.raises(TypeError):
            hash(curve)
        with pytest.raises(AttributeError):
            curve.terms = ()
        with pytest.raises(AttributeError):
            curve.terms[0].coefficient = None

    def test_kp2_corrected_coefficient(self, kp2):
        curve = build_curve(kp2, 8)
        assert [t.z_exponents for t in curve.terms] == [
            (0, 0), (1, 0), (0, 1), (-1, -1)
        ]
        deltas = fiber_open_gw(kp2, 8)
        assert curve.terms[0].coefficient == deltas[0]
        one = TruncatedSeries.one(closed_frame(kp2), 8)
        assert curve.terms[3].coefficient == one

    def test_kp2_uncorrected_is_termwise_delta_zero(self, kp2):
        corrected = build_curve(kp2, 8)
        plain = build_curve(kp2, 8, corrected=False)
        one = TruncatedSeries.one(closed_frame(kp2), 8)
        for a, b in zip(corrected.terms, plain.terms):
            assert a.z_exponents == b.z_exponents
            assert a.q_exponents == b.q_exponents
            assert b.coefficient == one

    def test_c3_curve(self, c3):
        curve = build_curve(c3, 8)
        assert [t.z_exponents for t in curve.terms] == [(0, 0), (1, 0), (0, 1)]


class TestNaiveBrane:
    def test_conifold_av_equations(self, conifold, conifold_brane):
        eqs = naive_brane(conifold, conifold_brane)
        # charge e2-e0 pins z2 = 1; charge e1-e0 pins z1 = e^{-c-i phi} = Q0
        assert eqs[0].z_exponents == (0, -1)
        assert eqs[0].q_exponents == (0,)
        assert (eqs[0].constant, eqs[0].phase) == (0, 0)
        assert eqs[1].z_exponents == (-1, 0)
        assert eqs[1].constant == 2
        again = naive_brane(conifold, conifold_brane)
        assert eqs == again and hash(eqs[1]) == hash(again[1])
        with pytest.raises(AttributeError):
            eqs[1].constant = F(1)

    def test_general_charge_with_substitution(self, conifold):
        brane = BraneSpec(charges=((0, -1, 0, 1),), constants=(F(1),), phases=(F(1, 2),))
        (eq,) = naive_brane(conifold, brane)
        # z3 = Q1 z2 z1^-1 turns the row into z1^2 z2^-1 Q1^-1
        assert eq.z_exponents == (2, -1)
        assert eq.q_exponents == (-1,)
        # the phase (a rational multiple of pi) rides along exactly
        assert eq.phase == F(1, 2)

    def test_no_charges(self, conifold):
        brane = BraneSpec(charges=(), constants=(), phases=())
        assert naive_brane(conifold, brane) == []

    def test_non_special_rejected(self, conifold):
        brane = BraneSpec(charges=((1, 1, 0, 0),), constants=(F(1),), phases=(F(0),))
        with pytest.raises(MathDomainError):
            naive_brane(conifold, brane)

    def test_algebraic_round_trip(self, conifold, kp2):
        # substituting the dual expansion back must reproduce -l
        from syzmirror import dual_exponents

        cases = [
            (conifold, ((0, -1, 0, 1),)),
            (kp2, ((0, -1, 1, 0),)),
            (kp2, ((-3, 1, 1, 1),)),
        ]
        for data, charges in cases:
            brane = BraneSpec(
                charges=charges, constants=(F(1),), phases=(F(0),)
            )
            (eq,) = naive_brane(data, brane)
            duals = dual_exponents(data)
            row = charges[0]
            for j in range(1, data.n):
                recovered = -eq.z_exponents[j - 1] - sum(
                    -eq.q_exponents[b] * duals[data.n + b][j]
                    for b in range(data.n_closed)
                )
                assert recovered == row[j]


def conifold_root_expected(order):
    """Expansion of -(1 + P1) / (1 + P2) by an explicit small loop."""
    terms = {}
    for k in range(order + 1):
        terms[(0, k)] = F((-1) ** (k + 1))
        if 1 + k <= order:
            terms[(1, k)] = F((-1) ** (k + 1))
    return terms


class TestSolveCurveRoot:
    def test_conifold_closed_form(self, conifold, conifold_brane):
        bframe = brane_frame(conifold, conifold_brane)
        curve = build_curve(conifold, 8)
        z1 = open_series(conifold, conifold_brane, bframe, 8)
        table = curve_in_brane_frame(curve, z1, bframe, 8)
        root, _ = solve_curve_root(table, bframe.frame, 8)
        expected = conifold_root_expected(8)
        assert root.terms == {e: c for e, c in expected.items() if c != 0}

    def test_c3_exact_linear_root(self, c3, c3_brane):
        bframe = brane_frame(c3, c3_brane)
        curve = build_curve(c3, 8)
        z1 = open_series(c3, c3_brane, bframe, 8)
        table = curve_in_brane_frame(curve, z1, bframe, 8)
        root, _ = solve_curve_root(table, bframe.frame, 8)
        assert root == TruncatedSeries(
            bframe.frame, 8, {(0,): F(-1), (1,): F(-1)}
        )

    def test_residual_vanishes(self, kp2, kp2_leg_brane):
        bframe = brane_frame(kp2, kp2_leg_brane)
        curve = build_curve(kp2, bframe.closed_order_for(8))
        z1 = open_series(kp2, kp2_leg_brane, bframe, 8)
        table = curve_in_brane_frame(curve, z1, bframe, 8)
        root, residual = solve_curve_root(table, bframe.frame, 8)
        assert residual.is_zero()
        assert evaluate_curve(table, root, bframe.frame, 8).is_zero()

    def test_wrong_frame_escapes(self, conifold, conifold_brane):
        # a frame missing the Q1 Q0^-1 direction cannot hold the curve
        bad = BraneFrame(generators=((1, 0),))
        curve = build_curve(conifold, 8)
        z1 = TruncatedSeries.generator(bad.frame, 8, 0)
        with pytest.raises(FrameEscape):
            solve_curve_root(curve_in_brane_frame(curve, z1, bad, 8), bad.frame, 8)


class TestAvMirrorBrane:
    def test_conifold(self, conifold, conifold_brane):
        result = av_mirror_brane(conifold, conifold_brane, 8)
        bframe = brane_frame(conifold, conifold_brane)
        assert result.z1 == TruncatedSeries.generator(bframe.frame, 8, 0)
        assert result.signs == (-1, -1)
        assert result.residual.is_zero()
        assert result.z2.constant_term() == 1
        # (1 - P1) / (1 - P2) termwise
        for k in range(1, 9):
            assert result.z2.coefficient((0, k)) == 1
            if k < 8:
                assert result.z2.coefficient((1, k)) == -1
        assert result.z2.coefficient((1, 0)) == -1
        assert result.bframe.frame == result.z2.frame
        with pytest.raises(AttributeError):
            result.signs = (1, 1)

    def test_c3(self, c3, c3_brane):
        result = av_mirror_brane(c3, c3_brane, 8)
        assert result.z1 == TruncatedSeries.generator(result.z1.frame, 8, 0)
        assert result.z2 == TruncatedSeries(
            result.z2.frame, 8, {(0,): F(1), (1,): F(-1)}
        )

    def test_kp2_leg_brane_z1_exact(self, kp2, kp2_leg_brane):
        # auxiliary index on the outer face: both E-series vanish
        result = av_mirror_brane(kp2, kp2_leg_brane, 6)
        assert result.z1 == TruncatedSeries.generator(result.z1.frame, 6, 0)
        assert result.residual.is_zero()
        assert result.z2.constant_term() == 1

    def test_kp2_compact_aux_brane_z1_unit(self, kp2):
        # auxiliary index through the compact divisor drags in A_0
        brane = av_brane(1, 2, 0, m=4)
        result = av_mirror_brane(kp2, brane, 4)
        z1 = result.z1
        q0 = (1, 0)
        assert z1.coefficient(q0) == 1
        # z1 = Q0 exp(-A0(q(Q))) = Q0 (1 - 2 Q1 + 5 Q1^2 ...)
        assert z1.coefficient((2, 1)) == -2  # Q0*Q1 packs as P1^2 P2
        assert result.residual.is_zero()

    def test_z1_is_open_variable_times_unit(self, kp2, conifold, kp2_leg_brane, conifold_brane):
        for data, brane in ((kp2, kp2_leg_brane), (conifold, conifold_brane)):
            result = av_mirror_brane(data, brane, 6)
            bframe = brane_frame(data, brane)
            q0 = bframe.pack((1,) + (0,) * data.n_closed)
            shifted = TruncatedSeries(
                bframe.frame,
                6,
                {
                    tuple(a - b for a, b in zip(e, q0)): c
                    for e, c in result.z1.terms.items()
                },
            )
            assert shifted.constant_term() != 0

    def test_normalization_override(self, conifold, conifold_brane):
        result = av_mirror_brane(conifold, conifold_brane, 6, normalization=(1, -1))
        # (1 + P1) / (1 + P2)
        assert result.signs == (1, -1)
        assert result.z2.coefficient((1, 0)) == 1
        assert result.z2.coefficient((0, 1)) == -1

    def test_impossible_override_rejected(self, conifold, conifold_brane):
        from syzmirror import BranchError

        with pytest.raises(BranchError):
            av_mirror_brane(conifold, conifold_brane, 6, normalization=(1, 1))

    def test_zero_boundary_offenders_named(self):
        # boundary (1, 0, 0): -log z2 = P1 + P2 + P3 touches P2 and P3,
        # named in lexicographic order, not in the grade-first row order
        bframe = BraneFrame(generators=((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        frame = bframe.frame
        neg_log = TruncatedSeries(frame, 4, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
        z2_raw = exp_series(-neg_log) * -1
        named = r"\[\(0, 0, 1\), \(0, 1, 0\)\]"
        with pytest.raises(BranchError, match=r"zero-boundary monomials " + named):
            _normalize_root(z2_raw, bframe, override=(1, -1))
        with pytest.raises(BranchError, match=r"offending monomials " + named):
            _normalize_root(z2_raw, bframe)
        open_only = exp_series(-neg_log.filter_terms(lambda e: e[0]))
        signs, _, log_part = _normalize_root(open_only, bframe)
        assert signs == (1, 1) and log_part.terms == {(1, 0, 0): F(1)}

    def test_missing_frame_rejected(self, conifold):
        brane = av_brane(0, 2, 1, m=4, frame=None)
        with pytest.raises(MathDomainError):
            av_mirror_brane(conifold, brane, 4)


class TestTwoParameterGeometry:
    """Local P1 x P1: two closed Kahler parameters through the full pipeline."""

    def test_charge_basis(self, kp1xp1):
        from syzmirror import charge_basis

        assert charge_basis(kp1xp1) == [[-2, 1, 0, 1, 0], [-2, 0, 1, 0, 1]]

    def test_round_trip(self, kp1xp1):
        frame = closed_frame(kp1xp1)
        forward = mirror_map(kp1xp1, 6)
        backward = inverse_mirror_map(kp1xp1, 6)
        for a in range(2):
            composed = substitute(
                forward.closed[a], list(backward.closed), frame=frame, order=6
            )
            assert composed == TruncatedSeries.generator(frame, 6, a)

    def test_fiber_series(self, kp1xp1):
        deltas = fiber_open_gw(kp1xp1, 4)
        assert deltas[0] == TruncatedSeries(
            closed_frame(kp1xp1),
            4,
            {
                (0, 0): F(1), (1, 0): F(1), (0, 1): F(1),
                (1, 1): F(3), (2, 1): F(5), (1, 2): F(5),
                (3, 1): F(7), (2, 2): F(35), (1, 3): F(7),
            },
        )
        one = TruncatedSeries.one(closed_frame(kp1xp1), 4)
        assert all(d == one for d in deltas[1:])

    def test_leg_brane_pipeline(self, kp1xp1):
        from syzmirror import extract_open_gw, integrality_check, multiple_cover_inversion

        brane = av_brane(1, 2, 3, m=5, frame=((1, 0, 0), (-1, 1, 0), (0, 0, 1)))
        result = av_mirror_brane(kp1xp1, brane, 5)
        assert result.residual.is_zero()
        assert result.z1 == TruncatedSeries.generator(result.z1.frame, 5, 0)
        table = multiple_cover_inversion(extract_open_gw(result.z2))
        assert integrality_check(table).ok
        low = {b: v for b, v in table.N.items() if table.frame.grade(b) <= 3}
        assert low == {
            (1, 0, 0): F(1), (0, 1, 0): F(-1),
            (1, 0, 1): F(1), (0, 1, 1): F(-1),
            (1, 0, 2): F(1), (0, 1, 2): F(-1),
            (2, 0, 1): F(1), (0, 2, 1): F(-1),
        }


class TestCompareNaive:
    def test_conifold(self, conifold, conifold_brane):
        report = compare_naive(conifold, conifold_brane, 8)
        assert report.z1_correction.is_zero()
        assert report.z1_in_closed_ideal
        # pure-open part is the brane's own disc series, -Q0 at leading order
        assert report.z2_pure_open == TruncatedSeries(
            report.z2_pure_open.frame, 8, {(1, 0): F(-1)}
        )
        # every mixed term carries the closed variable
        bframe = brane_frame(conifold, conifold_brane)
        for exps in report.z2_mixed.terms:
            assert any(x != 0 for x in bframe.closed_part(exps))

    def test_c3_structure(self, c3, c3_brane):
        report = compare_naive(c3, c3_brane, 8)
        assert report.z1_correction.is_zero()
        assert report.z2_mixed.is_zero()
        assert report.z2_pure_open == TruncatedSeries(
            report.z2_pure_open.frame, 8, {(1,): F(-1)}
        )
        assert report == compare_naive(c3, c3_brane, 8)
        with pytest.raises(AttributeError):
            report.z1_in_closed_ideal = False

    def test_closed_vars_to_zero(self, kp2, kp2_leg_brane):
        report = compare_naive(kp2, kp2_leg_brane, 6)
        bframe = brane_frame(kp2, kp2_leg_brane)
        # quotient by the closed ideal: z1 correction dies entirely
        pure = report.z1_correction.filter_terms(
            lambda e: all(x == 0 for x in bframe.closed_part(e))
        )
        assert pure.is_zero()
