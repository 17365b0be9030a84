"""Toric validation, charge matrices, brane checks, discriminant faces."""

from fractions import Fraction as F

import pytest

from syzmirror import (
    BraneSpec,
    MathDomainError,
    ToricCYData,
    av_geometry,
    charge_basis,
    dual_exponents,
    gross_discriminant,
    validate_brane,
    validate_cy,
)
from tests import oracle_fiber
from tests.conftest import av_brane


KP2_RAYS = ((0, 0, 1), (1, 0, 1), (0, 1, 1), (-1, -1, 1))


class TestToricCYDataRecord:
    @pytest.mark.parametrize(
        "args, kwargs",
        [
            ((), {"rays": [list(r) for r in KP2_RAYS], "u": [0, 0, 1]}),
            (([list(r) for r in KP2_RAYS], [0, 0, 1]), {}),
            ((KP2_RAYS, (0, 0, 1), ()), {"max_cones": None, "charge_rows": None}),
            ((KP2_RAYS, (0, 0, 1), ["0", 0, F(0), "0/5"]), {}),
        ],
    )
    def test_normalized_with_defaults(self, args, kwargs):
        data = ToricCYData(*args, **kwargs)
        assert data.rays == KP2_RAYS and type(data.rays[0]) is tuple
        assert data.u == (0, 0, 1) and type(data.u) is tuple
        assert data.offsets == (F(0),) * 4
        assert all(type(x) is F for x in data.offsets)
        assert data.max_cones is None and data.charge_rows is None
        assert data == ToricCYData(KP2_RAYS, (0, 0, 1))
        assert hash(data) == hash(ToricCYData(KP2_RAYS, (0, 0, 1)))

    @pytest.mark.parametrize("by_keyword", [False, True])
    def test_optional_fields_normalized(self, by_keyword):
        fields = (KP2_RAYS, (0, 0, 1), ["1/2", 0, 0, 1], [[2, 1, 0], [3, 0, 2]], [[-3, 1, 1, 1]])
        if by_keyword:
            names = ("rays", "u", "offsets", "max_cones", "charge_rows")
            data = ToricCYData(**dict(zip(names, fields)))
        else:
            data = ToricCYData(*fields)
        assert data.offsets == (F(1, 2), F(0), F(0), F(1))
        assert all(type(x) is F for x in data.offsets)
        # each cone's indices are sorted
        assert data.max_cones == ((0, 1, 2), (0, 2, 3))
        assert data.charge_rows == ((-3, 1, 1, 1),)
        assert data != ToricCYData(KP2_RAYS, (0, 0, 1))

    @pytest.mark.parametrize("field", ["rays", "u", "offsets", "max_cones", "charge_rows"])
    def test_fields_are_read_only(self, kp2, field):
        with pytest.raises(AttributeError):
            setattr(kp2, field, ())

    def test_charge_basis_computed_once_per_object(self, monkeypatch):
        from syzmirror import lattice

        calls = []
        real = lattice.charge_basis

        def counted(data):
            calls.append(data)
            return real(data)

        monkeypatch.setattr(lattice, "charge_basis", counted)
        data = ToricCYData(KP2_RAYS, (0, 0, 1))
        assert data.charge_basis == ((-3, 1, 1, 1),)
        assert data.charge_basis is data.charge_basis
        assert len(calls) == 1
        # an equal object keeps its own cache
        assert ToricCYData(KP2_RAYS, (0, 0, 1)).charge_basis == data.charge_basis
        assert len(calls) == 2


class TestBraneSpecRecord:
    @pytest.mark.parametrize(
        "args, kwargs",
        [
            (([[-1, 1, 0, 0]], ["1/2"], [0]), {}),
            ((), {"charges": [[-1, 1, 0, 0]], "constants": [F(1, 2)], "phases": ["0"]}),
            ((((-1, 1, 0, 0),), (F(1, 2),), (F(0),), None, None, None), {}),
        ],
    )
    def test_normalized_with_defaults(self, args, kwargs):
        brane = BraneSpec(*args, **kwargs)
        assert brane.charges == ((-1, 1, 0, 0),) and type(brane.charges[0]) is tuple
        assert brane.constants == (F(1, 2),) and type(brane.constants[0]) is F
        assert brane.phases == (F(0),) and type(brane.phases[0]) is F
        assert brane.av_indices is None and brane.m0 is None
        assert brane.frame_generators is None
        assert brane == BraneSpec(((-1, 1, 0, 0),), (F(1, 2),), (F(0),))
        assert hash(brane) == hash(BraneSpec(((-1, 1, 0, 0),), (F(1, 2),), (F(0),)))

    @pytest.mark.parametrize("by_keyword", [False, True])
    def test_optional_fields_normalized(self, by_keyword):
        fields = (
            [[-1, 1, 0, 0], [-1, 0, 1, 0]], [0, "2"], ["0", "1/3"],
            [0, 1, 2], ["1/2", 0, 0], [[1, 0], [-1, 1]],
        )
        names = ("charges", "constants", "phases", "av_indices", "m0", "frame_generators")
        if by_keyword:
            brane = BraneSpec(**dict(zip(names, fields)))
        else:
            brane = BraneSpec(*fields)
        assert brane.constants == (F(0), F(2)) and brane.phases == (F(0), F(1, 3))
        assert brane.av_indices == (0, 1, 2)
        assert brane.m0 == (F(1, 2), F(0), F(0)) and all(type(x) is F for x in brane.m0)
        assert brane.frame_generators == ((1, 0), (-1, 1))
        assert BraneSpec._fields == names
        assert brane.k == 2

    @pytest.mark.parametrize("field", ["charges", "constants", "av_indices", "other"])
    def test_immutable(self, field):
        brane = BraneSpec(((-1, 1, 0, 0),), (F(1),), (F(0),))
        with pytest.raises(AttributeError):
            setattr(brane, field, ())


class TestValidateCY:
    def test_kp2_is_valid(self, kp2):
        assert validate_cy(kp2).ok

    def test_cy_violation(self):
        data = ToricCYData(
            rays=((0, 0, 1), (1, 0, 1), (0, 1, 1), (-1, -1, 1)), u=(0, 0, 2)
        )
        report = validate_cy(data)
        assert not report.ok
        assert any("CY condition" in f for f in report.failures)
        assert str(report) == "; ".join(report.failures)
        assert report == validate_cy(data) and hash(report) == hash(validate_cy(data))
        with pytest.raises(AttributeError):
            report.failures = ()

    def test_unimodularity_violation(self):
        data = ToricCYData(rays=((0, 0, 1), (2, 0, 1), (0, 1, 1)), u=(0, 0, 1))
        report = validate_cy(data)
        assert any("unimodularity" in f for f in report.failures)

    def test_supplied_charge_rows_checked(self, kp2):
        good = ToricCYData(kp2.rays, kp2.u, charge_rows=((-3, 1, 1, 1),))
        assert validate_cy(good).ok
        bad = ToricCYData(kp2.rays, kp2.u, charge_rows=((-3, 1, 1, 0),))
        assert not validate_cy(bad).ok
        # a finite-index sublattice is not a Z-basis
        doubled = ToricCYData(kp2.rays, kp2.u, charge_rows=((-6, 2, 2, 2),))
        assert any("Z-basis" in f for f in validate_cy(doubled).failures)
        # a unimodular change of basis of the canonical local P1xP1 rows
        p1xp1 = ((0, 0, 1), (1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1))
        sheared = ((-2, 1, 0, 1, 0), (2, -2, 1, -2, 1))
        assert validate_cy(ToricCYData(p1xp1, kp2.u, charge_rows=sheared)).ok


class TestChargeBasis:
    def test_kp2(self, kp2):
        assert charge_basis(kp2) == [[-3, 1, 1, 1]]

    def test_conifold(self, conifold):
        assert charge_basis(conifold) == [[1, -1, 1, -1]]

    def test_affine_space_empty(self, c3):
        assert charge_basis(c3) == []

    def test_rows_annihilate_rays_and_sum_to_zero(self, kp2, conifold):
        for data in (kp2, conifold):
            for row in charge_basis(data):
                assert sum(row) == 0
                for coord in range(data.n):
                    assert sum(r * data.rays[i][coord] for i, r in enumerate(row)) == 0


class TestDualExponents:
    def test_kp2_extra_ray(self, kp2):
        table = dual_exponents(kp2)
        assert table[3] == [3, -1, -1]

    def test_conifold_extra_ray(self, conifold):
        table = dual_exponents(conifold)
        assert table[3] == [1, -1, 1]

    def test_identity_block(self, conifold):
        table = dual_exponents(conifold)
        assert table[:3] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_rows_sum_to_one(self, kp2, conifold, c3):
        for data in (kp2, conifold, c3):
            for row in dual_exponents(data):
                assert sum(row) == 1

    def test_dependent_leading_rays_are_named(self):
        data = ToricCYData(rays=((0, 0, 1), (1, 0, 1), (2, 0, 1), (0, 1, 1)), u=(0, 0, 1))
        with pytest.raises(MathDomainError, match=r"\[\[0, 0, 1\], \[1, 0, 1\], \[2, 0, 1\]\]"):
            dual_exponents(data)

    def test_consistency_with_charge_basis(self, kp2, conifold):
        # each charge row must kill the dual expansion of the rays
        for data in (kp2, conifold):
            duals = dual_exponents(data)
            for row in charge_basis(data):
                for j in range(data.n):
                    assert sum(row[i] * duals[i][j] for i in range(data.m)) == 0


class TestDivisorPairing:
    def test_kp2_primitive(self, kp2):
        assert oracle_fiber.pairings(charge_basis(kp2), (1,)) == [-3, 1, 1, 1]

    def test_zero_class(self, kp2):
        assert oracle_fiber.pairings(charge_basis(kp2), (0,)) == [0, 0, 0, 0]

    def test_conifold_primitive(self, conifold):
        assert oracle_fiber.pairings(charge_basis(conifold), (1,)) == [1, -1, 1, -1]


class TestValidateBrane:
    def test_special_row(self, kp2):
        brane = BraneSpec(charges=((-1, 1, 0, 0),), constants=(F(1),), phases=(F(0),))
        assert validate_brane(kp2, brane).ok

    def test_non_special_row(self, kp2):
        brane = BraneSpec(charges=((1, 1, 0, 0),), constants=(F(1),), phases=(F(0),))
        report = validate_brane(kp2, brane)
        assert any("special" in f for f in report.failures)

    def test_av_shape(self, kp2):
        brane = BraneSpec(
            charges=((-1, 1, 0, 0), (-1, 0, 1, 0)),
            constants=(F(0), F(2)),
            phases=(F(0), F(0)),
            av_indices=(0, 1, 2),
        )
        assert validate_brane(kp2, brane).ok

    def test_av_requires_one_nonzero_constant(self, kp2):
        brane = BraneSpec(
            charges=((-1, 1, 0, 0), (-1, 0, 1, 0)),
            constants=(F(1), F(2)),
            phases=(F(0), F(0)),
            av_indices=(0, 1, 2),
        )
        assert not validate_brane(kp2, brane).ok

    def test_av_constant_must_sit_on_auxiliary_charge(self, kp2):
        brane = BraneSpec(
            charges=((-1, 1, 0, 0), (-1, 0, 1, 0)),
            constants=(F(2), F(0)),
            phases=(F(0), F(0)),
            av_indices=(0, 1, 2),
        )
        report = validate_brane(kp2, brane)
        assert any("nonzero constant" in f for f in report.failures)

    def test_dependent_rows_flagged(self, kp2):
        brane = BraneSpec(
            charges=((-1, 1, 0, 0), (-2, 2, 0, 0)),
            constants=(F(0), F(1)),
            phases=(F(0), F(0)),
        )
        report = validate_brane(kp2, brane)
        assert any("dependent" in f for f in report.failures)


class TestAVGeometry:
    def test_conifold_edge(self, conifold):
        brane = av_brane(0, 1, 2, m=4, c=F(2), m0=(F(0), F(2), F(0)))
        geometry = av_geometry(conifold, brane)
        assert geometry.c == 2
        assert geometry.edge == (0, 1)
        assert geometry == av_geometry(conifold, brane)
        assert hash(geometry) == hash(av_geometry(conifold, brane))
        with pytest.raises(AttributeError):
            geometry.c = F(1)

    def test_vertex_rejected(self, conifold):
        brane = av_brane(0, 1, 2, m=4, c=F(2), m0=(F(0), F(0), F(0)))
        with pytest.raises(MathDomainError):
            av_geometry(conifold, brane)

    def test_kp2_bounded_edge_with_offsets(self):
        data = ToricCYData(
            rays=((0, 0, 1), (1, 0, 1), (0, 1, 1), (-1, -1, 1)),
            u=(0, 0, 1),
            offsets=(F(0), F(0), F(0), F(1)),
        )
        brane = av_brane(0, 2, 1, m=4, c=F(1, 2), m0=(F(1, 2), F(0), F(0)))
        geometry = av_geometry(data, brane)
        # c = lambda_1 - lambda_0 + <m0, v_1 - v_0> from the linear solve
        assert geometry.c == F(1, 2)

    def test_kp2_outer_leg_edge(self):
        # points of the leg F_{1,2} solve <m,v_1> = <m,v_2> = 0, so
        # m0 = z*(-1,-1,1); the auxiliary constant is the height over F_0
        data = ToricCYData(
            rays=((0, 0, 1), (1, 0, 1), (0, 1, 1), (-1, -1, 1)),
            u=(0, 0, 1),
            offsets=(F(0), F(0), F(0), F(1)),
        )
        z = F(1, 3)
        brane = av_brane(1, 2, 0, m=4, c=z, m0=(-z, -z, z))
        geometry = av_geometry(data, brane)
        assert geometry.c == z
        assert geometry.edge == (1, 2)

    def test_c_invariant_under_u_translation(self, conifold):
        # translating m0 along u shifts every height equally; the
        # constant pairs with a charge annihilating (1,...,1)
        for shift in (F(1), F(-3, 2)):
            m0 = (F(0), F(2), F(0))
            moved = tuple(x + shift * u for x, u in zip(m0, conifold.u))
            base = av_brane(0, 1, 2, m=4, c=F(2), m0=m0)
            c0 = av_geometry(conifold, base).c
            i0, i2 = 0, 2
            direct = conifold.offsets[i2] - conifold.offsets[i0] + sum(
                mi * (a - b)
                for mi, a, b in zip(moved, conifold.rays[i2], conifold.rays[i0])
            )
            assert direct == c0

    def test_point_outside_polytope_rejected(self, conifold):
        brane = av_brane(0, 3, 2, m=4, c=F(1), m0=(F(-2), F(0), F(0)))
        with pytest.raises(MathDomainError):
            av_geometry(conifold, brane)

    def test_zero_constant_rejected(self):
        # offsets tuned so the auxiliary face passes through the edge point
        data = ToricCYData(
            rays=((0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)),
            u=(0, 0, 1),
            offsets=(F(0), F(0), F(-2), F(0)),
        )
        brane = av_brane(0, 1, 2, m=4, c=F(1), m0=(F(0), F(2), F(0)))
        with pytest.raises(MathDomainError):
            av_geometry(data, brane)


class TestGrossDiscriminant:
    def test_c3(self, c3):
        assert gross_discriminant(c3) == [(0, 1), (0, 2), (1, 2)]

    def test_conifold(self, conifold):
        assert gross_discriminant(conifold) == [
            (0, 1), (0, 2), (0, 3), (1, 2), (2, 3)
        ]

    def test_kp2(self, kp2):
        assert gross_discriminant(kp2) == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
        ]

    def test_missing_cones(self):
        data = ToricCYData(rays=((0, 0, 1), (1, 0, 1), (0, 1, 1)), u=(0, 0, 1))
        with pytest.raises(MathDomainError):
            gross_discriminant(data)
