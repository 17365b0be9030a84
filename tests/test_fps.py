"""Unit tests for the truncated-series ring: worked examples per operation."""

from fractions import Fraction as F

import pytest

from syzmirror import (
    Frame,
    FrameMismatch,
    NonUnitSeries,
    TruncatedSeries,
    TruncationExceeded,
    exp_series,
    fixed_point_system,
    inverse,
    log_derivative,
    log_series,
    pow_int,
    substitute,
)
from syzmirror.errors import FixedPointDivergence

T = Frame(names=("t",))
UV = Frame(names=("u",))
QQ = Frame(names=("Q0", "Q1"), boundary=(1, 0))


def series(order, terms, frame=T):
    return TruncatedSeries(frame, order, {tuple(e): F(c) for e, c in terms.items()})


def gen(frame, order, i=0):
    return TruncatedSeries.generator(frame, order, i)


class TestAddMul:
    def test_cancellation(self):
        t = gen(T, 4)
        one = TruncatedSeries.one(T, 4)
        assert (one + t) + (one - t) == series(4, {(0,): 2})

    def test_additive_identity(self):
        s = series(4, {(1,): 3, (2,): F(-1, 2)})
        assert s + TruncatedSeries.zero(T, 4) == s

    def test_doubling(self):
        t = gen(T, 4)
        assert t + t == series(4, {(1,): 2})

    def test_difference_of_squares(self):
        t = gen(T, 4)
        one = TruncatedSeries.one(T, 4)
        assert (one + t) * (one - t) == series(4, {(0,): 1, (2,): -1})

    def test_unit(self):
        s = series(4, {(0,): 1, (1,): -7, (3,): F(2, 3)})
        assert s * TruncatedSeries.one(T, 4) == s

    def test_truncation_drops_high_grade(self):
        t = gen(T, 2)
        assert t * (t * t) == TruncatedSeries.zero(T, 2)

    def test_frame_mismatch(self):
        with pytest.raises(FrameMismatch):
            gen(T, 3) + gen(UV, 3)

    def test_order_is_minimum(self):
        assert (gen(T, 5) * gen(T, 3)).order == 3


class TestExpLog:
    def test_exp_t(self):
        assert exp_series(gen(T, 3)) == series(
            3, {(0,): 1, (1,): 1, (2,): F(1, 2), (3,): F(1, 6)}
        )

    def test_exp_zero(self):
        assert exp_series(TruncatedSeries.zero(T, 5)) == TruncatedSeries.one(T, 5)

    def test_exp_log_roundtrip(self):
        s = TruncatedSeries.one(T, 6) + gen(T, 6)
        assert exp_series(log_series(s)) == s

    def test_log_one_plus_t(self):
        s = TruncatedSeries.one(T, 3) + gen(T, 3)
        assert log_series(s) == series(3, {(1,): 1, (2,): F(-1, 2), (3,): F(1, 3)})

    def test_log_of_one(self):
        assert log_series(TruncatedSeries.one(T, 4)) == TruncatedSeries.zero(T, 4)

    def test_log_exp_roundtrip(self):
        t = gen(T, 6) * F(3, 7)
        assert log_series(exp_series(t)) == t

    def test_exp_rejects_constant(self):
        with pytest.raises(NonUnitSeries):
            exp_series(TruncatedSeries.one(T, 3))

    def test_log_rejects_nonunit_constant(self):
        with pytest.raises(NonUnitSeries):
            log_series(gen(T, 3))


class TestPow:
    def test_geometric_inverse(self):
        s = TruncatedSeries.one(T, 2) + gen(T, 2)
        assert pow_int(s, -1) == series(2, {(0,): 1, (1,): -1, (2,): 1})

    def test_power_zero(self):
        s = series(4, {(1,): 5, (2,): -2})
        assert pow_int(s, 0) == TruncatedSeries.one(T, 4)

    def test_negative_cube_first_order(self):
        s = TruncatedSeries.one(T, 1) + gen(T, 1)
        assert pow_int(s, -3) == series(1, {(0,): 1, (1,): -3})

    def test_unit_times_inverse(self):
        s = series(5, {(0,): F(2, 3), (1,): 4, (3,): -1})
        assert s * pow_int(s, -1) == TruncatedSeries.one(T, 5)

    def test_nonunit_negative_power_rejected(self):
        with pytest.raises(NonUnitSeries):
            pow_int(gen(T, 3), -1)


class TestSubstitute:
    def test_shift_composition(self):
        s = TruncatedSeries.one(T, 2) + gen(T, 2)
        image = gen(UV, 2) + TruncatedSeries.monomial(UV, 2, (2,))
        assert substitute(s, [image]) == TruncatedSeries(
            UV, 2, {(0,): F(1), (1,): F(1), (2,): F(1)}
        )

    def test_identity_images(self):
        s = series(5, {(0,): 2, (1,): -3, (4,): F(1, 5)})
        assert substitute(s, [gen(T, 5)]) == s

    def test_square_through_scaling(self):
        s = TruncatedSeries.monomial(T, 3, (2,))
        assert substitute(s, [gen(UV, 3) * 2]) == TruncatedSeries.monomial(UV, 3, (2,), 4)

    def test_rejects_constant_image(self):
        s = gen(T, 3)
        with pytest.raises(NonUnitSeries):
            substitute(s, [TruncatedSeries.one(UV, 3)])

    def test_is_ring_homomorphism(self):
        a = series(4, {(1,): 2, (2,): -1})
        b = series(4, {(0,): 1, (1,): F(1, 3)})
        image = [gen(UV, 4) + TruncatedSeries.monomial(UV, 4, (2,), -2)]
        assert substitute(a * b, image) == substitute(a, image) * substitute(b, image)
        assert substitute(a + b, image) == substitute(a, image) + substitute(b, image)


class TestFixedPoint:
    def test_geometric_equation(self):
        # x = Q(1 + x) has the geometric series as its unique solution
        def update(xs):
            return TruncatedSeries.one(T, 6) + xs[0]

        (x,) = fixed_point_system(lambda xs: [update(xs)], T, 6)
        assert x == series(6, {(k,): 1 for k in range(1, 7)})

    def test_trivial_equation(self):
        def update(xs):
            return TruncatedSeries.one(T, 5)

        (x,) = fixed_point_system(lambda xs: [update(xs)], T, 5)
        assert x == gen(T, 5)

    def test_exponential_update_two_orders(self):
        # q = Q exp(6q) gives q = Q + 6Q^2 after two settled grades
        def update(xs):
            return exp_series(xs[0] * 6)

        (x,) = fixed_point_system(lambda xs: [update(xs)], T, 2)
        assert x == series(2, {(1,): 1, (2,): 6})

    def test_defining_equation_holds_exactly(self):
        def update(xs):
            return exp_series(xs[0] * -3 + xs[0] * xs[0])

        (x,) = fixed_point_system(lambda xs: [update(xs)], T, 8)
        assert x == gen(T, 8) * update([x])

    def test_rejects_non_unit_update(self):
        def update(xs):
            return TruncatedSeries.zero(T, 4)

        with pytest.raises(NonUnitSeries):
            fixed_point_system(lambda xs: [update(xs)], T, 4)

    def test_rejects_grade_rewriting_system(self):
        # the update inspects a settled grade and keeps moving it
        calls = {"n": 0}

        def update(xs):
            calls["n"] += 1
            return TruncatedSeries.one(T, 4) + TruncatedSeries.monomial(
                T, 4, (1,), calls["n"]
            )

        with pytest.raises(FixedPointDivergence) as caught:
            fixed_point_system(lambda xs: [update(xs)], T, 4)
        # pass 2 moves the coefficient of t^2, settled by pass 1
        message = str(caught.value)
        assert "generator 0 (t)" in message
        assert "monomial (2,)" in message
        assert "grade 2" in message


GRADED = Frame(names=("s",), grading=(2,))


@pytest.mark.parametrize(
    "call,fragments",
    [
        pytest.param(
            lambda: exp_series(series(3, {(0,): 1, (1,): 1})),
            ["exp requires a zero constant term", "got 1"],
            id="exp",
        ),
        pytest.param(
            lambda: log_series(series(3, {(0,): F(2, 3), (1,): 1})),
            ["log requires constant term 1", "got 2/3"],
            id="log",
        ),
        pytest.param(
            lambda: substitute(gen(T, 3), [series(3, {(0,): 3, (1,): 1}, UV)]),
            ["substitution image has a nonzero constant term", "image 0 (for t, grading 1)",
             "constant term 3"],
            id="substitute-constant",
        ),
        pytest.param(
            lambda: substitute(gen(GRADED, 4), [gen(UV, 4)]),
            ["valuation is below the source grading", "image 0 (for s, grading 2)",
             "valuation 1"],
            id="substitute-valuation",
        ),
        pytest.param(
            lambda: fixed_point_system(lambda xs: [series(4, {(0,): -5})], T, 4),
            ["update map 0 is not a unit series", "constant term -5", "generator t"],
            id="fixed-point-update",
        ),
        pytest.param(
            lambda: inverse(gen(QQ, 3)),
            ["cannot invert a series with zero constant term over generators ('Q0', 'Q1')"],
            id="inverse",
        ),
    ],
)
def test_non_unit_errors_name_their_cause(call, fragments):
    with pytest.raises(NonUnitSeries) as info:
        call()
    message = str(info.value)
    assert [f for f in fragments if f not in message] == []


SHIFTED = Frame(names=("t",), grading=(2,))


@pytest.mark.parametrize(
    "call,prefix,fragments",
    [
        pytest.param(
            lambda: gen(T, 3) + gen(UV, 3),
            "frames differ",
            ["('t',) vs ('u',)", "generator 0: 't' (grading 1, boundary 0) vs 'u'"],
            id="ring-op-name",
        ),
        pytest.param(
            lambda: gen(T, 3) * gen(SHIFTED, 3),
            "frames differ",
            ["('t',) vs ('t',)", "generator 0: 't' (grading 1, boundary 0) vs 't' (grading 2"],
            id="ring-op-grading",
        ),
        pytest.param(
            lambda: gen(T, 3) - gen(QQ, 3),
            "frames differ",
            ["('t',) vs ('Q0', 'Q1')", "generator 0: 't'", "vs 'Q0' (grading 1, boundary 1)"],
            id="ring-op-arity",
        ),
        pytest.param(
            lambda: substitute(gen(QQ, 3), [gen(T, 3), gen(UV, 3)]),
            "images live over different frames",
            ["image 0 vs image 1", "('t',) vs ('u',)", "generator 0"],
            id="substitute",
        ),
        pytest.param(
            lambda: fixed_point_system(lambda xs: [TruncatedSeries.one(UV, 2)], T, 2),
            "update map changed frames",
            ["unit 0 (for t)", "('t',) vs ('u',)", "generator 0"],
            id="fixed-point",
        ),
    ],
)
def test_frame_mismatch_names_both_frames(call, prefix, fragments):
    with pytest.raises(FrameMismatch) as info:
        call()
    message = str(info.value)
    assert message.startswith(prefix)
    assert [f for f in fragments if f not in message] == []


class TestDerivativeAndCoefficient:
    def test_scaling_by_exponent(self):
        s = TruncatedSeries.monomial(T, 4, (2,))
        assert log_derivative(s, 0) == TruncatedSeries.monomial(T, 4, (2,), 2)

    def test_kills_constants(self):
        assert log_derivative(TruncatedSeries.one(T, 4), 0).is_zero()

    def test_multivariate_weighting(self):
        s = TruncatedSeries.monomial(QQ, 4, (1, 1))
        assert log_derivative(s, 0) == s

    def test_derivation_rule(self):
        a = series(5, {(1,): 2, (3,): -1})
        b = series(5, {(0,): 1, (2,): F(5, 2)})
        lhs = log_derivative(a * b, 0)
        rhs = log_derivative(a, 0) * b + a * log_derivative(b, 0)
        assert lhs == rhs

    def test_coefficient_reads(self):
        s = series(4, {(0,): 1, (1,): 2})
        assert s.coefficient((1,)) == 2
        assert s.coefficient((0,)) == 1
        assert s.coefficient((2,)) == 0

    def test_coefficient_beyond_order(self):
        s = series(2, {(1,): 1})
        with pytest.raises(TruncationExceeded):
            s.coefficient((3,))

    def test_var_index_out_of_range(self):
        with pytest.raises(ValueError):
            log_derivative(gen(T, 3), 1)


class TestFrameValidation:
    def test_grading_must_be_positive(self):
        with pytest.raises(ValueError):
            Frame(names=("x",), grading=(0,))

    def test_boundary_length(self):
        with pytest.raises(ValueError):
            Frame(names=("x", "y"), boundary=(1,))

    @pytest.mark.parametrize(
        "args, kwargs, message",
        [
            ((("x",), (0,)), {}, "grading entry"),
            ((["x", "y"], [1, -2]), {}, "grading entry"),
            ((("x", "y"),), {"boundary": (1,)}, "length"),
            ((), {"names": ["x", "y"], "grading": [1, 1, 1]}, "length"),
            ((("x",), (1,), (0, 0)), {}, "length"),
        ],
    )
    def test_both_checks_positional_and_by_keyword(self, args, kwargs, message):
        with pytest.raises(ValueError, match=message):
            Frame(*args, **kwargs)

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            ((["x", "y"],), {}),
            ((), {"names": ["x", "y"]}),
            ((("x", "y"), [1, 1], [0, 0]), {}),
            ((), {"names": iter("xy"), "grading": (), "boundary": ()}),
        ],
    )
    def test_normalized_to_tuples_with_default_gradings(self, args, kwargs):
        frame = Frame(*args, **kwargs)
        assert (frame.names, frame.grading, frame.boundary) == (("x", "y"), (1, 1), (0, 0))
        assert all(type(f) is tuple for f in (frame.names, frame.grading, frame.boundary))
        assert frame == Frame(names=("x", "y"), grading=(1, 1), boundary=(0, 0))
        assert hash(frame) == hash(Frame(("x", "y")))

    def test_frames_of_other_gradings_differ(self):
        assert Frame(("x",), (2,)) != Frame(("x",))
        assert Frame(("x",), boundary=(1,)) != Frame(("x",))
        assert len({Frame(("x",)), Frame(["x"]), Frame(("x",), (2,))}) == 2

    @pytest.mark.parametrize("field", ["names", "grading", "boundary", "other"])
    def test_immutable(self, field):
        with pytest.raises(AttributeError):
            setattr(QQ, field, ())

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries(T, 3, {(-1,): F(1)})

    def test_empty_frame_constants(self):
        empty = Frame(names=())
        one = TruncatedSeries.one(empty, 5)
        assert (one * one) == one
        assert exp_series(TruncatedSeries.zero(empty, 5)) == one
