"""Exact multivariate truncated formal power series over the rationals.

Series live over a :class:`Frame` (named generators, each of grade 1,
and an integer boundary grading) and are truncated by total degree.
Coefficients are exact rationals; there is no floating point anywhere
in this module.

Each series stores its terms in the kernel form of ``_backend``: integer
numerators over one gcd-reduced denominator, keyed by sorted packed
monomials.  Ring operations, truncation and the settled-grade and
valuation checks work on those integer rows; products go through
``_backend.mul_terms``.  ``TruncatedSeries.terms`` reads the rows as a
read-only exponent tuple -> ``Fraction`` mapping: a lookup bisects the
rows and iteration decodes them; ``str`` reads the rows.
All values are immutable after construction and every operation is a
pure function, so instances can be shared freely across threads.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Mapping, Sequence
from fractions import Fraction

from ._backend import Terms, _normal, exp_log, graded_root, mul_terms, pack, single
from ._backend import monomial_text, ratio_text
from .errors import (
    FixedPointDivergence,
    FrameMismatch,
    NonUnitSeries,
    TruncationExceeded,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def as_rational(value) -> Fraction:
    """Coerce ints, Fractions and "p/q" strings to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


class Frame(namedtuple("Frame", "names boundary")):
    """Exponent monoid of a series ring: generator names and a boundary grading.

    Every generator has grade 1, so the grade of a monomial is its total
    degree, and graded fixed-point passes and grade-by-grade solves
    terminate; ``boundary`` is the integer functional used for
    boundary-weighted derivatives (all zero by default).
    """

    __slots__ = ()

    def __new__(cls, names, boundary=()):
        names = tuple(names)
        boundary = tuple(boundary) if boundary else (0,) * len(names)
        if len(boundary) != len(names):
            raise ValueError("boundary length must match generator count")
        return super().__new__(cls, names, boundary)

    @property
    def nvars(self) -> int:
        return len(self.names)

    @property
    def grading(self) -> tuple[int, ...]:
        """The grade of every generator, all 1: ``TruncatedSeries.__mul__``
        passes it to ``mul_terms`` and ``serialize.frame_to_json`` prints it."""
        return (1,) * len(self.names)

    def grade(self, exponents: Sequence[int]) -> int:
        return sum(exponents)


def _frame_difference(frame: Frame, other: Frame) -> str:
    """Both frames' generators and the first generator where they differ."""

    def generator(f, i):
        if i >= f.nvars:
            return "absent"
        return f"{f.names[i]!r} (boundary {f.boundary[i]})"

    i = next(
        i
        for i in range(max(frame.nvars, other.nvars))
        if generator(frame, i) != generator(other, i)
    )
    return (
        f"{frame.names} vs {other.names}, generator {i}: "
        f"{generator(frame, i)} vs {generator(other, i)}"
    )


class TruncatedSeries:
    """Sparse truncated series: exponent tuple -> nonzero Fraction.

    Terms of total grade greater than ``order`` are absent by
    definition (unknown, not zero).  Two series over the same frame and
    order form a commutative ring with exact arithmetic.  ``terms`` is a
    read-only :class:`~syzmirror._backend.Terms` at the layout of
    ``order``.
    """

    __slots__ = ("frame", "order", "terms")

    def __init__(self, frame: Frame, order: int, terms: Mapping[tuple[int, ...], Fraction]):
        clean = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != frame.nvars:
                raise ValueError("exponent arity does not match frame")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent outside frame monoid")
            if frame.grade(exps) > order:
                continue
            value = as_rational(coeff)
            if value != 0:
                clean[exps] = value
        self.frame = frame
        self.order = order
        self.terms = pack(clean, frame.nvars, order)

    @classmethod
    def _trusted(cls, frame: Frame, order: int, terms: Terms) -> "TruncatedSeries":
        """A series from kernel-form terms, without re-checking.

        Only for the results of ring operations, whose terms hold by
        construction what ``__init__`` checks: the frame's generator count,
        the layout of ``order``, grades <= ``order`` and nonzero numerators.
        """
        series = object.__new__(cls)
        series.frame = frame
        series.order = order
        series.terms = terms
        return series

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, frame: Frame, order: int) -> "TruncatedSeries":
        return cls._trusted(frame, order, single(frame.nvars, order, ZERO))

    @classmethod
    def constant(cls, frame: Frame, order: int, value) -> "TruncatedSeries":
        return cls._trusted(frame, order, single(frame.nvars, order, as_rational(value)))

    @classmethod
    def one(cls, frame: Frame, order: int) -> "TruncatedSeries":
        return cls._trusted(frame, order, single(frame.nvars, order, ONE))

    @classmethod
    def generator(cls, frame: Frame, order: int, index: int) -> "TruncatedSeries":
        if not 0 <= index < frame.nvars:
            raise ValueError(f"generator index {index} out of range for {frame.names}")
        return cls._trusted(frame, order, single(frame.nvars, order, ONE, index))

    @classmethod
    def monomial(cls, frame: Frame, order: int, exponents, coefficient=1) -> "TruncatedSeries":
        return cls(frame, order, {tuple(exponents): as_rational(coefficient)})

    # -- inspection ---------------------------------------------------

    def constant_term(self) -> Fraction:
        return self.terms.constant()

    def is_zero(self) -> bool:
        return not self.terms.monos

    def valuation(self) -> int | None:
        """Minimal grade of a present term, or None for the zero series."""
        return self.terms.min_grade()

    def coefficient(self, exponents: Sequence[int]) -> Fraction:
        """The coefficient of ``exponents``, 0 when one is negative; one
        bisection of the rows, without decoding the mapping view."""
        exps = tuple(exponents)
        if len(exps) != self.frame.nvars:
            raise ValueError("exponent arity does not match frame")
        if self.frame.grade(exps) > self.order:
            raise TruncationExceeded(
                f"exponent {exps} has grade beyond truncation order {self.order}"
            )
        return self.terms.get(exps, ZERO)

    def truncate(self, order: int) -> "TruncatedSeries":
        if order >= self.order:
            if order > self.order:
                raise TruncationExceeded("cannot extend a truncated series")
            return self
        return TruncatedSeries._trusted(self.frame, order, self.terms.truncated(order))

    def weighted(self, coeffs) -> "TruncatedSeries":
        """Every term c x^e times the integer w = sum coeffs[i] * e[i];
        terms of weight 0 drop."""
        return TruncatedSeries._trusted(self.frame, self.order, self.terms.weighted(coeffs))

    def signed(self, coeffs, odd, even=1) -> "TruncatedSeries":
        """Every term times ``odd`` where sum coeffs[i] * e[i] is odd, else ``even``."""
        signed = self.terms.signed(coeffs, odd, even)
        return TruncatedSeries._trusted(self.frame, self.order, signed)

    def selected(self, flags) -> "TruncatedSeries":
        """The terms of the rows whose entry in ``flags`` is true."""
        t = self.terms
        rows = [(k, n) for k, n, flag in zip(t.monos, t.nums, flags) if flag]
        terms = _normal(t.nvars, t.width, t.den, [k for k, _ in rows], [n for _, n in rows])
        return TruncatedSeries._trusted(self.frame, self.order, terms)

    # -- ring operations ----------------------------------------------

    def _check_frame(self, other: "TruncatedSeries"):
        if self.frame != other.frame:
            raise FrameMismatch(f"frames differ: {_frame_difference(self.frame, other.frame)}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries.constant(self.frame, self.order, other)
        self._check_frame(other)
        if self.order != other.order:
            order = min(self.order, other.order)
            return self.truncate(order) + other.truncate(order)
        return TruncatedSeries._trusted(self.frame, self.order, self.terms + other.terms)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries._trusted(self.frame, self.order, -self.terms)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries.constant(self.frame, self.order, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            scalar = as_rational(other)
            if scalar == 0:
                return TruncatedSeries.zero(self.frame, self.order)
            return TruncatedSeries._trusted(self.frame, self.order, self.terms.scaled(scalar))
        self._check_frame(other)
        order = min(self.order, other.order)
        product = mul_terms(self.terms, other.terms, self.frame.grading, order)
        return TruncatedSeries._trusted(self.frame, order, product)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return pow_int(self, k)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.frame == other.frame
            and self.order == other.order
            and self.terms == other.terms
        )

    __hash__ = None

    def __repr__(self):
        return f"TruncatedSeries({self!s}; order={self.order})"

    def __str__(self):
        t, names = self.terms, self.frame.names
        exponents, den = t.exponents(), t.den
        bits = []
        for _, exps, num in sorted(zip(map(sum, exponents), exponents, t.nums)):
            mono = monomial_text(names, exps)
            if not mono:
                bits.append(ratio_text(num, den))
            elif num == den:
                bits.append(mono)
            elif num == -den:
                bits.append(f"-{mono}")
            else:
                bits.append(f"{ratio_text(num, den)}*{mono}")
        return " + ".join(bits).replace("+ -", "- ") or "0"


# -- transcendental and structural operations ------------------------


def exp_series(s: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with zero constant term, grade by grade.

    With E the graded Euler operator (x^e -> grade(e) x^e), a
    derivation, g = exp s solves E(g) = E(s) g, so grade n of g is
    (1/n) sum_{m<n} (n - m) s_{n-m} g_m (Brent & Kung, J. ACM 25, 1978;
    Knuth, TAOCP vol. 2, 4.7): about half of one truncated product, on
    the kernel rows (``_backend.exp_log``).
    """
    if s.constant_term() != 0:
        raise NonUnitSeries(f"exp requires a zero constant term, got {s.constant_term()}")
    return TruncatedSeries._trusted(s.frame, s.order, exp_log(s.terms, s.order, log=False))


def log_series(s: TruncatedSeries) -> TruncatedSeries:
    """log of a series with constant term one, grade by grade.

    L = log s solves E(L) s = E(s) for the graded Euler operator E, so
    grade n of L is s_n - (1/n) sum_{0<m<n} m L_m s_{n-m} (Brent & Kung,
    J. ACM 25, 1978; Knuth, TAOCP vol. 2, 4.7): no inverse, about half
    of one truncated product, on the kernel rows (``_backend.exp_log``).
    """
    if s.constant_term() != 1:
        raise NonUnitSeries(f"log requires constant term 1, got {s.constant_term()}")
    return TruncatedSeries._trusted(s.frame, s.order, exp_log(s.terms, s.order, log=True))


def _lift(s: TruncatedSeries, order: int) -> TruncatedSeries:
    """The terms of ``s`` read at a higher truncation order.

    The grades between ``s.order`` and ``order`` read as zero; callers
    use this only where a fixed-point pass settles them.
    """
    if order < s.order:
        raise ValueError("a lift cannot lower the truncation order")
    return TruncatedSeries._trusted(s.frame, order, s.terms.at_order(order))


def inverse(s: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse of a unit series, grade by grade.

    g = 1/s is the root of s*g - 1 = 0 at g_0 = 1/s_0, so grade n reads
    g_n = -(1/s_0) sum_{0<k<=n} s_k g_{n-k} (``_backend.graded_root``),
    about one truncated product on the kernel rows.
    """
    c0 = s.constant_term()
    if c0 == 0:
        raise NonUnitSeries(
            f"cannot invert a series with zero constant term over generators {s.frame.names}"
        )
    coeffs = [single(s.frame.nvars, s.order, -ONE), s.terms]
    return TruncatedSeries._trusted(s.frame, s.order, graded_root(coeffs, 1 / c0, c0, s.order))


def pow_int(s: TruncatedSeries, k: int) -> TruncatedSeries:
    """Integer power; negative exponents require a unit base."""
    if not isinstance(k, int):
        raise TypeError("exponent must be an integer")
    if k < 0:
        return pow_int(inverse(s), -k)
    result = None
    base = s
    e = k
    while e:
        if e & 1:
            result = base if result is None else result * base
        e >>= 1
        if e:
            base = base * base
    return TruncatedSeries.one(s.frame, s.order) if result is None else result


def substitute(
    s: TruncatedSeries,
    images: Sequence[TruncatedSeries],
    *,
    frame: Frame | None = None,
    order: int | None = None,
) -> TruncatedSeries:
    """Formal composition: replace generator i of ``s`` by ``images[i]``.

    Every image must have zero constant term, hence valuation >= 1, the
    grade of the generator it replaces, which makes the truncated
    composition well defined.  For a frame with no generators pass the
    target ``frame`` and ``order`` explicitly.
    """
    if len(images) != s.frame.nvars:
        raise ValueError("one image per generator is required")
    if not images:
        if frame is None or order is None:
            raise ValueError("composition over an empty frame needs an explicit target")
        return TruncatedSeries.constant(frame, order, s.constant_term())
    target = images[0].frame
    target_order = min(min(im.order for im in images), s.order)
    if order is not None:
        target_order = min(target_order, order)
    for i, im in enumerate(images):
        if im.frame != target:
            raise FrameMismatch(
                "images live over different frames: image 0 vs image "
                f"{i}: {_frame_difference(target, im.frame)}"
            )
        if im.constant_term() != 0:
            raise NonUnitSeries(
                f"substitution image has a nonzero constant term {im.constant_term()}: "
                f"image {i} (for {s.frame.names[i]})"
            )

    # powers[i][e] = images[i]**e, grown on demand
    powers = [[None, im.truncate(target_order)] for im in images]
    total = TruncatedSeries.zero(target, target_order)
    for exps, coeff in s.terms.items():
        if s.frame.grade(exps) > target_order:
            continue  # every image has valuation >= 1
        term = TruncatedSeries.constant(target, target_order, coeff)
        for cache, e in zip(powers, exps):
            if e:
                while len(cache) <= e:
                    cache.append(cache[-1] * cache[1])
                term = term * cache[e]
        total = total + term
    return total


def boundary_derivative(s: TruncatedSeries) -> TruncatedSeries:
    """Boundary-grading-weighted derivative: c*x^e -> c*boundary(e)*x^e."""
    return s.weighted(s.frame.boundary)


def fixed_point_system(
    update: Callable[[list[TruncatedSeries]], Sequence[TruncatedSeries]],
    frame: Frame,
    order: int,
) -> list[TruncatedSeries]:
    """Solve x_a = gen_a * U_a(x), where ``update(x)`` returns every unit U_a.

    Pass k lifts the previous solution, which is exact through grade k,
    and recomputes it at truncation min(k + 1, order); it is then exact
    through grade k + 1, so only the last passes run at full order.  A
    pass that alters a grade <= k rewrites an already-settled grade and
    is rejected.  The iteration stops at the first full-order pass that
    reproduces its input, at most ``order + 2`` passes.
    """
    xs = [TruncatedSeries.generator(frame, min(1, order), a) for a in range(frame.nvars)]
    for pass_no in range(order + 2):
        precision = min(pass_no + 1, order)
        xs = [_lift(x, precision) for x in xs]
        units = update(list(xs))
        if len(units) != frame.nvars:
            raise ValueError("one unit series per frame generator is required")
        new_xs = []
        for a, u in enumerate(units):
            if u.frame != frame:
                raise FrameMismatch(
                    f"update map changed frames: unit {a} (for {frame.names[a]}): "
                    f"{_frame_difference(frame, u.frame)}"
                )
            if u.constant_term() != 1:
                raise NonUnitSeries(
                    f"update map {a} is not a unit series: constant term "
                    f"{u.constant_term()} for generator {frame.names[a]}"
                )
            new_xs.append(TruncatedSeries.generator(frame, precision, a) * u)
        for a, (old, new) in enumerate(zip(xs, new_xs)):
            diff = old - new
            lowest = diff.valuation()
            if lowest is not None and lowest <= pass_no:
                grade, exps = min((frame.grade(e), e) for e in diff.terms)
                raise FixedPointDivergence(
                    f"fixed-point pass {pass_no} altered the already-settled grade "
                    f"{grade} of generator {a} ({frame.names[a]}) at monomial {exps}"
                )
        if precision == order and new_xs == xs:
            return xs
        xs = new_xs
    raise FixedPointDivergence(f"no stabilization after {order + 2} passes")
