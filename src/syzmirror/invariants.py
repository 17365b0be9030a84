"""Open Gromov-Witten invariants from brane mirror series.

The z2 coordinate of a brane mirror has the shape
z2 = exp(- sum_beta n_beta [boundary(beta)] Q^beta); dividing -log z2
coefficientwise by the boundary grading recovers the rational
invariants n_beta, integrating once more gives the disc potential, and
Mobius summation inverts the multiple-cover relation
n_beta = sum_{p | beta} N_{beta/p} / p^2 into integer instanton
numbers.  Integrality is reported, never enforced: the multiple-cover
relation is an assumed input, so failures are diagnostics.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, isqrt

from .errors import MathDomainError
from .fps import ZERO, TruncatedSeries, boundary_derivative, log_series


class InvariantTable(namedtuple("InvariantTable", "frame order n N", defaults=(None,))):
    """Open GW invariants n_beta and optional instanton numbers N_beta.

    Keys are frame exponent vectors with positive total grade; when N
    is present the two maps satisfy the multiple-cover relation on
    every key within the truncation.  ``N`` defaults to None.
    """

    __slots__ = ()

    def sorted_classes(self):
        keys = set(self.n)
        if self.N is not None:
            keys.update(self.N)
        return sorted(keys)


def _neg_log(z2: TruncatedSeries) -> TruncatedSeries:
    if z2.constant_term() != 1:
        raise MathDomainError("z2 must have constant term 1")
    return -log_series(z2)


def extract_open_gw(
    z2: TruncatedSeries, neg_log: TruncatedSeries | None = None
) -> InvariantTable:
    """n_beta = (coefficient of Q^beta in -log z2) / boundary(beta).

    A monomial with zero boundary grading cannot be divided out and
    signals a wrong frame or a non-Aganagic-Vafa input.  A caller that
    already holds -log z2 (``BraneMirrorSeries.neg_log_z2``) passes it
    as ``neg_log``.
    """
    frame = z2.frame
    terms = (_neg_log(z2) if neg_log is None else neg_log).terms
    weights = terms.row_weights(frame.boundary)
    if not all(weights):
        offenders = terms.zero_weight(frame.boundary)
        raise MathDomainError(
            f"-log z2 has monomials with zero boundary grading: {offenders[:4]}"
        )
    den = terms.den
    table = {
        e: Fraction(num, den * w) for e, num, w in zip(terms.exponents(), terms.nums, weights)
    }
    return InvariantTable(frame=frame, order=z2.order, n=table)


def disc_potential(z2: TruncatedSeries) -> TruncatedSeries:
    """The unique F with F(0)=0 whose boundary-weighted derivative is -log z2.

    Termwise F = sum n_beta Q^beta, so its coefficients are exactly the
    open invariants of :func:`extract_open_gw`.
    """
    table = extract_open_gw(z2)
    return TruncatedSeries(table.frame, z2.order, table.n)


def verify_potential(z2: TruncatedSeries, potential: TruncatedSeries) -> bool:
    """Exact round trip: the weighted derivative of F reproduces -log z2."""
    return boundary_derivative(potential) == _neg_log(z2)


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def _divisors(beta):
    """(p, beta/p) for every p >= 1 dividing each entry of beta, p increasing.

    Those p are the divisors of g = gcd(*beta), found by trial division
    up to sqrt(g); the zero vector has none.
    """
    g = gcd(*beta)
    small = [p for p in range(1, isqrt(g) + 1) if g % p == 0]
    for p in small + [g // p for p in reversed(small) if p * p != g]:
        yield p, tuple(x // p for x in beta)


def multiple_cover_inversion(table: InvariantTable) -> InvariantTable:
    """Fill N via Mobius summation: N_beta = sum_{p|beta} mu(p) n_{beta/p} / p^2.

    Divisibility is componentwise over the whole exponent vector, so the
    sum runs over the divisors p of g = gcd(beta).  A class with g = 1
    has N_beta = n_beta; only the classes with g > 1, and the classes
    beta/p (p < g) they add to the support, run the sum.  The forward
    sum n_beta = sum_{p|beta} N_{beta/p} / p^2 then holds exactly on the
    divisor closure of the support.
    """
    n = table.n
    instanton = {}
    multiples = {}  # class with gcd > 1 -> its gcd
    for beta, value in n.items():
        g = gcd(*beta)
        if g == 1:
            if value:
                instanton[beta] = value
            continue
        for p in range(1, g):
            if g % p == 0:
                multiples[tuple(x // p for x in beta)] = g // p
    for beta, g in multiples.items():
        total = n.get(beta, ZERO)
        for p in range(2, g + 1):
            if g % p == 0 and (mu := _mobius(p)):
                reduced = tuple(x // p for x in beta)
                if reduced in n:
                    total += Fraction(mu, p * p) * n[reduced]
        if total:
            instanton[beta] = total
    return InvariantTable(frame=table.frame, order=table.order, n=dict(n), N=instanton)


def cover_sum(table: InvariantTable, beta) -> Fraction:
    """Forward multiple-cover sum at beta from the filled N."""
    if table.N is None:
        raise MathDomainError("cover_sum needs a table with N filled")
    return sum(
        (table.N[reduced] / (p * p) for p, reduced in _divisors(beta) if reduced in table.N),
        ZERO,
    )


class IntegralityReport(namedtuple("IntegralityReport", "flagged")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.flagged


def integrality_check(table: InvariantTable) -> IntegralityReport:
    """Flag every non-integer instanton number; an empty list is a pass."""
    if table.N is None:
        raise MathDomainError("integrality_check needs a table with N filled")
    flagged = tuple(
        (beta, value)
        for beta, value in sorted(table.N.items())
        if value.denominator != 1
    )
    return IntegralityReport(flagged=flagged)
