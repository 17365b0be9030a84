"""Open Gromov-Witten invariants from brane mirror series.

The z2 coordinate of a brane mirror has the shape
z2 = exp(- sum_beta n_beta [boundary(beta)] Q^beta); dividing -log z2
coefficientwise by the boundary grading recovers the rational
invariants n_beta, integrating once more gives the disc potential, and
Mobius summation inverts the multiple-cover relation
n_beta = sum_{p | beta} N_{beta/p} / p^2 into integer instanton
numbers.  Integrality is reported, never enforced: the multiple-cover
relation is an assumed input, so failures are diagnostics.  A table
holds each value as an unreduced integer pair, read as a ``Fraction``.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm

from .errors import MathDomainError
from .fps import ZERO, TruncatedSeries, boundary_derivative, log_series
from .fps import monomial_text, ratio_text


class _Ratios(Mapping):
    """Class -> ``Fraction``, held as class -> integer pair in ``pairs``."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        self.pairs = pairs

    def __getitem__(self, beta):
        return Fraction(*self.pairs[beta])

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)

    def __repr__(self):
        return repr(dict(self.items()))


def _pairs(values):
    """The class -> (numerator, denominator) pairs of a map of rationals."""
    if isinstance(values, _Ratios):
        return values.pairs
    return {beta: (v.numerator, v.denominator) for beta, v in values.items()}


class InvariantTable(namedtuple("InvariantTable", "frame order n N", defaults=(None,))):
    """Open GW invariants n_beta and optional instanton numbers N_beta.

    Keys are frame exponent vectors with positive total grade; when N
    is present the two maps satisfy the multiple-cover relation on
    every key within the truncation.  ``N`` defaults to None.
    """

    __slots__ = ()

    @property
    def printed(self) -> tuple:
        """(beta, label, n, N) for each class in sorted order: the label
        is the class's monomial over the frame's names ("1" for the empty
        one), n and N are printed with one gcd each, except that an
        integral N is an int; None where absent."""
        n, N, names = _pairs(self.n), _pairs(self.N or {}), self.frame.names
        rows = []
        for beta in sorted(n.keys() | N.keys()):
            p, q = N.get(beta, (0, 0))  # q = 0: no N
            value = None if not q else p // q if p % q == 0 else ratio_text(p, q)
            text = ratio_text(*n[beta]) if beta in n else None
            rows.append((beta, monomial_text(names, beta) or "1", text, value))
        return tuple(rows)

    def rows(self):
        """(beta, n, N) for each class in sorted order, read off ``printed``."""
        return [(beta, n, N) for beta, _, n, N in self.printed]


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
        offenders = terms.zero_weight(weights)
        raise MathDomainError(f"-log z2 has monomials with zero boundary grading: {offenders[:4]}")
    pairs = zip(terms.nums, [terms.den * w for w in weights])
    return InvariantTable(frame, z2.order, _Ratios(dict(zip(terms.exponents(), pairs))))


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


def multiple_cover_inversion(table: InvariantTable) -> InvariantTable:
    """Fill N via Mobius summation: N_beta = sum_{p|beta} mu(p) n_{beta/p} / p^2.

    Divisibility is componentwise over the whole exponent vector, so the
    sum runs over the divisors p of g = gcd(beta).  A class with g = 1
    has N_beta = n_beta; only the classes with g > 1, and the classes
    beta/p (p < g) they add to the support, run the sum, each as one
    integer numerator over the lcm of its terms' denominators.  A class
    is d*b with b primitive: the classes of n are grouped once by b, and
    the terms of N_{d*b} are the multiples d/p of b over the squarefree
    p | d, read by that integer.  The forward sum
    n_beta = sum_{p|beta} N_{beta/p} / p^2 then holds exactly on the
    divisor closure of the support.
    """
    n = _pairs(table.n)
    instanton = {}
    multiples = {}  # primitive class b -> {d: n at d*b}, for each b with some d > 1
    for beta, value in n.items():
        g = gcd(*beta)
        if g == 1:
            if value[0]:
                instanton[beta] = value
        else:
            multiples.setdefault(tuple([x // g for x in beta]), {})[g] = value
    terms = {}  # d -> (mu(p), p^2, d // p) for each squarefree p | d
    for base, values in multiples.items():
        if base in n:
            values[1] = n[base]
        for d in {d for g in values for d in range(2, g + 1) if g % d == 0}:
            if d not in terms:
                squarefree = [(p, _mobius(p)) for p in range(1, d + 1) if d % p == 0]
                terms[d] = [(mu, p * p, d // p) for p, mu in squarefree if mu]
            parts = [(mu, q, values[k]) for mu, q, k in terms[d] if k in values]
            den = lcm(*[q * b for _, q, (_, b) in parts])
            total = sum([mu * a * (den // (q * b)) for mu, q, (a, b) in parts])
            if total:
                instanton[tuple([x * d for x in base])] = (total, den)
    return InvariantTable(table.frame, table.order, _Ratios(n), _Ratios(instanton))


def cover_sum(table: InvariantTable, beta) -> Fraction:
    """Forward multiple-cover sum at beta from the filled N."""
    if table.N is None:
        raise MathDomainError("cover_sum needs a table with N filled")
    g = gcd(*beta)
    reduced = [(p, tuple(x // p for x in beta)) for p in range(1, g + 1) if g % p == 0]
    return sum((table.N[b] / (p * p) for p, b in reduced if b in table.N), ZERO)


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
        (beta, Fraction(p, q)) for beta, (p, q) in sorted(_pairs(table.N).items()) if p % q
    )
    return IntegralityReport(flagged=flagged)
