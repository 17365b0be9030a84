"""Quantum-corrected mirror curve, mirror maps, and brane mirror series.

Sign conventions, pinned by the regression tests rather than prose:
the closed mirror map is Q_a = q_a * exp(+ sum_j iota_j^(a) A_j(q)),
its inverse solves q_a = Q_a * exp(- sum_j iota_j^(a) A_j(q)) by Good's
Lagrange inversion, which reads each unit exp(-sum_j w_j A_j(q(Q))),
coefficient by coefficient, off one chain of powers of the nonzero A_j,
and the fiber generating functions are 1 + delta_j = exp(-A_j(q(Q))).
Together these satisfy Q_a * prod_j (1+delta_j)^{iota_j^(a)} = q_a(Q)
identically and reproduce 1 + delta_0 = 1 - 2Q + 5Q^2 - ... for local P^2.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import lcm
from operator import mul

from ._backend import _from_rows, _weights, field_width, graded_root
from .errors import BranchError, FrameEscape, MathDomainError, ValidationError
from .fps import Frame, TruncatedSeries, ZERO, exp_series, log_series, pow_int
from .invariants import IntegralityReport, InvariantTable, extract_open_gw
from .invariants import integrality_check, multiple_cover_inversion
from .lattice import (
    BraneSpec,
    ToricCYData,
    brane_report,
    independent_columns,
    row_reduce,
    unit_vector,
    validate_brane,
)


def require_valid(data: ToricCYData) -> None:
    if not data.validation.ok:
        raise ValidationError(f"invalid toric data: {data.validation}")


def a_series(data: ToricCYData, order: int) -> tuple[TruncatedSeries, ...]:
    """A_j(q) = sum over effective classes alpha > 0 of E_j(alpha) q^alpha, every ray j.

    E_j(alpha) vanishes unless <D_j, alpha> is the only negative
    pairing of alpha, so each class feeds at most one series.  One walk
    over the classes 0 <= alpha of degree <= order carries each class's
    pairings and packed key, updated by one charge row and one key
    increment per step.  A subtree is skipped once two pairings are
    negative in columns that no later charge row raises, since no class
    below it has a single negative pairing.  Each coefficient is read
    off an integer factorial table, and the rows of every A_j go
    straight into kernel form over one denominator.
    """
    frame = data.closed_frame
    iota = data.effective_charge_basis
    k, m = len(iota), data.m
    width = field_width(order)
    steps = _weights(frame.nvars, width)
    factorials = [1]
    for x in range(1, order * max((abs(c) for row in iota for c in row), default=0) + 1):
        factorials.append(factorials[-1] * x)
    # rising[d]: the columns in which some charge row d, d + 1, ... is positive
    rising = [set() for _ in range(k + 1)]
    for d in range(k - 1, -1, -1):
        rising[d] = rising[d + 1] | {j for j, c in enumerate(iota[d]) if c > 0}
    found = [[] for _ in range(m)]  # (key, numerator, denominator) per ray

    def walk(depth, key, pairings, budget):
        negative = [j for j, p in enumerate(pairings) if p < 0]
        if depth == k:
            if len(negative) == 1:
                (j,) = negative
                top = -pairings[j] - 1
                denominator = 1
                for i, p in enumerate(pairings):
                    if i != j:
                        denominator *= factorials[p]
                sign = -1 if top & 1 else 1
                found[j].append((key, sign * factorials[top], denominator))
            return
        if sum(j not in rising[depth] for j in negative) >= 2:
            return
        row, step = iota[depth], steps[depth]
        for _ in range(budget + 1):
            walk(depth + 1, key, pairings, budget)
            budget -= 1
            key += step
            pairings = [p + r for p, r in zip(pairings, row)]

    walk(0, 0, [0] * m, order)
    series = []
    for rows in found:
        den = lcm(*[d for _, _, d in rows])
        terms = _from_rows(frame.nvars, width, den, {key: n * (den // d) for key, n, d in rows})
        series.append(TruncatedSeries._trusted(frame, order, terms))
    return tuple(series)


def open_charge(brane: BraneSpec, m: int) -> tuple[int, ...]:
    """The auxiliary charge l^(0) = e_{i2} - e_{i1} of an AV brane."""
    if brane.av_indices is None:
        raise MathDomainError("open direction needs a brane with av_indices")
    _, i1, i2 = brane.av_indices
    return tuple(x - y for x, y in zip(unit_vector(m, i2), unit_vector(m, i1)))


class MirrorMapData:
    """A mirror map as explicit series, in either direction.

    ``direction`` is "q_to_Q" or "Q_to_q".  ``a_series`` holds every
    A_j, the factorial series the map is built from; A_j is identically
    zero whenever every effective pairing <D_j, alpha> is non-negative.

    The rest is built when read, so a caller pays only for what it
    reads: ``closed``, the image of each closed variable; ``open_unit``,
    the unit factor of the open direction (the open variable itself is
    not a generator of the closed frame), None without a brane; and
    ``fiber``, 1 + delta_j = exp(-A_j(q(Q))) for every ray j, None for
    q_to_Q; A_j(q(Q)) itself is -log ``fiber[j]``.  A map is a view of
    ``(data, order)``: the A_j, the Lagrange chain and every unit are
    kept on the toric data (:meth:`ToricCYData.kept`), so the maps of
    one toric data at one order share them.
    """

    def __init__(self, data, order, direction, brane=None):
        require_valid(data)
        self.direction = direction
        self.a_series = data.kept(("a_series", order), a_series)
        self.order = order
        self._data = data
        self._open_charge = None if brane is None else open_charge(brane, data.m)

    def _unit(self, row):
        """The unit of row weights ``row``."""
        return self._data.kept(("unit", self.order, self.direction, row), _build_unit)

    @property
    def closed(self) -> tuple[TruncatedSeries, ...]:
        """The image of each closed variable: its generator times the unit
        of its charge row."""
        frame = self._data.closed_frame
        return tuple(
            TruncatedSeries.generator(frame, self.order, a) * self._unit(row)
            for a, row in enumerate(self._data.effective_charge_basis)
        )

    @cached_property
    def open_unit(self) -> TruncatedSeries | None:
        """The unit of the open charge l^(0), or None without a brane."""
        return None if self._open_charge is None else self._unit(self._open_charge)

    @cached_property
    def fiber(self) -> tuple[TruncatedSeries, ...] | None:
        """1 + delta_j = exp(-A_j(q(Q))), the unit of the row e_j, for
        every ray j (Q_to_q only)."""
        if self.direction == "q_to_Q":
            return None
        m = len(self.a_series)
        return tuple(self._unit(unit_vector(m, j)) for j in range(m))


def _build_unit(data, order, direction, row):
    """The unit of row weights w: exp(sum_j w_j A_j) for q_to_Q, one exp
    over the live rays (A_j != 0), and exp(-sum_j w_j A_j(q(Q))) for
    Q_to_q, read off the Lagrange chain with no exp at all; a unit whose
    live weights are all 0 is 1."""
    a_list = data.kept(("a_series", order), a_series)
    live = [j for j, a in enumerate(a_list) if not a.is_zero()]
    if not any(row[j] for j in live):
        return TruncatedSeries.one(data.closed_frame, order)
    if direction == "Q_to_q":
        return data.kept(("chain", order), _chain).unit([row[j] for j in live])
    terms = [a_list[j] * row[j] for j in live if row[j]]
    return exp_series(sum(terms[1:], terms[0]))


def _chain(data, order):
    a_list = data.kept(("a_series", order), a_series)
    one = TruncatedSeries.one(data.closed_frame, order)
    return LagrangeChain(a_list, data.effective_charge_basis, one)


def mirror_map(data: ToricCYData, order: int, brane: BraneSpec | None = None) -> MirrorMapData:
    """Q_a = q_a exp(sum_j iota_j^(a) A_j(q)), open direction likewise.

    Reads every A_j kept on ``data`` at ``order``; the closed images and
    the open unit, each the exp of an integer combination of the A_j,
    are built when read.
    """
    return MirrorMapData(data, order, "q_to_Q", brane)


def _determinant(matrix, one):
    """det of a square matrix of series, by cofactor expansion along the
    first row; ``one`` for the empty matrix."""
    if len(matrix) <= 1:
        return matrix[0][0] if matrix else one
    total = None
    for c, entry in enumerate(matrix[0]):
        minor = [row[:c] + row[c + 1 :] for row in matrix[1:]]
        term = entry * _determinant(minor, one) * (-1) ** c
        total = term if total is None else total + term
    return total


class LagrangeChain:
    """Good's Lagrange inversion of the closed map as one product chain,
    and every inverse-map series read off its rows.

    The inverse map solves q_a = Q_a g_a(q) with
    g_a = exp(-sum_j iota_j^(a) A_j(q)).  Good's formula (I. J. Good,
    Proc. Cambridge Philos. Soc. 56, 1960; I. M. Gessel, J. Combin.
    Theory A 45, 1987 and 144, 2016) reads

        [Q^n] F(q(Q)) = [q^n] F(q) g(q)^n det(delta_ab - q_b d_b log g_a),

    with g^n = exp(-sum_l p_l(n) A_l) and p_l(n) = sum_a iota_l^(a) n_a
    over the live rays l, those with nonzero A_l.  The determinant is
    det(I_k + U V) with U_al = iota_l^(a) and V_lb = q_b d_b A_l, so by
    the matrix determinant lemma it is Delta = det(I_J + V U), whose
    entry (j, l) is delta_jl plus A_j weighted by column l of iota.
    Every series the inverse map reads is F = exp(-sum_l c_l A_l) at
    integer weights c.

    With several live rays the chain is R_beta = Delta A^beta / beta!,
    R_0 = Delta, built as R_beta = R_{beta-e_l} A_l / beta_l, and

        [Q^n] exp(-sum_l c_l A_l(q(Q)))
            = sum_beta prod_l (-(p_l(n) + c_l))^beta_l R_beta[n].

    With one live ray A, Delta = 1 + P(A) for the derivation
    P: q^n -> p(n) q^n, and A^g P(A) = P(A^(g+1)) / (g+1), so the chain
    drops Delta: R_g = A^g / g! for g = 1..order, and

        [Q^n] exp(-c A(q(Q))) = [n=0] + c sum_g (-1)^g (p(n)+c)^(g-1) R_g[n].

    ``delta`` is True on the Delta chain, built exactly when two or more
    rays are live.  Every A_l has valuation >= 1, so R_beta vanishes
    below grade |beta| and |beta| <= order suffices.  Each read-off is
    an integer weight on the rows of every R_beta, over the lcm of the
    chain's denominators, and the pairings p_l(n) of each packed key are
    decoded once, with the chain.
    """

    def __init__(self, a_list, rows, one):
        order = one.order
        live = [j for j, a in enumerate(a_list) if not a.is_zero()]
        self.delta = len(live) > 1
        columns = [[row[l] for row in rows] for l in live]
        chain = {}
        if self.delta:
            matrix = [
                [a_list[j].weighted(column) + (i == c) for c, column in enumerate(columns)]
                for i, j in enumerate(live)
            ]
            chain[(0,) * len(live)] = _determinant(matrix, one)
        # lexicographic order reaches beta - e_l, for l the last nonzero
        # index of beta, before beta
        for beta in product(range(order + 1), repeat=len(live)):
            if not 0 < sum(beta) <= order:
                continue
            l = max(i for i, b in enumerate(beta) if b)
            a = a_list[live[l]]
            previous = chain.get(beta[:l] + (beta[l] - 1,) + beta[l + 1 :])
            chain[beta] = a if previous is None else previous * a * Fraction(1, beta[l])

        self.one = one
        # (exponent, R): the exponent is beta, or g - 1 for R_g without Delta
        self._rows = [(beta if self.delta else (beta[0] - 1,), r) for beta, r in chain.items()]
        self._den = lcm(*[r.terms.den for r in chain.values()])
        pairings = self._pairings = {}  # packed key n -> [p_l(n) for every live l]
        for r in chain.values():
            for k, e in zip(r.terms.monos, r.terms.exponents()):
                if k not in pairings:
                    pairings[k] = [sum(map(mul, column, e)) for column in columns]

    def unit(self, weights) -> TruncatedSeries:
        """exp(-sum_l c_l A_l(q(Q))), c = ``weights`` over the live rays:
        S = sum_R x^exponent R[n] at x_l = -(p_l(n) + c_l) on the Delta
        chain, and 1 - c S without Delta."""
        scale = 1 if self.delta else -weights[0]
        pairings = self._pairings
        acc = {}
        get = acc.get
        for exponent, r in self._rows:
            factor = scale * (self._den // r.terms.den)
            for k, n in zip(r.terms.monos, r.terms.nums):
                n *= factor
                for p, c, y in zip(pairings[k], weights, exponent):
                    if y:
                        n *= (-p - c) ** y
                acc[k] = get(k, 0) + n
        if not self.delta:
            acc[0] = get(0, 0) + self._den
        one = self.one
        terms = _from_rows(one.frame.nvars, one.terms.width, self._den, acc)
        return TruncatedSeries._trusted(one.frame, one.order, terms)


def inverse_mirror_map(
    data: ToricCYData, order: int, brane: BraneSpec | None = None
) -> MirrorMapData:
    """Q -> q, the inverse of ``mirror_map``, by Lagrange inversion.

    q_a = Q_a exp(- sum_j iota_j^(a) A_j(q)).  Good's Lagrange formula
    gives every unit exp(-sum_j w_j A_j(q(Q))) coefficient by
    coefficient, from one product chain of the nonzero A_j
    (``LagrangeChain``), with no fixed point, no ``substitute`` and no
    exp.  The chain is built on the first unit read and kept on ``data``
    at ``order``: the fiber series, the closed images and the open unit
    are read off it.
    """
    return MirrorMapData(data, order, "Q_to_q", brane)


def fiber_open_gw(data: ToricCYData, order: int) -> list[TruncatedSeries]:
    """Fiber disc-generating functions 1 + delta_i = exp(-A_i(q(Q))).

    Satisfies Q_a * prod_j (1+delta_j)^{iota_j^(a)} = q_a(Q) exactly,
    which is the defining identity of the inverse map route.  Reads only
    the inverse map's fiber series: one read-off of its Lagrange chain
    per ray with A_i != 0, and no closed image.
    """
    return list(inverse_mirror_map(data, order).fiber)


CurveTerm = namedtuple("CurveTerm", "z_exponents q_exponents coefficient")


class MirrorCurve(namedtuple("MirrorCurve", "n_z terms")):
    """The Laurent polynomial W with one term per ray.

    Term i < n carries the unit Q-monomial and the i-th z-unit vector
    (z_0 is the constant-1 convention); term i >= n carries
    Q_{i-n+1} * prod_j z_j^{<v_j^*, v_i>}.  Coefficients are the unit
    series 1 + delta_i over the closed frame.
    """

    __slots__ = ()


def build_curve(data: ToricCYData, order: int, corrected: bool = True) -> MirrorCurve:
    """The curve W at closed order ``order``, with the fiber series of the
    inverse map when ``corrected``.  Kept per order and ``corrected`` on
    the toric data (:meth:`ToricCYData.kept`) by the commands that read it."""
    require_valid(data)
    n, m = data.n, data.m
    if corrected:
        coefficients = MirrorMapData(data, order, "Q_to_q").fiber
    else:
        coefficients = [TruncatedSeries.one(data.closed_frame, order)] * m
    duals = data.dual_exponents
    terms = []
    for i in range(m):
        if i < n:
            z_exps = tuple(1 if j == i else 0 for j in range(1, n))
            q_exps = (0,) * (m - n)
        else:
            z_exps = tuple(duals[i][1:n])
            q_exps = tuple(1 if b == i - n else 0 for b in range(m - n))
        terms.append(CurveTerm(z_exps, q_exps, coefficients[i]))
    return MirrorCurve(n_z=n - 1, terms=tuple(terms))


class BraneEquation(
    namedtuple("BraneEquation", "z_exponents q_exponents constant phase")
):
    """One naive mirror-brane equation: prod z^e * prod Q^f = e^{c + i*phi}."""

    __slots__ = ()


def naive_brane(data: ToricCYData, brane: BraneSpec) -> tuple[BraneEquation, ...]:
    """Monomial brane equations prod_j z_j^{-l_j} = e^{c+i*phi}.

    Rays beyond the leading basis are eliminated through
    z_i = Q_{i-n+1} prod_j z_j^{<v_j^*, v_i>}, so each charge row
    leaves a pure (z, Q)-monomial on the left-hand side.
    """
    require_valid(data)
    # the Aganagic-Vafa shape is not needed for the monomial equations
    report = validate_brane(data, brane._replace(av_indices=None))
    if not report.ok:
        raise ValidationError(str(report))
    duals = data.dual_exponents
    n, m = data.n, data.m
    equations = []
    for row, c, phi in zip(brane.charges, brane.constants, brane.phases):
        z_exps = []
        for j in range(1, n):
            e = -row[j] - sum(row[i] * duals[i][j] for i in range(n, m))
            z_exps.append(e)
        q_exps = [-row[n - 1 + b] for b in range(1, m - n + 1)]
        equations.append(BraneEquation(tuple(z_exps), tuple(q_exps), c, phi))
    return tuple(equations)


class BraneFrame(namedtuple("BraneFrame", "generators")):
    """Brane exponent monoid: generators packaging (Q0, Q_closed) monomials.

    ``generators[k]`` is the integer exponent vector of generator k
    over (Q0, Q1, ..., Q_{m-n}); entries may be negative (for example
    Q1*Q0^-1), but series over the frame only use non-negative powers
    of the generators.  The boundary grading of ``frame`` is the
    Q0-exponent of each generator, the winding functional, so two
    frames are equal when their generators are.  ``q0`` is the frame
    exponent of the open variable Q0; a frame that cannot hold Q0 is
    rejected with FrameEscape.  Instances keep a ``__dict__`` (no
    ``__slots__``) for the cached data below.
    """

    def __new__(cls, generators):
        generators = tuple(tuple(int(x) for x in g) for g in generators)
        if not generators:
            raise MathDomainError("a brane frame needs at least one generator")
        if any(len(g) != len(generators[0]) for g in generators):
            raise MathDomainError(
                f"brane frame generators {[list(g) for g in generators]} have mixed arity"
            )
        self = super().__new__(cls, generators)
        self.q0  # raises unless the generators are independent and hold Q0
        return self

    @cached_property
    def frame(self) -> Frame:
        names = tuple(f"P{k}" for k in range(1, len(self.generators) + 1))
        return Frame(names=names, boundary=tuple(g[0] for g in self.generators))

    @cached_property
    def _solver(self):
        # Invert the generators' block on the pivot columns once: the
        # reduction of [block | I] ends as [d*I | d*block^-1] for its last
        # pivot d, so packing a monomial is one integer matrix-vector
        # product and one exact division by d.  The solution holds on the
        # pivot columns by construction; the others (``rest``) are checked.
        cols = independent_columns(self.generators)
        if cols is None:
            named = [list(g) for g in self.generators]
            raise MathDomainError(f"brane frame generators {named} are linearly dependent")
        k = len(self.generators)
        block = [[g[c] for g in self.generators] for c in cols]
        reduced, _, _ = row_reduce([row + list(unit_vector(k, r)) for r, row in enumerate(block)])
        rest = [c for c in range(len(self.generators[0])) if c not in cols]
        return cols, [row[k:] for row in reduced], reduced[0][0], rest

    @cached_property
    def q0(self) -> tuple[int, ...]:
        q0_vec = unit_vector(len(self.generators[0]), 0)
        packed = self.pack(q0_vec)
        if packed is None:
            raise FrameEscape(
                "the open variable Q0 is not representable in the brane frame", [q0_vec]
            )
        return packed

    def closed_order_for(self, order: int) -> int:
        """Closed-frame order resolving every brane grade <= order.

        Every generator has grade 1, so a frame exponent of grade g
        unpacks to a closed monomial of degree at most g times the worst
        positive closed degree among the generators.
        """
        return order * max(1, *(sum(x for x in g[1:] if x > 0) for g in self.generators))

    def pack(self, vec) -> tuple[int, ...] | None:
        """Frame exponents of a Kahler monomial, or None if it escapes."""
        cols, inverse, denominator, rest = self._solver
        if len(vec) != len(self.generators[0]):
            return None
        rhs = [vec[c] for c in cols]
        exps = []
        for row in inverse:
            x, remainder = divmod(sum(map(mul, row, rhs)), denominator)
            if remainder or x < 0:
                return None
            exps.append(x)
        for c in rest:
            if sum([e * g[c] for e, g in zip(exps, self.generators)]) != vec[c]:
                return None
        return tuple(exps)


def brane_frame(data: ToricCYData, brane: BraneSpec) -> BraneFrame:
    """The brane's declared frame; explicit input, no heuristics.  Kept
    per brane value on the toric data (:meth:`ToricCYData.kept`), so its
    solver and ``q0`` are built once."""
    return data.kept(("brane_frame", brane), _declared_frame)


def _declared_frame(data, brane):
    if brane.frame_generators is None:
        raise MathDomainError(
            "brane frame generators are required input "
            "(the effective open cone depends on brane placement)"
        )
    width = 1 + data.n_closed
    if any(len(g) != width for g in brane.frame_generators):
        raise MathDomainError(
            f"brane frame generators must have {width} entries (Q0 and closed variables)"
        )
    return BraneFrame(brane.frame_generators)


def map_closed_series(
    series: TruncatedSeries, bframe: BraneFrame, order: int, shift=None
) -> TruncatedSeries:
    """Re-express a closed-frame series inside the brane frame, times the
    frame monomial with exponents ``shift`` when one is given.

    Each closed row moves to the key of its packed exponents plus
    ``shift``; the numerators and the denominator stay as they are, and
    rows above grade ``order`` drop.
    """
    frame = bframe.frame
    width = field_width(order)
    weights = _weights(frame.nvars, width)
    base, limit = 0, order
    if shift is not None:
        base, limit = sum(map(mul, weights, shift)), order - frame.grade(shift)
    rows = {}
    escapes = []
    for exps, n in zip(series.terms.exponents(), series.terms.nums):
        packed = bframe.pack((0,) + exps)
        if packed is None:
            escapes.append((0,) + exps)
        elif frame.grade(packed) <= limit:
            rows[base + sum(map(mul, weights, packed))] = n
    if escapes:
        raise FrameEscape(
            f"closed monomials escape the brane frame: {sorted(escapes)[:4]}", escapes
        )
    terms = _from_rows(frame.nvars, width, series.terms.den, rows)
    return TruncatedSeries._trusted(frame, order, terms)


def open_series(inverse_map, bframe, order) -> TruncatedSeries:
    """The open unit u of ``inverse_map`` as a brane-frame series.

    This is the composition form of the open mirror map: the open
    complex parameter expressed in the Kahler variables is
    z1 = Q0 * u with u = exp(- sum_j l_j^(0) A_j(q(Q))).  ``inverse_map``
    is ``inverse_mirror_map(data, bframe.closed_order_for(order), brane)``.
    """
    return map_closed_series(inverse_map.open_unit, bframe, order)


def curve_in_brane_frame(curve, unit, bframe, order) -> dict[int, TruncatedSeries]:
    """Collect W(z1, z2) at z1 = Q0 * ``unit`` as {z2 exponent: brane-frame series}.

    z1^e is the monomial Q0^e times unit^e, so negative powers stay
    inside the frame monoid as long as the combined scalar monomial of
    each curve term packs.  That monomial is a key shift of the mapped
    coefficient; a unit that is exactly 1 takes no product.
    """
    if curve.n_z != 2:
        raise MathDomainError(
            f"the curve root solve expects a threefold curve (z1, z2), got n_z = {curve.n_z}"
        )
    trivial = unit == TruncatedSeries.one(bframe.frame, order)
    collected: dict[int, TruncatedSeries] = {}
    powers: dict[int, TruncatedSeries] = {}
    escapes = []
    for term in curve.terms:
        e1, e2 = term.z_exponents
        scalar_vec = (e1,) + tuple(term.q_exponents)
        packed = bframe.pack(scalar_vec)
        if packed is None:
            escapes.append(scalar_vec)
            continue
        series = map_closed_series(term.coefficient, bframe, order, shift=packed)
        if e1 and not trivial:
            if e1 not in powers:
                powers[e1] = pow_int(unit, e1)
            series = series * powers[e1]
        collected[e2] = collected[e2] + series if e2 in collected else series
    if escapes:
        raise FrameEscape(
            f"curve monomials escape the brane frame: {sorted(escapes)[:4]}", escapes
        )
    return collected


def solve_curve_root(table, frame: Frame, order: int) -> TruncatedSeries:
    """Solve W(z1, z2) = 0 for z2 on a ``curve_in_brane_frame`` table,
    grade by grade.

    Here W stands for z2^shift * W, with shift lifting the table's
    lowest z2 power to 0, so W is a polynomial in z2 whose coefficients
    have grade >= 0.  The root starts at the grade-0 simple root -1, the
    branch continuously connected to -(1+delta_0) - z1; otherwise
    :class:`BranchError` names the grade-0 value and slope there.  With
    z2 = -1 + sum_n z_n, grade n of W(z2) is slope * z_n plus products
    of lower grades, so each z_n is one exact division on the kernel rows
    (``_backend.graded_root``) and the residual is zero through ``order``
    by construction; ``evaluate_curve`` is the independent audit.
    """
    root0 = Fraction(-1)
    shift = max(0, -min(table))
    poly = {e2 + shift: s for e2, s in table.items()}

    grade0 = {e2: s.constant_term() for e2, s in poly.items()}
    value = sum(c * root0**e2 for e2, c in grade0.items())
    slope = sum(c * e2 * root0 ** (e2 - 1) for e2, c in grade0.items() if e2)
    if value != 0 or slope == 0:
        raise BranchError(
            f"grade-0 part has no simple root at {root0} (value {value}, slope {slope})"
        )
    # a table of another order is cut to ``order`` (or refused if lower),
    # so every coefficient is at the root's layout
    coeffs = [poly[e2].truncate(order).terms if e2 in poly else None for e2 in range(max(poly) + 1)]
    return TruncatedSeries._trusted(frame, order, graded_root(coeffs, root0, slope, order))


def evaluate_curve(table, z2, frame: Frame, order: int) -> TruncatedSeries:
    """sum_e table[e] * z2**e: W evaluated exactly at a candidate root.

    ``solve_curve_root`` makes the residual zero grade by grade; this
    independent evaluation is kept as an audit of it.
    """
    acc = TruncatedSeries.zero(frame, order)
    for e2, coeff in table.items():
        acc = acc + coeff * pow_int(z2, e2)
    return acc


class BraneMirrorSeries(namedtuple("BraneMirrorSeries", "z1 z2 signs neg_log_z2 bframe")):
    """Normalized mirror coordinates of an AV brane.

    ``signs`` is the (eps1, eps2) normalization: eps1 flips the sign of
    the open variable Q0 (twisting each coefficient by eps1^boundary),
    eps2 rescales z2; they are chosen so z2 has constant term +1 and
    -log z2 is supported on nonzero boundary grading, with the basic
    disc class entering positively.  ``neg_log_z2`` is -log z2, which
    the normalization already needs, and ``bframe`` the brane frame
    both series live over.
    """

    __slots__ = ()

    @property
    def discs(self) -> tuple[InvariantTable, IntegralityReport]:
        """The disc table read off -log z2, with N filled by the
        multiple-cover inversion, and its integrality report."""
        table = multiple_cover_inversion(extract_open_gw(self.z2, neg_log=self.neg_log_z2))
        return table, integrality_check(table)

    @property
    def naive(self) -> NaiveComparison:
        """How far the series sit from the naive brane mirror."""
        return _naive_comparison(self)


def _normalize_root(z2_raw, bframe, override=None):
    """Pick the signs (eps1, eps2); return them, z2 and -log z2.

    The twist by eps1 is a ring automorphism that fixes constant terms
    and the support, so eps2 is the same for both candidates, the second
    candidate's -log z2 is the twist of the first one's and one check of
    its zero-boundary rows covers both: one log serves both.  The check
    reads its boundary weights; the twist by eps1 = -1 reads them again
    for one sign per row by their parity (``Terms.signed``), and
    ``invariants.extract_open_gw`` reads them once more
    (``BraneMirrorSeries.discs``), to divide by them.
    """
    frame = bframe.frame
    const = z2_raw.constant_term()
    if const not in (Fraction(1), Fraction(-1)):
        raise BranchError(f"curve root has non-unit constant term {const}")

    eps2 = override[1] if override else int(const)
    if const * eps2 != 1:
        raise BranchError(
            f"normalization override {override} leaves z2 constant term "
            f"{const * eps2}, expected 1"
        )
    log = log_series(z2_raw * eps2)
    weights = log.terms.row_weights(frame.boundary)
    if not all(weights):
        offenders = log.terms.zero_weight(weights)
        if override:
            raise BranchError(f"-log z2 touches zero-boundary monomials {offenders[:4]}")
        raise BranchError(
            "no sign normalization gives constant term 1 with -log z2 supported "
            f"on nonzero boundary grading; offending monomials {offenders[:6]}"
        )
    q0 = bframe.q0
    basic = -log.coefficient(q0) if frame.grade(q0) <= log.order else ZERO
    eps1_options = [override[0]] if override else [1, -1]
    # boundary(q0) = 1, so the twist by eps1 multiplies the Q0 coefficient by eps1
    positive = [e for e in eps1_options if basic * e > 0]
    eps1 = positive[0] if positive else eps1_options[0]
    twist = frame.boundary
    return (eps1, eps2), z2_raw.signed(twist, eps2 * eps1, eps2), log.signed(twist, -eps1, -1)


def av_mirror_brane(
    data: ToricCYData,
    brane: BraneSpec,
    order: int,
    normalization: tuple[int, int] | None = None,
) -> BraneMirrorSeries:
    """Mirror coordinates (z1, z2) of an Aganagic-Vafa brane.

    z1 is Q0 times the open unit of the inverse mirror map; z2 is the
    graded root of the corrected curve at z1, then sign-normalized.  The
    job reads the inverse map's open unit and fiber series only, never
    its closed images, and maps the open unit into the brane frame once.

    The result is kept on the toric data per brane value, order and
    ``normalization`` (:meth:`ToricCYData.kept`), so the brane commands
    on one parsed job document solve it once.  The brane checks run on
    every call; the frame and the toric data are checked when the result
    is built, and an exception is not kept.
    """
    report = brane_report(data, brane)
    if not report.ok:
        raise ValidationError(f"invalid brane: {report}")
    if brane.av_indices is None:
        raise MathDomainError("av_mirror_brane needs Aganagic-Vafa indices")
    normalization = None if normalization is None else tuple(normalization)
    return data.kept(("brane", brane, order, normalization), _brane_series)


def _brane_series(data, brane, order, normalization):
    bframe = brane_frame(data, brane)
    closed_order = bframe.closed_order_for(order)
    inv = inverse_mirror_map(data, closed_order, brane)
    curve = data.kept(("curve", closed_order, True), build_curve)
    unit = open_series(inv, bframe, order)
    table = curve_in_brane_frame(curve, unit, bframe, order)
    z2_raw = solve_curve_root(table, bframe.frame, order)
    signs, z2, neg_log_z2 = _normalize_root(z2_raw, bframe, override=normalization)
    z1 = TruncatedSeries.monomial(bframe.frame, order, bframe.q0) * unit
    return BraneMirrorSeries(
        # z1 twisted by eps1 and times eps1: eps1 ** (boundary(e) + 1)
        z1=z1.signed(bframe.frame.boundary, 1, signs[0]),
        z2=z2,
        signs=signs,
        neg_log_z2=neg_log_z2,
        bframe=bframe,
    )


class NaiveComparison(
    namedtuple(
        "NaiveComparison",
        "z1_correction z1_in_closed_ideal z2_pure_open z2_mixed signs",
    )
):
    """How far the corrected brane mirror sits from the naive one.

    ``z1_correction`` (= z1 - Q0) must vanish modulo the ideal of the
    closed Kahler variables.  z2 - 1 is kept as its two parts: the
    pure-open part ``z2_pure_open`` (the brane's own disc series) and
    the mixed part ``z2_mixed`` supported on the closed ideal.
    """

    __slots__ = ()


def _naive_comparison(mirror: BraneMirrorSeries) -> NaiveComparison:
    bframe = mirror.bframe
    frame = bframe.frame
    z1_corr = mirror.z1 - TruncatedSeries.monomial(frame, mirror.z1.order, bframe.q0)
    z2_corr = mirror.z2 - 1

    def in_closed_ideal(series):
        """Per row: whether some closed exponent of its Kahler monomial is nonzero."""
        weights = [series.terms.row_weights(c) for c in list(zip(*bframe.generators))[1:]]
        return [any(ws) for ws in zip(*weights)] if weights else [False] * len(series.terms)

    mixed = in_closed_ideal(z2_corr)
    return NaiveComparison(
        z1_correction=z1_corr,
        z1_in_closed_ideal=all(in_closed_ideal(z1_corr)),
        z2_pure_open=z2_corr.selected([not f for f in mixed]),
        z2_mixed=z2_corr.selected(mixed),
        signs=mirror.signs,
    )


def compare_naive(
    data: ToricCYData,
    brane: BraneSpec,
    order: int,
    normalization: tuple[int, int] | None = None,
) -> NaiveComparison:
    """The naive comparison of the brane's mirror series."""
    return av_mirror_brane(data, brane, order, normalization=normalization).naive
