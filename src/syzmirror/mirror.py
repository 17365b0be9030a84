"""Quantum-corrected mirror curve, mirror maps, and brane mirror series.

Sign conventions, pinned by the regression tests rather than prose:
the closed mirror map is Q_a = q_a * exp(+ sum_j iota_j^(a) A_j(q)),
its inverse solves q_a = Q_a * exp(- sum_j iota_j^(a) A_j(q)) by Good's
Lagrange inversion, which gives each A_j(q(Q)) coefficient by
coefficient, and the fiber generating functions are
1 + delta_j = exp(-A_j(q(Q))).  Together these satisfy
Q_a * prod_j (1+delta_j)^{iota_j^(a)} = q_a(Q) identically and
reproduce 1 + delta_0 = 1 - 2Q + 5Q^2 - ... for local P^2.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import factorial, lcm
from operator import mul

from ._backend import _decoder, _from_rows, _weights, field_width
from .errors import BranchError, FrameEscape, MathDomainError, ValidationError
from .fps import (
    Frame,
    TruncatedSeries,
    ZERO,
    exp_series,
    _lift,
    log_series,
    newton_ladder,
    pow_int,
)
from .lattice import (
    BraneSpec,
    ToricCYData,
    divisor_pairing,
    independent_columns,
    row_reduce,
    unit_vector,
    validate_brane,
)


def closed_frame(data: ToricCYData) -> Frame:
    """Frame of the closed Kahler variables Q_1..Q_{m-n}."""
    k = data.n_closed
    return Frame(names=tuple(f"Q{a}" for a in range(1, k + 1)))


def require_valid(data: ToricCYData) -> None:
    if not data.validation.ok:
        raise ValidationError(f"invalid toric data: {data.validation}")


def coefficient_E(iota, alpha, i: int) -> Fraction:
    """Factorial coefficient of the hypergeometric-type series A_i.

    E_i(alpha) = (-1)^{-<D_i,a>-1} (-<D_i,a>-1)! / prod_{j != i} <D_j,a>!
    with the reciprocal factorial of a negative integer taken to be 0,
    and 0 as well unless -<D_i,alpha> - 1 >= 0.
    """
    pairings = divisor_pairing(iota, alpha)
    top = -pairings[i] - 1
    if top < 0:
        return Fraction(0)
    denominator = 1
    for j, p in enumerate(pairings):
        if j != i:
            if p < 0:
                return Fraction(0)
            denominator *= factorial(p)
    return Fraction((-1) ** top * factorial(top), denominator)


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
    frame = closed_frame(data)
    iota = data.effective_charge_basis
    k, m = len(iota), data.m
    width = field_width(order)
    steps = _weights(frame.grading, width)
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
        terms = _from_rows(frame.grading, width, den, {key: n * (den // d) for key, n, d in rows})
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
    ``composed`` holds A_j(q(Q)) for every ray j in the Q_to_q
    direction, as Lagrange inversion gives it, and is None for q_to_Q.

    The rest is built on first read, so a caller pays only for what it
    reads: ``closed``, the image of each closed variable; ``open_unit``,
    the unit factor of the open direction (the open variable itself is
    not a generator of the closed frame), None without a brane; and
    ``fiber``, 1 + delta_j = exp(-A_j(q(Q))) for every ray j, None for
    q_to_Q.  A unit with row weights w is prod_j exp(sign(w_j)
    lambda_j)^|w_j|, where lambda_j is A_j for q_to_Q and -A_j(q(Q))
    for Q_to_q.  Each exp(+-lambda_j) is taken at most once, and only
    for a ray with A_j != 0; for Q_to_q, exp(lambda_j) is the fiber
    series itself, so the units and the curve share it.  No unit needs
    a series inverse.
    """

    def __init__(self, direction, a_series, composed, order, charge_rows, open_charge):
        self.direction = direction
        self.a_series = a_series
        self.composed = composed
        self.order = order
        self._charge_rows = charge_rows
        self._open_charge = open_charge
        self._one = TruncatedSeries.one(a_series[0].frame, order)
        self._exps = {}
        self._powers = {}

    def _exp(self, j, sign):
        """exp(sign * lambda_j), taken once; ``one`` where A_j = 0."""
        key = (j, sign)
        if key not in self._exps:
            if self.a_series[j].is_zero():
                self._exps[key] = self._one
            else:
                lam = self.a_series[j] if self.composed is None else -self.composed[j]
                self._exps[key] = exp_series(lam if sign > 0 else -lam)
        return self._exps[key]

    def _unit(self, row):
        """prod_j exp(sign(w_j) lambda_j)^|w_j| over the live rays j, w = ``row``;
        each distinct (j, w_j) power is taken once."""
        unit = None
        for j, w in enumerate(row):
            if not w or self.a_series[j].is_zero():
                continue
            power = self._powers.get((j, w))
            if power is None:
                power = self._powers[(j, w)] = pow_int(self._exp(j, 1 if w > 0 else -1), abs(w))
            unit = power if unit is None else unit * power
        return self._one if unit is None else unit

    @cached_property
    def closed(self) -> tuple[TruncatedSeries, ...]:
        """The image of each closed variable: its generator times the unit
        of its charge row."""
        frame, order = self._one.frame, self.order
        return tuple(
            TruncatedSeries.generator(frame, order, a) * self._unit(row)
            for a, row in enumerate(self._charge_rows)
        )

    @cached_property
    def open_unit(self) -> TruncatedSeries | None:
        """The unit of the open charge l^(0), or None without a brane."""
        return None if self._open_charge is None else self._unit(self._open_charge)

    @cached_property
    def fiber(self) -> tuple[TruncatedSeries, ...] | None:
        """1 + delta_j = exp(-A_j(q(Q))) for every ray j (Q_to_q only)."""
        if self.composed is None:
            return None
        return tuple(self._exp(j, 1) for j in range(len(self.composed)))


def _map_inputs(data, order, brane):
    """Validate, then the closed frame, every A_j and the open charge
    l^(0) (None without a brane)."""
    require_valid(data)
    frame = closed_frame(data)
    a_list = a_series(data, order)
    l0 = None if brane is None else open_charge(brane, data.m)
    return frame, a_list, l0


def mirror_map(data: ToricCYData, order: int, brane: BraneSpec | None = None) -> MirrorMapData:
    """Q_a = q_a exp(sum_j iota_j^(a) A_j(q)), open direction likewise.

    Builds every A_j now; the closed images and the open unit, monomials
    in exp(+-A_j), are built when first read.
    """
    _, a_list, l0 = _map_inputs(data, order, brane)
    return MirrorMapData("q_to_Q", a_list, None, order, data.effective_charge_basis, l0)


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


def _compositions(a_list, rows, one) -> list[TruncatedSeries]:
    """A_j(q(Q)) for every ray j, by Good's Lagrange inversion.

    The inverse map solves q_a = Q_a g_a(q) with
    g_a = exp(-sum_j iota_j^(a) A_j(q)).  Good's formula (I. J. Good,
    Proc. Cambridge Philos. Soc. 56, 1960; I. M. Gessel, J. Combin.
    Theory A 45, 1987) reads

        [Q^n] F(q(Q)) = [q^n] F(q) g(q)^n det(delta_ab - q_b d_b log g_a),

    with g^n = exp(-sum_l p_l(n) A_l) and p_l(n) = sum_a iota_l^(a) n_a
    over the live rays l in J, those with nonzero A_l.  The determinant
    is det(I_k + U V) with U_al = iota_l^(a) and V_lb = q_b d_b A_l, so
    by the matrix determinant lemma it is Delta = det(I_J + V U), whose
    entry (j, l) is delta_jl plus A_j weighted by column l of iota.
    Expanding the exp, with R_beta = Delta A^beta / beta! (built as
    R_beta = R_{beta-e_l} A_l / beta_l), gives

        [Q^n] A_j(q(Q)) = sum_{beta_j >= 1} beta_j
                          prod_l (-p_l(n))^((beta - e_j)_l) R_beta[n],

    an integer weight on each row of R_beta.  Every A_l has valuation
    >= 1, so R_beta vanishes below grade |beta| and |beta| <= order
    suffices.  The weighted rows of every R_beta add into one integer
    dict per live ray, over the lcm of the chain's denominators, and the
    pairings p_l(n) of each packed key are decoded once.
    """
    frame, order = one.frame, one.order
    live = [j for j, a in enumerate(a_list) if not a.is_zero()]
    columns = [[row[l] for row in rows] for l in live]
    matrix = [
        [a_list[j].weighted(column) + (i == c) for c, column in enumerate(columns)]
        for i, j in enumerate(live)
    ]
    chain = {(0,) * len(live): _determinant(matrix, one)}
    # lexicographic order reaches beta - e_l, for l the last nonzero
    # index of beta, before beta
    for beta in product(range(order + 1), repeat=len(live)):
        if not 0 < sum(beta) <= order:
            continue
        l = max(i for i, b in enumerate(beta) if b)
        previous = chain[beta[:l] + (beta[l] - 1,) + beta[l + 1 :]]
        chain[beta] = previous * a_list[live[l]] * Fraction(1, beta[l])
    del chain[(0,) * len(live)]  # R_0 = Delta feeds no sum: each needs beta_j >= 1

    width = one.terms.width
    decode = _decoder(width, frame.nvars)
    den = lcm(*[r.terms.den for r in chain.values()])
    minus_p = {}  # packed key n -> [-p_l(n) for every live l]
    sums = [{} for _ in live]
    for beta, r in chain.items():
        # (sum of ray i, beta_i, exponents of beta - e_i) for each beta_i >= 1
        targets = [
            (sums[i], b, [c - (l == i) for l, c in enumerate(beta)])
            for i, b in enumerate(beta)
            if b
        ]
        scale = den // r.terms.den
        for k, n in zip(r.terms.monos, r.terms.nums):
            p = minus_p.get(k)
            if p is None:
                e = decode(k)
                p = minus_p[k] = [-sum(map(mul, column, e)) for column in columns]
            n *= scale
            for acc, b, exponents in targets:
                w = b
                for x, y in zip(p, exponents):
                    if y:
                        w *= x**y
                if w:
                    acc[k] = acc.get(k, 0) + n * w
    composed = list(a_list)
    for j, acc in zip(live, sums):
        terms = _from_rows(frame.grading, width, den, acc)
        composed[j] = TruncatedSeries._trusted(frame, order, terms)
    return composed


def inverse_mirror_map(
    data: ToricCYData, order: int, brane: BraneSpec | None = None
) -> MirrorMapData:
    """Q -> q, the inverse of ``mirror_map``, by Lagrange inversion.

    q_a = Q_a exp(- sum_j iota_j^(a) A_j(q)).  Good's Lagrange formula
    gives every composition A_j(q(Q)) coefficient by coefficient, from
    one product chain of the nonzero A_j (``_compositions``), with no
    fixed point and no ``substitute``.  That is all it builds: the fiber
    series, the closed images and the open unit, monomials in
    exp(-+A_j(q(Q))), are built when first read.
    """
    frame, a_list, l0 = _map_inputs(data, order, brane)
    composed = _compositions(a_list, data.effective_charge_basis, TruncatedSeries.one(frame, order))
    return MirrorMapData("Q_to_q", a_list, tuple(composed), order, data.effective_charge_basis, l0)


def fiber_open_gw(data: ToricCYData, order: int) -> list[TruncatedSeries]:
    """Fiber disc-generating functions 1 + delta_i = exp(-A_i(q(Q))).

    Satisfies Q_a * prod_j (1+delta_j)^{iota_j^(a)} = q_a(Q) exactly,
    which is the defining identity of the inverse map route.  Reads only
    the inverse map's fiber series: one exp per ray with A_i != 0, and
    no closed image.
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


def build_curve(
    data: ToricCYData,
    order: int,
    corrected: bool = True,
    inverse_map: MirrorMapData | None = None,
) -> MirrorCurve:
    """The curve W at closed order ``order``, with the fiber series of
    ``inverse_map`` (default ``inverse_mirror_map(data, order)``)."""
    require_valid(data)
    frame = closed_frame(data)
    n, m = data.n, data.m
    if corrected:
        inv = inverse_mirror_map(data, order) if inverse_map is None else inverse_map
        coefficients = inv.fiber
    else:
        coefficients = [TruncatedSeries.one(frame, order) for _ in range(m)]
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


def naive_brane(data: ToricCYData, brane: BraneSpec) -> list[BraneEquation]:
    """Monomial brane equations prod_j z_j^{-l_j} = e^{c+i*phi}.

    Rays beyond the leading basis are eliminated through
    z_i = Q_{i-n+1} prod_j z_j^{<v_j^*, v_i>}, so each charge row
    leaves a pure (z, Q)-monomial on the left-hand side.
    """
    require_valid(data)
    report = validate_brane(data, brane)
    special = [f for f in report.failures if "special" in f or "length" in f]
    if special:
        raise ValidationError("; ".join(special))
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
    return equations


class BraneFrame:
    """Brane exponent monoid: generators packaging (Q0, Q_closed) monomials.

    ``generators[k]`` is the integer exponent vector of generator k
    over (Q0, Q1, ..., Q_{m-n}); entries may be negative (for example
    Q1*Q0^-1), but series over the frame only use non-negative powers
    of the generators.  The boundary grading defaults to the
    Q0-exponent of each generator, which is the winding functional.
    ``q0`` is the frame exponent of the open variable Q0; a frame that
    cannot hold Q0 is rejected with FrameEscape.
    """

    def __init__(self, generators, boundary=None):
        self.generators = tuple(tuple(int(x) for x in g) for g in generators)
        if not self.generators:
            raise MathDomainError("a brane frame needs at least one generator")
        width = len(self.generators[0])
        if any(len(g) != width for g in self.generators):
            raise MathDomainError("brane frame generators have mixed arity")
        if boundary is None:
            boundary = tuple(g[0] for g in self.generators)
        names = tuple(f"P{k}" for k in range(1, len(self.generators) + 1))
        self.frame = Frame(names=names, boundary=tuple(boundary))
        cols = independent_columns(self.generators)
        if cols is None:
            raise MathDomainError("brane frame generators are linearly dependent")
        # Invert the generators' block on the pivot columns once: the
        # reduction of [block | I] ends as [d*I | d*block^-1] for its last
        # pivot d, so packing a monomial is one integer matrix-vector
        # product and one exact division by d.
        k = len(self.generators)
        block = [[g[c] for g in self.generators] for c in cols]
        reduced, _, _ = row_reduce([row + list(unit_vector(k, r)) for r, row in enumerate(block)])
        self._solver = cols, [row[k:] for row in reduced], reduced[0][0]
        q0_vec = unit_vector(width, 0)
        self.q0 = self.pack(q0_vec)
        if self.q0 is None:
            raise FrameEscape(
                "the open variable Q0 is not representable in the brane frame", [q0_vec]
            )

    def closed_order_for(self, order: int) -> int:
        """Closed-frame order resolving every brane grade <= order.

        Every generator has grade 1, so a frame exponent of grade g
        unpacks to a closed monomial of degree at most g times the worst
        positive closed degree among the generators.
        """
        return order * max(1, *(sum(x for x in g[1:] if x > 0) for g in self.generators))

    def pack(self, vec) -> tuple[int, ...] | None:
        """Frame exponents of a Kahler monomial, or None if it escapes."""
        cols, inverse, denominator = self._solver
        vec = tuple(int(x) for x in vec)
        rhs = [vec[c] for c in cols]
        exps = []
        for row in inverse:
            x, remainder = divmod(sum(a * b for a, b in zip(row, rhs)), denominator)
            if remainder or x < 0:
                return None
            exps.append(x)
        if self.unpack(exps) != vec:
            return None
        return tuple(exps)

    def unpack(self, exps) -> tuple[int, ...]:
        width = len(self.generators[0])
        return tuple(
            sum(e * g[c] for e, g in zip(exps, self.generators)) for c in range(width)
        )

    def closed_part(self, exps) -> tuple[int, ...]:
        return self.unpack(exps)[1:]


def brane_frame(data: ToricCYData, brane: BraneSpec) -> BraneFrame:
    """The brane's declared frame; explicit input, no heuristics."""
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
    count = len(brane.frame_generators)
    if brane.boundary_grading is not None and len(brane.boundary_grading) != count:
        raise MathDomainError(
            f"brane boundary grading must have {count} entries, one per frame generator"
        )
    return BraneFrame(brane.frame_generators, boundary=brane.boundary_grading)


def map_closed_series(series: TruncatedSeries, bframe: BraneFrame, order: int) -> TruncatedSeries:
    """Re-express a closed-frame series inside the brane frame."""
    terms = {}
    escapes = []
    for exps, coeff in series.terms.items():
        packed = bframe.pack((0,) + tuple(exps))
        if packed is None:
            escapes.append((0,) + tuple(exps))
            continue
        if bframe.frame.grade(packed) <= order:
            terms[packed] = terms.get(packed, Fraction(0)) + coeff
    if escapes:
        raise FrameEscape(
            f"closed monomials escape the brane frame: {sorted(escapes)[:4]}", escapes
        )
    return TruncatedSeries(bframe.frame, order, terms)


def open_series(data, brane, bframe, order, inverse_map=None) -> TruncatedSeries:
    """z_1 as a brane-frame series: Q0 times the open inverse-map unit.

    This is the composition form of the open mirror map: the open
    complex parameter expressed in the Kahler variables,
    q_0 = Q_0 * exp(- sum_j l_j^(0) A_j(q(Q))).  A caller that already
    holds ``inverse_mirror_map(data, bframe.closed_order_for(order),
    brane)`` passes it as ``inverse_map``.
    """
    inv = inverse_map
    if inv is None:
        inv = inverse_mirror_map(data, bframe.closed_order_for(order), brane)
    unit = map_closed_series(inv.open_unit, bframe, order)
    return TruncatedSeries.monomial(bframe.frame, order, bframe.q0) * unit


def curve_in_brane_frame(curve, z1, bframe, order) -> dict[int, TruncatedSeries]:
    """Collect W(z1, z2) as {z2 exponent: brane-frame series}.

    z1^e factors through its leading Q0 monomial times a unit, so
    negative powers stay inside the frame monoid as long as the
    combined scalar monomial of each curve term packs.
    """
    if curve.n_z != 2:
        raise MathDomainError("the curve root solve expects a threefold curve (z1, z2)")
    frame = bframe.frame
    unit = TruncatedSeries(
        frame,
        order,
        {
            tuple(e - q for e, q in zip(exps, bframe.q0)): c
            for exps, c in z1.terms.items()
        },
    )
    if unit.constant_term() == 0:
        raise MathDomainError("z1 must be Q0 times a unit series")

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
        if e1 not in powers:
            powers[e1] = pow_int(unit, e1)
        series = (
            map_closed_series(term.coefficient, bframe, order)
            * TruncatedSeries.monomial(frame, order, packed)
            * powers[e1]
        )
        if e2 in collected:
            collected[e2] = collected[e2] + series
        else:
            collected[e2] = series
    if escapes:
        raise FrameEscape(
            f"curve monomials escape the brane frame: {sorted(escapes)[:4]}", escapes
        )
    return collected


def _horner(table, point, order) -> TruncatedSeries:
    """sum_e table[e] * point**e at truncation ``order``, by Horner's rule."""
    degree = max(table)
    acc = table[degree].truncate(order)
    for e in range(degree - 1, -1, -1):
        acc = acc * point
        if e in table:
            acc = acc + table[e].truncate(order)
    return acc


def solve_curve_root(
    table, frame: Frame, order: int
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Newton-solve W(z1, z2) = 0 for z2 on a ``curve_in_brane_frame`` table.

    The start value is the grade-0 simple root (-1, the branch
    continuously connected to -(1+delta_0) - z1).  Newton runs along
    the precisions of :func:`~syzmirror.fps.newton_ladder` (1, 2, 5,
    10, 20 for order 20): a root exact through grade p becomes exact
    through the next precision, at most 2p + 1, after
    z2 <- z2 - W(z2) * h, where h is 1/W'(z2) through grade p, itself
    kept up by one Newton inversion step per iteration.  The residual
    z2^shift * W(z2), with shift lifting the table's lowest z2 power to
    0, is then evaluated in full and must be exactly zero at the
    truncation order; the root and that residual are returned.
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

    derivative = {e2 - 1: s * e2 for e2, s in poly.items() if e2}
    z2 = TruncatedSeries.constant(frame, 0, root0)
    h = TruncatedSeries.constant(frame, 0, 1 / slope)
    for precision in newton_ladder(order):
        if z2.order:
            h = _lift(h, z2.order)
            h = h + h * (1 - _horner(derivative, z2, z2.order) * h)
        z2 = _lift(z2, precision)
        z2 = z2 - _horner(poly, z2, precision) * _lift(h, precision)
    residual = _horner(poly, z2, order)
    if not residual.is_zero():
        raise BranchError("Newton iteration failed to settle every grade")
    return z2, residual


def evaluate_curve(table, z2, frame: Frame, order: int) -> TruncatedSeries:
    """sum_e table[e] * z2**e: W evaluated exactly at a candidate root.

    The library's own check is the residual ``solve_curve_root`` returns;
    this independent evaluation is kept as an audit of it.
    """
    acc = TruncatedSeries.zero(frame, order)
    for e2, coeff in table.items():
        acc = acc + coeff * pow_int(z2, e2)
    return acc


class BraneMirrorSeries(
    namedtuple("BraneMirrorSeries", "z1 z2 signs residual neg_log_z2 bframe")
):
    """Normalized mirror coordinates of an AV brane plus the Newton residual.

    ``signs`` is the (eps1, eps2) normalization: eps1 flips the sign of
    the open variable Q0 (twisting each coefficient by eps1^boundary),
    eps2 rescales z2; they are chosen so z2 has constant term +1 and
    -log z2 is supported on nonzero boundary grading, with the basic
    disc class entering positively.  ``residual`` is the value the Newton
    solver checked on the raw solution pair: z2^shift * W, with shift
    lifting the lowest z2 power of W to 0, which is identically zero.
    ``neg_log_z2`` is
    -log z2, which the normalization already needs, and ``bframe`` the
    brane frame both series live over.
    """

    __slots__ = ()


def _twist(series: TruncatedSeries, eps1: int) -> TruncatedSeries:
    if eps1 == 1:
        return series
    # eps1 ** boundary(e) needs only the parity of boundary(e), that of
    # the sum of the exponents whose boundary entry is odd.
    odd = [b % 2 for b in series.frame.boundary]
    return series.weighted(odd, outer=lambda w: eps1 if w & 1 else 1)


def _normalize_root(z2_raw, bframe, override=None):
    """Pick the signs (eps1, eps2); return them, z2 and -log z2.

    The twist by eps1 is a ring automorphism that fixes constant terms
    and the support, so eps2 is the same for both candidates, the second
    candidate's -log z2 is the twist of the first one's and one check of
    its zero-boundary rows covers both: one log serves both.
    """
    frame = bframe.frame
    const = z2_raw.constant_term()
    if const not in (Fraction(1), Fraction(-1)):
        raise BranchError(f"curve root has non-unit constant term {const}")

    eps2 = override[1] if override else int(const)
    base = z2_raw * eps2
    if base.constant_term() != 1:
        raise BranchError(
            f"normalization override {override} leaves z2 constant term "
            f"{base.constant_term()}, expected 1"
        )
    base_log = -log_series(base)
    offenders = base_log.terms.zero_weight(frame.boundary)
    if offenders:
        if override:
            raise BranchError(f"-log z2 touches zero-boundary monomials {offenders[:4]}")
        raise BranchError(
            "no sign normalization gives constant term 1 with -log z2 supported "
            f"on nonzero boundary grading; offending monomials {offenders[:6]}"
        )
    q0 = bframe.q0
    basic = base_log.terms.coefficient(q0) if frame.grade(q0) <= base_log.order else ZERO
    eps1_options = [override[0]] if override else [1, -1]
    # the twist by eps1 multiplies the Q0 coefficient by eps1 ** boundary(q0)
    positive = [e for e in eps1_options if basic * e ** (frame.boundary_grade(q0) % 2) > 0]
    eps1 = positive[0] if positive else eps1_options[0]
    return (eps1, eps2), _twist(base, eps1), _twist(base_log, eps1)


def av_mirror_brane(
    data: ToricCYData,
    brane: BraneSpec,
    order: int,
    normalization: tuple[int, int] | None = None,
) -> BraneMirrorSeries:
    """Mirror coordinates (z1, z2) of an Aganagic-Vafa brane.

    z1 is Q0 times the open unit of the inverse mirror map; z2 is the
    Newton root of the corrected curve at z1, then sign-normalized.  The
    job reads the inverse map's open unit and fiber series only, never
    its closed images.  The stored
    residual is the one the Newton solver proved identically zero on the
    raw solution pair.
    """
    report = validate_brane(data, brane)
    if not report.ok:
        raise ValidationError(f"invalid brane: {report}")
    if brane.av_indices is None:
        raise MathDomainError("av_mirror_brane needs Aganagic-Vafa indices")
    bframe = brane_frame(data, brane)
    closed_order = bframe.closed_order_for(order)
    inv = inverse_mirror_map(data, closed_order, brane)
    curve = build_curve(data, closed_order, corrected=True, inverse_map=inv)
    z1 = open_series(data, brane, bframe, order, inverse_map=inv)
    table = curve_in_brane_frame(curve, z1, bframe, order)
    z2_raw, residual = solve_curve_root(table, bframe.frame, order)
    signs, z2, neg_log_z2 = _normalize_root(z2_raw, bframe, override=normalization)
    eps1 = signs[0]
    z1_normalized = _twist(z1, eps1) * eps1
    return BraneMirrorSeries(
        z1=z1_normalized,
        z2=z2,
        signs=signs,
        residual=residual,
        neg_log_z2=neg_log_z2,
        bframe=bframe,
    )


class NaiveComparison(
    namedtuple(
        "NaiveComparison",
        "z1_correction z2_correction z1_in_closed_ideal z2_pure_open z2_mixed signs",
    )
):
    """How far the corrected brane mirror sits from the naive one.

    ``z1_correction`` (= z1 - Q0) must vanish modulo the ideal of the
    closed Kahler variables.  ``z2_correction`` (= z2 - 1) splits into
    the pure-open part (the brane's own disc series, reported
    separately) and the mixed part supported on the closed ideal.
    """

    __slots__ = ()


def compare_naive(
    data: ToricCYData,
    brane: BraneSpec,
    order: int,
    normalization: tuple[int, int] | None = None,
) -> NaiveComparison:
    mirror = av_mirror_brane(data, brane, order, normalization=normalization)
    bframe = mirror.bframe
    frame = bframe.frame
    z1_corr = mirror.z1 - TruncatedSeries.monomial(frame, order, bframe.q0)
    z2_corr = mirror.z2 - 1

    def pure_open(exps):
        return all(x == 0 for x in bframe.closed_part(exps))

    z1_ok = all(not pure_open(e) for e in z1_corr.terms)
    z2_open = z2_corr.filter_terms(pure_open)
    z2_mixed = z2_corr.filter_terms(lambda e: not pure_open(e))
    return NaiveComparison(
        z1_correction=z1_corr,
        z2_correction=z2_corr,
        z1_in_closed_ideal=z1_ok,
        z2_pure_open=z2_open,
        z2_mixed=z2_mixed,
        signs=mirror.signs,
    )
