"""Integer-lattice and polytope combinatorics for toric Calabi-Yau input.

Validates the Calabi-Yau toric data (rays pairing to 1 against the
covector u, unimodular leading rays), computes the charge matrix as a
Z-basis of the ray relations, the dual-basis exponent table feeding the
mirror curve, brane charge conditions, and the codimension-2 face data
describing the fibration discriminant.
"""

from __future__ import annotations

import itertools
import threading
from collections import namedtuple
from functools import cached_property
from fractions import Fraction

from .errors import MathDomainError
from .fps import Frame, as_rational


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def row_reduce(matrix):
    """Fraction-free Gauss-Jordan elimination over the integers.

    Returns ``(rows, pivots, det)``.  Each update is
    ``(lead * x - factor * y) // previous`` with every division exact
    (Bareiss, Math. Comp. 22, 1968), so the rows stay integers and every
    pivot entry ends equal to the last pivot: ``rows`` divided by it is
    the reduced row echelon form.  ``pivots`` holds the pivot column of
    each nonzero row; each pivot sits in the first column that the
    columns before it do not span, so ``pivots`` is the
    lexicographically first set of independent columns.  ``det`` is the
    signed last pivot when the rows are independent, else 0: the
    determinant of a square matrix.
    """
    rows = [[int(x) for x in row] for row in matrix]
    pivots = []
    sign, previous = 1, 1
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(rows):
            break
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            sign = -sign
        top = rows[rank]
        lead = top[col]
        for r, row in enumerate(rows):
            if r != rank:
                factor = row[col]
                rows[r] = [(lead * x - factor * y) // previous for x, y in zip(row, top)]
        previous = lead
        pivots.append(col)
    return rows, pivots, sign * previous if len(pivots) == len(rows) else 0


def independent_columns(rows) -> tuple[int, ...] | None:
    """First len(rows) linearly independent columns, or None if rank-deficient."""
    _, pivots, _ = row_reduce(rows)
    return tuple(pivots) if len(pivots) == len(rows) else None


# The entries one toric data keeps at once (:meth:`ToricCYData.kept`).
# One seed-1 pass over the benchmark's mix keeps 36 to 122 entries per
# document, at most 20 per closed order (8 of them run outputs), so 128
# hold the six closed orders the mix reads on any document; its second
# pass makes 183 store reads, one per run.
KEPT = 128
_KEPT_LOCK = threading.Lock()


class ValidationReport(namedtuple("ValidationReport", "failures")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self):
        if self.ok:
            return "ok"
        return "; ".join(self.failures)


class ToricCYData(
    namedtuple("ToricCYData", "rays u offsets max_cones charge_rows")
):
    """Fan/polytope input: rays, CY covector, offsets, optional extras.

    The first n rays are required to form a unimodular basis of Z^n;
    ray i >= n corresponds to the closed Kahler variable Q_{i-n+1}.
    Offsets default to zero; ``max_cones`` and ``charge_rows`` to None.
    Instances keep a ``__dict__`` (no ``__slots__``) for the cached
    lattice data below and for every intermediate built from them
    (:meth:`kept`).
    """

    def __new__(cls, rays, u, offsets=(), max_cones=None, charge_rows=None):
        rays = tuple(tuple(int(x) for x in ray) for ray in rays)
        u = tuple(int(x) for x in u)
        offsets = tuple(as_rational(x) for x in offsets) or (Fraction(0),) * len(rays)
        if max_cones is not None:
            max_cones = tuple(tuple(sorted(int(i) for i in c)) for c in max_cones)
        if charge_rows is not None:
            charge_rows = tuple(tuple(int(x) for x in r) for r in charge_rows)
        return super().__new__(cls, rays, u, offsets, max_cones, charge_rows)

    @property
    def n(self) -> int:
        return len(self.u)

    @property
    def m(self) -> int:
        return len(self.rays)

    @property
    def n_closed(self) -> int:
        return self.m - self.n

    # Derived lattice data, computed once per object and stored as
    # tuples so callers can share it.  Each body calls the module
    # function by name, so a wrapper bound in its place sees the call.

    @cached_property
    def validation(self) -> ValidationReport:
        return validate_cy(self)

    @cached_property
    def closed_frame(self) -> Frame:
        return closed_frame(self)

    @cached_property
    def dual_exponents(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, dual_exponents(self)))

    @cached_property
    def charge_basis(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, charge_basis(self)))

    @cached_property
    def effective_charge_basis(self) -> tuple[tuple[int, ...], ...]:
        return effective_charge_basis(self)

    def kept(self, key: tuple, build):
        """``build(self, *key[1:])``, computed once for the value key
        ``key`` on this toric data and kept here.

        ``key[0]`` names the kind of value (``"a_series"``, ``"unit"``,
        ``"brane"``, ``"output"``, ...) and the rest are the arguments it is built
        from, compared by value, so equal branes share their entries.
        The runs on one parsed job document share its ``ToricCYData``,
        and what it keeps goes when the parsed job does.  Past ``KEPT``
        entries the one kept first is dropped.  An exception is not
        kept.  A hit takes no lock; two threads that miss one key both
        build it, and the first value kept is the one returned.
        """
        try:
            return self.__dict__["_kept"][key]
        except KeyError:
            pass
        value = build(self, *key[1:])
        with _KEPT_LOCK:
            store = self.__dict__.setdefault("_kept", {})
            value = store.setdefault(key, value)
            if len(store) > KEPT:
                del store[next(iter(store))]
        return value


class BraneSpec(
    namedtuple(
        "BraneSpec",
        "charges constants phases av_indices m0 frame_generators",
    )
):
    """Charge-defined Lagrangian data, Aganagic-Vafa or general.

    ``charges`` rows l^(a) must each sum to zero (special condition).
    For the Aganagic-Vafa shape with indices (i0, i1, i2) the rows are
    e_{i1}-e_{i0} and e_{i2}-e_{i0}; the brane sits on the edge
    F_{i0,i1}, so the single nonzero constant belongs to the second
    charge and e^{-c-i*phi} of that row is the open parameter Q0.
    Phases are exact rational multiples of pi.  The optional fields
    default to None.

    A record hashes by its integer fields alone, so a store key that
    holds one hashes no ``Fraction``; equal records still hash equal.
    It compares equal to a plain tuple of its fields but does not hash
    like one; no caller mixes the two.
    """

    __slots__ = ()

    def __hash__(self):
        return hash((self.charges, self.av_indices, self.frame_generators))

    def __new__(
        cls,
        charges,
        constants,
        phases,
        av_indices=None,
        m0=None,
        frame_generators=None,
    ):
        charges = tuple(tuple(int(x) for x in row) for row in charges)
        constants = tuple(as_rational(c) for c in constants)
        phases = tuple(as_rational(p) for p in phases)
        if av_indices is not None:
            av_indices = tuple(int(i) for i in av_indices)
        if m0 is not None:
            m0 = tuple(as_rational(x) for x in m0)
        if frame_generators is not None:
            frame_generators = tuple(tuple(int(x) for x in g) for g in frame_generators)
        return super().__new__(cls, charges, constants, phases, av_indices, m0, frame_generators)

    @property
    def k(self) -> int:
        return len(self.charges)


def closed_frame(data: ToricCYData) -> Frame:
    """Frame of the closed Kahler variables Q_1..Q_{m-n}."""
    return Frame(names=tuple(f"Q{a}" for a in range(1, data.n_closed + 1)))


def unit_vector(m: int, i: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(m))


def validate_cy(data: ToricCYData) -> ValidationReport:
    """Check every ToricCYData invariant; failures are collected, not raised."""
    failures = []
    n, m = data.n, data.m
    if n == 0:
        return ValidationReport(("u is empty: the toric data needs dimension >= 1",))
    if m < n:
        failures.append(f"need at least {n} rays, got {m}")
        return ValidationReport(tuple(failures))
    for i, ray in enumerate(data.rays):
        if len(ray) != n:
            failures.append(f"ray {i} has length {len(ray)}, expected {n}")
    if len(data.offsets) != m:
        failures.append(f"expected {m} offsets, got {len(data.offsets)}")
    if any(len(ray) != n for ray in data.rays):
        return ValidationReport(tuple(failures))
    for i, ray in enumerate(data.rays):
        pairing = _dot(data.u, ray)
        if pairing != 1:
            failures.append(f"CY condition: <u, v_{i}> = {pairing}, expected 1")
    _, _, det = row_reduce(data.rays[:n])
    if det not in (1, -1):
        failures.append(f"unimodularity: leading rays have determinant {det}")
    if data.charge_rows is not None:
        failures.extend(_check_charge_rows(data, compare_basis=det in (1, -1)))
    if data.max_cones is not None:
        for cone in data.max_cones:
            if len(cone) != n or any(i < 0 or i >= m for i in cone):
                failures.append(f"maximal cone {cone} is not an index set of size {n}")
    return ValidationReport(tuple(failures))


def _check_charge_rows(data: ToricCYData, compare_basis: bool) -> list[str]:
    failures = []
    rows = data.charge_rows
    if len(rows) != data.n_closed:
        failures.append(
            f"charge basis has {len(rows)} rows, expected {data.n_closed}"
        )
        return failures
    for a, row in enumerate(rows):
        if len(row) != data.m:
            failures.append(f"charge row {a} has length {len(row)}")
            continue
        combo = [sum(row[i] * data.rays[i][j] for i in range(data.m)) for j in range(data.n)]
        if any(x != 0 for x in combo):
            failures.append(f"charge row {a} does not annihilate the rays")
        if sum(row) != 0:
            failures.append(f"charge row {a} does not sum to zero")
    if compare_basis and not failures and rows:
        # Z-basis check (needs unimodular leading rays, ``compare_basis``):
        # a relation r is sum_{i>=n} r[i] * c_i over the canonical relations
        # c_i, so the rows are a Z-basis iff their trailing block is unimodular.
        _, _, det = row_reduce([row[data.n :] for row in rows])
        if det not in (1, -1):
            failures.append("charge rows are not a Z-basis of the ray relations")
    return failures


def dual_exponents(data: ToricCYData) -> list[list[int]]:
    """Expansion of every ray over the leading unimodular basis.

    Row i solves v_i = sum_j c_j v_j over rays v_0..v_{n-1}; the CY
    condition forces each row to sum to 1.  Rows are integer because
    the leading block is unimodular.  Columns 1..n-1 are the z-variable
    exponents of the mirror curve monomials.
    """
    n = data.n
    # One reduction of [leading rays | all rays], rays as columns.
    reduced, pivots, _ = row_reduce(
        [[ray[coord] for ray in data.rays[:n] + data.rays] for coord in range(n)]
    )
    if pivots != list(range(n)):
        raise MathDomainError(f"leading rays {[list(r) for r in data.rays[:n]]} are not a basis")
    # Every pivot entry is the last pivot, +-1 on a unimodular block.
    lead = reduced[0][0] if reduced else 1
    table = []
    for i in range(data.m):
        sol = [divmod(row[n + i], lead) for row in reduced]
        if any(remainder for _, remainder in sol):
            raise MathDomainError(
                f"ray {i} is not an integer combination of the leading rays"
            )
        table.append([x for x, _ in sol])
    return table


def _interior_rays(data: ToricCYData) -> list[int]:
    """The rays on no facet of the cone over the rays, in index order.

    Rays live on the affine hyperplane <u, .> = 1, so the facets of
    their cone are the edges of the polygon.  Every facet is spanned by
    n - 1 independent rays: their normal is the null vector read off
    the reduced rows, and the hyperplane is a facet when every ray lies
    weakly on one side of it.  Rays on a facet, vertices and edge points
    alike, are boundary rays; the others are interior.
    """
    n = data.n
    boundary = set()
    for combo in itertools.combinations(data.rays, n - 1):
        rows, pivots, _ = row_reduce(combo)
        if len(pivots) != n - 1:
            continue
        free = next(c for c in range(n) if c not in pivots)
        normal = [0] * n
        normal[free] = rows[0][pivots[0]] if rows else 1
        for row, p in zip(rows, pivots):
            normal[p] = -row[free]
        sides = [_dot(normal, ray) for ray in data.rays]
        if min(sides) >= 0 or max(sides) <= 0:
            boundary.update(i for i, side in enumerate(sides) if side == 0)
    return [i for i in range(data.m) if i not in boundary]


def charge_basis(data: ToricCYData) -> list[list[int]]:
    """Z-basis of the relations among the rays (kernel of e_i -> v_i).

    Built from the dual expansion: for each i >= n the vector
    e_i - sum_j <v_j^*, v_i> e_j is a relation, and the identity block
    on the trailing columns makes the rows a reduced Z-basis.  Rows are
    sign-normalized: leading entry positive, then flipped so the entry
    in the compact-divisor column (when identifiable) is negative --
    the orientation under which effective curve classes have
    non-negative exponents.  With two or more interior rays (several
    compact divisors) no such flip makes the rows effective, so this
    raises MathDomainError naming those rays; such a geometry needs a
    supplied charge basis.
    """
    duals = data.dual_exponents
    n, m = data.n, data.m
    rows = []
    for i in range(n, m):
        row = [-duals[i][j] for j in range(n)] + [0] * (m - n)
        row[i] = 1
        rows.append(row)
    interior = _interior_rays(data) if rows else []
    if len(interior) > 1:
        raise MathDomainError(
            f"rays {interior} are interior to the polygon (several compact divisors): "
            "the canonical relations are not a Mori cone basis; supply toric.charge_basis"
        )
    compact = interior[0] if interior else None
    normalized = []
    for row in rows:
        lead = next((x for x in row if x != 0), 0)
        if lead < 0:
            row = [-x for x in row]
        if compact is not None and row[compact] > 0:
            row = [-x for x in row]
        normalized.append(row)
    return normalized


def effective_charge_basis(data: ToricCYData) -> tuple[tuple[int, ...], ...]:
    """User-supplied charge rows when present (authoritative), else computed."""
    if data.charge_rows is not None:
        return data.charge_rows
    return data.charge_basis


def brane_report(data: ToricCYData, brane: BraneSpec) -> ValidationReport:
    """``validate_brane(data, brane)``, kept on the toric data (:meth:`ToricCYData.kept`)."""
    return data.kept(("brane_report", brane), validate_brane)


def validate_brane(data: ToricCYData, brane: BraneSpec) -> ValidationReport:
    """Special-Lagrangian and Aganagic-Vafa shape checks, as a report."""
    failures = []
    m = data.m
    for a, row in enumerate(brane.charges):
        if len(row) != m:
            failures.append(f"charge row {a} has length {len(row)}, expected {m}")
            continue
        if sum(row) != 0:
            failures.append(f"charge row {a} violates the special condition (sum != 0)")
    if len(brane.constants) != brane.k or len(brane.phases) != brane.k:
        failures.append("need one constant and one phase per charge row")
    if brane.charges and all(len(r) == m for r in brane.charges):
        if independent_columns(brane.charges) is None:
            failures.append("charge rows are linearly dependent")
    if brane.av_indices is not None:
        failures.extend(_check_av_shape(data, brane))
    return ValidationReport(tuple(failures))


def _check_av_shape(data: ToricCYData, brane: BraneSpec) -> list[str]:
    failures = []
    m = data.m
    if brane.k != 2:
        failures.append(f"Aganagic-Vafa brane needs exactly 2 charges, got {brane.k}")
        return failures
    i0, i1, i2 = brane.av_indices
    if len({i0, i1, i2}) != 3 or not all(0 <= i < m for i in (i0, i1, i2)):
        failures.append(f"av_indices {brane.av_indices} are not 3 distinct ray indices")
        return failures
    def diff(a, b):
        return tuple(x - y for x, y in zip(unit_vector(m, a), unit_vector(m, b)))
    expected = (diff(i1, i0), diff(i2, i0))
    if brane.charges != expected:
        failures.append(
            "Aganagic-Vafa charges must be (e_i1 - e_i0, e_i2 - e_i0) "
            f"for indices {brane.av_indices}"
        )
    nonzero = [a for a, c in enumerate(brane.constants) if c != 0]
    if len(nonzero) != 1:
        failures.append("exactly one Aganagic-Vafa constant must be nonzero")
    elif nonzero[0] != 1:
        failures.append(
            "the nonzero constant must sit on the e_i2 - e_i0 charge "
            "(its e^{-c-i*phi} is the open parameter)"
        )
    return failures


AVGeometry = namedtuple("AVGeometry", "m0 c edge")


def av_geometry(data: ToricCYData, brane: BraneSpec) -> AVGeometry:
    """Locate the brane point on its polytope edge and compute the constant.

    Requires ``brane.m0``: the point must satisfy the two edge equations
    <m0, v_i> + lambda_i = 0 for i in {i0, i1} and lie strictly inside
    every other face, so the half-line m0 + R>=0 u hits exactly one
    edge.  The nonzero constant is
    c = lambda_{i2} - lambda_{i0} + <m0, v_{i2} - v_{i0}> and must not
    vanish (else the line meets a second edge).
    """
    if brane.av_indices is None or brane.m0 is None:
        raise MathDomainError("av_geometry needs av_indices and m0")
    i0, i1, i2 = brane.av_indices
    heights = [
        _dot(brane.m0, data.rays[i]) + data.offsets[i] for i in range(data.m)
    ]
    on_edge = [i for i in range(data.m) if heights[i] == 0]
    if i0 not in on_edge or i1 not in on_edge:
        raise MathDomainError(
            f"m0 does not lie on the edge F_{{{i0},{i1}}} (heights {heights[i0]}, {heights[i1]})"
        )
    if len(on_edge) > 2:
        raise MathDomainError(
            f"m0 lies on faces {on_edge}; an Aganagic-Vafa brane hits a unique edge"
        )
    negative = [i for i in range(data.m) if heights[i] < 0]
    if negative:
        raise MathDomainError(f"m0 is outside the polytope (faces {negative})")
    c = data.offsets[i2] - data.offsets[i0] + _dot(
        brane.m0, [x - y for x, y in zip(data.rays[i2], data.rays[i0])]
    )
    if c == 0:
        raise MathDomainError("the Aganagic-Vafa constant vanishes (line meets a second edge)")
    return AVGeometry(m0=brane.m0, c=c, edge=(i0, i1))


def gross_discriminant(data: ToricCYData) -> list[tuple[int, int]]:
    """Index pairs spanning 2-dimensional cones of the fan.

    These are the codimension-2 faces entering the discriminant locus
    of the special-Lagrangian fibration; returned as combinatorial data
    only.
    """
    if data.max_cones is None:
        raise MathDomainError("gross_discriminant needs max_cones")
    pairs = set()
    for cone in data.max_cones:
        for pair in itertools.combinations(sorted(cone), 2):
            pairs.add(pair)
    return sorted(pairs)
