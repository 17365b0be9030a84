"""Kernel form of a truncated series, the sparse convolution and the
graded exp/log recurrence on it.

Every series keeps its terms as integer numerators over one common
denominator, the ``fmpq_poly`` layout of FLINT, so sums, scalings and
the inner loop of a product work on plain ints.  Monomials are packed
exponent vectors (Monagan & Pearce, CASC 2007): one int whose
fixed-width fields hold the exponents, with the weighted grade in the
field above them, so multiplying two monomials is one int addition and
sorted keys run grade by grade.

A layout is ``(grading, width)``: exponent i lives in bits
``[i*width, (i+1)*width)`` of a key and the grade in the bits from
``width * len(grading)`` up.  A series truncated at ``order`` uses
``width = field_width(order)``; every term it holds then fits its
fields, and so does the sum of two exponents of a kept product term.

:class:`Terms` holds one series in this form and reads it as a
read-only exponent tuple -> ``Fraction`` mapping, decoded on first read.
"""

from bisect import bisect_left
from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from operator import mul

ZERO = Fraction(0)


def field_width(order):
    """Bits per exponent field at truncation ``order``.

    Every grading entry is >= 1, so a term of grade <= order has
    exponents <= order, which fit in order.bit_length() bits; the bit
    of margin also holds the sum of two such exponents, so no field of
    a kept product carries.
    """
    return order.bit_length() + 1


def _weights(grading, width):
    """Per-generator key increments: one weighted sum packs a monomial."""
    top = width * len(grading)
    return [(g << top) | (1 << (width * i)) for i, g in enumerate(grading)]


def _decoder(width, nvars):
    mask = (1 << width) - 1
    shifts = range(0, width * nvars, width)
    return lambda key: tuple([(key >> s) & mask for s in shifts])


class Terms(Mapping):
    """One series' terms in kernel form, read as exponent tuple -> Fraction.

    ``monos`` are strictly increasing packed monomials, so the lowest
    grade comes first; ``nums`` are their nonzero integer numerators and
    ``den`` >= 1 the common denominator, with gcd(den, *nums) == 1.  The
    form is unique for given terms and layout, so two ``Terms`` of one
    layout are equal exactly when their rows are.  The mapping view is
    decoded once, on first read, in lexicographic exponent order, and
    has no item assignment.
    """

    __slots__ = ("grading", "width", "den", "monos", "nums", "_view")

    def __init__(self, grading, width, den, monos, nums):
        self.grading = grading
        self.width = width
        self.den = den
        self.monos = monos
        self.nums = nums
        self._view = None

    def _decoded(self):
        view = self._view
        if view is None:
            decode, den = _decoder(self.width, len(self.grading)), self.den
            view = self._view = dict(
                sorted((decode(k), Fraction(n, den)) for k, n in zip(self.monos, self.nums))
            )
        return view

    # -- the mapping view ----------------------------------------------

    def __getitem__(self, exponents):
        return self._decoded()[exponents]

    def __iter__(self):
        return iter(self._decoded())

    def __len__(self):
        return len(self.monos)

    def items(self):
        return self._decoded().items()

    def __eq__(self, other):
        if isinstance(other, Terms) and (self.width, self.grading) == (other.width, other.grading):
            return self.den == other.den and self.monos == other.monos and self.nums == other.nums
        return super().__eq__(other)

    __hash__ = None

    def __repr__(self):
        return f"Terms({self._decoded()!r})"

    # -- inspection on the rows ----------------------------------------

    def _top(self):
        return self.width * len(self.grading)

    def constant(self):
        """The coefficient of the empty monomial (key 0, the first row)."""
        if self.monos and self.monos[0] == 0:
            return Fraction(self.nums[0], self.den)
        return ZERO

    def min_grade(self):
        """Grade of the first row, or None when there are no terms."""
        return self.monos[0] >> self._top() if self.monos else None

    def coefficient(self, exponents):
        """The coefficient of ``exponents``, which must fit the layout,
        found by bisection on its packed key."""
        key = sum(map(mul, _weights(self.grading, self.width), exponents))
        j = bisect_left(self.monos, key)
        if j < len(self.monos) and self.monos[j] == key:
            return Fraction(self.nums[j], self.den)
        return ZERO

    def exponents(self):
        """The exponent tuple of every row, in row order."""
        return list(map(_decoder(self.width, len(self.grading)), self.monos))

    def row_weights(self, coeffs):
        """The integer w = sum coeffs[i] * e_i of every row, read from
        the exponent fields of its key."""
        mask = (1 << self.width) - 1
        fields = [(self.width * i, c) for i, c in enumerate(coeffs) if c]
        return [sum([c * ((k >> s) & mask) for s, c in fields]) for k in self.monos]

    def zero_weight(self, coeffs):
        """The exponents, sorted, of the rows of weight 0 under ``coeffs``:
        the rows ``weighted(coeffs)`` drops."""
        decode = _decoder(self.width, len(self.grading))
        return sorted([decode(k) for k, w in zip(self.monos, self.row_weights(coeffs)) if not w])

    # -- ring operations on the rows -----------------------------------

    def __neg__(self):
        return Terms(self.grading, self.width, self.den, self.monos, [-n for n in self.nums])

    def __add__(self, other):
        """Sum of two ``Terms`` of one layout."""
        if not other.monos:
            return self
        if not self.monos:
            return other
        den = lcm(self.den, other.den)
        scale = den // self.den
        merged = dict(zip(self.monos, self.nums if scale == 1 else [n * scale for n in self.nums]))
        get = merged.get
        scale = den // other.den
        for k, n in zip(other.monos, other.nums):
            merged[k] = get(k, 0) + n * scale
        return _from_rows(self.grading, self.width, den, merged)

    def scaled(self, value):
        """Every coefficient times the nonzero rational ``value``."""
        p, q = value.numerator, value.denominator
        if p == q == 1:
            return self
        nums = self.nums if p == 1 else [n * p for n in self.nums]
        return _normal(self.grading, self.width, self.den * q, self.monos, nums)

    def weighted(self, coeffs, outer=None):
        """Every row's numerator times the integer w = sum coeffs[i] * e_i,
        read from the exponent fields of its key, or times ``outer(w)``;
        rows whose weight is 0 drop."""
        monos, nums = [], []
        for k, n, w in zip(self.monos, self.nums, self.row_weights(coeffs)):
            if outer is not None:
                w = outer(w)
            if w:
                monos.append(k)
                nums.append(n * w)
        return _normal(self.grading, self.width, self.den, monos, nums)

    def truncated(self, order):
        """The rows of grade <= ``order``, at the layout of ``order``."""
        j = bisect_left(self.monos, (order + 1) << self._top())
        kept = self
        if j < len(self.monos):
            kept = _normal(self.grading, self.width, self.den, self.monos[:j], self.nums[:j])
        return kept.at_order(order)

    def at_order(self, order):
        """The same terms at the layout of ``order``, which every row fits."""
        width = field_width(order)
        if width == self.width:
            return self
        return Terms(self.grading, width, self.den, _recoded(self, width, len(self.monos)), self.nums)


def _recoded(terms, width, count):
    """The first ``count`` keys of ``terms`` re-encoded with ``width``-bit fields.

    Re-encoding keeps the grade and the field order, so the keys stay
    sorted as long as every decoded exponent fits the new width.
    """
    decode = _decoder(terms.width, len(terms.grading))
    weights = _weights(terms.grading, width)
    return [sum(map(mul, weights, decode(k))) for k in terms.monos[:count]]


def _normal(grading, width, den, monos, nums):
    """``Terms`` from sorted rows with nonzero numerators, gcd-reduced."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [n // g for n in nums]
    return Terms(grading, width, den, monos, nums)


def _from_rows(grading, width, den, rows):
    """``Terms`` from a packed key -> numerator dict; zero numerators drop."""
    monos = sorted([k for k, n in rows.items() if n])
    return _normal(grading, width, den, monos, [rows[k] for k in monos])


def _packed(terms, grading, width):
    """Common denominator and packed key -> numerator rows of a mapping
    of exponent tuples to exact rationals."""
    weights = _weights(grading, width)
    den = lcm(*[c.denominator for c in terms.values()])
    return den, {
        sum(map(mul, weights, e)): c.numerator * (den // c.denominator) for e, c in terms.items()
    }


def pack(terms, grading, order):
    """Kernel form, at the layout of ``order``, of a mapping from distinct
    exponent tuples of grade <= ``order`` to nonzero exact rationals."""
    width = field_width(order)
    den, rows = _packed(terms, grading, width)
    monos = sorted(rows)
    return Terms(grading, width, den, monos, [rows[k] for k in monos])


def single(grading, order, value, index=None):
    """The one-row ``Terms`` of ``value * x_index`` at the layout of
    ``order`` (the constant ``value`` for index None); a zero value or a
    generator of grade > ``order`` gives no row."""
    width = field_width(order)
    if not value or (index is not None and grading[index] > order):
        return Terms(grading, width, 1, [], [])
    key = 0 if index is None else _weights(grading, width)[index]
    return Terms(grading, width, value.denominator, [key], [value.numerator])


def _operand(x, grading, order, width):
    """Denominator and the sorted rows of grade <= ``order`` of a product operand.

    A ``Terms`` of the product's layout is used as it stands; one of
    another width (a series of higher order) is re-encoded; any other
    mapping is packed.
    """
    if isinstance(x, Terms) and x.grading == grading:
        count = bisect_left(x.monos, (order + 1) << x._top())
        if x.width != width:
            return x.den, _recoded(x, width, count), x.nums[:count]
        if count == len(x.monos):
            return x.den, x.monos, x.nums
        return x.den, x.monos[:count], x.nums[:count]
    # A plain map may hold terms of grade > order whose exponents
    # overflow their fields; the carries only raise a key, so those
    # keys are >= the bound and drop here.
    den, rows = _packed(x, grading, width)
    bound = (order + 1) << (width * len(grading))
    monos = sorted([k for k in rows if k < bound])
    return den, monos, [rows[k] for k in monos]


def mul_terms(a, b, grading, order):
    """Convolve two exponent->coefficient maps, dropping grades > order.

    Exponent vectors are tuples of non-negative ints, coefficients exact
    rationals.  Each operand is a :class:`Terms` or any such mapping;
    the product is a :class:`Terms` at the layout of ``order``, with
    zero coefficients pruned.
    """
    width = field_width(order)
    bound = (order + 1) << (width * len(grading))  # a key below it has grade <= order
    if len(a) > len(b):
        a, b = b, a
    da, monos_a, nums_a = _operand(a, grading, order, width)
    db, monos_b, nums_b = _operand(b, grading, order, width)
    # Both keys of a kept pair have grade <= order, so ka + kb is the
    # product monomial with no carry; the bisection stops b at the first
    # kb that would push the grade past ``order``, and a stops once no kb
    # is left, since its keys only grow.
    out = {}
    get = out.get
    for ka, na in zip(monos_a, nums_a):
        j = bisect_left(monos_b, bound - ka)
        if not j:
            break
        for kb, nb in zip(monos_b[:j], nums_b[:j]):
            k = ka + kb
            out[k] = get(k, 0) + na * nb
    return _from_rows(grading, width, da * db, out)


def _reduced(den, keys, vals):
    """A grade slice ``(den, keys, vals)`` with gcd(den, *vals) divided out."""
    divisor = gcd(den, *vals)
    if divisor != 1:
        den //= divisor
        vals = [v // divisor for v in vals]
    return den, keys, vals


def exp_log(s, order, log):
    """``exp s`` (constant term 0), or with ``log`` ``log s`` (constant
    term 1), of a ``Terms`` at the layout of ``order``, grade by grade.

    The graded Euler operator E (x^e -> grade(e) x^e) is a derivation,
    so g = exp s satisfies E(g) = E(s) g and L = log s satisfies
    E(L) s = E(s).  At grade n that reads (Brent & Kung, J. ACM 25,
    1978; Knuth, TAOCP vol. 2, 4.7)

        n g_n = sum_{m<n} (n - m) s_{n-m} g_m
        M_n = n s_n - sum_{0<m<n} M_m s_{n-m},   M_n = n L_n,

    one sum sum_{m<n} w_m h_m s_{n-m} over the grades of h = g or M
    found so far, with h_0 read as 1 (for log it carries n s_n).  The
    log branch keeps M, which is integral when s is, and divides grade
    n by n only when it assembles the result.  A grade slice of ``s``
    is a range of its sorted keys, and every product of slice rows
    lands in grade n, so no pair needs a bound test; in all about half
    of one truncated product.
    """
    top = s._top()
    monos, nums = s.monos, s.nums
    cuts = [bisect_left(monos, g << top) for g in range(order + 2)]
    # (den, keys, numerators) of grade m of h, each gcd-reduced
    slices = [(1, [0], [1])]
    for n in range(1, order + 1):
        live = [m for m in range(n) if slices[m][1] and cuts[n - m] < cuts[n - m + 1]]
        common = lcm(*[slices[m][0] for m in live])
        acc = {}
        get = acc.get
        for m in live:
            den, keys, vals = slices[m]
            weight = (-1 if m else n) if log else n - m
            scale = weight * (common // den)
            lo, hi = cuts[n - m], cuts[n - m + 1]
            other_keys, other_vals = monos[lo:hi], nums[lo:hi]
            if len(keys) > hi - lo:
                keys, vals, other_keys, other_vals = other_keys, other_vals, keys, vals
            for ka, na in zip(keys, vals):
                na *= scale
                for kb, nb in zip(other_keys, other_vals):
                    k = ka + kb
                    acc[k] = get(k, 0) + na * nb
        keys = sorted([k for k, v in acc.items() if v])
        if not keys:
            slices.append((1, [], []))
            continue
        den = s.den * common * (1 if log else n)
        slices.append(_reduced(den, keys, [acc[k] for k in keys]))
    if log:
        parts = [
            _reduced(den * n, keys, vals)
            for n, (den, keys, vals) in enumerate(slices)
            if n and keys
        ]
    else:
        parts = [p for p in slices if p[1]]
    # Each slice is reduced, so over the lcm of their denominators the
    # rows are in normal form.
    den = lcm(*[p[0] for p in parts])
    out_monos, out_nums = [], []
    for d, keys, vals in parts:
        out_monos += keys
        scale = den // d
        out_nums += vals if scale == 1 else [v * scale for v in vals]
    return Terms(s.grading, s.width, den, out_monos, out_nums)


def linear_combination(pairs, grading, order):
    """Sum of ``c * t`` over ``(c, t)`` pairs, ``t`` a ``Terms`` at the
    layout of ``order`` or None for the series 1.

    One lcm of every pair's denominator puts all rows over one
    denominator, so the sums are integer sums.
    """
    den = lcm(*[c.denominator * (t.den if t is not None else 1) for c, t in pairs])
    out = {}
    get = out.get
    for c, t in pairs:
        if t is None:
            out[0] = get(0, 0) + c.numerator * (den // c.denominator)
            continue
        scale = c.numerator * (den // (c.denominator * t.den))
        for k, n in zip(t.monos, t.nums):
            out[k] = get(k, 0) + n * scale
    return _from_rows(grading, field_width(order), den, out)
