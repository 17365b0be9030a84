"""Kernel form of a truncated series, the sparse convolution, and the
graded exp/log recurrence and root solve on its grade slices.

Every series keeps its terms as integer numerators over one common
denominator, the ``fmpq_poly`` layout of FLINT, so sums, scalings and
the inner loop of a product work on plain ints.  Monomials are packed
exponent vectors (Monagan & Pearce, CASC 2007): one int whose
fixed-width fields hold the exponents, with the total degree (the
grade) in the field above them, so multiplying two monomials is one
int addition and sorted keys run grade by grade.

A layout is ``(nvars, width)``: every generator has grade 1, exponent i
lives in bits ``[i*width, (i+1)*width)`` of a key and the grade in the
bits from ``width * nvars`` up.
A series truncated at ``order`` uses ``width = field_width(order)``;
every term it holds then fits its fields, and so does the sum of two
exponents of a kept product term.

:class:`Terms` holds one series in this form and reads it as a read-only
exponent tuple -> ``Fraction`` mapping that decodes rows only to iterate.
:func:`mul_terms` convolves two of them through a dict keyed by the
product key.  :func:`exp_log` and :func:`graded_root` work grade by
grade instead, on grade slices held as dense rows (described above
``EMPTY``): a product of two slices adds into plain lists indexed by
the exponent fields above the first (:func:`_convolve`).
"""

from bisect import bisect_left
from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from operator import mul

ZERO = Fraction(0)


def field_width(order):
    """Bits per exponent field at truncation ``order``.

    Every generator has grade 1, so a term of grade <= order has
    exponents <= order, which fit in order.bit_length() bits; the bit
    of margin also holds the sum of two such exponents, so no field of
    a kept product carries.
    """
    return order.bit_length() + 1


def _weights(nvars, width):
    """Per-generator key increments: one weighted sum packs a monomial."""
    top = width * nvars
    return [(1 << top) | (1 << (width * i)) for i in range(nvars)]


def ratio_text(num, den):
    """num/den (den != 0) in lowest terms as "p" or "p/q", with one gcd."""
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def monomial_text(names, exponents):
    """The monomial as "x^2*y" over ``names``, "" when every exponent is 0."""
    return "*".join([f"{x}^{e}" if e != 1 else x for x, e in zip(names, exponents) if e])


class Terms(Mapping):
    """One series' terms in kernel form, read as exponent tuple -> Fraction.

    ``monos`` are strictly increasing packed monomials, so the lowest
    grade comes first; ``nums`` are their nonzero integer numerators and
    ``den`` >= 1 the common denominator, with gcd(den, *nums) == 1.  The
    form is unique for given terms and layout, so two ``Terms`` of one
    layout are equal exactly when their rows are.  The mapping view
    bisects the rows for one key and decodes them all only to iterate,
    in lexicographic exponent order; it has no item assignment.
    """

    __slots__ = ("nvars", "width", "den", "monos", "nums")

    def __init__(self, nvars, width, den, monos, nums):
        self.nvars = nvars
        self.width = width
        self.den = den
        self.monos = monos
        self.nums = nums

    def _decoded(self):
        coeffs = [Fraction(n, self.den) for n in self.nums]
        return dict(sorted(zip(self.exponents(), coeffs)))

    # -- the mapping view ----------------------------------------------

    def __getitem__(self, exponents):
        # a tuple that does not fit the layout could pack to another row's key
        mask = (1 << self.width) - 1
        if len(exponents) != self.nvars or not all(0 <= e <= mask for e in exponents):
            raise KeyError(exponents)
        key = sum(map(mul, _weights(self.nvars, self.width), exponents))
        j = bisect_left(self.monos, key)
        if j == len(self.monos) or self.monos[j] != key:
            raise KeyError(exponents)
        return Fraction(self.nums[j], self.den)

    def __iter__(self):
        return iter(self._decoded())

    def __len__(self):
        return len(self.monos)

    def items(self):
        return self._decoded().items()

    def __eq__(self, other):
        if isinstance(other, Terms) and (self.width, self.nvars) == (other.width, other.nvars):
            return self.den == other.den and self.monos == other.monos and self.nums == other.nums
        return super().__eq__(other)

    __hash__ = None

    def __repr__(self):
        return f"Terms({self._decoded()!r})"

    # -- inspection on the rows ----------------------------------------

    def _top(self):
        return self.width * self.nvars

    def constant(self):
        """The coefficient of the empty monomial (key 0, the first row)."""
        if self.monos and self.monos[0] == 0:
            return Fraction(self.nums[0], self.den)
        return ZERO

    def min_grade(self):
        """Grade of the first row, or None when there are no terms."""
        return self.monos[0] >> self._top() if self.monos else None

    def exponents(self):
        """The exponent tuple of every row, in row order, decoded field by field."""
        mask, shifts = (1 << self.width) - 1, range(0, self._top(), self.width)
        fields = [[(k >> s) & mask for k in self.monos] for s in shifts]
        return list(zip(*fields)) if fields else [()] * len(self.monos)

    def row_weights(self, coeffs):
        """The integer w = sum coeffs[i] * e_i of every row, read field by
        field from the keys."""
        mask, weights = (1 << self.width) - 1, [0] * len(self.monos)
        for s, c in zip(range(0, self._top(), self.width), coeffs):
            if c:
                weights = [w + c * ((k >> s) & mask) for w, k in zip(weights, self.monos)]
        return weights

    def zero_weight(self, weights):
        """The exponents, sorted, of the rows whose entry in ``weights``
        (one per row) is 0: the rows ``weighted`` drops."""
        return sorted([e for e, w in zip(self.exponents(), weights) if not w])

    # -- ring operations on the rows -----------------------------------

    def __neg__(self):
        return Terms(self.nvars, self.width, self.den, self.monos, [-n for n in self.nums])

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
        return _from_rows(self.nvars, self.width, den, merged)

    def scaled(self, value):
        """Every coefficient times the nonzero rational ``value``."""
        p, q = value.numerator, value.denominator
        if p == q == 1:
            return self
        nums = self.nums if p == 1 else [n * p for n in self.nums]
        return _normal(self.nvars, self.width, self.den * q, self.monos, nums)

    def weighted(self, coeffs):
        """Every row's numerator times the integer w = sum coeffs[i] * e_i,
        read from the exponent fields of its key; rows whose weight is 0
        drop."""
        monos, nums = [], []
        for k, n, w in zip(self.monos, self.nums, self.row_weights(coeffs)):
            if w:
                monos.append(k)
                nums.append(n * w)
        return _normal(self.nvars, self.width, self.den, monos, nums)

    def signed(self, coeffs, odd, even=1):
        """Every row's numerator times ``odd`` where its weight under ``coeffs``
        is odd, else ``even``: both +-1, so the rows keep their normal form."""
        signs = (even, odd)
        weights = [0] * len(self.nums) if odd == even else self.row_weights(coeffs)
        nums = [n * signs[w & 1] for n, w in zip(self.nums, weights)]
        return Terms(self.nvars, self.width, self.den, self.monos, nums)

    def truncated(self, order):
        """The rows of grade <= ``order``, at the layout of ``order``."""
        j = bisect_left(self.monos, (order + 1) << self._top())
        kept = self
        if j < len(self.monos):
            kept = _normal(self.nvars, self.width, self.den, self.monos[:j], self.nums[:j])
        return kept.at_order(order)

    def at_order(self, order):
        """The same terms at the layout of ``order``, which every row fits."""
        width = field_width(order)
        if width == self.width:
            return self
        return Terms(self.nvars, width, self.den, _recoded(self, width), self.nums)


def _recoded(terms, width):
    """The keys of ``terms`` re-encoded with ``width``-bit fields.

    Re-encoding keeps the grade and the field order, so the keys stay
    sorted as long as every decoded exponent fits the new width.
    """
    weights = _weights(terms.nvars, width)
    return [sum(map(mul, weights, e)) for e in terms.exponents()]


def _normal(nvars, width, den, monos, nums):
    """``Terms`` from sorted rows with nonzero numerators, gcd-reduced."""
    if den != 1:
        den, [(monos, nums)] = _reduced(den, [(monos, nums)])
    return Terms(nvars, width, den, monos, nums)


def _from_rows(nvars, width, den, rows):
    """``Terms`` from a packed key -> numerator dict; zero numerators drop."""
    monos = sorted([k for k, n in rows.items() if n])
    return _normal(nvars, width, den, monos, [rows[k] for k in monos])


def pack(terms, nvars, order):
    """Kernel form, at the layout of ``order``, of a mapping from distinct
    exponent tuples of grade <= ``order`` to nonzero exact rationals."""
    width = field_width(order)
    weights = _weights(nvars, width)
    den = lcm(*[c.denominator for c in terms.values()])
    rows = {
        sum(map(mul, weights, e)): c.numerator * (den // c.denominator) for e, c in terms.items()
    }
    monos = sorted(rows)
    return Terms(nvars, width, den, monos, [rows[k] for k in monos])


def single(nvars, order, value, index=None):
    """The one-row ``Terms`` of ``value * x_index`` at the layout of
    ``order`` (the constant ``value`` for index None); a zero value, or a
    generator at order 0, gives no row."""
    width = field_width(order)
    if not value or (index is not None and not order):
        return Terms(nvars, width, 1, [], [])
    key = 0 if index is None else _weights(nvars, width)[index]
    return Terms(nvars, width, value.denominator, [key], [value.numerator])


def mul_terms(a, b, grading, order):
    """Convolve two ``Terms`` over the unit ``grading``, dropping grades > order.

    The product is a :class:`Terms` at the layout of ``order``, with
    zero coefficients pruned.  Only the length of ``grading`` is read.
    """
    width = field_width(order)
    bound = (order + 1) << (width * len(grading))  # a key below it has grade <= order
    # an operand of another order keeps its rows of grade <= order, at
    # the product's layout
    a, b = a.truncated(order), b.truncated(order)
    if len(a) > len(b):
        a, b = b, a
    monos_b, nums_b = b.monos, b.nums
    # Both keys of a kept pair have grade <= order, so ka + kb is the
    # product monomial with no carry; the bisection stops b at the first
    # kb that would push the grade past ``order``, and a stops once no kb
    # is left, since its keys only grow.
    out = {}
    get = out.get
    for ka, na in zip(a.monos, a.nums):
        j = bisect_left(monos_b, bound - ka)
        if not j:
            break
        for kb, nb in zip(monos_b[:j], nums_b[:j]):
            k = ka + kb
            out[k] = get(k, 0) + na * nb
    return _from_rows(len(grading), width, a.den * b.den, out)


def _reduced(den, runs):
    """``(den, runs)`` with gcd(den, *numerators) divided out of the
    numerator lists of ``runs``, pairs (start, numerators)."""
    if den != 1:
        divisor = den
        for _, nums in runs:
            divisor = gcd(divisor, *nums)
        if divisor != 1:
            den //= divisor
            runs = [(start, [n // divisor for n in nums]) for start, nums in runs]
    return den, runs


# A grade slice is ``(den, runs)``.  A run ``(start, numerators)`` lies in
# one row of the slice, where every exponent field above the second is
# fixed: numerators[i] is the coefficient at second exponent (start's) +
# i, and may be 0.  ``start`` is the index of a key, its fields above the
# first shifted down: in one grade the first exponent follows from them,
# and the indexes of two keys add with no carry, so the product of two
# entries sits at the sum of their indexes.  Within a grade keys ascend
# with their index, so the runs of a slice ascend in key order.  A slice
# has one run per row, zero-filled between the row's first and last
# entry; on a layout of at most two generators it has one row.
EMPTY = (1, [])
ONE = (1, [(0, [1])])


def _scalar(value):
    """The grade-0 slice of the nonzero rational ``value``."""
    return value.denominator, [(0, [value.numerator])]


def _row_width(nvars, width):
    """The field width that splits a slice into rows on a layout of
    three or more generators, 0 on a layout of one row."""
    return width if nvars > 2 else 0


def _runs(keys, nums, width, mask):
    """The runs of a slice's sorted ``keys`` and ``nums``: one run per
    row, zero-filled between the row's first and last entry."""
    runs = []
    for k, n in zip(keys, nums):
        at = (k >> width) & mask
        if runs and at >> width == runs[-1][0] >> width:
            start, row = runs[-1]
            row += [0] * (at - start - len(row))
            row.append(n)
        else:
            runs.append((at, [n]))
    return runs


def _slices(terms, order):
    """The grade slices ``(den, runs)`` of ``terms`` for grades 0..order.

    A slice is a ``bisect`` range of the sorted rows; one whose indexes
    are consecutive, checked at its ends, is one run as it stands.
    """
    top, width = terms._top(), terms.width
    mask = (1 << (top - width)) - 1 if terms.nvars else 0  # (key >> width) & mask: its index
    den, monos, nums = terms.den, terms.monos, terms.nums
    cuts = [bisect_left(monos, g << top) for g in range(order + 2)]
    slices = []
    for lo, hi in zip(cuts, cuts[1:]):
        if lo == hi:
            slices.append(EMPTY)
            continue
        start = (monos[lo] >> width) & mask
        if ((monos[hi - 1] >> width) & mask) - start == hi - lo - 1:
            slices.append((den, [(start, nums[lo:hi])]))
        else:
            slices.append((den, _runs(monos[lo:hi], nums[lo:hi], width, mask)))
    return slices


def _trimmed(start, row):
    """The run ``(start, row)`` with its zero ends cut, or None when every
    entry is 0."""
    if not any(row):
        return None
    lo, hi = 0, len(row)
    while not row[lo]:
        lo += 1
    while not row[hi - 1]:
        hi -= 1
    return start + lo, row[lo:hi]


def _convolve(products, rows=0, divisor=1):
    """sum w * a * b over ``products`` (w, a, b), an integer weight and two
    grade slices, over ``divisor`` > 0, as one gcd-reduced slice.

    The slices of one product lie in grades that add up to one grade n,
    so every pair of their entries lands in grade n, at the sum of
    their indexes, and needs no bound test.  The sum accumulates in one
    list per row, indexed by the second exponent (a dense accumulator:
    Gustavson, ACM TOMS 4, 1978).  On one row (``rows`` 0) every slice
    is one run; otherwise each pair of runs looks up its row, the index
    above ``rows`` bits.
    """
    products = [(w, a, b) for w, a, b in products if w and a[1] and b[1]]
    common = lcm(*[a[0] * b[0] for _, a, b in products])
    if rows:
        mask = (1 << rows) - 1
        sums = {}
        for w, (da, runs), (db, other) in products:
            scale = w * (common // (da * db))
            if len(runs) > len(other):
                runs, other = other, runs
            for start, nums in runs:
                for other_start, other_nums in other:
                    at = start + other_start
                    acc = sums.get(at >> rows)
                    if acc is None:
                        acc = sums[at >> rows] = []
                    at &= mask
                    end = at + len(nums) + len(other_nums) - 1
                    if end > len(acc):
                        acc += [0] * (end - len(acc))
                    for na in nums:
                        if na:
                            na *= scale
                            j = at
                            for nb in other_nums:
                                acc[j] += na * nb
                                j += 1
                        at += 1
        runs = [_trimmed(r << rows, sums[r]) for r in sorted(sums)]
        runs = [run for run in runs if run]
    else:  # the row loop here costs +2.4% wall_s on disc_local_p2, +4.2% on mix_small
        acc = []
        for w, (da, [(start, nums)]), (db, [(other_start, other_nums)]) in products:
            scale = w * (common // (da * db))
            if len(nums) > len(other_nums):
                nums, other_nums = other_nums, nums
            at = start + other_start
            end = at + len(nums) + len(other_nums) - 1
            if end > len(acc):
                acc += [0] * (end - len(acc))
            for na in nums:
                if na:
                    na *= scale
                    j = at
                    for nb in other_nums:
                        acc[j] += na * nb
                        j += 1
                at += 1
        run = _trimmed(0, acc)
        runs = [run] if run else []
    if not runs:
        return EMPTY
    return _reduced(common * divisor, runs)


def _assembled(nvars, width, slices):
    """``Terms`` from gcd-reduced grade slices of grades 0, 1, ...: over
    the lcm of their denominators the rows are in normal form.

    Entry i of a run in grade n has the run's index plus i, and as its
    first exponent the rest of n.  One more of the second exponent is
    one less of the first, so the keys of a run step by
    ``(1 << width) - 1``; its entries of 0 are holes and drop.  The runs
    of a slice are in key order, and so are the slices.
    """
    top = width * nvars
    mask = (1 << width) - 1  # one field, and the key step along a run
    upper = range(0, top - width, width)  # the fields of an index
    den = lcm(*[d for d, runs in slices if runs])
    monos, nums = [], []
    for n, (d, runs) in enumerate(slices):
        if not runs:
            continue
        scale = den // d
        for start, row in runs:
            rest = n
            for s in upper:
                rest -= (start >> s) & mask
            key = (n << top) | (start << width) | rest
            keys = range(key, key + len(row) * mask, mask)
            if 0 in row:
                keys, row = zip(*[(k, v) for k, v in zip(keys, row) if v])
            monos += keys
            nums += row if scale == 1 else [v * scale for v in row]
    return Terms(nvars, width, den, monos, nums)


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
    n by n only when it assembles the result.  In all about half of one
    truncated product.
    """
    cut, rows = _slices(s, order), _row_width(s.nvars, s.width)
    slices = [ONE]  # grade m of h
    for n in range(1, order + 1):
        weights = [(-1 if m else n) if log else n - m for m in range(n)]
        slices.append(_convolve(zip(weights, slices, cut[n:0:-1]), rows, 1 if log else n))
    if log:
        slices[0] = EMPTY
        slices[1:] = [_reduced(den * n, runs) for n, (den, runs) in enumerate(slices[1:], 1)]
    return _assembled(s.nvars, s.width, slices)


def graded_root(coeffs, root0, slope, order):
    """The root z = root0 + z_1 + z_2 + ... of P(z) = sum_e coeffs[e] z^e,
    grade by grade, as ``Terms`` at the layout of ``order``.

    ``coeffs[e]`` is a ``Terms`` at that layout, or None for 0; the
    rational ``root0`` != 0 is a simple root of the grade-0 part of P and
    ``slope`` != 0 its derivative there.  Grade n of P(z) is slope * z_n plus
    products of lower grades of z, its powers and the coefficients, so
    each z_n is one exact division and P(z) vanishes through ``order``
    by construction (relaxed power-series solving: J. van der Hoeven,
    J. Symbolic Comput. 34, 2002).  The powers z^e are kept grade by
    grade as well: z^2 as a symmetric half-convolution of z, each higher
    power as z times the one below.
    """
    degree = len(coeffs) - 1
    nvars, width = coeffs[-1].nvars, field_width(order)
    cut = [None if c is None else _slices(c, order) for c in coeffs]
    rows = _row_width(nvars, width)
    # powers[e][g]: grade g of z^e; powers[1] is z itself.  Its z_n enters
    # grade n of z^e as pulls[e] * z_n.
    powers = [[ONE]] + [[_scalar(root0**e)] for e in range(1, degree + 1)]
    pulls = {e: _scalar(e * root0 ** (e - 1)) for e in range(2, degree + 1)}
    z = powers[1]
    # z_n = -(grade n of P at z_n = 0) / slope, with the sign in the weight
    weight = -slope.denominator if slope > 0 else slope.denominator
    for n in range(1, order + 1):
        powers[0].append(EMPTY)
        known = [EMPTY, EMPTY]  # grade n of z^e with z_n read as 0
        for e in range(2, degree + 1):
            if e == 2:
                products = [(2, z[i], z[n - i]) for i in range(1, (n + 1) // 2)]
                if n % 2 == 0:
                    products.append((1, z[n // 2], z[n // 2]))
            else:
                below = powers[e - 1]
                products = [(1, z[j], below[n - j]) for j in range(1, n)]
                products.append((1, z[0], known[e - 1]))
            known.append(_convolve(products, rows))
        products = []
        for e, c in enumerate(cut):
            if c is not None:
                products.append((weight, c[0], known[e]))
                products += [(weight, c[k], powers[e][n - k]) for k in range(1, n + 1)]
        z.append(_convolve(products, rows, abs(slope.numerator)))
        for e in range(2, degree + 1):
            powers[e].append(_convolve([(1, ONE, known[e]), (1, pulls[e], z[n])], rows))
    return _assembled(nvars, width, z)
