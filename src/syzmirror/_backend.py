"""Sparse convolution kernel: the hot loop of every series product.

Inside the kernel each operand is a list of (packed monomial, integer
numerator) rows over one common denominator, the ``fmpq_poly`` layout of
FLINT, so the inner loop multiplies and adds plain ints.  Monomials are
packed exponent vectors (Monagan & Pearce, CASC 2007): one int whose
fixed-width fields hold the exponents, with the weighted grade in the
field above them, so multiplying two monomials is one int addition.
"""

from bisect import bisect_left
from fractions import Fraction
from math import lcm
from operator import mul


def _integer_rows(terms, weights):
    """The common denominator of ``terms`` and its (packed key, numerator) rows."""
    den = lcm(*[c.denominator for c in terms.values()])
    if den == 1:
        return 1, [(sum(map(mul, weights, e)), c.numerator) for e, c in terms.items()]
    return den, [
        (sum(map(mul, weights, e)), c.numerator * (den // c.denominator))
        for e, c in terms.items()
    ]


def mul_terms(a, b, grading, order):
    """Convolve two exponent->coefficient maps, dropping grades > order.

    Exponent vectors are tuples of non-negative ints, coefficients exact
    rationals.  Zero coefficients are pruned from the result.
    """
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    # Exponent i lives in bits [i*width, (i+1)*width) of a key and the
    # grade in the bits from ``top`` up.  Both are linear in the
    # exponents, so one weighted sum packs a monomial and adding two
    # keys multiplies the monomials.  Every grading entry is >= 1, so a
    # term of grade <= order has exponents <= order, which fit in
    # order.bit_length() bits; the bit of margin also holds the sum of
    # two such exponents, so no field carries and the top field of
    # ka + kb is the grade of the product.  Terms of grade > order, which
    # an operand of higher order may hold, can overflow their fields,
    # but their keys are >= bound, so the sorted-key break below never
    # combines them.
    width = order.bit_length() + 1
    top = width * len(grading)
    weights = [(g << top) | (1 << (width * i)) for i, g in enumerate(grading)]
    da, rows_a = _integer_rows(a, weights)
    db, rows_b = _integer_rows(b, weights)
    rows_b.sort()
    keys_b = [k for k, _ in rows_b]
    bound = (order + 1) << top  # a sum of keys below it has grade <= order
    out = {}
    get = out.get
    for ka, na in rows_a:
        for kb, nb in rows_b[: bisect_left(keys_b, bound - ka)]:
            k = ka + kb
            out[k] = get(k, 0) + na * nb
    den = da * db
    mask = (1 << width) - 1
    shifts = range(0, top, width)
    return {
        tuple([(k >> s) & mask for s in shifts]): Fraction(n, den) if den != 1 else Fraction(n)
        for k, n in out.items()
        if n
    }
