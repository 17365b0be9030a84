"""Sparse convolution kernel: the hot loop of every series product."""


def grade_of(exponents, grading):
    return sum(g * e for g, e in zip(grading, exponents))


def mul_terms(a, b, grading, order):
    """Convolve two exponent->coefficient maps, dropping grades > order.

    Exponent vectors are tuples of non-negative ints, coefficients exact
    rationals.  Zero coefficients are pruned from the result.
    """
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    graded = sorted((grade_of(e, grading), e) for e in b)
    out = {}
    for ea, ca in a.items():
        ga = grade_of(ea, grading)
        for gb, eb in graded:
            if ga + gb > order:
                break
            e = tuple(x + y for x, y in zip(ea, eb))
            prev = out.get(e)
            prod = ca * b[eb]
            out[e] = prod if prev is None else prev + prod
    return {e: c for e, c in out.items() if c != 0}
