"""Standalone oracle for the fiber disc-generating series 1 + delta_j.

Multivariate truncated series as plain dicts {exponent tuple: Fraction},
truncated by total degree, nothing shared with the library.  The input
is a charge basis iota (one row per closed variable Q_a, one column per
ray); the A-series come from the factorial formula

    A_i(q) = sum_{alpha > 0} E_i(alpha) q^alpha,
    E_i(alpha) = (-1)^t t! / prod_{j != i} p_j!,  t = -p_i - 1 >= 0,

with p_j = <D_j, alpha> = sum_a alpha_a iota_j^(a), and E_i(alpha) = 0
unless every p_j with j != i is >= 0.

Where the library composes each A_j with the inverse mirror map, this
oracle never composes.  With y_j = 1 + delta_j = exp(-A_j(q(Q))) the
inverse map reads q_a = Q_a prod_j y_j^{iota_j^(a)}, so q^alpha =
Q^alpha prod_j y_j^{p_j(alpha)} and the y_j solve the system

    y_i = exp(-sum_alpha E_i(alpha) Q^alpha prod_j y_j^{p_j(alpha)}),

iterated from y = 1; every term carries Q^alpha with alpha > 0, so
each round settles one more degree.  Hand-checked for local P^2 to
order 2: q = Q + 6Q^2 and 1 + delta_0 = 1 - 2Q + 5Q^2.

Run directly to print the local P^2 values used by the test suite.
"""

import itertools
from fractions import Fraction
from math import factorial

ORDER = 8
LOCAL_P2 = ((-3, 1, 1, 1),)


def degree(e):
    return sum(e)


def one(nvars):
    return {(0,) * nvars: Fraction(1)}


def add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c != 0}


def scale(p, c):
    return {e: c * v for e, v in p.items() if c * v != 0}


def mul(p, q, order):
    out = {}
    q_items = sorted(q.items(), key=lambda item: degree(item[0]))
    for e, a in p.items():
        room = order - degree(e)
        for f, b in q_items:
            if degree(f) > room:
                break
            g = tuple(x + y for x, y in zip(e, f))
            out[g] = out.get(g, Fraction(0)) + a * b
    return {e: c for e, c in out.items() if c != 0}


def exp_dict(p, nvars, order):
    # requires a zero constant term: sum_k p^k / k!
    assert p.get((0,) * nvars, 0) == 0
    out = one(nvars)
    term = one(nvars)
    for k in range(1, order + 1):
        term = scale(mul(term, p, order), Fraction(1, k))
        out = add(out, term)
    return out


def inverse(p, nvars, order):
    # p has constant term 1: 1/p = sum_k (1 - p)^k
    assert p.get((0,) * nvars) == 1
    rest = add(one(nvars), scale(p, Fraction(-1)))
    out = one(nvars)
    for _ in range(order):
        out = add(one(nvars), mul(rest, out, order))
    return out


class Powers:
    """p^k for integers k, negative ones through 1/p, each built once."""

    def __init__(self, p, nvars, order):
        self.nvars, self.order = nvars, order
        self.cache = {0: one(nvars), 1: p}
        self.base = {1: p}

    def __call__(self, k):
        if k not in self.cache:
            step = 1 if k > 0 else -1
            if step not in self.base:
                self.base[step] = inverse(self.base[1], self.nvars, self.order)
            self.cache[k] = mul(self(k - step), self.base[step], self.order)
        return self.cache[k]


def pairings(charges, alpha):
    return [sum(a * row[j] for a, row in zip(alpha, charges)) for j in range(len(charges[0]))]


def coefficient(charges, i, alpha):
    p = pairings(charges, alpha)
    top = -p[i] - 1
    if top < 0 or any(x < 0 for j, x in enumerate(p) if j != i):
        return Fraction(0)
    denominator = 1
    for j, x in enumerate(p):
        if j != i:
            denominator *= factorial(x)
    return Fraction((-1) ** top * factorial(top), denominator)


def classes(nvars, order):
    for alpha in itertools.product(range(order + 1), repeat=nvars):
        if 0 < degree(alpha) <= order:
            yield alpha


def a_series(charges, i, order):
    nvars = len(charges)
    out = {}
    for alpha in classes(nvars, order):
        c = coefficient(charges, i, alpha)
        if c != 0:
            out[alpha] = c
    return out


def fiber_system(charges, order):
    """(q, y): the inverse map q_a(Q) and y_j = 1 + delta_j for every ray."""
    nvars, m = len(charges), len(charges[0])
    terms = [
        (i, alpha, c, pairings(charges, alpha))
        for i in range(m)
        for alpha, c in a_series(charges, i, order).items()
    ]
    y = [one(nvars) for _ in range(m)]
    for _ in range(order + 1):
        powers = [Powers(s, nvars, order) for s in y]
        sums = [{} for _ in range(m)]
        for i, alpha, c, p in terms:
            term = {alpha: c}
            for j, k in enumerate(p):
                if k:
                    term = mul(term, powers[j](k), order)
            sums[i] = add(sums[i], term)
        y = [exp_dict(scale(s, Fraction(-1)), nvars, order) for s in sums]
    powers = [Powers(s, nvars, order) for s in y]
    q = []
    for a in range(nvars):
        image = {tuple(int(b == a) for b in range(nvars)): Fraction(1)}
        for j in range(m):
            image = mul(image, powers[j](charges[a][j]), order)
        q.append(image)
    return q, y


def as_list(series, order):
    """One-variable dict -> coefficient list [c_0, ..., c_order]."""
    return [series.get((d,), Fraction(0)) for d in range(order + 1)]


def a0_coefficients(order=ORDER):
    return as_list(a_series(LOCAL_P2, 0, order), order)


def inverse_map(order=ORDER):
    return as_list(fiber_system(LOCAL_P2, order)[0][0], order)


def fiber_series(order=ORDER):
    return as_list(fiber_system(LOCAL_P2, order)[1][0], order)


if __name__ == "__main__":
    print("A0:", a0_coefficients())
    print("q(Q):", inverse_map())
    print("1+delta0:", fiber_series())
