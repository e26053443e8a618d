"""Seeded random generators shared by the property suites."""

import random
from fractions import Fraction

from binomials import BinomialIdeal, Scalar, binomial, monomial

SMALL_PRIMES = (2, 3, 5, 7)


def rng(seed):
    return random.Random(seed)


def rand_exponent(r, n, maxdeg=6):
    # distribute a random total degree over the coordinates
    total = r.randint(0, maxdeg)
    exponent = [0] * n
    for _ in range(total):
        exponent[r.randrange(n)] += 1
    return tuple(exponent)


def rand_rational_scalar(r):
    num = r.choice([1, 1, 2, 3, 4, 5, 6])
    den = r.choice([1, 1, 1, 2, 3])
    sign = r.choice([1, -1])
    return Scalar.from_rational(sign * num, den)


def rand_scalar(r):
    s = rand_rational_scalar(r)
    if r.random() < 0.3:
        m = r.choice([3, 4, 5, 6])
        s = s * Scalar.zeta(m, r.randrange(1, m))
    return s


def rand_binomial(r, n, maxdeg=6, rational=True, allow_monomial=True):
    lead = rand_exponent(r, n, maxdeg)
    if allow_monomial and r.random() < 0.2:
        if not any(lead):
            lead = tuple(1 if i == r.randrange(n) else 0 for i in range(n))
        return monomial(lead)
    trail = rand_exponent(r, n, maxdeg)
    while trail == lead:
        trail = rand_exponent(r, n, maxdeg)
    coeff = rand_rational_scalar(r) if rational else rand_scalar(r)
    return binomial(lead, trail, coeff)


def rand_ideal(r, n=3, size=None, maxdeg=6, rational=True, allow_monomial=True,
               names=None):
    size = size or r.randint(1, 3)
    names = names or tuple("XYZW"[:n])
    gens = [rand_binomial(r, n, maxdeg, rational, allow_monomial)
            for _ in range(size)]
    return BinomialIdeal(names, tuple(gens))


def graded_slice(w, degree):
    """Every exponent u with w . u == degree."""
    if not w:
        return [()] if degree == 0 else []
    return [(k,) + rest for k in range(degree // w[0] + 1)
            for rest in graded_slice(w[1:], degree - k * w[0])]


def rand_graded_scalar(r, rational=True):
    s = rand_rational_scalar(r)
    if rational:
        return s
    kind = r.random()
    if kind < 0.35:
        m = r.choice([3, 4, 6])
        s = s * Scalar.zeta(m, r.randrange(1, m))
    elif kind < 0.7:
        s = s * Scalar.from_prime_powers(
            0, {r.choice(SMALL_PRIMES): Fraction(r.choice([1, -1]), r.choice([2, 3]))})
    return s


def rand_graded_ideal(r, n=3, size=None, maxdeg=6, rational=True, w=None):
    """A binomial ideal homogeneous for a positive weight w (when not given,
    all ones about a third of the time): both terms of every generator
    share one w-degree."""
    if w is None:
        w = (1,) * n if r.random() < 0.3 else tuple(r.randint(1, 3) for _ in range(n))
    gens = []
    for _ in range(size or r.randint(1, 3)):
        while True:
            monomials = graded_slice(w, r.randint(1, maxdeg))
            if monomials and (len(monomials) > 1 or r.random() < 0.2):
                break
        if len(monomials) == 1 or r.random() < 0.2:
            gens.append(monomial(r.choice(monomials)))
        else:
            lead, trail = r.sample(monomials, 2)
            gens.append(binomial(lead, trail, rand_graded_scalar(r, rational)))
    return BinomialIdeal(tuple("XYZW"[:n]), tuple(gens))


def rand_artinian_ideal(r, rational=True):
    """A binomial ideal in 2-4 variables whose quotient monoid is finite: for
    every variable a pure power X_i^d or X_i^d - c*X_i^e with e < d (a
    monomial makes a nil class, a binomial a cyclic part), plus up to two
    random binomials.  Coefficients are rational, or also roots of unity and
    prime powers."""
    n = r.randint(2, 4)
    gens = []
    for i in range(n):
        d = r.randint(2, 4) if n == 2 else r.randint(1, 3)
        power = tuple(d if j == i else 0 for j in range(n))
        if r.random() < 0.4:
            gens.append(monomial(power))
        else:
            e = r.randrange(d)
            gens.append(binomial(power, tuple(e if j == i else 0 for j in range(n)),
                                 rand_graded_scalar(r, rational)))
    gens += [rand_binomial(r, n, 4, rational) for _ in range(r.randint(0, 2))]
    return BinomialIdeal(tuple("XYZW"[:n]), tuple(gens))


def rand_mixed_ideal(r, n=3, maxdeg=4):
    """One of the ideals above, its kind drawn at random: ungraded with
    rational or root-of-unity coefficients, graded with roots of unity and
    prime powers, or Artinian with either."""
    kind = r.randrange(4)
    if kind == 0:
        return rand_ideal(r, n, maxdeg=maxdeg, rational=r.random() < 0.5)
    if kind == 1:
        return rand_graded_ideal(r, n, maxdeg=maxdeg, rational=False)
    if kind == 2:
        return rand_artinian_ideal(r, rational=r.random() < 0.5)
    return rand_ideal(r, n, maxdeg=maxdeg, rational=False, allow_monomial=False)


def rand_twisted_ideal(r, rational=True):
    """A binomial ideal in 3-4 variables whose first one or two variables
    are units, X_i^a - c, and the rest nilpotent, X_j^d.  Each unit variable
    also gets one or two relations X^m * (X_i^b - c') with b a proper divisor
    of a and c' a root of c, so colons by different monomials in the
    nilpotent variables have different characters."""
    n = r.choice((3, 4))
    k = r.choice((1, 2)) if n == 4 else 1
    gens = []
    for i in range(k):
        a = r.choice((2, 4, 6))
        c = rand_graded_scalar(r, rational)
        gens.append(binomial(tuple(a if j == i else 0 for j in range(n)), (0,) * n, c))
        for _ in range(r.randint(1, 2)):
            b = r.choice([b for b in range(1, a) if a % b == 0])
            m = (0,) * k + rand_exponent(r, n - k, 3)
            gens.append(binomial(tuple(e + b * (j == i) for j, e in enumerate(m)), m,
                                 c.root(a // b, r.randrange(a // b))))
    gens += [monomial(tuple(r.randint(2, 3) if j == i else 0 for j in range(n)))
             for i in range(k, n)]
    return BinomialIdeal(tuple("XYZW"[:n]), tuple(gens))


def rand_matrix(r, max_rows=6, max_cols=6, bound=20):
    rows = r.randint(1, max_rows)
    cols = r.randint(1, max_cols)
    return [[r.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def rand_lattice_vectors(r, n, count=None, bound=4):
    count = count or r.randint(1, n)
    return [tuple(r.randint(-bound, bound) for _ in range(n)) for _ in range(count)]
