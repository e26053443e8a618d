"""Test-support Groebner engine for general polynomials over the rationals.

Deliberately naive textbook Buchberger: correctness only, desk scale.  It
exists to verify intersections, radicals and equalities that the binomial
engine cannot express (general intersections and colons are non-binomial),
so it must stay independent of the main engine's reduction path.

Polynomials are dicts mapping exponent tuples to nonzero Fractions.
"""

from fractions import Fraction

from .errors import InputError
from .orders import e_add, e_divides, e_lcm, e_sub, elim, grevlex


def poly(pairs):
    """Build a polynomial from (exponent, coefficient) pairs."""
    out = {}
    for exponent, coeff in pairs:
        exponent = tuple(exponent)
        c = out.get(exponent, Fraction(0)) + Fraction(coeff)
        if c == 0:
            out.pop(exponent, None)
        else:
            out[exponent] = c
    return out


def p_add(f, g):
    return poly(list(f.items()) + list(g.items()))


def p_scale(f, exponent, coeff):
    return {e_add(u, exponent): c * coeff for u, c in f.items()}


def p_lead(f, order):
    u = max(f, key=order.key)
    return u, f[u]


def p_reduce(f, basis, order):
    """Full normal form of f modulo a list of polynomials."""
    remainder = {}
    work = dict(f)
    while work:
        u, c = p_lead(work, order)
        for g in basis:
            gu, gc = p_lead(g, order)
            if e_divides(gu, u):
                work = p_add(work, p_scale(g, e_sub(u, gu), -c / gc))
                break
        else:
            remainder[u] = c
            del work[u]
    return remainder


def _spoly(f, g, order):
    fu, fc = p_lead(f, order)
    gu, gc = p_lead(g, order)
    m = e_lcm(fu, gu)
    return p_add(p_scale(f, e_sub(m, fu), Fraction(1, 1) / fc),
                 p_scale(g, e_sub(m, gu), Fraction(-1, 1) / gc))


def rational_gb(gens, order=None):
    """Reduced Groebner basis over Q (monic leads, interreduced, sorted)."""
    order = order or grevlex()
    basis = [dict(g) for g in gens if g]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
    while pairs:
        pairs.sort(key=lambda ij: order.key(
            e_lcm(p_lead(basis[ij[0]], order)[0], p_lead(basis[ij[1]], order)[0])),
            reverse=True)
        i, j = pairs.pop()
        s = _spoly(basis[i], basis[j], order)
        r = p_reduce(s, basis, order)
        if r:
            basis.append(r)
            pairs.extend((len(basis) - 1, k) for k in range(len(basis) - 1))
    # interreduce
    minimal = []
    for f in sorted(basis, key=lambda g: order.key(p_lead(g, order)[0])):
        fu, _ = p_lead(f, order)
        if not any(e_divides(p_lead(g, order)[0], fu) for g in minimal):
            minimal.append(f)
    out = []
    for i, f in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = p_reduce(f, others, order) if others else f
        u, c = p_lead(r, order)
        out.append(p_scale(r, (0,) * len(u), 1 / c))
    out.sort(key=lambda g: order.key(p_lead(g, order)[0]))
    return out


def member(f, gb, order=None):
    order = order or grevlex()
    return not p_reduce(f, gb, order) if f else True


def ideal_equal(gens1, gens2, order=None):
    """Equality of <gens1> and <gens2> by mutual membership."""
    order = order or grevlex()
    gb1 = rational_gb(gens1, order)
    gb2 = rational_gb(gens2, order)
    return (all(member(f, gb2, order) for f in gb1)
            and all(member(f, gb1, order) for f in gb2))


def rational_eliminate(gens, block):
    """Generators of <gens> n Q[X_i : i not in block]: the elements of the
    reduced basis under the block elimination order that are free of the
    block (Cox-Little-O'Shea, Ch. 3 Sec. 1, Thm. 2)."""
    gb = rational_gb(gens, elim(block))
    return [f for f in gb if all(all(u[i] == 0 for i in block) for u in f)]


def _lift(f, tag):
    """f * t^tag viewed in one more (final) variable."""
    return {u + (tag,): c for u, c in f.items()}


def rational_intersect(gens1, gens2, n):
    """Generators of <gens1> n <gens2> via the auxiliary-variable trick."""
    aux = []
    for f in gens1:
        aux.append(_lift(f, 1))                              # t * f
    for g in gens2:
        aux.append(p_add(_lift(g, 0), p_scale(_lift(g, 1), (0,) * (n + 1), -1)))  # (1-t) * g
    return [{u[:n]: c for u, c in f.items()} for f in rational_eliminate(aux, [n])]


def p_divide(f, g, order=None):
    """Exact quotient f / g; raises when g does not divide f."""
    order = order or grevlex()
    quotient = {}
    work = dict(f)
    while work:
        u, c = p_lead(work, order)
        gu, gc = p_lead(g, order)
        if not e_divides(gu, u):
            raise InputError("polynomial is not divisible")
        q, qc = e_sub(u, gu), c / gc
        quotient[q] = qc
        work = p_add(work, p_scale(g, q, -qc))
    return quotient


def rational_colon_poly(gens, f, n):
    """(I : f) for a single polynomial f, via (I n <f>) / f."""
    inter = rational_intersect(gens, [f], n)
    return [p_divide(g, f) for g in inter]


def from_binomials(binomials):
    """Binomials X^u - c*X^v and monomials X^u as rational polynomials.

    Only rational coefficients convert; a root-of-unity or irrational
    coefficient raises, since the oracle works over Q only.
    """
    return [poly([(b.lead, 1)]) if b.trail is None else
            poly([(b.lead, 1), (b.trail, -b.coeff.as_fraction())]) for b in binomials]


def from_binomial_ideal(I):
    """The engine's reduced Groebner basis of I as rational polynomials
    (``from_binomials``)."""
    return from_binomials(I.groebner().elements)


def intersect_all(ideals, n):
    """Iterated pairwise intersection of a list of generator lists."""
    if not ideals:
        raise InputError("nothing to intersect")
    current = list(ideals[0])
    for gens in ideals[1:]:
        current = rational_intersect(current, gens, n)
    return current
