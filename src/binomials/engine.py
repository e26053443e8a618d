"""Binomial ideals, a two-term Buchberger engine, and the ideal operations
that preserve binomiality: elimination, colon by a monomial, variable
saturation, intersection with a monomial ideal, and the pure-part
construction.

A reduced Groebner basis of a binomial ideal consists of binomials, because
S-polynomials of binomials are binomials and reduction rewrites one term
into one term.  The single additive event is a term collision (two surviving
terms with the same exponent), which only needs a coefficient equality test:
equal coefficients cancel the element, unequal ones leave a monomial.

Colons I : X^u and saturations I : (X^u)^infinity take one path.  I is
used as it is when every generator is homogeneous; otherwise I^h, in one
more variable _h, is built once from its reduced grevlex GB and kept.  The
colon by X_i^k divides X_i^k out of the reduced GB under grevlex with X_i
last (Bayer-Stillman), the saturation exponent is the largest X_i-degree
of a lead of the same GB, and _h = 1 maps the result back.  That map is
one-to-one on homogeneous ideals that _h is a nonzerodivisor on, a class
that every colon by X_i stays in, so the colon chain of I stops at the
same exponent as that of its homogenization.  One chain (``_colons``)
serves every colon and saturation, at one variable or several: it
homogenizes once, takes one colon per variable and maps back once.  No
ideal runs Buchberger for what a reduced basis it holds can give: I^h and
each colon hold the basis they come from, a step at X_i is skipped when a
held basis proves X_i a nonzerodivisor (``_colon_var``), membership,
containment, equality and the unit and zero tests read any held basis, a
held basis is the reduced GB of every order under which it keeps its
leads, a sum is a summand that holds a basis and contains the rest, and
eliminations and projections hold the basis they are read from.  The pure
part comes from the modular law, with no elimination.
"""

import heapq
from collections import namedtuple

from .errors import InputError, NonBinomialOperationError, PurePartError
from .orders import (e_add, e_deg, e_divides, e_lcm, e_sub, elim, grevlex,
                     unit)
from .scalars import ONE


Term = namedtuple("Term", "coeff exponent")

class Binomial(namedtuple("Binomial", "lead trail coeff")):
    """X^lead - coeff * X^trail, or the monic monomial X^lead when trail is None."""

    __slots__ = ()

    def __new__(cls, lead, trail=None, coeff=None):
        if (trail is None) != (coeff is None):
            raise InputError("trail and coeff must be present together")
        if trail is not None and trail == lead:
            raise InputError("lead and trail exponents coincide")
        return tuple.__new__(cls, (lead, trail, coeff))

    @property
    def is_monomial(self):
        return self.trail is None

    def support(self):
        sup = {i for i, e in enumerate(self.lead) if e}
        if self.trail is not None:
            sup |= {i for i, e in enumerate(self.trail) if e}
        return sup


def binomial(lead, trail=None, coeff=None):
    """Normalize a two-term combination; None when it cancels to zero."""
    lead = tuple(lead)
    if trail is None:
        return Binomial(lead)
    trail = tuple(trail)
    coeff = ONE if coeff is None else coeff
    if lead == trail:
        return None if coeff.is_one() else Binomial(lead)
    return Binomial(lead, trail, coeff)


def monomial(exponent):
    return Binomial(tuple(exponent))


def oriented(b, order):
    """Reorient so that lead > trail under ``order`` (inverting the coefficient)."""
    if b.trail is None or order.key(b.lead) > order.key(b.trail):
        return b
    return Binomial(b.trail, b.lead, b.coeff.inv())


class ReducedGB(namedtuple("ReducedGB", "order elements")):
    """Reduced Groebner basis: monic leads, interreduced, sorted by lead."""

    __slots__ = ()

    def is_zero(self):
        return not self.elements

    def is_unit(self):
        return any(e_deg(b.lead) == 0 for b in self.elements)


class BinomialIdeal:
    """A binomial ideal given by generators, with per-order GB memoization.

    Values are immutable apart from the GB cache, which is an idempotent
    write-once-per-order memo: duplicate computation is harmless because
    reduced Groebner bases are unique.  Equality is identity.
    """

    def __init__(self, names, gens):
        self.names = tuple(names)
        self.gens = tuple(g for g in gens if g is not None)
        self._gb = {}
        self._hom = None  # I^h once built, for an inhomogeneous I
        for g in self.gens:
            for u in (g.lead, g.trail or g.lead):
                _check_exponent(self.n, u, "generator")

    def __repr__(self):
        return "BinomialIdeal(names=%r, gens=%r)" % (self.names, self.gens)

    @property
    def n(self):
        return len(self.names)

    def groebner(self, order=None):
        """The reduced GB under ``order`` (grevlex when None).  A held basis
        whose every lead stays its lead under ``order`` is that GB, sorted
        anew: its rewrite system X^lead -> c*X^trail is the same and each
        step descends under ``order`` too, so every S-polynomial keeps a
        representation below its lcm (Buchberger's criterion; Cox-Little-
        O'Shea Ch. 2 Sec. 9), and reducedness reads only leads and trails."""
        order = order or grevlex()
        cached = self._gb.get(order)
        if cached is None:
            kept = next((gb.elements for gb in self._gb.values()
                         if all(oriented(b, order) is b for b in gb.elements)), None)
            cached = ReducedGB(order, _reduced_basis(self.gens, order) if kept is None
                               else tuple(sorted(kept, key=lambda b: order.key(b.lead))))
            self._gb[order] = cached
        return cached

    def _any_basis(self):
        """Any held reduced basis, grevlex when none.  Under every order it
        is {1} exactly for the unit ideal, empty exactly for zero, and its
        normal forms decide membership."""
        return self.groebner(next(iter(self._gb), None))

    def is_unit(self):
        return self._any_basis().is_unit()

    def is_zero(self):
        return self._any_basis().is_zero()


def ideal(names, gens):
    return BinomialIdeal(tuple(names), tuple(gens))


def _from_basis(names, gb):
    """The ideal generated by the reduced basis ``gb``, holding it."""
    I = BinomialIdeal(names, gb.elements)
    I._gb[gb.order] = gb
    return I


# ---------------------------------------------------------------------------
# reduction and Buchberger

def _nf_exponent(u, c, elements):
    """Normal form of the term c*X^u against oriented binomials.

    Returns (exponent, coeff) or None when the term reduces to zero.
    The exponent of the result depends only on u, never on c.
    """
    while True:
        for g in elements:
            if e_divides(g.lead, u):
                if g.trail is None:
                    return None
                u = e_add(e_sub(u, g.lead), g.trail)
                c = c * g.coeff
                break
        else:
            return u, c


def _term_sum(t1, t2):
    """a*X^u + b*X^v for the terms t1 = (u, a) and t2 = (v, b): the binomial
    X^u - (-b/a)*X^v up to the unit a, or for u = v a monomial or None."""
    (u, a), (v, b) = t1, t2
    if u == v:  # the single additive event
        return None if a == b.negate() else monomial(u)
    return Binomial(u, v, (b * a.inv()).negate())


def _combine(t1, t2, order):
    """Assemble a reduced binomial from up to two irreducible terms."""
    if t1 is None or t2 is None:
        t = t1 or t2
        return t and monomial(t[0])
    if t1[0] != t2[0] and order.key(t1[0]) < order.key(t2[0]):
        t1, t2 = t2, t1
    return _term_sum(t1, t2)


def _spair_terms(f, g, m):
    """The two signed terms of the S-polynomial of oriented f and g; m is
    the lcm of their leads."""
    # X^(m-lf)*f - X^(m-lg)*g; the X^m terms cancel
    t1 = (e_add(e_sub(m, g.lead), g.trail), g.coeff) if g.trail is not None else None
    t2 = (e_add(e_sub(m, f.lead), f.trail), f.coeff.negate()) if f.trail is not None else None
    return t1, t2


def _reduced_basis(gens, order):
    """Buchberger with the Gebauer-Moeller pair update.

    ``basis`` keeps every element ever added, because queued pairs refer to
    them by index; ``live`` holds the elements whose lead no later lead
    divides, and S-polynomials reduce against those only.  A pair is
    trivial (its S-polynomial is zero) when the leads are coprime or both
    elements are monomials.  Heap entries carry the pair's lcm.
    """
    basis, live, pairs = [], {}, []

    def update(h):
        k, lh = len(basis), h.lead
        basis.append(h)
        # criterion B_k on the queue: lead(h) | lcm(a, b), and lcm(a, h) and
        # lcm(b, h) both differ from lcm(a, b)
        survivors = [p for p in pairs
                     if not e_divides(lh, p[3])
                     or e_lcm(basis[p[1]].lead, lh) == p[3]
                     or e_lcm(basis[p[2]].lead, lh) == p[3]]
        if len(survivors) < len(pairs):
            pairs[:] = survivors
            heapq.heapify(pairs)
        # new pairs (g_i, h) by lcm degree, trivial first, newest first; each
        # is kept when trivial (a witness) or no kept lcm divides its lcm m.
        # The two-scan rule (drop P when a later new lcm or an earlier kept
        # one divides m_P) kept, by induction on degree, the same pairs: the
        # non-trivial P whose m_P no new lcm strictly divides and no trivial
        # or later pair shares.  Sorted, strict divisors come first by degree
        # and equal lcms trivial first, then newest.  Heap entries are ordered
        # by the unique (i, k), so the S-pairs come in the same sequence.
        new = []
        for i, g in live.items():
            m = e_lcm(g.lead, lh)
            trivial = m == e_add(g.lead, lh) or g.is_monomial and h.is_monomial
            new.append((e_deg(m), not trivial, -i, m))
        kept = []
        for _, nontrivial, neg_i, m in sorted(new):
            if not nontrivial or not any(e_divides(m2, m) for m2 in kept):
                kept.append(m)
                if nontrivial:
                    heapq.heappush(pairs, (order.key(m), -neg_i, k, m))
        for i in [i for i, g in live.items() if e_divides(lh, g.lead)]:
            del live[i]
        live[k] = h

    for g in gens:
        update(oriented(g, order))

    while pairs:
        _, i, j, m = heapq.heappop(pairs)
        t1, t2 = _spair_terms(basis[i], basis[j], m)
        r1 = _nf_exponent(*t1, live.values()) if t1 is not None else None
        r2 = _nf_exponent(*t2, live.values()) if t2 is not None else None
        r = _combine(r1, r2, order)
        if r is not None:
            update(r)

    return _interreduce(live.values(), order)


def _interreduce(basis, order):
    by_lead = sorted(basis, key=lambda b: order.key(b.lead))
    minimal = []
    for b in by_lead:
        if not any(e_divides(k.lead, b.lead) for k in minimal):
            minimal.append(b)
    out = []
    for b in minimal:
        if b.trail is None:
            out.append(b)
            continue
        t = _nf_exponent(b.trail, b.coeff, minimal)
        out.append(monomial(b.lead) if t is None else Binomial(b.lead, t[0], t[1]))
    return tuple(out)


# ---------------------------------------------------------------------------
# membership, normal forms, equality

def normal_form(t, gb):
    """Normal form of a term modulo a reduced GB; None when it reduces to 0."""
    _check_exponent(len(gb.elements[0].lead) if gb.elements else len(t.exponent),
                    t.exponent, "term")
    r = _nf_exponent(t.exponent, t.coeff, gb.elements)
    return None if r is None else Term(r[1], r[0])


def ideal_member(f, I):
    """Membership by normal forms of both terms against any held basis."""
    gb = I._any_basis()
    r1 = _nf_exponent(f.lead, ONE, gb.elements)
    if f.trail is None:
        return r1 is None
    return r1 == _nf_exponent(f.trail, f.coeff, gb.elements)


def ideal_equals(I, J):
    if I.names != J.names:
        raise InputError("ideals live in different rings")
    return ideal_contains(I, J) and ideal_contains(J, I)


def ideal_contains(I, J):
    """True when J is a subset of I: each generator of J is in I."""
    return all(ideal_member(g, I) for g in J.gens)


def ideal_sum(I, *others):
    """I + the others.  A summand K that holds a reduced basis and contains
    every other summand is the sum, K + J = K for J in K, so K is returned
    with the bases it holds; otherwise a new ideal on all the generators."""
    summands = (I,) + others
    if any(J.names != I.names for J in others):
        raise InputError("ideals live in different rings")
    for K in summands:
        if K._gb and all(ideal_contains(K, J) for J in summands if J is not K):
            return K
    return BinomialIdeal(I.names, tuple(g for J in summands for g in J.gens))


# ---------------------------------------------------------------------------
# variable elimination and the auxiliary-variable trick

def eliminate(I, keep):
    """The elimination ideal I n k[X_i : i in keep], in the same ambient ring,
    holding its basis: the elements of I's reduced basis under elim(block)
    that avoid the block are the reduced basis of I n k[keep] (the
    elimination theorem, Cox-Little-O'Shea Ch. 3 Sec. 1), and on such
    monomials elim(block) is grevlex, so ``groebner()`` reads them too."""
    keep = set(_check_indices(I.n, keep))
    block = [i for i in range(I.n) if i not in keep]
    if not block:
        return I
    gb = I.groebner(elim(block))
    return _from_basis(I.names, ReducedGB(gb.order, tuple(
        b for b in gb.elements if b.support() <= keep)))


def project_ideal(I, keep):
    """Rewrite an ideal supported on ``keep`` into the smaller ring, holding
    its grevlex basis projected: grevlex compares two exponents that are 0
    off ``keep`` as it compares them with those zeros dropped."""
    keep = _check_indices(I.n, keep)
    gens = []
    gb = I.groebner()
    for b in gb.elements:
        if not b.support() <= set(keep):
            raise InputError("generator %r not supported on the kept variables" % (b,))
        lead = tuple(b.lead[i] for i in keep)
        trail = None if b.trail is None else tuple(b.trail[i] for i in keep)
        gens.append(binomial(lead, trail, b.coeff))
    return _from_basis(tuple(I.names[i] for i in keep), ReducedGB(gb.order, tuple(gens)))


def _lift(b, extra_lead=0, extra_trail=0):
    lead = b.lead + (extra_lead,)
    trail = None if b.trail is None else b.trail + (extra_trail,)
    return Binomial(lead, trail, b.coeff)


def _check_exponent(n, u, what="monomial"):
    """u as a tuple; refused unless it is an exponent vector in n variables."""
    u = tuple(u)
    if len(u) != n:
        raise InputError("%s dimension %d, ring has %d variables" % (what, len(u), n))
    if any(x < 0 for x in u):
        raise InputError("%s %r has a negative entry" % (what, u))
    return u


def _check_indices(n, indices):
    """The distinct indices, sorted; refused unless each is in range(n)."""
    out = sorted(set(indices))
    bad = [i for i in out if not 0 <= i < n]
    if bad:
        raise InputError("variable index %r, ring has %d variables" % (bad[0], n))
    return out


def colon_monomial(I, u):
    """The ideal quotient (I : X^u), one variable at a time off revlex GBs
    of the homogenized ideal."""
    u = _check_exponent(I.n, u)
    return _colons(I, [(i, k) for i, k in enumerate(u) if k])[1]


def colon(I, divisor):
    """Colon by a monomial; refuses a two-term divisor (result can be
    non-binomial, so it is outside this engine)."""
    if divisor.trail is not None:
        raise NonBinomialOperationError(
            "colon by a binomial may have a non-binomial result; only "
            "monomial divisors are supported")
    return colon_monomial(I, divisor.lead)


def saturation(I, u):
    """(d, I : (X^u)^infinity) for X^u = X_i^k, d the least exponent with
    I : X^(d*u) = I : X^((d+1)*u); from there the colon chain is constant,
    so the saturation is I : X^(d*u).  d = 0 exactly when X^u is a
    nonzerodivisor, and a unit saturation makes d the least exponent with
    X^(d*u) in I.  The whole chain is read off one revlex GB of the
    homogenized ideal.  u = 0 gives (0, I); a u of several variables is
    refused (``saturate_vars`` saturates at a set of variables).
    """
    u = _check_exponent(I.n, u)
    support = [i for i, x in enumerate(u) if x]
    if len(support) > 1:
        raise InputError("saturation takes a power of one variable; got %d "
                         "variables" % len(support))
    tops, J = _colons(I, [(i, None) for i in support])
    return sum(-(-top // u[i]) for i, top in zip(support, tops)), J  # one step at most


def saturate_vars(I, sigma):
    """I : (prod_{i in sigma} X_i)^infinity, one variable at a time."""
    return _colons(I, [(i, None) for i in _check_indices(I.n, sigma)])[1]


# ---------------------------------------------------------------------------
# Bayer-Stillman revlex colons (Sturmfels, "Groebner Bases and Convex
# Polytopes", Lemma 12.1) on the homogenization (Cox-Little-O'Shea,
# "Ideals, Varieties, and Algorithms", Ch. 8 Sec. 4)

def _homogenize(I):
    """I when every generator is homogeneous; else I^h in one more variable
    _h, built once: the homogenized elements of the reduced grevlex GB of I
    (the generators alone can give a smaller ideal), which are the reduced
    GB of I^h under grevlex with _h last (Cox-Little-O'Shea, Ch. 8 Sec. 4):
    each keeps its lead, free of _h, so no lead divides a trail term."""
    if all(g.trail is None or e_deg(g.lead) == e_deg(g.trail) for g in I.gens):
        return I
    if I._hom is None:
        gens = tuple(_lift(g, 0, 0 if g.trail is None else e_deg(g.lead) - e_deg(g.trail))
                     for g in I.groebner().elements)
        I._hom = _from_basis(I.names + ("_h",), ReducedGB(grevlex(), gens))
    return I._hom


def _colons(I, steps):
    """(tops, J) with J = I : X_i^k over the steps (i, k) in turn, k = None
    saturating at X_i, and tops the t of each step (``_colon_var``).  I is
    homogenized once and J mapped back once: J is I when no step changed
    the ideal, and otherwise the last colon at _h = 1.  No steps give I
    without a Groebner basis.  So J is I iff J = I: a step with t > 0 grows,
    as g / X_i^min(k, t) is in the colon for the g whose lead has X_i-degree
    t, and were it in H, a lead other than lead(g) would divide lead(g).  At
    _h = 1 it stays so: homogeneous f is in I^h : X^u iff f(_h = 1) is in I : X^u."""
    if not steps:
        return [], I
    H0 = H = _homogenize(I)
    tops = []
    for i, k in steps:
        top, H = _colon_var(H, i, k)
        tops.append(top)
    if H is H0:
        return tops, I
    if H.n == I.n:
        return tops, H
    return tops, BinomialIdeal(I.names, tuple(
        binomial(g.lead[:-1], None if g.trail is None else g.trail[:-1], g.coeff)
        for g in H.gens))


def _colon_var(H, i, k):
    """(t, H : X_i^k) for a homogeneous H, with k = t when k is None: t is
    the largest X_i-degree of a lead of the reduced GB of H under revlex
    with X_i last, and H : X_i^t is the saturation.  The colon is H itself
    when t = 0 and a new ideal holding its reduced GB otherwise.  t = 0,
    with no GB run, when a basis H holds has no lead divisible by X_i: were
    X_i*f in H for a nonzero normal form f, X_i*in(f) would be a multiple of
    a lead, free of X_i, and so would in(f), which a normal form is not."""
    if any(not any(g.lead[i] for g in gb.elements) for gb in H._gb.values()):
        return 0, H
    gb = H.groebner(grevlex(tuple(j for j in range(H.n) if j != i) + (i,)))
    # the chain of X_i stops at t: for the element g with lead X_i-degree t,
    # g / X_i^t lies in H : X_i^t, but not in H : X_i^(t-1), since the lead
    # of g / X_i would be reducible by another lead of gb
    top = max((g.lead[i] for g in gb.elements), default=0)
    if not top:
        return 0, H
    elements = _divide_out(gb, i, top if k is None else k)
    return top, _from_basis(H.names, ReducedGB(gb.order, elements))


def _divide_out(gb, i, k):
    """The reduced GB of H : X_i^k from the reduced GB of a homogeneous H
    under revlex with X_i last: every term of such an element g is
    divisible by X_i^v, v the X_i-degree of its lead, so the elements
    g / X_i^min(k, v) form a GB of the colon."""
    out = []
    for g in gb.elements:
        m = min(k, g.lead[i])
        if m:
            shift = unit(len(g.lead), i, m)
            trail = None if g.trail is None else e_sub(g.trail, shift)
            g = Binomial(e_sub(g.lead, shift), trail, g.coeff)
        out.append(g)
    return _interreduce(out, gb.order)


def intersect_monomial(I, M):
    """I n M for a monomial ideal M, via T*I + (1-T)*M and elimination."""
    if M.names != I.names:
        raise InputError("ideals live in different rings")
    if any(g.trail is not None for g in M.gens):
        raise NonBinomialOperationError(
            "intersection is only supported with a monomial ideal; general "
            "intersections of binomial ideals need not be binomial")
    gens = [_lift(g, 1, 1) for g in I.gens]
    gens += [binomial(m.lead + (0,), m.lead + (1,)) for m in M.gens]
    aux = BinomialIdeal(I.names + ("_t",), tuple(gens))
    return project_ideal(eliminate(aux, range(I.n)), range(I.n))


def intersect(I, J):
    """Intersection where one side is a monomial ideal; refuses otherwise."""
    if all(g.trail is None for g in J.gens):
        return intersect_monomial(I, J)
    if all(g.trail is None for g in I.gens):
        return intersect_monomial(J, I)
    raise NonBinomialOperationError(
        "intersection of two binomial ideals need not be binomial; "
        "one argument must be a monomial ideal")


def scalar_power(lambdas, u):
    out = ONE
    for lam, e in zip(lambdas, u):
        out = out * lam ** e
    return out


def pure_part(I, lambdas):
    """The pure ideal I n P, P = <X_i - lambda_i>, with the same congruence.

    Requires I to contain monomials and every non-monomial reduced-GB
    element X^a - c X^b to satisfy lambda^a = c * lambda^b.  Those elements
    A then lie in P, so I n P = A + (Q n P) for the monomial part Q (the
    modular law).  No lambda_i is 0, so Q + P = <1> and Q n P = QP, which
    the X^(m + e_i) - lambda_i X^m generate.
    """
    lambdas = tuple(lambdas)
    if len(lambdas) != I.n:
        raise InputError("expected %d scale values, got %d" % (I.n, len(lambdas)))
    gb = I.groebner()
    mono = [b for b in gb.elements if b.is_monomial]
    if not mono:
        raise PurePartError("ideal contains no monomials; it is already pure")
    pure = [b for b in gb.elements if not b.is_monomial]
    for b in pure:
        if scalar_power(lambdas, b.lead) != b.coeff * scalar_power(lambdas, b.trail):
            raise PurePartError(
                "scale point does not annihilate the basis element "
                "X^%r - %s X^%r" % (b.lead, b.coeff, b.trail))
    return BinomialIdeal(I.names, tuple(pure) + tuple(
        binomial(e_add(m.lead, unit(I.n, i)), m.lead, lam)
        for m in mono for i, lam in enumerate(lambdas)))
