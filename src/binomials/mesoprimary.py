"""Mesoprime and mesoprimary structure of cellular binomial ideals.

A delta-mesoprime ideal is I_L(rho) + <X_j : j not in delta> with L inside
Z^delta.  Those associated to a delta-cellular I come from the delta parts
of its colons I : X^u, for the finitely many u with u_i < d_i off delta.
An ideal is mesoprimary when it is cellular with exactly one associated
mesoprime; its primary decomposition then comes straight from the lattice
decomposition of its delta part.
"""

from collections import namedtuple

from .cellular import as_cellular
from .engine import (ReducedGB, _check_indices, _from_basis, colon_monomial,
                     ideal_member, ideal_sum, monomial)
from .errors import InputError, NotMesoprimaryError, UnitIdealError
from .lattices import (PartialCharacter, is_saturated, lattice_ideal,
                       lattice_primary_decomposition)
from .orders import e_sub, unit, zero


class Mesoprime(namedtuple("Mesoprime", "names delta character")):
    """delta (a frozenset) and a partial character on a lattice inside Z^delta."""

    __slots__ = ()

    def ideal(self):
        """Materialize as I_L(rho) + <X_j : j not in delta>."""
        return delta_part(lattice_ideal(self.character, self.names), self.delta)

    def sort_key(self):
        return (tuple(sorted(self.delta)), self.character.lattice.basis,
                tuple((v.torsion, v.primes) for v in self.character.values))


def mesoprime(names, delta, character):
    """Validated constructor: the lattice lives in Z^delta and every delta
    variable is a nonzerodivisor modulo the materialized ideal."""
    n = len(names)
    delta = frozenset(_check_indices(n, delta))
    for v in character.lattice.basis:
        if any(v[i] != 0 for i in range(n) if i not in delta):
            raise InputError("lattice vector %r not supported on delta" % (v,))
    m = Mesoprime(tuple(names), delta, character)
    I = m.ideal()
    for i in sorted(delta):
        if colon_monomial(I, unit(n, i)) is not I:
            raise InputError("variable %d is a zerodivisor; not mesoprime" % i)
    return m


def delta_character(J, delta):
    """The character rho of J n k[delta], J proper and delta-cellular, read
    off J's generators on delta.  Proof: were X^a - cX^b in J, a in N^delta
    and b not, X^a would be nilpotent with X^b, but it is a nonzerodivisor:
    J = <1>.  Nor is a monomial of k[delta] in J.  So J's generators lie in
    m = <X_j : j not in delta> but for S_delta, those on delta, and J + m =
    <S_delta> + m.  Setting X_j = 0 off delta fixes k[delta] and kills m:
    J n k[delta] lies in (J + m) n k[delta] = <S_delta>.  Eisenbud-Sturmfels
    Cor. 2.5 gives L = span{a - b}, rho(a - b) = c over S_delta, consistent
    values as J is proper."""
    delta = frozenset(delta)
    gens = [g for g in J.gens if g.support() <= delta]
    return PartialCharacter.from_generators(
        J.n, [e_sub(g.lead, g.trail) for g in gens], [g.coeff for g in gens])


def delta_part(J, delta):
    """The mesoprime I_L(rho) + m of a proper delta-cellular J, m = <X_j :
    j not in delta>, rho = ``delta_character(J, delta)``, holding its reduced
    basis under the order of any basis G that J holds: G_delta, the elements
    of G on delta, and the X_j.  Proof: ``delta_character``'s argument holds
    for every element of J, so each element of G lies on delta or in m.  A
    lead in k[delta] is divisible only by leads of G_delta, so G_delta is a
    GB of J n k[delta], which is pure and saturated at delta: I_L(rho)
    (Eisenbud-Sturmfels Cor. 2.5).  Each X_j is coprime to every term of
    G_delta, so the basis is reduced.  For J = I_L(rho), all of G is on delta."""
    gb = J._any_basis()
    elements = [g for g in gb.elements if g.support() <= delta]
    elements += [monomial(unit(J.n, j)) for j in range(J.n) if j not in delta]
    return _from_basis(J.names, ReducedGB(gb.order, tuple(
        sorted(elements, key=lambda b: gb.order.key(b.lead)))))


def _mesoprimes(component):
    """(mesoprime of I : X^u, u, I : X^u) for each standard monomial u, in
    lexicographic order over the nilpotent coordinates, the first being 0.
    I : X^u is one colon of its parent's quotient, so each colon is taken
    once; X^v in I ends a level, since every larger exponent is in I."""
    I, delta = component.ideal, component.delta

    def walk(J, u, nilpotency):
        if not nilpotency:
            yield Mesoprime(I.names, delta, delta_character(J, delta)), u, J
            return
        (i, d), rest = nilpotency[0], nilpotency[1:]
        for c in range(d):
            v = u[:i] + (c,) + u[i + 1:]
            if ideal_member(monomial(v), I):
                break
            yield from walk(colon_monomial(J, unit(I.n, i, c)), v, rest)
    return walk(I, zero(I.n), component.nilpotency)


def associated_mesoprimes(component):
    """(mesoprime, witness monomial, ideal) for each distinct associated
    mesoprime, deterministically ordered: the first witness, and the
    ``delta_part`` of its colon."""
    found = {}
    for m, u, J in _mesoprimes(component):
        if m not in found:
            found[m] = m, u, delta_part(J, component.delta)
    return sorted(found.values(), key=lambda t: t[0].sort_key())


def _cellular_view(I):
    """``as_cellular(I)``, refusing the unit ideal as the mesoprimary test does."""
    if I.is_unit():
        raise UnitIdealError("mesoprimary test is undefined for the unit ideal")
    return as_cellular(I)


def _base_and_witness(component):
    """(base, witness) for the ``as_cellular`` view of I: base is the
    mesoprime of I itself and witness the first standard monomial whose
    colon has another mesoprime (None when there is none); (None, None)
    when I is not cellular (the view is None)."""
    if component is None:
        return None, None
    leaves = _mesoprimes(component)
    base = next(leaves)[0]
    return base, next((u for m, u, _ in leaves if m != base), None)


def is_mesoprimary(I):
    """(True, None) for mesoprimary ideals; otherwise (False, witness)
    where the witness monomial exhibits a second associated mesoprime
    (None when I is not even cellular)."""
    base, witness = _base_and_witness(_cellular_view(I))
    return base is not None and witness is None, witness


def is_mesoprime(I, component=None):
    """The Mesoprime structure when I = I_L(rho) + p_deltac, else None: a
    delta-cellular I that holds its nilpotent variables is its delta part
    plus them (``delta_character``), so it equals its cellular radical.
    ``component`` is I's ``as_cellular`` view, when the caller holds it."""
    if component is None and not I.is_unit():
        component = as_cellular(I)
    if component is None or any(d != 1 for _, d in component.nilpotency):
        return None
    return cellular_radical(component)


def is_prime(I):
    """Binomial primality: mesoprime with a saturated lattice."""
    m = is_mesoprime(I)
    return m is not None and is_saturated(m.character.lattice)


def cellular_radical(component):
    """The radical of a cellular ideal, as a mesoprime (characteristic 0
    keeps the lattice part radical)."""
    return Mesoprime(component.ideal.names, component.delta,
                     delta_character(component.ideal, component.delta))


def mesoprimary_primary_decomposition(I):
    """I = intersection of (I + I_j) over the lattice decomposition of its
    delta part; each component is primary."""
    base, witness = _base_and_witness(_cellular_view(I))
    if base is None or witness is not None:
        raise NotMesoprimaryError(
            "ideal is not mesoprimary" if witness is None else
            "ideal is not mesoprimary: colon by the witness monomial changes "
            "the delta part", witness=witness)
    return [ideal_sum(I, lattice_component) for _, lattice_component
            in lattice_primary_decomposition(base.character, I.names)]
