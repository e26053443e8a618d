"""Cellular binomial ideals: the cellularity test and the splitting
decomposition I = (I : X_i^d) n (I + <X_i^d>) on a non-nilpotent
zerodivisor variable, recursed to completion.

Cellular decompositions are not unique; this module pins the output by a
deterministic strategy (always split on the lowest-index offending
variable) and by sorting the resulting components.
"""

from collections import namedtuple

from .engine import (BinomialIdeal, _check_indices, ideal_contains,
                     ideal_member, ideal_sum, monomial, saturate_vars,
                     saturation)
from .errors import InputError, UnitIdealError
from .orders import unit


class CellularComponent(namedtuple("CellularComponent", "delta ideal nilpotency")):
    """A delta-cellular ideal: variables in delta (a frozenset) are
    nonzerodivisors, the others are nilpotent with the recorded exponents,
    ``nilpotency`` being the sorted ((i, d_i) for i not in delta)."""

    __slots__ = ()


def cellular_component(I, delta, nilpotency):
    if I.is_unit():
        raise UnitIdealError("cellularity is undefined for the unit ideal")
    delta = frozenset(_check_indices(I.n, delta))
    nilpotency = tuple(sorted(dict(nilpotency).items()))
    if set(dict(nilpotency)) != set(range(I.n)) - delta:
        raise InputError("nilpotency exponents must cover the complement of delta")
    if saturate_vars(I, delta) is not I:
        raise InputError("ideal is not saturated at its delta variables")
    for i, d in nilpotency:
        if not ideal_member(monomial(unit(I.n, i, d)), I):
            raise InputError("X_%d^%d is not in the ideal" % (i, d))
    return CellularComponent(delta, I, nilpotency)


def _classify(I):
    """(component, offender) from one saturation per variable, exactly one
    of them None.  component is the CellularComponent view of a cellular
    I.  offender is (i, d, I : X_i^d) for the lowest-index zerodivisor X_i
    that is not nilpotent, split as I = (I : X_i^d) n (I + <X_i^d>)."""
    delta, nilpotency = set(), {}
    for i in range(I.n):
        d, sat = saturation(I, unit(I.n, i))
        if d == 0:
            delta.add(i)
        elif ideal_member(monomial(unit(I.n, i, d)), I):
            nilpotency[i] = d  # the least d with X_i^d in I
        else:
            return None, (i, d, sat)
    return CellularComponent(frozenset(delta), I, tuple(sorted(nilpotency.items()))), None


def is_cellular(I):
    """The unique delta when I is cellular, None otherwise."""
    component = as_cellular(I)
    return None if component is None else component.delta


def as_cellular(I):
    """The CellularComponent view of I, or None when I is not cellular."""
    if I.is_unit():
        raise UnitIdealError("cellularity is undefined for the unit ideal")
    return _classify(I)[0]


def component_sort_key(component):
    return (tuple(sorted(component.delta)),
            tuple((b.lead, b.trail or ()) for b in component.ideal.groebner().elements))


def cellular_decompose(I, prune_components=False):
    """A finite list of cellular components whose intersection is I.

    Splits on the lowest-index non-nilpotent zerodivisor with the
    stabilized colon exponent; both branches strictly contain their
    parent, so the recursion terminates.
    """
    if I.is_unit():
        raise UnitIdealError("cannot decompose the unit ideal")
    out, work = [], [I]
    while work:
        J = work.pop()
        component, offender = _classify(J)
        if offender is None:
            out.append(component)
            continue
        i, d, left = offender
        power = monomial(unit(J.n, i, d))
        right = ideal_sum(J, BinomialIdeal(J.names, (power,)))
        # a colon is its input iff it equals it (``engine._colons``), and J
        # holds the basis _classify read, so the sum is J iff power is in J
        if left is J:
            raise AssertionError("colon branch did not grow")
        if right is J:
            raise AssertionError("monomial branch did not grow")
        work.append(right)
        work.append(left)
    return (prune(out) if prune_components else
            sorted(_dedupe(out), key=component_sort_key))


def _dedupe(components):
    """The components in order, dropping any whose ideal equals an earlier
    one: ideals of one ring are equal iff their reduced grevlex bases are,
    as the reduced basis is unique (Cox-Little-O'Shea Ch. 2 Sec. 7 Prop. 6)."""
    if len({comp.ideal.names for comp in components}) > 1:
        raise InputError("ideals live in different rings")
    unique = {}
    for comp in components:
        unique.setdefault(comp.ideal.groebner().elements, comp)
    return list(unique.values())


def prune(components):
    """Drop duplicates and any component containing another one.

    Removing a superset never changes the intersection, but this pairwise
    pruning does not certify a minimal decomposition.
    """
    unique = _dedupe(components)
    kept = []
    for i, comp in enumerate(unique):
        redundant = any(j != i and ideal_contains(comp.ideal, other.ideal)
                        for j, other in enumerate(unique))
        if not redundant:
            kept.append(comp)
    return sorted(kept, key=component_sort_key)
