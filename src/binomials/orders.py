"""Monomial orders on exponent vectors: lex, grevlex, block elimination.

Exponents are plain tuples of nonnegative ints.  Every order exposes a
sort ``key`` that is injective and additive, so comparisons, sorting and
admissibility (0 minimal, translation invariance) all come for free from
tuple comparison.  ``NIL`` stands where a class of exponents is expected and
the monomial lies in the ideal (see ``congruences``).
"""

from collections import namedtuple

from .errors import InputError


def e_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def e_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def e_lcm(u, v):
    return tuple(max(a, b) for a, b in zip(u, v))


def e_divides(u, v):
    """True when X^u divides X^v."""
    return all(a <= b for a, b in zip(u, v))


def e_deg(u):
    return sum(u)


def zero(n):
    return (0,) * n


def unit(n, i, k=1):
    """The exponent of X_i^k in n variables."""
    return tuple(k if j == i else 0 for j in range(n))


class _Nil:
    """Distinguished tag for the absorbing (nil) class."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NIL"


NIL = _Nil()


class MonomialOrder(namedtuple("MonomialOrder", "kind perm block",
                               defaults=(None, None))):
    """``kind`` is "lex", "grevlex" or "elim"; ``perm`` the variable priority,
    most significant first, None for the identity; for elim, ``block`` holds
    the sorted indices eliminated first, ties broken by grevlex on the other
    variables.  Orders compare exponents only through ``key``."""

    __slots__ = ()

    def _priority(self, n):
        if self.perm is None:
            return range(n)
        if len(self.perm) != n:
            raise InputError("order permutation has length %d, expected %d"
                             % (len(self.perm), n))
        return self.perm

    def key(self, u):
        if self.kind == "lex":
            return tuple(u[i] for i in self._priority(len(u)))
        if self.kind == "grevlex":
            return (sum(u), tuple(-u[i] for i in reversed(self._priority(len(u)))))
        if self.kind == "elim":
            outside = list(u)
            for i in self.block:
                outside[i] = 0
            return (sum(u[i] for i in self.block),
                    tuple(-u[i] for i in reversed(self.block)),
                    _GREVLEX.key(tuple(outside)))
        raise InputError("unknown order kind %r" % (self.kind,))


def _priority_value(perm):
    """The stored priority: None for the identity, so each order has one value."""
    perm = tuple(perm or ())
    return None if perm == tuple(range(len(perm))) else perm


def lex(perm=None):
    return MonomialOrder("lex", _priority_value(perm))


def grevlex(perm=None):
    return MonomialOrder("grevlex", _priority_value(perm))


_GREVLEX = grevlex()


def elim(block):
    """Order eliminating the ``block`` variables (ties broken by grevlex)."""
    return MonomialOrder("elim", None, tuple(sorted(set(block))))
