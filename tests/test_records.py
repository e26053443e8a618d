"""The package's value records are namedtuples: tuple equality and hash,
``Name(field=value, ...)`` reprs, no attribute assignment."""

from fractions import Fraction

import pytest

from binomials import (Binomial, BinomialIdeal, CellularComponent, Lattice,
                       Mesoprime, PartialCharacter, QuotientTable, ReducedGB,
                       Scalar, SmithForm, Term, binomial, grevlex, elim, lex)
from binomials.congruences import NIL, CongruenceFlags, ElementFlags
from binomials.errors import InputError
from binomials.orders import MonomialOrder

TWO = Scalar(Fraction(0), ((2, Fraction(1)),))
LATTICE = Lattice(2, ((1, -1),))
XY = BinomialIdeal(("X", "Y"), (Binomial((1, 0), (0, 1), TWO),))

# (record type, its fields in order)
RECORDS = [
    (Scalar, dict(torsion=Fraction(1, 3), primes=((2, Fraction(1, 2)),))),
    (MonomialOrder, dict(kind="elim", perm=None, block=(0,))),
    (Binomial, dict(lead=(2, 0), trail=(0, 1), coeff=TWO)),
    (Term, dict(coeff=TWO, exponent=(1, 2))),
    (ReducedGB, dict(order=grevlex(), elements=(Binomial((0, 1)),))),
    (CellularComponent, dict(delta=frozenset({0}), ideal=XY, nilpotency=((1, 2),))),
    (QuotientTable, dict(classes=((0, 0), NIL), table=((0, 1), (1, 1)))),
    (SmithForm, dict(U=((1,),), D=((2, 0),), V=((1, 0), (0, 1)))),
    (Lattice, dict(n=2, basis=((1, -1),))),
    (PartialCharacter, dict(lattice=LATTICE, values=(TWO,))),
    (Mesoprime, dict(names=("X", "Y"), delta=frozenset({0, 1}),
                     character=PartialCharacter(LATTICE, (TWO,)))),
    (ElementFlags, dict(nil=False, nilpotent=False, cancellable=True,
                        partly_cancellable=True)),
    (CongruenceFlags, dict(cancellative=True, prime=True, primary=True,
                           mesoprimary=True, toric=False)),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
class TestRecord:
    def test_fields(self, cls, fields):
        assert cls._fields == tuple(fields)

    def test_equality_and_hash(self, cls, fields):
        x, y = cls(**fields), cls(*fields.values())
        assert x == y and not x != y
        assert hash(x) == hash(y) == hash(tuple(fields.values()))
        assert len({x, y}) == 1

    def test_repr(self, cls, fields):
        body = ", ".join("%s=%r" % item for item in fields.items())
        assert repr(cls(**fields)) == "%s(%s)" % (cls.__name__, body)

    def test_frozen(self, cls, fields):
        x = cls(**fields)
        first = next(iter(fields))
        with pytest.raises(AttributeError):
            setattr(x, first, fields[first])
        with pytest.raises(AttributeError):
            x.extra = 1


def test_unequal_values():
    assert Scalar(Fraction(1, 2)) != Scalar()
    assert Binomial((1, 0)) != Binomial((0, 1))
    assert elim([0]) != elim([1]) and lex() != grevlex()


@pytest.mark.parametrize("torsion, primes", [
    (Fraction(1), ()),
    (Fraction(-1, 2), ()),
    (Fraction(0), ((3, Fraction(1)), (2, Fraction(1)))),
    (Fraction(0), ((2, Fraction(1)), (2, Fraction(1)))),
    (Fraction(0), ((2, Fraction(0)),)),
])
def test_scalar_rejects_invalid_fields(torsion, primes):
    with pytest.raises(ValueError):
        Scalar(torsion, primes)


@pytest.mark.parametrize("trail, coeff", [((0, 1), None), (None, TWO), ((1, 0), TWO)])
def test_binomial_rejects_invalid_fields(trail, coeff):
    with pytest.raises(InputError):
        Binomial((1, 0), trail, coeff)


@pytest.mark.parametrize("coeff, expected", [(None, None), (Scalar.one(), None),
                                             (TWO, Binomial((1, 2)))])
def test_binomial_with_lead_equal_to_trail(coeff, expected):
    # X^u - c*X^u is zero when c is 1, and otherwise X^u up to a unit
    assert binomial((1, 2), (1, 2), coeff) == expected


def test_binomial_ideal_is_mutable_with_identity_equality():
    I = BinomialIdeal(["X", "Y"], [Binomial((1, 0)), None])
    assert repr(I) == "BinomialIdeal(names=('X', 'Y'), gens=(%r,))" % (Binomial((1, 0)),)
    assert I != BinomialIdeal(I.names, I.gens) and I == I
    assert I.groebner() is I.groebner()
    with pytest.raises(InputError):
        BinomialIdeal(("X",), (Binomial((1, 0)),))

