"""The congruence a binomial ideal induces on N^n, and its exploration.

Two exponents are related when some nonzero multiple of one monomial minus
the other lies in the ideal; the class of an exponent is its normal-form
exponent under grevlex, or the distinguished NIL tag when the
monomial itself lies in the ideal.  NIL is the monoid's absorbing element.

Classification of elements and congruences is only sound on a maximal
congruence, one whose ideal contains the monomials of its nil class; an
ideal with monomials is automatically maximal, a lattice ideal has no nil,
and the remaining pure ideals go through ``maximal_ideal``'s bounded
search, which reports an explicit completeness flag.

``lattices`` is imported only inside the functions that build or read a
lattice, so ``related`` and ``quotient_table`` load no lattice module.
"""

from collections import namedtuple
from functools import cached_property

from .cellular import as_cellular, is_cellular
from .engine import (BinomialIdeal, Term, _check_exponent, colon_monomial,
                     ideal_sum, monomial, normal_form, saturate_vars)
from .errors import (BudgetExceededError, InputError, NonMaximalCongruenceError,
                     NotCancellativeError, NotPrimaryError, UnitIdealError)
from .mesoprimary import _base_and_witness, delta_character, is_mesoprime
from .orders import NIL, e_add, e_deg, e_divides, unit, zero
from .scalars import ONE


class Congruence:
    """View of the relation ~ induced by a binomial ideal on N^n."""

    def __init__(self, ideal):
        self.ideal = ideal

    @cached_property
    def maximal(self):
        """True when the ideal is known to contain its nil monomials
        (monomials present, or a lattice ideal); decided on first read, and
        with a monomial in the basis without loading ``lattices``."""
        if any(b.is_monomial for b in self.ideal.groebner().elements):
            return True
        from .lattices import is_lattice_ideal
        return is_lattice_ideal(self.ideal)


def congruence(I):
    """Congruence view of I, which must not be the unit ideal."""
    if I.is_unit():
        raise UnitIdealError("the unit ideal induces no congruence")
    return Congruence(I)


def class_id(c, u):
    """NIL when X^u lies in the ideal, else the normal-form exponent."""
    u = _check_exponent(c.ideal.n, u, "exponent")
    nf = normal_form(Term(ONE, u), c.ideal.groebner())
    return NIL if nf is None else nf.exponent


def related(c, u, v):
    return class_id(c, u) == class_id(c, v)


def _is_nil(c, u, zero_class):
    """Absorbing test: [u] != [0] (``zero_class``) and u + e_i ~ u for all i."""
    u, n = tuple(u), c.ideal.n
    own = class_id(c, u)
    if own == zero_class:
        return False
    return all(class_id(c, e_add(u, unit(n, i))) == own for i in range(n))


ElementFlags = namedtuple("ElementFlags", "nil nilpotent cancellable partly_cancellable")


def classify_element(c, u):
    """Nil / nilpotent / cancellable / partly-cancellable flags of [u].

    Requires a maximal congruence: cancellability via colon is only sound
    there.  The partly-cancellable branch additionally needs a primary
    (cellular) congruence.
    """
    if not c.maximal:
        raise NonMaximalCongruenceError(
            "element classification needs a maximal congruence; run "
            "maximal_ideal first")
    u = tuple(u)
    I = c.ideal
    # the monomials of a maximal I form the one absorbing class; a lattice
    # ideal has none, as it is cancellative: u + e_i ~ u forces e_i ~ 0
    # for every i, and then every class is [0]
    nil = class_id(c, u) is NIL
    quotient = colon_monomial(I, u)
    # X^u is nilpotent when I : (X^u)^infinity, the saturation at the
    # support of u, is the unit ideal
    nilpotent = any(u) and saturate_vars(I, [i for i, x in enumerate(u) if x]).is_unit()
    cancellable = quotient is I
    if cancellable or nil:
        # nil sums are all the absorbing class, so the defining implication
        # a + b = a + c != nil => b = c holds vacuously
        partly = True
    else:
        delta = is_cellular(I)
        if delta is None:
            raise NotPrimaryError(
                "partly-cancellable test needs a primary congruence "
                "(cellular ideal)")
        # both delta parts are lattice ideals: equal when their characters are
        partly = delta_character(quotient, delta) == delta_character(I, delta)
    return ElementFlags(nil, nilpotent, cancellable, partly)


CongruenceFlags = namedtuple("CongruenceFlags",
                             "cancellative prime primary mesoprimary toric")


def classify_congruence(c):
    """Cancellative / prime / primary / mesoprimary / toric flags, via the
    corresponding ideal predicates; requires a maximal congruence."""
    from .lattices import is_saturated
    if not c.maximal:
        raise NonMaximalCongruenceError(
            "congruence classification needs a maximal congruence")
    I = c.ideal
    component = as_cellular(I)  # one classification answers every flag
    meso = component and is_mesoprime(I, component)
    # a mesoprime's only standard monomial is 0, so it is mesoprimary
    base, witness = (meso, None) if meso else _base_and_witness(component)
    return CongruenceFlags(
        cancellative=meso is not None and len(meso.delta) == I.n,  # lattice ideal
        prime=meso is not None,
        primary=component is not None,  # cellular
        mesoprimary=base is not None and witness is None,
        toric=meso is not None and is_saturated(meso.character.lattice),
    )


def _total_degree_exponents(n, degree):
    """All exponents in N^n of the given total degree, lexicographically."""
    if n == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in _total_degree_exponents(n - 1, degree - first):
            yield (first,) + rest


def maximal_ideal(J, bound=None):
    """(ideal, complete): the congruence-maximal ideal J + nil monomials.

    An ideal with monomials is already maximal (complete = True).  A
    lattice ideal has no nil (complete = True).  Otherwise the minimal nils
    up to the total-degree bound are adjoined, uncertified (complete False).

    A monoid has one absorbing element at most, so one pass suffices: J
    holds no monomial here, the adjoined monomials form an absorbing class,
    and no second one exists.  Once one nil u0 is found, u is nil exactly
    when [u] = [u0], one normal form in place of ``_is_nil``'s n + 1.  The
    nils form a monoid ideal searched by degree, so multiples of a found nil
    are skipped and every nil found is minimal.
    """
    c = congruence(J)
    if c.maximal:
        return J, True
    gb = J.groebner()
    if bound is None:
        maxdeg = max((max(e_deg(b.lead), e_deg(b.trail)) for b in gb.elements),
                     default=0)
        bound = 2 * maxdeg + J.n
    zero_class, nil_class, minimal = class_id(c, zero(J.n)), None, []
    for degree in range(1, bound + 1):
        for u in _total_degree_exponents(J.n, degree):
            if any(e_divides(v, u) for v in minimal):
                continue
            if nil_class is None:
                if _is_nil(c, u, zero_class):
                    nil_class = class_id(c, u)
                    minimal.append(u)
            elif class_id(c, u) == nil_class:
                minimal.append(u)
    # the bounded search cannot certify that it exhausted the nil class; with
    # no nil found the sum is J, which holds its grevlex basis
    return ideal_sum(J, BinomialIdeal(J.names, tuple(map(monomial, minimal)))), False


class QuotientTable(namedtuple("QuotientTable", "classes table")):
    """Finite quotient monoid: class representatives and an addition table
    of representative indices.  Row and column 0 belong to the class of 0;
    the NIL row, when present, is constant.  ``classes`` holds exponents,
    possibly the NIL tag; table[i][j] is the index of classes[i] + classes[j]."""

    __slots__ = ()

    def has_nil(self):
        return NIL in self.classes


def _first(classes, shown=8):
    """The first ``shown`` classes as a list text, ending ", ..." if cut."""
    return "[%s%s]" % (", ".join(map(repr, classes[:shown])),
                       ", ..." if len(classes) > shown else "")


def quotient_table(c, max_classes):
    """Breadth-first closure of the quotient monoid from [0]; raises a
    budget error (carrying progress) past ``max_classes`` classes.

    One normal form per class and generator: step[k][i] is the index of
    [classes[k] + e_i] (NIL steps to itself), and class j > 0 was first
    reached as classes[k] + e_i with k < j.  A congruence is compatible with
    addition, so table[a][0] = a and table[a][j] = step[table[a][k]][i]."""
    n = c.ideal.n
    generators = [unit(n, i) for i in range(n)]
    start = class_id(c, zero(n))
    classes = [start]
    index = {start: 0}
    step, parent = [], []
    for k, cls in enumerate(classes):  # also visits the classes appended below
        if cls is NIL:
            step.append((k,) * n)
            continue
        row = []
        for i, g in enumerate(generators):
            nxt = class_id(c, e_add(cls, g))
            if nxt not in index:
                if len(classes) >= max_classes:
                    raise BudgetExceededError(
                        "quotient exceeded %d classes; found %d so far: %s"
                        % (max_classes, len(classes), _first(classes)), classes=classes)
                index[nxt] = len(classes)
                classes.append(nxt)
                parent.append((k, i))
            row.append(index[nxt])
        step.append(row)
    table = [[a] for a in range(len(classes))]
    for row in table:
        for k, i in parent:
            row.append(step[row[k]][i])
    return QuotientTable(tuple(classes), tuple(map(tuple, table)))


def rees_ideal(exponents, names):
    """The monomial ideal whose congruence is the Rees congruence modulo
    the monoid ideal generated by ``exponents``."""
    exponents = [_check_exponent(len(names), e, "exponent") for e in exponents]
    if not all(map(any, exponents)):
        raise InputError("0 generates the improper monoid ideal; "
                         "the Rees quotient needs a proper E")
    return BinomialIdeal(tuple(names), tuple(monomial(e) for e in exponents))


def intersection_related(c1, c2, u, v):
    """Pairwise decision for the intersection congruence: u ~ v in the
    common refinement iff u ~ v in both inputs.

    The intersection of arbitrary congruences has no finite ideal
    construction here (the intersection of the associated ideals need not
    be binomial), so only this decision procedure is exposed; the
    cancellative case has a constructor in ``cancellative_intersect``.
    """
    return related(c1, u, v) and related(c2, u, v)


def cancellative_intersect(c1, c2):
    """The intersection congruence of two cancellative congruences: the
    congruence of the lattice-intersection ideal."""
    from .lattices import (PartialCharacter, character_of, is_lattice_ideal,
                           lattice_ideal, lattice_intersect)
    for c in (c1, c2):
        if not is_lattice_ideal(c.ideal):
            raise NotCancellativeError(
                "congruence intersection is only constructed for "
                "cancellative congruences (lattice ideals)")
    if c1.ideal.names != c2.ideal.names:
        raise InputError("congruences live in different rings")
    L1 = character_of(c1.ideal).lattice
    L2 = character_of(c2.ideal).lattice
    L = lattice_intersect(L1, L2)
    I = lattice_ideal(PartialCharacter.trivial(L), c1.ideal.names)
    return Congruence(I)
