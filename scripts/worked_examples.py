#!/usr/bin/env python3
"""Walk through the package's headline computations and print the results.

Run from the repository root after an editable install:

    python3 scripts/worked_examples.py
"""

from binomials import (Lattice, PartialCharacter, Scalar, as_cellular,
                       associated_mesoprimes, binomial, cancellative_intersect,
                       cellular_decompose, congruence, eliminate, ideal,
                       is_mesoprimary, lattice_primary_decomposition,
                       maximal_ideal, monomial, pure_part, quotient_table,
                       table_text, toric_ideal)
from binomials.parsing import ideal_text

ONE = Scalar.one()


def show(title, lines):
    print("== %s" % title)
    for line in lines:
        print("   " + line)
    print()


def main():
    # the kernel of t -> (t^3, t^4, t^5), two ways
    T = toric_ideal([[3, 4, 5]], ("X", "Y", "Z"))
    show("toric ideal of [3 4 5]", ideal_text(T))

    names = ("T", "X", "Y", "Z")
    I = ideal(names, [binomial((0, 1, 0, 0), (3, 0, 0, 0)),
                      binomial((0, 0, 1, 0), (4, 0, 0, 0)),
                      binomial((0, 0, 0, 1), (5, 0, 0, 0))])
    show("same kernel by elimination", ideal_text(eliminate(I, {1, 2, 3})))

    # a three-component cellular decomposition
    big = ideal(("X", "Y", "Z"), [binomial((4, 2, 0), (0, 0, 6)),
                                  binomial((3, 2, 0), (0, 0, 5)),
                                  binomial((2, 0, 0), (0, 1, 1))])
    for k, comp in enumerate(cellular_decompose(big), start=1):
        delta = ",".join(big.names[i] for i in sorted(comp.delta)) or "-"
        show("cellular component %d (delta = %s)" % (k, delta),
             ideal_text(comp.ideal))

    # mesoprimes of the unmixed non-mesoprimary example
    um = ideal(("X", "Y"), [binomial((2, 0), (0, 0)), binomial((1, 1), (0, 1)),
                            monomial((0, 2))])
    ok, witness = is_mesoprimary(um)
    print("== is <X^2-1, XY-Y, Y^2> mesoprimary?  %s (witness %s)\n"
          % (ok, witness))
    for _, w, J in associated_mesoprimes(as_cellular(um)):
        show("associated mesoprime (witness exponent %s)" % (w,), ideal_text(J))

    # lattice ideal primary decomposition picks up roots of unity
    L = Lattice.from_vectors(2, [(3, -3)])
    for rho, comp in lattice_primary_decomposition(
            PartialCharacter.trivial(L), ("X", "Y")):
        show("prime component with character %s"
             % ", ".join(str(v) for v in rho.values), ideal_text(comp))

    # the pure-part / maximal-ideal round trip
    I1 = ideal(("X", "Y"), [binomial((1, 0), (0, 1)), monomial((0, 2))])
    I0 = pure_part(I1, (ONE, ONE))
    show("pure part of <X-Y, Y^2> at (1, 1)", ideal_text(I0))
    back, complete = maximal_ideal(I0, 4)
    show("maximal ideal recovered (complete=%s)" % complete, ideal_text(back))

    # quotient monoids
    qt = quotient_table(congruence(I1), 10)
    print("== addition table of N^2 modulo <X-Y, Y^2>")
    print(table_text(qt, I1.names))
    print()

    c = cancellative_intersect(
        congruence(ideal(("X", "Y"), [binomial((2, 0), (0, 2))])),
        congruence(ideal(("X", "Y"), [binomial((3, 0), (0, 3))])))
    show("intersection congruence of <X^2-Y^2> and <X^3-Y^3>",
         ideal_text(c.ideal))


if __name__ == "__main__":
    main()
