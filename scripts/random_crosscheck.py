#!/usr/bin/env python3
"""Randomized cross-check of the binomial engine against the rational oracle.

For each trial: draw a random binomial ideal with rational coefficients
(``rand_ideal`` from tests/gen.py), compute its reduced Groebner basis with
the binomial engine, and ask the independent rational Buchberger whether
that basis and the drawn generators generate the same ideal.  Also
exercises colon, elimination and saturation against their oracle
counterparts, including the exponent at which the colon chain of one
variable stops growing.  Every oracle check starts from the drawn
generators, never from the engine's basis, so that a wrong basis shows.
Every other trial draws a positively graded ideal (``rand_graded_ideal``).
An ideal with an inhomogeneous generator has its colons and saturations
read off its homogenization; the closing line counts those trials.

Each trial also draws a rational ideal with a finite quotient monoid
(``rand_artinian_ideal``) from a second seeded stream and samples entries of
its ``quotient_table``: the oracle's normal form of X^(a+b), reduced by a
rational Groebner basis of the raw generators, must be a scalar times
X^classes[table[a][b]], or 0 when that entry is the nil class.

    PYTHONPATH=src python3 scripts/random_crosscheck.py --trials 200 --seed 7
"""

import argparse
import random
import sys
import time
from pathlib import Path

from binomials import (NIL, colon_monomial, congruence, eliminate, quotient_table,
                       saturate_vars, saturation)
from binomials import oracle as orc
from binomials.orders import e_add, e_deg, grevlex, unit

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from gen import (rand_artinian_ideal, rand_exponent, rand_graded_ideal,  # noqa: E402
                 rand_ideal)


def table_entries_agree(r, I, samples=8):
    """Sample entries of the quotient table of I and check each against the
    oracle's normal form; the oracle reduces by its own Groebner basis of
    the generators as given, not by the engine's basis."""
    qt = quotient_table(congruence(I), 1000)
    gb = orc.rational_gb(orc.from_binomials(I.gens))
    real = [j for j, cls in enumerate(qt.classes) if cls is not NIL]
    for _ in range(samples):
        a, b = r.choice(real), r.choice(real)
        nf = orc.p_reduce(orc.poly([(e_add(qt.classes[a], qt.classes[b]), 1)]),
                          gb, grevlex())
        c = qt.classes[qt.table[a][b]]
        if list(nf) != ([] if c is NIL else [c]):
            return False
    return True


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--vars", type=int, default=3)
    ap.add_argument("--maxdeg", type=int, default=6)
    args = ap.parse_args(argv)

    r = random.Random(args.seed)
    r_table = random.Random("table %d" % args.seed)
    start = time.monotonic()
    inhomogeneous = 0
    for trial in range(args.trials):
        if trial % 2:
            I = rand_graded_ideal(r, args.vars, maxdeg=args.maxdeg)
        else:
            I = rand_ideal(r, args.vars, maxdeg=args.maxdeg)
        inhomogeneous += any(g.trail is not None and e_deg(g.lead) != e_deg(g.trail)
                             for g in I.gens)
        raw = orc.from_binomials(I.gens)

        if not orc.ideal_equal(raw, orc.from_binomial_ideal(I)):
            print("FAIL gb at trial %d: %r" % (trial, I.gens))
            return 1

        u = rand_exponent(r, args.vars, 3)
        C = colon_monomial(I, u)
        expected = orc.rational_colon_poly(raw, orc.poly([(u, 1)]), args.vars)
        if not orc.ideal_equal(expected, orc.from_binomial_ideal(C)):
            print("FAIL colon at trial %d: %r : %r" % (trial, I.gens, u))
            return 1

        keep = {i for i in range(args.vars) if r.random() < 0.7} or {0}
        E = eliminate(I, keep)
        block = [i for i in range(args.vars) if i not in keep]
        if not orc.ideal_equal(orc.rational_eliminate(raw, block),
                               orc.from_binomial_ideal(E)):
            print("FAIL eliminate at trial %d" % trial)
            return 1

        # S = I : m^infinity for m = X_1 ... X_n, because I <= S, S : m = S,
        # and m^k g lies in I for every generator g of S and some k
        S = orc.from_binomial_ideal(saturate_vars(I, range(args.vars)))
        m = orc.poly([((1,) * args.vars, 1)])
        gb_I, gb_S = orc.rational_gb(raw), orc.rational_gb(S)
        within = []
        for g in S:
            for _ in range(4 * args.maxdeg + 1):
                if orc.member(g, gb_I):
                    break
                g = orc.p_scale(g, (1,) * args.vars, 1)
            within.append(orc.member(g, gb_I))
        if not (all(orc.member(f, gb_S) for f in raw) and all(within)
                and orc.ideal_equal(orc.rational_colon_poly(S, m, args.vars), S)):
            print("FAIL saturate_vars at trial %d: %r" % (trial, I.gens))
            return 1

        i = r.randrange(args.vars)
        d, sat = saturation(I, unit(args.vars, i))
        stops = [orc.ideal_equal(orc.from_binomial_ideal(sat), orc.rational_colon_poly(
                     raw, orc.poly([(unit(args.vars, i, k), 1)]), args.vars))
                 for k in (d - 1, d, d + 1) if k >= 0]
        # I : X_i^k reaches the saturation at k = d, not before
        if stops != [False] * (d > 0) + [True, True]:
            print("FAIL saturation exponent %d of variable %d at trial %d: %r"
                  % (d, i, trial, I.gens))
            return 1

        A = rand_artinian_ideal(r_table)
        while A.is_unit():
            A = rand_artinian_ideal(r_table)
        if not table_entries_agree(r_table, A):
            print("FAIL quotient table at trial %d: %r" % (trial, A.gens))
            return 1

    elapsed = time.monotonic() - start
    print("ok: %d trials (%d with an inhomogeneous generator) in %.1fs "
          "(%d vars, degree <= %d, seed %d)"
          % (args.trials, inhomogeneous, elapsed, args.vars, args.maxdeg, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
