#!/usr/bin/env python3
"""Randomized cross-check of the binomial engine against the rational oracle.

For each trial: draw a random binomial ideal with rational coefficients,
compute its reduced Groebner basis with the binomial engine, and ask the
independent rational Buchberger whether the two generate the same ideal.
Also exercises colon, elimination and saturation against their oracle
counterparts, including the exponent at which the colon chain of one
variable stops growing.

    python3 scripts/random_crosscheck.py --trials 200 --seed 7
"""

import argparse
import random
import sys
import time

from binomials import colon_monomial, eliminate, saturate_vars, saturation
from binomials import oracle as orc
from binomials.orders import elim


def rand_exponent(r, n, maxdeg):
    total = r.randint(0, maxdeg)
    e = [0] * n
    for _ in range(total):
        e[r.randrange(n)] += 1
    return tuple(e)


def power(i, k, n):
    return tuple(k if j == i else 0 for j in range(n))


def rand_ideal(r, n, maxdeg):
    from binomials import BinomialIdeal, Scalar, binomial, monomial
    gens = []
    for _ in range(r.randint(1, 3)):
        lead = rand_exponent(r, n, maxdeg)
        if r.random() < 0.2:
            gens.append(monomial(lead if any(lead) else (1,) + (0,) * (n - 1)))
            continue
        trail = rand_exponent(r, n, maxdeg)
        while trail == lead:
            trail = rand_exponent(r, n, maxdeg)
        c = Scalar.from_rational(r.choice([1, -1, 2, -2, 3]),
                                 r.choice([1, 1, 2]))
        gens.append(binomial(lead, trail, c))
    return BinomialIdeal(tuple("XYZW"[:n]), tuple(gens))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--vars", type=int, default=3)
    ap.add_argument("--maxdeg", type=int, default=6)
    args = ap.parse_args()

    r = random.Random(args.seed)
    start = time.monotonic()
    for trial in range(args.trials):
        I = rand_ideal(r, args.vars, args.maxdeg)
        raw = orc.from_binomial_ideal(I)

        if not orc.ideal_equal(raw, orc.rational_gb(raw)):
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
        gb = orc.rational_gb(raw, elim(block)) if block else orc.rational_gb(raw)
        kept = [f for f in gb if all(all(x[i] == 0 for i in block) for x in f)]
        if not orc.ideal_equal(kept, orc.from_binomial_ideal(E)):
            print("FAIL eliminate at trial %d" % trial)
            return 1

        S = saturate_vars(I, range(args.vars))
        if not orc.ideal_equal(orc.from_binomial_ideal(saturate_vars(S, range(args.vars))),
                               orc.from_binomial_ideal(S)):
            print("FAIL saturation fixed point at trial %d" % trial)
            return 1

        i = r.randrange(args.vars)
        d, sat = saturation(I, power(i, 1, args.vars))
        stops = [orc.ideal_equal(orc.from_binomial_ideal(sat), orc.rational_colon_poly(
                     raw, orc.poly([(power(i, k, args.vars), 1)]), args.vars))
                 for k in (d - 1, d, d + 1) if k >= 0]
        # I : X_i^k reaches the saturation at k = d, not before
        if stops != [False] * (d > 0) + [True, True]:
            print("FAIL saturation exponent %d of variable %d at trial %d: %r"
                  % (d, i, trial, I.gens))
            return 1

    elapsed = time.monotonic() - start
    print("ok: %d trials in %.1fs (%d vars, degree <= %d, seed %d)"
          % (args.trials, elapsed, args.vars, args.maxdeg, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
