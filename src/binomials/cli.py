"""Command-line interface.

One command per invocation; reads a session file (or stdin), prints
deterministic results to stdout, diagnostics to stderr.  Exit codes:
0 success, 1 mathematical refusal (the message names the violated
precondition), 2 input error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import congruences as cg
from . import engine as eng
from . import lattices as lat
from . import mesoprimary as meso
from . import oracle as orc
from .cellular import as_cellular, cellular_decompose, is_cellular
from .errors import InputError, NotMesoprimaryError, Refusal
from .orders import elim as elim_order
from .parsing import (binomial_json, ideal_text, monomial_str,
                      parse_binomial, parse_input, parse_matrix_literal,
                      parse_order, parse_scalar, parse_single_term)


def _read_session(args):
    if getattr(args, "file", None) and args.file != "-":
        with open(args.file) as handle:
            text = handle.read()
    elif not sys.stdin.isatty():
        text = sys.stdin.read()
    else:
        raise InputError("no input: pass a file or pipe a session on stdin")
    return parse_input(text)


def _get_ideal(args, session=None):
    session = session or _read_session(args)
    return session, session.only_ideal(getattr(args, "ideal", None))


def _is_matrix_literal(spec):
    return re.fullmatch(r"[\d\s;\-]+", spec) is not None


def _get_matrix(args, session=None):
    spec = args.matrix
    if spec is None:
        raise InputError("--matrix is required")
    if _is_matrix_literal(spec):
        return parse_matrix_literal(spec)
    session = session or _read_session(args)
    return session.only_matrix(spec)


def _order(args, names):
    spec = getattr(args, "order", None)
    return parse_order(spec, names) if spec else None


def _keep_indices(spec, names):
    listed = [s.strip() for s in spec.replace(",", " ").split()]
    out = []
    for s in listed:
        if s not in names:
            raise InputError("unknown variable %r" % s)
        out.append(names.index(s))
    return sorted(set(out))


def _emit_ideal(I, args, order=None, label=None, extra=None):
    if args.json:
        gb = I.groebner(order)
        payload = {
            "ring": list(I.names),
            "generators": [binomial_json(b, I.names) for b in
                           sorted(gb.elements, key=lambda b: gb.order.key(b.lead),
                                  reverse=True)],
        }
        if label:
            payload["label"] = label
        if extra:
            payload.update(extra)
        print(json.dumps(payload, sort_keys=True))
    else:
        if label:
            print(label)
        for line in ideal_text(I, order):
            print(line)


def _oracle_note(ok, detail=""):
    print("oracle: %s" % ("verified" if ok else "MISMATCH %s" % detail))
    if not ok:
        raise Refusal("oracle cross-check failed %s" % detail)


def _oracle_ideal_equal(I, J):
    try:
        gi = orc.from_binomial_ideal(I)
        gj = orc.from_binomial_ideal(J)
    except ValueError:
        print("oracle: skipped (coefficients outside Q)")
        return
    _oracle_note(orc.ideal_equal(gi, gj))


def _oracle_components_intersect(I, components):
    try:
        gens = [orc.from_binomial_ideal(c) for c in components]
        target = orc.from_binomial_ideal(I)
    except ValueError:
        print("oracle: skipped (coefficients outside Q)")
        return
    _oracle_note(orc.ideal_equal(orc.intersect_all(gens, I.n), target))


# ---------------------------------------------------------------------------
# commands

def cmd_gb(args):
    session, I = _get_ideal(args)
    order = _order(args, I.names)
    _emit_ideal(I, args, order)
    if args.oracle:
        _oracle_ideal_equal(I, eng.BinomialIdeal(I.names, I.groebner(order).elements))


def cmd_nf(args):
    session, I = _get_ideal(args)
    order = _order(args, I.names)
    coeff, exponent = parse_single_term(args.term, I.names)
    gb = I.groebner(order)
    nf = eng.normal_form(eng.Term(coeff, exponent), gb)
    if args.json:
        print(json.dumps({"zero": nf is None,
                          "term": None if nf is None else {
                              "coeff": str(nf.coeff),
                              "exponent": list(nf.exponent)}}, sort_keys=True))
    else:
        if nf is None:
            print("0")
        else:
            c = "" if nf.coeff.is_one() else "%s*" % nf.coeff
            print("%s%s" % (c, monomial_str(nf.exponent, I.names)))


def cmd_eliminate(args):
    session, I = _get_ideal(args)
    keep = _keep_indices(args.keep, I.names)
    if not keep:
        raise InputError("--keep must name at least one variable")
    out = eng.eliminate(I, keep)
    _emit_ideal(out, args)
    if args.oracle:
        _oracle_elimination(I, out, keep)


def _oracle_elimination(I, out, keep):
    try:
        gens = orc.from_binomial_ideal(I)
        target = orc.from_binomial_ideal(out)
    except ValueError:
        print("oracle: skipped (coefficients outside Q)")
        return
    block = [i for i in range(I.n) if i not in keep]
    gb = orc.rational_gb(gens, elim_order(block))
    kept = [f for f in gb if all(all(u[i] == 0 for i in block) for u in f)]
    _oracle_note(orc.ideal_equal(kept, target))


def cmd_colon(args):
    session, I = _get_ideal(args)
    b = parse_binomial(args.monomial, I.names)
    out = eng.colon(I, b)
    _emit_ideal(out, args)
    if args.oracle:
        try:
            gens = orc.from_binomial_ideal(I)
            target = orc.from_binomial_ideal(out)
            f = orc.poly([(b.lead, 1)])
        except ValueError:
            print("oracle: skipped (coefficients outside Q)")
            return
        _oracle_note(orc.ideal_equal(orc.rational_colon_poly(gens, f, I.n), target))


def cmd_saturate(args):
    session, I = _get_ideal(args)
    sigma = _keep_indices(args.vars, I.names)
    _emit_ideal(eng.saturate_vars(I, sigma), args)


def cmd_intersect_monomial(args):
    session, I = _get_ideal(args)
    M = session.only_ideal(args.with_ideal)
    out = eng.intersect(I, M)
    _emit_ideal(out, args)
    if args.oracle:
        try:
            gi, gm = orc.from_binomial_ideal(I), orc.from_binomial_ideal(M)
            target = orc.from_binomial_ideal(out)
        except ValueError:
            print("oracle: skipped (coefficients outside Q)")
            return
        _oracle_note(orc.ideal_equal(orc.rational_intersect(gi, gm, I.n), target))


def cmd_pure_part(args):
    session, I = _get_ideal(args)
    lambdas = [parse_scalar(chunk.strip() or "1")
               for chunk in args.lambdas.split(",")]
    out = eng.pure_part(I, lambdas)
    _emit_ideal(out, args)
    if args.oracle:
        try:
            gi = orc.from_binomial_ideal(I)
            target = orc.from_binomial_ideal(out)
            aug = [orc.poly([(tuple(1 if j == i else 0 for j in range(I.n)), 1),
                             ((0,) * I.n, -lam.as_fraction())])
                   for i, lam in enumerate(lambdas)]
        except ValueError:
            print("oracle: skipped (coefficients outside Q)")
            return
        _oracle_note(orc.ideal_equal(orc.rational_intersect(gi, aug, I.n), target))


def cmd_maximal(args):
    session, I = _get_ideal(args)
    out, complete = cg.maximal_ideal(I, args.bound)
    _emit_ideal(out, args, extra={"complete": complete})
    if not args.json:
        print("complete: %s" % ("yes" if complete else "unknown"))


def cmd_cellular(args):
    session, I = _get_ideal(args)
    components = cellular_decompose(I, prune_components=args.prune)
    if args.json:
        payload = []
        for comp in components:
            gb = comp.ideal.groebner()
            payload.append({
                "delta": sorted(comp.delta),
                "nilpotency": [list(x) for x in comp.nilpotency],
                "generators": [binomial_json(b, I.names) for b in gb.elements],
            })
        print(json.dumps({"components": payload}, sort_keys=True))
    else:
        for k, comp in enumerate(components):
            delta = ",".join(I.names[i] for i in sorted(comp.delta)) or "-"
            print("component %d (delta = %s)" % (k + 1, delta))
            for line in ideal_text(comp.ideal):
                print("  " + line)
    if args.oracle:
        _oracle_components_intersect(I, [c.ideal for c in components])


def cmd_mesoprimes(args):
    session, I = _get_ideal(args)
    comp = as_cellular(I)
    if comp is None:
        raise Refusal("ideal is not cellular; associated mesoprimes are "
                      "defined for cellular ideals")
    pairs = meso.associated_mesoprimes(comp)
    if args.json:
        payload = []
        for m, witness in pairs:
            gb = m.ideal().groebner()
            payload.append({
                "delta": sorted(m.delta),
                "witness": list(witness),
                "generators": [binomial_json(b, I.names) for b in gb.elements],
            })
        print(json.dumps({"mesoprimes": payload}, sort_keys=True))
    else:
        for m, witness in pairs:
            print("mesoprime (witness %s)" % monomial_str(witness, I.names))
            for line in ideal_text(m.ideal()):
                print("  " + line)


def cmd_is_cellular(args):
    session, I = _get_ideal(args)
    delta = is_cellular(I)
    if delta is None:
        raise Refusal("ideal is not cellular: some variable is a "
                      "non-nilpotent zerodivisor")
    if args.json:
        print(json.dumps({"cellular": True, "delta": sorted(delta)}))
    else:
        print("cellular: delta = {%s}" % ",".join(I.names[i] for i in sorted(delta)))


def cmd_is_mesoprimary(args):
    session, I = _get_ideal(args)
    ok, witness = meso.is_mesoprimary(I)
    if not ok:
        detail = ("not cellular" if witness is None else
                  "witness %s" % monomial_str(witness, I.names))
        raise NotMesoprimaryError("ideal is not mesoprimary (%s)" % detail,
                                  witness=witness)
    print(json.dumps({"mesoprimary": True}) if args.json else "mesoprimary")


def cmd_is_mesoprime(args):
    session, I = _get_ideal(args)
    m = meso.is_mesoprime(I)
    if m is None:
        raise Refusal("ideal is not mesoprime: it is not of the form "
                      "lattice part plus complement variables")
    if args.json:
        print(json.dumps({"mesoprime": True, "delta": sorted(m.delta),
                          "lattice": [list(v) for v in m.character.lattice.basis]},
                         sort_keys=True))
    else:
        print("mesoprime: delta = {%s}" % ",".join(I.names[i] for i in sorted(m.delta)))


def cmd_is_prime(args):
    session, I = _get_ideal(args)
    if not meso.is_prime(I):
        raise Refusal("ideal is not prime: not a mesoprime with saturated lattice")
    print(json.dumps({"prime": True}) if args.json else "prime")


def cmd_radical(args):
    session, I = _get_ideal(args)
    comp = as_cellular(I)
    if comp is None:
        raise Refusal("radical is computed for cellular ideals; decompose first")
    _emit_ideal(meso.cellular_radical(comp).ideal(), args)


def cmd_meso_primary_decomp(args):
    session, I = _get_ideal(args)
    components = meso.mesoprimary_primary_decomposition(I)
    if args.json:
        payload = [{"generators": [binomial_json(b, I.names)
                                   for b in comp.groebner().elements]}
                   for comp in components]
        print(json.dumps({"components": payload}, sort_keys=True))
    else:
        for k, comp in enumerate(components):
            print("component %d" % (k + 1))
            for line in ideal_text(comp):
                print("  " + line)
    if args.oracle:
        _oracle_components_intersect(I, components)


def cmd_lattice_decomp(args):
    session, I = _get_ideal(args)
    rho = lat.character_of(I)
    if not eng.ideal_equals(lat.lattice_ideal(rho, I.names), I):
        raise Refusal("ideal is not a lattice ideal; lattice decomposition "
                      "needs a pure variable-saturated ideal")
    decomp = lat.lattice_primary_decomposition(rho, I.names)
    if args.json:
        payload = [{"generators": [binomial_json(b, I.names)
                                   for b in comp.groebner().elements]}
                   for _, comp in decomp]
        print(json.dumps({"components": payload}, sort_keys=True))
    else:
        for k, (_, comp) in enumerate(decomp):
            print("component %d" % (k + 1))
            for line in ideal_text(comp):
                print("  " + line)
    if args.oracle:
        _oracle_components_intersect(I, [comp for _, comp in decomp])


def cmd_toric(args):
    # read the session at most once, and only for a named matrix or a given
    # file: stdin may be a pipe that never closes
    session = None
    if not _is_matrix_literal(args.matrix):
        session = _read_session(args)
    elif args.file and not args.vars:
        try:
            session = _read_session(args)
        except (InputError, OSError):
            pass
    A = _get_matrix(args, session)
    names = tuple(args.vars.split(",")) if args.vars else session and session.names
    if not names:
        names = tuple("X%d" % (i + 1) for i in range(len(A[0])))
    I = lat.toric_ideal(A, names)
    _emit_ideal(I, args)


def cmd_is_positive(args):
    A = _get_matrix(args)
    positive = lat.is_positive(A)
    if args.json:
        print(json.dumps({"positive": positive}))
    else:
        print("positive" if positive else "not positive")
    return 0 if positive else 1


def cmd_fibers(args):
    A = _get_matrix(args)
    target = [int(x) for x in args.target.replace(",", " ").split()]
    out = lat.fibers(A, target)
    if args.json:
        print(json.dumps({"fibers": [list(u) for u in out]}))
    else:
        for u in out:
            print(" ".join(str(x) for x in u))


def cmd_snf(args):
    A = _get_matrix(args)
    form = lat.smith_normal_form(A)
    if args.json:
        print(json.dumps({"U": [list(r) for r in form.U],
                          "D": [list(r) for r in form.D],
                          "V": [list(r) for r in form.V]}, sort_keys=True))
    else:
        for tag, M in (("U", form.U), ("D", form.D), ("V", form.V)):
            print("%s:" % tag)
            for row in M:
                print("  " + " ".join(str(x) for x in row))


def _congruence_of(args, I):
    c = cg.congruence(I)
    if not c.maximal:
        maximalized, complete = cg.maximal_ideal(I, getattr(args, "bound", None))
        c = cg.congruence(maximalized)
        print("note: congruence maximalized (completeness %s)"
              % ("certified" if complete else "unknown"), file=sys.stderr)
    return c


def cmd_congruence(args):
    session, I = _get_ideal(args)
    keys = ("cancellative", "prime", "primary", "mesoprimary", "toric")
    if args.action == "classify":
        c = _congruence_of(args, I)
        flags = cg.classify_congruence(c)
        if args.json:
            print(json.dumps({k: getattr(flags, k) for k in keys},
                             sort_keys=True))
        else:
            for k in keys:
                print("%s: %s" % (k, "yes" if getattr(flags, k) else "no"))
    elif args.action == "related":
        if not args.u or not args.v:
            raise InputError("related needs two monomial arguments")
        c = cg.congruence(I)
        exps = []
        for text in (args.u, args.v):
            b = parse_binomial(text, I.names)
            if b.trail is not None:
                raise InputError("related expects monomial arguments")
            exps.append(b.lead)
        ok = cg.related(c, *exps)
        print(json.dumps({"related": ok}) if args.json else
              ("related" if ok else "not related"))
    elif args.action == "table":
        c = cg.congruence(I)
        qt = cg.quotient_table(c, args.max)
        if args.json:
            print(json.dumps(cg.table_json(qt, I.names), sort_keys=True))
        else:
            print(cg.table_text(qt, I.names))


# ---------------------------------------------------------------------------

def _add_common(p, ideal_arg=True, file_arg=True):
    if ideal_arg:
        p.add_argument("--ideal", help="name of the ideal to use")
    if file_arg:
        p.add_argument("file", nargs="?", help="session file (default: stdin)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check the result with the rational oracle")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="binomials",
        description="Exact computations with binomial ideals and the "
                    "monoid congruences they induce.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gb", help="reduced Groebner basis")
    p.add_argument("--order", help="lex | grevlex, optionally with a "
                                   "variable list, e.g. lex(T,X,Y,Z)")
    _add_common(p)
    p.set_defaults(func=cmd_gb)

    p = sub.add_parser("nf", help="normal form of a monomial")
    p.add_argument("--term", required=True)
    p.add_argument("--order")
    _add_common(p)
    p.set_defaults(func=cmd_nf)

    p = sub.add_parser("eliminate", help="elimination ideal")
    p.add_argument("--keep", required=True, help="variables to keep")
    _add_common(p)
    p.set_defaults(func=cmd_eliminate)

    p = sub.add_parser("colon", help="ideal quotient by a monomial")
    p.add_argument("--monomial", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_colon)

    p = sub.add_parser("saturate", help="saturation at a variable set")
    p.add_argument("--vars", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_saturate)

    p = sub.add_parser("intersect-monomial",
                       help="intersection with a monomial ideal")
    p.add_argument("--with", dest="with_ideal", required=True,
                   help="name of the monomial ideal")
    _add_common(p)
    p.set_defaults(func=cmd_intersect_monomial)

    p = sub.add_parser("pure-part", help="intersection with an augmentation "
                                         "ideal <X_i - lambda_i>")
    p.add_argument("--lambda", dest="lambdas", required=True,
                   help="comma-separated scalar literals, one per variable")
    _add_common(p)
    p.set_defaults(func=cmd_pure_part)

    p = sub.add_parser("maximal", help="congruence-maximal ideal")
    p.add_argument("--bound", type=int, help="total-degree bound of the nil search")
    _add_common(p)
    p.set_defaults(func=cmd_maximal)

    p = sub.add_parser("cellular", help="cellular decomposition")
    p.add_argument("--prune", action="store_true",
                   help="drop components containing another component")
    _add_common(p)
    p.set_defaults(func=cmd_cellular)

    p = sub.add_parser("mesoprimes", help="associated mesoprimes")
    _add_common(p)
    p.set_defaults(func=cmd_mesoprimes)

    for name, func in (("is-cellular", cmd_is_cellular),
                       ("is-mesoprimary", cmd_is_mesoprimary),
                       ("is-mesoprime", cmd_is_mesoprime),
                       ("is-prime", cmd_is_prime)):
        p = sub.add_parser(name, help="predicate; exit 1 when it fails")
        _add_common(p)
        p.set_defaults(func=func)

    p = sub.add_parser("radical", help="radical of a cellular ideal")
    _add_common(p)
    p.set_defaults(func=cmd_radical)

    p = sub.add_parser("meso-primary-decomp",
                       help="primary decomposition of a mesoprimary ideal")
    _add_common(p)
    p.set_defaults(func=cmd_meso_primary_decomp)

    p = sub.add_parser("lattice-decomp",
                       help="primary decomposition of a lattice ideal")
    _add_common(p)
    p.set_defaults(func=cmd_lattice_decomp)

    p = sub.add_parser("toric", help="toric ideal of a degree matrix")
    p.add_argument("--matrix", required=True,
                   help="inline rows like '3 4 5; 0 1 2' or a matrix name")
    p.add_argument("--vars", help="comma-separated variable names")
    _add_common(p, ideal_arg=False)
    p.set_defaults(func=cmd_toric)

    p = sub.add_parser("is-positive", help="positivity of the degree matrix")
    p.add_argument("--matrix", required=True)
    _add_common(p, ideal_arg=False)
    p.set_defaults(func=cmd_is_positive)

    p = sub.add_parser("fibers", help="all factorizations of a degree")
    p.add_argument("--matrix", required=True)
    p.add_argument("--target", required=True, help="degree vector")
    _add_common(p, ideal_arg=False)
    p.set_defaults(func=cmd_fibers)

    p = sub.add_parser("snf", help="Smith normal form")
    p.add_argument("--matrix", required=True)
    _add_common(p, ideal_arg=False)
    p.set_defaults(func=cmd_snf)

    p = sub.add_parser(
        "congruence", help="congruence queries",
        usage="binomials congruence {classify,related,table} [file] [u] [v] "
              "[options]   (keep file/u/v together; options before or after)")
    p.add_argument("action", choices=["classify", "related", "table"])
    p.add_argument("file", nargs="?", help="session file ('-' for stdin)")
    p.add_argument("u", nargs="?", help="first monomial (related)")
    p.add_argument("v", nargs="?", help="second monomial (related)")
    p.add_argument("--max", type=int, default=64, help="class budget (table)")
    p.add_argument("--bound", type=int, help="nil-search bound (classify)")
    _add_common(p, file_arg=False)
    p.set_defaults(func=cmd_congruence)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args) or 0
    except Refusal as exc:
        print("refused: %s" % exc, file=sys.stderr)
        return 1
    except (InputError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
