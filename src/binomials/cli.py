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
from .cellular import as_cellular, cellular_decompose, is_cellular
from .errors import InputError, NotMesoprimaryError, Refusal
from .orders import elim as elim_order, unit
from .parsing import (binomial_json, check_names, ideal_text, monomial_str,
                      parse_binomial, parse_input, parse_matrix_literal,
                      parse_order, parse_scalar, parse_single_term)


def _read_session(args):
    if args.file and args.file != "-":
        with open(args.file) as handle:
            text = handle.read()
    elif not sys.stdin.isatty():
        text = sys.stdin.read()
    else:
        raise InputError("no input: pass a file or pipe a session on stdin")
    return parse_input(text)


def _get_ideal(args):
    return _read_session(args).only_ideal(args.ideal)


def _is_matrix_literal(spec):
    return re.fullmatch(r"[\d\s;\-]+", spec) is not None


def _get_matrix(args, session=None):
    if _is_matrix_literal(args.matrix):
        return parse_matrix_literal(args.matrix)
    session = session or _read_session(args)
    return session.only_matrix(args.matrix)


def _at_least_one(args, *flags):
    """Refuse a budget or bound flag below 1 as an input error."""
    for flag in flags:
        value = getattr(args, flag)
        if value is not None and value < 1:
            raise InputError("--%s must be at least 1, got %d" % (flag, value))


def _order(args, names):
    return parse_order(args.order, names) if args.order else None


def _keep_indices(spec, names):
    listed = [s.strip() for s in spec.replace(",", " ").split()]
    out = []
    for s in listed:
        if s not in names:
            raise InputError("unknown variable %r" % s)
        out.append(names.index(s))
    return sorted(set(out))


def _var_list(names, indices):
    return ",".join(names[i] for i in sorted(indices))


def _emit_ideal(I, args, order=None, extra=None):
    if args.json:
        gb = I.groebner(order)
        payload = {
            "ring": list(I.names),
            "generators": [binomial_json(b, I.names) for b in
                           sorted(gb.elements, key=lambda b: gb.order.key(b.lead),
                                  reverse=True)],
        }
        if extra:
            payload.update(extra)
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in ideal_text(I, order):
            print(line)


def _emit_parts(args, key, parts):
    """Print ``(header, ideal, extra JSON fields)`` parts: each header and its
    indented basis, or with --json one object listing the parts under ``key``."""
    if args.json:
        payload = [dict(extra, generators=[binomial_json(b, J.names)
                                           for b in J.groebner().elements])
                   for _, J, extra in parts]
        print(json.dumps({key: payload}, sort_keys=True))
    else:
        for header, J, _ in parts:
            print(header)
            for line in ideal_text(J):
                print("  " + line)


def _oracle_check(args, target, sources, construct):
    """With --oracle, recompute ``target`` with the rational oracle:
    ``construct`` gets the oracle module, then the generators of each ideal
    of ``sources`` as rational polynomials.  Skipped when a coefficient is
    outside Q; a mismatch refuses.  The oracle is imported here, so a run
    without --oracle never loads it."""
    if not args.oracle:
        return
    from . import oracle as orc
    try:
        expected = orc.from_binomial_ideal(target)
        gens = [orc.from_binomial_ideal(J) for J in sources]
    except ValueError:
        print("oracle: skipped (coefficients outside Q)")
        return
    if not orc.ideal_equal(construct(orc, *gens), expected):
        print("oracle: MISMATCH ")
        raise Refusal("oracle cross-check failed ")
    print("oracle: verified")


# ---------------------------------------------------------------------------
# commands

def cmd_gb(args):
    I = _get_ideal(args)
    order = _order(args, I.names)
    _emit_ideal(I, args, order)
    result = eng.BinomialIdeal(I.names, I.groebner(order).elements)
    _oracle_check(args, result, [I], lambda orc, g: g)


def cmd_nf(args):
    I = _get_ideal(args)
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
            c = "" if nf.coeff.is_one() else "%s*" % (nf.coeff,)
            print("%s%s" % (c, monomial_str(nf.exponent, I.names)))


def cmd_eliminate(args):
    I = _get_ideal(args)
    keep = _keep_indices(args.keep, I.names)
    if not keep:
        raise InputError("--keep must name at least one variable")
    out = eng.eliminate(I, keep)
    _emit_ideal(out, args)
    block = [i for i in range(I.n) if i not in keep]

    def kept(orc, gens):
        gb = orc.rational_gb(gens, elim_order(block))
        return [f for f in gb if all(all(u[i] == 0 for i in block) for u in f)]
    _oracle_check(args, out, [I], kept)


def cmd_colon(args):
    I = _get_ideal(args)
    b = parse_binomial(args.monomial, I.names)
    out = eng.colon(I, b)
    _emit_ideal(out, args)
    _oracle_check(args, out, [I, eng.BinomialIdeal(I.names, (b,))],
                  lambda orc, g, f: orc.rational_colon_poly(g, f[0], I.n))


def cmd_saturate(args):
    I = _get_ideal(args)
    sigma = _keep_indices(args.vars, I.names)
    _emit_ideal(eng.saturate_vars(I, sigma), args)


def cmd_intersect_monomial(args):
    session = _read_session(args)
    I, M = session.only_ideal(args.ideal), session.only_ideal(args.with_ideal)
    out = eng.intersect(I, M)
    _emit_ideal(out, args)
    _oracle_check(args, out, [I, M], lambda orc, g, m: orc.rational_intersect(g, m, I.n))


def cmd_pure_part(args):
    I = _get_ideal(args)
    lambdas = [parse_scalar(chunk.strip() or "1")
               for chunk in args.lambdas.split(",")]
    out = eng.pure_part(I, lambdas)
    _emit_ideal(out, args)
    # the augmentation ideal <X_i - lambda_i>
    aug = eng.BinomialIdeal(I.names, tuple(eng.binomial(unit(I.n, i), (0,) * I.n, lam)
                                           for i, lam in enumerate(lambdas)))
    _oracle_check(args, out, [I, aug], lambda orc, g, a: orc.rational_intersect(g, a, I.n))


def cmd_maximal(args):
    _at_least_one(args, "bound")
    I = _get_ideal(args)
    out, complete = cg.maximal_ideal(I, args.bound)
    _emit_ideal(out, args, extra={"complete": complete})
    if not args.json:
        print("complete: %s" % ("yes" if complete else "unknown"))


def cmd_cellular(args):
    I = _get_ideal(args)
    components = cellular_decompose(I, prune_components=args.prune)
    _emit_parts(args, "components", [
        ("component %d (delta = %s)" % (k + 1, _var_list(I.names, c.delta) or "-"),
         c.ideal, {"delta": sorted(c.delta),
                   "nilpotency": [list(x) for x in c.nilpotency]})
        for k, c in enumerate(components)])
    _oracle_check(args, I, [c.ideal for c in components],
                  lambda orc, *gens: orc.intersect_all(gens, I.n))


def cmd_mesoprimes(args):
    I = _get_ideal(args)
    comp = as_cellular(I)
    if comp is None:
        raise Refusal("ideal is not cellular; associated mesoprimes are "
                      "defined for cellular ideals")
    _emit_parts(args, "mesoprimes", [
        ("mesoprime (witness %s)" % monomial_str(witness, I.names), m.ideal(),
         {"delta": sorted(m.delta), "witness": list(witness)})
        for m, witness in meso.associated_mesoprimes(comp)])


def cmd_is_cellular(args):
    I = _get_ideal(args)
    delta = is_cellular(I)
    if delta is None:
        raise Refusal("ideal is not cellular: some variable is a "
                      "non-nilpotent zerodivisor")
    if args.json:
        print(json.dumps({"cellular": True, "delta": sorted(delta)}))
    else:
        print("cellular: delta = {%s}" % _var_list(I.names, delta))


def cmd_is_mesoprimary(args):
    I = _get_ideal(args)
    ok, witness = meso.is_mesoprimary(I)
    if not ok:
        detail = ("not cellular" if witness is None else
                  "witness %s" % monomial_str(witness, I.names))
        raise NotMesoprimaryError("ideal is not mesoprimary (%s)" % detail,
                                  witness=witness)
    print(json.dumps({"mesoprimary": True}) if args.json else "mesoprimary")


def cmd_is_mesoprime(args):
    I = _get_ideal(args)
    m = meso.is_mesoprime(I)
    if m is None:
        raise Refusal("ideal is not mesoprime: it is not of the form "
                      "lattice part plus complement variables")
    if args.json:
        print(json.dumps({"mesoprime": True, "delta": sorted(m.delta),
                          "lattice": [list(v) for v in m.character.lattice.basis]},
                         sort_keys=True))
    else:
        print("mesoprime: delta = {%s}" % _var_list(I.names, m.delta))


def cmd_is_prime(args):
    I = _get_ideal(args)
    if not meso.is_prime(I):
        raise Refusal("ideal is not prime: not a mesoprime with saturated lattice")
    print(json.dumps({"prime": True}) if args.json else "prime")


def cmd_radical(args):
    I = _get_ideal(args)
    comp = as_cellular(I)
    if comp is None:
        raise Refusal("radical is computed for cellular ideals; decompose first")
    _emit_ideal(meso.cellular_radical(comp).ideal(), args)


def cmd_meso_primary_decomp(args):
    I = _get_ideal(args)
    components = meso.mesoprimary_primary_decomposition(I)
    _emit_parts(args, "components", [("component %d" % (k + 1), c, {})
                                      for k, c in enumerate(components)])
    _oracle_check(args, I, components, lambda orc, *gens: orc.intersect_all(gens, I.n))


def cmd_lattice_decomp(args):
    I = _get_ideal(args)
    rho = lat.character_of(I)
    if not lat.is_lattice_ideal(I):
        raise Refusal("ideal is not a lattice ideal; lattice decomposition "
                      "needs a pure variable-saturated ideal")
    components = [c for _, c in lat.lattice_primary_decomposition(rho, I.names)]
    _emit_parts(args, "components", [("component %d" % (k + 1), c, {})
                                      for k, c in enumerate(components)])
    _oracle_check(args, I, components, lambda orc, *gens: orc.intersect_all(gens, I.n))


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
    if args.vars:
        names = check_names(tuple(args.vars.replace(",", " ").split()))
    else:
        names = session and session.names
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
    target = []
    for entry in args.target.replace(",", " ").split():
        try:
            target.append(int(entry))
        except ValueError:
            raise InputError("--target entry %r is not an integer" % entry) from None
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


def cmd_congruence(args):
    _at_least_one(args, "max", "bound")
    I = _get_ideal(args)
    keys = ("cancellative", "prime", "primary", "mesoprimary", "toric")
    if args.action == "classify":
        c = cg.congruence(I)
        if not c.maximal:
            maximalized, complete = cg.maximal_ideal(I, args.bound)
            c = cg.congruence(maximalized)
            print("note: congruence maximalized (completeness %s)"
                  % ("certified" if complete else "unknown"), file=sys.stderr)
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

def _arg(*flags, **options):
    return flags, options


MATRIX = _arg("--matrix", required=True)
PREDICATE = "predicate; exit 1 when it fails"

# name, function, help, own arguments, kind: "ideal" reads an ideal
# (--ideal), "checked" reads one and cross-checks the result (--oracle),
# "matrix" reads a degree matrix (--matrix)
COMMANDS = (
    ("gb", cmd_gb, "reduced Groebner basis",
     [_arg("--order", help="lex | grevlex, optionally with a "
                           "variable list, e.g. lex(T,X,Y,Z)")], "checked"),
    ("nf", cmd_nf, "normal form of a monomial",
     [_arg("--term", required=True), _arg("--order")], "ideal"),
    ("eliminate", cmd_eliminate, "elimination ideal",
     [_arg("--keep", required=True, help="variables to keep")], "checked"),
    ("colon", cmd_colon, "ideal quotient by a monomial",
     [_arg("--monomial", required=True)], "checked"),
    ("saturate", cmd_saturate, "saturation at a variable set",
     [_arg("--vars", required=True)], "ideal"),
    ("intersect-monomial", cmd_intersect_monomial, "intersection with a monomial ideal",
     [_arg("--with", dest="with_ideal", required=True,
           help="name of the monomial ideal")], "checked"),
    ("pure-part", cmd_pure_part,
     "intersection with an augmentation ideal <X_i - lambda_i>",
     [_arg("--lambda", dest="lambdas", required=True,
           help="comma-separated scalar literals, one per variable")], "checked"),
    ("maximal", cmd_maximal, "congruence-maximal ideal",
     [_arg("--bound", type=int, help="total-degree bound of the nil search")], "ideal"),
    ("cellular", cmd_cellular, "cellular decomposition",
     [_arg("--prune", action="store_true",
           help="drop components containing another component")], "checked"),
    ("mesoprimes", cmd_mesoprimes, "associated mesoprimes", [], "ideal"),
    ("is-cellular", cmd_is_cellular, PREDICATE, [], "ideal"),
    ("is-mesoprimary", cmd_is_mesoprimary, PREDICATE, [], "ideal"),
    ("is-mesoprime", cmd_is_mesoprime, PREDICATE, [], "ideal"),
    ("is-prime", cmd_is_prime, PREDICATE, [], "ideal"),
    ("radical", cmd_radical, "radical of a cellular ideal", [], "ideal"),
    ("meso-primary-decomp", cmd_meso_primary_decomp,
     "primary decomposition of a mesoprimary ideal", [], "checked"),
    ("lattice-decomp", cmd_lattice_decomp,
     "primary decomposition of a lattice ideal", [], "checked"),
    ("toric", cmd_toric, "toric ideal of a degree matrix",
     [_arg("--matrix", required=True,
           help="inline rows like '3 4 5; 0 1 2' or a matrix name"),
      _arg("--vars", help="comma-separated variable names")], "matrix"),
    ("is-positive", cmd_is_positive, "positivity of the degree matrix",
     [MATRIX], "matrix"),
    ("fibers", cmd_fibers, "all factorizations of a degree",
     [MATRIX, _arg("--target", required=True, help="degree vector")], "matrix"),
    ("snf", cmd_snf, "Smith normal form", [MATRIX], "matrix"),
)

IDEAL_HELP = "name of the ideal to use"
JSON_HELP = "machine-readable output"


def build_parser():
    parser = argparse.ArgumentParser(
        prog="binomials",
        description="Exact computations with binomial ideals and the "
                    "monoid congruences they induce.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, text, arguments, kind in COMMANDS:
        p = sub.add_parser(name, help=text)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        if kind != "matrix":
            p.add_argument("--ideal", help=IDEAL_HELP)
        p.add_argument("file", nargs="?", help="session file (default: stdin)")
        p.add_argument("--json", action="store_true", help=JSON_HELP)
        if kind == "checked":
            p.add_argument("--oracle", action="store_true",
                           help="cross-check the result with the rational oracle")
        p.set_defaults(func=func)

    # its positionals differ: the action, then the file and two monomials
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
    p.add_argument("--ideal", help=IDEAL_HELP)
    p.add_argument("--json", action="store_true", help=JSON_HELP)
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
