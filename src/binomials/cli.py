"""Command-line interface.

One command per invocation; reads a session file (or stdin), prints
deterministic results to stdout, diagnostics to stderr.  Exit codes:
0 success, 1 mathematical refusal (the message names the violated
precondition), 2 input error, 141 when the reader of stdout went away.

A process loads only what its command runs: this module imports the
parsing layer (with ``orders`` and ``errors``), the first ideal or
coefficient parsed loads ``engine`` and ``scalars``, and each command
imports the algebra modules it calls, so a literal ``--matrix`` command
loads ``lattices`` alone.  ``main`` builds the parser of the named command
alone (the full one only for top-level help and a missing or unknown
command), reads that command's input once (``_read_input``) and passes it
on: the selected ideal, or the degree matrix.

``run`` is the process entry (``python -m binomials.cli`` and the
``binomials`` script): it calls ``main`` and then freezes the garbage
collector, so that the interpreter's shutdown skips collecting every object
the command built.  Output, atexit handlers and the exit status are
unchanged.  Code that stays alive after a command, such as the tests, calls
``main``, which leaves the collector as it is.
"""

import argparse
import gc
import os
import re
import sys

from .errors import InputError, NotMesoprimaryError, ParseError, Refusal
from .orders import unit
from .parsing import (check_names, ideal_json, ideal_text, monomial_str,
                      parse_binomial, parse_input, parse_matrix_literal,
                      parse_order, parse_scalar, parse_single_term,
                      printed_basis, table_json, table_text, term_str)


def _read_input(args):
    """The input of the command of ``args``, read once and in one order: the
    budget flags, the session, ``--ideal``, ``--with``.  An ideal command
    gets the ideal ``--ideal`` selects (intersect-monomial also the one
    ``--with`` selects); a matrix command gets the degree matrix and the
    session, which is None for a literal ``--matrix`` without a file:
    stdin may then be a pipe that never closes, so it is not read."""
    for flag in ("max", "bound"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            raise InputError("--%s must be at least 1, got %d" % (flag, value))
    matrix = getattr(args, "matrix", None)
    literal = matrix is not None and re.fullmatch(r"[\d\s;\-]+", matrix)
    session = None
    if args.file or not literal:
        try:
            if args.file and args.file != "-":
                with open(args.file) as handle:
                    text = handle.read()
            elif not sys.stdin.isatty():
                text = sys.stdin.read()
            else:
                raise InputError("no input: pass a file or pipe a session on stdin")
        except UnicodeDecodeError as exc:
            raise InputError("input is not text: %s" % exc) from None
        session = parse_input(text)
    if matrix is not None:
        return (parse_matrix_literal(matrix) if literal
                else session.named("matrix", matrix)), session
    ideals = [session.only_ideal(args.ideal)]
    if "with_ideal" in args:
        ideals.append(session.only_ideal(args.with_ideal))
    return ideals


def _order(args, names):
    return parse_order(args.order, names) if args.order else None


def _listed(spec):
    """The entries of a comma- or space-separated flag value."""
    return spec.replace(",", " ").split()


def _keep_indices(spec, names):
    for s in _listed(spec):
        if s not in names:
            raise InputError("unknown variable %r" % s)
    return sorted({names.index(s) for s in _listed(spec)})


def _var_list(names, indices):
    return ",".join(names[i] for i in sorted(indices))


def _monomial_arg(text, names, command):
    """A one-term argument as a monomial, or a two-term one as its binomial,
    which the caller refuses in its own words.  ``command`` refuses a
    coefficient other than 1 rather than silently dropping it."""
    from . import engine as eng
    try:
        coeff, exponent = parse_single_term(text, names)
    except ParseError:
        b = parse_binomial(text, names)
        if b.trail is None:
            raise  # not a binomial either: the single-term error stands
        return b
    if not coeff.is_one():
        raise InputError("%s expects monomials with coefficient 1, got %r"
                         % (command, text))
    return eng.Binomial(exponent)


def _emit(args, payload, lines):
    """Print a result: with --json, ``payload()`` as one line of JSON with
    sorted keys, otherwise each of ``lines()``.  Both are functions, so only
    the form printed is built; json is imported only when it is used."""
    if args.json:
        import json
        print(json.dumps(payload(), sort_keys=True))
    else:
        for line in lines():
            print(line)


def _indented(blocks):
    """Text lines of ``(header, lines)`` blocks, each line indented."""
    for header, lines in blocks:
        yield header
        for line in lines:
            yield "  " + line


def _emit_ideal(args, I, order=None):
    """Print I's ``printed_basis`` under ``order`` and return it."""
    _emit(args, lambda: ideal_json(I, order), lambda: ideal_text(I, order))
    return printed_basis(I, order)


def _emit_parts(args, key, parts):
    """Print ``(header, ideal, extra JSON fields)`` parts: each header and its
    indented basis, or with --json one object listing the parts under ``key``."""
    _emit(args, lambda: {key: [dict(extra, generators=ideal_json(J)["generators"])
                               for _, J, extra in parts]},
          lambda: _indented((header, ideal_text(J)) for header, J, _ in parts))


def _oracle_check(args, expected, sources, construct):
    """With --oracle, check the binomial list ``expected`` with the rational
    oracle: ``construct`` gets the oracle module, then each binomial list of
    ``sources`` as rational polynomials, and must return generators of the
    ideal ``expected`` generates.  Every list is one the command printed or
    one it was given, so the check runs no engine computation and an engine
    fault cannot check itself.  Skipped when a coefficient is outside Q; a
    mismatch refuses.  The oracle is imported here, so a run without
    --oracle never loads it."""
    if not args.oracle:
        return
    from . import oracle as orc
    try:
        expected = orc.from_binomials(expected)
        gens = [orc.from_binomials(b) for b in sources]
    except ValueError:
        print("oracle: skipped (coefficients outside Q)")
        return
    if not orc.ideal_equal(construct(orc, *gens), expected):
        print("oracle: MISMATCH")
        raise Refusal("oracle cross-check failed")
    print("oracle: verified")


def _emit_components(args, I, parts):
    """``_emit_parts`` under "components", then with --oracle the check that
    the part ideals intersect to I."""
    _emit_parts(args, "components", parts)
    _oracle_check(args, I.gens, [printed_basis(J) for _, J, _ in parts],
                  lambda orc, *gens: orc.intersect_all(gens, I.n))


# ---------------------------------------------------------------------------
# commands

def cmd_gb(args, I):
    _oracle_check(args, _emit_ideal(args, I, _order(args, I.names)), [I.gens],
                  lambda orc, g: g)


def cmd_nf(args, I):
    from . import engine as eng
    order = _order(args, I.names)
    coeff, exponent = parse_single_term(args.term, I.names)
    nf = eng.normal_form(eng.Term(coeff, exponent), I.groebner(order))
    _emit(args, lambda: {"zero": nf is None, "term": nf and {"coeff": str(nf.coeff),
                                                             "exponent": nf.exponent}},
          lambda: [term_str(*nf, I.names) if nf else "0"])


def cmd_eliminate(args, I):
    from . import engine as eng
    keep = _keep_indices(args.keep, I.names)
    if not keep:
        raise InputError("--keep must name at least one variable")
    printed = _emit_ideal(args, eng.eliminate(I, keep))
    block = [i for i in range(I.n) if i not in keep]
    _oracle_check(args, printed, [I.gens], lambda orc, g: orc.rational_eliminate(g, block))


def cmd_colon(args, I):
    from . import engine as eng
    b = _monomial_arg(args.monomial, I.names, "colon")
    printed = _emit_ideal(args, eng.colon(I, b))  # refuses a binomial
    _oracle_check(args, printed, [I.gens, [b]],
                  lambda orc, g, f: orc.rational_colon_poly(g, f[0], I.n))


def cmd_saturate(args, I):
    from . import engine as eng
    sigma = _keep_indices(args.vars, I.names)
    _emit_ideal(args, eng.saturate_vars(I, sigma))


def cmd_intersect_monomial(args, I, M):
    from . import engine as eng
    _oracle_check(args, _emit_ideal(args, eng.intersect(I, M)), [I.gens, M.gens],
                  lambda orc, g, m: orc.rational_intersect(g, m, I.n))


def cmd_pure_part(args, I):
    from . import engine as eng
    lambdas = [parse_scalar(chunk.strip() or "1")
               for chunk in args.lambdas.split(",")]
    printed = _emit_ideal(args, eng.pure_part(I, lambdas))
    # the generators X_i - lambda_i of the augmentation ideal
    aug = [eng.binomial(unit(I.n, i), (0,) * I.n, lam) for i, lam in enumerate(lambdas)]
    _oracle_check(args, printed, [I.gens, aug],
                  lambda orc, g, a: orc.rational_intersect(g, a, I.n))


def cmd_maximal(args, I):
    from . import congruences as cg
    out, complete = cg.maximal_ideal(I, args.bound)
    _emit(args, lambda: dict(ideal_json(out), complete=complete),
          lambda: ideal_text(out) + ["complete: %s" % ("yes" if complete else "unknown")])


def cmd_cellular(args, I):
    from .cellular import cellular_decompose
    _emit_components(args, I, [
        ("component %d (delta = %s)" % (k + 1, _var_list(I.names, c.delta) or "-"),
         c.ideal, {"delta": sorted(c.delta),
                   "nilpotency": [list(x) for x in c.nilpotency]})
        for k, c in enumerate(cellular_decompose(I, prune_components=args.prune))])


def cmd_mesoprimes(args, I):
    from . import mesoprimary as meso
    from .cellular import as_cellular
    comp = as_cellular(I)
    if comp is None:
        raise Refusal("ideal is not cellular; associated mesoprimes are "
                      "defined for cellular ideals")
    _emit_parts(args, "mesoprimes", [
        ("mesoprime (witness %s)" % monomial_str(witness, I.names), J,
         {"delta": sorted(m.delta), "witness": list(witness)})
        for m, witness, J in meso.associated_mesoprimes(comp)])


def cmd_is_cellular(args, I):
    from .cellular import is_cellular
    delta = is_cellular(I)
    if delta is None:
        raise Refusal("ideal is not cellular: some variable is a "
                      "non-nilpotent zerodivisor")
    _emit(args, lambda: {"cellular": True, "delta": sorted(delta)},
          lambda: ["cellular: delta = {%s}" % _var_list(I.names, delta)])


def cmd_is_mesoprimary(args, I):
    from . import mesoprimary as meso
    ok, witness = meso.is_mesoprimary(I)
    if not ok:
        detail = ("not cellular" if witness is None else
                  "witness %s" % monomial_str(witness, I.names))
        raise NotMesoprimaryError("ideal is not mesoprimary (%s)" % detail,
                                  witness=witness)
    _emit(args, lambda: {"mesoprimary": True}, lambda: ["mesoprimary"])


def cmd_is_mesoprime(args, I):
    from . import mesoprimary as meso
    m = meso.is_mesoprime(I)
    if m is None:
        raise Refusal("ideal is not mesoprime: it is not of the form "
                      "lattice part plus complement variables")
    _emit(args, lambda: {"mesoprime": True, "delta": sorted(m.delta),
                         "lattice": m.character.lattice.basis},
          lambda: ["mesoprime: delta = {%s}" % _var_list(I.names, m.delta)])


def cmd_is_prime(args, I):
    from . import mesoprimary as meso
    if not meso.is_prime(I):
        raise Refusal("ideal is not prime: not a mesoprime with saturated lattice")
    _emit(args, lambda: {"prime": True}, lambda: ["prime"])


def cmd_radical(args, I):
    from . import mesoprimary as meso
    from .cellular import as_cellular
    comp = as_cellular(I)
    if comp is None:
        raise Refusal("radical is computed for cellular ideals; decompose first")
    _emit_ideal(args, meso.delta_part(comp.ideal, comp.delta))


def cmd_meso_primary_decomp(args, I):
    from . import mesoprimary as meso
    _emit_components(args, I, [("component %d" % (k + 1), c, {}) for k, c in
                               enumerate(meso.mesoprimary_primary_decomposition(I))])


def cmd_lattice_decomp(args, I):
    from . import lattices as lat
    rho = lat.character_of(I)
    if not lat.is_lattice_ideal(I):
        raise Refusal("ideal is not a lattice ideal; lattice decomposition "
                      "needs a pure variable-saturated ideal")
    _emit_components(args, I, [("component %d" % (k + 1), c, {}) for k, (_, c) in
                               enumerate(lat.lattice_primary_decomposition(rho, I.names))])


def cmd_toric(args, A, session):
    from . import lattices as lat
    if args.vars:
        names = check_names(tuple(_listed(args.vars)))
    else:
        names = session and session.names
    if not names:
        names = tuple("X%d" % (i + 1) for i in range(len(A[0])))
    I = lat.toric_ideal(A, names)
    _emit_ideal(args, I)


def cmd_is_positive(args, A, _session):
    from . import lattices as lat
    positive = lat.is_positive(A)
    _emit(args, lambda: {"positive": positive},
          lambda: ["positive" if positive else "not positive"])
    return 0 if positive else 1


def cmd_fibers(args, A, _session):
    from . import lattices as lat
    target = []
    for entry in _listed(args.target):
        try:
            target.append(int(entry))
        except ValueError:
            raise InputError("--target entry %r is not an integer" % entry) from None
    out = lat.fibers(A, target)
    _emit(args, lambda: {"fibers": out},
          lambda: (" ".join(map(str, u)) for u in out))


def cmd_snf(args, A, _session):
    from . import lattices as lat
    form = lat.smith_normal_form(A)
    _emit(args, form._asdict,
          lambda: _indented(("%s:" % tag, [" ".join(map(str, row)) for row in M])
                            for tag, M in zip(form._fields, form)))


def cmd_congruence(args, I):
    from . import congruences as cg
    if args.action == "related" and not (args.u and args.v):
        raise InputError("related needs two monomial arguments")
    c = cg.congruence(I)
    if args.action == "classify":
        if not c.maximal:
            maximalized, _ = cg.maximal_ideal(I, args.bound)
            c = cg.congruence(maximalized)
            # maximal_ideal certifies completeness only for an I already maximal
            print("note: congruence maximalized (completeness unknown)", file=sys.stderr)
        flags = cg.classify_congruence(c)
        _emit(args, flags._asdict,
              lambda: ["%s: %s" % (k, "yes" if v else "no")
                       for k, v in zip(flags._fields, flags)])
    elif args.action == "related":
        exps = []
        for text in (args.u, args.v):
            b = _monomial_arg(text, I.names, "related")
            if b.trail is not None:
                raise InputError("related expects monomial arguments")
            exps.append(b.lead)
        ok = cg.related(c, *exps)
        _emit(args, lambda: {"related": ok},
              lambda: ["related" if ok else "not related"])
    elif args.action == "table":
        qt = cg.quotient_table(c, args.max)
        _emit(args, lambda: table_json(qt, I.names),
              lambda: [table_text(qt, I.names)])


# ---------------------------------------------------------------------------

def _arg(*flags, **options):
    return flags, options


MATRIX = _arg("--matrix", required=True)
PREDICATE = "predicate; exit 1 when it fails"
ACTIONS = ("classify", "related", "table")


def _invalid_choice(value, choices):
    """argparse's error for a value outside ``choices``, written out: later
    3.12 and 3.13 releases of argparse (3.13.13) leave the choices unquoted."""
    return "invalid choice: %r (choose from %s)" % (value, ", ".join(map(repr, choices)))


def _action(value):
    """The ``congruence`` action, checked with the written-out error."""
    if value not in ACTIONS:
        raise argparse.ArgumentTypeError(_invalid_choice(value, ACTIONS))
    return value


# name, function, help, own arguments, kind: "ideal" takes an ideal
# (--ideal), "checked" takes one and cross-checks the result (--oracle),
# "matrix" takes a degree matrix (--matrix), "congruence" takes an action
# and its own file and monomial positionals
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
    ("congruence", cmd_congruence, "congruence queries",
     [_arg("action", choices=ACTIONS, type=_action),  # choices for -h
      _arg("file", nargs="?", help="session file ('-' for stdin)"),
      _arg("u", nargs="?", help="first monomial (related)"),
      _arg("v", nargs="?", help="second monomial (related)"),
      _arg("--max", type=int, default=64, help="class budget (table)"),
      _arg("--bound", type=int, help="nil-search bound (classify)")], "congruence"),
)

NAMES = tuple(name for name, *_ in COMMANDS)

# the arguments each kind adds after a command's own
IDEAL = _arg("--ideal", help="name of the ideal to use")
FILE = _arg("file", nargs="?", help="session file (default: stdin)")
JSON = _arg("--json", action="store_true", help="machine-readable output")
KINDS = {"ideal": [IDEAL, FILE, JSON], "matrix": [FILE, JSON],
         "checked": [IDEAL, FILE, JSON,
                     _arg("--oracle", action="store_true",
                          help="cross-check the result with the rational oracle")],
         "congruence": [IDEAL, JSON]}

# written-out usage: congruence's positionals are read in one order, the
# action, then the file and the two monomials
USAGE = {"congruence": "binomials congruence {classify,related,table} [file] [u] [v] "
                       "[options]   (keep file/u/v together; options before or after)"}


def build_parser(command=None):
    """The parser of every command, or of ``command`` alone."""
    parser = argparse.ArgumentParser(
        prog="binomials",
        description="Exact computations with binomial ideals and the "
                    "monoid congruences they induce.")
    sub = parser.add_subparsers(dest="command", required=True)
    # written out, so that it reads the same on every Python, and set after
    # add_subparsers, which derives each command's prog from the usage; the
    # lines after the first are indented past "usage: binomials "
    parser.usage = "%%(prog)s [-h]\n%17s{%s}\n%17s..." % (
        "", ",".join(NAMES), "")
    for name, func, text, arguments, kind in COMMANDS:
        if command in (None, name):
            p = sub.add_parser(name, help=text, usage=USAGE.get(name))
            for flags, options in arguments + KINDS[kind]:
                p.add_argument(*flags, **options)
            p.set_defaults(func=func)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    # Only the named command's parser is built: its help and its errors,
    # unrecognized arguments included, read as in the full parser, whose
    # written-out usage it shares.  The full parser is built only for
    # top-level help and a missing or unknown command.  An unknown command
    # in first place is reported here, in the words of ``_invalid_choice``.
    named = argv and argv[0] in NAMES
    parser = build_parser(argv[0] if named else None)
    if argv and not named and not argv[0].startswith("-"):
        parser.error("argument command: " + _invalid_choice(argv[0], NAMES))
    args = parser.parse_args(argv)
    try:
        code = args.func(args, *_read_input(args)) or 0
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout went away (``| head``): stop without a word,
        # with the status a shell shows for SIGPIPE; what is still buffered
        # goes to os.devnull, so the flush at exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except Refusal as exc:
        print("refused: %s" % exc, file=sys.stderr)
        return 1
    except (InputError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def run():
    """``main`` for a process that ends with it: the heap is frozen on the way
    out, so shutdown skips the collection of what the command built."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
