#!/usr/bin/env python3
"""Run every command any seed can produce for the named perfbench workloads
in this process, and compare each with perfbench/reference.json.

Run from the repository root:

    python3 scripts/reference_check.py --workload decompose --workload quotient

Per workload it prints one line (commands, mismatches, Buchberger runs
counted at ``engine._reduced_basis`` and divisor tests counted at
``engine.e_divides``), then the Buchberger runs per order kind (grevlex,
grevlex with X_i last, lex, elim), then the Buchberger runs per nearest
caller outside ``engine.py`` as ``module.function``, most runs first
(``cli.cmd_eliminate 18``), then the lattice work (calls of
``lattices._hnf_rows`` and ``smith_normal_form``, and
``PartialCharacter`` evaluations), then the Buchberger runs of
each slot and command (``decompose-cubic lattice-decomp: 27 commands, 189
runs, 7 each``), then one line per mismatch: an exit code or stdout digest
that differs from the reference, a traceback or a timeout.  Exits 1 when
any command mismatches.
"""

import argparse
import collections
import contextlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402


ORDER_KINDS = ("grevlex", "grevlex with X_i last", "lex", "elim")


def order_kind(order):
    """The kind of a Buchberger run's order.  The colon chain runs grevlex
    with X_i moved last, which is plain grevlex for the last variable."""
    if order.kind != "grevlex" or order.perm is None:
        return order.kind
    rest = list(order.perm[:-1])
    return ORDER_KINDS[1] if rest == sorted(rest) else "grevlex, permuted"


def caller(module):
    """``module.function`` of the nearest frame outside ``module`` on the
    stack of the counted call, without the package prefix."""
    frame = sys._getframe(2)
    while frame.f_code.co_filename == module.__file__:
        frame = frame.f_back
    return "%s.%s" % (frame.f_globals["__name__"].rpartition(".")[2],
                      frame.f_code.co_name)


@contextlib.contextmanager
def counting(module, counts, kinds=None, callers=None):
    """Count the calls of the functions named in ``counts``, attributes of
    a module or a class, and the ``_reduced_basis`` calls per order kind in
    ``kinds`` and per nearest caller outside ``module`` in ``callers``."""
    originals = {name: getattr(module, name) for name in counts}

    def wrap(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            if name == "_reduced_basis":
                kinds[order_kind(args[1])] += 1
                callers[caller(module)] += 1
            return fn(*args, **kwargs)
        return counted

    for name, fn in originals.items():
        setattr(module, name, wrap(name, fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True,
                        choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    workdir = ROOT / run.WORKDIR / "reference_check"
    runner = run.InProcessRunner(ROOT, workdir)
    from binomials import engine, lattices
    checker = run.Checker(run.load_reference())
    for name in args.workload:
        cmds = workloads.space(name)
        run.write_sessions(workdir, cmds)
        counts = dict.fromkeys(("_reduced_basis", "e_divides"), 0)
        before = len(checker.problems)
        runs, kinds = {}, collections.Counter(dict.fromkeys(ORDER_KINDS, 0))
        callers = collections.Counter()
        work = dict.fromkeys(("_hnf_rows", "smith_normal_form"), 0)
        evaluations = {"__call__": 0}
        with counting(engine, counts, kinds, callers), counting(lattices, work), \
                counting(lattices.PartialCharacter, evaluations):
            for cmd in cmds:
                start = counts["_reduced_basis"]
                checker.check(cmd, runner.run(cmd), name)
                runs.setdefault("%s %s" % (cmd.slot, cmd.name), []).append(
                    counts["_reduced_basis"] - start)
        found = checker.problems[before:]
        print("%s: %d commands, %d mismatches, %d Buchberger runs, %d divisor tests"
              % (name, len(cmds), len(found), counts["_reduced_basis"],
                 counts["e_divides"]))
        print("  Buchberger runs by order: "
              + ", ".join("%s %d" % kind for kind in kinds.items()))
        print("  Buchberger runs by caller: "
              + ", ".join("%s %d" % each for each in callers.most_common()))
        print("  Lattice work: " + ", ".join("%s %d" % each for each in work.items())
              + ", character evaluations %d" % evaluations["__call__"])
        for label, per in runs.items():
            each = ("%d" % per[0] if min(per) == max(per)
                    else "%d-%d" % (min(per), max(per)))
            print("  %s: %d commands, %d runs, %s each" % (label, len(per), sum(per), each))
        for problem in found:
            print("  " + problem)
    return 1 if checker.problems else 0


if __name__ == "__main__":
    sys.exit(main())
