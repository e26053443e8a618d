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
``PartialCharacter`` evaluations), then the other work: normal forms
(``engine._nf_exponent``), ``engine.ideal_equals`` calls, cellular
classifications (``cellular._classify``), ``Scalar`` constructions, the
S-pairs ``_reduced_basis`` queues (``heapq.heappush``) and reduces
(``heapq.heappop``) and ``Fraction`` constructions, then the Buchberger
runs of each slot and command (``decompose-cubic lattice-decomp: 27
commands, 189 runs, 7 each``), then one line per mismatch: an exit code or
stdout digest that differs from the reference, a traceback or a timeout.
Exits 1 when any command mismatches.

``count_pass`` is the one counting pass; tests/test_work_ledger.py pins
the counts it returns for the seed-0 pass of each workload.
"""

import argparse
import collections
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402

# the counts of the "Other work" line, printed without their module;
# queued S-pairs minus reduced ones are the pairs criterion B_k dropped
OTHER = ("engine._nf_exponent", "engine.ideal_equals", "cellular._classify",
         "scalars.Scalar.__new__", "engine.heapq.heappush", "engine.heapq.heappop",
         "scalars.Fraction.__new__")
# every counted callable, at the binding the package calls through: a
# module of the package, then attributes
COUNTED = ("engine._reduced_basis", "engine.e_divides", "lattices._hnf_rows",
           "lattices.smith_normal_form", "lattices.PartialCharacter.__call__") + OTHER
BUCHBERGER = COUNTED[0]

ORDER_KINDS = ("grevlex", "grevlex with X_i last", "lex", "elim")

Tally = collections.namedtuple("Tally", "counts kinds callers runs problems")


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


def count_pass(cmds, workdir):
    """Run ``cmds`` through ``binomials.cli.main`` in this process, check
    each against the reference, and count the calls of every callable in
    COUNTED.  Returns the counts by path, the Buchberger runs per order
    kind and per nearest caller outside ``engine.py``, the runs of each
    command by slot and command name, and the problems found."""
    run.write_sessions(workdir, cmds)
    runner = run.InProcessRunner(ROOT, workdir)
    checker = run.Checker(run.load_reference())
    counts = dict.fromkeys(COUNTED, 0)
    kinds = collections.Counter(dict.fromkeys(ORDER_KINDS, 0))
    callers, runs, originals = collections.Counter(), {}, []

    def wrap(path, owner, fn):
        def counted(*args, **kwargs):
            counts[path] += 1
            if path == BUCHBERGER:
                kinds[order_kind(args[1])] += 1
                callers[caller(owner)] += 1
            return fn(*args, **kwargs)
        return counted

    try:
        for path in COUNTED:
            module, *attrs, name = path.split(".")
            owner = importlib.import_module("binomials." + module)
            for attr in attrs:
                owner = getattr(owner, attr)
            originals.append((owner, name, vars(owner)[name]))
            setattr(owner, name, wrap(path, owner, getattr(owner, name)))
        for cmd in cmds:
            start = counts[BUCHBERGER]
            checker.check(cmd, runner.run(cmd), cmd.slot)
            runs.setdefault("%s %s" % (cmd.slot, cmd.name), []).append(
                counts[BUCHBERGER] - start)
    finally:
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)
    return Tally(counts, kinds, callers, runs, checker.problems)


def _listed(pairs):
    return ", ".join("%s %d" % pair for pair in pairs)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True,
                        choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    workdir = ROOT / run.WORKDIR / "reference_check"
    mismatched = False
    for name in args.workload:
        cmds = workloads.space(name)
        counts, kinds, callers, runs, problems = count_pass(cmds, workdir)
        print("%s: %d commands, %d mismatches, %d Buchberger runs, %d divisor tests"
              % (name, len(cmds), len(problems), counts[BUCHBERGER],
                 counts["engine.e_divides"]))
        print("  Buchberger runs by order: " + _listed(kinds.items()))
        print("  Buchberger runs by caller: " + _listed(callers.most_common()))
        print("  Lattice work: _hnf_rows %d, smith_normal_form %d, character evaluations %d"
              % (counts["lattices._hnf_rows"], counts["lattices.smith_normal_form"],
                 counts["lattices.PartialCharacter.__call__"]))
        print("  Other work: " + _listed((path.partition(".")[2], counts[path])
                                         for path in OTHER))
        for label, per in runs.items():
            each = ("%d" % per[0] if min(per) == max(per)
                    else "%d-%d" % (min(per), max(per)))
            print("  %s: %d commands, %d runs, %s each" % (label, len(per), sum(per), each))
        for problem in problems:
            print("  " + problem)
        mismatched = mismatched or bool(problems)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
