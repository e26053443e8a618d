#!/usr/bin/env python3
"""Run every command any seed can produce for the named perfbench workloads
in this process, and compare each with perfbench/reference.json.

Run from the repository root:

    python3 scripts/reference_check.py --workload decompose --workload quotient

Per workload it prints one line (commands, mismatches, Buchberger runs
counted at ``engine._reduced_basis`` and divisor tests counted at
``engine.e_divides``), then the Buchberger runs of each slot and command
(``decompose-cubic lattice-decomp: 27 commands, 243 runs, 9 each``), then
one line per mismatch: an exit code or stdout digest that differs from the
reference, a traceback or a timeout.  Exits 1 when any command mismatches.
"""

import argparse
import contextlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402


@contextlib.contextmanager
def counting(module, counts):
    """Count the calls of the module-level functions named in ``counts``."""
    originals = {name: getattr(module, name) for name in counts}

    def wrap(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
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
    from binomials import engine
    checker = run.Checker(run.load_reference())
    for name in args.workload:
        cmds = workloads.space(name)
        run.write_sessions(workdir, cmds)
        counts = dict.fromkeys(("_reduced_basis", "e_divides"), 0)
        before = len(checker.problems)
        runs = {}
        with counting(engine, counts):
            for cmd in cmds:
                start = counts["_reduced_basis"]
                checker.check(cmd, runner.run(cmd), name)
                runs.setdefault("%s %s" % (cmd.slot, cmd.name), []).append(
                    counts["_reduced_basis"] - start)
        found = checker.problems[before:]
        print("%s: %d commands, %d mismatches, %d Buchberger runs, %d divisor tests"
              % (name, len(cmds), len(found), counts["_reduced_basis"],
                 counts["e_divides"]))
        for label, per in runs.items():
            each = ("%d" % per[0] if min(per) == max(per)
                    else "%d-%d" % (min(per), max(per)))
            print("  %s: %d commands, %d runs, %s each" % (label, len(per), sum(per), each))
        for problem in found:
            print("  " + problem)
    return 1 if checker.problems else 0


if __name__ == "__main__":
    sys.exit(main())
