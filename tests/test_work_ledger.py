"""The work ledger: Buchberger runs and lattice work of the seed-0
benchmark passes.

The seed-0 pass of each workload runs in this process, as
``scripts/reference_check.py`` runs the reference space, with every call of
``engine._reduced_basis``, ``lattices._hnf_rows``, ``ideal_equals`` and
``cellular._classify`` and every ``PartialCharacter`` evaluation counted,
and every output checked against ``perfbench/reference.json``.  Seeds change only coefficients, names and
pass order, not the algebra, so one seed covers the work.  The counts are
exact where times are not; a change that moves one updates LEDGER and names
the count in CHANGES.md.
"""

import sys
from pathlib import Path

import pytest

from binomials import cellular, engine, lattices

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402

# workload: (Buchberger runs of the whole pass, runs of single commands)
LEDGER = {
    "decompose": (126, {"decompose-lat6 lattice-decomp": 6,
                        "decompose-lat6 meso-primary-decomp": 6,
                        "decompose-latidx meso-primary-decomp": 6,
                        "decompose-mesoB mesoprimes": 3,
                        "decompose-paper cellular": 10,
                        "decompose-unmixed radical": 2}),
    "quotient": (12, {}),
    "toric": (40, {"toric-elim eliminate": 3}),
}


# workload: (_hnf_rows calls, character evaluations) of the whole pass
LATTICE_WORK = {"decompose": (84, 88), "quotient": (0, 0), "toric": (21, 0)}

# workload: ideal_equals calls of the whole pass, through any module's binding
IDEAL_EQUALS = {"decompose": 2, "quotient": 0, "toric": 0}

# workload: cellular classifications (``cellular._classify``) of the whole pass
CLASSIFICATIONS = {"decompose": 30, "quotient": 0, "toric": 0}


def _counted(monkeypatch, owner, name, calls):
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda *args: calls.append(args) or real(*args))


@pytest.mark.parametrize("workload", sorted(LEDGER))
def test_buchberger_runs(workload, tmp_path, monkeypatch):
    total, pinned = LEDGER[workload]
    cmds = workloads.commands(workload, 0)
    run.write_sessions(tmp_path, cmds)
    runner = run.InProcessRunner(ROOT, tmp_path)
    checker = run.Checker(run.load_reference())
    calls, hnfs, evaluations, equals, classified = [], [], [], [], []
    _counted(monkeypatch, engine, "_reduced_basis", calls)
    _counted(monkeypatch, lattices, "_hnf_rows", hnfs)
    _counted(monkeypatch, lattices.PartialCharacter, "__call__", evaluations)
    for owner in (engine, cellular):
        _counted(monkeypatch, owner, "ideal_equals", equals)
    _counted(monkeypatch, cellular, "_classify", classified)
    runs = {}
    for cmd in cmds:
        before = len(calls)
        checker.check(cmd, runner.run(cmd), workload)
        label = "%s %s" % (cmd.slot, cmd.name)
        runs[label] = runs.get(label, 0) + len(calls) - before
    assert checker.problems == []
    assert (len(calls), {label: runs[label] for label in pinned}) == (total, pinned)
    assert (len(hnfs), len(evaluations)) == LATTICE_WORK[workload]
    assert len(equals) == IDEAL_EQUALS[workload]
    assert len(classified) == CLASSIFICATIONS[workload]
