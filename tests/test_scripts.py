"""Smoke runs of the scripts under scripts/, each in a fresh interpreter."""

import hashlib
import importlib.util
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


# the breakdowns ("name N, name N") that follow the first line
BREAKDOWNS = {"reference_check.py": ["  Buchberger runs by order: grevlex ",
                                     "  Buchberger runs by caller: lattices._lattice_ideals "]}
# the line after the breakdowns; the toric ideals evaluate no character
AFTER = {"reference_check.py": r"  Lattice work: _hnf_rows \d+, smith_normal_form \d+, "
                               r"character evaluations 0"}


@pytest.mark.parametrize("argv, first", [
    (["random_crosscheck.py", "--trials", "10", "--seed", "7"], "ok: 10 trials"),
    (["worked_examples.py"], "== toric ideal of [3 4 5]"),
    (["reference_check.py", "--workload", "toric"], "toric: 97 commands, 0 mismatches,"),
])
def test_script_runs(argv, first):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0])] + argv[1:],
                         cwd=str(ROOT), env=env, stdin=subprocess.DEVNULL,
                         capture_output=True, text=True, timeout=300)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.startswith(first)
    lines, heads = out.stdout.splitlines(), BREAKDOWNS.get(argv[0], [])
    assert [line[:len(head)] for line, head in zip(lines[1:], heads)] == heads
    for line in lines[1:1 + len(heads)]:
        # each breakdown adds up to the runs of the workload line
        parts = line.split(": ", 1)[1].split(", ")
        assert (sum(int(part.rsplit(" ", 1)[1]) for part in parts)
                == int(lines[0].split(", ")[2].split()[0])), line
    if argv[0] in AFTER:
        assert re.fullmatch(AFTER[argv[0]], lines[1 + len(heads)]), lines[1 + len(heads)]


def test_random_crosscheck_catches_a_wrong_basis(capsys, monkeypatch):
    # a basis with every two-term coefficient negated generates another
    # ideal; the first check, engine basis against the drawn generators,
    # must say so
    from binomials import engine
    spec = importlib.util.spec_from_file_location(
        "random_crosscheck", ROOT / "scripts" / "random_crosscheck.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    real = engine._reduced_basis
    monkeypatch.setattr(engine, "_reduced_basis", lambda gens, order: tuple(
        b if b.trail is None else b._replace(coeff=b.coeff.negate())
        for b in real(gens, order)))
    assert script.main(["--trials", "10", "--seed", "7"]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("FAIL")]
    assert fails[0].startswith("FAIL gb at trial "), fails


# sha256 of the stdout of worked_examples.py: its results change only on purpose
WORKED_EXAMPLES_SHA256 = "860bdfb04a3446f514feb220ee7498770946ba4d3adff6f634c5d5b3ee0f9138"


def test_worked_examples_output_is_pinned():
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "worked_examples.py")],
                         cwd=str(ROOT), env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                         stdin=subprocess.DEVNULL, capture_output=True, timeout=300)
    assert (out.returncode, out.stderr) == (0, b"")
    assert hashlib.sha256(out.stdout).hexdigest() == WORKED_EXAMPLES_SHA256
