"""Smoke runs of the scripts under scripts/, each in a fresh interpreter."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


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
