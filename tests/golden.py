"""The recorded CLI runs of ``cli_golden.json`` and the harness that replays them.

Each case runs ``binomials.cli.main`` in process on one session file and
keeps the exit code, stdout and stderr: text and ``--json`` mode for every
subcommand, ``--oracle`` on the commands that cross-check, refusals (exit 1)
and parse errors (exit 2).  This module imports no test framework, so every
supported interpreter can replay the file:

    PYTHONPATH=src python tests/golden.py --check   # exit 1 on any mismatch,
                                                    # naming the fields that differ
    PYTHONPATH=src python tests/golden.py           # record the file again

Record only from a version whose outputs are trusted: the file is the
reference that keeps a rewrite of the CLI byte-identical.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

from binomials.cli import main

DATA = Path(__file__).with_name("cli_golden.json")
FILE = "session.txt"

# the sessions of tests/test_cli.py, then a root-of-unity lattice ideal
# (the oracle's skipped path), a two-ideal session and a matrix session
SESSIONS = {
    "um": "ring X Y\nideal I\nX^2 - 1\nX*Y - Y\nY^2\n",
    "paper": "ring X Y Z\nideal I\nX^4*Y^2 - Z^6\nX^3*Y^2 - Z^5\nX^2 - Y*Z\n",
    "nilq": "ring X Y\nideal I\nX - Y\nY^2\n",
    "param": "ring T X Y Z\nideal I\nX - T^3\nY - T^4\nZ - T^5\n",
    "maxq": "ring X Y\nideal I\nX - Y\nY^3 - Y^2\n",
    "lattice": "ring X Y\nideal I\nX^2 - Y^2\n",
    "mpd": "ring X Y\nideal I\nX^2 - 1\nY^2\n",
    "cube": "ring X\nideal I\nX^3 - 1\n",
    "line": "ring X Y\nideal I\nX - Y\n",
    "zeta": "ring X Y\nideal I\nX^2 - zeta(4,1)*Y^2\n",
    "two": "ring X Y\nideal I\nX^2 - Y^2\nideal M\nX*Y\nY^3\n",
    "matrix": "ring X Y Z W\nmatrix A\n1 1 1 1\n0 1 2 3\nmatrix B\n3 4 5\n",
    "unknown": "ring X\nideal I\nX - Y\n",
    "ring": "ring A B C\n",
}
IDEAL_SESSIONS = ("um", "paper", "nilq", "param", "maxq", "lattice", "mpd",
                  "cube", "line", "zeta", "two")
CHECKING = ("gb", "eliminate", "colon", "intersect-monomial", "pure-part",
            "cellular", "meso-primary-decomp", "lattice-decomp")


def _ideal_commands(names, other):
    """(command, extra arguments) for an ideal over the ring ``names``;
    ``other`` names the ideal to intersect with."""
    yield "gb", []
    yield "gb", ["--order", "lex"]
    yield "nf", ["--term", "2*" + "*".join(v + "^3" for v in names)]
    yield "eliminate", ["--keep", ",".join(names[1:] or names)]
    yield "colon", ["--monomial", names[-1]]
    yield "saturate", ["--vars", names[-1]]
    yield "intersect-monomial", ["--with", other]
    yield "pure-part", ["--lambda", ",".join("1" for _ in names)]
    yield "maximal", ["--bound", "4"]
    yield "cellular", []
    yield "cellular", ["--prune"]
    for command in ("mesoprimes", "is-cellular", "is-mesoprimary", "is-mesoprime",
                    "is-prime", "radical", "meso-primary-decomp", "lattice-decomp"):
        yield command, []
    yield "congruence", ["classify"]
    yield "congruence", ["related", names[0], names[-1]]
    yield "congruence", ["table", "--max", "40"]


def _modes(command):
    return ([], ["--json"], ["--oracle"]) if command in CHECKING else ([], ["--json"])


def _cases():
    """(session name, argv) for every recorded case."""
    for name in IDEAL_SESSIONS:
        names = SESSIONS[name].split("\n")[0].split()[1:]
        chosen, other = (["--ideal", "I"], "M") if name == "two" else ([], "I")
        for command, extra in _ideal_commands(names, other):
            for mode in _modes(command):
                if command == "congruence":
                    # the action and the file are positionals of their own
                    argv = [command, extra[0], FILE] + extra[1:]
                else:
                    argv = [command, FILE] + extra
                yield name, argv + chosen + mode
    for matrix in ("3 4 5", "1 1 1 1; 0 1 2 3", "1 -1", "2 -2", "A", "B"):
        session = "matrix" if matrix in ("A", "B") else None
        file = [FILE] if session else []
        target = "3 3" if matrix.count(";") or matrix == "A" else "12"
        for mode in ([], ["--json"]):
            yield session, ["toric", "--matrix", matrix] + file + mode
            yield session, ["is-positive", "--matrix", matrix] + file + mode
            yield session, ["fibers", "--matrix", matrix, "--target", target] + file + mode
            yield session, ["snf", "--matrix", matrix] + file + mode
    yield None, ["toric", "--matrix", "3 4 5", "--vars", "X,Y,Z"]
    yield "ring", ["toric", "--matrix", "3 4 5", FILE]
    # refusals and input errors that the loops above do not reach
    yield "two", ["gb", FILE]
    yield "two", ["intersect-monomial", FILE, "--ideal", "M", "--with", "I"]
    yield "two", ["gb", FILE, "--ideal", "K"]
    yield "unknown", ["gb", FILE]
    yield "unknown", ["gb", FILE, "--oracle"]
    yield "um", ["gb", FILE, "--order", "deglex"]
    yield "um", ["gb", FILE, "--order", "lex(X)"]
    yield "um", ["nf", FILE, "--term", "X - Y"]
    yield "um", ["eliminate", FILE, "--keep", "Q"]
    yield "cube", ["colon", FILE, "--monomial", "X - 1", "--oracle"]
    yield "um", ["pure-part", FILE, "--lambda", "1,x"]
    yield "nilq", ["congruence", "related", FILE, "X"]
    yield "nilq", ["congruence", "related", FILE, "X", "X - Y"]
    yield "line", ["congruence", "table", FILE, "--max", "10", "--json"]
    yield None, ["gb", "missing.txt"]
    yield None, ["gb"]
    yield None, ["fibers", "--matrix", "3 4 5", "--target", "1 2"]
    yield None, ["snf", "--matrix", "1 2; 3"]
    yield None, ["snf", "--matrix", "Z"]
    # parse errors (argparse exits 2)
    yield None, []
    yield None, ["frobnicate"]
    yield None, ["gb", "--bogus"]
    yield None, ["colon", FILE]
    yield None, ["eliminate", FILE, "--oracle"]
    yield None, ["cellular", FILE, "--prune", "yes", "extra"]
    yield None, ["lattice-decomp", "--json", "--oracle", "a", "b"]
    yield None, ["congruence"]
    yield None, ["congruence", "sort", FILE]
    yield None, ["congruence", "table", FILE, "--max", "many"]


def run_case(session, argv, workdir):
    """Exit code, stdout and stderr of ``main(argv)`` run in ``workdir``
    with ``session`` as the session file, an empty stdin and a terminal 80
    columns wide, the width argparse wraps usage lines at."""
    path = Path(workdir) / FILE
    if session is None:
        path.unlink(missing_ok=True)
    else:
        path.write_text(SESSIONS[session])
    out, err = io.StringIO(), io.StringIO()
    cwd, stdin = os.getcwd(), sys.stdin
    os.chdir(workdir)
    sys.stdin = io.StringIO("")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch.dict(os.environ, COLUMNS="80"):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
        sys.stdin = stdin
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def load():
    with open(DATA) as handle:
        return json.load(handle)


def _record(workdir):
    recorded = [dict(session=session, argv=argv, **run_case(session, argv, workdir))
                for session, argv in _cases()]
    with open(DATA, "w") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("%d cases written to %s" % (len(recorded), DATA))
    return 0


def _check(workdir):
    cases = load()
    mismatches = 0
    for case in cases:
        got = run_case(case["session"], case["argv"], workdir)
        differ = [k for k in ("code", "stdout", "stderr") if got[k] != case[k]]
        if differ:
            mismatches += 1
            print("MISMATCH binomials %s (%s differs)"
                  % (" ".join(case["argv"]), ", ".join(differ)))
    print("%d cases replayed, %d mismatches (Python %s)"
          % (len(cases), mismatches, sys.version.split()[0]))
    return 1 if mismatches else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="replay every recorded case instead of recording")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as workdir:
        sys.exit((_check if args.check else _record)(workdir))
