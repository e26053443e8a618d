#!/usr/bin/env python3
"""Record reference.json: the exit code and stdout digest of every command
any seed can generate (workloads.space), run in process through
``binomials.cli.main``.  Record only from a program version whose outputs
are trusted; run.py compares every later run with this file.

Run from the repository root:

    python3 perfbench/record.py

It also prints, per slot, the command count, the in-process time range and
the deterministic counts of the outputs, which NOTES.md quotes.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def main():
    root = Path.cwd()
    workdir = root / run.WORKDIR / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = run.InProcessRunner(root, workdir)
    child = run.ChildRunner(root, workdir)
    outputs, bad = {}, []
    for name in workloads.WORKLOADS + ("setup",):
        cmds = [run.SETUP] if name == "setup" else workloads.space(name)
        run.write_sessions(workdir, cmds)
        slots = defaultdict(list)
        for k, cmd in enumerate(cmds):
            out = runner.run(cmd)
            if out.timed_out or run.TRACEBACK in out.stderr:
                bad.append((cmd.argv, out.stderr))
            if k < 3:  # the child process must agree with the in-process run
                other = child.run(cmd)
                if (other.rc, other.digest) != (out.rc, out.digest):
                    bad.append((cmd.argv, "child process output differs"))
            outputs[cmd.key()] = [out.rc, out.digest]
            counts = run.output_counts([cmd], [out])
            slots[(cmd.slot, cmd.name)].append((out.seconds, out.rc, counts))
        for (slot, command), rows in sorted(slots.items()):
            seconds = [r[0] for r in rows]
            rcs = sorted({r[1] for r in rows})
            extra = {key: sorted({r[2][key] for r in rows})
                     for key in ("components", "mesoprimes", "classes", "stdout_lines")}
            print("%-18s %-22s n=%-4d %.3f..%.3f s (median %.3f) exit %s %s"
                  % (slot, command, len(rows), min(seconds), max(seconds),
                     statistics.median(seconds), rcs,
                     " ".join("%s=%s" % (k, v) for k, v in extra.items() if v != [0])),
                  flush=True)
    if bad:
        for argv, why in bad:
            print("BAD %s: %s" % (" ".join(argv), why.strip()[-300:]), file=sys.stderr)
        return 1
    write_reference(outputs)
    print("recorded %d commands" % len(outputs))
    return 0


def write_reference(outputs):
    """One command per line, sorted by key, so a re-recording diffs cleanly."""
    rows = ["%s: %s" % (json.dumps(key), json.dumps(value))
            for key, value in sorted(outputs.items())]
    with open(HERE / "reference.json", "w") as handle:
        handle.write('{"about": %s,\n"outputs": {\n%s\n}}\n' % (
            json.dumps("exit code and sha256 prefix of stdout per command key "
                       "(workloads.Command.key), recorded by record.py"),
            ",\n".join(rows)))


if __name__ == "__main__":
    sys.exit(main())
