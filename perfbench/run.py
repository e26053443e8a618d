#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``binomials`` command.

Run from the repository root:

    python3 perfbench/run.py --workload toric --seed 0 --seconds 30 --trace 0

``--workload`` is ``toric``, ``decompose``, ``quotient`` or ``all``.  With
``--trace 0`` every command runs as ``python -m binomials.cli`` in a child
process (closed loop, one client, one child at a time, stdin closed, a
per-command timeout), passes over the seeded command list repeat for
``--seconds`` seconds, and the end-to-end metrics are printed.  With
``--trace 1`` the same commands run in this process through
``binomials.cli.main``, alternating untraced and traced passes, and the
per-layer metrics are printed (see tracing.py).

Every command's exit code and stdout are checked against reference.json
(recorded at the seed commit by record.py), against every other pass of the
run, and, for the commands marked in workloads.py, against the rational
oracle in one untimed ``--oracle`` pass.  The last line of stdout is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP = workloads.Command("setup", ("snf", "--matrix", "1"))
SETUP_FIRST = 5     # set-up samples before the oracle pass
SETUP_PER_PASS = 3  # and before every timed pass
TIMEOUT_S = 20.0
LADDER = (50, 75, 90, 95, 99, 99.9)
TRACEBACK = "Traceback (most recent call last)"
WORKDIR = ".perfbench_work"


@dataclass
class Outcome:
    rc: int
    stdout: bytes
    stderr: str
    seconds: float
    maxrss_kb: int = 0
    timed_out: bool = False

    @property
    def digest(self):
        return hashlib.sha256(self.stdout).hexdigest()[:16]


def load_reference():
    with open(HERE / "reference.json") as handle:
        return json.load(handle)["outputs"]


def session_path(workdir, cmd):
    return workdir / "sessions" / ("%s.txt" % cmd.key())


def write_sessions(workdir, cmds):
    (workdir / "sessions").mkdir(parents=True, exist_ok=True)
    for cmd in cmds:
        if cmd.text is not None:
            session_path(workdir, cmd).write_text(cmd.text)


def concrete_argv(workdir, cmd, extra=()):
    path = str(session_path(workdir, cmd))
    return [path if a == workloads.FILE else a for a in cmd.argv] + list(extra)


# ---------------------------------------------------------------------------
# runners

class ChildRunner:
    """Runs one command as ``python -m binomials.cli`` and reaps it with wait4."""

    def __init__(self, root, workdir):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run(self, cmd, extra=()):
        argv = [sys.executable, "-m", "binomials.cli"] + concrete_argv(self.workdir, cmd, extra)
        killed = threading.Event()
        with open(self.workdir / "stdout", "w+b") as out, \
                open(self.workdir / "stderr", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, env=self.env, cwd=self.root)

            def kill():
                killed.set()
                proc.kill()

            timer = threading.Timer(TIMEOUT_S, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
            timer.join()
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Outcome(proc.returncode, out.read(),
                           err.read().decode(errors="replace"), seconds,
                           usage.ru_maxrss, killed.is_set())


class CommandTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise CommandTimeout("command exceeded %.0f s" % TIMEOUT_S)


class InProcessRunner:
    """Runs one command through ``binomials.cli.main`` in this process, with
    stdin replaced by an empty stream and output captured."""

    def __init__(self, root, workdir):
        sys.path.insert(0, str(root / "src"))
        import binomials.cli
        self.cli = binomials.cli
        self.workdir = workdir
        signal.signal(signal.SIGALRM, _alarm)

    def run(self, cmd, extra=()):
        argv = concrete_argv(self.workdir, cmd, extra)
        out, err = io.StringIO(), io.StringIO()
        stdin, sys.stdin = sys.stdin, io.StringIO("")
        timed_out = False
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TIMEOUT_S)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except CommandTimeout:
            rc, timed_out = 1, True
        except Exception:
            err.write(traceback.format_exc())
            rc = 1
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            sys.stdin = stdin
        seconds = time.perf_counter() - start
        return Outcome(rc, out.getvalue().encode(), err.getvalue(), seconds,
                       timed_out=timed_out)


# ---------------------------------------------------------------------------
# checks

class Checker:
    """Compares outcomes with the recorded reference and across passes."""

    def __init__(self, reference):
        self.reference = reference
        self.seen = {}
        self.problems = []

    def check(self, cmd, outcome, where):
        found = []
        if outcome.timed_out:
            found.append("timed out after %.0f s" % TIMEOUT_S)
        if TRACEBACK in outcome.stderr:
            found.append("printed a traceback")
        got = [outcome.rc, outcome.digest]
        expected = self.reference.get(cmd.key())
        if expected is None:
            found.append("no recorded reference")
        elif got != expected:
            found.append("exit %d / stdout %s, reference exit %d / stdout %s"
                         % (got[0], got[1], expected[0], expected[1]))
        earlier = self.seen.setdefault(cmd.key(), got)
        if earlier != got:
            found.append("output differs from an earlier pass")
        for problem in found:
            self.problems.append("%s: %s: %s" % (where, " ".join(cmd.argv), problem))
        return not found

    def check_oracle(self, cmd, outcome):
        """The --oracle run must print the reference output plus a verdict."""
        lines = outcome.stdout.decode().splitlines(keepends=True)
        verdicts = [l for l in lines if l.startswith("oracle: ")]
        plain = Outcome(outcome.rc, "".join(l for l in lines if l not in verdicts).encode(),
                        outcome.stderr, outcome.seconds, timed_out=outcome.timed_out)
        self.check(cmd, plain, "oracle pass")
        if outcome.rc == 0 and [v.strip() for v in verdicts] != ["oracle: verified"]:
            self.problems.append("oracle pass: %s: verdict %r"
                                 % (" ".join(cmd.argv), "".join(verdicts).strip()))


# ---------------------------------------------------------------------------
# statistics

def tail(samples, guaranteed):
    """(percentile, value, samples above it): the highest ladder percentile
    that has at least ten samples above it even in a run with only the
    ``guaranteed`` number of samples.  The percentile is thus fixed per
    workload, and a faster program, which fits more passes, cannot move it."""
    ordered = sorted(samples)
    n = len(ordered)
    p = max((q for q in LADDER if guaranteed - math.ceil(q / 100 * guaranteed) >= 10),
            default=50)
    rank = max(1, math.ceil(p / 100 * n))
    return p, ordered[rank - 1], n - rank


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "cpu": cpu, "nproc": os.cpu_count(),
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def probe_ms():
    """Milliseconds for a fixed pure-Python loop: how fast the machine runs
    Python right now, to tell a slow phase of the host from a slow program."""
    start = time.perf_counter()
    total = 0
    for i in range(100000):
        total += i * i % 7
    return (time.perf_counter() - start) * 1000


def output_counts(cmds, outcomes):
    """Deterministic counts read off one pass's outputs."""
    counts = {"commands": len(cmds), "refusals": 0, "stdout_lines": 0,
              "components": 0, "mesoprimes": 0, "classes": 0}
    for cmd, out in zip(cmds, outcomes):
        text = out.stdout.decode(errors="replace")
        counts["refusals"] += out.rc == 1
        counts["stdout_lines"] += text.count("\n")
        counts["components"] += sum(l.startswith("component ") for l in text.splitlines())
        counts["mesoprimes"] += sum(l.startswith("mesoprime ") for l in text.splitlines())
        if cmd.argv[:2] == ("congruence", "table") and out.rc == 0:
            counts["classes"] += text.count("\n") - 1
    return counts


def counts_text(counts):
    return ", ".join("%s %d" % (k, v) for k, v in counts.items())


# ---------------------------------------------------------------------------
# one workload

def end_to_end(root, workdir, name, seed, seconds):
    cmds = workloads.commands(name, seed)
    write_sessions(workdir, cmds)
    checker = Checker(load_reference())
    runner = ChildRunner(root, workdir)
    env_before = environment()

    setup, probes = [], []

    def sample_setup(runs):
        probes.append(probe_ms())
        for _ in range(runs):
            outcome = runner.run(SETUP)
            checker.check(SETUP, outcome, "setup")
            setup.append(outcome.seconds)

    runner.run(SETUP)  # byte-compiles the package once, as an install would
    sample_setup(SETUP_FIRST)
    oracle_cmds = [c for c in cmds if c.oracle]
    for cmd in oracle_cmds:
        checker.check_oracle(cmd, runner.run(cmd, ("--oracle",)))

    passes = []  # (wall seconds, [outcome per command])
    failures = 0
    deadline = time.perf_counter() + seconds
    while True:
        cycle = time.perf_counter()
        sample_setup(SETUP_PER_PASS)  # spread over the run, outside pass timing
        start = time.perf_counter()
        outcomes = []
        for cmd in cmds:
            outcome = runner.run(cmd)
            failures += not checker.check(cmd, outcome, "pass %d" % (len(passes) + 1))
            outcomes.append(outcome)
        end = time.perf_counter()
        passes.append((end - start, outcomes))
        if len(passes) >= workloads.MIN_PASSES[name] and end + (end - cycle) > deadline:
            break

    samples = [o.seconds for _, outs in passes for o in outs]
    p, tail_value, above = tail(samples, len(cmds) * workloads.MIN_PASSES[name])
    walls = [w for w, _ in passes]
    rss = [max(o.maxrss_kb for o in outs) / 1024 for _, outs in passes]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cmd_p50_s": (statistics.median(samples), "s"),
        "cmd_tail_s": (tail_value, "s"),
        "peak_rss_mb": (statistics.median(rss), "MiB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    counts = output_counts(cmds, passes[0][1])
    n = len(samples)
    notes = {
        "wall_s": "median of %d passes of %d commands; %s" % (len(passes), len(cmds),
                                                             counts_text(counts)),
        "cmd_p50_s": "median per command, n=%d" % n,
        "cmd_tail_s": "p%g per command, n=%d, %d samples above" % (p, n, above),
        "peak_rss_mb": "median over passes of the largest child ru_maxrss",
        "setup_s": "median of %d runs of `%s`" % (len(setup), " ".join(SETUP.argv)),
    }
    report = {
        "workload": name, "seed": seed, "trace": 0,
        "environment": {"before": env_before, "after": environment()},
        "loop": "closed, 1 client, 1 child process at a time, stdin closed, "
                "%.0f s timeout per command" % TIMEOUT_S,
        "oracle_pass": len(oracle_cmds),
        "probe_ms": probes,
        "attempted": n, "failed": failures,
        "failed_ratio": failures / n,
        "counts": counts,
        "metrics": {k: {"value": v, "unit": u, "note": notes[k]} for k, (v, u) in metrics.items()},
        "problems": checker.problems,
        "commands": [{"argv": list(c.argv), "slot": c.slot,
                      "seconds": [outs[k].seconds for _, outs in passes]}
                     for k, c in enumerate(cmds)],
    }
    return report


def per_layer(root, workdir, name, seed, seconds):
    import tracing
    cmds = workloads.commands(name, seed)
    write_sessions(workdir, cmds)
    checker = Checker(load_reference())
    runner = InProcessRunner(root, workdir)
    env_before = environment()

    def one_pass(label, tracer=None):
        start = time.perf_counter()
        ok = []
        for k, cmd in enumerate(cmds):
            if tracer:
                tracer.command = k
            ok.append(checker.check(cmd, runner.run(cmd), label))
        return time.perf_counter() - start, ok

    untraced, traced, results, attempted, failed = [], [], [], 0, 0
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        wall, ok = one_pass("untraced pass %d" % (len(untraced) + 1))
        untraced.append(wall)
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            wall, ok2 = one_pass("traced pass %d" % (len(traced) + 1), tracer)
        traced.append(wall)
        results.append(tracer.metrics())
        if len(results) == 1:
            tracer.write_spans(workdir / ("spans-%s-seed%d.tsv.gz" % (name, seed)))
        attempted += len(ok) + len(ok2)
        failed += ok.count(False) + ok2.count(False)
        end = time.perf_counter()
        if end + (end - start) > deadline:
            break

    metrics, repeat_problems = tracing.combine(results)
    checker.problems += ["traced passes: %s" % p for p in repeat_problems]
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced),
                                       "ratio")
    report = {
        "workload": name, "seed": seed, "trace": 1,
        "environment": {"before": env_before, "after": environment()},
        "passes": {"untraced_s": untraced, "traced_s": traced},
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": checker.problems,
    }
    return report


# ---------------------------------------------------------------------------

def print_report(report):
    env = report["environment"]["before"]
    print("== %s  seed %d  trace %d" % (report["workload"], report["seed"], report["trace"]))
    print("   python %s, %s, nproc %s, loadavg %s -> %s"
          % (env["python"], env["cpu"], env["nproc"], env["loadavg"],
             report["environment"]["after"]["loadavg"]))
    if "loop" in report:
        print("   %s; oracle pass over %d commands" % (report["loop"], report["oracle_pass"]))
        probes = report["probe_ms"]
        print("   machine probe (fixed Python loop between passes): median %.1f ms, "
              "range %.1f-%.1f ms" % (statistics.median(probes), min(probes), max(probes)))
    else:
        print("   in process; untraced passes %s s, traced passes %s s"
              % (" ".join("%.3f" % x for x in report["passes"]["untraced_s"]),
                 " ".join("%.3f" % x for x in report["passes"]["traced_s"])))
    for name, m in report["metrics"].items():
        print("   %-28s %14.6f %-6s %s" % (name, m["value"], m["unit"], m.get("note", "")))
    print("   %-28s %14.6f %-6s %d failed of %d attempted"
          % ("failed_ratio", report["failed_ratio"], "ratio", report["failed"],
             report["attempted"]))
    for problem in report["problems"][:20]:
        print("   PROBLEM %s" % problem)
    if len(report["problems"]) > 20:
        print("   ... %d problems in all" % len(report["problems"]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "binomials" / "cli.py").is_file():
        print("error: run from the repository root; src/binomials/cli.py not found in %s"
              % root, file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    for name in names:
        workdir = root / WORKDIR / ("%s-seed%d-trace%d" % (name, args.seed, args.trace))
        workdir.mkdir(parents=True, exist_ok=True)
        run = per_layer if args.trace else end_to_end
        report = run(root, workdir, name, args.seed, args.seconds)
        (workdir / "report.json").write_text(json.dumps(report, indent=1))
        print_report(report)
        reports.append(report)

    def label(report, metric):
        return metric if len(reports) == 1 else "%s.%s" % (report["workload"], metric)

    result = {
        "correct": all(not r["problems"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {label(r, k): {"value": m["value"], "unit": m["unit"]}
                    for r in reports for k, m in r["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
