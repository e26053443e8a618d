"""The benchmark's tracer still finds every name it hooks in the package.

``perfbench/tracing.py`` wraps public functions and a few private kernels
by name; a rename inside the package would only show when the benchmark
runs with ``--trace 1``.  The tracer is loaded from its file, not edited.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

import binomials
import binomials.cli  # noqa: F401  (with congruences and lattices, every layer the tracer wraps)
import binomials.congruences  # noqa: F401
from binomials import lattices

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_and_restores():
    tracing = _load_tracing()
    originals = {name: getattr(lattices, name)
                 for name in ("_hnf_rows", "_fm_feasible", "is_positive")}
    with tracing.installed(tracing.Tracer()) as tracer:
        assert lattices.is_positive([[3, 4, 5]])
        assert binomials.kernel_basis([[1, 1]]) == [(-1, 1)]
        metrics = tracer.metrics()
    assert metrics["lattices.fm_calls"][0] == 1
    assert metrics["lattices.hnf_calls"][0] == 1
    assert tracer.n("lattices.is_positive") == 1
    assert tracer.n("lattices.kernel_basis") == 1
    assert {name: getattr(lattices, name) for name in originals} == originals
    # the package resolves its exports on each access and keeps no wrapper
    assert binomials.kernel_basis is lattices.kernel_basis


@pytest.mark.parametrize("workload", ["decompose", "quotient"])
def test_traced_pass_runs_in_a_fresh_interpreter(workload):
    # the tracer reads its layers from sys.modules after one untraced pass,
    # so a layer the pass leaves unloaded or a hooked name that moved stops
    # the run; toric is left out, its commands load no cellular layer
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                          "--workload", workload, "--trace", "1", "--seconds", "0",
                          "--seed", "0"],
                         cwd=str(ROOT), env=env, stdin=subprocess.DEVNULL,
                         capture_output=True, text=True, timeout=300)
    assert (out.returncode, out.stderr) == (0, "")
    assert json.loads(out.stdout.splitlines()[-1])["correct"] is True
