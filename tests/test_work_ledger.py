"""The work ledger: the counts of the seed-0 benchmark passes.

The seed-0 pass of each workload runs through ``count_pass`` of
``scripts/reference_check.py``, the pass that script runs over the
reference space: every output is checked against
``perfbench/reference.json`` and every callable in its COUNTED table is
counted, Buchberger runs of single commands included.  LEDGER pins all of
those counts but ``Fraction`` constructions, which differ across Python
versions.  Seeds change only coefficients, names and pass order, not the
algebra, so one seed covers the work.  The counts are exact where times
are not; a change that moves one updates LEDGER and names the count in
CHANGES.md.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import reference_check  # noqa: E402
import workloads  # noqa: E402


def _counts(buchberger, divisor_tests, normal_forms, equals, hnfs, smiths,
            evaluations, classifications, scalars, queued, reduced):
    """A workload's counts, keyed as in reference_check.COUNTED."""
    return {"engine._reduced_basis": buchberger, "engine.e_divides": divisor_tests,
            "engine._nf_exponent": normal_forms, "engine.ideal_equals": equals,
            "lattices._hnf_rows": hnfs, "lattices.smith_normal_form": smiths,
            "lattices.PartialCharacter.__call__": evaluations,
            "cellular._classify": classifications, "scalars.Scalar.__new__": scalars,
            "engine.heapq.heappush": queued, "engine.heapq.heappop": reduced}


# workload: (counts of the whole pass, Buchberger runs of single commands)
LEDGER = {
    "decompose": (_counts(126, 12621, 1429, 0, 84, 15, 0, 30, 2430, 428, 419),
                  {"decompose-lat6 lattice-decomp": 6,
                   "decompose-lat6 meso-primary-decomp": 6,
                   "decompose-latidx meso-primary-decomp": 6,
                   "decompose-mesoB mesoprimes": 3,
                   "decompose-paper cellular": 10,
                   "decompose-unmixed radical": 2}),
    "quotient": (_counts(12, 13937, 1589, 0, 0, 0, 0, 0, 186, 56, 56), {}),
    "toric": (_counts(40, 35164, 1844, 0, 21, 0, 0, 0, 1989, 805, 731),
              {"toric-elim eliminate": 3}),
}


@pytest.mark.parametrize("workload", sorted(LEDGER))
def test_buchberger_runs(workload, tmp_path):
    counts, pinned = LEDGER[workload]
    tally = reference_check.count_pass(workloads.commands(workload, 0), tmp_path)
    assert tally.problems == []
    del tally.counts["scalars.Fraction.__new__"]
    assert (tally.counts, {label: sum(tally.runs[label]) for label in pinned}) == (counts, pinned)
