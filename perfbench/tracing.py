"""Per-layer tracing of the ``binomials`` package from outside the program.

The layers are the package's modules.  ``installed(tracer)`` wraps, for the
duration of a ``with`` block:

* every public function of ``cli``, ``parsing``, ``cellular``,
  ``mesoprimary``, ``congruences``, ``lattices`` and ``engine`` in a span,
  at every module binding (modules import names directly, so ``cellular``
  and ``congruences`` each hold their own ``colon_monomial``);
* ``BinomialIdeal.groebner`` and ``engine._reduced_basis`` (the Buchberger
  loop) in spans, and the scalar operations that call back into
  ``scalars`` (``*``, ``inv``, ``**``, ``root``, ``negate``,
  ``from_rational``) in spans, which is what ``scalars.self_s`` measures;
* the leaves that a metric counts in call counters without a clock:
  ``orders.e_divides`` and ``MonomialOrder.key``, which run millions of
  times, and the private HNF and Fourier-Motzkin kernels of ``lattices``.
  Time in the scalar leaves (``from_prime_powers``, ``is_one``) lands in the
  scalar span that called them.

``oracle`` is a correctness reference and is never wrapped.  A span is
(label, start, end, parent span, command index); spans live in arrays and
are written out by ``write_spans``.  Self time is a span's duration minus
the time its child spans cover, summed per label as the spans close.
S-pair outcomes and reduction steps happen inside ``_reduced_basis`` and
cannot be seen from outside; they need counters inside the program.
"""

from __future__ import annotations

import gzip
import inspect
import statistics
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

SPAN_LAYERS = ("cli", "parsing", "cellular", "mesoprimary", "congruences", "lattices",
               "engine")
NEVER_TRACED = ("binomials.oracle",)

# (module, class or None, attribute, label, timed)
EXTRA = (
    ("engine", None, "_reduced_basis", "engine.buchberger", True),
    ("engine", "BinomialIdeal", "groebner", "engine.groebner", True),
    ("lattices", None, "_hnf_rows", "lattices.hnf", False),
    ("lattices", None, "_fm_feasible", "lattices.fm", False),
    ("orders", None, "e_divides", "orders.e_divides", False),
    ("orders", "MonomialOrder", "key", "orders.key", False),
    ("scalars", "Scalar", "__mul__", "scalars.mul", True),
    ("scalars", "Scalar", "inv", "scalars.inv", True),
    ("scalars", "Scalar", "__pow__", "scalars.pow", True),
    ("scalars", "Scalar", "root", "scalars.root", True),
    ("scalars", "Scalar", "negate", "scalars.negate", True),
    ("scalars", "Scalar", "from_rational", "scalars.from_rational", True),
)

NF_LABELS = ("engine.normal_form", "engine.ideal_member")
PARSE_PREFIX = "parsing.parse_"
FORMAT_LABELS = ("parsing.monomial_str", "parsing.binomial_str", "parsing.ideal_text",
                 "parsing.binomial_json", "parsing.scalar_json")


def _is_unit(s):
    return s.torsion == 0 and not s.primes


class Tracer:
    def __init__(self):
        self.labels = []
        self._ids = {}
        self.calls = []
        self.self_s = []
        self.starts = array("d")
        self.ends = array("d")
        self.label_of = array("i")
        self.parent_of = array("i")
        self.command_of = array("i")
        self.open = []          # [span index, seconds covered by children]
        self.command = -1
        self.counts = Counter()  # results read off return values
        self.largest_basis = 0

    def _id(self, label):
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[label]

    def parent_label(self):
        return self.labels[self.label_of[self.open[-1][0]]] if self.open else None

    def span(self, label, fn):
        lid = self._id(label)
        before, after = BEFORE.get(label), AFTER.get(label)
        tracer, calls, self_s, stack = self, self.calls, self.self_s, self.open
        starts, ends, labels, parents, commands = (self.starts, self.ends, self.label_of,
                                                   self.parent_of, self.command_of)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            index = len(starts)
            labels.append(lid)
            parents.append(stack[-1][0] if stack else -1)
            commands.append(tracer.command)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            starts.append(start)
            ends.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                ends[index] = end
                stack.pop()
                calls[lid] += 1
                self_s[lid] += end - start - frame[1]
                if stack:
                    stack[-1][1] += end - start
            if after is not None:
                after(tracer, result)
            return result

        return wrapper

    def counter(self, label, fn):
        lid, calls = self._id(label), self.calls

        def wrapper(*args, **kwargs):
            calls[lid] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results ----------------------------------------------------------

    def n(self, label):
        return self.calls[self._ids[label]] if label in self._ids else 0

    def self_time(self, prefix):
        return sum(s for label, s in zip(self.labels, self.self_s) if label.startswith(prefix))

    def metrics(self):
        """name -> (value, unit, deterministic) for one traced pass."""
        n, c = self.n, self.counts
        groebner = n("engine.groebner")
        saturate = n("engine.saturate_vars")
        mul = n("scalars.mul")
        out = {
            "engine.buchberger_s": (self.self_time("engine.buchberger"), "s", False),
            "engine.largest_basis": (self.largest_basis, "count", True),
            "orders.e_divides_calls": (n("orders.e_divides"), "count", True),
            "orders.key_calls": (n("orders.key"), "count", True),
            "scalars.mul_calls": (mul, "count", True),
            "scalars.mul_unit_share": (c["mul_unit"] / mul if mul else 0.0, "ratio", True),
            "scalars.root_calls": (n("scalars.root"), "count", True),
            "scalars.from_rational_calls": (n("scalars.from_rational"), "count", True),
            "engine.groebner_calls": (groebner, "count", True),
            "engine.buchberger_runs": (n("engine.buchberger"), "count", True),
            "engine.gb_hit_ratio": (1 - n("engine.buchberger") / groebner if groebner else 0.0,
                                    "ratio", True),
            "engine.colon_calls": (n("engine.colon_monomial"), "count", True),
            "engine.saturate_calls": (saturate, "count", True),
            "engine.colons_per_saturate": (c["colon_in_saturate"] / saturate if saturate else 0.0,
                                           "ratio", True),
            "engine.eliminate_calls": (n("engine.eliminate"), "count", True),
            "engine.ideal_equals_calls": (n("engine.ideal_equals"), "count", True),
            "cellular.components": (c["components"], "count", True),
            "mesoprimary.mesoprimes": (c["mesoprimes"], "count", True),
            "engine.nf_calls": (sum(n(x) for x in NF_LABELS), "count", True),
            "engine.nf_s": (sum(self.self_time(x) for x in NF_LABELS), "s", False),
            "congruences.class_id_calls": (n("congruences.class_id"), "count", True),
            "congruences.classes": (c["classes"], "count", True),
            "lattices.hnf_calls": (n("lattices.hnf"), "count", True),
            "lattices.snf_calls": (n("lattices.smith_normal_form"), "count", True),
            "lattices.lattice_ideal_calls": (n("lattices.lattice_ideal"), "count", True),
            "lattices.extensions": (c["extensions"], "count", True),
            "lattices.fm_calls": (n("lattices.fm"), "count", True),
            "lattices.fibers_found": (c["fibers"], "count", True),
            "parsing.parse_calls": (sum(k for label, k in zip(self.labels, self.calls)
                                        if label.startswith(PARSE_PREFIX)), "count", True),
            "parsing.format_calls": (sum(n(x) for x in FORMAT_LABELS), "count", True),
            "cli.commands": (n("cli.main"), "count", True),
            "cli.refusals": (c["refusals"], "count", True),
            "trace.spans": (len(self.starts), "count", True),
        }
        for layer in SPAN_LAYERS + ("scalars",):
            out[layer + ".self_s"] = (self.self_time(layer + "."), "s", False)
        return out

    def write_spans(self, path):
        """Spans as gzip TSV: label, start, end, parent row, command index."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("label\tstart\tend\tparent\tcommand\n")
            labels = self.labels
            for k in range(len(self.starts)):
                handle.write("%s\t%.9f\t%.9f\t%d\t%d\n"
                             % (labels[self.label_of[k]], self.starts[k], self.ends[k],
                                self.parent_of[k], self.command_of[k]))


def _count_unit_operands(tracer, args):
    if _is_unit(args[0]) or _is_unit(args[1]):
        tracer.counts["mul_unit"] += 1


def _count_colon_in_saturate(tracer, args):
    if tracer.parent_label() == "engine.saturate_vars":
        tracer.counts["colon_in_saturate"] += 1


def _largest_basis(tracer, result):
    tracer.largest_basis = max(tracer.largest_basis, len(result))


def _adder(key, size=len):
    def after(tracer, result):
        tracer.counts[key] += size(result)
    return after


BEFORE = {"scalars.mul": _count_unit_operands,
          "engine.colon_monomial": _count_colon_in_saturate}
AFTER = {
    "engine.buchberger": _largest_basis,
    "cellular.cellular_decompose": _adder("components"),
    "mesoprimary.associated_mesoprimes": _adder("mesoprimes"),
    "congruences.quotient_table": _adder("classes", lambda qt: len(qt.classes)),
    "lattices.extend_character": _adder("extensions"),
    "lattices.fibers": _adder("fibers"),
    "cli.main": _adder("refusals", lambda rc: rc == 1),
}


def _own_functions(module):
    for name, obj in vars(module).items():
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


@contextmanager
def installed(tracer):
    """Wrap the package for the duration of the block, then restore it."""
    package = "binomials"
    wrappers = {}  # id(original) -> (original, wrapper)
    for layer in SPAN_LAYERS:
        module = sys.modules["%s.%s" % (package, layer)]
        for name, fn in _own_functions(module):
            if not name.startswith("_"):
                wrappers[id(fn)] = (fn, tracer.span("%s.%s" % (layer, name), fn))
    patches = []
    for layer, owner, attr, label, timed in EXTRA:
        module = sys.modules["%s.%s" % (package, layer)]
        wrap = tracer.span if timed else tracer.counter
        if owner is None:
            fn = getattr(module, attr)
            wrappers[id(fn)] = (fn, wrap(label, fn))
            continue
        cls = getattr(module, owner)
        raw = cls.__dict__[attr]
        new = (classmethod(wrap(label, raw.__func__)) if isinstance(raw, classmethod)
               else wrap(label, raw))
        patches.append((cls, attr, raw))
        setattr(cls, attr, new)
    for name, module in list(sys.modules.items()):
        if not (name == package or name.startswith(package + ".")) or name in NEVER_TRACED:
            continue
        for attr, obj in list(vars(module).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                patches.append((module, attr, obj))
                setattr(module, attr, hit[1])
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def combine(results):
    """Medians of the timed metrics over traced passes; the deterministic
    ones must repeat exactly.  Returns ({name: (value, unit)}, problems)."""
    problems = []
    out = {}
    for name, (value, unit, exact) in results[0].items():
        values = [r[name][0] for r in results]
        if exact:
            if any(v != value for v in values):
                problems.append("%s differs between passes: %s" % (name, values))
            out[name] = (value, unit)
        else:
            out[name] = (statistics.median(values), unit)
    return out, problems
