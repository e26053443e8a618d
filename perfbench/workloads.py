"""Seeded workload generators for the benchmark.

Each workload is a fixed list of *slots*.  A slot names a command shape and
a small, enumerable set of variants; ``commands(workload, seed)`` picks one
variant per slot from the seed and shuffles the pass order, and
``space(workload)`` enumerates every variant any seed can pick, which is
what ``record.py`` stores references for.

The variants of one slot do the same algebraic work:

* ``toric`` slots group degree vectors whose toric ideals took about the
  same time at the seed commit (see NOTES.md); names vary freely.
* ``decompose`` and ``quotient`` variants are images of one base ideal
  under a torus rescaling X_i -> lambda_i * X_i.  That map is a ring
  automorphism which fixes exponents, so every variant has the same
  Groebner-basis work, the same decomposition shape and the same class
  count; only the coefficients (rationals, roots of unity, fractional
  prime powers) and the variable names differ.

Keeping the work per slot fixed is what lets the per-seed medians agree
within the bounds in BENCHMARK.json.  This module imports nothing from the
program under test, so a change to the program cannot change its inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction

FILE = "@FILE"  # argv placeholder for the session file of a command

WORKLOADS = ("toric", "decompose", "quotient")

# Passes a timed run makes at least, whatever --seconds says.  They fix the
# tail percentile of each workload (p75 on toric, p90 on the others; see
# run.tail): the highest with ten samples above it at this many passes.
MIN_PASSES = {"toric": 4, "decompose": 4, "quotient": 6}


@dataclass(frozen=True)
class Command:
    slot: str          # the slot this command fills, e.g. "toric-B"
    argv: tuple        # CLI arguments after the program name
    text: str = None   # session file contents, or None when argv needs none
    oracle: bool = False  # part of the untimed --oracle pass

    @property
    def name(self):
        return self.argv[0] if self.argv[0] != "congruence" else " ".join(self.argv[:2])

    def key(self):
        """Content key of the command: argv and session text, no paths."""
        blob = json.dumps([list(self.argv), self.text], separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# exact coefficients of the torus rescaling (independent of the program)

class Coef:
    """sign-free rational * e^(2 pi i t) * prod p^(a_p): enough to print
    lambda^w in the session grammar."""

    def __init__(self, rational=Fraction(1), torsion=Fraction(0), powers=None):
        self.rational = Fraction(rational)
        self.torsion = Fraction(torsion) % 1
        self.powers = {p: Fraction(a) for p, a in (powers or {}).items() if a}
        if self.rational < 0:
            self.rational = -self.rational
            self.torsion = (self.torsion + Fraction(1, 2)) % 1

    def __mul__(self, other):
        powers = dict(self.powers)
        for p, a in other.powers.items():
            powers[p] = powers.get(p, 0) + a
        return Coef(self.rational * other.rational, self.torsion + other.torsion, powers)

    def __pow__(self, k):
        return Coef(self.rational ** k, self.torsion * k,
                    {p: a * k for p, a in self.powers.items()})

    def text(self):
        """(negative, literal): literal is None for the value 1."""
        negative = self.torsion == Fraction(1, 2)
        rational = self.rational
        factors = []
        if self.torsion not in (0, Fraction(1, 2)):
            factors.append("zeta(%d,%d)" % (self.torsion.denominator, self.torsion.numerator))
        for p in sorted(self.powers):
            a = self.powers[p]
            whole = a.numerator // a.denominator  # floor, so the rest is in [0, 1)
            rational *= Fraction(p) ** whole
            if a - whole:
                factors.append("%d^(%s)" % (p, a - whole))
        if rational != 1 or not factors:
            factors.insert(0, str(rational))
        literal = "*".join(factors)
        return negative, (None if literal == "1" else literal)


def _c(text):
    """A scale value from a short spec: '2/3', '-2', 'z3.1', '2^1/2'."""
    if text.startswith("z"):
        m, k = text[1:].split(".")
        return Coef(torsion=Fraction(int(k), int(m)))
    if "^" in text:
        p, a = text.split("^")
        return Coef(powers={int(p): Fraction(a)})
    return Coef(Fraction(text))


# one scale value per variable; each kind has three fixed scale vectors
SCALES = {
    "rational": [("2", "3", "1/2", "-3"), ("-1", "2/3", "5", "3/2"),
                 ("3", "-1/2", "2", "5/3")],
    "root": [("z3.1", "z4.1", "z6.5", "z5.2"), ("z4.3", "z3.2", "-1", "z6.1"),
             ("z5.1", "z6.1", "z3.1", "z4.1")],
    "power": [("2^1/2", "3^1/3", "2", "5^1/2"), ("3^1/2", "2^2/3", "5^1/3", "-2"),
              ("5^1/2", "-1", "2^1/3", "3^2/3")],
}
KINDS = tuple(SCALES)

NAMES = (("X", "Y", "Z", "W"), ("x", "y", "z", "w"), ("a", "b", "c", "d"))


def _monomial(exponent, names):
    parts = []
    for name, e in zip(names, exponent):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append("%s^%d" % (name, e))
    return "*".join(parts)


def _generator(lead, trail, scale, names):
    """Text of lambda-rescaled X^lead - X^trail (a monomial when trail is None)."""
    head = _monomial(lead, names)
    if trail is None:
        return head
    # lambda^lead X^lead - lambda^trail X^trail  ~  X^lead - lambda^(trail-lead) X^trail
    c = Coef()
    for lam, d in zip(scale, (t - l for l, t in zip(lead, trail))):
        c = c * lam ** d
    negative, literal = c.text()
    tail = _monomial(trail, names)
    body = "*".join(x for x in (literal, tail) if x) or "1"
    return "%s %s %s" % (head, "+" if negative else "-", body)


def _session(base, scale, names):
    n = len(base[0][0])
    lines = ["ring " + " ".join(names[:n]), "ideal I"]
    lines += [_generator(lead, trail, scale, names) for lead, trail in base]
    return "\n".join(lines) + "\n"


def _rescaled_variants(base):
    """(kind, session text, names) for every rescaled image of a base ideal."""
    n = len(base[0][0])
    for kind in KINDS:
        for spec in SCALES[kind]:
            scale = tuple(_c(s) for s in spec[:n])
            for names in NAMES:
                yield kind, _session(base, scale, names), names[:n]


def _b(*pairs):
    """Base ideal from 'lead-trail' exponent strings such as '420-006'."""
    out = []
    for p in pairs:
        lead, _, trail = p.partition("-")
        out.append((tuple(int(x) for x in lead),
                    tuple(int(x) for x in trail) if trail else None))
    return tuple(out)


# ---------------------------------------------------------------------------
# toric: long Buchberger runs, every coefficient 1

# degree vectors grouped by the time their toric ideal took at the seed
# commit (median of four interleaved in-process runs on a 2-core Xeon):
# 0.31-0.40 s (A) and 0.62-0.74 s (B)
TORIC_A = ("3 5 7 10", "3 5 8 10", "5 6 8 10", "3 6 7 9", "3 6 7 8", "4 8 9 10",
           "5 6 7 9", "3 6 8 9")
TORIC_B = ("4 5 7 8", "3 5 7 9", "4 6 7 8", "3 8 9 10", "6 7 8 9", "4 5 6 7",
           "5 7 9 10", "5 6 7 8")
# parametrizations X_i - T^a_i: eliminate T (4 or 5 variables kept) or take a
# lex GB (3 or 4 variables plus t)
ELIMINATE = ("3 4 5 7 11", "4 5 6 7 9", "3 5 7 11 13", "3 4 5 6 7", "2 3 5 7 11",
             "5 7 11 13")
LEX = ("3 5 7", "3 4 5", "4 5 7", "3 7 8", "2 3 5 7")
TORIC_VARS = (None, ("a", "b", "c", "d", "e"), ("x1", "x2", "x3", "x4", "x5"),
              ("X", "Y", "Z", "W", "V"))


def _toric_cmd(slot, vector, names):
    argv = ("toric", "--matrix", vector)
    if names is not None:
        argv += ("--vars", ",".join(names[:len(vector.split())]))
    return Command(slot, argv)


def _param_session(vector, names, param):
    degrees = [int(x) for x in vector.split()]
    names = names[:len(degrees)]
    lines = ["ring %s %s" % (param, " ".join(names)), "ideal P"]
    lines += ["%s - %s^%d" % (x, param, a) for x, a in zip(names, degrees)]
    return "\n".join(lines) + "\n", names


def _eliminate_cmd(vector, names):
    text, kept = _param_session(vector, names or TORIC_VARS[2], "T")
    return Command("toric-elim", ("eliminate", FILE, "--keep", ",".join(kept)),
                   text, oracle=True)


def _lex_cmd(vector, names):
    text, _ = _param_session(vector, names or TORIC_VARS[2], "t")
    return Command("toric-lex", ("gb", FILE, "--order", "lex"), text, oracle=True)


def _toric(r):
    out = [_toric_cmd("toric-A", v, r.choice(TORIC_VARS)) for v in r.sample(TORIC_A, 3)]
    out += [_toric_cmd("toric-B", v, r.choice(TORIC_VARS)) for v in r.sample(TORIC_B, 4)]
    out += [_eliminate_cmd(v, r.choice(TORIC_VARS)) for v in r.sample(ELIMINATE, 3)]
    out += [_lex_cmd(v, r.choice(TORIC_VARS)) for v in r.sample(LEX, 2)]
    return out


def _toric_space():
    for names in TORIC_VARS:
        for v in TORIC_A:
            yield _toric_cmd("toric-A", v, names)
        for v in TORIC_B:
            yield _toric_cmd("toric-B", v, names)
        for v in ELIMINATE:
            yield _eliminate_cmd(v, names)
        for v in LEX:
            yield _lex_cmd(v, names)


# ---------------------------------------------------------------------------
# decompose: colon and saturation churn on related small ideals

CELLULAR = ("cellular", FILE, "--prune")
MESOPRIMES = ("mesoprimes", FILE)
MPD = ("meso-primary-decomp", FILE)
LATTICE = ("lattice-decomp", FILE)
RADICAL = ("radical", FILE)
IS_PRIME = ("is-prime", FILE)
CLASSIFY = ("congruence", "classify", FILE)

# base ideal, then (command, in the --oracle pass when rational)
DECOMPOSE = {
    # the paper's <X^4Y^2 - Z^6, X^3Y^2 - Z^5, X^2 - YZ>
    "paper": (_b("420-006", "320-005", "200-011"), ((CELLULAR, False),)),
    "mixed4": (_b("1100-0020", "0011-2000", "0003"), ((MPD, False),)),
    "lat6": (_b("600-060", "210-003"),
             ((LATTICE, False), (MPD, False), (CLASSIFY, False), (IS_PRIME, False),
              (MESOPRIMES, False), (RADICAL, False))),
    "latidx": (_b("4000-0220", "0400-0022"),
               ((LATTICE, True), (MESOPRIMES, False), (IS_PRIME, False),
                (RADICAL, False), (CLASSIFY, False), (MPD, True))),
    "mesoB": (_b("2000-0200", "0030", "1010-0110", "0002-1100"),
              ((CELLULAR, True), (MESOPRIMES, False), (RADICAL, False),
               (CLASSIFY, False), (MPD, False))),
    # the twisted cubic <XZ - Y^2, XW - YZ, YW - Z^2>: prime
    "cubic": (_b("1010-0200", "1001-0110", "0101-0020"),
              ((IS_PRIME, False), (LATTICE, True), (CLASSIFY, False),
               (MESOPRIMES, False), (RADICAL, False))),
    # <X^2 - 1, XY - Y, Y^2>: cellular, unmixed, not mesoprimary
    "unmixed": (_b("20-00", "11-01", "02"),
                ((MESOPRIMES, False), (MPD, False), (RADICAL, False), (CLASSIFY, False),
                 (CELLULAR, True))),
}


# The two heavy slots take only prime-power scales: their cost moves by a
# third between coefficient kinds, and they dominate the pass.  The five
# light slots share out a fixed mix of kinds, so every seed has the same mix
# and two rational slots for the --oracle pass.
HEAVY_KINDS = {"paper": ("power",), "mixed4": ("power",)}
LIGHT_KINDS = ("rational", "root", "power", "rational", "root")


def _decompose_variants(label, base, kinds=None):
    kinds = kinds or HEAVY_KINDS.get(label, KINDS)
    return [v for v in _rescaled_variants(base) if v[0] in kinds]


def _decompose(r):
    light = list(LIGHT_KINDS)
    r.shuffle(light)
    out = []
    for label, (base, commands) in DECOMPOSE.items():
        kinds = None if label in HEAVY_KINDS else (light.pop(),)
        variants = _decompose_variants(label, base, kinds)
        kind, text, _ = variants[r.randrange(len(variants))]
        for argv, oracle in commands:
            out.append(Command("decompose-" + label, argv, text,
                               oracle and kind == "rational"))
    return out


def _decompose_space():
    for label, (base, commands) in DECOMPOSE.items():
        for kind, text, _ in _decompose_variants(label, base):
            for argv, oracle in commands:
                yield Command("decompose-" + label, argv, text,
                              oracle and kind == "rational")


# ---------------------------------------------------------------------------
# quotient: one GB per process, then many normal-form reads

# Artinian bases: 117, 161 and 129 classes
QUOTIENT = {
    "qA": _b("600", "070", "008", "210-003"),
    "qB": _b("4000", "0500", "0050", "0006", "1100-0011"),
    "qC": _b("5000", "0500", "0040", "0004", "2000-0101"),
}
# exponent pairs for `congruence related`, per base
RELATED = {
    "qA": ("210-003", "420-006", "310-103", "500-113", "050-005", "111-220",
           "330-033", "401-104"),
    "qB": ("1100-0011", "2200-1111", "3100-2011", "0400-0022", "1111-2200",
           "3000-0300", "2100-1011", "0220-1111"),
    "qC": ("2000-0101", "4000-0202", "3000-1101", "2200-0301", "1010-0011",
           "0202-4000", "3100-1201", "0022-2000"),
}
FIBERS = (("3 4 5", ("24", "30", "36", "40")), ("2 3 5 7", ("18", "20", "22", "25")),
          ("1 1 1; 0 1 2", ("10 10", "12 12", "14 14", "9 12")))
POSITIVE = ("1 -1; 0 1", "3 4 5 7; 1 0 2 -1", "1 1 1 1; 0 1 2 3", "2 -1 0; 0 1 -1",
            "1 2 3; 3 2 1", "1 -2 1; 1 1 -2", "1 0 -1 2; 0 1 1 -1", "4 5 6")


def _related_args(pair, names):
    u, _, v = pair.partition("-")
    return tuple(_monomial([int(x) for x in e], names) or "1" for e in (u, v))


def _table_cmd(text):
    return Command("quotient-table", ("congruence", "table", FILE, "--max", "1000"), text)


def _related_cmd(text, names, pair):
    return Command("quotient-related", ("congruence", "related", FILE)
                   + _related_args(pair, names), text)


def _fibers_cmd(matrix, target):
    return Command("quotient-fibers", ("fibers", "--matrix", matrix, "--target", target))


def _positive_cmd(matrix):
    return Command("quotient-positive", ("is-positive", "--matrix", matrix))


def _quotient(r):
    out = []
    for label, base in QUOTIENT.items():
        variants = list(_rescaled_variants(base))
        _, text, names = variants[r.randrange(len(variants))]
        out.append(_table_cmd(text))
        out += [_related_cmd(text, names, p) for p in r.sample(RELATED[label], 3)]
    out += [_fibers_cmd(m, r.choice(targets)) for m, targets in FIBERS]
    out += [_positive_cmd(m) for m in r.sample(POSITIVE, 3)]
    return out


def _quotient_space():
    for label, base in QUOTIENT.items():
        for _, text, names in _rescaled_variants(base):
            yield _table_cmd(text)
            for p in RELATED[label]:
                yield _related_cmd(text, names, p)
    for m, targets in FIBERS:
        for t in targets:
            yield _fibers_cmd(m, t)
    for m in POSITIVE:
        yield _positive_cmd(m)


# ---------------------------------------------------------------------------

_GENERATORS = {"toric": (_toric, _toric_space),
               "decompose": (_decompose, _decompose_space),
               "quotient": (_quotient, _quotient_space)}


def commands(workload, seed):
    """The pass of ``workload`` for ``seed``: one variant per slot, shuffled."""
    r = random.Random("%s:%d" % (workload, seed))
    out = _GENERATORS[workload][0](r)
    r.shuffle(out)
    return out


def space(workload):
    """Every command any seed can produce for ``workload``, without repeats."""
    seen, out = set(), []
    for c in _GENERATORS[workload][1]():
        if c.key() not in seen:
            seen.add(c.key())
            out.append(c)
    return out
