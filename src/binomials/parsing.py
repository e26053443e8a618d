"""Input grammar for ideals, matrices and coefficient literals.

A session file looks like::

    ring X Y Z
    ideal I
    X^2 - Y*Z        # binomial generators, one per line
    X^4*Y^2 - Z^6
    matrix A
    3 4 5

Generators are signed two-term expressions ``coef monomial [+- coef
monomial]``; the two-term shape is a parse-time guarantee.  Coefficient
literals are products of signed rationals ``p/q``, ``zeta(m,k)`` for
e^(2*pi*i*k/m), and fractional prime powers ``p^(a/b)`` (the latter so that
printed output always re-parses).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .engine import Binomial, BinomialIdeal, binomial
from .errors import ParseError
from .orders import grevlex, lex
from .scalars import Scalar, ONE

_TOKEN = re.compile(r"""
    (?P<zeta>zeta\(\s*\d+\s*,\s*\d+\s*\))
  | (?P<power>\d+\^\(\s*\d+\s*/\s*\d+\s*\))
  | (?P<number>\d+(?:\s*/\s*\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*(?:\^\d+)?)
  | (?P<op>[+\-*])
  | (?P<space>\s+)
  | (?P<bad>.)
""", re.VERBOSE)

_ZETA = re.compile(r"zeta\(\s*(\d+)\s*,\s*(\d+)\s*\)")
_POWER = re.compile(r"(\d+)\^\(\s*(\d+)\s*/\s*(\d+)\s*\)")
_NAMEEXP = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(\d+))?$")


def _tokenize(text, line):
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        if kind == "bad":
            raise ParseError("unexpected character %r" % m.group(), line)
        tokens.append((kind, m.group()))
    return tokens


def _scalar_factor(kind, text, line):
    if kind == "zeta":
        m, k = map(int, _ZETA.match(text).groups())
        if m <= 0:
            raise ParseError("zeta order must be positive", line)
        return Scalar.zeta(m, k)
    if kind == "power":
        base, num, den = map(int, _POWER.match(text).groups())
        if base == 0:
            raise ParseError("zero coefficient", line)
        return Scalar.from_rational(base).root(den, 0) ** num
    num_den = text.replace(" ", "").split("/")
    num = int(num_den[0])
    den = int(num_den[1]) if len(num_den) > 1 else 1
    if num == 0 or den == 0:
        raise ParseError("zero coefficient", line)
    return Scalar.from_rational(num, den)


def parse_term(tokens, names, line):
    """(coeff, exponent) from factor tokens (numbers, zetas, variables)."""
    coeff = ONE
    exponent = [0] * len(names)
    saw_factor = False
    expect_factor = True
    for kind, text in tokens:
        if kind == "op":
            if text != "*" or expect_factor:
                raise ParseError("misplaced operator %r" % text, line)
            expect_factor = True
            continue
        if kind in ("zeta", "power", "number"):
            coeff = coeff * _scalar_factor(kind, text, line)
        elif kind == "name":
            name, power = _NAMEEXP.match(text).groups()
            if name not in names:
                raise ParseError("unknown variable %r" % name, line)
            exponent[names.index(name)] += int(power) if power else 1
        saw_factor = True
        expect_factor = False
    if not saw_factor or expect_factor:
        raise ParseError("empty term", line)
    return coeff, tuple(exponent)


def parse_binomial(text, names, line=None):
    """A generator line as a Binomial (at most two terms)."""
    tokens = _tokenize(text, line)
    if not tokens:
        raise ParseError("empty generator", line)
    # split into signed terms at top-level +/-
    terms, current, sign = [], [], 1
    if tokens[0] == ("op", "-"):
        sign = -1
        tokens = tokens[1:]
    elif tokens[0] == ("op", "+"):
        tokens = tokens[1:]
    for kind, text_tok in tokens:
        if kind == "op" and text_tok in "+-" and current:
            terms.append((sign, current))
            sign = 1 if text_tok == "+" else -1
            current = []
        else:
            current.append((kind, text_tok))
    terms.append((sign, current))
    if len(terms) > 2:
        raise ParseError("binomials have at most two terms; got %d" % len(terms), line)
    parsed = [(s,) + parse_term(toks, names, line) for s, toks in terms]
    s1, c1, u1 = parsed[0]
    if s1 < 0:
        c1 = c1.negate()
    if len(parsed) == 1:
        return Binomial(u1)
    s2, c2, u2 = parsed[1]
    if s2 < 0:
        c2 = c2.negate()
    # c1 X^u1 + c2 X^u2  ==  X^u1 - (-c2/c1) X^u2  up to the unit c1
    if u1 == u2:
        if c1 == c2.negate():
            raise ParseError("generator cancels to zero", line)
        return Binomial(u1)
    return Binomial(u1, u2, (c2 * c1.inv()).negate())


def parse_single_term(text, names, line=None):
    """A one-term expression as (coeff, exponent)."""
    tokens = _tokenize(text, line)
    sign = 1
    if tokens and tokens[0] == ("op", "-"):
        sign, tokens = -1, tokens[1:]
    if any(kind == "op" and tok in "+-" for kind, tok in tokens):
        raise ParseError("expected a single term", line)
    coeff, exponent = parse_term(tokens, names, line)
    return (coeff.negate() if sign < 0 else coeff), exponent


def parse_scalar(text, line=None):
    """A bare coefficient literal (no variables), e.g. ``-2/3*zeta(4,1)``."""
    tokens = _tokenize(text, line)
    sign = 1
    if tokens and tokens[0] == ("op", "-"):
        sign, tokens = -1, tokens[1:]
    for kind, tok in tokens:
        if kind == "name":
            raise ParseError("expected a scalar literal, found %r" % tok, line)
    coeff, _ = parse_term(tokens, (), line)
    return coeff.negate() if sign < 0 else coeff


def parse_matrix_literal(text):
    """Whitespace-separated integer rows with ';' as the row separator."""
    rows = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            rows.append([int(x) for x in chunk.split()])
        except ValueError:
            raise ParseError("bad matrix row %r" % chunk)
    if not rows:
        raise ParseError("empty matrix")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ParseError("ragged matrix rows")
    return rows


def parse_order(spec, names):
    """Order spec: ``lex``, ``grevlex``, optionally with a variable
    priority list like ``lex(Z,Y,X)``."""
    m = re.match(r"^\s*(lex|grevlex)\s*(?:\(([^)]*)\))?\s*$", spec)
    if not m:
        raise ParseError("unknown order %r; use lex or grevlex, optionally "
                         "with a variable list" % spec)
    kind, args = m.groups()
    perm = None
    if args:
        listed = [s.strip() for s in args.split(",")]
        if sorted(listed) != sorted(names):
            raise ParseError("order permutation must list every ring "
                             "variable exactly once")
        perm = tuple(names.index(s) for s in listed)
    return lex(perm) if kind == "lex" else grevlex(perm)


class Session:
    """Parsed input: a ring plus named ideals and matrices."""

    def __init__(self):
        self.names = ()
        self.ideals = {}
        self.matrices = {}

    def only_ideal(self, name=None):
        if name is not None:
            if name not in self.ideals:
                raise ParseError("unknown ideal %r" % name)
            return self.ideals[name]
        if len(self.ideals) != 1:
            raise ParseError("input defines %d ideals; pick one with --ideal"
                             % len(self.ideals))
        return next(iter(self.ideals.values()))

    def only_matrix(self, name=None):
        if name is not None:
            if name not in self.matrices:
                raise ParseError("unknown matrix %r" % name)
            return self.matrices[name]
        if len(self.matrices) != 1:
            raise ParseError("input defines %d matrices; pick one with --matrix"
                             % len(self.matrices))
        return next(iter(self.matrices.values()))


def check_names(names, line=None):
    """The ring's variable names, which must be distinct identifiers other
    than ``zeta``, so that every printed generator parses back."""
    if not names or len(set(names)) != len(names):
        raise ParseError("ring needs distinct variable names", line)
    for n in names:
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", n) or n == "zeta":
            raise ParseError("bad variable name %r" % n, line)
    return names


def parse_input(text):
    """Parse a session file; raises ParseError with line positions."""
    session = Session()
    mode, current_name, pending = None, None, []

    def flush(line):
        nonlocal pending
        if mode == "ideal":
            session.ideals[current_name] = BinomialIdeal(session.names, tuple(pending))
        elif mode == "matrix":
            if not pending:
                raise ParseError("matrix %r has no rows" % current_name, line)
            if any(len(r) != len(pending[0]) for r in pending):
                raise ParseError("matrix %r has ragged rows" % current_name, line)
            session.matrices[current_name] = [list(r) for r in pending]
        pending = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "ring":
            if session.names:
                raise ParseError("ring already declared", lineno)
            session.names = check_names(tuple(rest.split()), lineno)
            continue
        if head in ("ideal", "matrix"):
            flush(lineno)
            if not session.names and head == "ideal":
                raise ParseError("declare the ring before any ideal", lineno)
            current_name = rest.strip()
            if not current_name:
                raise ParseError("%s needs a name" % head, lineno)
            mode = head
            continue
        if mode == "ideal":
            pending.append(parse_binomial(line, session.names, lineno))
        elif mode == "matrix":
            try:
                pending.append([int(x) for x in line.split()])
            except ValueError:
                raise ParseError("bad matrix row %r" % line, lineno)
        else:
            raise ParseError("expected ring/ideal/matrix, got %r" % line, lineno)
    flush(None)
    return session


# ---------------------------------------------------------------------------
# printing (the inverse of the grammar above)

def monomial_str(exponent, names):
    parts = []
    for name, e in zip(names, exponent):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append("%s^%d" % (name, e))
    return "*".join(parts) if parts else "1"


def binomial_str(b, names):
    head = monomial_str(b.lead, names)
    if b.trail is None:
        return head
    coeff = b.coeff
    sign = "-"
    if coeff.torsion == Fraction(1, 2):
        sign = "+"
        coeff = coeff.negate()
    tail = monomial_str(b.trail, names)
    if coeff.is_one():
        return "%s %s %s" % (head, sign, tail)
    return "%s %s %s*%s" % (head, sign, coeff, tail)


def scalar_json(s):
    return {
        "torsion": [s.torsion.numerator, s.torsion.denominator],
        "primes": [[p, [e.numerator, e.denominator]] for p, e in s.primes],
        "text": str(s),
    }


def binomial_json(b, names):
    return {
        "lead": list(b.lead),
        "trail": None if b.trail is None else list(b.trail),
        "coeff": None if b.coeff is None else scalar_json(b.coeff),
        "text": binomial_str(b, names),
    }


def ideal_text(I, order=None, descending=True):
    """Generators of the reduced GB, sorted by the active order."""
    gb = I.groebner(order)
    elements = sorted(gb.elements, key=lambda b: gb.order.key(b.lead),
                      reverse=descending)
    return [binomial_str(b, I.names) for b in elements]
