"""Input grammar for ideals, matrices and coefficient literals.

A session file looks like::

    ring X Y Z
    ideal I
    X^2 - Y*Z        # binomial generators, one per line
    X^4*Y^2 - Z^6
    matrix A
    3 4 5

Generators are signed two-term expressions ``coef monomial [+- coef
monomial]``; the two-term shape is a parse-time guarantee.  A generator, a
single term and a scalar read their signs by one rule (``_signed_terms``),
so a leading ``+`` or ``-`` means the same in each.  Coefficient
literals are products of signed rationals ``p/q``, ``zeta(m,k)`` for
e^(2*pi*i*k/m), and fractional prime powers ``p^(a/b)`` (the latter so that
printed output always re-parses).
"""

import re
from fractions import Fraction

from .engine import BinomialIdeal, _term_sum, binomial
from .errors import ParseError
from .orders import NIL, grevlex, lex
from .scalars import Scalar, ONE

_TOKEN = re.compile(r"""
    (?P<zeta>zeta\(\s*(?P<order>\d+)\s*,\s*(?P<index>\d+)\s*\))
  | (?P<power>(?P<base>\d+)\^\(\s*(?P<power_num>\d+)\s*/\s*(?P<power_den>\d+)\s*\))
  | (?P<number>(?P<num>\d+)(?:\s*/\s*(?P<den>\d+))?)
  | (?P<name>(?P<var>[A-Za-z_][A-Za-z0-9_]*)(?:\^(?P<exp>\d+))?)
  | (?P<op>[+\-*])
  | (?P<space>\s+)
  | (?P<bad>.)
""", re.VERBOSE)


def _tokenize(text, line):
    """The token matches of ``text``, spaces left out.  A token's kind is
    its ``lastgroup``; its parts are the named groups inside that kind."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        if kind == "bad":
            raise ParseError("unexpected character %r" % m.group(), line)
        tokens.append(m)
    return tokens


def _scalar_factor(tok, line):
    kind = tok.lastgroup
    if kind == "zeta":
        m, k = int(tok["order"]), int(tok["index"])
        if m <= 0:
            raise ParseError("zeta order must be positive", line)
        return Scalar.zeta(m, k)
    if kind == "power":
        base, num, den = int(tok["base"]), int(tok["power_num"]), int(tok["power_den"])
        if base == 0:
            raise ParseError("zero coefficient", line)
        if den == 0:
            raise ParseError("root degree must be at least 1", line)
        return Scalar.from_rational(base).root(den, 0) ** num
    num, den = int(tok["num"]), int(tok["den"] or 1)
    if den == 0:
        raise ParseError("zero denominator", line)
    if num == 0:
        raise ParseError("zero coefficient", line)
    return Scalar.from_rational(num, den)


def _signed_terms(text, line):
    """The terms of ``text``, each (negative, factor tokens).  A ``+`` or
    ``-`` starts a term and signs it, unless the term before it has no token
    yet: a leading sign signs the first term, and in ``X - -Y`` the second
    ``-`` is a misplaced operator.  Text without tokens has no terms."""
    terms = []
    for tok in _tokenize(text, line):
        if tok["op"] in ("+", "-") and (not terms or terms[-1][1]):
            terms.append((tok["op"] == "-", []))
        elif terms:
            terms[-1][1].append(tok)
        else:
            terms.append((False, [tok]))
    return terms


def parse_term(negative, tokens, names, line):
    """(coeff, exponent) of a term of ``_signed_terms``: factor tokens
    (numbers, zetas, variables) joined by ``*``, negated if ``negative``.
    Without ``names`` the term is a scalar literal."""
    coeff = ONE
    exponent = [0] * len(names)
    expect_factor = True
    for tok in tokens:
        kind = tok.lastgroup
        if kind == "op":
            if tok["op"] != "*" or expect_factor:
                raise ParseError("misplaced operator %r" % tok["op"], line)
            expect_factor = True
            continue
        if kind == "name":
            name = tok["var"]
            if name not in names:
                raise ParseError("unknown variable %r" % name if names else
                                 "expected a scalar literal, found %r" % tok.group(),
                                 line)
            exponent[names.index(name)] += int(tok["exp"] or 1)
        else:
            coeff = coeff * _scalar_factor(tok, line)
        expect_factor = False
    if expect_factor:
        raise ParseError("empty term", line)
    return (coeff.negate() if negative else coeff), tuple(exponent)


def parse_binomial(text, names, line=None):
    """A generator line as a Binomial (at most two terms)."""
    terms = _signed_terms(text, line)
    if not terms:
        raise ParseError("empty generator", line)
    if len(terms) > 2:
        raise ParseError("binomials have at most two terms; got %d" % len(terms), line)
    # (exponent, coeff) pairs, as _term_sum takes them
    parsed = [parse_term(*term, names, line)[::-1] for term in terms]
    if len(parsed) == 1:
        return binomial(parsed[0][0])
    b = _term_sum(*parsed)
    if b is None:
        raise ParseError("generator cancels to zero", line)
    return b


def parse_single_term(text, names, line=None):
    """A one-term expression as (coeff, exponent)."""
    terms = _signed_terms(text, line)
    if len(terms) != 1:
        raise ParseError("expected a single term", line)
    return parse_term(*terms[0], names, line)


def parse_scalar(text, line=None):
    """A bare coefficient literal (no variables), e.g. ``-2/3*zeta(4,1)``."""
    return parse_single_term(text, (), line)[0]


def _matrix_row(text, line=None):
    try:
        return [int(x) for x in text.split()]
    except ValueError:
        raise ParseError("bad matrix row %r" % text, line) from None


def _rectangular(rows, empty, ragged, line=None):
    """``rows``, unless there are none or their lengths differ."""
    if not rows:
        raise ParseError(empty, line)
    if any(len(r) != len(rows[0]) for r in rows):
        raise ParseError(ragged, line)
    return rows


def parse_matrix_literal(text):
    """Whitespace-separated integer rows with ';' as the row separator."""
    rows = [_matrix_row(chunk.strip()) for chunk in text.split(";") if chunk.strip()]
    return _rectangular(rows, "empty matrix", "ragged matrix rows")


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
    """Parsed input: a ring plus named ideals and matrices, each name
    defined once per kind."""

    def __init__(self):
        self.names = ()
        self.ideals, self.matrices = {}, {}
        self.by_kind = {"ideal": self.ideals, "matrix": self.matrices}

    def named(self, kind, name):
        """The ideal or the matrix (``kind``) called ``name``."""
        if name not in self.by_kind[kind]:
            raise ParseError("unknown %s %r" % (kind, name))
        return self.by_kind[kind][name]

    def only_ideal(self, name=None):
        if name is None:
            if len(self.ideals) != 1:
                raise ParseError("input defines %d ideals; pick one with --ideal"
                                 % len(self.ideals))
            name = next(iter(self.ideals))
        return self.named("ideal", name)


def check_names(names, line=None):
    """The ring's variable names, which must be distinct identifiers other
    than ``zeta``, so that every printed generator parses back."""
    if not names or len(set(names)) != len(names):
        raise ParseError("ring needs distinct variable names", line)
    for n in names:
        if not (n.isascii() and n.isidentifier()) or n == "zeta":
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
            session.matrices[current_name] = _rectangular(
                pending, "matrix %r has no rows" % current_name,
                "matrix %r has ragged rows" % current_name, line)
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
            if current_name in session.by_kind[head]:
                raise ParseError("%s %r is already defined" % (head, current_name),
                                 lineno)
            mode = head
            continue
        if mode == "ideal":
            pending.append(parse_binomial(line, session.names, lineno))
        elif mode == "matrix":
            pending.append(_matrix_row(line, lineno))
        else:
            raise ParseError("expected ring/ideal/matrix, got %r" % line, lineno)
    flush(None)
    return session


# ---------------------------------------------------------------------------
# printing: the inverse of the grammar above, and quotient tables

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


def ideal_text(I, order=None):
    """Generators of the reduced GB, largest lead first under the order."""
    return [binomial_str(b, I.names) for b in I.groebner(order).elements[::-1]]


def ideal_json(I, order=None):
    return {"ring": list(I.names),
            "generators": [binomial_json(b, I.names)
                           for b in I.groebner(order).elements[::-1]]}


def _class_label(cls, names):
    if cls is NIL:
        return "inf"
    return monomial_str(cls, names) if any(cls) else "0"


def table_text(qt, names):
    """Aligned text rendition of a quotient table's addition table."""
    labels = [_class_label(cls, names) for cls in qt.classes]
    width = max(len(s) for s in labels + ["+"])
    rows = [["+"] + labels]
    for label, row in zip(labels, qt.table):
        rows.append([label] + [labels[j] for j in row])
    return "\n".join(" | ".join(s.rjust(width) for s in row) for row in rows)


def table_json(qt, names):
    return {
        "classes": [None if cls is NIL else list(cls) for cls in qt.classes],
        "labels": [_class_label(cls, names) for cls in qt.classes],
        "table": [list(row) for row in qt.table],
    }
