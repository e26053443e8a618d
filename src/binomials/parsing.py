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
e^(2*pi*i*k/m), and fractional prime powers ``p^(a/b)`` with a signed
numerator ``a`` (the latter so that printed output, ``2^(-1/2)`` included,
always re-parses).

The grammar functions raise ``ParseError`` without a position: they read
flag values as well as session lines.  Only ``parse_input`` numbers lines,
so only it prefixes an error with ``line N: ``: any ``InputError`` raised
while reading a line, a refused coefficient factor included.

A matrix needs no algebra: the functions that build a coefficient or an
ideal import ``scalars`` and ``engine`` themselves, so reading and printing
integer rows loads neither (nor ``fractions``, which ``scalars`` imports).
"""

import re

from .errors import InputError, ParseError
from .orders import NIL, grevlex, lex

_TOKEN = re.compile(r"""
    (?P<zeta>zeta\(\s*(?P<order>\d+)\s*,\s*(?P<index>\d+)\s*\))
  | (?P<power>(?P<base>\d+)\^\(\s*(?P<power_num>-?\d+)\s*/\s*(?P<power_den>\d+)\s*\))
  | (?P<number>(?P<num>\d+)(?:\s*/\s*(?P<den>\d+))?)
  | (?P<name>(?P<var>[A-Za-z_][A-Za-z0-9_]*)(?:\^(?P<exp>\d+))?)
  | (?P<op>[+\-*])
  | (?P<space>\s+)
  | (?P<bad>.)
""", re.VERBOSE)


def _tokenize(text):
    """The token matches of ``text``, spaces left out.  A token's kind is
    its ``lastgroup``; its parts are the named groups inside that kind."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        if kind == "bad":
            raise ParseError("unexpected character %r" % m.group())
        tokens.append(m)
    return tokens


def _scalar_factor(tok):
    from .scalars import Scalar
    kind = tok.lastgroup
    if kind == "zeta":
        m, k = int(tok["order"]), int(tok["index"])
        if m <= 0:
            raise ParseError("zeta order must be positive")
        return Scalar.zeta(m, k)
    if kind == "power":
        base, num, den = int(tok["base"]), int(tok["power_num"]), int(tok["power_den"])
        if base == 0:
            raise ParseError("zero coefficient")
        if den == 0:
            raise ParseError("root degree must be at least 1")
        return Scalar.from_rational(base).root(den, 0) ** num
    num, den = int(tok["num"]), int(tok["den"] or 1)
    if den == 0:
        raise ParseError("zero denominator")
    if num == 0:
        raise ParseError("zero coefficient")
    return Scalar.from_rational(num, den)


def _signed_terms(text):
    """The terms of ``text``, each (negative, factor tokens).  A ``+`` or
    ``-`` starts a term and signs it, unless the term before it has no token
    yet: a leading sign signs the first term, and in ``X - -Y`` the second
    ``-`` is a misplaced operator.  Text without tokens has no terms."""
    terms = []
    for tok in _tokenize(text):
        if tok["op"] in ("+", "-") and (not terms or terms[-1][1]):
            terms.append((tok["op"] == "-", []))
        elif terms:
            terms[-1][1].append(tok)
        else:
            terms.append((False, [tok]))
    return terms


def parse_term(negative, tokens, names):
    """(coeff, exponent) of a term of ``_signed_terms``: factor tokens
    (numbers, zetas, variables) joined by ``*``, negated if ``negative``.
    Without ``names`` the term is a scalar literal."""
    from .scalars import ONE
    coeff = ONE
    exponent = [0] * len(names)
    expect_factor = True
    for tok in tokens:
        kind = tok.lastgroup
        if kind == "op":
            if tok["op"] != "*" or expect_factor:
                raise ParseError("misplaced operator %r" % tok["op"])
            expect_factor = True
            continue
        if kind == "name":
            name = tok["var"]
            if name not in names:
                raise ParseError("unknown variable %r" % name if names else
                                 "expected a scalar literal, found %r" % tok.group())
            exponent[names.index(name)] += int(tok["exp"] or 1)
        else:
            coeff = coeff * _scalar_factor(tok)
        expect_factor = False
    if expect_factor:
        raise ParseError("empty term")
    return (coeff.negate() if negative else coeff), tuple(exponent)


def parse_binomial(text, names):
    """A generator line as a Binomial (at most two terms)."""
    from .engine import _term_sum, binomial
    terms = _signed_terms(text)
    if not terms:
        raise ParseError("empty generator")
    if len(terms) > 2:
        raise ParseError("binomials have at most two terms; got %d" % len(terms))
    # (exponent, coeff) pairs, as _term_sum takes them
    parsed = [parse_term(*term, names)[::-1] for term in terms]
    if len(parsed) == 1:
        return binomial(parsed[0][0])
    b = _term_sum(*parsed)
    if b is None:
        raise ParseError("generator cancels to zero")
    return b


def parse_single_term(text, names):
    """A one-term expression as (coeff, exponent)."""
    terms = _signed_terms(text)
    if len(terms) != 1:
        raise ParseError("expected a single term")
    return parse_term(*terms[0], names)


def parse_scalar(text):
    """A bare coefficient literal (no variables), e.g. ``-2/3*zeta(4,1)``."""
    return parse_single_term(text, ())[0]


def _matrix_row(text):
    try:
        return [int(x) for x in text.split()]
    except ValueError:
        raise ParseError("bad matrix row %r" % text) from None


def _rectangular(rows, empty, ragged):
    """``rows``, unless there are none or their lengths differ."""
    if not rows:
        raise ParseError(empty)
    if any(len(r) != len(rows[0]) for r in rows):
        raise ParseError(ragged)
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


def check_names(names):
    """The ring's variable names, which must be distinct identifiers other
    than ``zeta``, so that every printed generator parses back."""
    if not names or len(set(names)) != len(names):
        raise ParseError("ring needs distinct variable names")
    for n in names:
        if not (n.isascii() and n.isidentifier()) or n == "zeta":
            raise ParseError("bad variable name %r" % n)
    return names


def parse_input(text):
    """Parse a session file.  An InputError from a line names that line,
    comment and blank lines counted; one found at end of file names none."""
    session = Session()
    mode, current_name, pending = None, None, []

    def flush():
        nonlocal pending
        if mode == "ideal":
            from .engine import BinomialIdeal
            session.ideals[current_name] = BinomialIdeal(session.names, tuple(pending))
        elif mode == "matrix":
            session.matrices[current_name] = _rectangular(
                pending, "matrix %r has no rows" % current_name,
                "matrix %r has ragged rows" % current_name)
        pending = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        try:
            if head == "ring":
                if session.names:
                    raise ParseError("ring already declared")
                session.names = check_names(tuple(rest.split()))
            elif head in ("ideal", "matrix"):
                flush()
                if not session.names and head == "ideal":
                    raise ParseError("declare the ring before any ideal")
                current_name = rest.strip()
                if not current_name:
                    raise ParseError("%s needs a name" % head)
                if current_name in session.by_kind[head]:
                    raise ParseError("%s %r is already defined" % (head, current_name))
                mode = head
            elif mode == "ideal":
                pending.append(parse_binomial(line, session.names))
            elif mode == "matrix":
                pending.append(_matrix_row(line))
            else:
                raise ParseError("expected ring/ideal/matrix, got %r" % line)
        except InputError as exc:
            raise ParseError("line %d: %s" % (lineno, exc)) from None
    flush()
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


def term_str(coeff, exponent, names):
    """The term c*X^u as it parses back: ``X^u`` alone when c is 1."""
    head = monomial_str(exponent, names)
    return head if coeff.is_one() else "%s*%s" % (coeff, head)


def binomial_str(b, names):
    head = monomial_str(b.lead, names)
    if b.trail is None:
        return head
    coeff = b.coeff
    sign = "-"
    if coeff.torsion * 2 == 1:
        sign = "+"
        coeff = coeff.negate()
    return "%s %s %s" % (head, sign, term_str(coeff, b.trail, names))


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


def printed_basis(I, order=None):
    """The generators a result prints, as text, as JSON and to the oracle
    check: the reduced basis of I under ``order`` (grevlex when None),
    largest lead first."""
    return I.groebner(order).elements[::-1]


def ideal_text(I, order=None):
    return [binomial_str(b, I.names) for b in printed_basis(I, order)]


def ideal_json(I, order=None):
    return {"ring": list(I.names),
            "generators": [binomial_json(b, I.names) for b in printed_basis(I, order)]}


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
