"""Exact nonzero coefficients: roots of unity times positive rational prime powers.

A ``Scalar`` models an element of the multiplicative group

    {e^(2*pi*i*t) : t in Q/Z}  x  {prod p^(a_p) : a_p in Q, finitely many},

which is exactly the subgroup of the nonzero algebraic numbers that binomial
Groebner computations ever produce: coefficients only get multiplied,
inverted, raised to roots, and compared.  No additive structure exists here
by design; sums like 1 + zeta_3 are unrepresentable.

Faithfulness: two scalars are equal iff their components are equal, by
unique factorization, so equality is a plain field-by-field comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def factor_positive(m):
    """Prime factorization of a positive integer as a dict prime -> exponent."""
    if m <= 0:
        raise ValueError("expected a positive integer, got %r" % (m,))
    out = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def _merge_primes(a, b):
    """Product of two sorted (prime, exponent) tuples; cancelled primes drop out."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        p, q = a[i][0], b[j][0]
        if p < q:
            out.append(a[i])
            i += 1
        elif q < p:
            out.append(b[j])
            j += 1
        else:
            e = a[i][1] + b[j][1]
            if e:
                out.append((p, e))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class Scalar:
    """e^(2*pi*i*torsion) * prod(p**e for p, e in primes); never zero.

    ``torsion`` is a reduced rational in [0, 1); ``primes`` is a sorted
    tuple of (prime, nonzero rational exponent) pairs.
    """

    torsion: Fraction = Fraction(0)
    primes: tuple = ()

    def __post_init__(self):
        if not (0 <= self.torsion < 1):
            raise ValueError("torsion %s outside [0, 1)" % (self.torsion,))
        last = 1
        for p, e in self.primes:
            if p <= last:
                raise ValueError("primes must be sorted and distinct")
            if e == 0:
                raise ValueError("zero exponent stored for prime %d" % p)
            last = p

    @classmethod
    def one(cls):
        return cls()

    @classmethod
    def minus_one(cls):
        return cls(Fraction(1, 2))

    @classmethod
    def from_prime_powers(cls, torsion, prime_map):
        primes = tuple(sorted((p, Fraction(e)) for p, e in prime_map.items()
                              if e != 0))
        return cls(Fraction(torsion) % 1, primes)

    @classmethod
    def from_rational(cls, num, den=1):
        """The rational num/den as a Scalar; raises on zero."""
        q = Fraction(num, den)
        if q == 0:
            raise ValueError("Scalar cannot represent zero")
        torsion = Fraction(0) if q > 0 else Fraction(1, 2)
        exps = dict(factor_positive(abs(q.numerator)))
        for p, e in factor_positive(q.denominator).items():
            exps[p] = exps.get(p, 0) - e
        return cls.from_prime_powers(torsion, exps)

    @classmethod
    def zeta(cls, order, k=1):
        """The root of unity e^(2*pi*i*k/order)."""
        if order <= 0:
            raise ValueError("zeta order must be positive")
        return cls(Fraction(k, order) % 1)

    def __mul__(self, other):
        if self.is_one():
            return other
        if other.is_one():
            return self
        torsion = self.torsion + other.torsion
        if torsion >= 1:
            torsion -= 1
        return Scalar(torsion, _merge_primes(self.primes, other.primes))

    def inv(self):
        return Scalar.from_prime_powers(-self.torsion,
                                        {p: -e for p, e in self.primes})

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return Scalar.from_prime_powers(self.torsion * k,
                                        {p: e * k for p, e in self.primes})

    def root(self, d, branch=0):
        """A d-th root; branch k in [0, d) adds k/d of torsion.

        The d results for branch = 0..d-1 are pairwise distinct and are
        all the d-th roots of this value within the model.
        """
        if d < 1:
            raise ValueError("root degree must be >= 1")
        if not 0 <= branch < d:
            raise ValueError("branch %d outside [0, %d)" % (branch, d))
        torsion = (self.torsion / d + Fraction(branch, d)) % 1
        return Scalar.from_prime_powers(torsion,
                                        {p: e / d for p, e in self.primes})

    def negate(self):
        torsion = self.torsion + _HALF
        if torsion >= 1:
            torsion -= 1
        return Scalar(torsion, self.primes)

    def is_one(self):
        return self.torsion == 0 and not self.primes

    def is_minus_one(self):
        return self.torsion == Fraction(1, 2) and not self.primes

    def is_rational(self):
        return (self.torsion in (Fraction(0), Fraction(1, 2))
                and all(e.denominator == 1 for _, e in self.primes))

    def as_fraction(self):
        """This value as a Fraction; raises if it is not rational."""
        if not self.is_rational():
            raise ValueError("%s is not rational" % (self,))
        q = Fraction(1)
        for p, e in self.primes:
            q *= Fraction(p) ** int(e)
        return -q if self.torsion else q

    def __str__(self):
        sign = ""
        factors = []
        t = self.torsion
        if t == Fraction(1, 2):
            sign = "-"
        elif t != 0:
            factors.append("zeta(%d,%d)" % (t.denominator, t.numerator))
        rational = Fraction(1)
        for p, e in self.primes:
            if e.denominator == 1:
                rational *= Fraction(p) ** int(e)
            else:
                factors.append("%d^(%s)" % (p, e))
        if rational != 1 or not factors:
            factors.insert(0, str(rational))
        return sign + "*".join(factors)


ONE = Scalar.one()
MINUS_ONE = Scalar.minus_one()
