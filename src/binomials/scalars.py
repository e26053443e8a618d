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

from collections import namedtuple
from fractions import Fraction
from math import gcd

from .errors import InputError


# Trial division takes the prime factors below _TRIAL.  Miller-Rabin with
# the 13 prime bases up to 41 is a proof of primality below _MR_EXACT
# (Sorenson & Webster, Math. Comp. 86, 2017).  A perfect power splits by
# its integer root, and Pollard rho splits the rest under a budget counted
# in evaluations of its map, not in seconds.
_TRIAL = 1 << 10
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT = 3317044064679887385961981
_RHO_STEPS = 1 << 20
_RHO_BATCH = 128


def factor_positive(m):
    """Prime factorization of a positive integer as a dict prime -> exponent.

    Raises InputError when a factor resists Pollard rho within the step
    budget, or a prime factor is too large for Miller-Rabin to prove it
    prime: either way the factorization, and so equality of scalars, could
    not be exact.
    """
    if m <= 0:
        raise ValueError("expected a positive integer, got %r" % (m,))
    out = {}
    d = 2
    while d < _TRIAL and d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    pending, steps = ([m] if m > 1 else []), _RHO_STEPS
    while pending:
        m = pending.pop()
        # no factor of m is below _TRIAL
        if m < _TRIAL * _TRIAL or _is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        root, k = _perfect_power(m)
        if k > 1:
            pending += [root] * k
        else:
            f, steps = _rho_factor(m, steps)
            pending += [f, m // f]
    return out


def _perfect_power(m):
    """(r, k) with m = r^k and k > 1 when there is one, else (m, 1); m has
    no factor below _TRIAL, so k stays below m.bit_length() / 10."""
    for k in range(2, m.bit_length() // 10 + 1):
        # Newton's iteration for the integer k-th root, from above
        r = 1 << -(-m.bit_length() // k)
        while True:
            s = ((k - 1) * r + m // r ** (k - 1)) // k
            if s >= r:
                break
            r = s
        if r ** k == m:
            return r, k
    return m, 1


def _is_prime(m):
    """Miller-Rabin for an odd m > 41 with no factor below _TRIAL; a proof
    below _MR_EXACT, above it a passing m raises InputError."""
    d, s = m - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    if m >= _MR_EXACT:
        raise InputError("cannot prove %d prime: coefficient factors must "
                         "stay below %d" % (m, _MR_EXACT))
    return True


def _rho_factor(m, steps):
    """(a proper factor of the odd composite m, steps left) by Brent's
    variant of Pollard rho; raises InputError once ``steps`` is spent."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % m
                    q = q * abs(x - y) % m
                g = gcd(q, m)
                k += _RHO_BATCH
            steps -= 2 * r  # at most 2r evaluations of the map this round
            if steps < 0:
                raise InputError("cannot split the coefficient factor %d within "
                                 "%d Pollard rho steps" % (m, _RHO_STEPS))
            r *= 2
        if g == m:
            # the batch overshot: step through it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = gcd(abs(x - ys), m)
        if g != m:
            return g, steps


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


class Scalar(namedtuple("Scalar", "torsion primes")):
    """e^(2*pi*i*torsion) * prod(p**e for p, e in primes); never zero.

    ``torsion`` is a reduced rational in [0, 1); ``primes`` is a sorted
    tuple of (prime, nonzero rational exponent) pairs.
    """

    __slots__ = ()

    def __new__(cls, torsion=Fraction(0), primes=()):
        if not (0 <= torsion < 1):
            raise ValueError("torsion %s outside [0, 1)" % (torsion,))
        last = 1
        for p, e in primes:
            if p <= last:
                raise ValueError("primes must be sorted and distinct")
            if e == 0:
                raise ValueError("zero exponent stored for prime %d" % p)
            last = p
        return tuple.__new__(cls, (torsion, primes))

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
        return self ** -1

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if not k:
            return ONE
        # a nonzero k keeps the primes sorted and every exponent nonzero
        return Scalar(self.torsion * k % 1, tuple((p, e * k) for p, e in self.primes))

    def root(self, d, branch=0):
        """A d-th root; branch k in [0, d) adds k/d of torsion.

        The d results for branch = 0..d-1 are pairwise distinct and are
        all the d-th roots of this value within the model.
        """
        if d < 1:
            raise ValueError("root degree must be >= 1")
        if not 0 <= branch < d:
            raise ValueError("branch %d outside [0, %d)" % (branch, d))
        # (t + branch) / d < 1 as t < 1 and branch <= d - 1
        return Scalar((self.torsion + branch) / d,
                      tuple((p, e / d) for p, e in self.primes))

    def negate(self):
        torsion = self.torsion + _HALF
        if torsion >= 1:
            torsion -= 1
        return Scalar(torsion, self.primes)

    def is_one(self):
        return self.torsion == 0 and not self.primes

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
