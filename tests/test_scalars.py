import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from binomials import Scalar
from binomials.errors import InputError
from binomials.scalars import MINUS_ONE, ONE, factor_positive

from gen import rng


def scalars(allow_roots=True):
    rationals = st.tuples(
        st.integers(min_value=-30, max_value=30).filter(lambda x: x != 0),
        st.integers(min_value=1, max_value=30),
    ).map(lambda t: Scalar.from_rational(*t))
    if not allow_roots:
        return rationals
    zetas = st.tuples(st.integers(min_value=1, max_value=12),
                      st.integers(min_value=0, max_value=11)).map(
        lambda t: Scalar.zeta(t[0], t[1] % t[0]))
    return st.builds(lambda a, b: a * b, rationals, zetas)


class TestConstruction:
    def test_one(self):
        assert Scalar.one().is_one()
        assert Scalar.from_rational(1).is_one()

    def test_minus_one_is_zeta2(self):
        assert Scalar.minus_one() == Scalar.zeta(2, 1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            Scalar.from_rational(0)

    def test_factorization(self):
        assert factor_positive(1) == {}
        assert factor_positive(12) == {2: 2, 3: 1}
        assert factor_positive(97) == {97: 1}

    def test_faithful(self):
        assert Scalar.from_rational(6, 4) == Scalar.from_rational(3, 2)
        assert Scalar.from_rational(2) != Scalar.from_rational(-2)
        assert Scalar.from_prime_powers(0, {2: 2}) == Scalar.from_rational(4)


class TestRefusals:
    def test_factor_zero(self):
        with pytest.raises(ValueError, match="expected a positive integer"):
            factor_positive(0)

    def test_zeta_of_order_zero(self):
        with pytest.raises(ValueError, match="zeta order must be positive"):
            Scalar.zeta(0)

    def test_root_of_degree_zero(self):
        with pytest.raises(ValueError, match="root degree must be >= 1"):
            Scalar.from_rational(2).root(0)

    @pytest.mark.parametrize("prime_map", [{4: 1}, {6: Fraction(1, 2)}, {1: 1}])
    def test_prime_powers_of_a_non_prime(self, prime_map):
        # 4 would print as 4 yet differ from from_rational(4), whose key is 2
        with pytest.raises(ValueError, match="is not a prime"):
            Scalar.from_prime_powers(0, prime_map)

    def test_fractional_power(self):
        with pytest.raises(TypeError):
            Scalar.from_rational(2) ** 0.5


class TestMultiplication:
    def test_i_times_i(self):
        i = Scalar.zeta(4, 1)
        assert i * i == Scalar.minus_one()

    def test_inverse_pair(self):
        assert (Scalar.from_rational(2) * Scalar.from_rational(1, 2)).is_one()

    def test_mixed(self):
        got = Scalar.from_rational(-2, 3) * Scalar.from_rational(3)
        assert got == Scalar.from_rational(-2)
        assert got.torsion == Fraction(1, 2)
        assert got.primes == ((2, Fraction(1)),)

    @given(scalars(), scalars(), scalars())
    def test_group_laws(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert (a * a.inv()).is_one()
        assert (a * Scalar.one()) == a

    @given(scalars(), st.integers(min_value=-6, max_value=6))
    def test_pow(self, a, k):
        by_hand = Scalar.one()
        for _ in range(abs(k)):
            by_hand = by_hand * a
        if k < 0:
            by_hand = by_hand.inv()
        assert a ** k == by_hand


class TestRoots:
    def test_square_roots_of_unity(self):
        assert Scalar.one().root(2, 1) == Scalar.minus_one()

    def test_root_of_minus_one(self):
        assert Scalar.minus_one().root(2, 0) == Scalar.zeta(4, 1)

    def test_root_of_four(self):
        assert Scalar.from_rational(4).root(2, 0) == Scalar.from_rational(2)

    @given(scalars(), st.integers(min_value=1, max_value=6))
    def test_all_roots(self, a, d):
        roots = [a.root(d, k) for k in range(d)]
        assert all(r ** d == a for r in roots)
        assert len(set(roots)) == d

    def test_branch_range(self):
        with pytest.raises(ValueError):
            Scalar.one().root(2, 2)


class TestEquality:
    def test_minus_one_forms(self):
        assert Scalar.from_rational(-1) == Scalar.minus_one()

    def test_zeta6_cubed(self):
        assert Scalar.zeta(6, 1) ** 3 == Scalar.minus_one()

    def test_sign_distinguished(self):
        assert Scalar.from_rational(2) != Scalar.from_rational(-2)


class TestRationality:
    def test_as_fraction(self):
        assert Scalar.from_rational(-8, 6).as_fraction() == Fraction(-4, 3)

    def test_irrational_rejected(self):
        with pytest.raises(ValueError):
            Scalar.from_rational(2).root(2, 0).as_fraction()

    def test_zeta_not_rational(self):
        assert not Scalar.zeta(3, 1).is_rational()


class TestRendering:
    def test_strings(self):
        assert str(Scalar.one()) == "1"
        assert str(Scalar.minus_one()) == "-1"
        assert str(Scalar.from_rational(-2, 3)) == "-2/3"
        assert str(Scalar.zeta(4, 1)) == "zeta(4,1)"
        assert str(Scalar.from_rational(2).root(2, 0)) == "2^(1/2)"
        assert str(Scalar.from_rational(2) * Scalar.zeta(3, 2)) == "2*zeta(3,2)"


def rand_prime_power_scalar(r):
    """Torsion k/m and a few primes with small, often fractional, exponents."""
    m = r.choice([1, 2, 3, 4, 6])
    exps = {p: Fraction(r.choice([-2, -1, 1, 2]), r.choice([1, 1, 2, 3]))
            for p in (2, 3, 5, 7) if r.random() < 0.5}
    return Scalar.from_prime_powers(Fraction(r.randrange(m), m), exps)


def by_construction(a, b):
    """a * b through the general constructor."""
    exps = dict(a.primes)
    for p, e in b.primes:
        exps[p] = exps.get(p, 0) + e
    return Scalar.from_prime_powers(a.torsion + b.torsion, exps)


class TestFastPaths:
    def test_product_matches_construction(self):
        r = rng(31)
        cancelled = 0
        for _ in range(500):
            a, b = rand_prime_power_scalar(r), rand_prime_power_scalar(r)
            if r.random() < 0.3:
                b = b * a.inv()     # a * b is the old b: the primes of a cancel
            assert a * b == by_construction(a, b)
            cancelled += len(set(dict(a.primes)) - set(dict((a * b).primes)))
        assert cancelled > 100

    def test_one_is_returned_operand(self):
        r = rng(32)
        for _ in range(50):
            a = rand_prime_power_scalar(r)
            assert ONE * a == a == a * ONE
            assert ONE * a == by_construction(ONE, a)

    def test_cancelled_prime_dropped(self):
        got = Scalar.from_rational(2, 3) * Scalar.from_rational(3)
        assert got.primes == ((2, Fraction(1)),)
        root = Scalar.from_rational(5).root(2, 0)
        assert (root * root.inv()).is_one()

    def test_torsion_wraps(self):
        assert Scalar.zeta(3, 2) * Scalar.zeta(3, 2) == Scalar.zeta(3, 1)
        assert (Scalar.zeta(4, 3) * Scalar.zeta(4, 1)).is_one()
        assert Scalar.zeta(6, 5) * MINUS_ONE == Scalar.zeta(3, 1)

    def test_negate_matches_construction(self):
        r = rng(33)
        for _ in range(200):
            a = rand_prime_power_scalar(r)
            assert a.negate() == Scalar.from_prime_powers(a.torsion + Fraction(1, 2),
                                                          dict(a.primes))
            assert a.negate().negate() == a
        assert MINUS_ONE.negate().is_one()
        assert ONE.negate() == MINUS_ONE

    def test_inverse_power_and_root_match_construction(self):
        # each is built in canonical form; the general constructor, which
        # sorts the primes, drops zero exponents and reduces the torsion,
        # must give the same value
        r = rng(34)
        for _ in range(200):
            a = rand_prime_power_scalar(r)
            t, exps = a.torsion, dict(a.primes)
            assert a.inv() == Scalar.from_prime_powers(-t, {p: -e for p, e in exps.items()})
            for k in range(-6, 7):
                assert a ** k == Scalar.from_prime_powers(
                    t * k, {p: e * k for p, e in exps.items()})
            for d in range(1, 7):
                for b in range(d):
                    assert a.root(d, b) == Scalar.from_prime_powers(
                        (t / d + Fraction(b, d)) % 1, {p: e / d for p, e in exps.items()})


def _trial_division(m):
    out, d = {}, 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


# primes beyond trial division: Pollard rho splits products with one of
# HUGE and any of MEDIUM well within its step budget
MEDIUM = (65537, 1000003, 1000000007, 2147483647)
HUGE = (4294967291, 999999999999999989, 2305843009213693951, 2 ** 64 - 59)


class TestFactoring:
    def test_matches_trial_division(self):
        r = rng(11)
        numbers = list(range(1, 3000)) + [r.randrange(1, 10 ** 8) for _ in range(100)]
        for m in numbers:
            assert factor_positive(m) == _trial_division(m)

    def test_products_of_known_primes(self):
        r = rng(12)
        for _ in range(40):
            want = {p: r.randint(1, 3) for p in r.sample((2, 3, 5, 1021), 2)}
            want.update({p: r.randint(1, 2) for p in r.sample(MEDIUM, r.randint(0, 2))})
            want.update({p: 1 for p in r.sample(HUGE, r.randint(0, 1))})
            m = 1
            for p, e in want.items():
                m *= p ** e
            assert factor_positive(m) == want

    def test_strong_pseudoprimes_split(self):
        # strong pseudoprime to the bases 2..23, with no factor below 1024
        assert factor_positive(3825123056546413051) == {
            149491: 1, 747451: 1, 34233211: 1}

    def test_large_prime_is_fast(self):
        start = time.perf_counter()
        assert factor_positive(999999999999999989) == {999999999999999989: 1}
        assert time.perf_counter() - start < 2

    def test_perfect_powers_split_before_rho(self):
        # rho alone spends its budget on the square of a 13-digit prime
        p = 10 ** 12 + 39
        start = time.perf_counter()
        assert factor_positive(p ** 2) == {p: 2}
        assert time.perf_counter() - start < 2
        assert factor_positive(p ** 3 * 1031 ** 5) == {p: 3, 1031: 5}
        assert factor_positive((1031 * 1033) ** 6) == {1031: 6, 1033: 6}

    def test_refusals(self):
        # two 20-digit prime factors: rho would need about 10^10 steps
        with pytest.raises(InputError, match="Pollard rho"):
            factor_positive((2 ** 64 - 59) * (2 ** 64 - 83))
        # a prime past the range where Miller-Rabin is a proof
        with pytest.raises(InputError, match="cannot prove"):
            factor_positive(2 ** 89 - 1)
        # the least strong pseudoprime to all 13 bases must not pass as prime
        with pytest.raises(InputError):
            factor_positive(3317044064679887385961981)
