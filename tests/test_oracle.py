from fractions import Fraction

import pytest

from binomials import binomial, ideal
from binomials.errors import InputError
from binomials.oracle import (from_binomial_ideal, ideal_equal, intersect_all,
                              member, p_divide, poly, rational_colon_poly,
                              rational_gb, rational_intersect)
from binomials.orders import lex

from gen import rand_ideal, rng


def uni(*coeffs):
    """Dense univariate polynomial from high degree down."""
    deg = len(coeffs) - 1
    return poly([((deg - i,), c) for i, c in enumerate(coeffs) if c])


class TestGroebner:
    def test_principal(self):
        assert rational_gb([uni(1, 0, -1)]) == [uni(1, 0, -1)]

    def test_containment_collapse(self):
        gb = rational_gb([uni(1, 0, 0, -1), uni(1, -1)])
        assert gb == [uni(1, -1)]

    def test_matches_binomial_engine_on_toric(self):
        names = ("T", "X", "Y", "Z")
        gens = [poly([((0, 1, 0, 0), 1), ((3, 0, 0, 0), -1)]),
                poly([((0, 0, 1, 0), 1), ((4, 0, 0, 0), -1)]),
                poly([((0, 0, 0, 1), 1), ((5, 0, 0, 0), -1)])]
        gb = rational_gb(gens, lex())
        kept = [{u[1:]: c for u, c in f.items()} for f in gb
                if all(u[0] == 0 for u in f)]
        expected = [poly([((2, 1, 0), 1), ((0, 0, 2), -1)]),
                    poly([((0, 2, 0), 1), ((1, 0, 1), -1)]),
                    poly([((3, 0, 0), 1), ((0, 1, 1), -1)])]
        assert ideal_equal(kept, expected)


class TestIntersect:
    def test_two_points(self):
        got = rational_intersect([uni(1, -1)], [uni(1, -2)], 1)
        assert ideal_equal(got, [uni(1, -3, 2)])

    def test_lattice_pair(self):
        a = poly([((2, 0), 1), ((0, 2), -1)])
        b = poly([((3, 0), 1), ((0, 3), -1)])
        got = rational_intersect([a], [b], 2)
        quartic = poly([((4, 0), 1), ((3, 1), 1), ((1, 3), -1), ((0, 4), -1)])
        assert ideal_equal(got, [quartic])

    def test_self_intersection(self):
        a = poly([((2, 1), 1), ((0, 0), -5)])
        assert ideal_equal(rational_intersect([a], [a], 2), [a])

    def test_intersect_all(self):
        gens = [[uni(1, -1)], [uni(1, -2)], [uni(1, -3)]]
        got = intersect_all(gens, 1)
        assert ideal_equal(got, [uni(1, -6, 11, -6)])

    def test_intersect_nothing(self):
        with pytest.raises(InputError, match="nothing to intersect"):
            intersect_all([], 1)


class TestColon:
    def test_cyclotomic_counterexample(self):
        got = rational_colon_poly([uni(1, 0, 0, -1)], uni(1, -1), 1)
        assert ideal_equal(got, [uni(1, 1, 1)])

    def test_divide_exact(self):
        q = p_divide(uni(1, 0, -1), uni(1, -1))
        assert q == uni(1, 1)

    def test_divide_rejects(self):
        with pytest.raises(InputError):
            p_divide(uni(1, 0, 0, -2), uni(1, -1))


class TestIdealEqual:
    def test_reflexive(self):
        a = poly([((1, 1), Fraction(2, 3)), ((0, 0), 1)])
        assert ideal_equal([a], [a])

    def test_scaling_invariant(self):
        a = uni(2, -2)
        assert ideal_equal([a], [uni(1, -1)])

    def test_strict_containment(self):
        assert not ideal_equal([uni(1, 0)], [uni(1, 0, 0)])
        assert member(uni(1, 0, 0), rational_gb([uni(1, 0)]))

    def test_augmentation_example(self):
        # <X-Y, Y^3-Y^2> equals <X-Y,Y^2> n <X-1,Y-1>
        i1 = [poly([((1, 0), 1), ((0, 1), -1)]), poly([((0, 2), 1)])]
        aug = [poly([((1, 0), 1), ((0, 0), -1)]), poly([((0, 1), 1), ((0, 0), -1)])]
        inter = rational_intersect(i1, aug, 2)
        target = [poly([((1, 0), 1), ((0, 1), -1)]),
                  poly([((0, 3), 1), ((0, 2), -1)])]
        assert ideal_equal(inter, target)


class TestConversion:
    def test_rational_only(self):
        from binomials import Scalar
        I = ideal(("X", "Y"), [binomial((1, 0), (0, 1), Scalar.zeta(3, 1))])
        with pytest.raises(ValueError):
            from_binomial_ideal(I)

    def test_round_trip_equality(self):
        r = rng(909)
        for _ in range(50):
            I = rand_ideal(r)
            gens = from_binomial_ideal(I)
            assert ideal_equal(gens, rational_gb(gens))
