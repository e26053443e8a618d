import pytest

from binomials import (BinomialIdeal, CellularComponent, Scalar, as_cellular,
                       binomial, cellular_component, cellular_decompose, elim,
                       ideal, ideal_contains, ideal_equals, ideal_member,
                       is_cellular, lex, monomial, prune, saturate_vars)
from binomials.errors import InputError, UnitIdealError
from binomials import cellular
from binomials import oracle as orc

from gen import rand_ideal, rand_mixed_ideal, rng

XY = ("X", "Y")
XYZ = ("X", "Y", "Z")


def paper_cellular_input():
    # <X^4 Y^2 - Z^6, X^3 Y^2 - Z^5, X^2 - Y Z>
    return ideal(XYZ, [binomial((4, 2, 0), (0, 0, 6)),
                       binomial((3, 2, 0), (0, 0, 5)),
                       binomial((2, 0, 0), (0, 1, 1))])


class TestIsCellular:
    def test_unmixed_example(self):
        I = ideal(XY, [binomial((2, 0), (0, 0)), binomial((1, 1), (0, 1)),
                       monomial((0, 2))])
        assert is_cellular(I) == frozenset({0})

    def test_lattice_ideal_full_delta(self):
        I = ideal(XY, [binomial((2, 0), (0, 2))])
        assert is_cellular(I) == frozenset({0, 1})

    def test_monomial_counterexample(self):
        I = ideal(XY, [monomial((2, 0)), monomial((1, 1))])
        assert is_cellular(I) is None

    def test_unit_rejected(self):
        with pytest.raises(UnitIdealError):
            is_cellular(ideal(XY, [monomial((0, 0))]))

    def test_component_records_exponents(self):
        I = ideal(XY, [binomial((1, 0), (0, 1)), monomial((0, 2))])
        comp = as_cellular(I)
        assert comp.delta == frozenset()
        assert comp.nilpotency == ((0, 2), (1, 2))

    def test_component_validation(self):
        I = ideal(XY, [binomial((1, 0), (0, 1)), monomial((0, 2))])
        with pytest.raises(InputError):
            cellular_component(I, frozenset({0}), {1: 2})

    @pytest.mark.parametrize("nilpotency, message", [
        ({0: 2}, "nilpotency exponents must cover the complement of delta"),
        ({0: 1, 1: 2}, "X_0\\^1 is not in the ideal")])
    def test_component_checks_nilpotency(self, nilpotency, message):
        I = ideal(XY, [binomial((1, 0), (0, 1)), monomial((0, 2))])
        with pytest.raises(InputError, match=message):
            cellular_component(I, frozenset(), nilpotency)

    def test_component_of_each_cellular_ideal(self):
        # the constructor accepts the view as_cellular reads off a cellular
        # ideal and returns that view
        r, found = rng(7), 0
        for _ in range(300):
            I = rand_ideal(r, 3, maxdeg=3)
            c = None if I.is_unit() else as_cellular(I)
            if c is not None:
                assert cellular_component(I, c.delta, dict(c.nilpotency)) == c, I
                found += 1
        assert found == 153

    @pytest.mark.parametrize("delta, nilpotency", [({5}, {0: 1, 1: 1}), ({-1}, {0: 1, 1: 1})])
    def test_component_checks_delta_indices(self, delta, nilpotency):
        I = ideal(XY, [binomial((1, 0), (0, 1))])
        with pytest.raises(InputError, match="variable index"):
            cellular_component(I, delta, nilpotency)

    @pytest.mark.parametrize("delta, nilpotency", [({0, 1}, {}), (set(), {0: 1, 1: 1})])
    def test_component_refuses_unit_ideal(self, delta, nilpotency):
        with pytest.raises(UnitIdealError):
            cellular_component(ideal(XY, [monomial((0, 0))]), delta, nilpotency)


class TestDecompose:
    def test_paper_example(self):
        I = paper_cellular_input()
        components = cellular_decompose(I)
        assert len(components) == 3
        for comp in components:
            assert is_cellular(comp.ideal) == comp.delta
            assert all(ideal_member(g, comp.ideal) for g in I.gens)
            assert ideal_equals(saturate_vars(comp.ideal, comp.delta), comp.ideal)
        gens = [orc.from_binomial_ideal(c.ideal) for c in components]
        target = orc.from_binomial_ideal(I)
        assert orc.ideal_equal(orc.intersect_all(gens, 3), target)

    def test_paper_reference_components_contain_input(self):
        I = paper_cellular_input()
        I1 = ideal(XYZ, [binomial((0, 1, 0), (0, 0, 1)),
                         binomial((1, 0, 0), (0, 0, 1))])
        I2 = ideal(XYZ, [monomial((0, 0, 2)), monomial((1, 0, 1)),
                         binomial((2, 0, 0), (0, 1, 1))])
        I3 = ideal(XYZ, [binomial((2, 0, 0), (0, 1, 1)),
                         binomial((1, 3, 1), (0, 0, 5)),
                         binomial((1, 0, 5), (0, 0, 6)),
                         monomial((0, 0, 7)), monomial((0, 7, 0))])
        for J in (I1, I2, I3):
            assert ideal_contains(J, I)

    def test_cellular_input_is_singleton(self):
        I = ideal(XY, [binomial((2, 0), (0, 2))])
        components = cellular_decompose(I)
        assert len(components) == 1
        assert ideal_equals(components[0].ideal, I)

    def test_monomial_example(self):
        I = ideal(XY, [monomial((2, 0)), monomial((1, 1))])
        components = cellular_decompose(I)
        assert len(components) == 2
        by_delta = {comp.delta: comp for comp in components}
        assert ideal_equals(by_delta[frozenset({1})].ideal,
                            ideal(XY, [monomial((1, 0))]))
        gens = [orc.from_binomial_ideal(c.ideal) for c in components]
        assert orc.ideal_equal(orc.intersect_all(gens, 2),
                               orc.from_binomial_ideal(I))

    def test_unit_rejected(self):
        with pytest.raises(UnitIdealError):
            cellular_decompose(ideal(XY, [monomial((0, 0))]))

    def test_random_soundness(self):
        r = rng(2020)
        done = 0
        while done < 25:
            I = rand_ideal(r, maxdeg=4)
            if I.is_unit() or I.is_zero():
                continue
            components = cellular_decompose(I)
            done += 1
            for comp in components:
                assert is_cellular(comp.ideal) == comp.delta
                assert all(ideal_member(g, comp.ideal) for g in I.gens)
            gens = [orc.from_binomial_ideal(c.ideal) for c in components]
            target = orc.from_binomial_ideal(I)
            assert orc.ideal_equal(orc.intersect_all(gens, 3), target)

    def test_deterministic(self):
        I1 = paper_cellular_input()
        I2 = paper_cellular_input()
        c1 = cellular_decompose(I1)
        c2 = cellular_decompose(I2)
        assert [c.ideal.groebner().elements for c in c1] == \
               [c.ideal.groebner().elements for c in c2]

    def test_four_variables(self):
        names = ("X", "Y", "Z", "W")
        I = ideal(names, [binomial((1, 1, 0, 0), (0, 0, 1, 1)),
                          monomial((2, 0, 0, 0)),
                          binomial((0, 1, 0, 1), (0, 0, 2, 0))])
        components = cellular_decompose(I)
        assert components
        for comp in components:
            assert is_cellular(comp.ideal) == comp.delta
            assert all(ideal_member(g, comp.ideal) for g in I.gens)
        gens = [orc.from_binomial_ideal(c.ideal) for c in components]
        assert orc.ideal_equal(orc.intersect_all(gens, 4),
                               orc.from_binomial_ideal(I))


class TestPrune:
    def test_superset_dropped(self):
        small = as_cellular(ideal(XY, [monomial((1, 0))]))
        big = as_cellular(ideal(XY, [monomial((1, 0)), monomial((0, 1))]))
        assert prune([small, big]) == [small]

    def test_duplicates_dropped(self):
        c = as_cellular(ideal(XY, [monomial((1, 0))]))
        c2 = as_cellular(ideal(XY, [monomial((1, 0))]))
        assert len(prune([c, c2])) == 1

    def test_paper_decomposition_unchanged(self):
        components = cellular_decompose(paper_cellular_input())
        assert prune(components) == components


def pairwise_dedupe(components):
    """The dedupe that reduced-basis keys replaced: each component is
    compared with every one kept before it."""
    unique = []
    for comp in components:
        if not any(ideal_equals(comp.ideal, kept.ideal) for kept in unique):
            unique.append(comp)
    return unique


def copy_of(comp, order=None):
    """The component on a new ideal with the same generators, holding its
    basis under ``order`` before any other."""
    fresh = BinomialIdeal(comp.ideal.names, comp.ideal.gens)
    if order is not None:
        fresh.groebner(order)
    return CellularComponent(comp.delta, fresh, comp.nilpotency)


def shape(components):
    return [(c.delta, c.ideal.groebner().elements, c.nilpotency) for c in components]


def seeded_ideals(seed, count):
    r = rng(seed)
    while count:
        I = rand_mixed_ideal(r) if count % 2 else rand_ideal(r, 4, maxdeg=3)
        if not (I.is_unit() or I.is_zero()):
            count -= 1
            yield I


class TestDedupeByReducedBasis:
    def test_decompositions_match_the_pairwise_reference(self, monkeypatch):
        for I in seeded_ideals(3030, 60):
            for prune_components in (False, True):
                got = cellular_decompose(BinomialIdeal(I.names, I.gens), prune_components)
                with monkeypatch.context() as m:
                    m.setattr(cellular, "_dedupe", pairwise_dedupe)
                    expected = cellular_decompose(BinomialIdeal(I.names, I.gens),
                                                  prune_components)
                assert shape(got) == shape(expected)

    def test_copies_match_the_pairwise_reference(self):
        """Components mixed with fresh copies, some holding a lex or
        elimination basis first: the first of each ideal is kept, in order."""
        r = rng(3031)
        dropped = 0
        for I in seeded_ideals(3032, 40):
            components = cellular_decompose(I)
            mixed = components + [copy_of(c, r.choice((None, lex(), elim([0]))))
                                  for c in components if r.random() < 0.7]
            r.shuffle(mixed)
            kept = cellular._dedupe(mixed)
            expected = pairwise_dedupe(mixed)
            assert len(kept) == len(expected)
            assert all(a is b for a, b in zip(kept, expected))
            assert shape(prune(mixed)) == shape(prune(expected))
            dropped += len(mixed) - len(kept)
        assert dropped >= 40, dropped

    def test_copy_holding_another_order_is_dropped(self):
        # X - Y^2 leads with Y^2 under grevlex and with X under lex
        comp = as_cellular(ideal(XY, [binomial((1, 0), (0, 2))]))
        copy = copy_of(comp, lex())
        assert copy.ideal.groebner(lex()).elements != comp.ideal.groebner().elements
        assert prune([comp, copy]) == [comp]

    def test_same_leads_and_trails_are_kept_apart(self):
        # <X - 1> and <X + 1> share every lead and trail but differ
        minus = as_cellular(ideal(XY, [binomial((1, 0), (0, 0))]))
        plus = as_cellular(ideal(XY, [binomial((1, 0), (0, 0), Scalar.minus_one())]))
        assert prune([minus, plus]) == sorted([minus, plus], key=cellular.component_sort_key)

    def test_components_from_two_rings_are_refused(self):
        X = as_cellular(ideal(XY, [monomial((1, 0))]))
        A = as_cellular(ideal(("A", "B"), [monomial((1, 0))]))
        for components in ([X, A], [X, X, A], [A, X]):
            with pytest.raises(InputError, match="different rings"):
                prune(components)
