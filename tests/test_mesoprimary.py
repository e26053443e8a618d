import itertools
from fractions import Fraction

import pytest

from binomials import (BinomialIdeal, Lattice, Mesoprime, PartialCharacter,
                       Scalar, as_cellular, associated_mesoprimes, binomial,
                       cellular_decompose, cellular_radical, character_of,
                       eliminate, colon_monomial, ideal, ideal_contains,
                       ideal_equals, ideal_member, ideal_sum, is_cellular,
                       is_mesoprime, is_mesoprimary, is_prime, mesoprime,
                       mesoprimary_primary_decomposition, monomial,
                       quotient_index, saturations)
from binomials.errors import InputError, NotMesoprimaryError, UnitIdealError
from binomials import engine, mesoprimary
from binomials.mesoprimary import delta_character, _mesoprimes
from binomials.orders import e_deg, unit
from binomials import oracle as orc

from gen import rand_ideal, rand_mixed_ideal, rand_twisted_ideal, rng

XY = ("X", "Y")
XYZ = ("X", "Y", "Z")
ONE = Scalar.one()


def um_ideal():
    # the unmixed cellular ideal <X^2-1, XY-Y, Y^2>
    return ideal(XY, [binomial((2, 0), (0, 0)), binomial((1, 1), (0, 1)),
                      monomial((0, 2))])


def toric345():
    return ideal(XYZ, [binomial((0, 2, 0), (1, 0, 1)),
                       binomial((2, 1, 0), (0, 0, 2)),
                       binomial((3, 0, 0), (0, 1, 1))])


class TestAssociatedMesoprimes:
    def test_unmixed_example(self):
        pairs = associated_mesoprimes(as_cellular(um_ideal()))
        ideals = [m.ideal() for m, _, _ in pairs]
        expected = [ideal(XY, [binomial((1, 0), (0, 0)), monomial((0, 1))]),
                    ideal(XY, [binomial((2, 0), (0, 0)), monomial((0, 1))])]
        assert len(ideals) == 2
        assert all(any(ideal_equals(got, want) for got in ideals)
                   for want in expected)
        witnesses = {tuple(sorted(m.character.lattice.basis)): w
                     for m, w, _ in pairs}
        assert witnesses[((1, 0),)] == (0, 1)   # <X-1,Y> arises from (I : Y)
        assert witnesses[((2, 0),)] == (0, 0)

    def test_lattice_ideal_single(self):
        I = ideal(XY, [binomial((2, 0), (0, 2))])
        pairs = associated_mesoprimes(as_cellular(I))
        assert len(pairs) == 1
        assert ideal_equals(pairs[0][0].ideal(), I)

    def test_trivial_delta(self):
        I = ideal(XY, [binomial((1, 0), (0, 1)), monomial((0, 2))])
        pairs = associated_mesoprimes(as_cellular(I))
        assert len(pairs) == 1
        assert ideal_equals(pairs[0][0].ideal(),
                            ideal(XY, [monomial((1, 0)), monomial((0, 1))]))

    def test_walk_matches_the_box(self):
        # seeded cellular components with rational, root-of-unity and
        # prime-power coefficients, homogeneous or not, with 0 to 3 or more
        # nilpotent variables: the walk gives the box's pairs, in its order.
        # Twisted ideals make the mesoprime depend on the whole of u.
        r = rng(2929)
        seen, twisted = set(), 0
        for _ in range(150):
            if r.random() < 0.3:
                I = rand_twisted_ideal(r, rational=r.random() < 0.5)
            else:
                I = rand_mixed_ideal(r, n=r.choice((2, 3)))
            if I.is_unit():
                continue
            for comp in cellular_decompose(I):
                got = [(m, u) for m, u, _ in _mesoprimes(comp)]
                assert got == reference_mesoprimes(comp), comp
                twisted += len(comp.nilpotency) > 1 and len(set(m for m, _ in got)) > 1
                seen |= _kinds(comp.ideal) | {len(comp.nilpotency)}
        assert seen >= {0, 1, 2, 3, "rational", "root", "power",
                        "homogeneous", "inhomogeneous"}, seen
        assert twisted >= 20, twisted

    def test_mixed4_colon_count(self, monkeypatch):
        # <XY - Z^2, ZW - X^2, W^3>: one colon per node of the walk.  The
        # count changes only on purpose; taking each colon from I makes 94
        from binomials import engine
        comp = as_cellular(mixed4())
        calls, colon_var = [], engine._colon_var
        monkeypatch.setattr(engine, "_colon_var",
                            lambda *a: calls.append(a) or colon_var(*a))
        pairs = associated_mesoprimes(comp)
        assert [u for _, u, _ in pairs] == [(0, 0, 0, 0)]
        assert len(calls) == 51

    def test_mixed4_buchberger_runs(self, monkeypatch):
        # the 52 leaves read their characters off generators, so the walk
        # computes no elimination basis.  The count changes only on purpose
        from binomials import engine
        comp = as_cellular(mixed4())
        orders, reduced_basis = [], engine._reduced_basis
        monkeypatch.setattr(engine, "_reduced_basis", lambda gens, order:
                            orders.append(order.kind) or reduced_basis(gens, order))
        associated_mesoprimes(comp)
        assert len(orders) == 18
        assert "elim" not in orders

    def test_leaves_read_the_character_off_the_generators(self, monkeypatch):
        # at every leaf of the walk, over seeded cellular components of
        # rational, root-of-unity and inhomogeneous ideals, the generators
        # on delta give the character of the elimination ideal
        leaves = []

        def recording(J, delta):
            got = delta_character(J, delta)
            leaves.append((J, delta, got))
            return got
        monkeypatch.setattr(mesoprimary, "delta_character", recording)
        r = rng(19)
        kinds = set()
        for trial in range(400):
            I = rand_ideal(r, n=r.choice((2, 3)), maxdeg=4, rational=trial % 2 == 0)
            if I.is_unit():
                continue
            for comp in cellular_decompose(I):
                list(_mesoprimes(comp))
                kinds |= _kinds(comp.ideal)
        for J, delta, got in leaves:
            assert got == reference_character(J, delta), (J, delta)
            # any iterable delta is accepted
            assert delta_character(J, sorted(delta)) == got
        assert kinds >= {"rational", "root", "inhomogeneous"}, kinds
        assert sum(1 for _, delta, _ in leaves if delta) >= 600
        assert sum(1 for _, _, got in leaves if got.lattice.rank) >= 300


def mixed4():
    return ideal(("X", "Y", "Z", "W"), [binomial((1, 1, 0, 0), (0, 0, 2, 0)),
                                        binomial((0, 0, 1, 1), (2, 0, 0, 0)),
                                        monomial((0, 0, 0, 3))])


def reference_character(J, delta):
    """The definition: the character of J n k[delta], from a basis under an
    order eliminating the variables off delta; trivial when delta is empty."""
    if not delta:
        return PartialCharacter.trivial(Lattice(J.n, ()))
    return character_of(eliminate(J, delta))


def reference_mesoprimes(component):
    """Every u of the box u_i < d_i off delta with X^u outside I, in
    lexicographic order, with the mesoprime of I : X^u taken from scratch."""
    I = BinomialIdeal(component.ideal.names, component.ideal.gens)
    indices = [i for i, _ in component.nilpotency]
    out = []
    for combo in itertools.product(*(range(d) for _, d in component.nilpotency)):
        u = [0] * I.n
        for i, c in zip(indices, combo):
            u[i] = c
        u = tuple(u)
        if not ideal_member(monomial(u), I):
            character = reference_character(colon_monomial(I, u), component.delta)
            out.append((Mesoprime(I.names, component.delta, character), u))
    return out


def _kinds(I):
    """The coefficient kinds and the grading of I's generators."""
    kinds = set()
    for g in I.gens:
        if g.trail is not None:
            if g.coeff.torsion not in (0, Fraction(1, 2)):
                kinds.add("root")
            if any(e.denominator != 1 for _, e in g.coeff.primes):
                kinds.add("power")
            if e_deg(g.lead) != e_deg(g.trail):
                kinds.add("inhomogeneous")
    if not kinds & {"root", "power"}:
        kinds.add("rational")
    if "inhomogeneous" not in kinds:
        kinds.add("homogeneous")
    return kinds


class TestDeltaPart:
    def test_read_off_the_held_basis(self, monkeypatch):
        # seeded cellular components with rational, root-of-unity and
        # prime-power coefficients, homogeneous or not: each triple's ideal,
        # built once, and the radical hold the reduced basis of I_L(rho) + m
        # under their order, equal m.ideal() under grevlex, and cost no
        # Buchberger run when the ideal they are read off holds a basis
        from binomials import engine
        from binomials.orders import grevlex
        runs, reduced_basis = [], engine._reduced_basis
        monkeypatch.setattr(engine, "_reduced_basis", lambda gens, order:
                            runs.append(order) or reduced_basis(gens, order))
        count = dict.fromkeys(("built", "held", "triples", "nilpotent", "radicals"), 0)
        delta_part = mesoprimary.delta_part

        def built(J, delta):
            held, before = bool(J._gb), len(runs)
            P = delta_part(J, delta)
            assert not held or len(runs) == before, J
            count["built"] += 1
            count["held"] += held
            return P
        monkeypatch.setattr(mesoprimary, "delta_part", built)

        def check(P, m):
            want = reference_mesoprime_ideal(m)
            gb = P._any_basis()
            assert gb.elements == reduced_basis(want.gens, gb.order), (P, m)
            grevlex_basis = reduced_basis(want.gens, grevlex())
            assert P.groebner().elements == grevlex_basis, (P, m)
            assert m.ideal().groebner().elements == grevlex_basis, m

        r = rng(2626)
        kinds = set()
        for _ in range(120):
            if r.random() < 0.3:
                I = rand_twisted_ideal(r, rational=r.random() < 0.5)
            else:
                I = rand_mixed_ideal(r, n=r.choice((2, 3)))
            if I.is_unit():
                continue
            for comp in cellular_decompose(I):
                kinds |= _kinds(comp.ideal)
                before = count["built"]
                triples = associated_mesoprimes(comp)
                assert count["built"] - before == len(triples)
                for m, _, P in triples:
                    check(P, m)
                    count["triples"] += 1
                    count["nilpotent"] += bool(comp.nilpotency)
                check(built(comp.ideal, comp.delta), cellular_radical(comp))
                count["radicals"] += 1
        assert kinds >= {"rational", "root", "power", "homogeneous",
                         "inhomogeneous"}, kinds
        assert count["triples"] >= 150 and count["nilpotent"] >= 120, count
        assert count["radicals"] >= 140 and count["held"] >= 550, count
        assert count["built"] - count["held"] >= 10, count


def reference_mesoprime_ideal(m):
    """I_L(rho) + <X_j : j not in delta> on the generators of both, holding
    no basis."""
    from binomials import lattice_ideal
    n = len(m.names)
    return BinomialIdeal(m.names, lattice_ideal(m.character, m.names).gens + tuple(
        monomial(unit(n, j)) for j in range(n) if j not in m.delta))


class TestIsMesoprimary:
    def test_unmixed_refused_with_witness(self):
        ok, witness = is_mesoprimary(um_ideal())
        assert not ok
        assert witness == (0, 1)

    def test_simple_mesoprimary(self):
        I = ideal(XY, [binomial((1, 0), (0, 1)), monomial((0, 2))])
        assert is_mesoprimary(I) == (True, None)

    def test_primes_are_mesoprimary(self):
        assert is_mesoprimary(toric345()) == (True, None)

    def test_non_cellular(self):
        ok, witness = is_mesoprimary(ideal(XY, [monomial((2, 0)),
                                                monomial((1, 1))]))
        assert not ok and witness is None

    def test_unit_rejected(self):
        with pytest.raises(UnitIdealError):
            is_mesoprimary(ideal(XY, [monomial((0, 0))]))


class TestIsMesoprime:
    def test_seventeen(self):
        I = ideal(XY, [binomial((17, 0), (0, 0)), monomial((0, 1))])
        m = is_mesoprime(I)
        assert m is not None
        assert m.delta == frozenset({0})
        assert m.character.lattice.basis == ((17, 0),)

    def test_lattice_ideal(self):
        m = is_mesoprime(ideal(XY, [binomial((2, 0), (0, 2))]))
        assert m is not None and m.delta == frozenset({0, 1})

    def test_not_mesoprime(self):
        assert is_mesoprime(ideal(XY, [binomial((1, 0), (0, 1)),
                                       monomial((0, 2))])) is None

    def test_materialization_round_trip(self):
        I = ideal(XY, [binomial((17, 0), (0, 0)), monomial((0, 1))])
        m = is_mesoprime(I)
        assert ideal_equals(m.ideal(), I)

    def test_validated_constructor(self):
        from binomials import Lattice, PartialCharacter
        L = Lattice.from_vectors(2, [(1, 1)])  # not inside Z^{delta}
        with pytest.raises(InputError):
            mesoprime(XY, {0}, PartialCharacter.trivial(L))

    @pytest.mark.parametrize("delta", [{5}, {0, 1, 2}, {-1}])
    def test_validated_constructor_checks_delta(self, delta):
        trivial = PartialCharacter.trivial(Lattice(2, ()))
        with pytest.raises(InputError, match="variable index"):
            mesoprime(XY, delta, trivial)

    def test_validated_constructor_of_each_mesoprime(self):
        # the constructor accepts the structure is_mesoprime reads off a
        # mesoprime ideal and returns that structure
        r, found = rng(7), 0
        for _ in range(300):
            I = rand_ideal(r, 3, maxdeg=3)
            m = is_mesoprime(I)
            if m is not None:
                assert mesoprime(I.names, m.delta, m.character) == m, I
                found += 1
        assert found == 138

    def test_validated_constructor_on_seeded_lattices(self, monkeypatch):
        # I_L(rho) is saturated and generated in k[delta], so every delta
        # variable is a nonzerodivisor modulo I_L(rho) + <X_j : j not in
        # delta> for any lattice L in Z^delta: the constructor checks only
        # where L lives, with no Groebner basis, and still refuses a
        # lattice vector off delta
        r, runs, refused = rng(3), [], 0
        for _ in range(60):
            n = r.randint(2, 4)
            names = tuple("X%d" % i for i in range(n))
            delta = set(r.sample(range(n), r.randint(1, n)))
            vectors = [tuple(r.randint(-3, 3) if i in delta else 0 for i in range(n))
                       for _ in range(r.randint(1, len(delta)))]
            L = Lattice.from_vectors(n, vectors)
            rho = PartialCharacter(L, tuple(
                Scalar.from_rational(r.choice([-1, 1]) * r.randint(1, 6), r.randint(1, 6))
                for _ in range(L.rank)))
            with monkeypatch.context() as patch:
                real = engine._reduced_basis
                patch.setattr(engine, "_reduced_basis",
                              lambda *args: runs.append(args) or real(*args))
                m = mesoprime(names, delta, rho)
            I = m.ideal()
            assert all(colon_monomial(I, unit(n, i)) is I for i in delta), m
            off = sorted(set(range(n)) - delta)
            if off:
                v = tuple(1 if i == off[0] else 0 for i in range(n))
                with pytest.raises(InputError, match="not supported on delta"):
                    mesoprime(names, delta, PartialCharacter.trivial(
                        Lattice.from_vectors(n, vectors + [v])))
                refused += 1
        assert len(runs) == 0 and refused > 20

    def test_against_the_definition(self):
        # random ideals with rational, root-of-unity and prime-power
        # coefficients, half of them with some X_j or X_j^2 added so that
        # mesoprimes and nilpotency exponents of 2 both occur often
        r = rng(1717)
        found = {True: 0, False: 0}
        for _ in range(300):
            I = rand_mixed_ideal(r)
            if r.random() < 0.5:
                extra = [monomial(unit(I.n, i, r.choice((1, 1, 2))))
                         for i in range(I.n) if r.random() < 0.4]
                I = ideal_sum(I, BinomialIdeal(I.names, tuple(extra)))
            m = is_mesoprime(I)
            assert m == reference_is_mesoprime(I), I
            found[m is not None] += 1
        assert min(found.values()) >= 80, found


def reference_is_mesoprime(I):
    """The definition: delta is the variables outside I, and I equals
    I_L(rho) + <X_j : j not in delta> for rho the character of its delta
    part."""
    if I.is_unit():
        return None
    delta = frozenset(i for i in range(I.n) if not ideal_member(monomial(unit(I.n, i)), I))
    part = eliminate(I, delta)
    if any(b.is_monomial for b in part.groebner().elements):
        return None
    candidate = Mesoprime(I.names, delta, character_of(part))
    return candidate if ideal_equals(candidate.ideal(), I) else None


class TestIsPrime:
    def test_toric_prime(self):
        assert is_prime(toric345())

    def test_lattice_not_prime(self):
        assert not is_prime(ideal(XY, [binomial((2, 0), (0, 2))]))

    def test_coordinate_ideal_prime(self):
        assert is_prime(ideal(XY, [monomial((1, 0)), monomial((0, 1))]))

    def test_twisted_prime(self):
        # <X + Y> is prime: saturated lattice, twisted character
        assert is_prime(ideal(XY, [binomial((1, 0), (0, 1),
                                            Scalar.minus_one())]))


class TestCellularRadical:
    def test_artinian_case(self):
        I = ideal(XY, [binomial((1, 0), (0, 1)), monomial((0, 2))])
        r = cellular_radical(as_cellular(I))
        assert ideal_equals(r.ideal(), ideal(XY, [monomial((1, 0)),
                                                  monomial((0, 1))]))
        got = orc.from_binomial_ideal(r.ideal())
        # oracle radical check: X and Y both have a power in I
        assert orc.ideal_equal(got, [orc.poly([((1, 0), 1)]),
                                     orc.poly([((0, 1), 1)])])

    def test_lattice_ideal_is_radical(self):
        I = ideal(XY, [binomial((2, 0), (0, 2))])
        r = cellular_radical(as_cellular(I))
        assert ideal_equals(r.ideal(), I)

    def test_unmixed_example(self):
        r = cellular_radical(as_cellular(um_ideal()))
        expected = ideal(XY, [binomial((2, 0), (0, 0)), monomial((0, 1))])
        assert ideal_equals(r.ideal(), expected)

    def test_radical_contains_and_powers_drop_in(self):
        I = um_ideal()
        r = cellular_radical(as_cellular(I)).ideal()
        assert ideal_contains(r, I)
        gens = orc.from_binomial_ideal(r)
        gb = orc.rational_gb(gens)
        for f in orc.from_binomial_ideal(I):
            assert orc.member(f, gb)


class TestPrimaryDecomposition:
    def test_two_components(self):
        I = ideal(XY, [binomial((2, 0), (0, 0)), monomial((0, 2))])
        comps = mesoprimary_primary_decomposition(I)
        assert len(comps) == 2
        expected = [ideal(XY, [binomial((1, 0), (0, 0)), monomial((0, 2))]),
                    ideal(XY, [binomial((1, 0), (0, 0), Scalar.minus_one()),
                               monomial((0, 2))])]
        for want in expected:
            assert any(ideal_equals(got, want) for got in comps)
        gens = [orc.from_binomial_ideal(c) for c in comps]
        assert orc.ideal_equal(orc.intersect_all(gens, 2),
                               orc.from_binomial_ideal(I))

    def test_trivial_lattice(self):
        I = ideal(XY, [binomial((1, 0), (0, 1)), monomial((0, 2))])
        comps = mesoprimary_primary_decomposition(I)
        assert len(comps) == 1 and ideal_equals(comps[0], I)

    def test_prime_input(self):
        comps = mesoprimary_primary_decomposition(toric345())
        assert len(comps) == 1 and ideal_equals(comps[0], toric345())

    def test_refusal_carries_witness(self):
        with pytest.raises(NotMesoprimaryError) as err:
            mesoprimary_primary_decomposition(um_ideal())
        assert err.value.witness == (0, 1)

    def test_component_count_is_lattice_index(self):
        I = ideal(XY, [binomial((2, 0), (0, 0)), monomial((0, 2))])
        from binomials import character_of
        rho = character_of(eliminate(I, {0}))
        g = quotient_index(rho.lattice, saturations(rho.lattice)[0])
        assert len(mesoprimary_primary_decomposition(I)) == g
        comps = mesoprimary_primary_decomposition(I)
        for c in comps:
            assert ideal_contains(c, I)


class TestStructuralProperties:
    def test_colon_preserves_delta(self):
        # for delta-cellular I and X^u off delta outside I, the colon stays
        # delta-cellular with the same delta
        corpus = [um_ideal(),
                  ideal(XY, [binomial((1, 0), (0, 1)), monomial((0, 2))]),
                  ideal(XY, [binomial((2, 0), (0, 0)), monomial((0, 3))]),
                  ideal(XY, [monomial((2, 0)), monomial((1, 1)),
                             monomial((0, 3))])]
        for I in corpus:
            comp = as_cellular(I)
            assert comp is not None
            for _, u, _ in _mesoprimes(comp):
                if not any(u):
                    continue
                assert is_cellular(colon_monomial(I, u)) == comp.delta

    def test_delta_part_equalities(self):
        I = um_ideal()
        comp = as_cellular(I)
        delta_part = eliminate(I, comp.delta)
        from binomials import character_of, lattice_ideal
        rho = character_of(delta_part)
        assert ideal_equals(lattice_ideal(rho, XY), delta_part)
        lhs = ideal(XY, tuple(delta_part.gens) + (monomial((0, 1)),))
        rhs = ideal(XY, tuple(I.gens) + (monomial((0, 1)),))
        assert ideal_equals(lhs, rhs)

    def test_implication_chain(self):
        fixtures = [toric345(), ideal(XY, [binomial((2, 0), (0, 2))]),
                    um_ideal(),
                    ideal(XY, [binomial((1, 0), (0, 1)), monomial((0, 2))]),
                    ideal(XY, [monomial((1, 0)), monomial((0, 1))])]
        for I in fixtures:
            if is_prime(I):
                assert is_mesoprime(I) is not None
            if is_mesoprime(I) is not None:
                assert is_cellular(I) is not None
                assert is_mesoprimary(I)[0]
            if is_mesoprimary(I)[0]:
                assert is_cellular(I) is not None


@pytest.mark.parametrize("n, seed", [(2, 41), (3, 43)])
def test_random_decompositions_intersect_back(n, seed):
    # on seeded random rational ideals the cellular components intersect
    # back to I, and the primary components of each mesoprimary cellular
    # component intersect back to that component, by the rational oracle
    r = rng(seed)
    done = checked = 0
    while done < 15:
        I = rand_ideal(r, n=n, maxdeg=4)
        if I.is_unit() or I.is_zero():
            continue
        done += 1
        components = [c.ideal for c in cellular_decompose(I)]
        gens = [orc.from_binomial_ideal(C) for C in components]
        assert orc.ideal_equal(orc.intersect_all(gens, n), orc.from_binomial_ideal(I))
        for C in components:
            if not is_mesoprimary(C)[0]:
                continue
            try:
                gens = [orc.from_binomial_ideal(P)
                        for P in mesoprimary_primary_decomposition(C)]
            except ValueError:
                continue  # a component has a root of unity outside Q
            checked += 1
            assert orc.ideal_equal(orc.intersect_all(gens, n), orc.from_binomial_ideal(C))
    assert checked >= 10
