import pytest

from binomials import (NIL, BinomialIdeal, QuotientTable, Scalar, binomial,
                       cancellative_intersect, cellular_decompose, class_id,
                       classify_congruence, classify_element, colon_monomial,
                       congruence, eliminate, ideal, ideal_equals,
                       ideal_member, ideal_sum, maximal_ideal, monomial,
                       quotient_table, rees_ideal, related, table_json,
                       table_text)
from binomials.errors import (BudgetExceededError, InputError,
                              NonMaximalCongruenceError, NotCancellativeError,
                              NotPrimaryError, UnitIdealError)
from binomials import congruences, engine
from binomials.mesoprimary import _mesoprimes
from binomials import oracle as orc
from binomials.orders import e_add, unit, zero

from gen import rand_artinian_ideal, rand_exponent, rand_ideal, rng

XY = ("X", "Y")
XYZ = ("X", "Y", "Z")


def c_over(gens, names=XY):
    return congruence(ideal(names, gens))


@pytest.fixture
def c_nilpotent():
    # <X - Y, Y^2>: quotient is {0, a, infinity}
    return c_over([binomial((1, 0), (0, 1)), monomial((0, 2))])


@pytest.fixture
def c_z2():
    # <X - Y, Y^2 - 1>: quotient is Z/2Z
    return c_over([binomial((1, 0), (0, 1)), binomial((0, 2), (0, 0))])


class TestClassId:
    def test_monomial_class_is_nil(self, c_nilpotent):
        assert class_id(c_nilpotent, (3, 0)) is NIL

    def test_zero_class(self, c_nilpotent):
        assert class_id(c_nilpotent, (0, 0)) == (0, 0)

    def test_lattice_pairs(self):
        c = c_over([binomial((2, 0), (0, 2))])
        assert class_id(c, (2, 0)) == class_id(c, (0, 2))
        assert not related(c, (1, 0), (0, 1))

    def test_z2(self, c_z2):
        assert related(c_z2, (2, 0), (0, 0))

    def test_reflexive(self, c_z2):
        assert related(c_z2, (5, 3), (5, 3))

    def test_unit_ideal_rejected(self):
        with pytest.raises(UnitIdealError):
            c_over([monomial((0, 0))])

    def test_maximality_is_decided_when_read(self, monkeypatch):
        # a class needs the reduced basis alone; the lattice test behind
        # ``maximal`` (its saturation runs) waits for the first read
        runs, real = [], engine._reduced_basis
        monkeypatch.setattr(engine, "_reduced_basis", lambda *a: runs.append(a) or real(*a))
        c = c_over([binomial((1, 0), (0, 1)), binomial((0, 3), (0, 2))])
        assert related(c, (1, 0), (0, 1))
        assert len(runs) == 1
        assert not c.maximal
        assert len(runs) == 3
        assert not c.maximal
        assert len(runs) == 3


class TestCongruenceAxioms:
    def test_translation_closure_random(self):
        r = rng(3030)
        for _ in range(120):
            I = rand_ideal(r, rational=False)
            if I.is_unit():
                continue
            c = congruence(I)
            u = rand_exponent(r, 3, 8)
            v = rand_exponent(r, 3, 8)
            w = rand_exponent(r, 3, 4)
            if related(c, u, v):
                assert related(c, e_add(u, w), e_add(v, w))

    def test_membership_consistency(self):
        # related(u, v) iff some X^u - lambda X^v lies in the ideal
        r = rng(3131)
        from binomials import Term, normal_form, ideal_member
        for _ in range(120):
            I = rand_ideal(r)
            if I.is_unit():
                continue
            c = congruence(I)
            u = rand_exponent(r, 3, 6)
            v = rand_exponent(r, 3, 6)
            if u == v:
                continue
            gb = I.groebner()
            nf_u = normal_form(Term(Scalar.one(), u), gb)
            nf_v = normal_form(Term(Scalar.one(), v), gb)
            if related(c, u, v) and nf_u is not None:
                lam = nf_u.coeff * nf_v.coeff.inv()
                assert ideal_member(binomial(u, v, lam), I)
            elif not related(c, u, v) and nf_u is not None and nf_v is not None:
                assert not ideal_member(binomial(u, v, Scalar.one()), I)

    def test_nil_uniqueness(self):
        r = rng(3232)
        from binomials.congruences import _is_nil
        for _ in range(60):
            I = rand_ideal(r, maxdeg=4)
            if I.is_unit():
                continue
            c = congruence(I)
            nil_classes, zero_class = set(), class_id(c, zero(3))
            for u in [rand_exponent(r, 3, 6) for _ in range(20)]:
                if _is_nil(c, u, zero_class):
                    nil_classes.add(class_id(c, u))
            assert len(nil_classes) <= 1


class TestClassifyElement:
    def test_nil_element(self, c_nilpotent):
        flags = classify_element(c_nilpotent, (0, 2))
        assert flags.nil and flags.nilpotent and not flags.cancellable
        # vacuously partly cancellable: sums with a nil are never off-nil
        assert flags.partly_cancellable

    def test_mesoprimary_iff_all_partly_cancellable(self):
        # on a mesoprimary quotient every element is partly cancellable;
        # the non-mesoprimary unmixed example has a witness that is not
        meso = c_over([binomial((1, 0), (0, 1)), monomial((0, 2))])
        for u in [(a, b) for a in range(4) for b in range(4)]:
            assert classify_element(meso, u).partly_cancellable
        um = c_over([binomial((2, 0), (0, 0)), binomial((1, 1), (0, 1)),
                     monomial((0, 2))])
        assert not classify_element(um, (0, 1)).partly_cancellable

    def test_nilpotent_partly_cancellable(self, c_nilpotent):
        flags = classify_element(c_nilpotent, (1, 0))
        assert not flags.nil
        assert flags.nilpotent
        assert not flags.cancellable
        assert flags.partly_cancellable

    def test_identity_cancellable(self, c_nilpotent):
        flags = classify_element(c_nilpotent, (0, 0))
        assert flags.cancellable and not flags.nil and not flags.nilpotent

    def test_requires_maximal(self):
        c = c_over([binomial((1, 0), (0, 1)), binomial((0, 3), (0, 2))])
        assert not c.maximal
        with pytest.raises(NonMaximalCongruenceError):
            classify_element(c, (1, 0))

    def test_partly_cancellable_needs_a_primary_congruence(self):
        # <X^2, X*Y> is maximal (it holds monomials) and not cellular; X is
        # neither nil nor cancellable, as X*Y is in I and Y is not
        c = c_over([monomial((2, 0)), monomial((1, 1))])
        with pytest.raises(NotPrimaryError, match="needs a primary congruence"):
            classify_element(c, (1, 0))

    def test_nil_flag_is_the_absorbing_test(self):
        # on a maximal congruence the NIL tag marks exactly the absorbing
        # class; cellular components give maximal congruences with and
        # without monomials
        r = rng(3535)
        seen = set()
        for trial in range(40):
            I = rand_ideal(r, maxdeg=4, rational=trial % 2 == 0)
            if I.is_unit():
                continue
            for component in cellular_decompose(I):
                c = congruence(component.ideal)
                zero_class = class_id(c, zero(I.n))
                for _ in range(6):
                    u = rand_exponent(r, I.n, 4)
                    nil = classify_element(c, u).nil
                    assert nil == congruences._is_nil(c, u, zero_class), (component.ideal, u)
                    seen.add(nil)
        assert seen == {True, False}

    def test_partly_cancellable_by_elimination(self):
        # on seeded cellular components, at every standard monomial of the
        # nilpotent box and at random exponents, the flag agrees with the
        # delta parts compared through elimination bases
        r = rng(2)
        found = {True: 0, False: 0}
        for trial in range(250):
            I = rand_ideal(r, n=r.choice((2, 3)), maxdeg=4, rational=trial % 2 == 0)
            if I.is_unit():
                continue
            for component in cellular_decompose(I):
                c = congruence(component.ideal)
                exponents = [u for _, u, _ in _mesoprimes(component)]
                exponents += [rand_exponent(r, I.n, 3) for _ in range(2)]
                for u in exponents:
                    flag = classify_element(c, u).partly_cancellable
                    want = reference_partly_cancellable(component, u)
                    assert flag == want, (component.ideal, u)
                    found[flag] += 1
        assert found[False] >= 4, found


def reference_partly_cancellable(component, u):
    """The definition on a delta-cellular I: vacuous for X^u in I, else
    I : X^u and I have the same delta part, both from elimination bases."""
    I, delta = component.ideal, component.delta
    if ideal_member(monomial(u), I):
        return True
    return ideal_equals(eliminate(colon_monomial(I, u), delta), eliminate(I, delta))


class TestClassifyCongruence:
    def test_toric(self):
        c = c_over([binomial((0, 2, 0), (1, 0, 1)), binomial((2, 1, 0), (0, 0, 2)),
                    binomial((3, 0, 0), (0, 1, 1))], XYZ)
        flags = classify_congruence(c)
        assert flags.toric and flags.prime and flags.primary
        assert flags.cancellative and flags.mesoprimary

    def test_lattice_not_toric(self):
        flags = classify_congruence(c_over([binomial((2, 0), (0, 2))]))
        assert flags.cancellative and flags.prime
        assert not flags.toric

    def test_lattice_ideal_classified_once(self, monkeypatch):
        # a mesoprime is mesoprimary without a second cellularity test
        from binomials import cellular, is_mesoprimary
        calls, classify = [], cellular._classify
        monkeypatch.setattr(cellular, "_classify",
                            lambda I: calls.append(I) or classify(I))
        I = ideal(XYZ, [binomial((6, 0, 0), (0, 6, 0)),
                        binomial((2, 1, 0), (0, 0, 3))])
        flags = classify_congruence(congruence(I))
        assert len(calls) == 1
        assert flags == (True, True, True, True, False)
        assert is_mesoprimary(I) == (True, None)

    @pytest.mark.parametrize("gens, flags", [
        # X nilpotent of order 2, Y^2 = 1 on every colon: one mesoprime
        ([monomial((2, 0)), binomial((0, 2), (0, 0))], (False, False, True, True, False)),
        # Y is a zerodivisor and not nilpotent
        ([monomial((2, 0)), monomial((1, 1))], (False,) * 5),
        # the colon by Y has another mesoprime
        ([binomial((2, 0), (0, 0)), binomial((1, 1), (0, 1)), monomial((0, 2))],
         (False, False, True, False, False)),
    ], ids=["mesoprimary", "not cellular", "cellular"])
    def test_classified_once(self, monkeypatch, gens, flags):
        # every flag is read off one cellular view, mesoprime or not
        from binomials import cellular
        calls, classify = [], cellular._classify
        monkeypatch.setattr(cellular, "_classify",
                            lambda I: calls.append(I) or classify(I))
        assert classify_congruence(congruence(ideal(XY, gens))) == flags
        assert len(calls) == 1

    def test_nilpotent_quotient(self, c_nilpotent):
        flags = classify_congruence(c_nilpotent)
        assert flags.mesoprimary and flags.primary
        assert not flags.prime and not flags.cancellative

    def test_requires_maximal(self):
        c = c_over([binomial((1, 0), (0, 1)), binomial((0, 3), (0, 2))])
        with pytest.raises(NonMaximalCongruenceError):
            classify_congruence(c)


class TestMaximalIdeal:
    def test_paper_pair(self):
        I = ideal(XY, [binomial((1, 0), (0, 1)), binomial((0, 3), (0, 2))])
        out, complete = maximal_ideal(I, 4)
        assert ideal_equals(out, ideal(XY, [binomial((1, 0), (0, 1)),
                                            monomial((0, 2))]))
        assert complete is False

    def test_already_maximal(self):
        I = ideal(XY, [binomial((1, 0), (0, 1)), monomial((0, 2))])
        out, complete = maximal_ideal(I)
        assert out is I and complete

    def test_lattice_complete(self):
        I = ideal(XY, [binomial((1, 0), (0, 1))])
        out, complete = maximal_ideal(I)
        assert out is I and complete

    def test_same_congruence(self):
        I = ideal(XY, [binomial((1, 0), (0, 1)), binomial((0, 3), (0, 2))])
        out, _ = maximal_ideal(I, 4)
        c1 = congruence(I)
        c2 = congruence(out)
        r = rng(3434)
        for _ in range(200):
            u = rand_exponent(r, 2, 8)
            v = rand_exponent(r, 2, 8)
            assert related(c1, u, v) == related(c2, u, v)

    def test_nil_test_takes_n_plus_one_normal_forms(self, monkeypatch):
        # [u] once, then [u + e_i] per variable; [0] is taken once per search
        calls, per_test = [], []
        counted, is_nil = congruences.class_id, congruences._is_nil
        monkeypatch.setattr(congruences, "class_id",
                            lambda c, u: calls.append(u) or counted(c, u))

        def tracked(c, u, zero_class):
            before = len(calls)
            out = is_nil(c, u, zero_class)
            per_test.append(len(calls) - before)
            return out
        monkeypatch.setattr(congruences, "_is_nil", tracked)
        I = ideal(XYZ, [binomial((4, 2, 0), (0, 0, 6)), binomial((3, 2, 0), (0, 0, 5)),
                        binomial((2, 0, 0), (0, 1, 1))])
        maximal_ideal(I)
        assert per_test and max(per_test) <= I.n + 1
        # a found nil runs every test: <X - Y, Y^3 - Y^2> has the nil Y^2
        del per_test[:]
        maximal_ideal(ideal(XY, [binomial((1, 0), (0, 1)), binomial((0, 3), (0, 2))]), 4)
        assert max(per_test) == 1 + 2

    def test_one_pass_matches_the_fixed_point(self):
        r = rng(3636)
        with_nil = 0
        for _ in range(60):
            J = _rand_pure_ideal(r)
            out, complete = maximal_ideal(J, 7)
            expected, expected_complete = _fixed_point_maximal_ideal(J, 7)
            assert out.groebner().elements == expected.groebner().elements, J.gens
            assert complete == expected_complete
            with_nil += expected is not J
        assert with_nil >= 10

    def test_normal_forms_of_the_nil_search(self, monkeypatch):
        # <X - Y, Y^3 - Y^2> has the nil class of Y^2: [0] once, two failed
        # absorbing tests at degree 1, one that finds X^2, [X^2] once, and one
        # normal form each for XY and Y^2; every later exponent is their multiple
        calls, counted = [], congruences.class_id
        monkeypatch.setattr(congruences, "class_id",
                            lambda c, u: calls.append(u) or counted(c, u))
        maximal_ideal(ideal(XY, [binomial((1, 0), (0, 1)), binomial((0, 3), (0, 2))]), 40)
        assert len(calls) == 11
        # <XW - YW, Y^2 - Y^3, Z - W> has no nil class: every exponent up to
        # the bound runs the absorbing test
        del calls[:]
        J = ideal(("X", "Y", "Z", "W"), [binomial((1, 0, 0, 1), (0, 1, 0, 1)),
                                         binomial((0, 2, 0, 0), (0, 3, 0, 0)),
                                         binomial((0, 0, 1, 0), (0, 0, 0, 1))])
        out, complete = maximal_ideal(J, 12)
        assert (len(calls), out, complete) == (6609, J, False)

    def test_recovers_coordinate_ideal(self):
        # <X-Y, X-X^2> induces the congruence of the monomial ideal <X, Y>
        I = ideal(XY, [binomial((1, 0), (0, 1)), binomial((1, 0), (2, 0))])
        out, _ = maximal_ideal(I, 4)
        assert ideal_equals(out, ideal(XY, [monomial((1, 0)),
                                            monomial((0, 1))]))


def _rand_pure_ideal(r):
    """One generator X^u - X^(u + e_i), or X^u - X^(u + e_i + e_j), per
    variable X_i, in two or three variables, oriented either way."""
    n = r.choice((2, 3))
    gens = []
    for i in range(n):
        u = rand_exponent(r, n, 2)
        v = e_add(u, unit(n, i))
        if r.random() < 0.5:
            v = e_add(v, unit(n, r.randrange(n)))
        gens.append(binomial(u, v) if r.random() < 0.5 else binomial(v, u))
    return BinomialIdeal("XYZ"[:n], tuple(gens))


def _fixed_point_maximal_ideal(J, bound):
    """Reference: search every exponent outside the current ideal with the
    n + 2 normal form absorbing test, adjoin the minimal nils, and repeat
    until a pass finds none."""
    if congruence(J).maximal:
        return J, True
    current = J
    while True:
        c = congruences.Congruence(current)
        zero_class = class_id(c, zero(J.n))
        nils = [u for degree in range(1, bound + 1)
                for u in congruences._total_degree_exponents(J.n, degree)
                if not ideal_member(monomial(u), current)
                and congruences._is_nil(c, u, zero_class)]
        if not nils:
            return current, False
        minimal = [u for u in nils
                   if not any(v != u and all(a <= b for a, b in zip(v, u)) for v in nils)]
        current = ideal_sum(current, BinomialIdeal(J.names, tuple(map(monomial, minimal))))


def _pairwise_table(c, max_classes):
    """Reference: the same breadth-first search, then a fresh normal form
    of a + b for every pair of classes (k^2 of them)."""
    n = c.ideal.n
    generators = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    start = class_id(c, (0,) * n)
    classes, index, frontier = [start], {start: 0}, [start]
    while frontier:
        cls = frontier.pop(0)
        if cls is NIL:
            continue
        for g in generators:
            nxt = class_id(c, e_add(cls, g))
            if nxt not in index:
                if len(classes) >= max_classes:
                    raise BudgetExceededError("budget", classes=classes)
                index[nxt] = len(classes)
                classes.append(nxt)
                frontier.append(nxt)
    table = tuple(tuple(index[NIL] if a is NIL or b is NIL
                        else index[class_id(c, e_add(a, b))] for b in classes)
                  for a in classes)
    return QuotientTable(tuple(classes), table)


def _outcome(build, c, max_classes):
    """The table, or the classes found when the budget ran out."""
    try:
        return build(c, max_classes)
    except BudgetExceededError as err:
        return err.classes


@pytest.fixture(scope="module")
def artinian():
    """c_nilpotent, c_z2 and 40 seeded random ideals with finite quotients in
    2-4 variables; every third has rational coefficients only, the others
    also roots of unity and prime powers."""
    cases = [c_over([binomial((1, 0), (0, 1)), monomial((0, 2))]),
             c_over([binomial((1, 0), (0, 1)), binomial((0, 2), (0, 0))])]
    r = rng(2024)
    while len(cases) < 42:
        I = rand_artinian_ideal(r, rational=len(cases) % 3 == 0)
        if not I.is_unit():
            cases.append(congruence(I))
    return cases


class TestQuotientTable:
    def test_three_classes(self, c_nilpotent):
        qt = quotient_table(c_nilpotent, 10)
        assert len(qt.classes) == 3
        assert qt.has_nil()
        zero, a, nil = qt.classes
        assert zero == (0, 0) and a == (0, 1) and nil is NIL
        # the displayed table: a + a = nil, nil row constant
        assert qt.table[1][1] == 2
        assert all(entry == 2 for entry in qt.table[2])
        assert [row[0] for row in qt.table] == [0, 1, 2]

    def test_z2_group_table(self, c_z2):
        qt = quotient_table(c_z2, 10)
        assert len(qt.classes) == 2
        assert not qt.has_nil()
        assert qt.table == ((0, 1), (1, 0))

    def test_budget(self):
        c = c_over([binomial((1, 0), (0, 1))])
        with pytest.raises(BudgetExceededError) as err:
            quotient_table(c, 10)
        assert len(err.value.classes) == 10

    def test_matches_pairwise_normal_forms(self, artinian):
        nil_kinds = set()
        for c in artinian:
            qt = quotient_table(c, 1000)
            assert qt == _pairwise_table(c, 1000), c.ideal.gens
            nil_kinds.add(qt.has_nil())
            for budget in (1, 2, 5, 10):
                assert (_outcome(quotient_table, c, budget)
                        == _outcome(_pairwise_table, c, budget)), (c.ideal.gens, budget)
        assert nil_kinds == {True, False}

    def test_one_normal_form_per_class_and_generator(self, artinian, monkeypatch):
        calls = []
        counted = congruences.class_id
        monkeypatch.setattr(congruences, "class_id",
                            lambda c, u: calls.append(u) or counted(c, u))
        for c in artinian:
            del calls[:]
            qt = quotient_table(c, 1000)
            assert len(calls) <= len(qt.classes) * c.ideal.n + 1, c.ideal.gens

    def test_text_rendering(self, c_nilpotent):
        text = table_text(quotient_table(c_nilpotent, 10), XY)
        lines = text.splitlines()
        assert len(lines) == 4
        assert "inf" in lines[-1]

    def test_json_rendering(self, c_z2):
        payload = table_json(quotient_table(c_z2, 10), XY)
        assert payload["table"] == [[0, 1], [1, 0]]
        assert payload["labels"] == ["0", "Y"]


def test_negative_exponents_are_refused(c_nilpotent):
    # X^-1 is no monomial: it has no class and generates no monoid ideal
    with pytest.raises(InputError):
        class_id(c_nilpotent, (-1, 0))
    with pytest.raises(InputError):
        rees_ideal([(-1, 2)], XY)


class TestRees:
    def test_staircase(self):
        R = rees_ideal([(2, 0), (1, 1)], XY)
        c = congruence(R)
        assert class_id(c, (3, 1)) is NIL
        assert class_id(c, (0, 5)) == (0, 5)

    def test_coordinate_axes(self):
        R = rees_ideal([(1, 0), (0, 1)], XY)
        qt = quotient_table(congruence(R), 5)
        assert len(qt.classes) == 2 and qt.has_nil()

    def test_zero_rejected(self):
        with pytest.raises(InputError):
            rees_ideal([(0, 0)], XY)

    def test_singleton_classes_off_e(self):
        r = rng(3535)
        E = [(2, 1), (0, 3)]
        R = rees_ideal(E, XY)
        c = congruence(R)
        for _ in range(120):
            u = rand_exponent(r, 2, 6)
            in_e = any(all(a >= b for a, b in zip(u, e)) for e in E)
            if in_e:
                assert class_id(c, u) is NIL
            else:
                assert class_id(c, u) == u


class TestCancellativeIntersect:
    def test_paper_example(self):
        c1 = c_over([binomial((2, 0), (0, 2))])
        c2 = c_over([binomial((3, 0), (0, 3))])
        c = cancellative_intersect(c1, c2)
        assert ideal_equals(c.ideal, ideal(XY, [binomial((6, 0), (0, 6))]))
        r = rng(3636)
        for _ in range(150):
            u = rand_exponent(r, 2, 8)
            v = rand_exponent(r, 2, 8)
            assert related(c, u, v) == (related(c1, u, v) and related(c2, u, v))

    def test_self_intersection(self):
        c1 = c_over([binomial((2, 0), (0, 2))])
        c = cancellative_intersect(c1, c1)
        assert ideal_equals(c.ideal, c1.ideal)

    def test_containment(self):
        c1 = c_over([binomial((1, 0), (0, 1))])
        c2 = c_over([binomial((2, 0), (0, 2))])
        c = cancellative_intersect(c1, c2)
        assert ideal_equals(c.ideal, c2.ideal)

    def test_refuses_non_cancellative(self):
        c1 = c_over([binomial((1, 0), (0, 1)), monomial((0, 2))])
        c2 = c_over([binomial((2, 0), (0, 2))])
        with pytest.raises(NotCancellativeError):
            cancellative_intersect(c1, c2)

    def test_refuses_different_rings(self):
        c1 = c_over([binomial((1, 0), (0, 1))])
        c2 = c_over([binomial((2, 0), (0, 2))], ("X", "Z"))
        with pytest.raises(InputError, match="congruences live in different rings"):
            cancellative_intersect(c1, c2)

    def test_pairwise_decision_for_general_inputs(self):
        from binomials import intersection_related
        c1 = c_over([binomial((1, 0), (0, 1)), monomial((0, 2))])
        c2 = c_over([binomial((2, 0), (0, 2))])
        r = rng(3838)
        for _ in range(100):
            u = rand_exponent(r, 2, 6)
            v = rand_exponent(r, 2, 6)
            assert intersection_related(c1, c2, u, v) == (
                related(c1, u, v) and related(c2, u, v))
        # refines both: (1,0) ~ (0,1) holds in c1 (X - Y is a generator) but
        # not in c2, so not in the refinement.  (2,0) ~ (0,2) cannot separate
        # them: X^2 = (X+Y)(X-Y) + Y^2, so both are nil in c1.
        assert related(c1, (1, 0), (0, 1))
        assert not related(c2, (1, 0), (0, 1))
        assert not intersection_related(c1, c2, (1, 0), (0, 1))

    def test_ideal_is_strictly_inside_oracle_intersection(self):
        # the associated ideal refines the oracle intersection, with equality
        # exactly when the latter is binomial; here it is not
        c1 = c_over([binomial((2, 0), (0, 2))])
        c2 = c_over([binomial((3, 0), (0, 3))])
        c = cancellative_intersect(c1, c2)
        inter = orc.rational_intersect(orc.from_binomial_ideal(c1.ideal),
                                       orc.from_binomial_ideal(c2.ideal), 2)
        quartic = orc.poly([((4, 0), 1), ((3, 1), 1), ((1, 3), -1), ((0, 4), -1)])
        assert orc.ideal_equal(inter, [quartic])
        gb = orc.rational_gb(inter)
        for f in orc.from_binomial_ideal(c.ideal):
            assert orc.member(f, gb)
        assert not orc.ideal_equal(inter, orc.from_binomial_ideal(c.ideal))


class TestCancellativeEquivalence:
    def test_three_way(self):
        # for maximal c: every generator class cancellable <=> classified
        # cancellative <=> ideal equals its variable saturation
        from binomials import saturate_vars
        fixtures = [
            ideal(XY, [binomial((2, 0), (0, 2))]),
            ideal(XY, [binomial((1, 0), (0, 1)), binomial((0, 2), (0, 0))]),
            ideal(XY, [binomial((1, 0), (0, 1)), monomial((0, 2))]),
            ideal(XY, [binomial((2, 0), (0, 0)), monomial((0, 2))]),
            ideal(XY, [binomial((1, 0), (0, 1))]),
        ]
        for I in fixtures:
            c = congruence(I)
            gens_cancellable = all(
                classify_element(c, tuple(int(j == i) for j in range(2))).cancellable
                for i in range(2))
            flags = classify_congruence(c)
            saturated = ideal_equals(saturate_vars(I, range(2)), I)
            assert gens_cancellable == flags.cancellative == saturated


class TestPurePartCongruenceAgreement:
    def test_same_relation_on_pairs(self):
        from binomials import pure_part
        I = ideal(XY, [binomial((1, 0), (0, 1)), monomial((0, 2))])
        P = pure_part(I, (Scalar.one(), Scalar.one()))
        cI, cP = congruence(I), congruence(P)
        r = rng(3737)
        for _ in range(200):
            u = rand_exponent(r, 2, 8)
            v = rand_exponent(r, 2, 8)
            assert related(cI, u, v) == related(cP, u, v)
