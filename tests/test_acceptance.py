"""Acceptance suite: exact worked-example fixtures plus randomized property
suites.  Each criterion prints one PASS line (run with ``pytest -s`` to see
them); a failed assertion surfaces as the usual pytest FAILED line.
"""

import time

import pytest

from binomials import (Binomial, Lattice, NIL, PartialCharacter, Scalar,
                       binomial, cancellative_intersect, cellular_decompose,
                       classify_congruence, colon, congruence, eliminate,
                       ideal, ideal_contains, ideal_equals, intersect,
                       is_cellular, is_mesoprimary, is_prime,
                       lattice_primary_decomposition, maximal_ideal, monomial,
                       project_ideal, pure_part, quotient_index,
                       quotient_table, saturations, smith_normal_form,
                       toric_ideal, associated_mesoprimes, as_cellular)
from binomials.errors import NonBinomialOperationError
from binomials.lattices import _hnf_rows, identity, mat_mul
from binomials import oracle as orc
from binomials.orders import e_add, e_divides

from gen import (rand_exponent, rand_ideal, rand_lattice_vectors, rand_matrix,
                 rand_rational_scalar, rng)

XY = ("X", "Y")
XYZ = ("X", "Y", "Z")
ONE = Scalar.one()
MINUS = Scalar.minus_one()


def report(cid, message):
    print("ACCEPTANCE %s: PASS - %s" % (cid, message))


class timed:
    """Assert the enclosed fixture computation stays under the budget."""

    def __init__(self, seconds=5.0):
        self.budget = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, *rest):
        self.elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert self.elapsed < self.budget, (
                "fixture took %.2fs, budget %.2fs" % (self.elapsed, self.budget))
        return False


# ---------------------------------------------------------------------------

def test_criterion_1_toric_kernel():
    with timed():
        target = [orc.poly([((0, 2, 0), 1), ((1, 0, 1), -1)]),
                  orc.poly([((2, 1, 0), 1), ((0, 0, 2), -1)]),
                  orc.poly([((3, 0, 0), 1), ((0, 1, 1), -1)])]
        T = toric_ideal([[3, 4, 5]], XYZ)
        assert orc.ideal_equal(orc.from_binomial_ideal(T), target)
        names = ("T", "X", "Y", "Z")
        I = ideal(names, [binomial((0, 1, 0, 0), (3, 0, 0, 0)),
                          binomial((0, 0, 1, 0), (4, 0, 0, 0)),
                          binomial((0, 0, 0, 1), (5, 0, 0, 0))])
        E = project_ideal(eliminate(I, {1, 2, 3}), (1, 2, 3))
        assert orc.ideal_equal(orc.from_binomial_ideal(E), target)
        assert ideal_equals(T, E)
    report(1, "toric [3 4 5] and elimination both give "
              "<Y^2-XZ, X^2Y-Z^2, X^3-YZ>")


def test_criterion_2_augmentation_pair():
    with timed():
        I1 = ideal(XY, [binomial((1, 0), (0, 1)), monomial((0, 2))])
        I0 = pure_part(I1, (ONE, ONE))
        expected0 = ideal(XY, [binomial((1, 0), (0, 1)),
                               binomial((0, 3), (0, 2))])
        assert ideal_equals(I0, expected0)
        back, complete = maximal_ideal(expected0, 4)
        assert ideal_equals(back, I1)
    report(2, "pure part <X-Y, Y^3-Y^2> and maximal ideal <X-Y, Y^2> "
              "recover each other")


def test_criterion_3_cellular_decomposition():
    with timed():
        I = ideal(XYZ, [binomial((4, 2, 0), (0, 0, 6)),
                        binomial((3, 2, 0), (0, 0, 5)),
                        binomial((2, 0, 0), (0, 1, 1))])
        components = cellular_decompose(I)
        for comp in components:
            assert is_cellular(comp.ideal) == comp.delta
            assert ideal_contains(comp.ideal, I)
        gens = [orc.from_binomial_ideal(c.ideal) for c in components]
        assert orc.ideal_equal(orc.intersect_all(gens, 3),
                               orc.from_binomial_ideal(I))
        reference = [
            ideal(XYZ, [binomial((0, 1, 0), (0, 0, 1)),
                        binomial((1, 0, 0), (0, 0, 1))]),
            ideal(XYZ, [monomial((0, 0, 2)), monomial((1, 0, 1)),
                        binomial((2, 0, 0), (0, 1, 1))]),
            ideal(XYZ, [binomial((2, 0, 0), (0, 1, 1)),
                        binomial((1, 3, 1), (0, 0, 5)),
                        binomial((1, 0, 5), (0, 0, 6)),
                        monomial((0, 0, 7)), monomial((0, 7, 0))]),
        ]
        for J in reference:
            assert ideal_contains(J, I)
    report(3, "cellular decomposition: components cellular, contain the "
              "input, oracle intersection equals the input")


def test_criterion_4_mesoprimary_witness():
    with timed():
        I = ideal(XY, [binomial((2, 0), (0, 0)), binomial((1, 1), (0, 1)),
                       monomial((0, 2))])
        ok, witness = is_mesoprimary(I)
        assert ok is False and witness == (0, 1)
        pairs = associated_mesoprimes(as_cellular(I))
        got = [m.ideal() for m, _, _ in pairs]
        expected = [ideal(XY, [binomial((1, 0), (0, 0)), monomial((0, 1))]),
                    ideal(XY, [binomial((2, 0), (0, 0)), monomial((0, 1))])]
        assert len(got) == 2
        for want in expected:
            assert any(ideal_equals(g, want) for g in got)
    report(4, "is_mesoprimary refuses with witness Y; associated mesoprimes "
              "are <X-1,Y> and <X^2-1,Y>")


def test_criterion_5_lattice_decomposition():
    with timed():
        L2 = Lattice.from_vectors(2, [(2, -2)])
        rho2 = PartialCharacter.trivial(L2)
        decomp2 = lattice_primary_decomposition(rho2, XY)
        assert len(decomp2) == 2 == quotient_index(L2, saturations(L2)[0])
        for _, comp in decomp2:
            assert is_prime(comp)
        gens = [orc.from_binomial_ideal(c) for _, c in decomp2]
        target = orc.from_binomial_ideal(ideal(XY, [binomial((2, 0), (0, 2))]))
        assert orc.ideal_equal(orc.intersect_all(gens, 2), target)

        L3 = Lattice.from_vectors(2, [(3, -3)])
        rho3 = PartialCharacter.trivial(L3)
        decomp3 = lattice_primary_decomposition(rho3, XY)
        assert len(decomp3) == 3 == quotient_index(L3, saturations(L3)[0])
        for _, comp in decomp3:
            assert is_prime(comp)
        assert len({tuple(rho.values) for rho, _ in decomp3}) == 3
    report(5, "<X^2-Y^2> splits into 2 primes (oracle-checked), "
              "<X^3-Y^3> into 3; counts match the lattice indices")


def test_criterion_6_congruence_fixtures():
    with timed():
        c1 = congruence(ideal(XY, [binomial((1, 0), (0, 1)), monomial((0, 2))]))
        qt = quotient_table(c1, 10)
        assert qt.classes == ((0, 0), (0, 1), NIL)
        assert qt.table == ((0, 1, 2), (1, 2, 2), (2, 2, 2))

        c2 = congruence(ideal(XY, [binomial((1, 0), (0, 1)),
                                   binomial((0, 2), (0, 0))]))
        qt2 = quotient_table(c2, 10)
        assert len(qt2.classes) == 2
        assert qt2.table == ((0, 1), (1, 0))

        ca = congruence(ideal(XY, [binomial((2, 0), (0, 2))]))
        cb = congruence(ideal(XY, [binomial((3, 0), (0, 3))]))
        cap = cancellative_intersect(ca, cb)
        assert ideal_equals(cap.ideal, ideal(XY, [binomial((6, 0), (0, 6))]))
        inter = orc.rational_intersect(orc.from_binomial_ideal(ca.ideal),
                                       orc.from_binomial_ideal(cb.ideal), 2)
        quartic = orc.poly([((4, 0), 1), ((3, 1), 1),
                            ((1, 3), -1), ((0, 4), -1)])
        assert orc.ideal_equal(inter, [quartic])
        gb = orc.rational_gb(inter)
        for f in orc.from_binomial_ideal(cap.ideal):
            assert orc.member(f, gb)
        assert not orc.ideal_equal(inter, orc.from_binomial_ideal(cap.ideal))
    report(6, "quotient tables match; intersection congruence is <X^6-Y^6>, "
              "strictly inside the non-binomial oracle intersection")


# ---------------------------------------------------------------------------
# criterion 7: property suites, >= 500 randomized cases each

def test_criterion_7a_gb_closure():
    r = rng(70_001)
    for _ in range(500):
        I = rand_ideal(r, rational=False, maxdeg=6)
        gb = I.groebner()
        leads = [b.lead for b in gb.elements]
        for b in gb.elements:
            assert isinstance(b, Binomial)
            assert (b.trail is None) == (b.coeff is None)
            # interreduced: no term divisible by another lead
            for other in leads:
                if other != b.lead:
                    assert not e_divides(other, b.lead)
                if b.trail is not None:
                    assert not e_divides(other, b.trail)
    report("7a", "500 random ideals: reduced GBs consist of interreduced "
                 "binomials")


def test_criterion_7b_congruence_axioms():
    r = rng(70_002)
    from binomials import related
    checked = 0
    while checked < 500:
        I = rand_ideal(r, rational=False, maxdeg=6)
        if I.is_unit():
            continue
        c = congruence(I)
        u = rand_exponent(r, 3, 8)
        v = rand_exponent(r, 3, 8)
        w = rand_exponent(r, 3, 8)
        assert related(c, u, u)
        assert related(c, u, v) == related(c, v, u)
        if related(c, u, v) and related(c, v, w):
            assert related(c, u, w)
        if related(c, u, v):
            t = rand_exponent(r, 3, 4)
            assert related(c, e_add(u, t), e_add(v, t))
        checked += 1
    report("7b", "500 random cases: reflexive, symmetric, transitive, "
                 "additively closed")


def test_criterion_7c_engine_vs_oracle():
    r = rng(70_003)
    for _ in range(500):
        I = rand_ideal(r, rational=True, maxdeg=6)
        assert orc.ideal_equal(orc.from_binomial_ideal(I), orc.from_binomials(I.gens))
    report("7c", "500 random rational ideals: engine GB generates the same "
                 "ideal as the input, per the oracle")


def test_criterion_7d_snf_identities():
    r = rng(70_004)
    for _ in range(500):
        A = rand_matrix(r, 6, 6, 20)
        S = smith_normal_form(A)
        U, D, V = [list(map(list, M)) for M in (S.U, S.D, S.V)]
        assert mat_mul(mat_mul(U, A), V) == D
        # an integer matrix is unimodular exactly when its HNF is the identity
        assert _hnf_rows(U)[0] == [tuple(row) for row in identity(len(U))]
        assert _hnf_rows(V)[0] == [tuple(row) for row in identity(len(V))]
        diag = [d for d in S.diagonal() if d != 0]
        assert all(diag[i + 1] % diag[i] == 0 for i in range(len(diag) - 1))
    report("7d", "500 random matrices: U*A*V = D with unimodular U, V and "
                 "a divisibility chain")


def test_criterion_7e_saturation_indices():
    r = rng(70_005)
    checked = 0
    while checked < 500:
        n = r.randint(1, 4)
        L = Lattice.from_vectors(n, rand_lattice_vectors(r, n))
        if not L.basis:
            continue
        for p in (2, 3, 5):
            sat, sat_p, sat_cop = saturations(L, p)
            assert (quotient_index(L, sat_p) * quotient_index(L, sat_cop)
                    == quotient_index(L, sat))
        checked += 1
    report("7e", "500 random lattices: |Sat_p/L| * |Sat'_p/L| = |Sat/L| "
                 "for p in {2, 3, 5}")


def _transform(I, perm, mus):
    """Relabel variables by perm and rescale X_i -> mu_i X_i."""
    gens = []
    for b in I.gens:
        lead = tuple(b.lead[perm[i]] for i in range(I.n))
        if b.trail is None:
            gens.append(monomial(lead))
            continue
        trail = tuple(b.trail[perm[i]] for i in range(I.n))
        scale = ONE
        for m, l, t in zip(mus, lead, trail):
            scale = scale * m ** (t - l)
        gens.append(binomial(lead, trail, b.coeff * scale))
    return ideal(I.names, gens)


PREDICATE_CORPUS = [
    # (ideal, toric, prime, primary, mesoprimary)
    (ideal(XYZ, [binomial((0, 2, 0), (1, 0, 1)), binomial((2, 1, 0), (0, 0, 2)),
                 binomial((3, 0, 0), (0, 1, 1))]), True, True, True, True),
    (ideal(XY, [binomial((1, 0), (0, 1))]), True, True, True, True),
    (ideal(XY, [binomial((2, 0), (0, 2))]), False, True, True, True),
    (ideal(XY, [binomial((6, 0), (0, 6))]), False, True, True, True),
    (ideal(XY, [binomial((1, 0), (0, 1)), monomial((0, 2))]),
     False, False, True, True),
    (ideal(XY, [binomial((2, 0), (0, 0)), binomial((1, 1), (0, 1)),
                monomial((0, 2))]), False, False, True, False),
    (ideal(XY, [monomial((2, 0)), monomial((1, 1))]),
     False, False, False, False),
    (ideal(XY, [monomial((1, 0)), monomial((0, 1))]), True, True, True, True),
    (ideal(XY, [binomial((17, 0), (0, 0)), monomial((0, 1))]),
     False, True, True, True),
    (ideal(XY, [binomial((2, 0), (0, 0)), monomial((0, 2))]),
     False, False, True, True),
    (ideal(XY, [binomial((1, 0), (0, 1)), binomial((0, 2), (0, 0))]),
     False, True, True, True),
    (ideal(XY, [monomial((2, 0)), monomial((1, 1)), monomial((0, 3))]),
     False, False, True, True),
]


def test_criterion_7f_implication_chains():
    r = rng(70_006)
    checked = 0
    while checked < 500:
        entry, toric, prime, primary, mesoprimary = \
            PREDICATE_CORPUS[checked % len(PREDICATE_CORPUS)]
        n = entry.n
        perm = list(range(n))
        r.shuffle(perm)
        mus = [rand_rational_scalar(r) for _ in range(n)]
        J = _transform(entry, tuple(perm), mus)
        flags = classify_congruence(congruence(J))
        assert flags.toric == toric
        assert flags.prime == prime
        assert flags.primary == primary
        assert flags.mesoprimary == mesoprimary
        if flags.toric:
            assert flags.prime
        if flags.prime:
            assert flags.primary
        if flags.mesoprimary:
            assert flags.primary
        checked += 1
    report("7f", "500 permuted/rescaled corpus cases: classification "
                 "invariant; toric => prime => primary, mesoprimary => primary")


# ---------------------------------------------------------------------------

def test_criterion_8_negative_controls():
    with timed():
        # oracle confirms the two non-binomial counterexamples
        x3 = orc.poly([((3,), 1), ((0,), -1)])
        xm1 = orc.poly([((1,), 1), ((0,), -1)])
        got = orc.rational_colon_poly([x3], xm1, 1)
        assert orc.ideal_equal(got, [orc.poly([((2,), 1), ((1,), 1),
                                               ((0,), 1)])])
        a = orc.poly([((1,), 1), ((0,), -1)])
        b = orc.poly([((1,), 1), ((0,), -2)])
        inter = orc.rational_intersect([a], [b], 1)
        assert orc.ideal_equal(inter, [orc.poly([((2,), 1), ((1,), -3),
                                                 ((0,), 2)])])
        # the main engine refuses both operations with typed errors
        I3 = ideal(("X",), [binomial((3,), (0,))])
        with pytest.raises(NonBinomialOperationError):
            colon(I3, binomial((1,), (0,)))
        J1 = ideal(("X",), [binomial((1,), (0,))])
        J2 = ideal(("X",), [binomial((1,), (0,), Scalar.from_rational(2))])
        with pytest.raises(NonBinomialOperationError):
            intersect(J1, J2)
    report(8, "oracle confirms <X^2+X+1> and <X^2-3X+2>; the engine refuses "
              "colon-by-binomial and general intersection with typed errors")
