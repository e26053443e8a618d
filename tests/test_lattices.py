import hashlib
import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from binomials import (Lattice, PartialCharacter, Scalar, binomial,
                       character_of, extend_character, fibers, ideal,
                       ideal_equals, is_positive, is_saturated, kernel_basis,
                       lattice_ideal, lattice_intersect,
                       lattice_primary_decomposition, monomial,
                       quotient_index, saturations, smith_normal_form,
                       toric_ideal)
from binomials.errors import (ExtensionRankError, InconsistentCharacterError,
                              InputError, NotPositiveError, NotPureError)
from binomials import engine, lattices
from binomials.cli import main
from binomials.engine import saturate_vars, scalar_power
from binomials.lattices import (_basis_binomial, _coefficients, _degree_vector,
                                _hnf_rows, hnf, identity, mat_mul,
                                positive_witness)
from binomials import oracle as orc

from gen import rand_lattice_vectors, rand_matrix, rand_mixed_ideal, rng

XY = ("X", "Y")
ONE = Scalar.one()

int_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda rows: st.integers(min_value=1, max_value=5).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(min_value=-20, max_value=20),
                     min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)))


class TestRefusals:
    def test_kernel_of_no_rows(self):
        assert kernel_basis([]) == []

    @pytest.mark.parametrize("operation", [lattice_intersect, quotient_index],
                             ids=lambda f: f.__name__)
    def test_different_ambient_dimensions(self, operation):
        with pytest.raises(InputError, match="different ambient dimensions"):
            operation(Lattice.from_vectors(2, [(1, 0)]), Lattice.from_vectors(3, [(1, 0, 0)]))

    def test_index_outside_the_target(self):
        with pytest.raises(InputError, match="not contained in the target lattice"):
            quotient_index(Lattice.from_vectors(2, [(1, 0)]), Lattice.from_vectors(2, [(2, 0)]))

    def test_character_outside_its_lattice(self):
        rho = PartialCharacter.trivial(Lattice.from_vectors(2, [(2, 0)]))
        with pytest.raises(InputError, match="outside the character's lattice"):
            rho((1, 0))

    def test_lattice_ideal_with_the_wrong_names(self):
        rho = PartialCharacter.trivial(Lattice.from_vectors(2, [(1, -1)]))
        with pytest.raises(InputError, match="ring has 1 variables, lattice ambient is 2"):
            lattice_ideal(rho, ("X",))

    @pytest.mark.parametrize("A", [[], [[]]], ids=["no rows", "no columns"])
    def test_empty_degree_matrix(self, A):
        with pytest.raises(InputError, match="degree matrix must be nonempty"):
            is_positive(A)


class TestSmithNormalForm:
    def test_single_row(self):
        S = smith_normal_form([[2, -2]])
        assert S.D == ((2, 0),)
        assert S.diagonal() == (2,)

    def test_identity(self):
        S = smith_normal_form([[1, 0], [0, 1]])
        assert S.diagonal() == (1, 1)

    def test_divisibility_fix(self):
        assert smith_normal_form([[2, 0], [0, 3]]).diagonal() == (1, 6)

    @settings(max_examples=200, deadline=None)
    @given(int_matrices)
    def test_identities(self, A):
        S = smith_normal_form(A)
        U, D, V = [list(map(list, M)) for M in (S.U, S.D, S.V)]
        assert mat_mul(mat_mul(U, A), V) == D
        # an integer matrix is unimodular exactly when its HNF is the identity
        assert _hnf_rows(U)[0] == [tuple(row) for row in identity(len(U))]
        assert _hnf_rows(V)[0] == [tuple(row) for row in identity(len(V))]
        diag = [d for d in S.diagonal() if d != 0]
        assert all(diag[i + 1] % diag[i] == 0 for i in range(len(diag) - 1))
        assert all(d > 0 for d in diag)
        # off-diagonal zero
        for i, row in enumerate(D):
            for j, x in enumerate(row):
                if i != j:
                    assert x == 0


def _cofactor_det(A):
    """Determinant by cofactor expansion along the first row."""
    if not A:
        return 1
    return sum((-1) ** j * A[0][j] * _cofactor_det([row[:j] + row[j + 1:] for row in A[1:]])
               for j in range(len(A)))


class TestHermite:
    def test_canonical(self):
        assert hnf([(2, -2), (0, 0)]) == ((2, -2),)
        assert hnf([(1, -1), (2, -2)]) == ((1, -1),)

    def test_membership(self):
        L = Lattice.from_vectors(2, [(2, -2)])
        assert (4, -4) in L
        assert (1, -1) not in L
        assert (2, 2) not in L

    def test_quotient_index_is_abs_det(self):
        r = rng(1818)
        checked = 0
        while checked < 300:
            n = r.randint(1, 4)
            M = Lattice.from_vectors(n, rand_lattice_vectors(r, n))
            k = M.rank
            C = [[r.randint(-5, 5) for _ in range(k)] for _ in range(k)]
            if k == 0 or _cofactor_det(C) == 0:
                continue
            L = Lattice.from_vectors(n, mat_mul(C, [list(b) for b in M.basis]))
            assert quotient_index(L, M) == abs(_cofactor_det(C))
            checked += 1


def _pinned_matrix(r):
    """A seeded 1-5 x 1-5 matrix; about a third get a zero row or column."""
    A = rand_matrix(r, 5, 5, 9)
    if r.random() < 0.35:
        A[r.randrange(len(A))] = [0] * len(A[0])
    if r.random() < 0.35:
        j = r.randrange(len(A[0]))
        for row in A:
            row[j] = 0
    return A


class TestPinnedTransforms:
    """The exact transforms, not just valid ones: ``snf`` prints U and V, and
    ``extend_character`` orders the components by them.  Any change to the
    order of the integer row or column operations changes the digest."""

    DIGEST = "41cee862acd657f10a8b082fef5a232c153fc6341e73ffb569fe4c634368c3c8"

    def test_transforms_are_pinned(self):
        r = rng(2024)
        h = hashlib.sha256()
        for _ in range(300):
            A = _pinned_matrix(r)
            S = smith_normal_form(A)
            for part in (hnf(A), kernel_basis(A), S):
                h.update(repr(part).encode())
        assert h.hexdigest() == self.DIGEST


class TestSaturations:
    def test_char_zero_convention(self):
        L = Lattice.from_vectors(2, [(2, -2)])
        sat, sat_p, sat_cop = saturations(L, 0)
        assert sat.basis == ((1, -1),)
        assert sat_p == L
        assert sat_cop == sat

    def test_p_two(self):
        L = Lattice.from_vectors(2, [(2, -2)])
        sat, sat2, sat2c = saturations(L, 2)
        assert sat2.basis == ((1, -1),)
        assert sat2c == L

    def test_saturated_fixed_point(self):
        L = Lattice.from_vectors(2, [(1, -1)])
        assert all(M == L for M in saturations(L, 3))
        assert is_saturated(L)

    @pytest.mark.parametrize("p", [1, -1, -2, 4, 6, 9, 2.5])
    def test_p_is_zero_or_prime(self, p):
        # p = 1 used to divide by 1 forever, and a negative or composite p
        # gave lattices that mean nothing
        for L in (Lattice.from_vectors(2, [(2, -2)]), Lattice.from_vectors(2, [])):
            with pytest.raises(InputError, match="0 or a prime"):
                saturations(L, p)

    def test_index_multiplicativity(self):
        r = rng(1111)
        checked = 0
        while checked < 400:
            n = r.randint(1, 4)
            L = Lattice.from_vectors(n, rand_lattice_vectors(r, n))
            if not L.basis:
                continue
            for p in (2, 3, 5):
                sat, sat_p, sat_cop = saturations(L, p)
                ip = quotient_index(L, sat_p)
                ic = quotient_index(L, sat_cop)
                assert ip * ic == quotient_index(L, sat)
            checked += 1


def reference_saturations(L, p=0):
    """Sat(L), Sat_p(L) and Sat'_p(L) from the rows of V^-1, taken as the
    transform of V's HNF, for U * B * V = D the Smith form of L's basis."""
    if not L.basis:
        empty = Lattice(L.n, ())
        return empty, empty, empty
    S = smith_normal_form(L.basis)
    diag = [d for d in S.diagonal() if d != 0]
    rows = _hnf_rows(S.V)[1][:len(diag)]
    sat = Lattice.from_vectors(L.n, rows)
    if p == 0:
        return sat, L, sat
    powers = []  # the largest power of p dividing each d_i
    for d in diag:
        power = 1
        while d % (power * p) == 0:
            power *= p
        powers.append(power)
    return (sat,
            Lattice.from_vectors(L.n, [[d // q * x for x in row]
                                       for d, q, row in zip(diag, powers, rows)]),
            Lattice.from_vectors(L.n, [[q * x for x in row]
                                       for q, row in zip(powers, rows)]))


class TestSaturationsOffSmithForm:
    def test_saturations_match_the_reference(self):
        r = rng(2929)
        ranks, factors_above_one = set(), 0
        for _ in range(200):
            n = r.randint(1, 4)
            # scaled vectors make invariant factors above 1
            vectors = [[r.choice((1, 1, 2, 3, 4, 6)) * x for x in v]
                       for v in rand_lattice_vectors(r, n, r.randint(0, n), bound=3)]
            L = Lattice.from_vectors(n, vectors)
            for p in (0, 2, 3, 5):
                assert saturations(L, p) == reference_saturations(L, p), (L, p)
            S = smith_normal_form(L.basis)
            # the rows of U * B that saturations divides by their invariant factors
            assert not any(x % d for d, row in zip(S.diagonal(), mat_mul(S.U, L.basis))
                           for x in row), L
            ranks.add(L.rank)
            factors_above_one += any(d > 1 for d in S.diagonal())
        assert ranks == {0, 1, 2, 3, 4}
        assert factors_above_one >= 140, factors_above_one

    def test_one_smith_form_and_no_inverse(self, monkeypatch):
        calls = []
        for name in ("_hnf_rows", "smith_normal_form"):
            real = getattr(lattices, name)
            monkeypatch.setattr(lattices, name, lambda *args, name=name, real=real:
                                calls.append(name) or real(*args))
        L = Lattice.from_vectors(3, [(2, 4, 0), (0, 6, 12)])
        for p, hnfs in ((0, 1), (2, 3)):
            del calls[:]
            saturations(L, p)
            # one HNF per new lattice returned, none for an inverse
            assert sorted(calls) == ["_hnf_rows"] * hnfs + ["smith_normal_form"]


class TestLatticeIdeal:
    def test_trivial_rank_one(self):
        L = Lattice.from_vectors(2, [(1, -1)])
        I = lattice_ideal(PartialCharacter.trivial(L), XY)
        assert ideal_equals(I, ideal(XY, [binomial((1, 0), (0, 1))]))

    def test_paper_generator(self):
        L = Lattice.from_vectors(2, [(2, -2)])
        I = lattice_ideal(PartialCharacter.trivial(L), XY)
        assert ideal_equals(I, ideal(XY, [binomial((2, 0), (0, 2))]))

    def test_twisted(self):
        L = Lattice.from_vectors(2, [(1, -1)])
        rho = PartialCharacter(L, (Scalar.minus_one(),))
        I = lattice_ideal(rho, XY)
        assert ideal_equals(I, ideal(XY, [binomial((1, 0), (0, 1),
                                                   Scalar.minus_one())]))


class TestDegreeVector:
    """lattice_ideal saturates the image under X_i -> X_i^(w_i) when L has
    a degree vector w >= 1, and the homogenized basis ideal otherwise."""

    @pytest.mark.parametrize("basis, w", [
        ((), (1, 1)),
        (((1, -1),), (1, 1)),
        (((2, -3),), (3, 2)),
        (((3, 5, -4), (1, -2, 0)), (8, 4, 11)),
        (((1, 0),), None),                     # the kernel misses X
        (((1, 1),), None),                     # no positive point
        (((1, 0), (0, 1)), None),              # empty kernel
    ])
    def test_degree_vector(self, basis, w):
        assert _degree_vector(basis, len(basis[0]) if basis else 2) == w

    # character values: rational, roots of unity, fractional prime powers
    VALUES = {
        "rational": lambda r: Scalar.from_rational(r.choice([1, 1, 2, -1, -3, Fraction(2, 3)])),
        "root": lambda r: Scalar.zeta(r.choice([2, 3, 4, 6]), r.randint(1, 5)),
        "power": lambda r: Scalar.from_rational(r.choice([2, 3, 5])).root(r.choice([2, 3])),
    }

    @staticmethod
    def saturated(char, names):
        """The reduced basis of I_L(char) by one saturation of its basis ideal."""
        basis_ideal = ideal(names, [_basis_binomial(v, s) for v, s in
                                    zip(char.lattice.basis, char.values)])
        return saturate_vars(basis_ideal, range(len(names))).groebner().elements

    def test_matches_homogenized_saturation(self, monkeypatch, tmp_path, capsys):
        """lattice_ideal and every component of lattice_primary_decomposition
        equal the saturated basis ideal of their character, element for
        element: one chain rescaled against one saturation per character.
        Each holds that basis, so groebner() runs no Buchberger."""
        runs, real = [], engine._reduced_basis
        monkeypatch.setattr(engine, "_reduced_basis", lambda *a: runs.append(a) or real(*a))

        def held(I):
            before = len(runs)
            elements = I.groebner().elements
            assert len(runs) == before, I
            return elements

        r = rng(1213)
        shapes = dict.fromkeys(("one", "weighted", "none"), 0)
        components = dict.fromkeys(self.VALUES, 0)
        for kind, draw in self.VALUES.items():
            done = 0
            while done < 40:
                n = r.randint(2, 4)
                vecs = rand_lattice_vectors(r, n, bound=3)
                if done % 3 == 0:  # coordinate sums 0: the degree vector is all ones
                    vecs = [v[:-1] + (-sum(v[:-1]),) for v in vecs]
                try:
                    rho = PartialCharacter.from_generators(n, vecs, [draw(r) for _ in vecs])
                except InconsistentCharacterError:
                    continue
                names = tuple("XYZW"[:n])
                w = _degree_vector(rho.lattice.basis, n)
                assert w is None or (min(w) >= 1 and not any(
                    sum(a * b for a, b in zip(w, v)) for v in rho.lattice.basis)), (rho, w)
                shapes["none" if w is None else "one" if set(w) == {1} else "weighted"] += 1
                assert held(lattice_ideal(rho, names)) == self.saturated(rho, names)
                # each extension costs one more saturation; keep the index small
                if quotient_index(rho.lattice, saturations(rho.lattice)[0]) <= 6:
                    for ext, comp in lattice_primary_decomposition(rho, names):
                        assert held(comp) == self.saturated(ext, names), ext
                        components[kind] += 1
                done += 1
        assert min(shapes.values()) >= 10, shapes
        assert min(components.values()) >= 40, components
        # w = (3, 2) and two components: character_of, three colon steps
        # that the lattice test and the chain share, and one grevlex run
        # for both components
        session = tmp_path / "session.txt"
        session.write_text("ring X Y\nideal I\nX^4 - Y^6\n")
        del runs[:]
        assert main(["lattice-decomp", str(session), "--ideal", "I"]) == 0
        assert capsys.readouterr().out.count("component") == 2
        assert len(runs) == 5

    @pytest.mark.parametrize("degrees", ["3 5 7 10", "3 8 9 10", "4 5 6 7"])
    def test_toric_needs_no_homogenizing_variable(self, degrees, monkeypatch):
        built = []
        real = engine._homogenize
        monkeypatch.setattr(engine, "_homogenize",
                            lambda I: built.append(real(I).n - I.n) or real(I))
        A = [[int(x) for x in degrees.split()]]
        names = tuple("abcd")
        I = toric_ideal(A, names)
        assert built and not any(built)
        monkeypatch.setattr(engine, "_homogenize", real)
        kernel = Lattice.from_vectors(4, kernel_basis(A))
        basis_ideal = ideal(names, [_basis_binomial(v, ONE) for v in kernel.basis])
        assert (I.groebner().elements
                == saturate_vars(basis_ideal, range(4)).groebner().elements)


class TestCharacterOf:
    def test_saturating(self):
        I = ideal(XY, [binomial((1, 1), (0, 1))])  # XY - Y
        rho = character_of(I)
        assert rho.lattice.basis == ((1, 0),)
        assert rho.values == (ONE,)

    def test_minus_one(self):
        I = ideal(XY, [binomial((1, 0), (0, 1), Scalar.minus_one())])
        rho = character_of(I)
        assert rho.lattice.basis == ((1, -1),)
        assert rho.values == (Scalar.minus_one(),)

    def test_zero_ideal(self):
        rho = character_of(ideal(XY, []))
        assert rho.lattice.rank == 0

    def test_monomial_rejected(self):
        with pytest.raises(NotPureError):
            character_of(ideal(XY, [monomial((1, 0))]))

    def test_against_the_saturation(self):
        # on pure ideals, saturated or not, the character read off the
        # reduced basis is the one read off I : (X_1 ... X_n)^infinity;
        # coefficients are rational, roots of unity and prime powers
        r = rng(1818)
        pure = unsaturated = 0
        for _ in range(300):
            I = rand_mixed_ideal(r)
            if any(b.is_monomial for b in I.groebner().elements):
                with pytest.raises(NotPureError):
                    character_of(I)
                continue
            sat = saturate_vars(I, range(I.n))
            elements = sat.groebner().elements
            want = PartialCharacter.from_generators(
                I.n, [tuple(a - b for a, b in zip(e.lead, e.trail)) for e in elements],
                [e.coeff for e in elements])
            assert character_of(I) == want, I
            pure += 1
            unsaturated += not ideal_equals(sat, I)
        assert pure >= 80 and unsaturated >= 40, (pure, unsaturated)

    def test_round_trip(self):
        r = rng(1212)
        done = 0
        while done < 60:
            n = r.randint(1, 3)
            vecs = rand_lattice_vectors(r, n)
            values = []
            for _ in vecs:
                s = Scalar.from_rational(r.choice([1, 1, 2, -1, -3]))
                values.append(s)
            try:
                rho = PartialCharacter.from_generators(n, vecs, values)
            except InconsistentCharacterError:
                continue
            names = tuple("XYZ"[:n])
            I = lattice_ideal(rho, names)
            if I.is_zero():
                done += 1
                continue
            again = character_of(I)
            assert again.lattice == rho.lattice
            assert again == PartialCharacter(rho.lattice,
                                             tuple(rho(v) for v in rho.lattice.basis))
            assert ideal_equals(lattice_ideal(again, names), I)
            done += 1


class TestCharactersBeyondQ:
    def test_zeta_round_trip(self):
        L = Lattice.from_vectors(2, [(1, -1)])
        rho = PartialCharacter(L, (Scalar.zeta(3, 1),))
        I = lattice_ideal(rho, XY)
        again = character_of(I)
        assert again == rho
        assert ideal_equals(lattice_ideal(again, XY), I)

    def test_decomposition_of_twisted_ideal(self):
        # <X^2 - zeta3 Y^2>: two components with values +-sqrt(zeta3)
        L = Lattice.from_vectors(2, [(2, -2)])
        rho = PartialCharacter(L, (Scalar.zeta(3, 1),))
        decomp = lattice_primary_decomposition(rho, XY)
        assert len(decomp) == 2
        values = [ext.values[0] for ext, _ in decomp]
        assert values == [Scalar.zeta(6, 1), Scalar.zeta(6, 4)]
        for ext, comp in decomp:
            assert ext((2, -2)) == Scalar.zeta(3, 1)
            from binomials import is_prime
            assert is_prime(comp)

    def test_irrational_extension(self):
        # extending the trivial character needs sqrt(2) when the value is 2
        L = Lattice.from_vectors(2, [(2, -2)])
        rho = PartialCharacter(L, (Scalar.from_rational(2),))
        exts = extend_character(rho, Lattice.from_vectors(2, [(1, -1)]))
        root2 = Scalar.from_rational(2).root(2, 0)
        assert [e.values[0] for e in exts] == [root2, root2.negate()]
        for e in exts:
            assert e((2, -2)) == Scalar.from_rational(2)


class TestCharacterConsistency:
    def test_inconsistent_rejected(self):
        with pytest.raises(InconsistentCharacterError):
            PartialCharacter.from_generators(
                2, [(1, -1), (2, -2)], [ONE, Scalar.minus_one()])

    def test_dependent_consistent(self):
        rho = PartialCharacter.from_generators(
            2, [(1, -1), (2, -2)], [Scalar.minus_one(), ONE])
        assert rho(( 3, -3)) == Scalar.minus_one()

    def test_basis_change_preserves_values(self):
        # evaluation through the canonical basis agrees with the generator
        # description on random lattice elements
        r = rng(1616)
        done = 0
        while done < 60:
            n = r.randint(1, 3)
            vecs = rand_lattice_vectors(r, n)
            values = [Scalar.from_rational(r.choice([1, -1, 2, 3]))
                      for _ in vecs]
            try:
                rho = PartialCharacter.from_generators(n, vecs, values)
            except InconsistentCharacterError:
                continue
            for _ in range(8):
                coeffs = [r.randint(-3, 3) for _ in vecs]
                v = tuple(sum(c * vec[i] for c, vec in zip(coeffs, vecs))
                          for i in range(n))
                expected = ONE
                for c, s in zip(coeffs, values):
                    expected = expected * s ** c
                assert rho(v) == expected
            done += 1


class TestExtendCharacter:
    def test_index_two(self):
        L = Lattice.from_vectors(2, [(2, -2)])
        M = Lattice.from_vectors(2, [(1, -1)])
        exts = extend_character(PartialCharacter.trivial(L), M)
        assert [e.values for e in exts] == [(ONE,), (Scalar.minus_one(),)]

    def test_same_lattice(self):
        L = Lattice.from_vectors(2, [(2, -2)])
        rho = PartialCharacter.trivial(L)
        assert extend_character(rho, L) == [rho]

    def test_index_three(self):
        L = Lattice.from_vectors(2, [(3, -3)])
        M = Lattice.from_vectors(2, [(1, -1)])
        exts = extend_character(PartialCharacter.trivial(L), M)
        assert [e.values for e in exts] == [(ONE,), (Scalar.zeta(3, 1),),
                                            (Scalar.zeta(3, 2),)]

    def test_rank_mismatch(self):
        L = Lattice.from_vectors(2, [])
        M = Lattice.from_vectors(2, [(1, 0)])
        with pytest.raises(ExtensionRankError):
            extend_character(PartialCharacter.trivial(L), M)

    def test_count_is_index(self):
        r = rng(1313)
        done = 0
        while done < 60:
            n = r.randint(1, 3)
            M = Lattice.from_vectors(n, rand_lattice_vectors(r, n))
            if not M.basis:
                continue
            factors = [r.choice([1, 2, 3]) for _ in M.basis]
            L = Lattice.from_vectors(
                n, [tuple(c * x for x in v) for c, v in zip(factors, M.basis)])
            if L.rank != M.rank:
                continue
            exts = extend_character(PartialCharacter.trivial(L), M)
            assert len(exts) == quotient_index(L, M)
            assert len(set(exts)) == len(exts)
            done += 1


class TestLatticeDecomposition:
    def test_two_components(self):
        L = Lattice.from_vectors(2, [(2, -2)])
        decomp = lattice_primary_decomposition(PartialCharacter.trivial(L), XY)
        assert len(decomp) == 2
        gens = [orc.from_binomial_ideal(c) for _, c in decomp]
        target = orc.from_binomial_ideal(
            lattice_ideal(PartialCharacter.trivial(L), XY))
        assert orc.ideal_equal(orc.intersect_all(gens, 2), target)

    def test_saturated_single(self):
        L = Lattice.from_vectors(2, [(1, -1)])
        rho = PartialCharacter.trivial(L)
        decomp = lattice_primary_decomposition(rho, XY)
        assert len(decomp) == 1
        assert ideal_equals(decomp[0][1], lattice_ideal(rho, XY))

    def test_three_components_with_roots(self):
        L = Lattice.from_vectors(2, [(3, -3)])
        decomp = lattice_primary_decomposition(PartialCharacter.trivial(L), XY)
        assert len(decomp) == 3
        values = [rho.values[0] for rho, _ in decomp]
        assert values == [ONE, Scalar.zeta(3, 1), Scalar.zeta(3, 2)]

    def test_component_count_is_index(self):
        L = Lattice.from_vectors(3, [(2, -2, 0), (0, 3, -3)])
        rho = PartialCharacter.trivial(L)
        decomp = lattice_primary_decomposition(rho, ("X", "Y", "Z"))
        assert len(decomp) == quotient_index(L, saturations(L)[0])

    def test_components_share_saturated_lattice(self):
        from binomials import is_prime
        for vecs in ([(2, -2)], [(3, -3)], [(4, -2)]):
            L = Lattice.from_vectors(2, vecs)
            sat = saturations(L)[0]
            decomp = lattice_primary_decomposition(
                PartialCharacter.trivial(L), XY)
            assert all(rho.lattice == sat for rho, _ in decomp)
            assert all(is_prime(comp) for _, comp in decomp)
            assert len({tuple(rho.values) for rho, _ in decomp}) == len(decomp)


# the algorithms that the transforms replaced, kept as references

def reference_from_generators(n, vectors, values):
    """The character on the HNF basis, checked at every generator; None
    when a generator's value disagrees."""
    rows, T, rank = _hnf_rows(vectors)
    char = PartialCharacter(Lattice(n, tuple(rows[:rank])),
                            tuple(scalar_power(values, T[i]) for i in range(rank)))
    return char if all(char(v) == s for v, s in zip(vectors, values)) else None


def reference_extensions(rho, M):
    """Each branch's roots on m = V^-1 * M.basis, canonicalized over m."""
    L = rho.lattice
    if L == M:
        return [rho]
    S = smith_normal_form(_coefficients(L, M))
    diag = S.diagonal()
    m_rows = mat_mul(_hnf_rows(S.V)[1], [list(v) for v in M.basis])
    target = [scalar_power(rho.values, row) for row in S.U]
    return [reference_from_generators(M.n, m_rows, [t.root(d, k) for t, d, k
                                                    in zip(target, diag, branches)])
            for branches in itertools.product(*(range(d) for d in diag))]


def reference_is_saturated(L):
    return saturations(L)[0] == L


def rand_value(r):
    """A rational, root-of-unity or prime-power value."""
    kind = r.randrange(3)
    if kind == 0:
        return Scalar.from_rational(r.choice([1, -1, 2, -3, 6]), r.choice([1, 1, 5]))
    if kind == 1:
        m = r.choice([2, 3, 4, 6])
        return Scalar.zeta(m, r.randrange(m))
    return Scalar.from_rational(r.choice([2, 3, 12])).root(r.choice([2, 3]), r.randrange(2))


def rand_lattice_pair(r, n):
    """(L, M) with M of rank 0 to n in Z^n and L = K * M.basis for an
    integer K of nonzero determinant, so M / L is finite; K's rows are
    scaled by 1 to 3, so several invariant factors can exceed 1."""
    rank = r.randint(0, n)
    M = Lattice.from_vectors(n, [])
    while M.rank != rank:
        M = Lattice.from_vectors(n, rand_lattice_vectors(r, n, rank, bound=3))
    while True:
        K = [[r.choice((1, 2, 3)) * r.randint(-2, 3) for _ in range(rank)]
             for _ in range(rank)]
        L = Lattice.from_vectors(n, mat_mul(K, [list(v) for v in M.basis]))
        if L.rank == rank:
            return L, M


class TestCharactersOffTransforms:
    def test_extensions_match_the_reference(self):
        r = rng(2727)
        ranks, factors_above_one = set(), [0, 0, 0, 0]
        for _ in range(160):
            n = r.randint(1, 3)
            L, M = rand_lattice_pair(r, n)
            if quotient_index(L, M) > 36:
                continue
            rho = PartialCharacter.from_generators(n, L.basis, [rand_value(r) for _ in L.basis])
            for target in (M, saturations(L)[0]):
                exts = extend_character(rho, target)
                assert exts == reference_extensions(rho, target)
                for ext in exts:
                    assert all(ext(v) == s for v, s in zip(L.basis, rho.values)), ext
            ranks.add(L.rank)
            diag = smith_normal_form(_coefficients(L, M)).diagonal()
            factors_above_one[sum(d > 1 for d in diag)] += 1
        assert ranks == {0, 1, 2, 3}
        # pairs with no, one, and two or three invariant factors above 1
        assert (factors_above_one[0] >= 60 and factors_above_one[1] >= 48
                and factors_above_one[2] + factors_above_one[3] >= 8), factors_above_one

    def test_from_generators_refuses_what_the_reference_refuses(self):
        r = rng(2728)
        accepted = refused = 0
        for trial in range(300):
            n = r.randint(1, 3)
            base = rand_lattice_vectors(r, n, r.randint(1, n))
            base_values = [rand_value(r) for _ in base]
            coeffs = [[r.randint(-2, 2) for _ in base] for _ in range(r.randint(0, n + 2))]
            vectors = [tuple(sum(c * v[j] for c, v in zip(cs, base)) for j in range(n))
                       for cs in coeffs]
            values = [scalar_power(base_values, cs) for cs in coeffs]
            if trial % 2 and values:
                k = r.randrange(len(values))
                values[k] = values[k] * rand_value(r)
            expected = reference_from_generators(n, vectors, values)
            if expected is None:
                with pytest.raises(InconsistentCharacterError):
                    PartialCharacter.from_generators(n, vectors, values)
                refused += 1
            else:
                assert PartialCharacter.from_generators(n, vectors, values) == expected
                accepted += 1
        assert accepted >= 160 and refused >= 60, (accepted, refused)

    def test_is_saturated_matches_the_reference(self):
        r = rng(2729)
        seen = {True: 0, False: 0}
        for _ in range(200):
            n = r.randint(1, 4)
            L = Lattice.from_vectors(n, rand_lattice_vectors(r, n, r.randint(1, n + 1)))
            got = is_saturated(L)
            assert got == reference_is_saturated(L), L
            seen[got] += 1
        assert is_saturated(Lattice.from_vectors(3, []))
        assert min(seen.values()) >= 70, seen

    def test_read_off_without_the_old_steps(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a step the transforms replace was run")
        for name in ("mat_mul", "saturations"):
            monkeypatch.setattr(lattices, name, refuse)
        monkeypatch.setattr(PartialCharacter, "from_generators", classmethod(refuse))
        L = Lattice.from_vectors(2, [(2, 0), (0, 6)])
        M = Lattice.from_vectors(2, [(1, 0), (0, 1)])
        assert len(extend_character(PartialCharacter.trivial(L), M)) == 12
        assert (is_saturated(L), is_saturated(M)) == (False, True)

    @pytest.mark.parametrize("call", [
        lambda two: PartialCharacter.from_generators(3, [(1, 2)], [two]),
        lambda two: PartialCharacter.from_generators(2, [(1, 2), (2, 4)], [two]),
        lambda two: PartialCharacter.from_generators(2, [(1, 2)], [two, two]),
        lambda two: Lattice.from_vectors(2, [(1, 2)]).express((1, 2, 3)),
        lambda two: PartialCharacter.trivial(Lattice.from_vectors(2, [(1, 2)]))((1, 2, 3)),
        lambda two: hnf([(1, 2), (3,)]),
        lambda two: smith_normal_form([[1, 2], [3]]),
        lambda two: kernel_basis([[1, 2], [3]]),
    ], ids=["short-vector", "few-values", "many-values", "express", "evaluate",
            "hnf", "smith", "kernel"])
    def test_malformed_vectors_are_refused(self, call):
        with pytest.raises(InputError) as raised:
            call(Scalar.from_rational(2))
        assert raised.type is InputError


class TestLatticeIntersect:
    def test_paper_example(self):
        got = lattice_intersect(Lattice.from_vectors(2, [(2, -2)]),
                                Lattice.from_vectors(2, [(3, -3)]))
        assert got.basis == ((6, -6),)

    def test_self(self):
        L = Lattice.from_vectors(2, [(2, -2)])
        assert lattice_intersect(L, L) == L

    def test_transverse(self):
        got = lattice_intersect(Lattice.from_vectors(2, [(1, 0)]),
                                Lattice.from_vectors(2, [(0, 1)]))
        assert got.basis == ()

    def test_contained_in_both(self):
        r = rng(1414)
        for _ in range(60):
            n = r.randint(1, 4)
            L1 = Lattice.from_vectors(n, rand_lattice_vectors(r, n))
            L2 = Lattice.from_vectors(n, rand_lattice_vectors(r, n))
            L = lattice_intersect(L1, L2)
            for v in L.basis:
                assert v in L1 and v in L2

    def test_largest_common_sublattice(self):
        # any sampled element of L1 that also lies in L2 must be in L1 n L2
        r = rng(1515)
        for _ in range(60):
            n = r.randint(1, 3)
            L1 = Lattice.from_vectors(n, rand_lattice_vectors(r, n))
            L2 = Lattice.from_vectors(n, rand_lattice_vectors(r, n))
            L = lattice_intersect(L1, L2)
            for _ in range(10):
                coeffs = [r.randint(-3, 3) for _ in L1.basis]
                v = tuple(sum(c * row[i] for c, row in zip(coeffs, L1.basis))
                          for i in range(n))
                if v in L2:
                    assert v in L


class TestToric:
    def test_three_four_five(self):
        I = toric_ideal([[3, 4, 5]], ("X", "Y", "Z"))
        expected = ideal(("X", "Y", "Z"),
                         [binomial((0, 2, 0), (1, 0, 1)),
                          binomial((2, 1, 0), (0, 0, 2)),
                          binomial((3, 0, 0), (0, 1, 1))])
        assert ideal_equals(I, expected)

    def test_identity_matrix(self):
        assert toric_ideal([[1, 0], [0, 1]], XY).is_zero()

    def test_equal_weights(self):
        I = toric_ideal([[1, 1]], XY)
        assert ideal_equals(I, ideal(XY, [binomial((1, 0), (0, 1))]))

    def test_zero_column_rejected(self):
        with pytest.raises(InputError):
            toric_ideal([[1, 0]], XY)

    def test_kernel_is_kernel(self):
        r = rng(1515)
        for _ in range(100):
            A = rand_matrix(r, 3, 4, 6)
            for v in kernel_basis(A):
                assert all(sum(row[j] * v[j] for j in range(len(v))) == 0
                           for row in A)


class TestPositivity:
    def test_all_positive(self):
        assert is_positive([[3, 4, 5]])

    def test_kernel_vector(self):
        assert not is_positive([[1, -1]])

    def test_triangular(self):
        assert is_positive([[1, -1], [0, 1]])

    def test_zero_column_rejected(self):
        with pytest.raises(InputError):
            is_positive([[1, 0], [1, 0]])

    @staticmethod
    def _check_against_box(A, box):
        """A nonnegative kernel vector in {0..box-1}^n refutes positivity; a
        positive answer is certified by w . a_j >= 1 on every column a_j.
        Returns (positive, found a kernel vector), or None for a rejected A."""
        try:
            positive = is_positive(A)
        except InputError:
            return None
        n = len(A[0])
        in_box = any(any(u) and all(sum(a * x for a, x in zip(row, u)) == 0 for row in A)
                     for u in itertools.product(range(box), repeat=n))
        if in_box:
            assert not positive
        if positive:
            w = positive_witness(A)
            assert all(sum(wi * a for wi, a in zip(w, col)) >= 1 for col in zip(*A))
        return positive, in_box

    def test_against_bounded_search(self):
        r = rng(1616)
        for _ in range(150):
            self._check_against_box(rand_matrix(r, 2, 3, 4), 4)
        seen = set()
        for cols in (5, 6):
            for _ in range(60):
                A = [[r.randint(-4, 4) for _ in range(cols)] for _ in range(3)]
                seen.add(self._check_against_box(A, 3))
        # both answers, and kernel vectors in the box, occur among the 3-row cases
        assert {(True, False), (False, True)} <= seen
        # an elimination over the 6 column variables blows up on these; the
        # simplex searches for w over the 3 row variables
        for A in ([[-2, 9, -6, 1, -9, -9], [-9, 8, -9, 3, -3, 4], [-9, 7, -2, 5, 6, 8]],
                  [[-9, -3, 8, 8, -2, 3], [7, 2, 9, 2, 5, -1], [8, -9, 3, 7, -5, 7]]):
            assert self._check_against_box(A, 3) == (True, False)


def fourier_motzkin_positive(A):
    """The elimination ``positive_witness`` ran before the simplex, kept as a
    reference: w . a_j >= 1 on every column is feasible iff eliminating each
    w_k in turn, combining every pair of rows c . w <= b whose coefficients
    of w_k have opposite signs, leaves no row 0 <= b with b < 0.  The row
    count can square at every step."""
    constraints = [([-x for x in col], -1) for col in zip(*A)]
    for k in range(len(A)):
        kept = [(c, b) for c, b in constraints if c[k] == 0]
        pos = [(c, b) for c, b in constraints if c[k] > 0]
        neg = [(c, b) for c, b in constraints if c[k] < 0]
        kept += [([-cn[k] * x + cp[k] * y for x, y in zip(cp, cn)], -cn[k] * bp + cp[k] * bn)
                 for cp, bp in pos for cn, bn in neg]
        constraints = kept
    return all(b >= 0 for _, b in constraints)


def column_ladder(seed, shapes):
    """A d x n matrix per shape, entries -3..6, drawn one column at a time
    from one seeded stream."""
    r = rng(seed)
    for d, n in shapes:
        cols = [[r.randint(-3, 6) for _ in range(d)] for _ in range(n)]
        yield [list(row) for row in zip(*cols)]


def is_witness(w, A):
    return all(sum(wi * a for wi, a in zip(w, col)) >= 1 for col in zip(*A))


class TestSimplexPositivity:
    def test_agrees_with_fourier_motzkin(self):
        r = rng(3131)
        answers = []
        while len(answers) < 320:
            rows, cols = r.randint(1, 4), r.randint(1, 7)
            A = [[r.randint(-3, 4) for _ in range(cols)] for _ in range(rows)]
            if any(not any(col) for col in zip(*A)):
                continue
            w = positive_witness(A)
            assert (w is not None) == fourier_motzkin_positive(A), A
            assert w is None or is_witness(w, A)
            answers.append(w is not None)
        assert 30 < sum(answers) < 290

    # the fifth matrix of a 3 x 8 ... 7 x 16 ladder, then a d x 2d ladder for
    # d = 2..10; the elimination ran past 10 s on the first and on 6 x 12
    LADDERS = [(3, [(d, 2 * d + 2) for d in range(3, 8)], 4, [True]),
               (31, [(d, 2 * d) for d in range(2, 11)], 0,
                [True, False] + [True] * 7)]

    @pytest.mark.parametrize("seed, shapes, skip, answers", LADDERS,
                             ids=["7x16", "dx2d"])
    def test_ladder_decides_within_a_second(self, seed, shapes, skip, answers):
        got = []
        for A in list(column_ladder(seed, shapes))[skip:]:
            start = time.perf_counter()
            w = positive_witness(A)
            assert time.perf_counter() - start < 1.0, (len(A), len(A[0]))
            assert w is None or is_witness(w, A)
            if len(A) <= 4:
                assert (w is not None) == fourier_motzkin_positive(A)
            got.append(w is not None)
        assert got == answers


class TestFibers:
    def test_eight(self):
        assert fibers([[3, 4, 5]], [8]) == [(0, 2, 0), (1, 0, 1)]

    def test_forced_last_count(self):
        # the last count is read off the remainder, not searched for
        assert fibers([[1]], [10**14]) == [(10**14,)]

    def test_zero(self):
        assert fibers([[3, 4, 5]], [0]) == [(0, 0, 0)]

    def test_empty(self):
        assert fibers([[3, 4, 5]], [1]) == []

    def test_not_positive_rejected(self):
        with pytest.raises(NotPositiveError):
            fibers([[1, -1]], [0])

    def test_complete_enumeration(self):
        r = rng(1717)
        done = 0
        while done < 40:
            A = rand_matrix(r, 2, 3, 4)
            try:
                if not is_positive(A):
                    continue
            except InputError:
                continue
            target = [r.randint(0, 8) for _ in range(len(A))]
            got = fibers(A, target)
            n = len(A[0])
            brute = sorted(
                u for u in itertools.product(range(9), repeat=n)
                if all(sum(row[j] * u[j] for j in range(n)) == t
                       for row, t in zip(A, target)))
            assert got == brute
            done += 1
