import pytest

from binomials import Binomial, Scalar, ideal_equals
from binomials.errors import ParseError
from binomials.parsing import (binomial_str, ideal_text, monomial_str,
                               parse_binomial, parse_input,
                               parse_matrix_literal, parse_order,
                               parse_scalar, parse_single_term)

from gen import rand_graded_ideal, rand_ideal, rng

XY = ("X", "Y")
ONE = Scalar.one()


class TestGeneratorGrammar:
    def test_simple(self):
        b = parse_binomial("X^2 - Y*Z", ("X", "Y", "Z"))
        assert b == Binomial((2, 0, 0), (0, 1, 1), ONE)

    def test_monomial(self):
        assert parse_binomial("Y^2", XY) == Binomial((0, 2))

    def test_constant_trail(self):
        assert parse_binomial("X^2 - 1", XY) == Binomial((2, 0), (0, 0), ONE)

    def test_plus_means_negative_coefficient(self):
        assert parse_binomial("X + Y", XY) == Binomial((1, 0), (0, 1),
                                                       Scalar.minus_one())

    def test_coefficients(self):
        b = parse_binomial("2 X - 3 Y", XY)
        assert b == Binomial((1, 0), (0, 1), Scalar.from_rational(3, 2))
        b = parse_binomial("X - 2/3*Y", XY)
        assert b.coeff == Scalar.from_rational(2, 3)

    def test_zeta_literals(self):
        b = parse_binomial("X - zeta(3,1)*Y", XY)
        assert b.coeff == Scalar.zeta(3, 1)
        b = parse_binomial("X - 2*zeta(4,1)*Y", XY)
        assert b.coeff == Scalar.from_rational(2) * Scalar.zeta(4, 1)

    def test_power_literal(self):
        b = parse_binomial("X - 2^(1/2)*Y", XY)
        assert b.coeff == Scalar.from_rational(2).root(2, 0)

    @pytest.mark.parametrize("parse", [
        lambda: parse_binomial("X - 2^(1/0)*Y", XY),
        lambda: parse_single_term("2^(1/0)*X", XY),
        lambda: parse_scalar("-2^(3/0)")],
        ids=["binomial", "single-term", "scalar"])
    def test_zero_root_degree(self, parse):
        with pytest.raises(ParseError, match="root degree must be at least 1"):
            parse()

    def test_leading_sign(self):
        b = parse_binomial("-X + Y", XY)
        assert b == Binomial((1, 0), (0, 1), ONE)

    def test_leading_plus_in_a_term_or_scalar(self):
        # one sign rule for generators, single terms and scalars
        assert parse_single_term("+X", XY) == parse_single_term("X", XY) == (ONE, (1, 0))
        assert parse_single_term("-X", XY) == (Scalar.minus_one(), (1, 0))
        assert parse_scalar("+2") == parse_scalar("2") == Scalar.from_rational(2)
        assert parse_scalar("-2") == Scalar.from_rational(-2)

    @pytest.mark.parametrize("parse, message", [
        (lambda: parse_single_term("X + Y", XY), "expected a single term"),
        (lambda: parse_single_term("", XY), "expected a single term"),
        (lambda: parse_single_term("- - X", XY), "misplaced operator '-'"),
        (lambda: parse_scalar("2+"), "expected a single term"),
        (lambda: parse_scalar("X - 1"), "expected a single term"),
        (lambda: parse_scalar("-X^2"), "expected a scalar literal, found 'X\\^2'"),
        (lambda: parse_scalar("0*X"), "zero coefficient")],
        ids=["two-terms", "empty", "double-sign", "trailing-plus", "binomial-scalar",
             "variable", "first-error-in-order"])
    def test_term_errors(self, parse, message):
        # a term count is checked first, then each factor in reading order
        with pytest.raises(ParseError, match=message):
            parse()

    def test_repeated_variable(self):
        assert parse_binomial("X*X*Y", XY) == Binomial((2, 1))

    def test_three_terms_rejected(self):
        with pytest.raises(ParseError, match="two terms"):
            parse_binomial("X^2 - Y + Z", ("X", "Y", "Z"))

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="unknown variable"):
            parse_binomial("X - W", XY)

    def test_zero_coefficient(self):
        with pytest.raises(ParseError, match="zero"):
            parse_binomial("0*X - Y", XY)

    def test_cancellation_rejected(self):
        with pytest.raises(ParseError, match="zero"):
            parse_binomial("X - X", XY)

    def test_equal_exponents_leave_monomial(self):
        assert parse_binomial("X - 2*X", XY) == Binomial((1, 0))


class TestSessionGrammar:
    def test_full_session(self):
        text = """
        # a comment
        ring X Y Z
        ideal I
        X^4*Y^2 - Z^6   # inline comment
        X^3*Y^2 - Z^5
        X^2 - Y*Z
        matrix A
        3 4 5
        """
        session = parse_input(text)
        assert session.names == ("X", "Y", "Z")
        assert len(session.ideals["I"].gens) == 3
        assert session.matrices["A"] == [[3, 4, 5]]

    def test_ideal_before_ring(self):
        with pytest.raises(ParseError, match="ring"):
            parse_input("ideal I\nX - Y")

    def test_duplicate_ring(self):
        with pytest.raises(ParseError):
            parse_input("ring X\nring Y")

    @pytest.mark.parametrize("ring, message", [("X X Y", "distinct"),
                                               ("X 1Y", "'1Y'"),
                                               ("X zeta", "'zeta'"),
                                               ("X Y-1", "'Y-1'"),
                                               ("X Y\u00e9", "'Y\u00e9'")])
    def test_bad_ring_names(self, ring, message):
        with pytest.raises(ParseError, match="line 2: .*%s" % message):
            parse_input("# names\nring %s\n" % ring)

    def test_ring_names_are_ascii_identifiers(self):
        # keywords included: every such name is a token of the grammar
        session = parse_input("ring _a if B2 zeta_\nideal I\n_a^2 - if*B2\n")
        assert session.names == ("_a", "if", "B2", "zeta_")

    def test_line_number_in_error(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_input("ring X Y\nideal I\nX - Y + 1")

    @pytest.mark.parametrize("text, line, kind", [
        ("ring X Y\nideal I\nX*Y\nmatrix A\n1 2\nideal I\nX\n", 6, "ideal 'I'"),
        ("ring X\nmatrix A\n1\nmatrix A\n2\n", 4, "matrix 'A'"),
        ("ring X\nideal I\nideal I\nX\n", 3, "ideal 'I'")],
        ids=["ideal", "matrix", "empty-ideal"])
    def test_repeated_name(self, text, line, kind):
        with pytest.raises(ParseError, match="line %d: %s is already defined" % (line, kind)):
            parse_input(text)

    def test_ideal_and_matrix_may_share_a_name(self):
        session = parse_input("ring X Y\nideal A\nX - Y\nmatrix A\n1 1\n")
        assert session.matrices["A"] == [[1, 1]] and len(session.ideals["A"].gens) == 1

    def test_ragged_matrix(self):
        with pytest.raises(ParseError):
            parse_input("ring X\nmatrix A\n1 2\n3")

    def test_matrix_literal(self):
        assert parse_matrix_literal("3 4 5; 1 0 -2") == [[3, 4, 5], [1, 0, -2]]
        with pytest.raises(ParseError):
            parse_matrix_literal("1 2; 3")


class TestOrderSpec:
    def test_plain(self):
        assert parse_order("grevlex", XY).kind == "grevlex"
        assert parse_order("lex", XY).kind == "lex"

    def test_permutation(self):
        order = parse_order("lex(Y,X)", XY)
        assert order.perm == (1, 0)

    def test_bad_permutation(self):
        with pytest.raises(ParseError):
            parse_order("lex(Y)", XY)

    def test_unknown(self):
        with pytest.raises(ParseError):
            parse_order("degrevlex", XY)


class TestPrinting:
    def test_monomial_str(self):
        assert monomial_str((0, 0), XY) == "1"
        assert monomial_str((2, 1), XY) == "X^2*Y"

    def test_binomial_str(self):
        assert binomial_str(Binomial((2, 0), (0, 2), ONE), XY) == "X^2 - Y^2"
        assert binomial_str(Binomial((1, 0), (0, 1), Scalar.minus_one()),
                            XY) == "X + Y"
        assert binomial_str(Binomial((1, 0), (0, 1), Scalar.from_rational(-2)),
                            XY) == "X + 2*Y"
        assert binomial_str(Binomial((0, 2)), XY) == "Y^2"

    def test_print_parse_round_trip(self):
        # coefficients with roots of unity, then with prime powers whose
        # fractional exponents may be negative, printed as 2^(-1/2)
        r = rng(4040)
        ideals = [rand_ideal(r, rational=False) for _ in range(150)]
        ideals += [rand_graded_ideal(r, rational=False) for _ in range(150)]
        signed = 0
        for I in ideals:
            lines = ideal_text(I)
            signed += any("^(-" in line for line in lines)
            reparsed = [parse_binomial(line, I.names) for line in lines]
            from binomials import BinomialIdeal
            J = BinomialIdeal(I.names, tuple(reparsed))
            assert ideal_equals(I, J)
        assert signed
