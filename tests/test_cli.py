import argparse
import gc
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from binomials.cli import NAMES, main
from golden import DATA, FILE, SESSIONS

UM = """ring X Y
ideal I
X^2 - 1
X*Y - Y
Y^2
"""

CELLULAR = """ring X Y Z
ideal I
X^4*Y^2 - Z^6
X^3*Y^2 - Z^5
X^2 - Y*Z
"""

NILQ = """ring X Y
ideal I
X - Y
Y^2
"""


@pytest.fixture
def session_file(tmp_path):
    def write(text):
        path = tmp_path / "session.txt"
        path.write_text(text)
        return str(path)
    return write


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class PipedStdin:
    """A stdin that is not a terminal: each read returns ``text`` and is counted."""

    def __init__(self, text):
        self.text, self.reads = text, 0

    def isatty(self):
        return False

    def read(self, *args):
        self.reads += 1
        return self.text


class TestBasics:
    def test_gb(self, capsys, session_file):
        code, out, err = run(capsys, ["gb", session_file(UM)])
        assert code == 0
        assert out.splitlines() == ["X^2 - 1", "X*Y - Y", "Y^2"]

    def test_gb_json(self, capsys, session_file):
        code, out, _ = run(capsys, ["gb", "--json", session_file(UM)])
        payload = json.loads(out)
        assert payload["ring"] == ["X", "Y"]
        assert len(payload["generators"]) == 3

    def test_gb_lex_order(self, capsys, session_file):
        code, out, _ = run(capsys, ["gb", "--order", "lex(Y,X)",
                                    session_file(UM)])
        assert code == 0

    def test_nf(self, capsys, session_file):
        code, out, _ = run(capsys, ["nf", "--term", "X*Y^3",
                                    session_file(UM)])
        assert code == 0 and out.strip() == "0"

    def test_eliminate(self, capsys, session_file):
        text = """ring T X Y Z
ideal I
X - T^3
Y - T^4
Z - T^5
"""
        code, out, _ = run(capsys, ["eliminate", "--keep", "X,Y,Z",
                                    session_file(text)])
        assert code == 0
        assert out.splitlines() == ["X^3 - Y*Z", "X^2*Y - Z^2", "Y^2 - X*Z"]

    def test_colon_and_saturate(self, capsys, session_file):
        code, out, _ = run(capsys, ["colon", "--monomial", "Y",
                                    session_file(UM)])
        assert code == 0
        code, out, _ = run(capsys, ["saturate", "--vars", "Y",
                                    session_file(UM)])
        assert code == 0 and out.strip() == "1"

    def test_pure_part_oracle(self, capsys, session_file):
        code, out, _ = run(capsys, ["pure-part", "--lambda", "1,1", "--oracle",
                                    session_file(NILQ)])
        assert code == 0
        assert "oracle: verified" in out
        assert "Y^3 - Y^2" in out

    def test_maximal(self, capsys, session_file):
        text = """ring X Y
ideal I
X - Y
Y^3 - Y^2
"""
        code, out, _ = run(capsys, ["maximal", "--bound", "4",
                                    session_file(text)])
        assert code == 0
        assert "Y^2" in out.splitlines()
        assert "complete: unknown" in out


@pytest.mark.parametrize("argv", [
    ["nf", "FILE", "--term", "+X"],
    ["colon", "FILE", "--monomial", "+X"],
    ["pure-part", "FILE", "--lambda", "+1,1"],
    ["congruence", "related", "FILE", "+X", "Y"]], ids=lambda argv: argv[0])
def test_leading_plus_in_a_term_argument(capsys, session_file, argv):
    # a term argument reads a leading + as a session file does
    path = session_file(NILQ)
    signed = [path if a == "FILE" else a for a in argv]
    plain = [a[1:] if a.startswith("+") else a for a in signed]
    expected = run(capsys, plain)
    assert expected[0] == 0 and expected[1]
    assert run(capsys, signed) == expected


class TestDecompositions:
    def test_cellular_oracle(self, capsys, session_file):
        code, out, _ = run(capsys, ["cellular", "--oracle",
                                    session_file(CELLULAR)])
        assert code == 0
        assert out.count("component") == 3
        assert "oracle: verified" in out

    def test_cellular_json(self, capsys, session_file):
        code, out, _ = run(capsys, ["cellular", "--json",
                                    session_file(CELLULAR)])
        payload = json.loads(out)
        assert len(payload["components"]) == 3

    def test_mesoprimes(self, capsys, session_file):
        code, out, _ = run(capsys, ["mesoprimes", session_file(UM)])
        assert code == 0
        assert "X - 1" in out and "X^2 - 1" in out

    def test_lattice_decomp(self, capsys, session_file):
        text = "ring X Y\nideal I\nX^2 - Y^2\n"
        code, out, _ = run(capsys, ["lattice-decomp", "--oracle",
                                    session_file(text)])
        assert code == 0
        assert "X - Y" in out and "X + Y" in out

    @pytest.mark.parametrize("argv", [["gb"], ["colon", "--monomial", "Y"],
                                      ["cellular"]])
    def test_oracle_mismatch_refuses(self, capsys, session_file, monkeypatch, argv):
        monkeypatch.setattr("binomials.oracle.ideal_equal", lambda f, g: False)
        code, out, err = run(capsys, argv + ["--oracle", session_file(UM)])
        assert code == 1
        assert out.endswith("oracle: MISMATCH \n")
        assert err == "refused: oracle cross-check failed \n"

    def test_meso_primary_decomp(self, capsys, session_file):
        text = "ring X Y\nideal I\nX^2 - 1\nY^2\n"
        code, out, _ = run(capsys, ["meso-primary-decomp", "--oracle",
                                    session_file(text)])
        assert code == 0
        assert "X - 1" in out and "X + 1" in out


class TestPredicatesAndExitCodes:
    def test_is_mesoprimary_refusal(self, capsys, session_file):
        code, out, err = run(capsys, ["is-mesoprimary", session_file(UM)])
        assert code == 1
        assert "witness Y" in err

    def test_is_cellular(self, capsys, session_file):
        code, out, _ = run(capsys, ["is-cellular", session_file(UM)])
        assert code == 0 and "delta = {X}" in out

    def test_is_prime(self, capsys, session_file):
        text = "ring X Y\nideal I\nX^2 - Y^2\n"
        code, _, err = run(capsys, ["is-prime", session_file(text)])
        assert code == 1 and "not prime" in err

    def test_parse_error_is_exit_2(self, capsys, session_file):
        code, _, err = run(capsys, ["gb", session_file("ring X\nideal I\nX - Y\n")])
        assert code == 2
        assert "unknown variable" in err

    def test_colon_by_binomial_refused(self, capsys, session_file):
        text = "ring X\nideal I\nX^3 - 1\n"
        code, _, err = run(capsys, ["colon", "--monomial", "X - 1",
                                    session_file(text)])
        assert code == 1
        assert "non-binomial" in err

    @pytest.mark.parametrize("term, code, out, err", [
        ("X", 0, "X - 1\n", ""),
        ("2*X", 2, "", "error: colon expects monomials with coefficient 1, got '2*X'\n"),
        ("1/2*X", 2, "", "error: colon expects monomials with coefficient 1, got '1/2*X'\n"),
        ("X + X", 2, "", "error: expected a single term\n"),
        ("X - 1", 1, "", "refused: colon by a binomial may have a non-binomial "
                         "result; only monomial divisors are supported\n")])
    def test_colon_monomial_argument(self, capsys, session_file, term, code, out, err):
        # a coefficient is refused, not dropped: 2*X is not read as X
        text = "ring X\nideal I\nX^2 - X\n"
        got = run(capsys, ["colon", "--monomial", term, session_file(text)])
        assert got == (code, out, err)

    def test_nf_with_coefficient(self, capsys, session_file):
        code, out, _ = run(capsys, ["nf", "--term", "2*X^3",
                                    session_file(UM)])
        assert code == 0 and out.strip() == "2*X"

    def test_large_prime_coefficient(self, capsys, session_file):
        text = "ring X Y\nideal I\nX - 999999999999999989*Y\n"
        start = time.perf_counter()
        code, out, _ = run(capsys, ["gb", session_file(text)])
        assert time.perf_counter() - start < 2
        assert code == 0 and out == "X - 999999999999999989*Y\n"

    def test_unfactorable_coefficient_is_exit_2(self, capsys, session_file):
        # two 20-digit prime factors, out of Pollard rho's reach
        text = "ring X Y\nideal I\nX - %d*Y\n" % ((2 ** 64 - 59) * (2 ** 64 - 83))
        code, out, err = run(capsys, ["gb", session_file(text)])
        assert code == 2 and out == ""
        assert err.startswith("error: cannot split the coefficient factor")

    def test_missing_file_is_exit_2(self, capsys):
        code, _, err = run(capsys, ["gb", "/nonexistent/input.txt"])
        assert code == 2

    def test_undecodable_file_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe ring")
        code, out, err = run(capsys, ["gb", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("error: input is not text: ") and err.count("\n") == 1

    @pytest.mark.parametrize("file", [[], ["-"]])
    def test_undecodable_stdin_is_exit_2(self, capsys, monkeypatch, file):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe ring"), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, ["gb"] + file)
        assert code == 2 and out == ""
        assert err.startswith("error: input is not text: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, text, where", [
        (["gb"], "ring X Y\nideal I\nX - 2^(1/0)*Y\n", "line 3: "),
        (["nf", "--term", "2^(1/0)*X"], UM, ""),
        (["pure-part", "--lambda", "2^(1/0),1"], NILQ, "")],
        ids=["session", "nf", "pure-part"])
    def test_zero_root_degree_is_exit_2(self, capsys, session_file, argv, text, where):
        code, out, err = run(capsys, argv + [session_file(text)])
        assert code == 2 and out == ""
        assert err == "error: %sroot degree must be at least 1\n" % where

    @pytest.mark.parametrize("argv, text, where", [
        (["gb"], "ring X Y\nideal I\nX - 1/0*Y\n", "line 3: "),
        (["nf", "--term", "3/0*X"], UM, ""),
        (["pure-part", "--lambda", "1/0,1"], NILQ, "")],
        ids=["session", "nf", "pure-part"])
    def test_zero_denominator_is_exit_2(self, capsys, session_file, argv, text, where):
        code, out, err = run(capsys, argv + [session_file(text)])
        assert code == 2 and out == ""
        assert err == "error: %szero denominator\n" % where

    def test_repeated_ideal_name_is_exit_2(self, capsys, session_file):
        text = "ring X Y\nideal I\nX*Y\nmatrix A\n1 2\nideal I\nX\n"
        code, out, err = run(capsys, ["gb", session_file(text)])
        assert code == 2 and out == ""
        assert err == "error: line 6: ideal 'I' is already defined\n"

    def test_intersect_monomial_reads_stdin_once(self, capsys, monkeypatch, session_file):
        text = "ring X Y\nideal I\nX^2 - Y^2\nideal M\nX*Y\n"
        argv = ["intersect-monomial", "--ideal", "I", "--with", "M"]
        from_file = run(capsys, argv + [session_file(text)])
        stdin = PipedStdin(text)
        monkeypatch.setattr("sys.stdin", stdin)
        assert run(capsys, argv + ["-"]) == from_file
        assert from_file[0] == 0 and stdin.reads == 1

    def test_radical(self, capsys, session_file):
        code, out, _ = run(capsys, ["radical", session_file(NILQ)])
        assert code == 0
        assert out.splitlines() == ["X", "Y"]


# each matrix command with a literal matrix, and what it prints
MATRIX_COMMANDS = [
    (["toric", "--matrix", "3 4 5"], "X1^3 - X2*X3\nX1^2*X2 - X3^2\nX2^2 - X1*X3\n"),
    (["is-positive", "--matrix", "3 4 5"], "positive\n"),
    (["fibers", "--matrix", "3 4 5", "--target", "12"], "0 3 0\n1 1 1\n4 0 0\n"),
    (["snf", "--matrix", "3 4 5"], "U:\n  1\nD:\n  1 0 0\nV:\n  -1 4 1\n  1 -3 -2\n  0 0 1\n")]
MATRIX_ARGVS = [argv for argv, _ in MATRIX_COMMANDS]
MATRIX_IDS = [argv[0] for argv in MATRIX_ARGVS]


class TestMatrixCommands:
    def test_toric_inline(self, capsys):
        code, out, _ = run(capsys, ["toric", "--matrix", "3 4 5",
                                    "--vars", "X,Y,Z"])
        assert code == 0
        assert out.splitlines() == ["X^3 - Y*Z", "X^2*Y - Z^2", "Y^2 - X*Z"]

    @pytest.mark.parametrize("argv, out", MATRIX_COMMANDS, ids=MATRIX_IDS)
    def test_literal_matrix_never_reads_stdin(self, capsys, monkeypatch, argv, out):
        stdin = PipedStdin("")  # a pipe that never closes would block a read
        monkeypatch.setattr("sys.stdin", stdin)
        assert run(capsys, argv) == (0, out, "")
        assert stdin.reads == 0

    def test_toric_names_from_file(self, capsys, session_file):
        code, out, _ = run(capsys, ["toric", "--matrix", "3 4 5",
                                    session_file("ring A B C\n")])
        assert code == 0 and "B^2 - A*C" in out

    def test_toric_named_matrix(self, capsys, session_file):
        text = "ring X Y Z\nmatrix A\n3 4 5\n"
        code, out, _ = run(capsys, ["toric", "--matrix", "A",
                                    session_file(text)])
        assert code == 0 and "Y^2 - X*Z" in out

    @pytest.mark.parametrize("argv", MATRIX_ARGVS + [["toric", "--matrix", "3 4 5",
                                                      "--vars", "X,Y,Z"]],
                             ids=MATRIX_IDS + ["toric-vars"])
    def test_literal_matrix_missing_file_is_exit_2(self, capsys, tmp_path, argv):
        missing = str(tmp_path / "missing.txt")
        code, out, err = run(capsys, argv + [missing])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "missing.txt" in err

    @pytest.mark.parametrize("argv", MATRIX_ARGVS, ids=MATRIX_IDS)
    def test_literal_matrix_malformed_file_is_exit_2(self, capsys, session_file, argv):
        code, out, err = run(capsys, argv + [session_file("ring X Y\nideal I\nX ++ Y\n")])
        assert code == 2 and out == ""
        assert err == "error: line 3: misplaced operator '+'\n"

    def test_is_positive(self, capsys):
        code, out, _ = run(capsys, ["is-positive", "--matrix", "3 4 5"])
        assert code == 0 and out.strip() == "positive"

    def test_not_positive_exit_code(self, capsys):
        code, out, _ = run(capsys, ["is-positive", "--matrix", "1 -1"])
        assert code == 1 and out.strip() == "not positive"

    def test_fibers(self, capsys):
        code, out, _ = run(capsys, ["fibers", "--matrix", "3 4 5",
                                    "--target", "8"])
        assert code == 0
        assert out.splitlines() == ["0 2 0", "1 0 1"]

    def test_fibers_bad_target_entry(self, capsys):
        code, out, err = run(capsys, ["fibers", "--matrix", "3 4 5",
                                      "--target", "24 x"])
        assert code == 2 and out == ""
        assert err == "error: --target entry 'x' is not an integer\n"

    @pytest.mark.parametrize("names, bad", [("a,a,b", "distinct"),
                                            ("1,b,c", "'1'"),
                                            ("a,zeta,c", "'zeta'")])
    def test_toric_rejects_bad_variable_names(self, capsys, names, bad):
        code, out, err = run(capsys, ["toric", "--matrix", "3 4 5",
                                      "--vars", names])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and bad in err

    def test_snf(self, capsys):
        code, out, _ = run(capsys, ["snf", "--matrix", "2 -2", "--json"])
        payload = json.loads(out)
        assert payload["D"] == [[2, 0]]


class Terminal:
    """A stdin that is a terminal; reading it is a test failure."""

    def isatty(self):
        return True

    def read(self, *args):
        raise AssertionError("a terminal was read")


class TestInputRefusals:
    """Each malformed input exits 2 with its own message: the session text
    (None for no file), the arguments, and the message."""

    CASES = [
        ("ring X Y\nideal I\nX - $\n", ["gb"],
         "line 3: unexpected character '$'"),
        ("ring X Y\nideal I\nX - zeta(0,1)*Y\n", ["gb"],
         "line 3: zeta order must be positive"),
        ("ring X Y\nideal I\nX - 0^(1/2)*Y\n", ["gb"], "line 3: zero coefficient"),
        ("ring X Y\nideal I\nX* - Y\n", ["gb"], "line 3: empty term"),
        ("ring X Y\nideal I\nX - Y\n", ["colon", "--monomial", ""], "empty generator"),
        ("ring X Y\nmatrix A\n1 x\n", ["toric", "--matrix", "A"],
         "line 3: bad matrix row '1 x'"),
        (None, ["snf", "--matrix", ";"], "empty matrix"),
        ("ring X Y\nmatrix A\n", ["toric", "--matrix", "A"], "matrix 'A' has no rows"),
        ("ring X Y\nideal\nX - Y\n", ["gb"], "line 2: ideal needs a name"),
        ("ring X Y\nX - Y\n", ["gb"], "line 2: expected ring/ideal/matrix, got 'X - Y'"),
        ("ring X Y\nideal I\nX - Y\n", ["eliminate", "--keep", ","],
         "--keep must name at least one variable"),
    ]

    @pytest.mark.parametrize("text, argv, message", CASES,
                             ids=[message.partition(": ")[2] or message
                                  for _, _, message in CASES])
    def test_exit_2_with_its_message(self, capsys, session_file, text, argv, message):
        if text is not None:
            argv = argv + [session_file(text)]
        assert run(capsys, argv) == (2, "", "error: %s\n" % message)

    def test_no_file_and_a_terminal_on_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", Terminal())
        assert run(capsys, ["gb"]) == (
            2, "", "error: no input: pass a file or pipe a session on stdin\n")


EVERY_COMMAND = list(NAMES)


class TestParser:
    @pytest.mark.parametrize("argv, built", [
        (["snf", "--matrix", "1"], ["snf"]),
        (["congruence", "table", "--max", "0"], ["congruence"]),
        # the named command's parser reports an unrecognized argument, with
        # the written-out usage; the full parser reports an unknown command
        (["snf", "--matrix", "1", "--bogus"], ["snf"]),
        (["frobnicate"], EVERY_COMMAND)])
    def test_main_builds_only_the_named_subparser(self, capsys, monkeypatch, argv, built):
        names = []
        add_parser = argparse._SubParsersAction.add_parser

        def recording(self, name, **options):
            names.append(name)
            return add_parser(self, name, **options)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", recording)
        try:
            main(argv)
        except SystemExit:
            pass
        assert names == built


class TestOracleFlag:
    @pytest.mark.parametrize("argv", [["nf", "--term", "X"],
                                      ["saturate", "--vars", "Y"],
                                      ["congruence", "table"]])
    def test_rejected_where_nothing_is_checked(self, capsys, session_file, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + [session_file(UM), "--oracle"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --oracle" in capsys.readouterr().err


class TestCongruenceCommand:
    def test_table(self, capsys, session_file):
        code, out, _ = run(capsys, ["congruence", "table",
                                    session_file(NILQ), "--max", "5"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert "inf" in lines[-1]

    def test_table_budget(self, capsys, session_file):
        text = "ring X Y\nideal I\nX - Y\n"
        code, _, err = run(capsys, ["congruence", "table",
                                    session_file(text), "--max", "10"])
        assert code == 1 and "10" in err

    @pytest.mark.parametrize("command, option", [
        (["congruence", "table"], ["--max", "0"]),
        (["congruence", "table"], ["--max", "-3"]),
        (["congruence", "classify"], ["--bound", "0"]),
        (["congruence", "classify"], ["--bound", "-1"]),
        (["maximal"], ["--bound", "0"]),
        (["maximal"], ["--bound", "-1"]),
    ])
    def test_budget_below_one_is_exit_2(self, capsys, session_file, command, option):
        # a pure ideal, so classify would run the bounded nil search
        code, out, err = run(capsys, command + [session_file(CELLULAR)] + option)
        assert code == 2 and out == ""
        assert err == "error: %s must be at least 1, got %s\n" % tuple(option)

    @pytest.mark.parametrize("argv, error", [
        (["congruence", "table", "FILE", "--max", "0", "--bound", "0"],
         "--max must be at least 1, got 0"),
        (["maximal", "FILE", "--bound", "0"], "--bound must be at least 1, got 0")],
        ids=["congruence", "maximal"])
    def test_budget_is_checked_before_input(self, capsys, tmp_path, argv, error):
        missing = str(tmp_path / "missing.txt")
        argv = [missing if a == "FILE" else a for a in argv]
        assert run(capsys, argv) == (2, "", "error: %s\n" % error)

    def test_related(self, capsys, session_file):
        code, out, _ = run(capsys, ["congruence", "related",
                                    session_file(NILQ), "X", "Y"])
        assert code == 0 and out.strip() == "related"

    @pytest.mark.parametrize("u, v, expected", [("X", "X", "related"),
                                                 ("1", "X", "not related"),
                                                 ("X^2*Y", "X*Y", "related")])
    def test_related_monomials(self, capsys, session_file, u, v, expected):
        text = "ring X Y\nideal I\nX^2 - X\n"
        code, out, _ = run(capsys, ["congruence", "related", session_file(text), u, v])
        assert code == 0 and out == expected + "\n"

    @pytest.mark.parametrize("term", ["2*X", "1/2*X", "zeta(3,1)*X", "X + X"])
    def test_related_refuses_a_coefficient(self, capsys, session_file, term):
        text = "ring X Y\nideal I\nX^2 - X\n"
        code, out, err = run(capsys, ["congruence", "related", session_file(text), "X", term])
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    def test_classify(self, capsys, session_file):
        code, out, _ = run(capsys, ["congruence", "classify",
                                    session_file(NILQ)])
        assert code == 0
        assert "mesoprimary: yes" in out and "prime: no" in out


def _child_env():
    """The environment of a child interpreter that imports this checkout,
    with a terminal as wide as the golden record's."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    return dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")


def test_closed_stdout_pipe_exits_quietly(tmp_path):
    # `binomials congruence table FILE | head -c 10`: the reader leaves after
    # 10 of about 250 kB, the next write fails, and the command stops with
    # the shell's SIGPIPE status instead of an input-error message
    path = tmp_path / "session.txt"
    path.write_text("ring X Y\nideal I\nX^12\nY^12\n")
    with subprocess.Popen([sys.executable, "-m", "binomials.cli", "congruence",
                           "table", str(path), "--max", "1000"], env=_child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (141, b"")


class TestProcessEntry:
    """``python -m binomials.cli`` runs ``cli.run``, which freezes the heap
    after ``main`` so that shutdown skips collecting it; ``main`` itself
    never touches the collector."""

    # one recorded case of each status: success, refusal, input error and
    # argparse usage error
    CASES = [("um", ["gb", FILE]),
             ("paper", ["is-cellular", FILE]),
             ("um", ["eliminate", FILE, "--keep", "Q"]),
             (None, ["gb", "--bogus"])]

    @staticmethod
    def child(args, cwd, **streams):
        """A child interpreter run with ``args``, stdin closed."""
        return subprocess.run([sys.executable] + args, cwd=str(cwd), env=_child_env(),
                              stdin=subprocess.DEVNULL, **streams)

    @pytest.mark.parametrize("argv", [["gb", "SESSION"], ["is-prime", "SESSION"],
                                      ["gb", "--bogus"]])
    def test_main_leaves_the_collector_unfrozen(self, capsys, session_file, argv):
        before = gc.get_freeze_count()
        argv = [session_file(UM) if a == "SESSION" else a for a in argv]
        try:
            main(argv)
        except SystemExit:
            pass
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("session, argv", CASES, ids=["0", "1", "2-input", "2-usage"])
    def test_process_matches_the_golden_record(self, tmp_path, session, argv):
        with open(DATA) as handle:
            record = next(c for c in json.load(handle)
                          if c["session"] == session and c["argv"] == argv)
        if session is not None:
            (tmp_path / FILE).write_text(SESSIONS[session])
        proc = self.child(["-m", "binomials.cli"] + argv, tmp_path,
                          capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (record["code"], record["stdout"], record["stderr"])

    def test_process_matches_main_on_a_closed_pipe(self, capsys, monkeypatch, tmp_path):
        # stdout is a pipe whose reader is gone before the first write
        (tmp_path / FILE).write_text(SESSIONS["um"])
        argv = ["gb", str(tmp_path / FILE)]
        r, w = os.pipe()
        os.close(r)
        with open(w, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            code = main(argv)
            monkeypatch.undo()
        expected = (code, capsys.readouterr().err)
        r, w = os.pipe()
        os.close(r)
        proc = self.child(["-m", "binomials.cli"] + argv, tmp_path, stdout=w,
                          stderr=subprocess.PIPE, text=True)
        os.close(w)
        assert expected == (141, "")
        assert (proc.returncode, proc.stderr) == expected

    @pytest.mark.parametrize("argv, code", [(["snf", "--matrix", "2"], 0),
                                            (["gb", "--bogus"], 2)])
    def test_run_keeps_atexit_handlers(self, capsys, tmp_path, argv, code):
        # a handler registered before run() still fires, and sees the heap
        # frozen; an os._exit shortcut would skip it
        try:
            main(argv)
        except SystemExit:
            pass
        expected = capsys.readouterr()
        script = ("import atexit, gc, sys\n"
                  "from binomials.cli import run\n"
                  "atexit.register(lambda: print('atexit: frozen', gc.get_freeze_count() > 0,"
                  " file=sys.stderr))\n"
                  "sys.exit(run())\n")
        proc = self.child(["-c", script] + argv, tmp_path, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (code, expected.out, expected.err + "atexit: frozen True\n")


class TestDeterminism:
    def test_byte_identical_runs(self, capsys, session_file):
        path = session_file(CELLULAR)
        _, out1, _ = run(capsys, ["cellular", path])
        _, out2, _ = run(capsys, ["cellular", path])
        assert out1 == out2

    def test_round_trip_through_cli_format(self, capsys, session_file):
        code, out, _ = run(capsys, ["gb", session_file(UM)])
        text = "ring X Y\nideal I\n" + out
        code2, out2, _ = run(capsys, ["gb", session_file(text)])
        assert code2 == 0 and out2 == out
