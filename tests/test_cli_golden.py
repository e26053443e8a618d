"""Golden outputs of every CLI subcommand: the cases of ``cli_golden.json``
replayed through ``golden.run_case``, one test per subcommand.

``golden.py`` holds the sessions, the cases and the harness, and imports no
pytest: ``python tests/golden.py --check`` replays the same file on any
supported interpreter, and ``python tests/golden.py`` records it again.
"""

import pytest

from binomials.cli import build_parser

from golden import DATA, load, run_case


def _by_command():
    groups = {}
    for case in load():
        groups.setdefault(case["argv"][0] if case["argv"] else "", []).append(case)
    return groups


# empty while recording; the guard test below then fails
GOLDEN = _by_command() if DATA.exists() else {}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden(command, tmp_path):
    for case in GOLDEN[command]:
        got = run_case(case["session"], case["argv"], tmp_path)
        expected = {k: case[k] for k in ("code", "stdout", "stderr")}
        assert got == expected, "binomials %s" % " ".join(case["argv"])


def test_every_subcommand_has_a_golden_case():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a.choices, dict))
    assert sorted(set(sub.choices) - set(GOLDEN)) == []
