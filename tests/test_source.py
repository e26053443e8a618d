"""Checks on the package source itself."""

import ast
import pathlib

import binomials

PACKAGE = pathlib.Path(binomials.__file__).parent


def test_no_assert_statements():
    # `python -O` strips assert statements; invariants must raise explicitly
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found, "assert statements in %s" % ", ".join(found)
