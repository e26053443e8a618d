"""Checks on the package source itself."""

import ast
import pathlib
import subprocess
import sys

import pytest

import binomials

PACKAGE = pathlib.Path(binomials.__file__).parent


def _trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path, ast.parse(path.read_text(), str(path))


def test_no_assert_statements():
    # `python -O` strips assert statements; invariants must raise explicitly
    found = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found, "assert statements in %s" % ", ".join(found)


def test_no_dataclasses_import():
    # importing dataclasses, and building each class with it, costs every
    # CLI process tens of milliseconds at start; records are namedtuples
    found = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found, "dataclasses imported in %s" % ", ".join(found)


def test_cli_import_loads_no_heavy_modules():
    # the modules `import binomials.cli` adds to a bare interpreter's own
    code = ("import sys; before = set(sys.modules); import binomials.cli; "
            "print(*sorted(set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-c", code], cwd=str(PACKAGE.parent),
                         capture_output=True, text=True, check=True).stdout
    loaded = set(out.split())
    assert "binomials.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "binomials.oracle", "json"}


@pytest.mark.parametrize("flags, loaded", [([], False), (["--json"], True)])
def test_cli_loads_json_only_for_json_output(flags, loaded):
    code = ("import sys; from binomials.cli import main; "
            "main(['snf', '--matrix', '1'] + %r); print('json' in sys.modules)" % flags)
    out = subprocess.run([sys.executable, "-c", code], cwd=str(PACKAGE.parent),
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == str(loaded)


def _import_lines(module, imported):
    """Lines of ``module``.py that import ``imported``, inside a function
    included."""
    tree = ast.parse((PACKAGE / ("%s.py" % module)).read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            names = [source] + ["%s.%s" % (source, alias.name) for alias in node.names]
        else:
            continue
        if any(imported in name.split(".") for name in names):
            found.append(node.lineno)
    return found


def test_engine_does_not_import_lattices():
    # lattices builds on engine; the dependency runs one way only
    found = _import_lines("engine", "lattices")
    assert not found, "engine.py imports lattices at lines %s" % found


def test_congruences_does_not_import_parsing():
    # rendering a quotient table belongs to the printing layer, parsing.py,
    # which reads congruences; the algebra does not read the printer
    found = _import_lines("congruences", "parsing")
    assert not found, "congruences.py imports parsing at lines %s" % found
