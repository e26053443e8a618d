"""Checks on the package source itself."""

import ast
import pathlib
import subprocess
import sys
import types

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


def _unused_imports(text):
    """(line, name) of each name an import in ``text`` binds that the module
    never reads, but on imports marked ``# noqa: F401``."""
    lines, tree = text.splitlines(), ast.parse(text)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(node.lineno, bound) for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not any("# noqa: F401" in line
                        for line in lines[node.lineno - 1:node.end_lineno])
            for bound in ((alias.asname or alias.name).split(".")[0]
                          for alias in node.names)
            if bound not in read]


def test_unused_imports_are_found():
    assert _unused_imports("import os.path\nfrom a import (b,\n  c)  # noqa: F401\n"
                           "from d import e as f, g\nimport h  # noqa: F401\ng()\n") \
        == [(1, "os"), (4, "f")]


def test_every_import_is_used():
    # every name a module under src/, scripts/ or tests/ imports is read
    # there; an import kept for its side effect says so with # noqa: F401
    root = PACKAGE.parent.parent
    found = ["%s:%d %s" % (path.relative_to(root), line, name)
             for top in ("src", "scripts", "tests")
             for path in sorted((root / top).rglob("*.py"))
             for line, name in _unused_imports(path.read_text())]
    assert not found, "unused imports: %s" % ", ".join(found)


def test_only_the_engine_touches_held_bases():
    # an ideal answers from the reduced bases it holds (``_gb``) and keeps
    # its homogenization (``_hom``); only engine.py reads or writes either,
    # so every basis an ideal holds is one the engine built or proved
    held = {"_gb", "_hom"}
    found, engine_uses = [], set()
    for path, tree in _trees():
        for node in ast.walk(tree):
            name = (node.attr if isinstance(node, ast.Attribute) else
                    node.value if isinstance(node, ast.Constant) else None)
            if name in held:
                if path.name == "engine.py":
                    engine_uses.add(name)
                else:
                    found.append("%s:%d" % (path.name, node.lineno))
    assert engine_uses == held
    assert not found, "held bases touched in %s" % ", ".join(found)


def test_cli_reads_input_in_one_function():
    # ``main`` reads a command's input once and passes it on: one function
    # reads the session (a file or stdin), selects its ideals and reads the
    # degree matrix, only ``main`` calls it, and no command reads its own
    readers = {"open", ".stdin", "parse_input", ".only_ideal", ".named",
               "parse_matrix_literal"}
    users = {}
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    for func in functions:
        for node in ast.walk(func):
            name = ("." + node.attr if isinstance(node, ast.Attribute) else
                    node.id if isinstance(node, ast.Name) else None)
            users.setdefault(name, set()).add(func.name)
    reading = set().union(*(users.get(name, set()) for name in readers))
    assert len(reading) == 1, "input read in %s" % ", ".join(sorted(reading))
    reader, = reading
    assert all(name in users for name in readers)
    assert not reader.startswith("cmd_") and users[reader] == {"main"}


def _loaded(code, *args):
    """The lines ``code`` prints when run with ``args`` in a fresh
    interpreter, and the modules it adds to the bare interpreter's own."""
    code = ("import sys; before = set(sys.modules); %s; "
            "print(*sorted(set(sys.modules) - before))" % code)
    out = subprocess.run([sys.executable, "-c", code] + list(args),
                         cwd=str(PACKAGE.parent), capture_output=True, text=True,
                         check=True).stdout
    *printed, last = out.splitlines()
    return printed, set(last.split())


def _own(modules):
    return {m for m in modules if m == "binomials" or m.startswith("binomials.")}


# what `import binomials.cli` loads: the parsing layer and what it imports
BASE = {"binomials"} | {"binomials." + m for m in
                        ("cli", "parsing", "engine", "scalars", "orders", "errors")}


def test_package_import_loads_no_module():
    assert _own(_loaded("import binomials")[1]) == {"binomials"}


def test_cli_import_loads_no_heavy_modules():
    _, loaded = _loaded("import binomials.cli")
    assert _own(loaded) == BASE
    assert not loaded & {"dataclasses", "inspect", "json", "__future__"}


SESSION = ("ring X Y\nideal I\nX^2 - Y^2\nideal M\nX*Y\nideal P\nX - Y\n"
           "ideal Q\nX^2 - Y\nY^2\n")
LATTICES = {"binomials.lattices"}
CELLULAR = {"binomials.cellular"}
MESOPRIMARY = LATTICES | CELLULAR | {"binomials.mesoprimary"}
ALL = MESOPRIMARY | {"binomials.congruences"}
MATRIX = ["--matrix", "3 4 5"]

# (argv, with FILE for the session file; the modules it loads beyond BASE)
COMMAND_LOADS = [
    (["gb", "FILE", "--ideal", "I"], set()),
    (["nf", "FILE", "--ideal", "I", "--term", "X^3"], set()),
    (["eliminate", "FILE", "--ideal", "I", "--keep", "Y"], set()),
    (["colon", "FILE", "--ideal", "I", "--monomial", "Y"], set()),
    (["saturate", "FILE", "--ideal", "I", "--vars", "Y"], set()),
    (["intersect-monomial", "FILE", "--ideal", "I", "--with", "M"], set()),
    (["pure-part", "FILE", "--ideal", "M", "--lambda", "1,1"], set()),
    (["maximal", "FILE", "--ideal", "I"], ALL),
    (["cellular", "FILE", "--ideal", "I"], CELLULAR),
    (["is-cellular", "FILE", "--ideal", "I"], CELLULAR),
    (["mesoprimes", "FILE", "--ideal", "I"], MESOPRIMARY),
    (["is-mesoprimary", "FILE", "--ideal", "I"], MESOPRIMARY),
    (["is-mesoprime", "FILE", "--ideal", "I"], MESOPRIMARY),
    (["is-prime", "FILE", "--ideal", "P"], MESOPRIMARY),
    (["radical", "FILE", "--ideal", "I"], MESOPRIMARY),
    (["meso-primary-decomp", "FILE", "--ideal", "I"], MESOPRIMARY),
    (["lattice-decomp", "FILE", "--ideal", "I"], LATTICES),
    (["toric"] + MATRIX, LATTICES),
    (["is-positive"] + MATRIX, LATTICES),
    (["fibers", "--target", "12"] + MATRIX, LATTICES),
    (["snf"] + MATRIX, LATTICES),
    (["congruence", "classify", "FILE", "--ideal", "I"], ALL),
    (["congruence", "related", "FILE", "X", "Y", "--ideal", "I"], ALL),
    (["congruence", "table", "FILE", "--ideal", "Q"], ALL),
]


def test_every_command_has_an_import_case():
    from binomials.cli import NAMES
    assert {argv[0] for argv, _ in COMMAND_LOADS} == set(NAMES)


def _case_id(argv):
    return " ".join(argv[:2] if argv[0] == "congruence" else argv[:1])


@pytest.mark.parametrize("argv, extra", COMMAND_LOADS,
                         ids=[_case_id(a) for a, _ in COMMAND_LOADS])
def test_command_loads_only_its_modules(tmp_path, argv, extra):
    # each command loads the parsing layer and the algebra it runs, and
    # never the oracle; the set is exact, so a new import shows here
    session = tmp_path / "session.txt"
    session.write_text(SESSION)
    argv = [str(session) if a == "FILE" else a for a in argv]
    printed, loaded = _loaded("from binomials.cli import main; "
                              "print('exit', main(sys.argv[1:]))", *argv)
    assert printed[-1] == "exit 0"
    assert _own(loaded) == BASE | extra


# AST nodes each command compiles from source: ast.walk over each module in
# its set above, summed.  Exact and machine-free; a change that moves one
# names the move in CHANGES.md
NODES = {"gb": 12251, "nf": 12251, "eliminate": 12251, "colon": 12251,
         "saturate": 12251, "intersect-monomial": 12251, "pure-part": 12251,
         "cellular": 12989, "is-cellular": 12989,
         "mesoprimes": 18158, "is-mesoprimary": 18158, "is-mesoprime": 18158,
         "is-prime": 18158, "radical": 18158, "meso-primary-decomp": 18158,
         "lattice-decomp": 16471, "toric": 16471, "is-positive": 16471,
         "fibers": 16471, "snf": 16471,
         "maximal": 19615, "congruence classify": 19615,
         "congruence related": 19615, "congruence table": 19615}


def _nodes(module):
    name = "__init__" if module == "binomials" else module.rpartition(".")[2]
    return sum(1 for _ in ast.walk(ast.parse((PACKAGE / (name + ".py")).read_text())))


def test_compiled_nodes_per_command():
    nodes = {m: _nodes(m) for m in BASE | ALL}
    now = {_case_id(argv): sum(nodes[m] for m in BASE | extra)
           for argv, extra in COMMAND_LOADS}
    assert now.keys() == NODES.keys()
    # one line per moved command, so that a failure lists every one in full
    moved = ["%s: %d -> %d (%+d)" % (name, NODES[name], now[name], now[name] - NODES[name])
             for name in NODES if now[name] != NODES[name]]
    assert not moved, "NODES moved:\n" + "\n".join(moved)


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


def test_decomposition_layers_do_not_eliminate():
    # a delta part's character is read off the generators of a cellular
    # ideal (mesoprimary.delta_character); no elimination basis is needed
    for module in ("cellular", "mesoprimary", "congruences"):
        found = _import_lines(module, "eliminate") + _import_lines(module, "elim")
        assert not found, "%s.py imports an elimination at lines %s" % (module, found)


def test_congruences_does_not_import_parsing():
    # rendering a quotient table belongs to the printing layer, parsing.py,
    # which reads congruences; the algebra does not read the printer
    found = _import_lines("congruences", "parsing")
    assert not found, "congruences.py imports parsing at lines %s" % found


# the package's exports: 73 names from its modules and the 9 modules
EXPORTS = [
    "Binomial", "BinomialIdeal", "CellularComponent", "Congruence", "Lattice",
    "Mesoprime", "MonomialOrder", "NIL", "PartialCharacter", "QuotientTable",
    "ReducedGB", "Scalar", "SmithForm", "Term", "as_cellular",
    "associated_mesoprimes", "binomial", "cancellative_intersect", "cellular",
    "cellular_component", "cellular_decompose", "cellular_radical", "character_of",
    "class_id", "classify_congruence", "classify_element", "colon", "colon_monomial",
    "congruence", "congruences", "elim", "eliminate", "engine", "errors",
    "extend_character", "fibers", "grevlex", "hnf", "ideal", "ideal_contains",
    "ideal_equals", "ideal_member", "ideal_sum", "intersect", "intersect_monomial",
    "intersection_related", "is_cellular", "is_lattice_ideal", "is_mesoprimary",
    "is_mesoprime", "is_positive", "is_prime", "is_saturated", "kernel_basis",
    "lattice_ideal", "lattice_intersect", "lattice_primary_decomposition",
    "lattices", "lex", "maximal_ideal", "mesoprimary",
    "mesoprimary_primary_decomposition", "mesoprime", "monomial", "normal_form",
    "orders", "parsing", "project_ideal", "prune", "pure_part", "quotient_index",
    "quotient_table", "rees_ideal", "related", "saturate_vars", "saturation",
    "saturations", "scalars", "smith_normal_form", "table_json", "table_text",
    "toric_ideal",
]


def test_dir_lists_every_export_and_loads_no_module():
    (listed,), loaded = _loaded("import binomials; print(*dir(binomials))")
    assert set(EXPORTS) <= set(listed.split())
    assert _own(loaded) == {"binomials"}


def test_package_exports_are_pinned():
    assert len(EXPORTS) == 82
    assert sorted(binomials.__all__) == EXPORTS


def test_every_export_resolves_to_its_home_object():
    for name in binomials.__all__:
        value = getattr(binomials, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules["binomials." + name]
        else:
            assert getattr(sys.modules[value.__module__], name) is value, name
    assert binomials.NIL is binomials.congruences.NIL is binomials.orders.NIL


def test_star_import_binds_every_export():
    namespace = {}
    exec("from binomials import *", namespace)
    assert set(EXPORTS) <= set(namespace)
    assert all(namespace[name] is getattr(binomials, name) for name in EXPORTS)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        binomials.no_such_name
    assert not hasattr(binomials, "cmd_gb")
    with pytest.raises(ImportError):
        exec("from binomials import no_such_name", {})


# calls that end the process early or change the collector for the whole
# process; the process entry `cli.run` alone freezes the heap on the way out
PROCESS_WIDE = {("os", "_exit"), ("gc", "disable"), ("gc", "freeze")}


def _process_wide_uses():
    """(file, enclosing function, name) of every use or import of a
    process-wide call."""
    found = []

    def visit(node, path, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = "%s.%s" % (where, node.name) if where else node.name
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and (node.value.id, node.attr) in PROCESS_WIDE):
            found.append((path.name, where, "%s.%s" % (node.value.id, node.attr)))
        if isinstance(node, ast.ImportFrom):
            found.extend((path.name, where, "%s.%s" % (node.module, alias.name))
                         for alias in node.names if (node.module, alias.name) in PROCESS_WIDE)
        for child in ast.iter_child_nodes(node):
            visit(child, path, where)

    for path, tree in _trees():
        visit(tree, path, None)
    return found


def test_only_the_process_entry_freezes_the_heap():
    # os._exit would skip atexit handlers and buffered output; gc.disable
    # saves nothing, since shutdown collects explicitly; a freeze anywhere
    # but on the way out of a process would stop collection in the tests
    assert _process_wide_uses() == [("cli.py", "run", "gc.freeze")]


def test_every_process_entry_is_run():
    tomllib = pytest.importorskip("tomllib")
    with open(PACKAGE.parent.parent / "pyproject.toml", "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts == {"binomials": "binomials.cli:run"}
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    blocks = [node.body for node in tree.body if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [[ast.unparse(statement) for statement in body] for body in blocks] == \
        [["sys.exit(run())"]]
