"""Leftover, ownership and layering checks on the package source, with the
standard library alone.

Every module-level import of a module is used in it, and every private
module-level function, class or constant is referenced somewhere in the
package: a deletion tends to leave such names behind.  The surface kinds,
P2 models and congruence kinds are spelled in gkm_datum alone, which owns
their tables.  Importing a module loads only the layers below it, and the
package root loads none; each command of the command line loads only the
layers it runs, and none loads `dataclasses` (with `inspect`, `ast` and
more, 9-11 ms of a cold start).  Indented JSON comes from one writer,
common.dumps.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gkmcobordism"
MODULES = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}

# The names of the surface kinds, P2 models and congruence kinds, and the
# module that owns them.
KIND_VOCABULARY = {"P2", "F0", "Fn", "V0V1", "V2", "edge", "p2", "f0", "fn"}
KIND_OWNER = "gkm_datum.py"


def _used_names(tree) -> set:
    """Names a module reads: loaded names and attribute names."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _imported(tree):
    """(bound name, line) of each module-level import."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def _private_definitions(tree):
    """(name, line) of each private module-level function, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_import_is_used(module):
    tree = MODULES[module]
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{module} imports but never uses: {', '.join(unused)}"


def test_every_private_definition_is_referenced():
    references = set()
    for tree in MODULES.values():
        references |= _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                references.update(alias.name for alias in node.names)
    unreferenced = [
        f"{module}:{line} {name}"
        for module, tree in MODULES.items()
        for name, line in _private_definitions(tree)
        if name not in references
    ]
    assert not unreferenced, f"private names nothing refers to: {', '.join(unreferenced)}"


def test_no_module_imports_dataclasses():
    importing = [
        f"{module}:{node.lineno}"
        for module, tree in MODULES.items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
        or (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names))
    ]
    assert not importing, f"dataclasses imported at {', '.join(importing)}"


def test_indented_json_has_one_writer():
    """json.dumps with an indent runs the pure-Python encoder; common.dumps
    writes the same bytes."""
    calls = [
        f"{module}:{node.lineno}"
        for module, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("dump", "dumps")
        and any(k.arg == "indent" for k in node.keywords)
    ]
    assert not calls, f"json encoder called with an indent at {', '.join(calls)}"


def _docstrings(tree) -> set:
    """The ids of the docstring constants of a module and its classes and functions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                out.add(id(first.value))
    return out


def test_surface_kinds_are_spelled_in_their_owner_only():
    spelled = []
    for module, tree in MODULES.items():
        if module == KIND_OWNER:
            continue
        docstrings = _docstrings(tree)
        spelled += [
            f"{module}:{node.lineno} {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and node.value in KIND_VOCABULARY
            and id(node) not in docstrings
        ]
    assert not spelled, f"surface kinds spelled outside {KIND_OWNER}: {', '.join(spelled)}"


# The package modules each module loads when it is imported alone, in the
# layer order common; coeff_series, root_flag; fgl; torus_ring; gkm_datum;
# gkm_model, multiplicities; horospherical; cli.
_RING = ("common", "coeff_series", "fgl", "torus_ring")
_BUILDER = ("common", "gkm_datum", "root_flag", "horospherical")
IMPORT_CLOSURES = {
    "gkmcobordism": (),
    "gkmcobordism.common": ("common",),
    "gkmcobordism.coeff_series": ("common", "coeff_series"),
    "gkmcobordism.fgl": ("common", "coeff_series", "fgl"),
    "gkmcobordism.root_flag": ("common", "root_flag"),
    "gkmcobordism.torus_ring": _RING,
    "gkmcobordism.gkm_datum": ("common", "gkm_datum"),
    "gkmcobordism.gkm_model": (*_RING, "gkm_datum", "gkm_model"),
    "gkmcobordism.multiplicities": (*_RING, "multiplicities"),
    "gkmcobordism.horospherical": _BUILDER,
    "gkmcobordism.cli": ("common", "cli"),
}


@pytest.mark.parametrize("module", sorted(IMPORT_CLOSURES))
def test_importing_a_module_loads_only_the_layers_it_uses(module):
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import {module}; "
        "print(*sorted(m for m in sys.modules if m.startswith('gkmcobordism.')))"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert run.stdout.split() == sorted(f"gkmcobordism.{m}" for m in IMPORT_CLOSURES[module])


# The package modules each command loads, run once in a fresh process.
# {datum} is the IG(2,5) datum, {tuple} a constant tuple on it and {data}
# the directory of bundled weight files.
_COMMAND = ("common", "coeff_series", "fgl", "cli")
_MULT = (*_COMMAND, "torus_ring", "multiplicities")
_GKM = (*_COMMAND, "torus_ring", "gkm_datum", "gkm_model")
COMMAND_CLOSURES = {
    ("fgl", "a", "1", "1"): _COMMAND,
    ("gkm", "congruences", "{datum}"): ("common", "gkm_datum", "cli"),
    ("gkm", "check", "{datum}", "{tuple}", "--order", "4"): _GKM,
    ("flag", "curves", "--type", "G2"): ("common", "root_flag", "cli"),
    ("horo", "scan", "--family", "5"): (*_BUILDER, "cli"),
    ("horo", "build", "--family", "5"): (*_BUILDER, "cli"),
    ("mult", "point-class", "{data}/ig25_tangent.json", "--point", "x45", "--order", "4"): _MULT,
    ("mult", "fiber-sum", "{data}/ig25_x4tilde.json", "--order", "4"): _MULT,
    (
        "mult",
        "fiber-sum",
        "{data}/ig25_x4tilde.json",
        "--ambient",
        "{data}/ig25_tangent.json",
        "--point",
        "x12",
        "--order",
        "6",
        "--format",
        "json",
    ): _MULT,
}

# Runs main(argv) with its stdout dropped, then prints the exit code, whether
# dataclasses is loaded and the package modules loaded.
_RUN_COMMAND = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from gkmcobordism.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[2:])
print(code, "dataclasses" in sys.modules)
print(*sorted(m for m in sys.modules if m.startswith("gkmcobordism.")))
"""


def _run_command(argv) -> tuple:
    """(exit code, package modules loaded, whether dataclasses is loaded) of
    main(argv) in a fresh process."""
    run = subprocess.run(
        [sys.executable, "-c", _RUN_COMMAND, str(PACKAGE.parent), *argv],
        capture_output=True,
        text=True,
        check=True,
    )
    status, modules = run.stdout.splitlines()
    code, dataclasses = status.split()
    return int(code), modules.split(), dataclasses == "True"


@pytest.fixture(scope="module")
def command_inputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("commands")
    datum = work / "ig25.json"
    code, _, _ = _run_command(
        ["horo", "build", "--family", "3", "--n", "2", "--m", "2", "-o", str(datum)]
    )
    assert code == 0
    one = {"vars": 2, "order": 4, "terms": [{"t_exponents": [0, 0], "m_exponents": [], "coeff": "1"}]}
    tuple_path = work / "tuple.json"
    tuple_path.write_text(json.dumps({p: one for p in json.loads(datum.read_text())["points"]}))
    return {"datum": datum, "tuple": tuple_path, "data": PACKAGE / "data"}


def _command_id(argv) -> str:
    return "-".join(argv[:2]) + ("-ambient" if "--ambient" in argv else "")


@pytest.mark.parametrize("argv", sorted(COMMAND_CLOSURES), ids=_command_id)
def test_each_command_loads_only_the_layers_it_runs(argv, command_inputs):
    code, modules, dataclasses = _run_command([a.format(**command_inputs) for a in argv])
    assert code == 0
    assert modules == sorted(f"gkmcobordism.{m}" for m in COMMAND_CLOSURES[argv])
    assert not dataclasses
