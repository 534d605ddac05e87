"""Source checks that no test of behaviour would catch."""
import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "paragas").glob("*.py"))
PYPROJECT = ROOT / "pyproject.toml"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_code_has_no_assert(path):
    # `python -O` strips assert statements, so a check written as one
    # vanishes; the library raises typed errors instead.
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert not found, f"{path.name}: assert on lines {found}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_code_imports_only_the_stdlib_and_itself(path):
    # The package declares no dependencies, so it may import nothing that
    # a bare Python lacks, whatever else is installed where it is tested.
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names]
    names += [node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0]
    found = sorted({name for name in names
                    if name.partition(".")[0] not in
                    sys.stdlib_module_names | {"paragas"}})
    assert not found, f"{path.name} imports {found}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "core.py"],
                         ids=lambda p: p.name)
def test_only_core_turns_rationals_into_integers(path):
    # core.over_lcm is the one place that puts rationals over the lcm of
    # their denominators; a second copy of that rule could drift from it.
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and node.attr in ("as_integer_ratio", "lcm")
             or isinstance(node, ast.ImportFrom)
             and any(alias.name == "lcm" for alias in node.names)]
    assert not found, f"{path.name}: as_integer_ratio or lcm on lines {found}"


def test_the_cli_parses_no_json_itself():
    # core reads every JSON format; the CLI hands it the text it read, so a
    # second reader of a format (say, the weights file) could not drift.
    path = ROOT / "src" / "paragas" / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found = [node.lineno for node in ast.walk(tree)
             if "load_json" in (getattr(node, "id", None),
                                getattr(node, "attr", None))
             or isinstance(node, ast.Attribute)
             and node.attr in ("load", "loads")
             and getattr(node.value, "id", None) == "json"
             or isinstance(node, ast.ImportFrom)
             and any(alias.name in ("load_json", "load", "loads")
                     for alias in node.names)]
    assert not found, f"cli.py: a JSON parser on lines {found}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_code_does_not_resolve_type_hints(path):
    # typing.get_type_hints resolves annotations through sys.modules; once
    # the package is imported again (the benchmark does so between its
    # set-ups), a module already running would get the new import's types.
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found = [node.lineno for node in ast.walk(tree)
             if "get_type_hints" in (getattr(node, "id", None),
                                     getattr(node, "attr", None))
             or isinstance(node, ast.ImportFrom)
             and any(alias.name == "get_type_hints" for alias in node.names)]
    assert not found, f"{path.name}: get_type_hints on lines {found}"


def test_the_package_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []


def test_only_check_property_builds_a_check_outcome():
    # A check returns the two sides of its conclusion; check_property alone
    # compares them and names the verdict, so no other code builds one.
    inside, outside = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        owner = {id(node): f"{path.name}:{func.name}"
                 for func in ast.walk(tree)
                 if isinstance(func, ast.FunctionDef)
                 for node in ast.walk(func)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "CheckOutcome" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                where = owner.get(id(node), path.name)
                (inside if where == "properties.py:check_property"
                 else outside).append(f"{where} line {node.lineno}")
    assert not outside, f"CheckOutcome built in {outside}"
    assert inside, "check_property builds no CheckOutcome"
