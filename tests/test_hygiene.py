"""Source checks that no test of behaviour would catch."""
import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "paragas")
                 .glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_code_has_no_assert(path):
    # `python -O` strips assert statements, so a check written as one
    # vanishes; the library raises typed errors instead.
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert not found, f"{path.name}: assert on lines {found}"
