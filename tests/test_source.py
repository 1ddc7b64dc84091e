"""Checks on the library source itself."""

import ast
from pathlib import Path

import expansive

SRC = Path(expansive.__file__).resolve().parent


def test_library_has_no_assert():
    # `python -O` strips asserts, so no check the library relies on may be one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
