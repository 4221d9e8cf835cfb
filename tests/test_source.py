"""Checks on the package source itself."""

import ast
from pathlib import Path

import ordineq

PACKAGE_DIR = Path(ordineq.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    """Invariants must raise explicitly: `python -O` strips `assert`."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the package: {found}"
