"""Checks on the package source itself."""

import ast
from pathlib import Path

import ordineq

PACKAGE_DIR = Path(ordineq.__file__).resolve().parent
TESTS_DIR = Path(__file__).resolve().parent
SCRIPTS_DIR = TESTS_DIR.parent / "scripts"


def test_no_assert_statements_in_the_package():
    """Invariants must raise explicitly: `python -O` strips `assert`."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the package: {found}"


def test_every_import_is_used():
    """A name a module imports is used in that module, unless the import is
    marked `# noqa: F401` (a deliberate re-export).  The package, the tests
    and the scripts are checked; the package's `__init__.py` re-exports by
    design and is not."""
    paths = [path for d in (PACKAGE_DIR, TESTS_DIR, SCRIPTS_DIR) for path in sorted(d.glob("*.py"))]
    unused = []
    for path in paths:
        if path == PACKAGE_DIR / "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source, str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.append(f"{path.parent.name}/{path.name}:{node.lineno}: {name}")
    assert not unused, f"unused imports: {unused}"
