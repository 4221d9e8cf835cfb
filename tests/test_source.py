"""Checks on the package source itself."""

import ast
import tomllib
from pathlib import Path

import ordineq

PACKAGE_DIR = Path(ordineq.__file__).resolve().parent
TESTS_DIR = Path(__file__).resolve().parent
SCRIPTS_DIR = TESTS_DIR.parent / "scripts"
BENCH_DIR = TESTS_DIR.parent / "bench"
PYPROJECT = TESTS_DIR.parent / "pyproject.toml"


def test_no_assert_statements_in_the_package():
    """Invariants must raise explicitly: `python -O` strips `assert`."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the package: {found}"


def test_no_true_division_in_the_package():
    """`/` on two integers is a float: gain vectors are integers over a
    denominator, so the package builds every quotient as a `Fraction`."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"true division in the package: {found}"


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


def _top_level_names(tree: ast.Module):
    """The functions, classes and constants a module defines at top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def _references(tree: ast.Module) -> set[str]:
    """Every name a module reads, reads as an attribute, or imports."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def test_every_package_name_is_used():
    """A top-level function, class or constant of a package module is used
    in that module, imported or read by another module of the package, the
    tests, the scripts or the benchmark, or is an entry point in
    `[project.scripts]`.  Dunder names are exempt.  Names are matched by
    spelling, not resolved, so the check finds dead names, not every one."""
    paths = [path for d in (PACKAGE_DIR, TESTS_DIR, SCRIPTS_DIR, BENCH_DIR) for path in sorted(d.glob("*.py"))]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    refs = {path: _references(tree) for path, tree in trees.items()}
    scripts = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"].values()
    entry_points = {tuple(target.split(":")) for target in scripts}
    dead = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for name in _top_level_names(trees[path]):
            if name.startswith("__") and name.endswith("__"):
                continue
            if (f"ordineq.{path.stem}", name) in entry_points:
                continue
            if not any(name in names for names in refs.values()):
                dead.append(f"{path.name}: {name}")
    assert not dead, f"names nothing uses: {dead}"
