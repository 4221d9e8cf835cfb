"""Checks on the package source itself."""

import ast
import re
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


def _module_name(path: Path) -> str:
    return "ordineq" if path.stem == "__init__" else f"ordineq.{path.stem}"


def _imported_from(node: ast.ImportFrom, in_package: bool):
    """The package module a `from ... import` reads from, "ordineq" or
    "ordineq.<module>", or None.  Inside the package, relative imports are
    its own."""
    if node.level == 0:
        if node.module == "ordineq" or (node.module or "").startswith("ordineq."):
            return node.module
        return None
    if in_package and node.level == 1:
        return "ordineq" if node.module is None else f"ordineq.{node.module}"
    return None


def _package_uses(path: Path, tree: ast.Module, modules: set[str]) -> set[tuple[str, str]]:
    """The (module, name) pairs of package names a file uses: a name a
    package module reads itself, a name imported from a package module, and
    an attribute read on a name bound to a package module by import, or on
    `ordineq.<module>`.  A name imported or read from `ordineq` itself is a
    use of the package's re-export.  `modules` holds the modules' full
    names."""
    in_package = path.parent == PACKAGE_DIR
    bound: dict[str, str] = {}  # local name -> the package module it is
    uses = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "ordineq":
                    bound[alias.asname or "ordineq"] = alias.name if alias.asname else "ordineq"
        elif isinstance(node, ast.ImportFrom):
            source = _imported_from(node, in_package)
            for alias in node.names if source else ():
                if f"{source}.{alias.name}" in modules:
                    bound[alias.asname or alias.name] = f"{source}.{alias.name}"
                else:
                    uses.add((source, alias.name))

    def module_of(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute) and module_of(node.value) == "ordineq":
            return f"ordineq.{node.attr}" if f"ordineq.{node.attr}" in modules else None
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and module_of(node.value):
            uses.add((module_of(node.value), node.attr))
        elif in_package and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            uses.add((_module_name(path), node.id))
    return uses


def _entry_points() -> set[tuple[str, str]]:
    """The (module, function) targets of `[project.scripts]`, read line by
    line: `tomllib` is new in Python 3.11, and the package supports 3.10."""
    targets, section = set(), None
    for line in PYPROJECT.read_text().splitlines():
        if line.startswith("["):
            section = line.strip()
        elif section == "[project.scripts]" and (m := re.fullmatch(r'\s*[\w.-]+\s*=\s*"([\w.]+):(\w+)"\s*', line)):
            targets.add(m.groups())
    return targets


def test_every_package_name_is_used():
    """A top-level function, class or constant of a package module is used:
    read in that module, imported from it, or read as an attribute of it
    (`_package_uses`) by a module of the package, the tests, the scripts or
    the benchmark, or it is an entry point in `[project.scripts]`.  Dunder
    names are exempt.  Names are resolved to their module, so a dead name
    is found even where another module defines the same spelling.  The
    package's re-exports (`from .mod import name` in `__init__.py`) count
    as uses."""
    paths = [path for d in (PACKAGE_DIR, TESTS_DIR, SCRIPTS_DIR, BENCH_DIR) for path in sorted(d.glob("*.py"))]
    modules = {_module_name(path) for path in PACKAGE_DIR.glob("*.py")}
    uses = set()
    for path in paths:
        uses |= _package_uses(path, ast.parse(path.read_text(), str(path)), modules)
    uses |= _entry_points()
    dead = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for name in _top_level_names(ast.parse(path.read_text(), str(path))):
            if name.startswith("__") and name.endswith("__"):
                continue
            if (_module_name(path), name) not in uses:
                dead.append(f"{path.name}: {name}")
    assert not dead, f"names nothing uses: {dead}"
