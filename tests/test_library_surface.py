"""Every module-level name in the library is reached from a program, and
every name a library module imports is read in that module.

A function, class or constant that only tests reach is library surface that
no pipeline run, script or benchmark exercises; it goes, or moves into the
tests. Each module-level def, class and assigned name in `src/coldrec/` must
be referenced again in `src/`, `scripts/` or `bench/*.py`: as a name, an
attribute, an import, or a string (the bench tracer patches functions by
name). References inside the definition itself and in `tests/` do not count.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "coldrec").glob("*.py"))
PROGRAMS = LIBRARY + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))

# reached only from tests until the report runs it (ROADMAP item 1)
ALLOWED = {"evaluate.paired_ttest"}


def references(node) -> Counter:
    """Identifiers a subtree reads: loaded names, attributes, imports and strings."""
    refs = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            refs[n.id] += 1
        elif isinstance(n, ast.Attribute):
            refs[n.attr] += 1
        elif isinstance(n, ast.alias):
            refs[n.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            refs[n.value] += 1
    return refs


def definitions(tree):
    """(name, node) for each module-level def, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, None


def test_every_module_level_name_is_reached_outside_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in PROGRAMS}
    total = Counter()
    for tree in trees.values():
        total += references(tree)
    unreached = []
    for path in LIBRARY:
        for name, node in definitions(trees[path]):
            if name.startswith("__") and name.endswith("__"):
                continue
            own = references(node)[name] if node is not None else 0
            qualified = f"{path.stem}.{name}"
            if total[name] - own < 1 and qualified not in ALLOWED:
                unreached.append(qualified)
    assert not unreached, f"defined in src/coldrec but reached only from tests: {unreached}"


def imports(tree):
    """Each name an import statement binds, ``__future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".", 1)[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_every_imported_name_is_read_in_its_module():
    unused = []
    for path in LIBRARY:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        unused += [f"{path.stem}.{name}" for name in imports(tree) if name not in read]
    assert not unused, f"imported but never read in their module: {unused}"
