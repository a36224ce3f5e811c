"""Every public name of the package has a caller outside the tests, and
every private module-level name is read.

A public function, class or method that only tests reach is API kept
for the tests' sake; it belongs in the tests or goes.  A private
constant, function or class that nothing reads is dead code.  The scan
reads the package, the demos and the benchmark as syntax trees and
counts a name as referenced when it appears as a name or an attribute
outside its own definition.  It matches by name, not by module, so it
can miss an unused name that shares its spelling with a used one, never
the other way round.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mixlab"
CALLERS = ("src", "demos", "perfbench")


def _public_definitions():
    """(dotted name, node) of each public function, class and method."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item


def _references(tree: ast.AST) -> Counter:
    """How often each identifier is read as a name or an attribute."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
    return found


def _references_outside_the_tests() -> Counter:
    used = Counter()
    for folder in CALLERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            used.update(_references(ast.parse(path.read_text(encoding="utf-8"))))
    return used


def test_every_public_name_has_a_caller_outside_the_tests():
    used = _references_outside_the_tests()
    definitions = list(_public_definitions())
    assert len(definitions) > 50  # the scan found the package
    unused = [
        dotted for dotted, node in definitions
        if used[node.name] <= _references(node)[node.name]
    ]
    assert unused == []


def _private_definitions():
    """(dotted name, name, node) of each private module-level function,
    class and assigned name; dunders such as ``__all__`` are not private."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    yield f"{path.stem}.{name}", name, node


def test_every_private_name_in_the_package_is_read():
    used = _references_outside_the_tests()
    definitions = list(_private_definitions())
    assert len(definitions) > 20  # the scan found the package
    unread = [dotted for dotted, name, node in definitions if used[name] <= _references(node)[name]]
    assert unread == []


def _imported_names(tree: ast.AST):
    """(line, name) of each name an import binds, ``from __future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _exported(tree: ast.Module) -> set:
    """The names a module lists in ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_import_in_the_package_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _references(tree)
        used.update(_exported(tree))
        unused += [f"{path.name}:{line} {name}" for line, name in _imported_names(tree)
                   if not used[name]]
    assert len(list(PACKAGE.glob("*.py"))) > 10  # the scan found the package
    assert unused == []


def test_the_package_never_imports_scipy():
    """numpy is the package's only dependency: no module imports scipy,
    at module level or inside a function."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in modules
                      if name.split(".")[0] == "scipy"]
    assert len(list(PACKAGE.glob("*.py"))) > 10  # the scan found the package
    assert found == []
