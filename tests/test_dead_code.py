"""Dead-code guard over src/sylres: no module (other than the package
__init__, which re-exports) keeps an import it never uses, and no private
module-level function or class, nor private method of a module-level
class, survives that nothing in the package references outside its own
body, and no private module-level constant that nothing in the package
reads."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sylres"


def _modules():
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _referenced_names(nodes):
    names = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
    return names


def test_no_unused_imports():
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":
            continue
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        # function-local imports count as imports of their own scope too
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node not in tree.body:
                for alias in node.names:
                    imported.setdefault(alias.asname or alias.name, node.lineno)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{name}:{line} {ident}" for ident, line in imported.items() if ident not in used]
    assert unused == []


def _definitions(tree):
    """Each module-level function or class, and each method of a
    module-level class, with the nodes of its module outside its own body."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        siblings = [n for n in tree.body if n is not node]
        yield node, siblings
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef):
                    yield method, siblings + [n for n in node.body if n is not method]


def test_no_unreferenced_private_definitions():
    modules = _modules()
    unreferenced = []
    for name, tree in modules.items():
        if name == "__init__.py":
            continue
        for node, siblings in _definitions(tree):
            ident = node.name
            if not ident.startswith("_") or ident.startswith("__"):
                continue
            # every module of the package, minus the definition's own body
            others = [t for t in modules.values() if t is not tree] + siblings
            if ident not in _referenced_names(others):
                unreferenced.append(f"{name}:{node.lineno} {ident}")
    assert unreferenced == []


def _read_names(trees):
    """Names loaded, read as attributes or imported anywhere in trees."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
    return names


def test_no_unread_private_constants():
    modules = _modules()
    read = _read_names(modules.values())
    unread = []
    for name, tree in modules.items():
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                ident = target.id
                if ident.startswith("_") and not ident.startswith("__") and ident not in read:
                    unread.append(f"{name}:{node.lineno} {ident}")
    assert unread == []


def test_no_definition_in_two_modules():
    # one copy of each helper: a module-level function or class name is
    # defined by one module of the package only
    owners = {}
    for name, tree in _modules().items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owners.setdefault(node.name, []).append(name)
    assert {ident: mods for ident, mods in owners.items() if len(mods) > 1} == {}
