"""No symbol in src/toonmotion that nothing reads.

Two checks, by the standard library's ast alone:

- every name a module imports is read in that module;
- every module-level function, class and constant is read somewhere in the
  package: as a loaded name, as an attribute or in an import.

Dunder names and ``__future__`` imports are exempt. The names a module
lists in ``__all__`` count as read, since they are what it exports.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "toonmotion"
TREES = {
    path.relative_to(PACKAGE).as_posix(): ast.parse(path.read_text("utf-8"),
                                                    filename=str(path))
    for path in sorted(PACKAGE.rglob("*.py"))
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _exported(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            names.update(elt.value for elt in node.value.elts
                         if isinstance(elt, ast.Constant))
    return names


def _reads(tree: ast.Module) -> set[str]:
    """Every name *tree* loads or reads as an attribute, and its exports."""
    reads = _exported(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
    return reads


def _imports(tree: ast.Module):
    """``(bound name, imported name, line)`` for every import in *tree*."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, alias.name, node.lineno


def _definitions(tree: ast.Module):
    """``(name, line)`` for every module-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno


def test_every_import_is_read_where_it_is_imported():
    unread = [
        f"{module}:{line}: {bound}"
        for module, tree in TREES.items()
        for bound, _, line in _imports(tree)
        if bound not in _reads(tree)
    ]
    assert unread == []


def test_every_module_level_symbol_is_read_in_the_package():
    read = set()
    for tree in TREES.values():
        read |= _reads(tree)
        read.update(name for _, name, _ in _imports(tree))
    unread = [
        f"{module}:{line}: {name}"
        for module, tree in TREES.items()
        for name, line in _definitions(tree)
        if not _is_dunder(name) and name not in read
    ]
    assert unread == []
