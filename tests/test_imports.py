"""The import rules of the package: a module imports no private name of another module,
apart from the unchecked kernel cores that a caller runs after validating once, and
every name a module imports is used there or re-exported."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "osrkit"
# (importing module, imported module, name); "*" admits every private name of the module
ALLOWED = {
    ("losses", "numerics", "*"),
    ("train", "losses", "_total"),
    ("train", "losses", "_check_labels"),
    ("train", "model", "_backward_into"),
}


def private_imports():
    """(importing module, imported module, name) for each ``from .mod import _name``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [(path.stem, node.module or "", alias.name) for alias in node.names
                          if alias.name.startswith("_")]
    return found


def test_only_kernel_cores_cross_modules():
    found = private_imports()
    assert ("train", "losses", "_total") in found  # the walk reached the package
    stray = [f"{importer}: from .{module} import {name}" for importer, module, name in found
             if (importer, module, "*") not in ALLOWED and (importer, module, name) not in ALLOWED]
    assert stray == []


def unused_imports():
    """(module, name) for each name a module's top-level import binds that the module
    neither reads nor lists in its ``__all__``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = [(alias.asname or alias.name).split(".")[0]
                 for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__" for alias in node.names]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = {node.value for stmt in tree.body if isinstance(stmt, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
                    for node in ast.walk(stmt.value) if isinstance(node, ast.Constant)}
        found += [(path.stem, name) for name in bound if name not in read | exported]
    return found


def test_every_import_is_used():
    assert unused_imports() == []
