"""The import rule of the package: a module imports no private name of another module,
apart from the unchecked kernel cores that a caller runs after validating once."""

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
