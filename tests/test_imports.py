"""The import and raise rules of the package: a module imports no private name of another
module, apart from the unchecked kernel cores that a caller runs after validating once
(or, as ``checks`` runs ``train._Run``'s step, on inputs that are valid by construction), and
every such permission names an import the package makes; every name a module imports is
used there or re-exported; every public function or class is reached from another place in
the package or exported; every ``raise`` raises a toolkit error, which ``cli.main`` maps to an
exit code, unless its caller converts it; a kernel core raises no setting's error; each rule
is raised from one place; and no message is raised under two error classes."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "osrkit"
# (importing module, imported module, name)
ALLOWED = {
    ("losses", "numerics", "_log_softmax"),
    ("losses", "numerics", "_paired"),
    ("losses", "numerics", "_paired_backward"),
    ("losses", "numerics", "_scores"),
    ("losses", "numerics", "_scores_backward"),
    ("train", "losses", "_total"),
    ("train", "losses", "_check_labels"),
    ("train", "model", "_backward_into"),
    ("train", "model", "_checked_inputs"),
    ("train", "model", "_forward"),
    ("checks", "train", "_Run"),
    ("data", "model", "_check_classes"),
    ("evaluate", "losses", "_check_labels"),
    ("evaluate", "losses", "_check_logits"),
    ("evaluate", "model", "_checked_inputs"),
    ("evaluate", "model", "_forward"),
    ("evaluate", "numerics", "_scores"),
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
             if (importer, module, name) not in ALLOWED]
    assert stray == []


def test_every_named_permission_is_used():
    # a permission left behind by a deleted import would admit that import again unseen
    assert ALLOWED - set(private_imports()) == set()


# (module, function) whose raise of another class its caller turns into a toolkit error
RAISE_ALLOWED = {
    ("cli", "_seed"),     # ArgumentTypeError: argparse reports it through _Parser.error
    ("config", "_bool"),  # ValueError: _cast raises a ConfigError that names the key
    ("config", "_metric"),
    ("train", "train"),   # raise type(exc)(...): the caught toolkit error, naming its step
}


def raises(node, function=""):
    """(innermost enclosing function, node) for each ``raise`` under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise):
            yield function, child
        inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from raises(child, child.name if inner else function)


def error_classes() -> set[str]:
    """The classes ``errors.py`` defines."""
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, ast.ClassDef)}


def raised_name(node) -> str | None:
    """The name a ``raise`` statement raises (``X`` or ``X(...)``), else None."""
    target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return target.id if isinstance(target, ast.Name) else None


def foreign_raises():
    """(module, function, statement) for each ``raise`` of a class that ``errors.py`` does
    not define; a bare re-raise is not listed."""
    errors = error_classes()
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for function, node in raises(ast.parse(path.read_text(encoding="utf-8"))):
            if node.exc is not None and raised_name(node) not in errors:
                found.append((path.stem, function, ast.unparse(node)))
    return found


def test_every_raise_is_a_toolkit_error():
    found = foreign_raises()
    assert {(module, function) for module, function, _ in found} == RAISE_ALLOWED, found


def exported(tree) -> set:
    """The names a module's ``__all__`` lists."""
    return {node.value for stmt in tree.body if isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
            for node in ast.walk(stmt.value) if isinstance(node, ast.Constant)}


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
        found += [(path.stem, name) for name in bound if name not in read | exported(tree)]
    return found


def test_every_import_is_used():
    assert unused_imports() == []


def message_template(node) -> str:
    """The text of a message expression, each f-string placeholder or other part as ``{}``."""
    if isinstance(node, ast.Constant):
        return str(node.value)
    if isinstance(node, ast.JoinedStr):
        return "".join(message_template(v) if isinstance(v, ast.Constant) else "{}"
                       for v in node.values)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return message_template(node.left) + message_template(node.right)
    return "{}"


def raised_templates(error: str) -> dict[str, list[str]]:
    """Per message template of a ``raise error(...)`` in the package, where it is raised."""
    found: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and isinstance(node.exc.func, ast.Name) and node.exc.func.id == error
                    and node.exc.args):
                where = f"{path.name}:{node.lineno}"
                found.setdefault(message_template(node.exc.args[0]), []).append(where)
    return found


# a message that names one condition per input it is read from, each checked where it is read
ONE_RULE_PER_SITE = {
    "empty batch": "the rules for labels and logits",
}


def test_each_rule_is_raised_from_one_place():
    # a rule written twice can drift apart, or be missed by an entry that holds the other copy
    found = {(error, template): where for error in sorted(error_classes())
             for template, where in raised_templates(error).items()}
    assert ("ConfigError", "tau must be > 0, got {}") in found  # the walk reached the package
    assert {key: where for key, where in found.items()
            if len(where) > 1 and key[1] not in ONE_RULE_PER_SITE} == {}


def test_kernel_cores_check_no_setting():
    # a core trusts its settings: the entry that runs it checks them once, so a core raises
    # only on the numbers it computes
    cores = {(module, name) for _, module, name in ALLOWED if not name.startswith("_check")}
    seen, found = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if (path.stem, getattr(top, "name", None)) in cores:
                seen.add((path.stem, top.name))
                found += [f"{path.stem}.{top.name}: {ast.unparse(node)}" for _, node in raises(top)
                          if raised_name(node) not in {"NumericError", "DegenerateInputError"}]
    assert seen == cores
    assert found == []


def test_each_message_is_raised_under_one_class():
    # one condition under two classes gets two exit codes, or two ways to be caught
    classes: dict[str, dict[str, list[str]]] = {}
    for error in sorted(error_classes()):
        for template, where in raised_templates(error).items():
            classes.setdefault(template, {})[error] = where
    assert "DataError" in classes["empty batch"]  # the walk reached the package
    assert {t: by_class for t, by_class in classes.items() if len(by_class) > 1} == {}


# the pinned benchmark recipe: perfbench and the acceptance suite call it, nothing in the package
RECIPE = {"benchmark_split", "benchmark_config"}


def unreached_public_names() -> list[str]:
    """``module.name`` for each public top-level function or class that no code in the package
    reads outside its own definition (an import alone is not a read) and that ``osrkit.__all__``
    does not export."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for top in tree.body:
            own = getattr(top, "name", None)
            read |= {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(top)
                     if isinstance(node, (ast.Name, ast.Attribute))} - {own}
    public = exported(trees["__init__"])
    return [f"{module}.{top.name}" for module, tree in trees.items() for top in tree.body
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_")
            and top.name not in read | public | RECIPE]


def test_every_public_name_is_reached_or_exported():
    # a public function that no command and no other function runs is dead API
    assert unreached_public_names() == []
