"""No dead code in the package: every import is used, every private
module-level function or class is referenced somewhere in src/ or tests/,
outside its own def, and every private method of a class is looked up as
an attribute there, outside its own def.  The package holds what it runs:
a public module-level function is used in src/ or exported from
`__init__`, and a public method is used in src/ unless its class is
exported, when a use in tests/ will do.
Every function of the test oracles is called by some test, and every
`functools` cache in the package is on an allow-list with its reason.
A module-level function counts as used only where its name is read,
imported or looked up on a module, so a method call of the same name does
not keep it alive; a method counts as used only where it is looked up as
an attribute, so a variable of the same name does not keep it alive."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "scatdiag").glob("*.py")
                 if p.name != "__init__.py")
INIT = ROOT / "src" / "scatdiag" / "__init__.py"
SRC = sorted((ROOT / "src").rglob("*.py"))
TESTS = sorted((ROOT / "tests").rglob("*.py"))
ORACLES = ROOT / "tests" / "oracles.py"
PACKAGE = {p.stem for p in MODULES}


def _used_names(tree):
    """Names read in a module, and attribute names looked up on anything."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _name_uses(tree):
    """Every occurrence of a name: read, looked up as an attribute or
    imported by name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _attribute_uses(tree):
    """Every attribute lookup `x.name`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr


def _module_names(tree):
    """Names bound to a module: `import x [as y]`, and `from ... import m
    [as y]` for a module m of the package."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names
                         if alias.name in PACKAGE)
    return names


def _function_uses(tree, modules):
    """Every use that can reach a module-level function: a bare name read, an
    import by name, or an attribute looked up on one of `modules`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_import_is_used():
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append("%s: %s" % (path.name, bound))
    assert not unused


def test_every_private_definition_is_referenced():
    referenced = set()
    for path in SRC + TESTS:
        referenced.update(_name_uses(ast.parse(path.read_text())))
    dead = []
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")
                    and node.name not in referenced):
                dead.append("%s: %s" % (path.name, node.name))
    assert not dead


def test_every_private_method_is_referenced():
    lookups, _ = _uses(SRC + TESTS)
    dead = []
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                dead.extend("%s: %s.%s" % (path.name, node.name, fn.name) for fn in node.body
                            if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")
                            and not fn.name.startswith("__")
                            and lookups[fn.name] == list(_attribute_uses(fn)).count(fn.name))
    assert not dead


def _uses(paths):
    """Attribute lookups, and uses that can reach a module-level function."""
    method_uses, function_uses = Counter(), Counter()
    for path in paths:
        tree = ast.parse(path.read_text())
        method_uses.update(_attribute_uses(tree))
        function_uses.update(_function_uses(tree, _module_names(tree)))
    return method_uses, function_uses


def test_every_public_function_and_method_is_referenced():
    exported = {alias.name for node in ast.parse(INIT.read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    src_methods, src_functions = _uses(p for p in SRC if p != INIT)
    all_methods, _ = _uses(SRC + TESTS)
    dead = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        modules = _module_names(tree)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defs, own = node.body, _attribute_uses
                uses = all_methods if node.name in exported else src_methods
            elif isinstance(node, ast.FunctionDef) and node.name not in exported:
                defs, uses = [node], src_functions
                own = lambda fn: _function_uses(fn, modules)
            else:
                continue
            for fn in defs:
                if (isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
                        and uses[fn.name] == list(own(fn)).count(fn.name)):
                    dead.append("%s: %s" % (path.name, fn.name))
    assert not dead


def test_every_oracle_is_called_by_a_test():
    """Functions of tests/oracles.py reached from the test modules, directly
    or through other oracle functions."""
    oracles = {node.name: node for node in ast.parse(ORACLES.read_text()).body
               if isinstance(node, ast.FunctionDef)}
    seen, todo = set(), []
    for path in TESTS:
        if path != ORACLES:
            todo.extend(_name_uses(ast.parse(path.read_text())))
    while todo:
        name = todo.pop()
        if name in oracles and name not in seen:
            seen.add(name)
            todo.extend(_name_uses(oracles[name]))
    assert sorted(set(oracles) - seen) == []


# functools caches keep their entries for the life of the process, so a
# benchmark that runs rounds in one process must clear each of them
# between rounds; a new one needs its reason here
CACHES = {
    "reps.all_subspaces": "the subspaces of F_p^n are listed once per (p, n) "
                          "and shared by every semistability test over F_p",
}


def _is_functools_cache(decorator):
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = decorator.attr if isinstance(decorator, ast.Attribute) else \
        getattr(decorator, "id", None)
    return name in ("cache", "lru_cache")


def test_every_functools_cache_is_allowed():
    cached = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and any(map(_is_functools_cache, node.decorator_list))):
                cached.append("%s.%s" % (path.stem, node.name))
    assert sorted(cached) == sorted(CACHES)
