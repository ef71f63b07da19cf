"""No dead code in the package: every import is used, every private
module-level function or class is referenced somewhere in src/ or tests/,
and so is every public function and method, outside its own def.  A
module-level function counts as used only where its name is read, imported
or looked up on a module, so a method call of the same name does not keep
it alive; a method counts as used only where it is looked up as an
attribute, so a variable of the same name does not keep it alive."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "scatdiag").glob("*.py")
                 if p.name != "__init__.py")
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
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
    for path in SOURCES:
        referenced.update(_name_uses(ast.parse(path.read_text())))
    dead = []
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")
                    and node.name not in referenced):
                dead.append("%s: %s" % (path.name, node.name))
    assert not dead


def test_every_public_function_and_method_is_referenced():
    method_uses, function_uses = Counter(), Counter()
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        method_uses.update(_attribute_uses(tree))
        function_uses.update(_function_uses(tree, _module_names(tree)))
    dead = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        modules = _module_names(tree)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defs, uses, own = node.body, method_uses, _attribute_uses
            else:
                defs, uses = [node], function_uses
                own = lambda fn: _function_uses(fn, modules)
            for fn in defs:
                if (isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
                        and uses[fn.name] == list(own(fn)).count(fn.name)):
                    dead.append("%s: %s" % (path.name, fn.name))
    assert not dead
