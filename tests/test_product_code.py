"""The package holds product code only: every definition in it has a caller.

A function or class defined in src/gk2genus must be referenced by name
somewhere else in src/gk2genus, or in perfbench/*.py, whose layer trace
also names attributes in strings.  A method counts as used only through an
attribute access, or through a string in perfbench/*.py: a bare name or an
import of the same name reaches a module function, not the method.
Test-only references belong in tests/reference.py.  Dunder methods and
cli.main, the console entry point, are exempt.

Likewise every top-level definition in tests/reference.py must be named in
a tests/test_*.py file, or in a reference definition that is.

numpy is imported in one place only, lazily, as gf.np.
"""

import ast
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "gk2genus").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))
REFERENCE = ROOT / "tests" / "reference.py"
TESTS = sorted((ROOT / "tests").glob("test_*.py"))
EXEMPT = {("cli.py", "main")}
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree):
    """(definition, is_method): top-level functions and classes, and their methods."""
    for node in tree.body:
        if isinstance(node, DEFS):
            yield node, False
            if isinstance(node, ast.ClassDef):
                yield from ((sub, True) for sub in node.body if isinstance(sub, DEFS))


def _names(nodes, strings, methods=False):
    """Names used by the given nodes; identifiers in string constants when strings.

    With methods, only attribute accesses and strings count, the uses that
    can reach a method.
    """
    out = Counter()
    for node in nodes:
        if isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.Name) and not methods:
            out[node.id] += 1
        elif isinstance(node, ast.alias) and not methods:
            out[node.name.rsplit(".", 1)[-1]] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return out


def unreferenced():
    trees = {path: ast.parse(path.read_text()) for path in SRC + BENCH}
    uses = {
        methods: [_names(ast.walk(tree), path in BENCH, methods) for path, tree in trees.items()]
        for methods in (False, True)
    }
    for path in SRC:
        for node, method in _definitions(trees[path]):
            name = node.name
            if re.fullmatch(r"__\w+__", name) or (path.name, name) in EXEMPT:
                continue
            # uses inside the definition itself do not count
            total = sum(use[name] for use in uses[method])
            if total == _names(ast.walk(node), False, method)[name]:
                yield "%s:%d %s" % (path.name, node.lineno, name)


def test_every_src_definition_has_a_product_caller():
    assert list(unreferenced()) == []


def unused_references():
    """Top-level reference definitions that no test reaches, directly or through others."""
    tree = ast.parse(REFERENCE.read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, DEFS)}
    reached = set()
    frontier = _names((node for path in TESTS for node in ast.walk(ast.parse(path.read_text()))),
                      strings=False)
    while frontier:
        new = set(frontier) & set(defs) - reached
        reached |= new
        frontier = _names((node for name in new for node in ast.walk(defs[name])), strings=False)
    return sorted(set(defs) - reached)


def test_every_reference_definition_is_used_by_a_test():
    assert unused_references() == []


def numpy_imports():
    """Import statements of numpy or a numpy submodule under src/gk2genus."""
    for path in SRC:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(m == "numpy" or m.startswith("numpy.") for m in modules):
                yield "%s:%d" % (path.name, node.lineno)


def test_numpy_is_imported_only_through_the_lazy_handle_in_gf():
    # a plain `import numpy` would execute gf's lazy module at once
    assert list(numpy_imports()) == []
