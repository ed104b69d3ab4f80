"""Every function, class and method in ``src/`` has a caller outside the tests.

A definition counts as used when its name is read somewhere in ``src/``
other than inside its own body, or anywhere in ``perfbench/`` (where the
benchmark's tracer may name it in a string).  Imports are not reads.
Methods are matched by attribute name, so a dead method that shares its
name with a used attribute goes unseen; a definition only the tests read is
flagged.  Each library name has one import path, its module: the package's
``__init__`` binds nothing but ``__version__``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "vilenkin_lab"
BENCH = ROOT / "perfbench"


def definitions(tree):
    """(name, qualified name, node) for each top-level function and class
    and each non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item.name, f"{node.name}.{item.name}", item


def reads(tree, strings=False):
    """Each name read as a variable or an attribute, with its line, and each
    string constant when ``strings`` is set."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def unreferenced(src=SRC, bench=BENCH):
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
    bench_names = {
        name
        for path in sorted(bench.glob("*.py"))
        for name, _ in reads(ast.parse(path.read_text(encoding="utf-8")), strings=True)
    }
    read_at = {}  # name -> [(module, line)]
    for module, tree in trees.items():
        for name, line in reads(tree):
            read_at.setdefault(name, []).append((module, line))
    missing = []
    for module, tree in trees.items():
        for name, qualified, definition in definitions(tree):
            if name in bench_names:
                continue
            body = range(definition.lineno, definition.end_lineno + 1)
            if not any(m != module or line not in body for m, line in read_at.get(name, ())):
                missing.append(f"{module}.{qualified}")
    return missing


def test_every_src_definition_has_a_caller_outside_the_tests():
    assert unreferenced() == []


def bound_names(tree):
    """Each name a module binds anywhere: assigned, imported or defined."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name


def test_package_init_binds_only_its_version():
    # a re-export would be a second import path for a library name
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert list(bound_names(tree)) == ["__version__"]
