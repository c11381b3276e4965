"""Every private function, method or class an engine module defines is
referenced somewhere in the engine outside its own definition.

A reference is a name read (``_helper(...)``) or an attribute read
(``self._helper``) in any module of the package; a private name that only
the tests read is dead engine code.  Every method of an engine class, private
or public, is also read as an attribute in the engine, the tests or the
benchmark outside its own body.  Dunder names are exempt."""

import ast
import collections
import pathlib

import qtheta

SOURCES = sorted(pathlib.Path(qtheta.__file__).parent.glob("*.py"))


def _reads(node):
    """Counter of the names and attribute names read below ``node``."""
    out = collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out[n.attr] += 1
    return out


def _private_defs(tree):
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in ast.walk(tree):
        if isinstance(node, kinds) and node.name.startswith("_") and not node.name.endswith("__"):
            yield node


def test_every_private_definition_is_referenced_elsewhere_in_the_engine():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    reads = sum((_reads(tree) for tree in trees.values()), collections.Counter())
    defs = [(name, node) for name, tree in trees.items() for node in _private_defs(tree)]
    # a recursive call inside the definition itself does not count
    dead = [f"{name}:{node.lineno}: {node.name}" for name, node in defs
            if reads[node.name] == _reads(node)[node.name]]
    assert len(defs) > 30
    assert dead == []


ROOT = pathlib.Path(__file__).parent.parent
READERS = SOURCES + sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("perfbench/*.py"))


def _attribute_reads(node):
    """Counter of the attribute names read below ``node``."""
    return collections.Counter(
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    )


def _methods(tree):
    """(class, method) for every non-dunder method defined in a class body."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.endswith("__"):
                    yield cls, node


def test_every_engine_method_is_read_as_an_attribute_somewhere():
    # a method is read as ``obj.name`` in the engine, the tests or the
    # benchmark, outside its own body; a call inside itself does not count
    trees = {path: ast.parse(path.read_text(), str(path)) for path in READERS}
    reads = sum((_attribute_reads(tree) for tree in trees.values()), collections.Counter())
    methods = [(path.name, cls, node) for path in SOURCES for cls, node in _methods(trees[path])]
    dead = [f"{name}:{node.lineno}: {cls.name}.{node.name}" for name, cls, node in methods
            if reads[node.name] == _attribute_reads(node)[node.name]]
    assert len(methods) > 100
    assert dead == []
