"""Every private function, method or class an engine module defines is
referenced somewhere in the engine outside its own definition.

A reference is a name read (``_helper(...)``) or an attribute read
(``self._helper``) in any module of the package; a private name that only
the tests read is dead engine code.  Every method of an engine class, private
or public, is also read as an attribute outside its own body: in the engine
or the benchmark, or, for a listed few kept as test references, in the
tests.  Dunder names are exempt."""

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


def _unread_methods(readers):
    """``class.method`` for every engine method that no file of ``readers``
    reads as ``obj.name`` outside the method's own body."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in set(readers) | set(SOURCES)}
    reads = sum((_attribute_reads(trees[path]) for path in readers), collections.Counter())
    methods = [(cls, node) for path in SOURCES for cls, node in _methods(trees[path])]
    assert len(methods) > 100
    # a call inside the method itself does not count
    return sorted(f"{cls.name}.{node.name}" for cls, node in methods
                  if reads[node.name] == _attribute_reads(node)[node.name])


def test_every_engine_method_is_read_as_an_attribute_somewhere():
    # in the engine, the tests or the benchmark
    assert _unread_methods(READERS) == []


# Public methods that only the tests read, each kept as a reference the
# tests check the engine against; any other method the engine and the
# benchmark never read is dead.
READ_BY_TESTS_ONLY = {
    "HeisRaw.action_on_exponent": "the raw action on one e(k), the group-law and invariance oracle",
    "HeisElement.groupoid_inverse": "the Heisenberg groupoid inverse, checked by g * g^-1 = identity",
    "QuotientData.reduce": "the canonical coset representative, checked constant on each coset",
    "Multiplier.c_l": "the multiplier's scalar at b, checked as a cocycle",
    "QuadExpr.value": "a quadratic's value at one point, the enumeration tests' reference",
    "ScalarSeries.truncate": "the truncated series, the acceptance tests' expected values",
    "ScalarSeries.invert": "the series inverse, exported and checked against its product with the series",
    "TorusSeries.scaled": "a series times one scalar, the tests' wrong, zero and rescaled terms",
}


def test_only_the_listed_methods_are_left_to_the_tests():
    engine = SOURCES + sorted(ROOT.glob("perfbench/*.py"))
    assert _unread_methods(engine) == sorted(READ_BY_TESTS_ONLY)
