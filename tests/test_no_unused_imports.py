"""Every name an engine module imports is read somewhere in that module.

``__init__.py`` is exempt: its imports are the package's exports.  A name
that only a quoted annotation reads counts as unused; with
``from __future__ import annotations`` no annotation needs quotes."""

import ast
import pathlib

import qtheta

SOURCES = sorted(
    p for p in pathlib.Path(qtheta.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _imported(tree):
    """(bound name, line) for each import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_no_module_imports_a_name_it_never_reads():
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused += [f"{path.name}:{line}: {name}" for name, line in _imported(tree) if name not in read]
    assert len(SOURCES) > 10
    assert unused == []
