"""The engine is exact: no float literal and no float() call in its source,
apart from the ``intlinalg.INFINITE`` sentinel for an infinite quotient index."""

import ast
import pathlib

import qtheta

SOURCES = sorted(pathlib.Path(qtheta.__file__).parent.glob("*.py"))


def _is_sentinel(path, node):
    """``INFINITE = float("inf")`` at the top of intlinalg.py."""
    return (
        path.name == "intlinalg.py"
        and isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["INFINITE"]
        and ast.unparse(node.value) == "float('inf')"
    )


def test_no_float_arithmetic_in_the_engine():
    found, sentinels = [], 0
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        for node in tree.body:
            if _is_sentinel(path, node):
                allowed.add(id(node.value))
                sentinels += 1
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{path.name}:{node.lineno}: literal {node.value!r}")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
                and id(node) not in allowed
            ):
                found.append(f"{path.name}:{node.lineno}: float() call")
    assert len(SOURCES) > 10 and sentinels == 1
    assert found == []
