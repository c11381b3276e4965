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


# The walk, the Gauss rules and the series engine run on integers alone: a
# valuation bound is an integer form counted in half steps, so none of them
# has a use for Fraction.
INTEGER_ONLY = ("gauss.py", "quadenum.py", "series.py")


def test_the_walk_and_the_series_engine_import_no_fractions():
    paths = [path for path in SOURCES if path.name in INTEGER_ONLY]
    assert len(paths) == len(INTEGER_ONLY)
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or "", *(a.name for a in node.names)]
            else:
                continue
            if any(name.split(".")[0] in ("fractions", "Fraction") for name in names):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []
