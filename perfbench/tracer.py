"""Per-layer tracing installed from outside the engine.

Each target below is one public entry point of a qtheta module.  ``install``
replaces the function object on every name that holds it -- module globals
(``from .quadenum import enumerate_sublevel`` binds a second name in
``qtheta.series``), package re-exports and class attributes, including
aliases such as ``__rmul__ = __mul__`` -- so that callers which looked the
name up at import time still reach the wrapper.

Two kinds of wrapper share one stack for self time:

* span targets sit at coarse boundaries and record one span per call
  (name, start, end, parent), kept in memory until ``dump``;
* aggregate targets are the hot scalar entry points (``CycloRational.__mul__``
  runs about 1.3 M times in E313); they record only a call count and self
  time, keyed by the name of the innermost active span.

Self time is a call's duration minus the time spent in wrapped calls below it.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (module, attribute path, layer metric name, kind)
TARGETS = [
    ("qtheta.verify", "verify_equation", "verify.verify_equation", "span"),
    ("qtheta.series", "TorusSeries.coeff", "series.coeff", "span"),
    ("qtheta.series", "LatticeFactor.coeff_at", "series.coeff_at", "agg"),
    ("qtheta.quadenum", "enumerate_sublevel", "quadenum.enumerate_sublevel", "span"),
    ("qtheta.scalars", "CycloRational.__mul__", "scalars.cyclo_mul", "agg"),
    ("qtheta.scalars", "UnitMonomial.__mul__", "scalars.mono_mul", "agg"),
    ("qtheta.scalars", "UnitMonomial.__pow__", "scalars.mono_pow", "agg"),
    ("qtheta.scalars", "ScalarSeries.__add__", "scalars.series_add", "agg"),
    ("qtheta.scalars", "ScalarSeries.__mul__", "scalars.series_mul", "agg"),
    ("qtheta.torus", "TorusPoint.eval", "torus.point_eval", "agg"),
    ("qtheta.named", "eq_coefficient", "named.eq_coefficient", "agg"),
    ("qtheta.named", "eq_inv_coefficient", "named.eq_inv_coefficient", "agg"),
    ("qtheta.heisenberg", "heis_act", "heisenberg.heis_act", "span"),
    ("qtheta.intlinalg", "smith_normal_form", "intlinalg.smith_normal_form", "agg"),
    ("qtheta.intlinalg", "mat_vec", "intlinalg.mat_vec", "agg"),
    ("qtheta.multiplier", "compose", "multiplier.compose", "span"),
    ("qtheta.multiplier", "theta_dim_basis", "multiplier.theta_dim_basis", "span"),
    ("qtheta.multiplier", "theta_membership", "multiplier.theta_membership", "span"),
    ("qtheta.smallheis", "group_structure", "smallheis.group_structure", "span"),
    ("qtheta.smallheis", "act_on_theta", "smallheis.act_on_theta", "span"),
]

MARK = "__perfbench_layer__"
ROOT = "(root)"


class Stat:
    __slots__ = ("calls", "self_s", "extra", "extra_n")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.extra = 0  # points returned / term pairs / summed trunc excess
        self.extra_n = 0  # refusals / samples of the trunc excess


def _series_mul_pairs(args):
    a, b = args[0], args[1]
    return len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)


def _trunc_excess(args, result):
    """Returned ``trunc`` minus the requested order (None when either is infinite)."""
    order, trunc = args[2], result.trunc
    if isinstance(order, int) and isinstance(trunc, int):
        return trunc - order
    return None


class Tracer:
    """Installs the wrappers, collects stats and spans, and restores the originals."""

    def __init__(self):
        self.stats = {name: {} for _, _, name, _ in TARGETS}  # name -> span -> Stat
        self.spans = []  # (id, parent id, name, start, end)
        self._sites = []  # (holder, attribute, original)
        self._stack = [0.0]  # child-time accumulators, one per active wrapper
        self._active = [(0, ROOT)]  # (span id, span name)
        self._next_id = 1

    # -- wrappers ------------------------------------------------------------

    def _make(self, fn, name, kind):
        clock = time.perf_counter
        stack = self._stack
        active = self._active
        table = self.stats[name]
        spans = self.spans
        if name == "quadenum.enumerate_sublevel":
            def post(st, args, result):
                st.extra += len(result)
        elif name == "scalars.series_mul":
            def post(st, args, result):
                st.extra += _series_mul_pairs(args)
        elif name.startswith("named."):
            def post(st, args, result):
                excess = _trunc_excess(args, result)
                if excess is not None:
                    st.extra += excess
                    st.extra_n += 1
        else:
            post = None
        refusal = None
        if name == "quadenum.enumerate_sublevel":
            from qtheta.errors import NotMultipliable as refusal

        def stat_for(span_name):
            st = table.get(span_name)
            if st is None:
                st = table[span_name] = Stat()
            return st

        if kind == "span":
            def wrapper(*args, **kwargs):
                sid = self._next_id
                self._next_id = sid + 1
                parent = active[-1][0]
                active.append((sid, name))
                stack.append(0.0)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    if refusal is not None and isinstance(exc, refusal):
                        stat_for(active[-2][1]).extra_n += 1
                    raise
                finally:
                    t1 = clock()
                    dt = t1 - t0
                    child = stack.pop()
                    stack[-1] += dt
                    active.pop()
                    st = stat_for(active[-1][1])
                    st.calls += 1
                    st.self_s += dt - child
                    spans.append((sid, parent, name, t0, t1))
                if post is not None:
                    post(stat_for(active[-1][1]), args, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    child = stack.pop()
                    stack[-1] += dt
                    st = stat_for(active[-1][1])
                    st.calls += 1
                    st.self_s += dt - child
                if post is not None:
                    post(stat_for(active[-1][1]), args, result)
                return result

        setattr(wrapper, MARK, name)
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every target on every name that holds it; returns sites per target."""
        holders = _qtheta_holders()
        per_target = {}
        for modname, path, name, kind in TARGETS:
            orig = _resolve(modname, path)
            wrapper = self._make(orig, name, kind)
            count = 0
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, attr, wrapper)
                        self._sites.append((holder, attr, orig))
                        count += 1
            if count == 0:
                raise RuntimeError(f"no binding found for {modname}.{path}")
            per_target[name] = count
        return per_target

    def uninstall(self):
        for holder, attr, orig in reversed(self._sites):
            setattr(holder, attr, orig)
        self._sites.clear()

    def reset(self):
        for table in self.stats.values():
            table.clear()
        self.spans.clear()

    # -- results ----------------------------------------------------------------

    def totals(self):
        """Per-layer metric values summed over the enclosing spans."""
        out = {}
        for name, table in self.stats.items():
            calls = sum(st.calls for st in table.values())
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = sum(st.self_s for st in table.values())
            extra = sum(st.extra for st in table.values())
            extra_n = sum(st.extra_n for st in table.values())
            if name == "quadenum.enumerate_sublevel":
                out[f"{name}.points"] = extra
                out[f"{name}.refused"] = extra_n
            elif name == "scalars.series_mul":
                out[f"{name}.pairs"] = extra
            elif name.startswith("named."):
                out[f"{name}.trunc_excess_mean"] = extra / extra_n if extra_n else 0.0
        return out

    def dump(self, path):
        """Write spans and per-span aggregates as one JSON document."""
        names = sorted({s[2] for s in self.spans} | {ROOT} | set(self.stats))
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "span_fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": [[s[0], s[1], index[s[2]], s[3], s[4]] for s in self.spans],
            "aggregates": {
                name: {
                    span: {"calls": st.calls, "self_s": st.self_s}
                    for span, st in sorted(table.items())
                }
                for name, table in self.stats.items()
            },
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _resolve(modname, path):
    obj = importlib.import_module(modname)
    for part in path.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


def _qtheta_holders():
    """Every qtheta module and every class defined in one."""
    mods = [m for n, m in sorted(sys.modules.items()) if n == "qtheta" or n.startswith("qtheta.")]
    holders = list(mods)
    seen = set()
    for mod in mods:
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__.startswith("qtheta") and id(value) not in seen:
                seen.add(id(value))
                holders.append(value)
    return holders


def installed_wrappers():
    """Names of qtheta bindings that currently hold a wrapper from this module."""
    found = []
    for holder in _qtheta_holders():
        for attr, value in vars(holder).items():
            if getattr(value, MARK, None) is not None:
                found.append(f"{getattr(holder, '__name__', holder)}.{attr}")
    return found
