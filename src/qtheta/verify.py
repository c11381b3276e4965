"""The equation verifier and the registry of named identities.

An equation is a finite sum of terms, each a scalar coefficient times a word
of series and operator factors; verification expands every term on a window
of lattice cells to a fixed u-order and demands exact cancellation --
tolerance is zero, any mismatch is a bug or a falsified identity.

Registered identities (verified at their desk-scale default windows):

  E012  theta shift equations  q^(m^2) t^m theta(q^(2m) t) = theta(t)
  E016  the q-exponential shift  e_q(t) = (1 + q t) e_q(q^2 t)
  E023  quantum addition  e_q(u) e_q(v) = e_q(u + v)        (uv = q^2 vu)
  E024  the quantum pentagon  e_q(v) e_q(u) = e_q(u) e_q(qvu) e_q(v)
  E025  the theta braid  th(u) th(v) th(u) = th(v) th(u) th(v)
  E026  the Yang-Baxter ratio identity for r(z, t)
  E332  theta lifts on the two-dimensional torus: four shift equations
        plus both cross-product equations
  E313  invariance of the multiplication-kernel theta
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .errors import NotMultipliable, UnknownName, UnresolvedReference
from .heisenberg import HeisElement, HeisRaw, heis_act
from .named import (
    eq_addition_series,
    eq_series,
    r_series,
    theta_series,
    weinstein_norm,
    weinstein_param,
    weinstein_shift_point,
    weinstein_theta,
    _yang_baxter_param,
)
from .scalars import CycloField, UnitMonomial, add_into
from .series import TorusSeries
from .torus import QuantParam, TorusPoint

OPERATOR = "operator_equation"
PRODUCT = "product_identity"


@dataclass
class EquationTerm:
    coefficient: UnitMonomial
    word: list  # TorusSeries | HeisRaw | HeisElement


@dataclass
class EquationSpec:
    param: QuantParam
    terms: list[EquationTerm]
    window: int
    order: int
    mode: str = PRODUCT
    label: str = ""

    def cells(self):
        return self.param.window_cells(self.window)


def _term_series(term: EquationTerm) -> tuple[UnitMonomial, TorusSeries]:
    """(coefficient, series of the word).  The coefficient is applied to each
    cell's value, so a word that is one shared series keeps its cache."""
    acc: Optional[TorusSeries] = None
    for op in reversed(term.word):
        if isinstance(op, (HeisRaw, HeisElement)):
            if acc is None:
                raise UnresolvedReference("operator factor with nothing to act on")
            acc = heis_act(op, acc)
        elif isinstance(op, TorusSeries):
            acc = op if acc is None else op.mul(acc)
        else:
            raise UnresolvedReference(f"unknown word factor {op!r}")
    if acc is None:
        raise UnresolvedReference("empty word")
    return term.coefficient, acc


def verify_equation(spec: EquationSpec) -> dict:
    """Expand all terms on the window and compare coefficient-exactly.

    Each term is read from its series' table, filled in one pass.  In a
    spec ``lhs - rhs``, a cell whose sides have equal terms, both known to
    the order, cancels exactly and passes; any other cell sums its terms
    with ``add_into`` and reports the lowest u-exponent left, or the order
    it is known to."""
    if spec.mode == PRODUCT:
        for t in spec.terms:
            for op in t.word:
                if isinstance(op, TorusSeries) and not op.is_multipliable():
                    raise NotMultipliable(
                        "formal-kind operand in a product identity"
                    )
    terms = [*map(_term_series, spec.terms)]
    the_cells = sorted(spec.cells())
    order = spec.order
    checked = 0
    first_mismatch = None
    # a pass must mean something was compared
    if order < 0:
        first_mismatch = {"cell": None, "uexp": None, "reason": f"negative order {order}"}
        the_cells = []
    elif not the_cells:
        first_mismatch = {"cell": None, "uexp": None, "reason": "no cells to check"}
    elif not terms:
        first_mismatch = {"cell": None, "uexp": None, "reason": "no terms to compare"}
        the_cells = []
    tables = []
    for c, s in terms:
        # one pass per term; a refusal is met again cell by cell
        try:
            tables.append(s._table(the_cells, order - c.uexp))
        except NotMultipliable:
            tables.append(None)
    sides = len(terms) == 2 and terms[0][0].is_one() and (-terms[1][0]).is_one() and None not in tables
    lhs, rhs = tables if sides else (None, None)
    for h in the_cells:
        checked += 1
        if sides and (a := lhs[h]).terms == (b := rhs[h]).terms and a.trunc >= order and b.trunc >= order:
            continue
        acc: dict = {}
        trunc = order
        for (c, s), table in zip(terms, tables):
            # c * (value known to order - uexp(c)) is known to order
            value = s.coeff(h, order - c.uexp) if table is None else table[h]
            trunc = add_into(acc, value, order, trunc, c.uexp, c.coeff)
        if trunc < order:
            # a silent precision drop would weaken the pass claim
            first_mismatch = {
                "cell": list(h),
                "uexp": None,
                "reason": f"coefficient known only to order {trunc}",
            }
            break
        if acc:
            first_mismatch = {"cell": list(h), "uexp": int(min(acc))}
            break
    return _report(spec.label, spec.window, order, checked, first_mismatch)


def _report(identity, window, order, checked, first_mismatch) -> dict:
    """The schema-1 verification report; ``first_mismatch`` None means pass."""
    report = {
        "schema": 1,
        "identity": identity,
        "window": window,
        "order": int(order),
        "cells_checked": checked,
        "status": "pass" if first_mismatch is None else "fail",
    }
    if first_mismatch is not None:
        report["first_mismatch"] = first_mismatch
    return report


# ---------------------------------------------------------------------------
# identity registry


def _two_sided(param, label, lhs, rhs, window, order, coeff=None, mode=PRODUCT) -> EquationSpec:
    """The spec ``coeff * lhs - rhs``, ``coeff`` 1 when None; with 1,
    ``verify_equation`` compares the two sides without summing them."""
    one = UnitMonomial.one(param.field)
    terms = [EquationTerm(one if coeff is None else coeff, lhs), EquationTerm(-one, rhs)]
    return EquationSpec(param, terms, window, order, mode=mode, label=label)


def _build_e012(field: CycloField, window: int, order: int) -> list[EquationSpec]:
    p = QuantParam.trivial(field, 1)
    theta = theta_series(p, (1,), label="theta")
    specs = []
    for m in range(-2, 3):
        gamma = HeisRaw(
            p,
            UnitMonomial.q_power(field, m * m),
            TorusPoint.from_q_exps(field, [2 * m]),
            (m,),
            (0,),
        )
        specs.append(
            _two_sided(p, f"E012[m={m}]", [gamma, theta], [theta], window, order, mode=OPERATOR)
        )
    return specs


def _build_e016(field: CycloField, window: int, order: int) -> list[EquationSpec]:
    # e_q(t) - (1 + q t) e_q(q^2 t) = 0 (the shift consistent with the
    # product definition of e_q)
    p = QuantParam.trivial(field, 1)
    eq = eq_series(p, (1,), label="e_q")
    shifted = eq.shift_pullback(TorusPoint.from_q_exps(field, [2]))
    poly = TorusSeries.from_dict(
        p,
        {(0,): UnitMonomial.one(field), (1,): UnitMonomial.q_power(field, 1)},
        label="1+qt",
    )
    return [_two_sided(p, "E016", [eq], [poly, shifted], window, order)]


def _build_e023(field: CycloField, window: int, order: int) -> list[EquationSpec]:
    p = QuantParam.standard_tq(field)
    eu = eq_series(p, (1, 0), label="e_q(u)")
    ev = eq_series(p, (0, 1), label="e_q(v)")
    esum = eq_addition_series(p, (1, 0), (0, 1))
    return [_two_sided(p, "E023", [eu, ev], [esum], window, order)]


def _build_e024(field: CycloField, window: int, order: int) -> list[EquationSpec]:
    p = QuantParam.standard_tq(field)
    eu = eq_series(p, (1, 0), label="e_q(u)")
    ev = eq_series(p, (0, 1), label="e_q(v)")
    # qvu = q e(h2) e(h1) = e(h1 + h2)
    emid = eq_series(p, (1, 1), label="e_q(qvu)")
    return [_two_sided(p, "E024", [ev, eu], [eu, emid, ev], window, order)]


def _build_e025(field: CycloField, window: int, order: int) -> list[EquationSpec]:
    p = QuantParam.standard_tq(field)
    tu = theta_series(p, (1, 0), label="theta(u)")
    tv = theta_series(p, (0, 1), label="theta(v)")
    return [_two_sided(p, "E025", [tu, tv, tu], [tv, tu, tv], window, order)]


def _build_e026(field: CycloField, window: int, order: int) -> list[EquationSpec]:
    p = _yang_baxter_param(field)
    u, v = (1, 0, 0, 0), (0, 1, 0, 0)
    z, zp = (0, 0, 1, 0), (0, 0, 0, 1)
    zzp = (0, 0, 1, 1)
    lhs = [r_series(p, u, z, "r(z,u)"), r_series(p, v, zzp, "r(zz',v)"), r_series(p, u, zp, "r(z',u)")]
    rhs = [r_series(p, v, zp, "r(z',v)"), r_series(p, u, zzp, "r(zz',u)"), r_series(p, v, z, "r(z,v)")]
    return [_two_sided(p, "E026", lhs, rhs, window, order)]


def _build_e332(field: CycloField, window: int, order: int) -> list[EquationSpec]:
    p = QuantParam.standard_tq(field)
    tu = theta_series(p, (1, 0), label="theta(u)")
    tv = theta_series(p, (0, 1), label="theta(v)")
    q1 = UnitMonomial.q_power(field, 1)
    qm1 = UnitMonomial.q_power(field, -1)

    def e(h, coeff=None):
        return TorusSeries.exponent(p, h, coeff)

    rows = [
        # q u v^-1 theta(u) v = theta(u)
        ("E332[quv-1.th(u).v]", q1, [e((1, 0)), e((0, -1)), tu, e((0, 1))], [tu]),
        # u theta(u) u^-1 = theta(u)
        ("E332[u.th(u).u-1]", None, [e((1, 0)), tu, e((-1, 0))], [tu]),
        # q v u theta(v) u^-1 = theta(v)
        ("E332[qvu.th(v).u-1]", q1, [e((0, 1)), e((1, 0)), tv, e((-1, 0))], [tv]),
        # v^-1 theta(v) v = theta(v)
        ("E332[v-1.th(v).v]", None, [e((0, -1)), tv, e((0, 1))], [tv]),
        # cross products: q u v^-1 theta(u) theta(v) v = theta(u) theta(v)
        ("E332[quv-1.th(u)th(v).v]", q1, [e((1, 0)), e((0, -1)), tu, tv, e((0, 1))], [tu, tv]),
        # q^-1 u theta(u) theta(v) v u^-1 = theta(u) theta(v)
        ("E332[q-1u.th(u)th(v).vu-1]", qm1, [e((1, 0)), tu, tv, e((0, 1)), e((-1, 0))], [tu, tv]),
    ]
    return [_two_sided(p, label, lhs, rhs, window, order, c) for label, c, lhs, rhs in rows]


def _build_e313(field: CycloField, window: int, order: int) -> list[EquationSpec]:
    base = QuantParam.standard_tq(field)
    dbl = weinstein_param(base)
    theta_w = weinstein_theta(base)
    kset = [
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (-1, 0, 0, 0),
        (0, 0, 0, -1),
        (1, 0, 1, 0),
        (0, 1, 0, 1),
        (1, 1, -1, 0),
        (2, 0, 0, 1),
    ]
    specs = []
    for k in kset:
        gamma = HeisRaw(
            dbl,
            weinstein_norm(base, k),
            weinstein_shift_point(base, k),
            k,
            (0, 0, 0, 0),
        )
        specs.append(
            _two_sided(dbl, f"E313[k={k}]", [gamma, theta_w], [theta_w], window, order, mode=OPERATOR)
        )
    return specs


REGISTRY = {
    "E012": (_build_e012, 8, 80),
    "E016": (_build_e016, 10, 40),
    "E023": (_build_e023, 4, 16),
    "E024": (_build_e024, 4, 16),
    "E025": (_build_e025, 5, 25),
    "E026": (_build_e026, 3, 12),
    "E332": (_build_e332, 5, 25),
    "E313": (_build_e313, 4, 40),
}


def identity_specs(
    identity_id: str,
    field: Optional[CycloField] = None,
    window: Optional[int] = None,
    order: Optional[int] = None,
) -> list[EquationSpec]:
    if identity_id not in REGISTRY:
        raise UnknownName(f"unknown identity {identity_id!r}")
    builder, def_window, def_order = REGISTRY[identity_id]
    field = field or CycloField(1)
    return builder(
        field,
        def_window if window is None else window,
        def_order if order is None else order,
    )


def verify_named(
    identity_id: str,
    field: Optional[CycloField] = None,
    window: Optional[int] = None,
    order: Optional[int] = None,
) -> dict:
    """Run a registered identity at its canonical (or given) window/order."""
    specs = identity_specs(identity_id, field, window, order)
    total_checked = 0
    first = None
    for spec in specs:
        rep = verify_equation(spec)
        total_checked += rep["cells_checked"]
        if rep["status"] == "fail":
            first = dict(rep["first_mismatch"])
            first["equation"] = spec.label
            break
    return _report(identity_id, specs[0].window, specs[0].order, total_checked, first)


def emit_report(results: Union[dict, Sequence[dict]]) -> str:
    """Deterministic, schema-versioned JSON."""
    return json.dumps(results, sort_keys=True, indent=2)
