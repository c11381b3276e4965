"""Command-line driver.

Subcommands:

  verify <identity_id | spec.json>     run a registered identity or a JSON
                                       equation spec; exit 0 on pass, 1 on fail
  theta <multiplier.json | builtin:X>  theta space dimension and basis dump
  compose <m2.json> <m1.json>          pointwise composition of multipliers
  small-group <multiplier.json>        small Heisenberg structure report
  act <elem.json> <multiplier.json>    action matrix on the canonical basis

Global flags: --cyclotomic-order M, --out FILE, --window R, --order N.
Mathematical failures exit 1 with a JSON report on stdout; usage errors,
malformed input, unreadable or unwritable files and unknown names exit 2.
"""

from __future__ import annotations

import argparse
import sys

from .errors import DimensionMismatch, QThetaError, UnknownName, UnresolvedReference
from .heisenberg import HeisElement, HeisRaw
from .intlinalg import INFINITE
from .jsonio import JsonReader, load, multiplier_from_json, multiplier_to_json, param_from_json
from .multiplier import Multiplier, compose as compose_multipliers, multiplier_new, power, theta_dim_basis
from .named import builtin_series
from .scalars import CycloField, UnitMonomial, series_to_json
from .series import TorusSeries
from .smallheis import act_on_theta, group_structure
from .torus import QuantParam, TorusPoint
from .verify import (
    REGISTRY,
    EquationSpec,
    EquationTerm,
    emit_report,
    verify_equation,
    verify_named,
)


def builtin_multiplier(name: str, field: CycloField) -> Multiplier:
    p1 = QuantParam.trivial(field, 1)
    q1 = UnitMonomial.q_power(field, 1)
    if name == "jacobi":
        img = HeisElement(p1, q1, TorusPoint.from_q_exps(field, [2]), (1,))
        return multiplier_new(p1, [img], [[q1]])
    if name == "jacobi2":
        return power(builtin_multiplier("jacobi", field), 2)
    if name == "negated":
        img = HeisElement(
            p1, UnitMonomial.q_power(field, -1), TorusPoint.from_q_exps(field, [-2]), (1,)
        )
        return multiplier_new(p1, [img], [[UnitMonomial.q_power(field, -1)]])
    raise UnknownName(f"unknown builtin multiplier {name!r}")


class InputError(Exception):
    """A command-line input is malformed (exit 2, not a mathematical failure)."""


def _read_json(path: str, parse):
    """``parse(load(path))``, with malformed content -- unknown names and
    misshapen matrices too -- reported as InputError."""
    try:
        return parse(load(path))
    except (
        ValueError, KeyError, TypeError, DimensionMismatch, UnknownName, UnresolvedReference
    ) as exc:
        # json.JSONDecodeError is a ValueError
        raise InputError(f"malformed input {path}: {type(exc).__name__}: {exc}") from exc


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _load_multiplier(arg: str, field: CycloField) -> Multiplier:
    if arg.startswith("builtin:"):
        try:
            return builtin_multiplier(arg.split(":", 1)[1], field)
        except UnknownName as exc:
            raise InputError(str(exc)) from exc
    return _read_json(arg, multiplier_from_json)


def _spec_from_json(data: dict) -> EquationSpec:
    param = param_from_json(data["param"])
    read = JsonReader(param)

    def count(key):
        v = data[key]
        if type(v) is not int or v < 0:  # bool is an int subclass
            raise ValueError(f"{key} must be a non-negative integer, got {v!r}")
        return v

    terms = []
    if not data["terms"]:
        raise ValueError("spec has no terms")
    for t in data["terms"]:
        coeff = read.mono(t["coeff"]) if "coeff" in t else UnitMonomial.one(param.field)
        word = []
        for w in t["word"]:
            kind = w.get("type")
            if kind == "builtin":
                s = builtin_series(w["name"], param.field)
                if s.param != param:
                    raise UnresolvedReference(
                        f"builtin {w['name']} lives on a different torus"
                    )
                word.append(s)
            elif kind == "exponent":
                c = read.mono(w["coeff"]) if "coeff" in w else None
                word.append(TorusSeries.exponent(param, read.vec(w, "h"), c))
            elif kind == "heis":
                c, x = read.mono(w["c"]), read.point(w, "x")
                word.append(HeisRaw(param, c, x, read.vec(w, "g"), read.vec(w, "h")))
            else:
                raise UnresolvedReference(f"unknown word factor type {kind!r}")
        terms.append(EquationTerm(coeff, word))
    return EquationSpec(param, terms, count("window"), count("order"), label=data.get("identity", "custom"))


def _emit(report, out_path):
    text = emit_report(report)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _command_report(args, field: CycloField) -> dict:
    """The report of the subcommand ``args`` names, before it is emitted."""
    if args.command == "verify":
        if args.identity in REGISTRY:
            return verify_named(
                args.identity,
                field,
                window=args.window,
                order=args.order,
            )
        spec = _read_json(args.identity, _spec_from_json)
        if args.window is not None:
            spec.window = args.window
        if args.order is not None:
            spec.order = args.order
        return verify_equation(spec)

    if args.command == "theta":
        L = _load_multiplier(args.multiplier, field)
        tb = theta_dim_basis(L, window=args.window, order=args.order)
        return {
            "schema": 1,
            "dim": tb.dim,
            "index": None if L.index() == INFINITE else int(L.index()),
            "ample": L.is_ample(),
            "window": args.window,
            "order": args.order,
            "cosets": [list(r) for r in tb.coset_reps],
            "inconsistent": [
                {"coset": list(rep), "reason": reason} for rep, reason in tb.inconsistent
            ],
            "basis": [s.window_dump(args.window, args.order) for s in tb.basis],
        }

    if args.command == "compose":
        L2 = _load_multiplier(args.m2, field)
        L1 = _load_multiplier(args.m1, field)
        composed = compose_multipliers(L2, L1)
        report = multiplier_to_json(composed)
        report["ample"] = composed.is_ample()
        return report

    if args.command == "small-group":
        L = _load_multiplier(args.multiplier, field)
        struct = group_structure(L)
        duality = [
            {"kappa": list(kidx), "coset": ci, "exponent": e}
            for (kidx, ci), e in sorted(struct.duality.items())
        ]
        return {
            "schema": 1,
            "index": int(struct.quotient.index),
            "kappa_orders": list(struct.kappa_orders),
            "kappa_generators": [
                [str(v.coeff) for v in g.values] for g in struct.kappa_generators
            ],
            "coset_reps": [list(r) for r in struct.quotient.coset_reps],
            "torsion_order": struct.torsion_order,
            "duality": duality,
        }

    if args.command == "act":
        L = _load_multiplier(args.multiplier, field)
        elem = _read_json(args.element, JsonReader(L.param).smallelem)
        tb = theta_dim_basis(L, window=args.window, order=args.order)
        matrix = act_on_theta(L, elem, tb, window=args.window, order=args.order)
        return {
            "schema": 1,
            "dim": tb.dim,
            "cosets": [list(r) for r in tb.coset_reps],
            "matrix": [[series_to_json(x) for x in row] for row in matrix],
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="qtheta", description=__doc__)
    parser.add_argument("--cyclotomic-order", type=int, default=1, metavar="M")
    parser.add_argument("--out", default=None, metavar="FILE")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify a named or JSON identity")
    p_verify.add_argument("identity")
    p_verify.add_argument("--window", type=_non_negative, default=None)
    p_verify.add_argument("--order", type=_non_negative, default=None)

    p_theta = sub.add_parser("theta", help="theta space dimension and basis")
    p_theta.add_argument("multiplier")
    p_theta.add_argument("--window", type=_non_negative, default=6)
    p_theta.add_argument("--order", type=_non_negative, default=60)

    p_comp = sub.add_parser("compose", help="compose two multipliers (m2 o m1)")
    p_comp.add_argument("m2")
    p_comp.add_argument("m1")

    p_small = sub.add_parser("small-group", help="small Heisenberg structure")
    p_small.add_argument("multiplier")

    p_act = sub.add_parser("act", help="action matrix on the canonical basis")
    p_act.add_argument("element")
    p_act.add_argument("multiplier")
    p_act.add_argument("--window", type=_non_negative, default=4)
    p_act.add_argument("--order", type=_non_negative, default=60)

    args = parser.parse_args(argv)
    try:
        field = CycloField(args.cyclotomic_order)
    except ValueError as exc:
        print(f"error: --cyclotomic-order {args.cyclotomic_order}: {exc}", file=sys.stderr)
        return 2

    try:
        try:
            report = _command_report(args, field)
        except QThetaError as exc:
            report = {
                "schema": 1,
                "status": "fail",
                "error": type(exc).__name__,
                "message": str(exc),
            }
        _emit(report, args.out)
    except (OSError, InputError) as exc:
        # a missing file, or a directory where a file belongs
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if report.get("status") == "fail" else 0


if __name__ == "__main__":
    sys.exit(main())
