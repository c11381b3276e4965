"""JSON (de)serialization of the engine's data types.

Schemas (all rationals as "p/q" strings, cyclotomic elements as coefficient
vectors over the power basis):

  monomial    {"m": int, "coeff": [str...], "uexp": int}
  param       {"m": int, "rank": int, "A": [[int]], "S": [[int]]}
  point       [monomial...]
  heis        {"c": monomial, "x": point, "h_l": [int]}
  multiplier  {"param": param, "B_rank": int, "images": [heis],
               "sqrt": [[monomial]] | null}
  smallelem   {"c": monomial, "xi": point, "gamma": [int]}

Multipliers, elements and the parts of CLI equation specs are read through
:class:`JsonReader`, which refuses input of another field or rank.  Every
int field must be a JSON integer and every rational a string: a float, a
bool or a number in a string raises ValueError rather than be truncated.
"""

from __future__ import annotations

import json

from .errors import DivisionByZero
from .heisenberg import HeisElement
from .intlinalg import Lattice, Vec, mat
from .multiplier import Multiplier
from .scalars import CycloField, UnitMonomial, _int, monomial_from_json, monomial_to_json
from .torus import QuantParam, TorusPoint


def param_to_json(p: QuantParam) -> dict:
    return {
        "m": p.field.order,
        "rank": p.rank,
        "A": [list(r) for r in p.A],
        "S": [list(r) for r in p.S],
    }


def param_from_json(data: dict) -> QuantParam:
    A, S = ([[_int(x, key) for x in row] for row in data[key]] for key in ("A", "S"))
    field = CycloField(_int(data["m"], "m"))
    return QuantParam(field, Lattice(_int(data["rank"], "rank")), mat(A), mat(S))


class JsonReader:
    """Validated reading over one torus: a monomial must have int ``m`` and
    ``uexp`` and string coefficients, lie over its field and be nonzero, a
    vector must be ``rank`` ints and a point ``rank`` such monomials;
    anything else raises ValueError."""

    def __init__(self, param: QuantParam):
        self.param = param

    def mono(self, data: dict) -> UnitMonomial:
        try:
            c = monomial_from_json(data)
        except DivisionByZero as exc:
            raise ValueError(f"monomial with coefficient 0: {data!r}") from exc
        field = self.param.field
        if c.field is not field:
            raise ValueError(f"monomial over Q(zeta_{c.field.order}), not Q(zeta_{field.order})")
        return c

    def vec(self, data: dict, key: str) -> Vec:
        v, rank = data[key], self.param.rank
        # bool is an int subclass
        if not isinstance(v, list) or len(v) != rank or any(type(x) is not int for x in v):
            raise ValueError(f"{key} must be {rank} integers, got {v!r}")
        return tuple(v)

    def point(self, data: dict, key: str) -> TorusPoint:
        v, rank = data[key], self.param.rank
        if not isinstance(v, list) or len(v) != rank:
            raise ValueError(f"{key} must be {rank} monomials, got {v!r}")
        return TorusPoint(tuple(map(self.mono, v)))

    def heis(self, data: dict) -> HeisElement:
        c, x = self.mono(data["c"]), self.point(data, "x")
        return HeisElement(self.param, c, x, self.vec(data, "h_l"))

    def smallelem(self, data: dict):
        from .smallheis import SmallHeisElement

        return SmallHeisElement(
            self.mono(data["c"]), self.point(data, "xi"), self.vec(data, "gamma")
        )


def point_to_json(x: TorusPoint) -> list:
    return [monomial_to_json(v) for v in x.values]


def heis_to_json(e: HeisElement) -> dict:
    return {
        "c": monomial_to_json(e.c),
        "x": point_to_json(e.x),
        "h_l": list(e.h_l),
    }


def multiplier_to_json(L: Multiplier) -> dict:
    return {
        "param": param_to_json(L.param),
        "B_rank": L.rank,
        "images": [heis_to_json(img) for img in L.images],
        "sqrt": None
        if L.sqrt_pairing is None
        else [[monomial_to_json(u) for u in row] for row in L.sqrt_pairing],
    }


def multiplier_from_json(data: dict) -> Multiplier:
    param = param_from_json(data["param"])
    read = JsonReader(param)
    images = [read.heis(i) for i in data["images"]]
    sqrt = data.get("sqrt")
    if sqrt is not None:
        sqrt = [[read.mono(u) for u in row] for row in sqrt]
    return Multiplier(param, images, sqrt)


def smallelem_to_json(c: UnitMonomial, xi: TorusPoint, gamma) -> dict:
    return {"c": monomial_to_json(c), "xi": point_to_json(xi), "gamma": list(gamma)}


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
