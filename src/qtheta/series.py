"""Formal functions on a quantum torus, with exact truncated products.

A :class:`TorusSeries` is a *word* of factors, each factor a formal function
with known support structure:

* :class:`FiniteFactor` -- finitely many exponents with explicit scalar
  coefficients (the "algebraic" building block);
* :class:`LatticeFactor` -- coefficients given by a rule on an affine family
  ``offset + sum_i y_i gen_i`` of lattice points, together with an exact
  quadratic lower bound for the u-adic valuation of the coefficient at the
  parameter ``y`` (the properness certificate) and optional cone constraints
  ``y_i >= 0``.

The product of two series is word concatenation (cost O(1)); all the work
happens when a coefficient is requested: the engine solves the affine
support equations, assembles the exact valuation bound

    T(y) = sum of factor valuations + pairwise alpha exponents,

and enumerates { y : T(y) <= order } with :mod:`qtheta.quadenum`.  Every
dropped term provably lies above the truncation order, so coefficients are
exact to the requested order -- the sum is "restricted by the enumerators to
finitely many terms".

Kinds: *algebraic* (all factors finite), *proper* (all lattice factors carry
valuation certificates), *formal* (some factor is window-only; products are
refused, but single Heisenberg actions still evaluate cell by cell).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul
from typing import Callable, Iterable, Optional, Sequence, Union

from .errors import NotMultipliable, ParamMismatch
from .intlinalg import IntegerSolver, Vec, vec_add, vec_sub, zero_vec
from .quadenum import QuadExpr, enumerate_sublevel
from .scalars import INF, ScalarSeries, UnitMonomial
from .torus import QuantParam, TorusPoint

Scalar = Union[UnitMonomial, ScalarSeries]

ALGEBRAIC = "algebraic"
PROPER = "proper"
FORMAL = "formal"


class FiniteFactor:
    """Finitely supported factor: explicit exponent -> coefficient table."""

    __slots__ = ("param", "table", "label")

    def __init__(self, param: QuantParam, table: dict, label: str = ""):
        self.param = param
        self.table = {tuple(k): v for k, v in table.items()}
        self.label = label or "finite"

    @property
    def is_finite(self) -> bool:
        return True

    def items(self):
        return self.table.items()

    def __repr__(self):
        return f"FiniteFactor({self.label}, {len(self.table)} pts)"


class LatticeFactor:
    """Rule-defined factor on an affine family of lattice points.

    ``coeff(y, order)`` returns the coefficient at ``offset + sum y_i gens_i``
    exact to the given order (or exactly); ``val`` is a QuadExpr lower bound
    for its valuation, valid wherever the coefficient is nonzero.  ``None``
    marks a window-only (formal) factor.
    """

    __slots__ = ("param", "offset", "gens", "coeff", "val", "cones", "label", "_memo")

    def __init__(
        self,
        param: QuantParam,
        offset: Vec,
        gens: Sequence[Vec],
        coeff: Callable[[tuple, object], Optional[Scalar]],
        val: Optional[QuadExpr],
        cones: Sequence[bool] = (),
        label: str = "",
    ):
        self.param = param
        self.offset = tuple(offset)
        self.gens = tuple(tuple(g) for g in gens)
        self.coeff = coeff
        self.val = val
        self.cones = tuple(cones) if cones else (False,) * len(self.gens)
        self.label = label or "lattice"
        self._memo: dict = {}

    @property
    def is_finite(self) -> bool:
        return False

    @property
    def nparams(self) -> int:
        return len(self.gens)

    def point(self, y: Sequence[int]) -> Vec:
        p = list(self.offset)
        for yi, g in zip(y, self.gens):
            if yi:
                for k in range(len(p)):
                    p[k] += yi * g[k]
        return tuple(p)

    def coeff_at(self, y: tuple, order) -> Optional[Scalar]:
        key = (y, order)
        hit = self._memo.get(key)
        if hit is None and key not in self._memo:
            hit = self.coeff(y, order)
            self._memo[key] = hit
        return hit

    def __repr__(self):
        return f"LatticeFactor({self.label}, params={self.nparams})"


Factor = Union[FiniteFactor, LatticeFactor]


_ZERO_TERM = object()  # combo marker: a chosen finite value is zero


def _alpha_form(pair, word, chosen, offs):
    """sum over i < j of pair(p_i, p_j) for the ordered word's points, where
    p_i is a finite factor's chosen point or ``offset + G y`` on a lattice
    factor's parameter block (starting at ``offs[i]``), as an integer
    quadratic in the concatenated parameters y: (const, ((a, coeff), ...),
    ((a, b, coeff), ...)), the last being unsymmetrised terms coeff*y_a*y_b.
    """
    data = [
        (chosen[wi][0], ()) if f.is_finite else (f.offset, tuple(enumerate(f.gens, offs[wi])))
        for wi, f in enumerate(word)
    ]
    const = 0
    lin = {}
    cross = []
    for i, (ti, gi) in enumerate(data):
        for tj, gj in data[i + 1 :]:
            const += pair(ti, tj)
            for b, col in gj:
                lin[b] = lin.get(b, 0) + pair(ti, col)
            for a, col in gi:
                lin[a] = lin.get(a, 0) + pair(col, tj)
                for b, colj in gj:
                    x = pair(col, colj)
                    if x:
                        cross.append((a, b, x))
    return const, tuple((a, x) for a, x in sorted(lin.items()) if x), tuple(cross)


def _form_at(form, y) -> int:
    const, lin, cross = form
    return const + sum(x * y[a] for a, x in lin) + sum(x * y[a] * y[b] for a, b, x in cross)


class _SubstEngine:
    """Substitutes y = y0 + K z into a fixed quadratic bound cheaply."""

    __slots__ = ("T", "kernel", "quad_z", "QK", "LK", "ineq_rows")

    def __init__(self, T: QuadExpr, ineqs, kernel):
        self.T = T
        self.kernel = kernel
        n = T.n
        r = len(kernel)
        self.QK = [
            tuple(sum(T.quad[i][j] * col[j] for j in range(n)) for i in range(n))
            for col in kernel
        ]
        self.LK = [sum(T.lin[i] * col[i] for i in range(n)) for col in kernel]
        self.quad_z = [
            [sum(kernel[a][i] * self.QK[b][i] for i in range(n)) for b in range(r)]
            for a in range(r)
        ]
        self.ineq_rows = [
            (
                tuple(sum(row[i] * col[i] for i in range(n)) for col in kernel),
                row,
                c,
            )
            for row, c in ineqs
        ]

    def at_offset(self, y0):
        T = self.T
        n = T.n
        r = len(self.kernel)
        lin = [
            2 * sum(y0[i] * self.QK[j][i] for i in range(n)) + self.LK[j]
            for j in range(r)
        ]
        const = (
            sum(y0[i] * sum(T.quad[i][j] * y0[j] for j in range(n)) for i in range(n))
            + sum(T.lin[i] * y0[i] for i in range(n))
            + T.const
        )
        Tz = QuadExpr(r, self.quad_z, lin, const)
        zin = [
            (coeffs, c + sum(row[i] * y0[i] for i in range(len(row))))
            for coeffs, row, c in self.ineq_rows
        ]
        return Tz, zin


class TorusSeries:
    """A formal function represented as an ordered product of factors."""

    def __init__(self, param: QuantParam, factors: Sequence[Factor], label: str = ""):
        self.param = param
        for f in factors:
            if f.param != param:
                raise ParamMismatch("factor parameter mismatch")
        self.factors = tuple(factors)
        self.label = label
        self._cache: dict = {}
        self._solver = None
        self._combo_cache: dict = {}

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_dict(cls, param: QuantParam, table: dict, label: str = "") -> "TorusSeries":
        return cls(param, [FiniteFactor(param, table, label)], label)

    @classmethod
    def exponent(cls, param: QuantParam, h: Vec, scalar: Optional[Scalar] = None) -> "TorusSeries":
        """c * e(h) as a series."""
        c = scalar if scalar is not None else UnitMonomial.one(param.field)
        return cls.from_dict(param, {tuple(h): c}, label=f"e{tuple(h)}")

    @classmethod
    def constant(cls, param: QuantParam, scalar: Scalar) -> "TorusSeries":
        return cls.from_dict(param, {zero_vec(param.rank): scalar}, label="const")

    @classmethod
    def one(cls, param: QuantParam) -> "TorusSeries":
        return cls.constant(param, UnitMonomial.one(param.field))

    @classmethod
    def rule(
        cls,
        param: QuantParam,
        offset: Vec,
        gens: Sequence[Vec],
        coeff: Callable,
        val: Optional[QuadExpr],
        cones: Sequence[bool] = (),
        label: str = "",
    ) -> "TorusSeries":
        return cls(param, [LatticeFactor(param, offset, gens, coeff, val, cones, label)], label)

    # -- structure -----------------------------------------------------------

    @property
    def kind(self) -> str:
        lattice = [f for f in self.factors if not f.is_finite]
        if not lattice:
            return ALGEBRAIC
        if all(f.val is not None for f in lattice):
            return PROPER
        return FORMAL

    def is_multipliable(self) -> bool:
        return self.kind in (ALGEBRAIC, PROPER)

    def mul(self, other: "TorusSeries") -> "TorusSeries":
        """Noncommutative product: word concatenation, evaluated lazily."""
        if self.param != other.param:
            raise ParamMismatch("product over different quantum tori")
        if not (self.is_multipliable() and other.is_multipliable()):
            raise NotMultipliable(
                "formal-kind series admit only single Heisenberg actions"
            )
        return TorusSeries(
            self.param, self.factors + other.factors, f"({self.label})*({other.label})"
        )

    def scaled(self, scalar: Scalar) -> "TorusSeries":
        front = FiniteFactor(self.param, {zero_vec(self.param.rank): scalar}, "scale")
        return TorusSeries(self.param, (front,) + self.factors, self.label)

    def pullback(self, param: QuantParam, point_map, scale=None, label: str = "") -> "TorusSeries":
        """Factorwise pullback onto ``param``: the coefficient at h moves to
        ``point_map(h)`` and, when ``scale`` is given, is multiplied by the
        unit monomial ``scale(h)``.

        ``point_map`` must be linear and the u-exponent of ``scale(h)`` linear
        in h, so each certificate moves by w.(offset + G y) with
        w_i = uexp(scale(e_i)).  Kind is preserved.
        """
        if scale is not None:
            w = [scale(b).uexp for b in self.param.lattice.basis()]
        new = []
        for f in self.factors:
            if f.is_finite:
                table = {
                    point_map(p): v if scale is None else scale(p) * v for p, v in f.items()
                }
                new.append(FiniteFactor(param, table, f.label))
                continue
            coeff, val = f.coeff, f.val
            if scale is not None:

                def coeff(y, order, f=f):
                    c = f.coeff_at(y, order)
                    return None if c is None else scale(f.point(y)) * c

                if val is not None:
                    lin = [a + sum(map(mul, w, g)) for a, g in zip(val.lin, f.gens)]
                    const = val.const + sum(map(mul, w, f.offset))
                    val = QuadExpr(f.nparams, val.quad, lin, const)
            gens = [point_map(g) for g in f.gens]
            new.append(
                LatticeFactor(param, point_map(f.offset), gens, coeff, val, f.cones, f.label)
            )
        return TorusSeries(param, new, label)

    def shift_pullback(self, x: TorusPoint) -> "TorusSeries":
        """x^*: coefficient at h becomes h(x) * a_h; kind preserved."""
        if x.rank != self.param.rank:
            raise ParamMismatch("point rank mismatch")
        return self.pullback(self.param, lambda h: h, x.eval, f"shift({self.label})")

    # -- coefficient engine ---------------------------------------------------

    def _lattice_solver(self):
        """The lattice factors and a cached exact solver for their
        concatenated generator matrix (None when there are none)."""
        if self._solver is None:
            lat = [f for f in self.factors if not f.is_finite]
            cols = [g for f in lat for g in f.gens]
            mtx = tuple(tuple(c[i] for c in cols) for i in range(self.param.rank))  # d x k
            self._solver = (lat, IntegerSolver(mtx, len(cols)) if cols else None)
        return self._solver

    def coeff(self, h: Vec, order, _slack=0) -> ScalarSeries:
        """Coefficient at e(h), exact up to u-exponent ``order``."""
        h = tuple(h)
        key = (h, order, _slack)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        out = self._coeff_impl(h, order, _slack)
        self._cache[key] = out
        return out

    def _coeff_impl(self, h: Vec, order, slack) -> ScalarSeries:
        field = self.param.field
        total = ScalarSeries.zero(field, order)
        lat, solver = self._lattice_solver()
        kernel = solver.kernel if solver else []
        word = list(self.factors)
        fin_pos = [i for i, f in enumerate(word) if f.is_finite]
        lat_pos = [i for i, f in enumerate(word) if not f.is_finite]
        kcols = len(kernel)

        for combo in itertools.product(*[list(word[i].items()) for i in fin_pos]):
            chosen = dict(zip(fin_pos, combo))  # word index -> (point, value)
            residual = h
            for p, _vv in combo:
                residual = vec_sub(residual, p)
            if not lat:
                if any(residual):
                    continue
                forms, _ = self._combo_plan(word, chosen, lat_pos, kernel, combo)
                term = self._combine_term(word, chosen, {}, order, forms, ())
                if term is not None:
                    total = total + term
                continue
            for f in lat:
                residual = vec_sub(residual, f.offset)
            particular = solver.solve(residual)
            if particular is None:
                continue
            if kcols and order == INF:
                raise NotMultipliable("infinite-order product coefficient needs a finite order")
            forms, engine = self._combo_plan(word, chosen, lat_pos, kernel, combo)
            if kcols == 0:
                ys = [particular]
            else:
                if engine is None:
                    raise NotMultipliable(
                        "window-only factor inside a product that needs enumeration"
                    )
                if engine is _ZERO_TERM:
                    continue
                Tz, zin = engine.at_offset(particular)
                pts = enumerate_sublevel(Tz, order + slack, ineqs=zin)
                ys = [
                    tuple(
                        particular[i] + sum(z[j] * kernel[j][i] for j in range(kcols))
                        for i in range(len(particular))
                    )
                    for z in pts
                ]
            for y in ys:
                # split y into per-position blocks, check cones
                blocks = {}
                pos = 0
                ok = True
                for wi in lat_pos:
                    f = word[wi]
                    blk = y[pos : pos + f.nparams]
                    pos += f.nparams
                    for flag, yi in zip(f.cones, blk):
                        if flag and yi < 0:
                            ok = False
                            break
                    if not ok:
                        break
                    blocks[wi] = blk
                if not ok:
                    continue
                term = self._combine_term(word, chosen, blocks, order, forms, y)
                if term is not None:
                    total = total + term
        return total.truncate(order)

    def _combo_plan(self, word, chosen, lat_pos, kernel, combo):
        """Cached plan for one finite combo: the ordered word's alpha exponent
        and sign as integer quadratics in the concatenated lattice parameters,
        and, when there is a kernel, the bound assembly + kernel substitution.

        The full-parameter bound is independent of the target cell; only the
        particular solution moves, contributing linear and constant terms.
        """
        key = tuple(p for p, _v in combo)
        plan = self._combo_cache.get(key)
        if plan is None:
            offs = {}
            pos = 0
            for wi in lat_pos:
                offs[wi] = pos
                pos += word[wi].nparams
            forms = tuple(
                _alpha_form(pair, word, chosen, offs)
                for pair in (self.param.alpha_exp, self.param.alpha_sign)
            )
            engine = None
            if kernel:
                T, ineqs = self._assemble_bound(word, chosen, offs, forms[0])
                engine = T if T is None or T is _ZERO_TERM else _SubstEngine(T, ineqs, kernel)
            plan = self._combo_cache[key] = (forms, engine)
        return plan

    def _assemble_bound(self, word, chosen, offs, alpha):
        """Exact valuation bound T(y) over the concatenated parameter space.

        T = sum of factor-value valuations (exact for finite ones, certified
        for lattice ones) + the alpha exponent of the ordered word (the form
        ``alpha`` of :func:`_alpha_form`, symmetrised).  Returns (QuadExpr,
        cone inequalities), (None, None) when a lattice factor lacks a
        certificate, or (_ZERO_TERM, None) when a chosen finite value is
        zero, so every term of the combo vanishes.
        """
        k_total = sum(word[wi].nparams for wi in offs)
        Q = [[Fraction(0)] * k_total for _ in range(k_total)]
        L = [Fraction(0)] * k_total
        C = Fraction(0)
        for wi, base in offs.items():
            f = word[wi]
            if f.val is None:
                return None, None
            for i in range(f.nparams):
                L[base + i] += f.val.lin[i]
                for j in range(f.nparams):
                    Q[base + i][base + j] += f.val.quad[i][j]
            C += f.val.const
        for _p, val in chosen.values():
            vv = val.valuation()
            if vv == INF:
                return _ZERO_TERM, None
            C += vv
        const, lin, cross = alpha
        C += const
        for a, x in lin:
            L[a] += x
        for a, b, x in cross:
            Q[a][b] += Fraction(x, 2)
            Q[b][a] += Fraction(x, 2)
        ineqs = []
        for wi, base in offs.items():
            for i, flag in enumerate(word[wi].cones):
                if flag:
                    row = [0] * k_total
                    row[base + i] = 1
                    ineqs.append((tuple(row), 0))
        return QuadExpr(k_total, Q, L, C), ineqs

    def _combine_term(self, word, chosen, blocks, order, forms, y) -> Optional[ScalarSeries]:
        """Exact value of one decomposition term, truncated at ``order``.

        The alpha monomial and every unit-monomial value fold into one
        monomial.  The series values are multiplied in word order, each
        product capped at ``order`` less the monomial's u-exponent and the
        certified lower bounds of the series still to come; no cap when a
        lattice factor has no certificate or a value is an empty series.
        """
        one = self.param.field.one()
        aexp = _form_at(forms[0], y)
        mono = UnitMonomial(-one if _form_at(forms[1], y) % 2 else one, aexp)
        lbs = [
            chosen[wi][1].valuation()
            if f.is_finite
            else (f.val.value(blocks[wi]) if f.val is not None else 0)
            for wi, f in enumerate(word)
        ]
        total_lb = aexp + sum(lb for lb in lbs if lb != INF)
        capped = True
        series = []  # (value, integer lower bound) of the series-valued factors
        for wi, f in enumerate(word):
            if f.is_finite:
                v = chosen[wi][1]
            else:
                v = f.coeff_at(blocks[wi], order - (total_lb - lbs[wi]))
                if v is None:
                    return None
                capped = capped and f.val is not None
            if isinstance(v, UnitMonomial):
                mono = mono * v
                continue
            if not v.terms:
                if v.trunc == INF:
                    return None
                capped = False
            series.append((v, math.ceil(lbs[wi]) if v.terms else 0))
        if not series:
            return mono.to_series().truncate(order)
        head = order - mono.uexp if capped else INF
        rest = sum(lb for _v, lb in series[1:])
        acc = series[0][0]
        for v, lb in series[1:]:
            rest -= lb
            acc = acc.mul_to(v, head - rest)
        return acc.scale(mono).truncate(order)

    # -- materialization and comparison ---------------------------------------

    def window_cells(self, radius: int) -> list[Vec]:
        return self.param.window_cells(radius)

    def materialize(self, cells: Iterable[Vec], order) -> "TorusSeries":
        table = {}
        for h in cells:
            c = self.coeff(h, order)
            if not c.is_zero():
                table[tuple(h)] = c
        return TorusSeries.from_dict(self.param, table, label=f"window({self.label})")

    def window_dump(self, radius: int, order) -> dict:
        from .scalars import series_to_json

        coeffs = []
        for h in self.window_cells(radius):
            c = self.coeff(h, order)
            if not c.is_zero():
                coeffs.append([list(h), series_to_json(c)])
        return {
            "lattice": self.param.rank,
            "window": radius,
            "order": None if order is INF else int(order),
            "coeffs": coeffs,
        }

    def support_points(self) -> Optional[list[Vec]]:
        """Exact support candidates for algebraic series, else None."""
        if self.kind != ALGEBRAIC:
            return None
        pts = {zero_vec(self.param.rank)}
        for f in self.factors:
            pts = {vec_add(p, q) for p in pts for q in f.table.keys()}
        return sorted(pts)


# ---------------------------------------------------------------------------
# functional wrappers


def shift_pullback(x: TorusPoint, f: TorusSeries) -> TorusSeries:
    """x^*(f): coefficient at h becomes h(x) a_h."""
    return f.shift_pullback(x)


def torus_series_mul(f: TorusSeries, g: TorusSeries, window: int, order) -> TorusSeries:
    """Product materialized on the centered box of the given radius."""
    prod = f.mul(g)
    return prod.materialize(prod.window_cells(window), order)


def series_equal_on_cells(a: TorusSeries, b: TorusSeries, cells: Iterable[Vec], order) -> bool:
    for h in cells:
        if not a.coeff(h, order).equal_to_order(b.coeff(h, order), order):
            return False
    return True


def series_equal(a: TorusSeries, b: TorusSeries, window: int, order) -> bool:
    return series_equal_on_cells(a, b, a.window_cells(window), order)


def conjugation_check(param: QuantParam, h: Vec, f: TorusSeries) -> bool:
    """e(h) f e(h)^-1 == (A_h^-2)^* f, checked exactly on f's support."""
    if f.kind != ALGEBRAIC:
        raise NotMultipliable("conjugation_check requires an algebraic operand")
    left = TorusSeries.exponent(param, h)
    right = TorusSeries.exponent(
        param, tuple(-x for x in h), scalar=param.epsilon(h)
    )  # e(h)^-1 = eps(h) e(-h)
    conj = left.mul(f).mul(right)
    other = f.shift_pullback(param.hidden_point(h).inverse() ** 2)
    support = set(f.support_points()) | set(other.support_points())
    return series_equal_on_cells(conj, other, support, INF)
