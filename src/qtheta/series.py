"""Formal functions on a quantum torus, with exact truncated products.

A :class:`TorusSeries` is a *word* of factors, each factor a formal function
with known support structure:

* :class:`FiniteFactor` -- finitely many exponents with explicit scalar
  coefficients (the "algebraic" building block);
* :class:`LatticeFactor` -- coefficients on an affine family
  ``offset + sum_i y_i gen_i`` of lattice points, with optional cone
  constraints ``y_i >= 0``.  The coefficient at the parameter ``y`` is a
  :class:`GaussRule` (a unit monomial whose u-exponent and sign are integer
  quadratics in ``y``) times the value of a closure, and every closure value
  has u-valuation >= 0, which is checked as each is computed.  So the Gauss
  part's u-exponent bounds the coefficient's valuation from below: it is the
  factor's properness certificate.

The product of two series is word concatenation (cost O(1)); all the work
happens when a coefficient is requested: the engine solves the affine
support equations, takes the valuation bound

    T(y) = u-exponent of the term's Gauss rule + finite series valuations,

(the rule holds the alpha exponents, the unit-monomial finite values and
every lattice factor's Gauss part), and enumerates { y : T(y) <= order }
with :mod:`qtheta.quadenum`.  Every dropped term provably lies above the
truncation order, so coefficients are exact to the requested order -- the
sum is "restricted by the enumerators to finitely many terms".

A pure-Gauss word whose G is square with det +-1 (theta_W and its
Heisenberg actions, say) skips the per-cell solve: its coefficients are
rules in *cell coordinates* (:meth:`TorusSeries._cell_rules`), composed
once with the G^-1 its solver reads off G's Smith form.  A window pass
evaluates each rule at all the cells at once (:meth:`GaussRule.values`).
Any other word solves each finite combo once over the window (or, with a
kernel, enumerates it, each point's u-exponent read off the walk's value)
and sums its points as one batch: one Gauss-rule call, and one series part
per closure multiset (:meth:`TorusSeries._add_terms`).

Kinds: *algebraic* (all factors finite), *proper* (no lattice factor is
formal), *formal* (some factor is window-only; products are refused, but
single Heisenberg actions, which add no kernel, evaluate).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import compress, islice, product, repeat
from operator import itemgetter, mul, sub
from typing import Callable, Iterable, Optional, Sequence, Union

from .errors import CertificateViolation, NotAScalar, NotMultipliable, ParamMismatch, PrecisionShortfall
from .intlinalg import Vec, identity, smith, vec_add, vec_neg, vec_sub, zero_vec
from .quadenum import MAX_POINTS, QuadExpr, enumerate_sublevel
from .scalars import INF, ScalarSeries, UnitMonomial, add_into, series_to_json
from .torus import QuantParam, TorusPoint

Scalar = Union[UnitMonomial, ScalarSeries]

ALGEBRAIC = "algebraic"
PROPER = "proper"
FORMAL = "formal"


class FiniteFactor:
    """Finitely supported factor: explicit exponent -> coefficient table."""

    __slots__ = ("param", "table", "label")
    is_finite = True

    def __init__(self, param: QuantParam, table: dict, label: str = ""):
        self.param = param
        self.table = {tuple(k): v for k, v in table.items()}
        self.label = label or "finite"
        if not all(isinstance(v, (UnitMonomial, ScalarSeries)) for v in self.table.values()):
            raise NotAScalar(f"{self.label}: a value is neither a UnitMonomial nor a ScalarSeries")

    def items(self):
        return self.table.items()

    def __repr__(self):
        return f"FiniteFactor({self.label}, {len(self.table)} pts)"


class LatticeFactor:
    """Rule-defined factor on an affine family of lattice points.

    The coefficient at ``offset + sum y_i gens_i`` is ``gauss.at(y)`` times
    the closure value ``coeff(y, order)`` (exact to the given order, or
    exactly; None off the support); either part may be None, not both.  A
    factor with no closure is a *Gauss factor*.  Every closure value must
    have u-valuation >= 0 (:meth:`coeff_at` checks it), so the Gauss part's
    u-form is a lower bound for the coefficient's valuation, the factor's
    certificate.  Factors whose closures compare equal return equal values
    at equal parameters.  ``formal`` marks a window-only factor, whose Gauss
    part bounds no sum (theta_W, a non-ample theta basis).
    """

    __slots__ = ("param", "offset", "gens", "coeff", "cones", "label", "gauss", "formal", "_memo")
    is_finite = False

    def __init__(
        self,
        param: QuantParam,
        offset: Vec,
        gens: Sequence[Vec],
        coeff: Optional[Callable[[tuple, object], Optional[Scalar]]],
        cones: Sequence[bool] = (),
        label: str = "",
        gauss: Optional["GaussRule"] = None,
        formal: bool = False,
    ):
        self.param = param
        self.offset = tuple(offset)
        self.gens = tuple(tuple(g) for g in gens)
        self.coeff = coeff
        self.cones = tuple(cones) if cones else (False,) * len(self.gens)
        self.label = label or "lattice"
        self.gauss = gauss
        self.formal = formal
        self._memo: dict = {}

    @property
    def nparams(self) -> int:
        return len(self.gens)

    def coeff_at(self, y: tuple, order) -> Optional[Scalar]:
        """The closure value at y, exact to ``order`` and memoized; raises
        CertificateViolation when it has negative u-valuation."""
        key = (y, order)
        hit = self._memo.get(key)
        if hit is None and key not in self._memo:
            hit = self.coeff(y, order)
            if hit is not None and hit.valuation() < 0:
                raise CertificateViolation(
                    f"{self.label}: closure value at y={y} has u-valuation {hit.valuation()} < 0"
                )
            self._memo[key] = hit
        return hit

    def __repr__(self):
        return f"LatticeFactor({self.label}, params={self.nparams})"


Factor = Union[FiniteFactor, LatticeFactor]


_ZERO_TERM = object()  # combo marker: a chosen finite value is zero


# A form is a quadratic in y = (y_0, ..., y_{n-1}) counted in half steps:
# terms (a, b, x) of (sum x y_a y_b) / 2, where index n stands for the
# constant 1: (a, n) terms are linear and (n, n) is the constant.  So
# y(y - 1)/2 is the form y^2 - y, and every form is stored at twice its
# value.  A Gauss rule's forms have integer x; a combo's valuation bound is a
# form too, which :func:`_subst` moves to new variables and :func:`_quad`
# hands to ``enumerate_sublevel``.


def _form(terms, mod=0):
    """The terms merged (a <= b), reduced mod ``mod`` when given, zeros dropped."""
    acc = {}
    for a, b, x in terms:
        key = (a, b) if a <= b else (b, a)
        acc[key] = acc.get(key, 0) + x
    red = {k: x % mod if mod else x for k, x in acc.items()}
    return tuple((a, b, x) for (a, b), x in sorted(red.items()) if x)


def _forms_at(form, ys, n) -> list:
    """The sum of x y_a y_b over the terms (a, b, x) at each y in ys (index n
    is the constant 1): twice a form's value, one list pass per term."""
    out = [0] * len(ys)
    for a, b, x in form:
        if b < n:
            out = [s + x * y[a] * y[b] for s, y in zip(out, ys)]
        elif a < n:
            out = [s + x * y[a] for s, y in zip(out, ys)]
        else:
            out = [s + x for s in out]
    return out


def _affine_at(mtx, base, ys, n):
    """base + mtx y at each y in ys (of length n), one row of mtx at a time."""
    rows = [_forms_at([*((j, n, x) for j, x in enumerate(g) if x), (n, n, b)], ys, n)
            for g, b in zip(mtx, base)]
    return zip(*rows) if rows else [()] * len(ys)


def _check_half_steps(form, n):
    """Raise unless the merged form is integer-valued on Z^n: its constant,
    cross terms and each y_a^2 + y_a pair of coefficients are even."""
    par = {}
    for a, b, x in form:
        key = (a, a) if b == n else (a, b)
        par[key] = par.get(key, 0) + x
    if any(x % 2 for x in par.values()):
        raise ValueError(f"form {form} is not integer-valued")


def _quad(form, n) -> QuadExpr:
    """The form's value as a QuadExpr in n variables (cross terms
    symmetrised)."""
    Q = [[0] * (n + 1) for _ in range(n + 1)]
    for a, b, x in form:
        Q[a][b] += x
        Q[b][a] += x
    Q = [[Fraction(x, 4) if x % 4 else x // 4 for x in row] for row in Q]  # ints stay ints
    return QuadExpr(n, [row[:n] for row in Q[:n]], [2 * x for x in Q[n][:n]], Q[n][n])


def _subst(form, offset, gens):
    """The merged form of z at y = offset + sum_j z_j gens[j], in which
    index len(gens) is the constant."""
    cols = [(*g, 0) for g in gens] + [(*offset, 1)]
    nz = [[(j, c[a]) for j, c in enumerate(cols) if c[a]] for a in range(len(offset) + 1)]
    return _form((j, k, x * u * v) for a, b, x in form for j, u in nz[a] for k, v in nz[b])


def _moved(form, at, k, n):
    """A form in k variables as one in n: y_i moves to y_(at + i), the constant k to n."""
    idx = [*range(at, at + k), n]
    return [(idx[a], idx[b], x) for a, b, x in form]


def _alpha_form(pair, word, chosen, offs, n):
    """sum over i < j of pair(p_i, p_j) for the ordered word's points, where
    p_i is a finite factor's chosen point or ``offset + G y`` on a lattice
    factor's parameter block (starting at ``offs[i]``), as a form in the n
    concatenated parameters y."""
    data = [
        [(n, chosen[wi][0])] if f.is_finite else [(n, f.offset), *enumerate(f.gens, offs[wi])]
        for wi, f in enumerate(word)
    ]
    return _form(
        (a, b, 2 * pair(v, w))
        for i, di in enumerate(data)
        for dj in data[i + 1 :]
        for a, v in di
        for b, w in dj
    )


class GaussRule:
    """The unit monomial c (-1)^s(y) u^q(y) prod_k b_k^(l_k(y)) of an
    integer vector y of length n.

    q, s and the l_k are integer-valued quadratics given as forms, which
    count half steps: y(y-1)/2 is the form y^2 - y, so a half-integer
    coefficient (an odd valuation diagonal, say) needs no other kind.  s is
    kept mod 4, as only its parity matters.  The bases b_k carry the
    coefficients other than +-1.  A +-1 constant is held as the field's own
    one or minus one, so a rule without bases has those very objects as values.
    """

    __slots__ = ("n", "const", "signed", "uform", "sform", "chars")

    def __init__(self, n: int, const, uform=(), sform=(), chars=()):
        self.n = n
        one, minus = const.field.one(), const.field.minus_one()
        self.signed = (one, minus) if const == one else (minus, one) if const == minus else (const, -const)
        self.const = self.signed[0]
        self.uform = _form(uform)
        self.sform = _form(sform, 4)
        self.chars = tuple((b, _form(l)) for b, l in chars)
        for form in (self.uform, self.sform, *(l for _b, l in self.chars)):
            _check_half_steps(form, n)

    @classmethod
    def character(cls, field, values: Sequence[UnitMonomial]) -> "GaussRule":
        """y -> prod values_i^y_i: the character e(y) at a torus point."""
        n = len(values)
        chars = [(v.coeff, [(i, n, 2)]) for i, v in enumerate(values) if not v.coeff.is_one()]
        return cls(n, field.one(), [(i, n, 2 * v.uexp) for i, v in enumerate(values)], (), chars)

    def times(self, other: "GaussRule") -> "GaussRule":
        """The pointwise product of two rules in the same variables."""
        u, s, chars = self.uform + other.uform, self.sform + other.sform, self.chars + other.chars
        return GaussRule(self.n, self.const * other.const, u, s, chars)

    def compose(self, offset: Vec, gens: Sequence[Vec]) -> "GaussRule":
        """The rule of z at y = offset + sum_j z_j gens[j]."""
        u, s = _subst(self.uform, offset, gens), _subst(self.sform, offset, gens)
        chars = [(b, _subst(l, offset, gens)) for b, l in self.chars]
        return GaussRule(len(gens), self.const, u, s, chars)

    def at(self, y) -> UnitMonomial:
        return UnitMonomial(*self.values((y,))[0])

    def values(self, ys) -> list:
        """[(coefficient, u-exponent) of the rule at y for y in ys]."""
        return list(zip(self.coeffs(ys), self.uexps(ys)))

    def coeffs(self, ys) -> list:
        """The coefficient at each y in ys, each form at all the points at once."""
        n = self.n
        if self.sform:  # the form holds 2s
            cs = [self.signed[v >> 1 & 1] for v in _forms_at(self.sform, ys, n)]
        else:
            cs = [self.const] * len(ys)
        for b, l in self.chars:
            js = [v >> 1 for v in _forms_at(l, ys, n)]
            powers = {j: b**j for j in set(js)}
            cs = [c * powers[j] for c, j in zip(cs, js)]
        return cs

    def uexps(self, ys) -> list:
        """The u-exponent at each y in ys."""
        return [v >> 1 for v in _forms_at(self.uform, ys, self.n)]


def _newton_points(n) -> list:
    """0, each e_i and each e_i + e_j (i <= j) in Z^n.  A map of y whose
    third differences vanish, such as a quotient of two Gauss rules, is
    determined by its values there, so it is constant when they agree."""
    e = identity(n)
    return [zero_vec(n), *e, *(vec_add(a, b) for i, a in enumerate(e) for b in e[i:])]


def _canonical(key, groups) -> tuple:
    """``key`` with its entries at each list of equal-width slices in ``groups`` sorted among them."""
    out = [*key]
    for group in groups:
        for s, v in zip(group, sorted(key[s] for s in group)):
            out[s] = v
    return tuple(out)


_Layout = namedtuple("_Layout", "blocks cones offset solver mtx fin_pos items")


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
        self._layout_cache = None
        self._combo_cache: dict = {}
        self._cell_cache = None

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
        coeff: Optional[Callable],
        cones: Sequence[bool] = (),
        label: str = "",
        gauss: Optional[GaussRule] = None,
        formal: bool = False,
    ) -> "TorusSeries":
        factor = LatticeFactor(param, offset, gens, coeff, cones, label, gauss, formal)
        return cls(param, [factor], label)

    # -- structure -----------------------------------------------------------

    @property
    def kind(self) -> str:
        lattice = [f for f in self.factors if not f.is_finite]
        if not lattice:
            return ALGEBRAIC
        return FORMAL if any(f.formal for f in lattice) else PROPER

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

    def pullback(
        self, param: QuantParam, point_map, scale: Optional[GaussRule] = None, label: str = ""
    ) -> "TorusSeries":
        """Factorwise pullback onto ``param``: the coefficient at h moves to
        ``point_map(h)`` and, when ``scale`` is given, is multiplied by
        ``scale.at(h)``, a Gauss rule on this series' lattice.

        ``point_map`` must be linear.  On a lattice factor the scale becomes
        the Gauss rule of y at h = offset + G y, multiplied into the factor's
        Gauss part (and so into its certificate).  Kind is preserved.
        """
        new = []
        for f in self.factors:
            if f.is_finite:
                table = {
                    point_map(p): v if scale is None else scale.at(p) * v for p, v in f.items()
                }
                new.append(FiniteFactor(param, table, f.label))
                continue
            gauss = f.gauss
            if scale is not None:
                moved = scale.compose(f.offset, f.gens)
                gauss = moved if gauss is None else gauss.times(moved)
            off, *gens = [point_map(g) for g in (f.offset, *f.gens)]
            new.append(LatticeFactor(param, off, gens, f.coeff, f.cones, f.label, gauss, f.formal))
        return TorusSeries(param, new, label)

    def shift_pullback(self, x: TorusPoint) -> "TorusSeries":
        """x^*: coefficient at h becomes h(x) * a_h; kind preserved."""
        if x.rank != self.param.rank:
            raise ParamMismatch("point rank mismatch")
        scale = GaussRule.character(self.param.field, x.values)
        return self.pullback(self.param, lambda h: h, scale, f"shift({self.label})")

    # -- coefficient engine ---------------------------------------------------

    def _layout(self) -> _Layout:
        """Cached: the lattice factors' word positions with their parameter
        blocks [a, b) in the concatenated parameters, the cone-constrained
        parameters, the sum of the factors' offsets, the shared Smith
        factorization of their generator matrix G (:func:`intlinalg.smith`;
        None when there are no parameters), G's
        rows, and the finite factors' word positions and item lists."""
        if self._layout_cache is None:
            blocks, cones, cols = [], [], []
            offset = zero_vec(self.param.rank)
            for wi, f in enumerate(self.factors):
                if not f.is_finite:
                    a = len(cols)
                    blocks.append((wi, a, a + f.nparams))
                    cones += [a + i for i, flag in enumerate(f.cones) if flag]
                    cols += f.gens
                    offset = vec_add(offset, f.offset)
            mtx = tuple(tuple(c[i] for c in cols) for i in range(self.param.rank))  # d x k
            solver = smith(mtx, len(cols)) if cols else None
            fin_pos = tuple(i for i, f in enumerate(self.factors) if f.is_finite)
            items = tuple(list(self.factors[i].items()) for i in fin_pos)
            self._layout_cache = _Layout(blocks, cones, offset, solver, mtx, fin_pos, items)
        return self._layout_cache

    def coeff(self, h: Vec, order) -> ScalarSeries:
        """Coefficient at e(h), exact up to u-exponent ``order``: :meth:`_table` at h alone."""
        h = tuple(h)
        return self._table([h], order)[h]

    def coeffs(self, cells: Iterable[Vec], order) -> dict:
        """Coefficients at many cells, ``{h: coeff(h, order)}``, read from
        the order's table once :meth:`_table` has filled it at them."""
        cells = [*map(tuple, cells)]
        table = self._table(cells, order)
        return {h: table[h] for h in cells}

    def _table(self, cells: list, order) -> dict:
        """The cache's own ``{h: coefficient}`` table for ``order``, filled
        at ``cells`` (tuples): the one place that picks a coefficient path.
        The missing cells are one pass: each cell rule at all of them
        (:meth:`_rule_coeffs`), else each finite combo at all of them
        (:meth:`_combo_coeffs`).  A pass that raises caches no cell.  Cells
        of equal value may hold one shared series, whose ``terms`` no reader
        writes."""
        table = self._cache.setdefault(order, {})
        todo = {h: h for h in cells if h not in table}
        if todo:
            rules = self._cell_rules()
            if rules is not None:
                table.update(self._rule_coeffs(rules, todo, order))
            else:
                table.update(self._combo_coeffs(todo, order))
        return table

    def _rule_coeffs(self, rules, cells, order) -> dict:
        """``{h: coefficient}`` at ``cells`` of a word with cell rules: each
        rule is evaluated at every cell in one call, its first seeds a sum.
        A single rule's cells of equal value share one series: one per
        distinct (c, e), with one empty series for every e above the order."""
        first, *others = [rule.values(cells) for rule in rules]
        field = self.param.field
        if not others:
            empty = ScalarSeries._clean(field, {}, order)
            shared = {(c, e): empty if e > order else ScalarSeries._clean(field, {e: c}, order)
                      for c, e in set(first)}
            return {h: shared[v] for h, v in zip(cells, first)}
        accs = [{e: c} if e <= order else {} for c, e in first]
        for vals in others:
            for acc, (c, e) in zip(accs, vals):
                add_into(acc, UnitMonomial(c, e), order, order)
        return {h: ScalarSeries._clean(field, a, order) for h, a in zip(cells, accs)}

    def _combo_coeffs(self, cells, order) -> dict:
        """``{h: coefficient}`` at ``cells`` (each mapped to itself): each
        finite combo's points are one :meth:`_add_terms` batch, the solutions
        of G y = h - base with y_c >= 0.  Over a kernel K that is one
        enumeration on the cells' bounding box, which returns each point's
        cell position there, with the per-cell box budgets summed or, where
        that is refused, each reached cell's fibre
        y = particular + K z on its own (:func:`_subst`, the cone rows in z,
        the default budget), the walk's T(y) less low giving each point's
        u-exponent.  Raises NotMultipliable where a sum cannot be certified,
        as where a kernel combo reaches a cell at an INF order or through a
        formal factor."""
        lay = self._layout()
        n = lay.blocks[-1][2] if lay.blocks else 0
        kernel = lay.solver.kernel if lay.solver else ()
        lo, hi = [min(c) for c in zip(*cells)], [max(c) for c in zip(*cells)]
        if kernel:  # each cell h at its position stride.(h - lo) in that box
            stride = [1]
            for l, u in zip(reversed(lo), reversed(hi)):
                stride.insert(0, stride[0] * (u - l + 1))
            dense = stride.pop(0) == len(cells)  # the cells fill the box: a list as long as they are
            at = [None] * len(cells) if dense else {}
            for h in cells:
                at[sum(map(mul, stride, map(sub, h, lo)))] = h
            cell_at = at.__getitem__ if dense else at.get
            w = [sum(s * g[k] for s, g in zip(stride, lay.mtx)) for k in range(n)]  # base + G y sits at w.y + base's
        sums: dict = {}  # cell -> [exponent -> value, trunc]
        for combo in product(*lay.items):
            chosen, base, term, form, low = self._combo_plan(combo)
            if not kernel or order == INF or form is None:
                ts = [vec_sub(h, base) for h in cells]
                ys = lay.solver.solve_all(ts) if lay.solver else [None if any(t) else () for t in ts]
                if kernel and any(y is not None for y in ys):  # a reached sum that cannot be certified
                    raise NotMultipliable(
                        "infinite-order product coefficient needs a finite order" if order == INF
                        else "window-only factor inside a product that needs enumeration"
                    )
                hs, ok = cells, [y is not None and all(y[c] >= 0 for c in lay.cones) for y in ys]
                levels = None
            elif form is _ZERO_TERM:
                continue
            else:
                rows = [(tuple(int(i == c) for i in range(n)), 0) for c in lay.cones]
                for g, b, l, u in zip(lay.mtx, base, lo, hi):  # lo <= base + G y <= hi
                    rows += [(g, b - l), (tuple(-x for x in g), u - b)]
                place = w, sum(map(mul, stride, map(sub, base, lo)))
                try:
                    ys = enumerate_sublevel(_quad(form, n), order, rows, MAX_POINTS * len(cells), place)
                except NotMultipliable:  # each reached cell's fibre on its own
                    kt, hs, ys, levels = list(zip(*kernel)), [], [], []  # kt[i]: the vectors' i-th entries
                    for h, p in zip(cells, lay.solver.solve_all([vec_sub(h, base) for h in cells])):
                        if p is not None:
                            tz = _quad(_subst(form, p, kernel), len(kernel))
                            pts = enumerate_sublevel(tz, order, [(kt[c], p[c]) for c in lay.cones])
                            ys += _affine_at(kt, p, pts, len(kernel))
                            levels += pts.values
                            hs += [h] * len(pts)
                else:
                    hs, levels = [*map(cell_at, ys.positions)], ys.values
                ok = [h is not None for h in hs]
            ys = [*compress(ys, ok)]
            es = term[0].uexps(ys) if levels is None else [t - low for t in compress(levels, ok)]
            self._add_terms(sums, compress(hs, ok), ys, es, chosen, term, order)
        zero = ScalarSeries.zero(self.param.field, order)
        return {h: ScalarSeries(zero.field, *sums[h]) if h in sums else zero for h in cells}

    def _cell_rules(self) -> Optional[list]:
        """Cached: each combo's rule composed with y = G^-1 (h - base), a
        rule of the cell h; None unless there are no cones, every term plan
        is pure Gauss (nothing left over) and G is square with det +-1.  The
        layout's solver reads that last condition off G's Smith form: G has
        no kernel and every unit vector e_j is solved, by G^-1 e_j."""
        if self._cell_cache is None:
            lay = self._layout()
            solver, rules = lay.solver, None
            if solver is not None and not solver.kernel and not lay.cones:
                cols = solver.solve_all(identity(solver.nrows))
                if None not in cols:
                    plans = [self._combo_plan(combo) for combo in product(*lay.items)]
                    if plans and not any(rest for _c, _b, (_r, rest), _f, _l in plans):
                        rules = [p[2][0].compose(vec_neg(solver.solve(p[1])), cols) for p in plans]
            self._cell_cache = (rules,)
        return self._cell_cache[0]

    def _combo_plan(self, combo):
        """Cached plan for one finite combo: (chosen, base, term plan, form,
        low); a cell h is reached when h - base = G y.

        The term plan is one Gauss rule in the concatenated lattice
        parameters -- the ordered word's alpha, every unit-monomial finite
        value and every lattice factor's Gauss part at its block -- and the
        word positions left over (series values and closure factors).

        With a kernel, form is the exact valuation bound T(y), independent of
        the target cell (None without a kernel): the rule's u-form plus low,
        the sum of each series-valued finite value's valuation (trunc + 1 for
        a series with no known term); a closure value adds valuation >= 0.
        Form is None when a lattice factor is formal, and _ZERO_TERM when a
        chosen finite value is an exact zero, so every term of the combo
        vanishes.  The cone rows y_c >= 0 are the caller's; ``_quad(form, n)``
        hands it to ``enumerate_sublevel``.
        """
        key = tuple(p for p, _v in combo)
        plan = self._combo_cache.get(key)
        if plan is None:
            word = self.factors
            lay = self._layout()
            chosen = dict(zip(lay.fin_pos, combo))  # word index -> (point, value)
            base = tuple(map(sum, zip(lay.offset, *key)))
            offs = {wi: a for wi, a, _b in lay.blocks}
            n = lay.blocks[-1][2] if lay.blocks else 0
            const = self.param.field.one()
            uform = [*_alpha_form(self.param.alpha_exp, word, chosen, offs, n)]
            sform = [*_alpha_form(self.param.alpha_sign, word, chosen, offs, n)]
            chars, rest = [], []
            for wi, f in enumerate(word):
                if f.is_finite:
                    v = chosen[wi][1]
                    if isinstance(v, UnitMonomial):
                        const = const * v.coeff
                        uform.append((n, n, 2 * v.uexp))
                    else:
                        rest.append((wi, None))
                    continue
                at = offs[wi]
                if f.gauss is not None:
                    g, k = f.gauss, f.nparams
                    const = const * g.const
                    uform += _moved(g.uform, at, k, n)
                    sform += _moved(g.sform, at, k, n)
                    chars += [(c, _moved(l, at, k, n)) for c, l in g.chars]
                if f.coeff is not None:
                    rest.append((wi, slice(at, at + f.nparams)))
            rule = GaussRule(n, const, uform, sform, chars)
            form, low = None, 0
            if lay.solver is not None and lay.solver.kernel and not any(word[wi].formal for wi in offs):
                vals = [chosen[wi][1] for wi, span in rest if span is None]
                if any(not v.terms and v.trunc == INF for v in vals):
                    form = _ZERO_TERM
                else:
                    low = sum(v.valuation() if v.terms else v.trunc + 1 for v in vals)
                    form = _form([*rule.uform, (n, n, 2 * low)])  # in half steps
            plan = self._combo_cache[key] = (chosen, base, (rule, tuple(rest)), form, low)
        return plan

    def _add_terms(self, sums, hs, ys, es, chosen, term, order):
        """Adds one combo's term at each point ys[i], of Gauss u-exponent
        es[i], into sums[hs[i]], an [exponent -> value, trunc] pair that
        starts at ``order``; the rule's coefficients take one call.

        The series part (:meth:`_series_part`) depends on a point only
        through its closure multiset, its closure slices with those of equal
        closures and widths sorted, and on the monomial only through its
        u-exponent, so each multiset's part is built once, at its points'
        lowest u-exponent: the widest cap any of them needs.  A higher-exponent
        point's extra terms land above ``order``, where ``add_into`` drops
        them as it shifts and scales the part by each point's monomial: no
        monomial or scaled copy is built."""
        rule, rest = term
        cs = rule.coeffs(ys)
        at = repeat((None, UnitMonomial.one(self.param.field)))  # no series part: the monomial alone
        if rest:
            idx, slots = [], {}  # (closure, width) -> its slices of the raw key
            for wi, span in filter(itemgetter(1), rest):
                w = span.stop - span.start
                slots.setdefault((self.factors[wi].coeff, w), []).append(slice(len(idx), len(idx) + w))
                idx += range(span.start, span.stop)
            # a tuple per point: a single index is read as a one-entry slice
            key = itemgetter(*idx) if len(idx) > 1 else itemgetter(slice(*idx[:1], idx[0] + 1 if idx else 0))
            groups: dict = {}  # canonical key -> [lowest u-exponent, series part]
            seen: dict = {}  # raw key -> its canonical key's entry in groups
            at = []
            for k, e in zip(map(key, ys), es):
                g = seen.get(k)
                if g is None:  # a new raw key: its canonical key, once
                    g = seen[k] = groups.setdefault(_canonical(k, slots.values()), [e, None])
                if e < g[0]:
                    g[0] = e
                at.append(g)
            for k, g in groups.items():
                g[1] = self._series_part(chosen, rest, k, order, g[0])
        for h, c, e, (_low, x) in zip(hs, cs, es, at):
            if x is None:
                continue
            acc = sums.get(h)
            if acc is None:
                acc = sums[h] = [{}, order]
            acc[1] = add_into(acc[0], x, order, acc[1], e, c)

    def _series_part(self, chosen, rest, key, order, uexp):
        """The term's factors left over by the Gauss rule at the closure
        parameters ``key``, for Gauss monomials of u-exponent ``uexp`` or
        more (the lowest among the key's points): a UnitMonomial or a
        ScalarSeries, or None when the term vanishes.

        A closure value has valuation >= 0 (:meth:`LatticeFactor.coeff_at`
        checks it), so each closure is asked for ``order`` less ``uexp`` and
        the finite series' valuations.  Unit-monomial values multiply into a
        fold.  The series values are multiplied in word order, each product
        capped at ``order`` less the monomial's and fold's u-exponents and
        the valuations of the series still to come (no cap when a value is
        an empty series), and the fold scales the product.
        """
        cut = iter(key)  # split into per-factor slices
        vals = [chosen[wi][1] if span is None else tuple(islice(cut, span.stop - span.start))
                for wi, span in rest]
        low = uexp + sum(v.valuation() for (_w, s), v in zip(rest, vals) if s is None and v.terms)
        capped = True
        fold = None
        series = []  # (value, valuation) of the series-valued factors
        for (wi, span), v in zip(rest, vals):
            if span is not None:
                v = self.factors[wi].coeff_at(v, order - low)
                if v is None:
                    return None
            if isinstance(v, UnitMonomial):
                fold = v if fold is None else fold * v
                continue
            if not v.terms:
                if v.trunc == INF:
                    return None
                capped = False
            series.append((v, v.valuation() if v.terms else 0))
        if not series:
            return UnitMonomial.one(self.param.field) if fold is None else fold
        head = order - uexp - (fold.uexp if fold is not None else 0) if capped else INF
        rest_lb = sum(lb for _v, lb in series[1:])
        acc = series[0][0]
        for v, lb in series[1:]:
            rest_lb -= lb
            acc = acc.mul_to(v, head - rest_lb)
        return acc if fold is None else acc.scale(fold)

    # -- materialization and comparison ---------------------------------------

    def window_cells(self, radius: int) -> list[Vec]:
        return self.param.window_cells(radius)

    def materialize(self, cells: Iterable[Vec], order) -> "TorusSeries":
        table = {h: c for h, c in self.coeffs(cells, order).items() if not c.is_zero()}
        return TorusSeries.from_dict(self.param, table, label=f"window({self.label})")

    def window_dump(self, radius: int, order) -> dict:
        table = self.coeffs(self.window_cells(radius), order)
        coeffs = [[list(h), series_to_json(c)] for h, c in table.items() if not c.is_zero()]
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
# exact comparisons


def series_equal_on_cells(a: TorusSeries, b: TorusSeries, cells: Iterable[Vec], order) -> bool:
    cells = [*map(tuple, cells)]
    ta, tb = a._table(cells, order), b._table(cells, order)
    for h in cells:
        try:
            same = ta[h].equal_to_order(tb[h], order)
        except PrecisionShortfall as exc:
            raise PrecisionShortfall(f"{exc} at cell {h}") from exc
        if not same:
            return False
    return True


def _prove_by_translation(a: TorusSeries, b: TorusSeries) -> Optional[UnitMonomial]:
    """The constant c with a = c b on the whole lattice, or None (unproven).

    Both words need the same G, no cones, no formal factor over a kernel, one
    finite combo and a pure-Gauss term plan: a's coefficient at h is then the
    sum of rule_a(y) over base_a + G y = h, and b's likewise.  A translation
    s with G s = base_b - base_a maps b's fibres onto a's, so a = c b once
    rule_a(y + s) = c rule_b(y).  That needs equal quadratic u-forms and
    H s = l_b - l_a (H their Hessian, l the linear parts, in half steps), and
    s is tried only when it is the one solution.  The quotient's sign,
    u-exponent and character exponents are quadratics in y, so it is c at
    every y when it is c at every Newton point.
    """
    plans = []
    for w in (a, b):
        lay = w._layout()
        if (lay.solver is None or lay.cones or w.kind == FORMAL and lay.solver.kernel
                or any(len(it) != 1 for it in lay.items)):
            return None
        _chosen, base, (rule, rest), _form, _low = w._combo_plan(tuple(it[0] for it in lay.items))
        plans.append((lay.mtx, base, rule, [t for t in rule.uform if t[1] < rule.n], rest))
    (mtx, base_a, ra, quad, rest_a), (mtx_b, base_b, rb, quad_b, rest_b) = plans
    if rest_a or rest_b or mtx != mtx_b or quad != quad_b:
        return None
    n = ra.n
    hess = [[0] * n for _ in range(n)]
    for i, j, x in quad:
        hess[i][j] += x
        hess[j][i] += x
    la, lb = ({i: x for i, j, x in r.uform if i < j == n} for r in (ra, rb))
    solver = smith((*mtx, *hess), n)
    target = (*vec_sub(base_b, base_a), *(lb.get(i, 0) - la.get(i, 0) for i in range(n)))
    s = None if solver.kernel else solver.solve(target)
    if s is None:
        return None
    pts = _newton_points(n)
    at_a, at_b = ra.values([vec_add(y, s) for y in pts]), rb.values(pts)
    ratios = [UnitMonomial(*x) / UnitMonomial(*y) for x, y in zip(at_a, at_b)]
    return ratios[0] if all(r == ratios[0] for r in ratios) else None


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
