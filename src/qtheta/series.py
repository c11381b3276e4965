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
keys each rule at all the cells at once (:meth:`GaussRule.keys`), and cells
of one value share one series.
Any other word solves each finite combo once over the window (or, with a
kernel, enumerates it, each point's u-exponent read off the walk's value)
and sums its points as one batch: the points keyed once by the Gauss rule,
and one series part per closure multiset (:meth:`TorusSeries._add_terms`).

Kinds: *algebraic* (all factors finite) and *proper* (some lattice factor).
No kind decides which products are finite: a sum over a kernel is computed
only where a coefficient asks for it and the enumerator certifies T(y)'s
sublevel set finite, and raises NotMultipliable where it cannot (a Gauss
part that bounds each coefficient but no sum, as theta_W's does).
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress, filterfalse, islice, product, repeat
from operator import itemgetter, mul, sub
from typing import Callable, Iterable, Optional, Sequence, Union

from .errors import CertificateViolation, NotAScalar, NotMultipliable, ParamMismatch, PrecisionShortfall
from .gauss import GaussRule, _affine_at, _form, _moved, _newton_points, _quad, _subst
from .intlinalg import Vec, bilinear_eval, identity, is_positive_definite, smith, vec_add, vec_neg, vec_sub, zero_vec
from .quadenum import MAX_POINTS, enumerate_sublevel
from .scalars import INF, ScalarSeries, SeriesSum, UnitMonomial, series_to_json
from .torus import QuantParam, TorusPoint

Scalar = Union[UnitMonomial, ScalarSeries]

ALGEBRAIC = "algebraic"
PROPER = "proper"


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
    certificate.  Closures that compare equal return equal values at equal
    parameters, so a word memoizes their values by closure.
    """

    __slots__ = ("param", "offset", "gens", "coeff", "cones", "label", "gauss")
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
    ):
        self.param = param
        self.offset = tuple(offset)
        self.gens = tuple(tuple(g) for g in gens)
        self.coeff = coeff
        self.cones = tuple(cones) if cones else (False,) * len(self.gens)
        self.label = label or "lattice"
        self.gauss = gauss

    @property
    def nparams(self) -> int:
        return len(self.gens)

    def coeff_at(self, y: tuple, order) -> Optional[Scalar]:
        """The closure value at y, exact to ``order``; raises
        CertificateViolation when it has negative u-valuation."""
        hit = self.coeff(y, order)
        if hit is not None and hit.valuation() < 0:
            raise CertificateViolation(
                f"{self.label}: closure value at y={y} has u-valuation {hit.valuation()} < 0"
            )
        return hit

    def __repr__(self):
        return f"LatticeFactor({self.label}, params={self.nparams})"


Factor = Union[FiniteFactor, LatticeFactor]


_ZERO_TERM = object()  # combo marker: a chosen finite value is zero


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
        self._windows: dict = {}  # (order, radius) -> the coefficients in window_cells(radius) order
        self._closures: dict = {}  # (closure, y, order) -> its checked value
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
    ) -> "TorusSeries":
        factor = LatticeFactor(param, offset, gens, coeff, cones, label, gauss)
        return cls(param, [factor], label)

    # -- structure -----------------------------------------------------------

    @property
    def kind(self) -> str:
        return ALGEBRAIC if all(f.is_finite for f in self.factors) else PROPER

    def mul(self, other: "TorusSeries") -> "TorusSeries":
        """Noncommutative product: word concatenation, evaluated lazily."""
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
            new.append(LatticeFactor(param, off, gens, f.coeff, f.cones, f.label, gauss))
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
        at ``cells`` (tuples) by one :meth:`_pass` over the missing ones,
        once seeded with the windows found at the order.  A pass that raises
        caches no cell."""
        table = self._cache.setdefault(order, {})
        if not table:
            for (o, radius), values in self._windows.items():
                if o == order:
                    table.update(zip(self.param.window_cells(radius), values))
        todo = [*dict.fromkeys(filterfalse(table.__contains__, cells) if table else cells)]
        if todo:
            table.update(zip(todo, self._pass(todo, order)))
        return table

    def _window_table(self, radius: int, order) -> list:
        """The coefficients at ``window_cells(radius)``, in its order, found
        by the first call only (a raise records no window): one pass over
        the window, or read from the order's table when that has cells."""
        table = self._windows.get((order, radius))
        if table is None:
            cells = self.param.window_cells(radius)
            known = self._cache.get(order)
            table = [*map(self._table(cells, order).get, cells)] if known else self._pass(cells, order, radius)
            self._windows[order, radius] = table
        return table

    def _pass(self, cells: list, order, radius=None) -> list:
        """The coefficients at the distinct ``cells`` (``window_cells(radius)`` given
        one), in their order: the one place that picks a path, :meth:`_rule_coeffs`
        else :meth:`_combo_coeffs`."""
        rules = self._cell_rules()
        return self._combo_coeffs(cells, order) if rules is None else self._rule_coeffs(rules, cells, order, radius)

    def _rule_coeffs(self, rules, cells, order, radius=None) -> list:
        """The coefficients at ``cells`` of a word with cell rules: each rule
        is keyed at every cell in one call (:meth:`GaussRule.keys`, or over a
        window :meth:`GaussRule.window_keys`, shared by rules of equal forms),
        each distinct key's value is one shared series
        (:meth:`UnitMonomial.to_series`), and a cell sums its rules' series."""
        parts = []
        for rule in rules:
            keys, distinct = rule.window_keys(radius) if radius is not None else (ks := rule.keys(cells), set(ks))
            shared = {k: UnitMonomial(*v).to_series(order) for k, v in rule.key_values(distinct).items()}
            parts.append([*map(shared.__getitem__, keys)])
        if len(parts) == 1:
            return parts[0]
        accs = [SeriesSum(self.param.field, order) for _h in cells]
        for part in parts:
            for acc, x in zip(accs, part):
                acc.add(x)
        return [acc.series() for acc in accs]

    def _combo_coeffs(self, cells, order) -> list:
        """The coefficients at the distinct ``cells``, in their order: each finite
        combo's points are one :meth:`_add_terms` batch, the solutions
        of G y = h - base with y_c >= 0.  Over a kernel K that is one
        enumeration on the cells' bounding box, which returns each point's
        cell position there, with the per-cell box budgets summed or, where
        that is refused, each reached cell's fibre
        y = particular + K z on its own (:func:`_subst`, the cone rows in z,
        the default budget), the walk's value, 2 T(y), less twice low giving
        twice each point's u-exponent, the even part of its rule key.  Raises
        NotMultipliable where a reached cell's sum cannot be certified: at an
        INF order, or where T(y) does not bound its fibre."""
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
        sums: dict = {}  # cell -> its SeriesSum
        for combo in product(*lay.items):
            chosen, base, term, form, low = self._combo_plan(combo)
            if not kernel or order == INF:
                ts = [vec_sub(h, base) for h in cells]
                ys = lay.solver.solve_all(ts) if lay.solver else [None if any(t) else () for t in ts]
                if kernel and any(y is not None for y in ys):  # a reached sum that cannot be certified
                    raise NotMultipliable("infinite-order product coefficient needs a finite order")
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
                    ys = enumerate_sublevel(_quad(form, n), 2 * order, rows, MAX_POINTS * len(cells), place)
                except NotMultipliable:  # each reached cell's fibre on its own
                    kt, hs, ys, levels = list(zip(*kernel)), [], [], []  # kt[i]: the vectors' i-th entries
                    for h, p in zip(cells, lay.solver.solve_all([vec_sub(h, base) for h in cells])):
                        if p is not None:
                            tz = _quad(_subst(form, p, kernel), len(kernel))
                            pts = enumerate_sublevel(tz, 2 * order, [(kt[c], p[c]) for c in lay.cones])
                            ys += _affine_at(kt, p, pts, len(kernel))
                            levels += pts.values
                            hs += [h] * len(pts)
                else:
                    hs, levels = [*map(cell_at, ys.positions)], ys.values
                ok = [h is not None for h in hs]
            ys = [*compress(ys, ok)]
            keys = term[0].keys(ys, None if levels is None else [t - 2 * low for t in compress(levels, ok)])
            self._add_terms(sums, compress(hs, ok), ys, keys, chosen, term, order)
        zero = ScalarSeries.zero(self.param.field, order)
        return [sums[h].series() if h in sums else zero for h in cells]

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
        Form is _ZERO_TERM when a chosen finite value is an exact zero, so
        every term of the combo vanishes.  The cone rows y_c >= 0 are the
        caller's; ``_quad(form, n)`` hands it to ``enumerate_sublevel``.
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
            if lay.solver is not None and lay.solver.kernel:
                vals = [chosen[wi][1] for wi, span in rest if span is None]
                if any(v.is_zero() and v.trunc == INF for v in vals):
                    form = _ZERO_TERM
                else:
                    low = sum(v.trunc + 1 if v.is_zero() else v.valuation() for v in vals)
                    form = _form([*rule.uform, (n, n, 2 * low)])  # in half steps
            plan = self._combo_cache[key] = (chosen, base, (rule, tuple(rest)), form, low)
        return plan

    def _add_terms(self, sums, hs, ys, keys, chosen, term, order):
        """Adds one combo's term at each point ys[i], of Gauss rule key
        keys[i] (:meth:`GaussRule.keys`), into sums[hs[i]], a SeriesSum that
        starts at ``order``; each distinct key's monomial is read once.

        The series part (:meth:`_series_part`) depends on a point only
        through its closure multiset, its closure slices with those of equal
        closures and widths sorted, and on the monomial only through its
        u-exponent, so each multiset's part is built once, at its points'
        lowest u-exponent: the widest cap any of them needs.  A higher-exponent
        point's extra terms land above ``order``, where ``SeriesSum.add``
        drops them as it shifts and scales the part by each point's monomial:
        no monomial or scaled copy is built."""
        rule, rest = term
        ces = [*map(rule.key_values(set(keys)).__getitem__, keys)]  # (coefficient, u-exponent)
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
            for k, (_c, e) in zip(map(key, ys), ces):
                g = seen.get(k)
                if g is None:  # a new raw key: its canonical key, once
                    g = seen[k] = groups.setdefault(_canonical(k, slots.values()), [e, None])
                if e < g[0]:
                    g[0] = e
                at.append(g)
            for k, g in groups.items():
                g[1] = self._series_part(chosen, rest, k, order, g[0])
        field = self.param.field
        for h, (c, e), (_low, x) in zip(hs, ces, at):
            if x is None:
                continue
            acc = sums.get(h)
            if acc is None:
                acc = sums[h] = SeriesSum(field, order)
            acc.add(x, e, c)

    def _series_part(self, chosen, rest, key, order, uexp):
        """The term's factors left over by the Gauss rule at the closure
        parameters ``key``, for Gauss monomials of u-exponent ``uexp`` or
        more (the lowest among the key's points): a UnitMonomial or a
        ScalarSeries, or None when the term vanishes.

        A closure value has valuation >= 0 (:meth:`LatticeFactor.coeff_at`
        checks it), so each closure is asked for ``order`` less ``uexp`` and
        the finite series' valuations, and the word evaluates equal closures
        once per (parameter, order).  Unit-monomial values multiply into a
        fold.  The series values are multiplied in word order, each product
        capped at ``order`` less the monomial's and fold's u-exponents and
        the valuations of the series still to come (no cap when a value is
        an empty series), and the fold scales the product.
        """
        cut = iter(key)  # split into per-factor slices
        vals = [chosen[wi][1] if span is None else tuple(islice(cut, span.stop - span.start))
                for wi, span in rest]
        low = uexp + sum(v.valuation() for (_w, s), v in zip(rest, vals) if s is None and not v.is_zero())
        capped = True
        fold = None
        series = []  # (value, valuation) of the series-valued factors
        for (wi, span), v in zip(rest, vals):
            if span is not None:
                key = self.factors[wi].coeff, v, order - low
                if key not in self._closures:  # checked on its first evaluation
                    self._closures[key] = self.factors[wi].coeff_at(v, order - low)
                v = self._closures[key]
                if v is None:
                    return None
            if isinstance(v, UnitMonomial):
                fold = v if fold is None else fold * v
                continue
            if v.is_zero():
                if v.trunc == INF:
                    return None
                capped = False
            series.append((v, 0 if v.is_zero() else v.valuation()))
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
        values = zip(self.window_cells(radius), self._window_table(radius, order))
        coeffs = [[list(h), series_to_json(c)] for h, c in values if not c.is_zero()]
        return {
            "lattice": self.param.rank,
            "window": radius,
            "order": None if order == INF else int(order),
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

    Both words need the same G, no cones, one finite combo and a pure-Gauss
    term plan: a's coefficient at h is then the sum of rule_a(y) over
    base_a + G y = h, and b's likewise.  A translation s with
    G s = base_b - base_a maps b's fibres onto a's, so a = c b once
    rule_a(y + s) = c rule_b(y).  That needs equal quadratic u-forms, with
    Hessian H positive definite on G's kernel K (K H K^T), so that each fibre
    sum is finite, and H s = l_b - l_a (l the linear parts, in half steps),
    and s is tried only when it is the one solution.  The quotient's sign,
    u-exponent and character exponents are quadratics in y, so it is c at
    every y when it is c at every Newton point.
    """
    plans = []
    for w in (a, b):
        lay = w._layout()
        if lay.solver is None or lay.cones or any(len(it) != 1 for it in lay.items):
            return None
        _chosen, base, (rule, rest), _form, _low = w._combo_plan(tuple(it[0] for it in lay.items))
        plans.append((lay.mtx, base, rule, [t for t in rule.uform if t[1] < rule.n], rest, lay.solver.kernel))
    (mtx, base_a, ra, quad, rest_a, kernel), (mtx_b, base_b, rb, quad_b, rest_b, _k) = plans
    if rest_a or rest_b or mtx != mtx_b or quad != quad_b:
        return None
    n = ra.n
    hess = [[0] * n for _ in range(n)]
    for i, j, x in quad:
        hess[i][j] += x
        hess[j][i] += x
    if kernel and not is_positive_definite([[bilinear_eval(hess, k, l) for l in kernel] for k in kernel]):
        return None
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
