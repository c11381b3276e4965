"""Built-in named series with reproducible constructions.

Every builder returns a fresh :class:`TorusSeries` whose coefficients come
from a deterministic recipe, so regenerating a series twice gives identical
coefficients.  The registry covers the basic theta, the q-exponential
product and its reciprocal, lifts of either along arbitrary lattice
directions (with a unit-monomial argument prefactor), the quantum addition
series, the lattice-kernel theta of the multiplication encoding, and the
ratio appearing in the Yang-Baxter identity.

Conventions: q = u^2;  e_q(t) = prod_{n>=0} (1 + q^(2n+1) t).  With
P_k = prod_{i<=k} 1 / (1 - u^(4i)), Euler's closed forms give the t^k
coefficient of e_q as u^(2k^2) P_k and that of 1/e_q as (-1)^k u^(2k) P_k;
both come from one cached chain P_0, P_1, ... per field.

Each lattice series is a Gauss part times a closure whose values have
u-valuation >= 0 (:class:`~qtheta.series.LatticeFactor`): the Gauss part of
a lift of e_q takes u^(2k^2), that of 1/e_q takes u^(2k), and the closures
return P_k and (-1)^k P_k.
"""

from __future__ import annotations

from .errors import UnknownName
from .gauss import GaussRule
from .intlinalg import Vec, zero_vec
from .scalars import INF, CycloField, ScalarSeries, UnitMonomial
from .series import TorusSeries
from .torus import QuantParam, TorusPoint

# -- scalar coefficient cache --------------------------------------------------

# [P_0, P_1, ...], each a list of coefficients of x = u^4, as long as the
# highest order asked so far needs (not all of equal length): partition
# counts, the same integers in every field
_P_CHAIN: list[list[int]] = [[1]]


def _p_chain(k: int, n: int) -> list:
    """P_k, known to x^(n-1) at least, from the cached chain.

    P_i = P_(i-1) / (1 - x^i), so P_i[j] = P_(i-1)[j] + P_i[j - i]: a new P_i
    and a longer old one are filled by the same update."""
    _P_CHAIN[0] += [0] * (n - len(_P_CHAIN[0]))
    for i in range(1, k + 1):
        if i == len(_P_CHAIN):
            _P_CHAIN.append([])
        p, prev = _P_CHAIN[i], _P_CHAIN[i - 1]
        for j in range(len(p), n):
            p.append(prev[j] + p[j - i] if j >= i else prev[j])
    return _P_CHAIN[k]


def eq_coefficient(field: CycloField, k: int, order) -> ScalarSeries:
    """t^k coefficient of e_q(t), u^(2k^2) P_k, exact to the requested order
    and at least to its valuation 2k^2 (an infinite order asks for no more)."""
    if k < 0:
        return ScalarSeries.zero(field)
    lead = 2 * k * k
    top = max(0 if order == INF else int(order), lead)
    n = (top - lead) // 4 + 1
    p, pad = _p_chain(k, n), (0,) * (field.degree - 1)
    nums = {lead + 4 * j: (c, *pad) for j, c in zip(range(n), p) if c}
    return ScalarSeries._of(field, 1, nums, top, ordered=True)


def eq_inv_coefficient(field: CycloField, k: int, order) -> ScalarSeries:
    """t^k coefficient of 1 / e_q(t), (-1)^k u^(2k) P_k, exact to the
    requested order and at least to its valuation 2k: the e_q coefficient
    at the order that needs, times (-1)^k u^(2k - 2k^2)."""
    if k < 0:
        return ScalarSeries.zero(field)
    c = eq_coefficient(field, k, order - 2 * k + 2 * k * k).shift(2 * k - 2 * k * k)
    return -c if k % 2 else c


# -- lifted one-variable series --------------------------------------------------


def _lift_rule(param: QuantParam, direction: Vec, prefactor, lead) -> GaussRule:
    """k -> u^(lead(k)) prefactor^k eps(direction)^(k(k-1)/2), the last factor
    being the reordering sign of e(direction)^k = eps^(k(k-1)/2) e(k direction);
    ``lead`` is the form (in half steps) of an integer quadratic in k."""
    f = param.field
    mu = prefactor if prefactor is not None else UnitMonomial.one(f)
    sign = [] if param.epsilon(direction).is_one() else [(0, 0, 1), (0, 1, -1)]
    own = GaussRule(1, f.one(), lead, sign)
    return GaussRule.character(f, [mu]).times(own)


_SQUARE = ((0, 0, 4),)  # 2k^2: theta's q^(k^2), e_q's valuation
_LINEAR = ((0, 1, 4),)  # 2k: 1/e_q's valuation


def theta_series(
    param: QuantParam, direction: Vec, prefactor: UnitMonomial | None = None, label="theta"
) -> TorusSeries:
    """theta_q at the argument ``prefactor * e(direction)``.

    Coefficient at n*direction: q^(n^2) * prefactor^n * reordering sign, a
    Gauss rule whose u-form is the exact valuation.
    """
    rule = _lift_rule(param, direction, prefactor, _SQUARE)
    return TorusSeries.rule(param, zero_vec(param.rank), [direction], None, label=label, gauss=rule)


class _EqClosure(tuple):
    """(field, base, lead), :func:`_eq_lift`'s closure as a value: the lifts
    of one base carry equal closures.  Term (a, b, x) of the form lead is
    x k^(2 - a - b) in half steps."""

    def __call__(self, y, order):
        (k,) = y
        if k < 0:
            return None
        field, base, lead = self
        e = sum(x * k ** (2 - a - b) for a, b, x in lead) >> 1
        return base(field, k, order + e).shift(-e)


def _eq_lift(param, direction, prefactor, base, lead, label) -> TorusSeries:
    """A one-variable series at ``prefactor * e(direction)`` with t^k
    coefficient ``base(field, k, order)``, supported on k >= 0.  The Gauss
    part takes u^(lead(k)), the base's valuation, and the closure returns
    the base divided by it."""
    coeff = _EqClosure((param.field, base, lead))
    rule = _lift_rule(param, direction, prefactor, lead)
    return TorusSeries.rule(
        param, zero_vec(param.rank), [direction], coeff, cones=(True,), label=label, gauss=rule
    )


def eq_series(
    param: QuantParam, direction: Vec, prefactor: UnitMonomial | None = None, label="e_q"
) -> TorusSeries:
    """e_q at the argument ``prefactor * e(direction)``; supported on the
    nonnegative half line, where the base has valuation 2k^2."""
    return _eq_lift(param, direction, prefactor, eq_coefficient, _SQUARE, label)


def eq_inv_series(
    param: QuantParam, direction: Vec, prefactor: UnitMonomial | None = None, label="1/e_q"
) -> TorusSeries:
    """1/e_q at ``prefactor * e(direction)``: linear valuation growth 2k;
    the sign (-1)^k stays in the closure."""
    return _eq_lift(param, direction, prefactor, eq_inv_coefficient, _LINEAR, label)


def eq_addition_series(
    param: QuantParam, dir1: Vec, dir2: Vec, label="e_q(u+v)"
) -> TorusSeries:
    """e_q evaluated at the noncommutative sum e(dir1) + e(dir2).

    Coefficient at a*dir1 + b*dir2 is c_{a+b} times the (generally
    multi-term) coefficient of the word expansion of
    (e(dir1) + e(dir2))^(a+b); the q-binomial sums appear here.
    """
    f = param.field
    one = ScalarSeries.one(f)
    # DP over powers of (x + y): table[n][(a, b)] = exact scalar coefficient
    tables: list[dict] = [{(0, 0): one}]

    def table(n: int) -> dict:
        while len(tables) <= n:
            prev = tables[-1]
            nxt: dict = {}
            for (a, b), cval in prev.items():
                base = tuple(a * x1 + b * x2 for x1, x2 in zip(dir1, dir2))
                for step, target in ((dir1, (a + 1, b)), (dir2, (a, b + 1))):
                    piece = cval.scale(param.alpha(base, step))
                    cur = nxt.get(target)
                    merged = piece if cur is None else cur + piece
                    if merged.is_zero():
                        nxt.pop(target, None)
                    else:
                        nxt[target] = merged
            tables.append(nxt)
        return tables[n]

    # the word coefficient of x^a y^b has valuation -|alpha_exp(dir1, dir2)| ab
    # (a Gaussian binomial times that power), so with c_(a+b)'s 2(a+b)^2 the
    # Gauss part takes u^(2(a+b)^2 - |e12| ab) and the closure valuation 0
    e12 = abs(param.alpha_exp(dir1, dir2))
    rule = GaussRule(2, f.one(), [(0, 0, 4), (1, 1, 4), (0, 1, 8 - 2 * e12)])

    def coeff(y, order):
        a, b = y
        if a < 0 or b < 0:
            return None
        w = table(a + b).get((a, b))
        if w is None:
            return None
        e = rule.at(y).uexp
        return (eq_coefficient(f, a + b, order + e - w.valuation()) * w).shift(-e)

    gens = [dir1, dir2]
    return TorusSeries.rule(
        param, zero_vec(param.rank), gens, coeff, cones=(True, True), label=label, gauss=rule
    )


# -- Weinstein kernel theta -------------------------------------------------------


def weinstein_param(param: QuantParam) -> QuantParam:
    """The commutative doubled torus T(H + H, 1) carrying theta_W."""
    return QuantParam.trivial(param.field, 2 * param.rank)


def weinstein_theta(param: QuantParam) -> TorusSeries:
    """theta_W = sum alpha(g, h) e(g, h) on T(H + H, 1).  Its Gauss part
    bounds each coefficient but no sum: its u-form g^T A h is not positive
    definite, so a product with a kernel raises NotMultipliable at a
    coefficient it reaches."""
    dbl = weinstein_param(param)
    d = param.rank

    def cross(m):  # the form g^T m h in y = (g, h)
        return tuple((i, d + j, 2 * m[i][j]) for i in range(d) for j in range(d))

    rule = GaussRule(2 * d, param.field.one(), cross(param.A), cross(param.S))
    gens = dbl.lattice.basis()
    return TorusSeries.rule(dbl, zero_vec(2 * d), gens, None, label="theta_W", gauss=rule)


def weinstein_pair_sq(param: QuantParam, k: Vec, j: Vec) -> UnitMonomial:
    """<k, j>^2 for the symmetric pairing with <k,k> = alpha(g,h)."""
    d = param.rank
    g, h = k[:d], k[d:]
    gp, hp = j[:d], j[d:]
    return param.alpha(g, hp) * param.alpha(gp, h)


def weinstein_shift_point(param: QuantParam, k: Vec) -> TorusPoint:
    """x_k with x_k^*(e(j)) = <k, j>^2 e(j)."""
    dbl = weinstein_param(param)
    return TorusPoint(
        tuple(weinstein_pair_sq(param, k, b) for b in dbl.lattice.basis())
    )


def weinstein_norm(param: QuantParam, k: Vec) -> UnitMonomial:
    """<k, k> = alpha(g, h) for k = (g, h)."""
    d = param.rank
    return param.alpha(k[:d], k[d:])


# -- Yang-Baxter ratio --------------------------------------------------------------


def r_series(param: QuantParam, tdir: Vec, zdir: Vec, label="r") -> TorusSeries:
    """r(z, t) = theta_q(t) / (e_q(z t) e_q(z t^-1)) as a proper word."""
    th = theta_series(param, tdir, label=f"{label}.theta")
    plus = eq_inv_series(param, tuple(z + t for z, t in zip(zdir, tdir)), label=f"{label}.inv+")
    minus = eq_inv_series(param, tuple(z - t for z, t in zip(zdir, tdir)), label=f"{label}.inv-")
    return th.mul(plus).mul(minus)


# -- registry -----------------------------------------------------------------------


def builtin_series(name: str, field: CycloField, **params) -> TorusSeries:
    """Construct a registered series by name."""
    if name == "theta_jacobi":
        p = QuantParam.trivial(field, 1)
        return theta_series(p, (1,), label="theta_jacobi")
    if name == "e_q":
        p = QuantParam.trivial(field, 1)
        return eq_series(p, (1,), label="e_q")
    if name == "e_q_inv":
        p = QuantParam.trivial(field, 1)
        return eq_inv_series(p, (1,), label="e_q_inv")
    if name == "theta_on_Tq_u":
        p = QuantParam.standard_tq(field)
        return theta_series(p, (1, 0), label="theta_q(u)")
    if name == "theta_on_Tq_v":
        p = QuantParam.standard_tq(field)
        return theta_series(p, (0, 1), label="theta_q(v)")
    if name == "theta_weinstein":
        p = QuantParam.standard_tq(field)
        return weinstein_theta(p)
    if name == "r_fv":
        p = _yang_baxter_param(field)
        return r_series(p, (1, 0, 0, 0), (0, 0, 1, 0), label="r(z,u)")
    raise UnknownName(f"unknown builtin series {name!r}")


def _yang_baxter_param(field: CycloField) -> QuantParam:
    """Z^4 with the T_q block in the first two coordinates and central z, z'."""
    from .intlinalg import Lattice, mat

    a = [[0] * 4 for _ in range(4)]
    a[0][1], a[1][0] = 2, -2
    z = [[0] * 4 for _ in range(4)]
    return QuantParam(field, Lattice(4), mat(a), mat(z))
