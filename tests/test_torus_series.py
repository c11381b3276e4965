"""Quantum torus pairing data and the exact truncated product engine."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from oracles import ACCEPTED_PAIR, ample_multiplier, factor_coeff, oracle_multipliers

from qtheta.errors import (
    CertificateViolation,
    EnumerationLimit,
    NotAScalar,
    NotMultipliable,
    QThetaError,
)
from qtheta.heisenberg import heis_act
from qtheta.intlinalg import vec_add, vec_sub
from qtheta.multiplier import theta_dim_basis, theta_membership
from qtheta.named import (
    _LINEAR,
    _eq_lift,
    builtin_series,
    eq_addition_series,
    eq_coefficient,
    eq_inv_coefficient,
    eq_inv_series,
    eq_series,
    theta_series,
    weinstein_theta,
)
from qtheta.scalars import INF, CycloField, ScalarSeries, UnitMonomial
from qtheta.series import (
    FiniteFactor,
    GaussRule,
    LatticeFactor,
    TorusSeries,
    _prove_by_translation,
    conjugation_check,
    series_equal_on_cells,
)
from qtheta.torus import QuantParam, TorusPoint
from qtheta.verify import EquationSpec, EquationTerm, _term_series, identity_specs, verify_equation

F = CycloField(1)
TQ = QuantParam.standard_tq(F)


def q_mono(k):
    return UnitMonomial.q_power(F, k)


def test_alpha_on_tq():
    # alpha(h1, h2) = q  (q = u^2)
    a = TQ.alpha((1, 0), (0, 1))
    assert a == q_mono(1)
    assert TQ.alpha((1, 0), (1, 0)).is_one()
    # alpha(2h1+h2, h1-h2) = q^-3 by bilinear expansion
    assert TQ.alpha((2, 1), (1, -1)) == q_mono(-3)


def test_alpha_inverse_symmetry_random():
    rng = random.Random(1)
    f4 = CycloField(4)
    p = QuantParam(f4, TQ.lattice, TQ.A, ((1, 1), (1, 0)))
    for _ in range(30):
        g = (rng.randint(-4, 4), rng.randint(-4, 4))
        h = (rng.randint(-4, 4), rng.randint(-4, 4))
        assert (p.alpha(g, h) * p.alpha(h, g)).is_one()


def test_epsilon():
    assert TQ.epsilon((3, -2)).is_one()
    f = CycloField(1)
    p = QuantParam(f, TQ.lattice, ((0, 0), (0, 0)), ((1, 0), (0, 0)))
    assert p.epsilon((1, 0)) == UnitMonomial(-f.one(), 0)
    assert p.epsilon((2, 0)).is_one()
    rng = random.Random(5)
    for _ in range(20):
        g = (rng.randint(-3, 3), rng.randint(-3, 3))
        h = (rng.randint(-3, 3), rng.randint(-3, 3))
        lhs = p.epsilon((g[0] + h[0], g[1] + h[1]))
        assert lhs == p.epsilon(g) * p.epsilon(h)


def test_exp_mul():
    # e(g) e(h) = alpha(g, h) e(g + h)
    for g, h, c in [
        ((1, 0), (0, 1), q_mono(1)),
        ((0, 1), (1, 0), q_mono(-1)),
        ((2, 0), (0, 3), q_mono(6)),  # e(2h1) e(3h2) = q^6 e(2h1 + 3h2)
    ]:
        assert TQ.alpha(g, h) == c
        prod = TorusSeries.exponent(TQ, g).mul(TorusSeries.exponent(TQ, h))
        assert prod.support_points() == [vec_add(g, h)]
        assert prod.coeff(vec_add(g, h), INF) == c.to_series()


def test_exp_mul_associative_random():
    rng = random.Random(7)
    for _ in range(40):
        f, g, h = (
            (rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)
        )
        c1, c2 = TQ.alpha(f, g), TQ.alpha(vec_add(f, g), h)
        d1, d2 = TQ.alpha(g, h), TQ.alpha(f, vec_add(g, h))
        assert c1 * c2 == d1 * d2


def test_point_eval():
    x = TorusPoint.from_q_exps(F, [2, 0])
    assert x.eval((3, 0)) == q_mono(6)
    e = TorusPoint.identity(F, 2)
    assert e.eval((5, -7)).is_one()
    y = TorusPoint.from_q_exps(F, [1, -1])
    assert (x * y).eval((2, 3)) == x.eval((2, 3)) * y.eval((2, 3))


def test_hidden_point():
    # A_{h1} on TQ: h1 -> 1, h2 -> q^-1
    ah1 = TQ.hidden_point((1, 0))
    assert ah1.values[0].is_one()
    assert ah1.values[1] == q_mono(-1)
    p1 = QuantParam.trivial(F, 2)
    assert p1.hidden_point((3, 1)).is_identity()
    rng = random.Random(3)
    for _ in range(30):
        g = (rng.randint(-4, 4), rng.randint(-4, 4))
        h = (rng.randint(-4, 4), rng.randint(-4, 4))
        assert TQ.hidden_point(h).eval(g) == TQ.hidden_point(tuple(-x for x in g)).eval(h)


# ---------------------------------------------------------------------------
# series engine


def theta_lift(param, direction, label="theta"):
    """Jacobi theta lifted along a lattice direction: coeff q^(n^2) at n*dir,
    u^(n^2) from a Gauss part and u^(n^2) from a closure."""
    d = param.rank
    f = param.field

    def coeff(y, order):
        (n,) = y
        return UnitMonomial(f.one(), n * n)

    half = GaussRule(1, f.one(), [(0, 0, 2)])
    return TorusSeries.rule(param, (0,) * d, [direction], coeff, label=label, gauss=half)


def test_identity_product():
    th = theta_lift(TQ, (1, 0))
    one = TorusSeries.one(TQ)
    prod = th.mul(one)
    for n in range(-3, 4):
        assert prod.coeff((n, 0), 30) == th.coeff((n, 0), 30)


def test_theta_square_constant_coefficient():
    # alpha == 1, d=1: (theta_q^2)(t^0) = sum_k q^(2k^2) = 1 + 2q^2 + 2q^8 + O(q^9)
    p = QuantParam.trivial(F, 1)
    th = theta_lift(p, (1,))
    sq = th.mul(th)
    c = sq.coeff((0,), 16)
    expect = ScalarSeries(F, {0: F.one(), 4: F.from_rational(2), 16: F.from_rational(2)}, 16)
    assert c == expect


def test_uv_commutation():
    u = TorusSeries.exponent(TQ, (1, 0))
    v = TorusSeries.exponent(TQ, (0, 1))
    uv = u.mul(v)
    vu = v.mul(u)
    # uv = q^2 vu exactly
    lhs = uv.coeff((1, 1), 20)
    rhs = vu.coeff((1, 1), 20).scale(q_mono(2))
    assert lhs.equal_to_order(rhs, 20)


def test_trivial_alpha_commutative():
    p = QuantParam.trivial(F, 2)
    rng = random.Random(11)
    table_a = {
        (rng.randint(-2, 2), rng.randint(-2, 2)): UnitMonomial.q_power(F, rng.randint(0, 3))
        for _ in range(4)
    }
    table_b = {
        (rng.randint(-2, 2), rng.randint(-2, 2)): UnitMonomial.q_power(F, rng.randint(0, 3))
        for _ in range(4)
    }
    a = TorusSeries.from_dict(p, table_a)
    b = TorusSeries.from_dict(p, table_b)
    ab, ba = a.mul(b), b.mul(a)
    assert series_equal_on_cells(ab, ba, ab.window_cells(5), 40)


def test_torus_series_mul_materialized():
    th = theta_lift(TQ, (1, 0), "th_u")
    tv = theta_lift(TQ, (0, 1), "th_v")
    prod = th.mul(tv)
    prod = prod.materialize(prod.window_cells(2), 20)
    # support pins: coefficient at (n, m) is q^(n^2+m^2) alpha(nh1, mh2) = q^(n^2+m^2+nm)
    for n in range(-2, 3):
        for m in range(-2, 3):
            e = 2 * (n * n + m * m + n * m)
            c = prod.coeff((n, m), 20)
            if e <= 20:
                assert c == UnitMonomial(F.one(), e).to_series().truncate(20)
            else:
                assert c.is_zero()


def test_enumerator_order_consistency():
    # a coefficient asked to a higher order agrees below the lower one
    th = theta_lift(TQ, (1, 0))
    tv = theta_lift(TQ, (0, 1))
    prod = th.mul(tv).mul(th)
    for cell in [(0, 0), (1, 1), (-2, 1)]:
        assert prod.coeff(cell, 25).truncate(18) == prod.coeff(cell, 18)


def test_shift_pullback():
    # d=1, x: h0 -> q^2, theta -> sum q^(n^2+2n) t^n
    p = QuantParam.trivial(F, 1)
    th = theta_lift(p, (1,))
    x = TorusPoint.from_q_exps(F, [2])
    shifted = th.shift_pullback(x)
    for n in range(-3, 4):
        c = shifted.coeff((n,), 40)
        e = 2 * (n * n + 2 * n)
        if e <= 40:
            assert c == ScalarSeries.q_power(F, n * n + 2 * n).truncate(40)
    # x*(e(h)) = h(x) e(h)
    eh = TorusSeries.exponent(p, (3,))
    assert eh.shift_pullback(x).coeff((3,), INF) == q_mono(6).to_series()
    # identity point acts as identity
    ident = TorusPoint.identity(F, 1)
    assert series_equal_on_cells(th.shift_pullback(ident), th, [(n,) for n in range(-3, 4)], 30)


def test_conjugation_check():
    # T_q, h = h1, f = e(h2): both sides q^2 e(h2)
    f = TorusSeries.exponent(TQ, (0, 1))
    assert conjugation_check(TQ, (1, 0), f)
    # alpha == 1: conjugation trivial
    p = QuantParam.trivial(F, 2)
    g = TorusSeries.from_dict(p, {(1, 2): q_mono(3), (-1, 0): q_mono(1)})
    assert conjugation_check(p, (2, -1), g)
    # random h, f on T_q
    rng = random.Random(19)
    for _ in range(15):
        h = (rng.randint(-2, 2), rng.randint(-2, 2))
        table = {
            (rng.randint(-2, 2), rng.randint(-2, 2)): UnitMonomial.q_power(F, rng.randint(-2, 4))
            for _ in range(3)
        }
        assert conjugation_check(TQ, h, TorusSeries.from_dict(TQ, table))


def test_formal_kind_refuses_products():
    # window-only rule: its Gauss part bounds no sum
    def coeff(y, order):
        return UnitMonomial.one(F)

    w = TorusSeries.rule(TQ, (0, 0), [(1, 0), (0, 1)], coeff, label="flat", formal=True)
    assert w.kind == "formal"
    other = theta_lift(TQ, (1, 0))
    with pytest.raises(NotMultipliable):
        w.mul(other)


def test_braid_identity_small():
    # theta_q(u) theta_q(v) theta_q(u) = theta_q(v) theta_q(u) theta_q(v)
    th_u = theta_lift(TQ, (1, 0), "u")
    th_v = theta_lift(TQ, (0, 1), "v")
    lhs = th_u.mul(th_v).mul(th_u)
    rhs = th_v.mul(th_u).mul(th_v)
    assert series_equal_on_cells(lhs, rhs, lhs.window_cells(2), 12)


def test_zero_valued_finite_factor_skips_enumeration(monkeypatch):
    # a zero finite value makes every term of its combo vanish: the
    # coefficient is zero at any order and no sublevel set is enumerated
    import qtheta.series as series_mod

    calls = []
    real = series_mod.enumerate_sublevel

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(series_mod, "enumerate_sublevel", counting)
    p = QuantParam.trivial(F, 1)
    th = theta_lift(p, (1,))
    sq = th.mul(th)
    assert not sq.coeff((0,), 16).is_zero() and calls  # the product enumerates
    calls.clear()
    zero = sq.scaled(ScalarSeries.zero(F, INF))
    for order in (16, 10**9):
        c = zero.coeff((0,), order)
        assert c.is_zero() and c.trunc >= order
    assert calls == []


# ---------------------------------------------------------------------------
# order-bounded products in the term combination: each product is capped by
# the certified lower bounds of the factors still to come


@pytest.mark.parametrize("m", [1, 5])
def test_lattice_certificates_bound_coefficient_valuations(m):
    # a closure factor's certificate is its Gauss part: the named closures'
    # values have valuation exactly 0, so the Gauss exponent is the
    # coefficient's valuation (a Gauss-only factor is its Gauss part)
    f = CycloField(m)
    p = QuantParam.standard_tq(f)
    x = TorusPoint((UnitMonomial(f.zeta(), 1), UnitMonomial(-f.one(), -2)))
    cases = []
    for uexp in (3, -3):
        mu = UnitMonomial(f.zeta(), uexp)
        cases += [eq_series(p, (1, 0), mu), eq_inv_series(p, (0, 1), mu)]
    cases += [eq_addition_series(p, (1, 0), (0, 1)), eq_addition_series(p, (1, 1), (1, -1))]
    q3 = QuantParam(f, TQ.lattice, ((0, 3), (-3, 0)), ((1, 1), (1, 0)))  # e12 = 3, signs
    cases += [eq_addition_series(q3, (1, 0), (0, 1)), eq_addition_series(q3, (0, 1), (1, 0))]
    cases += [s.shift_pullback(x) for s in cases]
    seen = 0
    for s in cases:
        (fac,) = s.factors
        for y in itertools.product(range(-1, 6), repeat=fac.nparams):
            c = factor_coeff(fac, y, 60)
            if c is not None:
                seen += 1
                assert c.valuation() == fac.gauss.at(y).uexp, (s.label, y)
    assert seen > 100


def test_a_closure_value_of_negative_valuation_raises():
    # the closure is u^-1 at k = 2: the Gauss part u^(2k^2) then over-states
    # the coefficient's valuation, and every path that reads it refuses
    f = CycloField(1)
    p = QuantParam.trivial(f, 1)

    def bad(y, order):
        return UnitMonomial(f.one(), -1) if y == (2,) else ScalarSeries.one(f, order)

    square = GaussRule(1, f.one(), [(0, 0, 4)])
    s = TorusSeries.rule(p, (0,), [(1,)], bad, label="bad", gauss=square)
    (fac,) = s.factors
    assert fac.coeff_at((1,), 10) == ScalarSeries.one(f, 10)
    for _ in range(2):  # a refused value is not memoized
        with pytest.raises(CertificateViolation, match=r"bad: .*y=\(2,\) .*valuation -1"):
            fac.coeff_at((2,), 10)
    cells = [(h,) for h in range(-3, 4)]
    fresh = TorusSeries(p, s.factors)
    assert not fresh._layout().solver.kernel and fresh._cell_rules() is None
    with pytest.raises(CertificateViolation):  # the solve pass
        fresh.coeffs(cells, 20)
    word = s.mul(theta_series(p, (1,)))
    assert word._layout().solver.kernel
    with pytest.raises(CertificateViolation):  # the window pass
        word.coeffs(cells, 20)
    with pytest.raises(CertificateViolation):  # one cell, kernel enumerated around it
        TorusSeries(p, word.factors).coeff((2,), 20)
    one = UnitMonomial.one(f)
    spec = EquationSpec(p, [EquationTerm(one, [word]), EquationTerm(-one, [word])], 2, 20)
    with pytest.raises(CertificateViolation):
        verify_equation(spec)


def _word_coeff_reference(param, tables, h, order):
    """Coefficient at h of the product of finitely supported factors, built
    pair by pair with the plain product and truncated at the end."""
    f = param.field
    total = ScalarSeries.zero(f, order)
    for combo in itertools.product(*[t.items() for t in tables]):
        pts = [pt for pt, _v in combo]
        if tuple(map(sum, zip(*pts))) != tuple(h):
            continue
        term = UnitMonomial.one(f).to_series()
        for i, (pt, v) in enumerate(combo):
            for q in pts[i + 1 :]:
                term = term * param.alpha(pt, q)
            term = term * (v if isinstance(v, ScalarSeries) else v.to_series())
        total = total + term.truncate(order)
    return total


def test_negative_gauss_part_raises_the_caps_before_it():
    # finite factors with series values, then a lattice factor whose Gauss
    # part is u^-4: the terms it brings down come back below the order, so
    # the products before it are capped at the order plus 4
    p = QuantParam(F, TQ.lattice, TQ.A, ((1, 0), (0, 0)))

    def ser(terms):
        return ScalarSeries(F, {e: F.from_rational(c) for e, c in terms.items()})

    f1 = {(1, 0): ser({0: 1, 3: 2, 5: -1}), (0, 0): ser({1: 3, 4: 1})}
    f2 = {
        (0, 1): ser({0: 1, 2: 1, 4: 5}),
        (1, 1): UnitMonomial(-F.one(), 1),
        (2, 0): ScalarSeries.zero(F, 3),  # zero only up to u^3
    }

    def coeff(y, order):
        return ser({0: 1, 1: y[0] or 1, 2: 1 + y[1]})

    down = GaussRule(2, F.one(), [(2, 2, -8)])
    lat = TorusSeries.rule(p, (0, 0), [(1, 0), (0, 1)], coeff, gauss=down)
    word = TorusSeries(
        p, [FiniteFactor(p, f1), FiniteFactor(p, f2)] + list(lat.factors)
    )
    order = 6
    for h in itertools.product(range(-1, 3), repeat=2):
        lat_table = {}
        for t1 in f1:
            for t2 in f2:
                y = tuple(a - b - c for a, b, c in zip(h, t1, t2))
                lat_table[y] = coeff(y, order).shift(-4)
        ref = _word_coeff_reference(p, [f1, f2, lat_table], h, order)
        assert word.coeff(h, order) == ref, h


@pytest.mark.parametrize("m", [1, 5])
def test_certified_word_equals_product_of_materialized_operands(m):
    # later factors have coefficients of negative valuation, so a cap that
    # ignored them would drop terms that come back below the order
    f = CycloField(m)
    p = QuantParam(f, TQ.lattice, TQ.A, ((0, 1), (1, 1)))
    a = eq_series(p, (1, 0), UnitMonomial(f.zeta(), 1))
    b = eq_series(p, (0, 1), UnitMonomial(f.zeta(2), -5))
    c = eq_inv_series(p, (1, 0), UnitMonomial(-f.one(), -4))
    word = a.mul(b).mul(c)
    order = 8
    box = list(itertools.product(range(0, 7), repeat=2))
    tables = [s.materialize(box, order + 40).factors[0].table for s in (a, b, c)]
    for h in itertools.product(range(0, 4), repeat=2):
        got = word.coeff(h, order)
        assert got == _word_coeff_reference(p, tables, h, order), h


def test_empty_finite_value_bounds_a_kernel_product_by_its_truncation():
    # a series with no known term up to u^3 is not an exact zero: the term
    # it scales is unknown from u^4 on, with or without an enumeration
    th = theta_series(QuantParam.trivial(F, 1), (1,))
    zero = ScalarSeries.zero(F, 3)
    plain = th.scaled(zero).coeff((0,), 16)
    kernel = th.mul(th).scaled(zero).coeff((0,), 16)
    assert plain.is_zero() and plain.trunc == 3
    assert kernel.is_zero() and kernel.trunc == 3


# ---------------------------------------------------------------------------
# Gauss rules: theta-type coefficients and their pullbacks as integer forms,
# checked against the closure formulas they replace


def _point(fac, y):
    """A lattice factor's point offset + G y."""
    return tuple(o + sum(yi * g[k] for yi, g in zip(y, fac.gens)) for k, o in enumerate(fac.offset))


def _old_lift(param, direction, mu, n):
    """mu^n times the reordering sign of e(direction)^n, as a closure would
    compute it: a flip when eps(direction) != 1 and n(n-1)/2 is odd."""
    c = mu**n
    if not param.epsilon(direction).is_one() and (n * (n - 1) // 2) % 2:
        c = -c
    return c


def _same(a, b, order):
    if isinstance(a, ScalarSeries):
        return a.truncate(order) == b.truncate(order)
    return a == b


def _gauss_cases(m):
    """A pairing with S != 0 (eps(1, 0) = eps(1, 1) = -1), prefactors with
    coefficients other than +-1 (zeta_5 u^3 at m=5), and shift points with
    such coefficients and nonzero u-exponents."""
    f = CycloField(m)
    p = QuantParam(f, TQ.lattice, TQ.A, ((1, 1), (1, 0)))
    mus = [None, UnitMonomial(f.zeta(), 3), UnitMonomial(f.from_rational(Fraction(-1, 2)), -1)]
    points = [
        TorusPoint((UnitMonomial(3 * f.zeta(2), 1), UnitMonomial(-f.one(), -2))),
        TorusPoint((UnitMonomial(f.from_rational(Fraction(2, 3)), -3), UnitMonomial(f.one(), 2))),
    ]
    return f, p, mus, points


def _offset_gauss_series(f, p):
    """A Gauss factor off the origin, with cross terms in every form (index 2
    of a form term stands for the constant 1; forms count half steps)."""
    rule = GaussRule(
        2,
        f.zeta(),
        [(2, 2, 2), (0, 2, 6), (1, 2, -2), (0, 0, 4), (0, 1, 2), (1, 1, 2)],
        [(2, 2, 2), (0, 2, -1), (1, 2, 2), (0, 0, 1), (0, 1, 2)],
        [(f.from_rational(-3), [(2, 2, 2), (0, 2, 2), (1, 2, -2)])],
    )
    return rule, TorusSeries.rule(p, (1, -2), [(1, 1), (2, -1)], None, gauss=rule)


@pytest.mark.parametrize("m", [1, 5])
def test_named_gauss_rules_match_their_closure_formulas(m):
    f, p, mus, _points = _gauss_cases(m)
    for direction in ((1, 0), (1, 1), (0, 1)):
        for mu in mus:
            mono = mu or UnitMonomial.one(f)
            th, eq, inv = (b(p, direction, mu) for b in (theta_series, eq_series, eq_inv_series))
            for n in range(-5, 6):
                lift = _old_lift(p, direction, mono, n)
                assert factor_coeff(th.factors[0], (n,), 30) == UnitMonomial.q_power(f, n * n) * lift
                for s, base in ((eq, eq_coefficient), (inv, eq_inv_coefficient)):
                    got = factor_coeff(s.factors[0], (n,), 30)
                    if n < 0:
                        assert got is None
                    else:
                        assert _same(got, base(f, n, 30).scale(lift), 20)
    (fac,) = weinstein_theta(p).factors
    for y in itertools.product(range(-2, 3), repeat=4):
        assert factor_coeff(fac, y, 30) == p.alpha(y[:2], y[2:])
    # the offset rule against its own forms, written out
    rule, _s = _offset_gauss_series(f, p)
    for a, b in itertools.product(range(-3, 4), repeat=2):
        s2 = 2 - a + 2 * b + a * a + 2 * a * b
        assert s2 % 2 == 0
        want = f.zeta() * f.from_rational(-3) ** (1 + a - b)
        want = -want if (s2 // 2) % 2 else want
        assert rule.at((a, b)) == UnitMonomial(want, 1 + 3 * a - b + 2 * a * a + a * b + b * b)


def test_named_series_keep_their_kind():
    kinds = {
        "theta_jacobi": "proper",
        "e_q": "proper",
        "e_q_inv": "proper",
        "theta_on_Tq_u": "proper",
        "theta_on_Tq_v": "proper",
        "theta_weinstein": "formal",
        "r_fv": "proper",
    }
    for name, kind in kinds.items():
        s = builtin_series(name, F)
        assert s.kind == kind, name
        point = TorusPoint((q_mono(1),) * s.param.rank)
        assert s.shift_pullback(point).kind == kind, name
    added = eq_addition_series(TQ, (1, 0), (0, 1))
    assert added.shift_pullback(TorusPoint((q_mono(1),) * 2)).kind == "proper"


@pytest.mark.parametrize("m", [1, 5])
def test_shift_pullbacks_match_the_wrapped_closure(m):
    f, p, mus, points = _gauss_cases(m)
    _rule, off = _offset_gauss_series(f, p)
    cases = [
        theta_series(p, (1, 1), mus[1]),
        theta_series(p, (1, 0), mus[2]),
        eq_series(p, (1, 0), mus[2]),
        eq_inv_series(p, (0, 1), mus[1]),
        eq_addition_series(p, (1, 0), (0, 1)),
        off,
    ]
    for s in cases:
        (fac,) = s.factors
        for x in points + [points[0] * points[1]]:
            (pulled,) = s.shift_pullback(x).factors
            assert pulled.gens == fac.gens and pulled.offset == fac.offset
            for y in itertools.product(range(-2, 4), repeat=fac.nparams):
                c = factor_coeff(fac, y, 30)
                got = factor_coeff(pulled, y, 30)
                if c is None:
                    assert got is None
                    continue
                assert _same(got, x.eval(_point(fac, y)) * c, 20), (s.label, y)
                for g in (fac, pulled):  # the Gauss exponent is the valuation
                    assert factor_coeff(g, y, 30).valuation() == g.gauss.at(y).uexp, (s.label, y)
    # theta_W and a rank-4 point with every kind of coefficient
    theta_w = weinstein_theta(p)
    x = TorusPoint(
        (
            UnitMonomial(f.zeta(), 1),
            UnitMonomial(-f.one(), 0),
            UnitMonomial(f.from_rational(2), -1),
            UnitMonomial(f.one(), 2),
        )
    )
    (pulled,) = theta_w.shift_pullback(x).factors
    assert pulled.formal and pulled.coeff is None
    for y in itertools.product(range(-1, 2), repeat=4):
        assert factor_coeff(pulled, y, 30) == x.eval(y) * p.alpha(y[:2], y[2:])


# ---------------------------------------------------------------------------
# window-wide coefficients: one certified enumeration per term and combo,
# equal to the per-cell coefficients


def _fresh_terms(name, m, window):
    """The term series of a registry identity's first spec, with empty caches."""
    spec = identity_specs(name, CycloField(m), window=window)[0]
    return sorted(spec.cells()), spec.order, [_term_series(t)[1] for t in spec.terms]


def _record_enumerations(monkeypatch):
    """Patch the engine's enumerator to log (points returned or the error)."""
    import qtheta.series as series_mod

    log = []
    real = series_mod.enumerate_sublevel

    def recording(*args, **kwargs):
        try:
            out = real(*args, **kwargs)
        except NotMultipliable as e:
            log.append(e)
            raise
        log.append(len(out))
        return out

    monkeypatch.setattr(series_mod, "enumerate_sublevel", recording)
    return log


def _not_a_box(cells):
    return [h for i, h in enumerate(cells) if i % 5 in (0, 3) or h[0] == h[-1]]


@pytest.mark.parametrize("m", [1, 5])
@pytest.mark.parametrize("name, window", [("E024", 2), ("E025", 2), ("E026", 1)])
def test_window_coeffs_equal_per_cell_coeffs(monkeypatch, name, window, m):
    cells, order, _ = _fresh_terms(name, m, window)
    log = _record_enumerations(monkeypatch)
    batches = []  # points per _add_terms call
    real_add = TorusSeries._add_terms

    def add_terms(self, sums, hs, ys, *args):
        batches.append(len(ys))
        return real_add(self, sums, hs, ys, *args)

    monkeypatch.setattr(TorusSeries, "_add_terms", add_terms)
    for subset in (cells, cells[1::3], _not_a_box(cells)):
        _c, _o, by_cell = _fresh_terms(name, m, window)
        _c, _o, by_window = _fresh_terms(name, m, window)
        for a, b in zip(by_cell, by_window):
            kernel = bool(b._layout().solver.kernel)
            log.clear()
            want = {h: a.coeff(h, order) for h in subset}
            per_cell = list(log)
            log.clear()
            batches.clear()
            got = b.coeffs(subset, order)
            assert got == want
            # one enumeration for the one combo, and coeff reads the cache
            assert all(b.coeff(h, order) is x for h, x in got.items())
            assert log == ([log[0]] if kernel else [])
            assert all(isinstance(x, int) for x in per_cell)
            # the one batch holds exactly the requested cells' points
            assert not kernel or batches == [sum(per_cell)]
            if kernel and subset is cells:  # the box holds exactly their points
                assert log[0] == sum(per_cell)
    assert any(b._layout().solver.kernel for b in by_window)


@pytest.mark.parametrize("m", [1, 5])
def test_window_coeffs_of_a_word_with_finite_factors(monkeypatch, m):
    # three combos that reach cells, one exact-zero combo and one known
    # only to u^5, around a kernel with cones and a nontrivial alpha
    f = CycloField(m)
    ser = ScalarSeries(f, {0: f.one(), 3: f.zeta(), 7: -f.one()})
    table = {
        (0, 0): UnitMonomial(f.zeta(), 1),
        (1, -1): ser,
        (-1, 0): ScalarSeries.zero(f, INF),
        (0, 2): ScalarSeries.zero(f, 5),
        (2, 1): UnitMonomial(-f.one(), -1),
    }

    def word():
        p = QuantParam.standard_tq(f)
        poly = TorusSeries.from_dict(p, table)
        word = theta_series(p, (1, 0)).mul(poly).mul(eq_series(p, (1, 0)))
        return word.mul(theta_series(p, (0, 1)))

    cells = list(itertools.product(range(-2, 3), repeat=2))
    log = _record_enumerations(monkeypatch)
    for subset in (cells, cells[::2], _not_a_box(cells) + [(6, -5)]):
        ref, got = word(), word()
        assert len(got._layout().solver.kernel) == 1
        want = {h: ref.coeff(h, 9) for h in subset}
        log.clear()
        assert got.coeffs(subset, 9) == want
        assert len(log) == len(table) - 1  # the exact-zero combo is skipped
        assert any(not c.is_zero() for c in want.values())


def test_refused_window_falls_back_to_per_cell_coeffs(monkeypatch):
    # a window budget of one point per cell is refused; each cell's own
    # enumeration keeps the default cap and succeeds
    import qtheta.series as series_mod

    cells, order, by_cell = _fresh_terms("E026", 1, 1)
    _c, _o, by_window = _fresh_terms("E026", 1, 1)
    want = [{h: s.coeff(h, order) for h in cells} for s in by_cell]
    monkeypatch.setattr(series_mod, "MAX_POINTS", 1)
    log = _record_enumerations(monkeypatch)
    for s, w in zip(by_window, want):
        log.clear()
        assert s.coeffs(cells, order) == w
        assert isinstance(log[0], EnumerationLimit)
        assert len(log) == 1 + len(cells) and all(isinstance(x, int) for x in log[1:])


# ---------------------------------------------------------------------------
# the series part of a term -- closure values and their capped product -- is
# computed once per closure multiset within one combo's batch, at the lowest
# u-exponent among the multiset's points


@pytest.mark.parametrize("orders", [(12, 7), (7, 12)])
def test_one_series_asked_at_two_orders(orders):
    # the products are capped by the order, so a series part kept from one
    # pass would be wrong at the other order in either direction
    cells, _order, terms = _fresh_terms("E026", 1, 1)
    for order in orders:
        _c, _o, fresh = _fresh_terms("E026", 1, 1)
        for s, ref in zip(terms, fresh):
            got = s.coeffs(cells, order)
            assert got == {h: ref.coeff(h, order) for h in cells}
            assert all(x.trunc == order for x in got.values())


def _fold_word(f, with_eq=True):
    """theta(v) . g(u) . e_q(v) . g(u) over a torus with alpha and signs (or
    without e_q), where g is the Gauss part u^(2k - 1) times a closure that
    returns unit monomials at even k, series at odd k and, at k = 3, a
    series with no term known to u^2 once times u^5; with the factors'
    coefficient tables on a box that holds every term below u^8 at the
    cells used here."""
    p = QuantParam(f, TQ.lattice, TQ.A, ((0, 1), (1, 1)))

    def g(y, order):
        (k,) = y
        if k == 3:
            return ScalarSeries.zero(f, -3)
        if k % 2:
            return ScalarSeries(f, {0: f.zeta(), 3: -f.one()})
        return UnitMonomial(f.zeta(k), 0)

    lead = GaussRule(1, f.one(), [(0, 1, 4), (1, 1, -2)])
    gser = TorusSeries.rule(p, (0, 0), [(1, 0)], g, cones=(True,), label="g", gauss=lead)
    middle = [eq_series(p, (0, 1))] if with_eq else []
    word = theta_series(p, (0, 1))
    for s in [gser, *middle, gser]:
        word = word.mul(s)
    box = [(0, b) for b in range(-5, 9)]
    tables = [
        {(k, 0): lead.at((k,)) * g((k,), INF) for k in range(0, 6)}
        if fac.label == "g"
        else TorusSeries(p, [fac]).materialize(box, 48).factors[0].table
        for fac in word.factors
    ]
    return p, word, tables


@pytest.mark.parametrize("m", [1, 5])
@pytest.mark.parametrize("with_eq", [True, False])
def test_closure_unit_monomials_fold_into_the_shared_monomial(monkeypatch, m, with_eq):
    # with e_q every series part is a product, and without it every even
    # pair of closure values is a unit monomial with no product at all
    p, word, tables = _fold_word(CycloField(m), with_eq)
    order = 8
    cells = list(itertools.product(range(0, 4), range(-2, 3)))
    calls = []
    real = LatticeFactor.coeff_at
    monkeypatch.setattr(
        LatticeFactor, "coeff_at", lambda fac, y, o: calls.append(y) or real(fac, y, o)
    )
    points = _record_enumerations(monkeypatch)
    got = word.coeffs(cells, order)
    closures = 2 + with_eq
    assert len(calls) < closures * points[0]  # points share their series parts
    for h in cells:
        assert got[h] == _word_coeff_reference(p, tables, h, order), h
    assert sum(not x.is_zero() for x in got.values()) > 10


def test_an_empty_finite_trunc_closure_value_leaves_the_product_uncapped():
    # at k = 3 the closure knows no term up to u^2: the terms it scales are
    # known only to its trunc plus their valuation, shared or not
    p, word, tables = _fold_word(CycloField(1))
    got = word.coeffs([(3, 0), (3, 1), (3, 2), (4, 0), (5, 2)], 8)
    for h, x in got.items():
        assert x == _word_coeff_reference(p, tables, h, 8), h
    assert [got[(3, b)].trunc for b in range(3)] == [1, -3, -7]


def _closure_keys(word, rest):
    """y -> (raw key, canonical key) of a point: its closure slices in word
    order, and the same with the slices of each class of equal closures of
    equal width in ascending order, the key of its closure multiset."""
    spans = [(word.factors[wi].coeff, span) for wi, span in rest if span is not None]

    def keys(y):
        pools = {}
        for c, span in spans:
            pools.setdefault((c, span.stop - span.start), []).append(y[span])
        for pool in pools.values():
            pool.sort(reverse=True)
        raw = sum((y[span] for _c, span in spans), ())
        return raw, sum((pools[c, span.stop - span.start].pop() for c, span in spans), ())

    return keys


def _spy_series_parts(monkeypatch):
    """Patch the batch helper and the series part builder to log, for each
    batch, (the points' canonical closure keys -> their lowest u-exponent by
    the Gauss rule, the (key, u-exponent) of each part built, the parts
    built other than None, (word, chosen, rest, raw key -> canonical key))."""
    batches = []
    real_add, real_part = TorusSeries._add_terms, TorusSeries._series_part

    def add_terms(self, sums, hs, ys, es, chosen, term, order):
        rule, rest = term
        keys = _closure_keys(self, rest)
        lowest, canon = {}, {}
        for y, (_c, e) in zip(ys, rule.values(ys)):
            raw, key = keys(y)
            canon[raw] = key
            lowest[key] = min(lowest.get(key, e), e)
        batches.append((lowest, [], [], (self, chosen, rest, canon)))
        return real_add(self, sums, hs, ys, es, chosen, term, order)

    def series_part(self, chosen, rest, key, order, uexp):
        part = real_part(self, chosen, rest, key, order, uexp)
        batches[-1][1].append((key, uexp))
        if part is not None:
            batches[-1][2].append(part)
        return part

    monkeypatch.setattr(TorusSeries, "_add_terms", add_terms)
    monkeypatch.setattr(TorusSeries, "_series_part", series_part)
    return batches


def _spy_walk_exponents(monkeypatch):
    """Patch the batch helper and the series part builder to check, at every
    point of every batch, that the u-exponent handed in is the term's Gauss
    rule's; log per batch (points, low, the points' canonical closure keys,
    the keys the series parts were built for)."""
    log = []
    real_add, real_part = TorusSeries._add_terms, TorusSeries._series_part

    def add_terms(self, sums, hs, ys, es, chosen, term, order):
        rule, rest = term
        assert es == [e for _c, e in rule.values(ys)]
        vals = [v for _p, v in chosen.values() if isinstance(v, ScalarSeries)]
        low = sum(v.valuation() if v.terms else v.trunc + 1 for v in vals)
        keys = _closure_keys(self, rest)
        canon = {keys(y)[1] for y in ys} if rest else set()
        log.append((len(ys), low, canon, set()))
        return real_add(self, sums, hs, ys, es, chosen, term, order)

    def series_part(self, chosen, rest, key, order, uexp):
        log[-1][3].add(key)
        return real_part(self, chosen, rest, key, order, uexp)

    monkeypatch.setattr(TorusSeries, "_add_terms", add_terms)
    monkeypatch.setattr(TorusSeries, "_series_part", series_part)
    return log


def _series_valued_finite(f, p):
    """A finite factor with series values of valuation 0 and 2, one exact
    zero and one with no term known to u^5."""
    return TorusSeries.from_dict(p, {
        (0, 0): UnitMonomial(f.zeta(), 1),
        (1, -1): ScalarSeries(f, {0: f.one(), 3: f.zeta(), 7: -f.one()}),
        (1, 0): ScalarSeries(f, {2: f.zeta(), 4: -f.one()}),
        (-1, 0): ScalarSeries.zero(f, INF),
        (0, 2): ScalarSeries.zero(f, 5),
    })


def _finite_factor_word(f):
    """theta(1, 0) . finite . e_q(1, 0) . theta(0, 1) over a kernel with
    cones, the finite factor :func:`_series_valued_finite`: its combos' low
    is 0, 2, 6 or (the exact zero) skipped."""
    p = QuantParam.standard_tq(f)
    poly = _series_valued_finite(f, p)
    return theta_series(p, (1, 0)).mul(poly).mul(eq_series(p, (1, 0))).mul(theta_series(p, (0, 1)))


def _sign_character_words(m):
    """Theta products over the torus with signs, two of them with prefactors
    whose coefficients are not +-1 (characters at m=5): one enumerated on
    the window's box, and theta(1, 0) theta(0, 1) theta(1, 1), refused
    there and enumerated fibre by fibre."""
    _f, p, mus, _points = _gauss_cases(m)
    box = theta_series(p, (1, 0), mus[1]).mul(theta_series(p, (1, 0), mus[2]))
    fibres = theta_series(p, (1, 0), mus[1]).mul(theta_series(p, (0, 1), mus[2]))
    return [box, fibres.mul(theta_series(p, (1, 1)))]


@pytest.mark.parametrize("m", [1, 5])
def test_each_points_u_exponent_is_the_walks_value_less_low(monkeypatch, m):
    # every point of every batch: the u-exponent read off the walk's T(y)
    # less the combo's low is the Gauss rule's, and the series parts are
    # built once for each closure multiset, its canonical key; E026's
    # words on their default window, theta products with sign characters,
    # a word whose finite series values give low != 0, and E026 with the
    # window enumeration refused, so that each cell's fibre is walked
    import qtheta.series as series_mod

    f = CycloField(m)
    log = _spy_walk_exponents(monkeypatch)
    walks = _record_enumerations(monkeypatch)
    cells, order, terms = _fresh_terms("E026", m, None)
    for s in terms:
        s.coeffs(cells, order)
    assert [n for n, *_ in log] == walks == [7611, 7611]
    for _n, _low, canon, keys in log:
        assert len(keys) > 1 and keys == canon
    log.clear()
    small = list(itertools.product(range(-2, 3), repeat=2))
    for word, refused in zip(_sign_character_words(m), (False, True)):
        rule = word._combo_plan(next(itertools.product(*word._layout().items)))[2][0]
        assert rule.sform and (m == 1 or rule.chars)
        walks.clear()
        assert word._layout().solver.kernel and word.coeffs(small, 12)
        assert isinstance(walks[0], NotMultipliable) == refused
    assert len(log) == 2 and all(n > 0 and not keys for n, _low, _s, keys in log)
    log.clear()
    word = _finite_factor_word(f)
    assert any(not x.is_zero() for x in word.coeffs(small, 12).values())
    assert {low for n, low, *_ in log if n} == {0, 2, 6}
    log.clear()
    cells, order, terms = _fresh_terms("E026", m, 1)
    monkeypatch.setattr(series_mod, "MAX_POINTS", 1)
    walks.clear()
    for s in terms:
        s.coeffs(cells, order)
    assert sum(isinstance(x, EnumerationLimit) for x in walks) == 2 and len(walks) == 2 + 2 * len(cells)
    assert len(log) == 2 and all(n > 0 and keys == canon for n, _low, canon, keys in log)


@pytest.mark.parametrize("window, total", [(1, None), (None, 38)])
def test_one_series_part_per_closure_multiset(monkeypatch, window, total):
    # each term's pass builds one part per closure multiset (the points'
    # canonical keys), at the lowest u-exponent among its points: the widest
    # cap any of them needs; at E026's default (3, 12) that is 38 parts where
    # one per ordered closure slice built 394 and one per (slices,
    # u-exponent) 1,958
    cells, order, terms = _fresh_terms("E026", 1, window)
    batches = _spy_series_parts(monkeypatch)
    for s in terms:
        s.coeffs(cells, order)
    assert len(batches) == len(terms) == 2
    for lowest, built, _parts, (_w, _c, _r, canon) in batches:
        assert sorted(built) == sorted(lowest.items())
        assert len(canon) > len(lowest)
    assert total is None or sum(len(built) for _l, built, _p, _c in batches) == total


@pytest.mark.parametrize("m", [1, 5])
def test_each_canonical_part_is_the_part_of_every_raw_key_it_stands_for(monkeypatch, m):
    # E026 at (3, 12): 19 parts per side where 197 ordered closure slices
    # were reached, and each part equals the part built at its u-exponent
    # from each of the raw keys it stands for, closure order as reached
    real_part = TorusSeries._series_part
    cells, order, terms = _fresh_terms("E026", m, None)
    batches = _spy_series_parts(monkeypatch)
    for s in terms:
        s.coeffs(cells, order)
    assert [(len(built), len(canon)) for _l, built, _p, (_w, _c, _r, canon) in batches] == [(19, 197)] * 2
    for _lowest, built, _parts, (word, chosen, rest, canon) in batches:
        parts = {k: (e, real_part(word, chosen, rest, k, order, e)) for k, e in built}
        for raw, key in canon.items():
            e, x = parts[key]
            assert x is not None and real_part(word, chosen, rest, raw, order, e) == x


def test_series_parts_are_dropped_when_coeffs_returns(monkeypatch):
    import gc
    import types

    batches = _spy_series_parts(monkeypatch)
    cells, order, terms = _fresh_terms("E026", 1, 1)
    for s in terms:
        s.coeffs(cells, order)
        s.coeff((5, 5, 5, 5), order)  # a cell outside the window: one per-cell pass
    assert len(batches) == 4 and all(parts for _l, _b, parts, _c in batches)
    gc.collect()
    for _l, _b, parts, _c in batches:
        holders = [r for r in gc.get_referrers(*parts) if not isinstance(r, types.FrameType)]
        assert holders == [parts]


# ---------------------------------------------------------------------------
# closure multisets: equal closures share a series part, distinct ones never


def _per_slice_coeffs(monkeypatch, word, cells, order):
    """The coefficients of a cache-free copy of ``word`` with canonical keys
    patched off: one series part per ordered closure slice."""
    import qtheta.series as series_mod

    fresh = TorusSeries(word.param, word.factors)
    with monkeypatch.context() as mp:
        mp.setattr(series_mod, "_canonical", lambda key, groups: tuple(key))
        return fresh.coeffs(cells, order)


def _shared_width_closure_word(f):
    """A(k) . B(a, b) over Z^2, one closure on a factor of one parameter and
    on one of two: the closure compares equal to itself, the widths differ."""
    p = QuantParam.trivial(f, 2)

    def c(y, order):
        return ScalarSeries(f, {0: f.from_rational(1 + y[0] + 3 * len(y) * y[-1])}, order)

    one = TorusSeries.rule(p, (0, 0), [(1, 0)], c, (True,), "A", GaussRule(1, f.one(), [(0, 1, 4)]))
    two_rule = GaussRule(2, f.one(), [(0, 2, 4), (1, 2, 2)])
    two = TorusSeries.rule(p, (0, 0), [(1, 0), (0, 1)], c, (True, True), "B", two_rule)
    return one.mul(two)


def _finite_between_closures_word(f):
    """e_q(1, 0) . finite . e_q(1, 0) . theta(0, 1) over a kernel, the
    finite factor :func:`_series_valued_finite`."""
    p = QuantParam.standard_tq(f)
    poly = _series_valued_finite(f, p)
    return eq_series(p, (1, 0)).mul(poly).mul(eq_series(p, (1, 0))).mul(theta_series(p, (0, 1)))


@pytest.mark.parametrize("m", [1, 5])
def test_distinct_closures_never_share_a_series_part(monkeypatch, m):
    # e_q and 1/e_q lifts in two directions each and the e_q addition
    # closure: only lifts of one base compare equal, the addition closure
    # equals no other; a closure on factors of widths 1 and 2 is two classes;
    # with finite series values between two equal closures nothing changes
    f = CycloField(m)
    p = QuantParam.standard_tq(f)
    inv, eq = (1, 0), (0, 1)
    mixed = [eq_inv_series(p, inv), eq_series(p, eq), eq_addition_series(p, inv, eq),
             eq_inv_series(p, eq), eq_series(p, inv)]
    word = mixed[0]
    for s in mixed[1:]:
        word = word.mul(s)
    closures = [fac.coeff for fac in word.factors]
    assert closures[0] == closures[3] != closures[1] == closures[4] != closures[0]
    assert closures.count(closures[2]) == 1
    small = list(itertools.product(range(-2, 3), repeat=2))
    cases = [(word, 10, True), (_shared_width_closure_word(f), 10, False),
             (_finite_between_closures_word(f), 12, True)]
    for w, order, shares in cases:
        assert w._layout().solver.kernel
        batches = _spy_series_parts(monkeypatch)
        got = w.coeffs(small, order)
        monkeypatch.undo()
        assert got == _per_slice_coeffs(monkeypatch, w, small, order)
        assert any(not x.is_zero() for x in got.values())
        shared = sum(len(c) - len(set(c.values())) for *_x, (_w, _c, _r, c) in batches)
        assert (shared > 0) == shares


def test_a_declared_closure_of_negative_valuation_raises_through_a_shared_part(monkeypatch):
    # two lifts of one base that is u^-1 too low at k = 2: the parts they
    # share still go through coeff_at's check
    f = CycloField(1)
    p = QuantParam.trivial(f, 1)

    def base(field, k, order):
        c = eq_inv_coefficient(field, k, order + 1)
        return c.shift(-1) if k == 2 else c

    a, b = (_eq_lift(p, (1,), None, base, _LINEAR, "bad") for _ in range(2))
    assert a.factors[0].coeff == b.factors[0].coeff
    batches = _spy_series_parts(monkeypatch)
    with pytest.raises(CertificateViolation, match=r"bad: .*y=\(2,\) .*valuation -1"):
        a.mul(b).coeffs([(h,) for h in range(-3, 4)], 20)
    (batch,) = batches
    canon = batch[3][3]
    assert len(set(canon.values())) < len(canon)


def test_a_finite_value_that_is_not_a_scalar_is_refused_where_it_enters():
    # an int or a bare field element as a coefficient: refused at
    # construction, not at the first coefficient read
    p = QuantParam.trivial(F, 1)
    with pytest.raises(NotAScalar, match="finite: a value is neither"):
        TorusSeries.from_dict(p, {(0,): 2})
    th = theta_series(p, (1,))
    with pytest.raises(NotAScalar, match="scale: a value is neither"):
        th.scaled(F.from_rational(2))
    assert issubclass(NotAScalar, QThetaError)
    two = UnitMonomial(F.from_rational(2), 0)
    assert th.scaled(two).coeff((1,), 4) == th.coeff((1,), 4).scale(two)


# ---------------------------------------------------------------------------
# cell coordinates: a kernel-free pure-Gauss word with a square unimodular G
# is evaluated by rules composed with y = G^-1 (h - base), no solve per cell


def _cell_words(m):
    """Kernel-free Gauss words on G = [[1, 1], [1, 0]] (det -1) with a base
    off the origin: one finite combo, the same shifted by points with
    coefficients other than +-1, and two finite combos."""
    f, p, _mus, points = _gauss_cases(m)
    rule, _s = _offset_gauss_series(f, p)
    plain = TorusSeries.rule(p, (1, -2), [(1, 0), (0, 1)], None, gauss=rule)
    pulled = plain.pullback(p, lambda v: (v[0] + v[1], v[0]))
    front = TorusSeries.exponent(p, (2, 1), UnitMonomial(f.zeta(), 1))
    back = TorusSeries.exponent(p, (0, -1), UnitMonomial(f.from_rational(-2), -3))
    one_combo = front.mul(pulled).mul(back)
    two = TorusSeries.from_dict(
        p, {(0, 0): UnitMonomial(-f.one(), 2), (1, 3): UnitMonomial(f.zeta(2), 0)}
    )
    return [one_combo, one_combo.shift_pullback(points[0] * points[1]), two.mul(pulled).mul(back)]


def _solver_coeffs(monkeypatch, word, cells, order):
    """The coefficients of a cache-free copy of ``word`` through the solver."""
    fresh = TorusSeries(word.param, word.factors)
    with monkeypatch.context() as mp:
        mp.setattr(TorusSeries, "_cell_rules", lambda self: None)
        return {h: fresh.coeff(h, order) for h in cells}


@pytest.mark.parametrize("m", [1, 5])
@pytest.mark.parametrize("order", [12, INF])
def test_cell_rules_match_the_solver_path(monkeypatch, m, order):
    cells = list(itertools.product(range(-3, 4), repeat=2))
    for word, combos in zip(_cell_words(m), (1, 1, 2)):
        rules = word._cell_rules()
        assert rules is not None and len(rules) == combos
        want = _solver_coeffs(monkeypatch, word, cells, order)
        got = word.coeffs(cells, order)
        assert got == want
        assert all(x.trunc == order for x in got.values())
        if combos == 1:  # cells of equal value, such as those the order cuts, share one series
            assert len({id(x) for x in got.values()}) == len(set(got.values()))
        assert any(not x.is_zero() for x in got.values())
        if order != INF:  # the order cuts some cells' terms
            assert any(x.is_zero() for x in got.values())


def _rule_reference(r, y):
    """(coefficient, u-exponent) of the rule at y straight from its forms:
    each form's value is (sum x y_a y_b) // 2 at (*y, 1)."""
    ye = (*y, 1)

    def half(form):
        return sum(x * ye[a] * ye[b] for a, b, x in form) // 2

    c = r.const if half(r.sform) % 2 == 0 else -r.const
    for b, l in r.chars:
        c = c * b ** half(l)
    return c, half(r.uform)


@pytest.mark.parametrize("order", [8, INF])
def test_word_without_a_finite_combo_has_no_cell_rules(order):
    # an empty finite factor leaves no combo, so no rule to seed a cell's
    # sum: the word goes through the solve pass, and every coefficient is 0
    f = CycloField(1)
    p = QuantParam.trivial(f, 1)
    word = TorusSeries.from_dict(p, {}).mul(theta_series(p, (1,)))
    assert word._cell_rules() is None
    got = word.coeffs([(h,) for h in range(-3, 4)], order)
    assert all(x.is_zero() and x.trunc == order for x in got.values())
    assert word.coeff((5,), order) == ScalarSeries.zero(f, order)


@pytest.mark.parametrize("m", [1, 5])
def test_rule_values_match_the_rule_at_each_point(m):
    # values evaluates each form at all the points at once; the reference
    # evaluates the forms point by point
    f, p, _mus, points = _gauss_cases(m)
    rule, _s = _offset_gauss_series(f, p)  # nonzero sform, base -3 to 1 + a - b
    shifted = rule.times(GaussRule.character(f, points[0].values))  # bases 3 zeta^2, -1
    e313 = identity_specs("E313", CycloField(m), window=1, order=8)[0].terms[0]
    rules = [
        rule,
        shifted,
        shifted.compose((1, -2), [(1, 1), (2, -1)]),
        *_cell_words(m)[1]._cell_rules(),
        *_term_series(e313)[1]._cell_rules(),  # a u-form alone, in four variables
        GaussRule(2, f.zeta(), [(0, 0, 1), (0, 2, 1), (0, 1, -2), (1, 2, 4)]),  # y0(y0+1)/2 - y0 y1 + 2 y1
        GaussRule(0, f.zeta(), [(0, 0, 6)], [(0, 0, 2)], [(f.from_rational(-3), [(0, 0, -4)])]),
    ]
    assert any(r.sform and r.chars for r in rules)
    assert sum(not r.sform and not r.chars for r in rules) == 2
    for r in rules:
        ys = list(itertools.product(range(-5, 5), repeat=r.n))
        random.Random(m).shuffle(ys)
        ys += ys[:20]  # points met twice
        want = [_rule_reference(r, y) for y in ys]
        assert r.values(ys) == want
        assert r.values([]) == []
        assert r.at(ys[0]) == UnitMonomial(*want[0])
        if r.chars:
            assert any(c.den > 1 for c, _e in want)  # some bases to negative powers
        assert len({e for _c, e in want}) > 1 or r.n == 0


@pytest.mark.parametrize("m", [1, 5])
@pytest.mark.parametrize("order", [8, INF])
@pytest.mark.parametrize("name", ["E012", "E313"])
def test_rule_pass_matches_the_solver_path(monkeypatch, name, m, order):
    for spec in identity_specs(name, CycloField(m), window=1, order=8):
        cells = sorted(spec.cells())
        for term in spec.terms:
            _c, word = _term_series(term)
            assert len(word._cell_rules()) == 1
            want = _solver_coeffs(monkeypatch, word, cells, order)
            assert word.coeffs(cells, order) == want
            assert all(x.trunc == order for x in want.values())


@pytest.mark.parametrize("m", [1, 5])
def test_rule_pass_shares_one_series_per_distinct_cell_value(m):
    # every E313 term at window 2, and the same word times (-1)^h0 (a shift
    # by a point with a -1 entry): one pass of a fresh copy, against the
    # combo's own rule at each cell's parameter, one GaussRule.at per cell
    f = CycloField(m)
    flip = TorusPoint((UnitMonomial(f.minus_one(), 0), *[UnitMonomial.one(f)] * 3))
    signs_met = 0
    for spec in identity_specs("E313", f, window=2):
        cells = sorted(spec.cells())
        for term in spec.terms:
            c, word = _term_series(term)
            order = spec.order - c.uexp
            for w in (word, word.shift_pullback(flip)):
                fresh = TorusSeries(w.param, w.factors)
                table = fresh.coeffs(cells, order)
                lay = fresh._layout()
                (combo,) = itertools.product(*lay.items)
                _chosen, base, (rule, rest), _form, _low = fresh._combo_plan(combo)
                assert len(fresh._cell_rules()) == 1 and not rest
                monos = {h: rule.at(lay.solver.solve(vec_sub(h, base))) for h in cells}
                assert all(x.uexp <= order for x in monos.values())
                assert table == {h: ScalarSeries(f, {x.uexp: x.coeff}, order) for h, x in monos.items()}
                assert len({id(x) for x in table.values()}) == len(set(monos.values()))
                by_uexp = {}
                for h, x in monos.items():
                    by_uexp.setdefault(x.uexp, {})[x.coeff] = h
                for hs in by_uexp.values():
                    if len(hs) > 1:  # the same u-exponent with both signs
                        assert set(hs) == {f.one(), f.minus_one()}
                        assert len({id(table[h]) for h in hs.values()}) == 2
                        signs_met += 1
    assert signs_met > 0


@pytest.mark.parametrize("m", [1, 5])
def test_cell_rules_fall_back_to_the_solver(monkeypatch, m):
    f, p, mus, _points = _gauss_cases(m)
    rule, _s = _offset_gauss_series(f, p)
    # G = diag(2, 1) is not unimodular: the solve is the coset test
    coset = TorusSeries.rule(p, (1, 0), [(2, 0), (0, 1)], None, gauss=rule)
    assert coset._cell_rules() is None
    cells = list(itertools.product(range(-3, 4), repeat=2))
    got = coset.coeffs(cells, INF)
    assert all(got[h].is_zero() == (h[0] % 2 == 0) for h in cells)
    # a closure factor keeps the general path, on the cell words' unimodular G
    closure = TorusSeries.rule(
        p, (1, -2), [(1, 1), (1, 0)], lambda y, _order: UnitMonomial(f.zeta(), y[0] ** 2),
        gauss=rule,
    )
    assert closure._cell_rules() is None
    assert any(not x.is_zero() for x in closure.coeffs(cells, 20).values())
    # G = [[1], [0]] has no kernel, but e_2 is not solved (E332's single theta)
    th = theta_series(p, (1, 0), mus[1])
    assert th._cell_rules() is None
    got = th.coeffs(cells, 30)
    assert all(got[h].is_zero() == (h[1] != 0) for h in cells)
    # G = [[1, 0, 1], [0, 1, 1]] solves every e_j, but has a kernel; the
    # word's valuation form is definite only on ker G, so the y-box
    # enumeration is refused, over all the cells and at a cell alone, and
    # then each cell's fibre (G is onto: every cell is reached) is
    # enumerated on its own
    thetas = [theta_series(p, d) for d in ((1, 0), (0, 1), (1, 1))]
    box = list(itertools.product(range(-6, 7), repeat=2))
    tables = [th.materialize(box, 52).factors[0].table for th in thetas]
    log = _record_enumerations(monkeypatch)
    for hs in (cells, cells[:1]):
        word = thetas[0].mul(thetas[1]).mul(thetas[2])
        assert word._layout().solver.kernel and word._cell_rules() is None
        log.clear()
        got = word.coeffs(hs, 12)
        assert isinstance(log[0], NotMultipliable) and not isinstance(log[0], EnumerationLimit)
        assert "non positive definite" in str(log[0])
        assert len(log) == 1 + len(hs) and all(isinstance(x, int) for x in log[1:])
        assert got == {h: _word_coeff_reference(p, tables, h, 12) for h in hs}
    assert sum(not x.is_zero() for x in word.coeffs(cells, 12).values()) == 25


# ---------------------------------------------------------------------------
# kernel-free words without cell rules: one solve pass over all the cells,
# against an independent reference built from the factors' tables


def _det(m):
    return m[0][0] if len(m) == 1 else m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _integer_preimage(gens, t):
    """The integer y with sum_i y_i gens[i] = t, or None, for one or two
    independent gens: Cramer's rule on the first nonsingular row minor, then
    checked on every row."""
    k = len(gens)
    for rows in itertools.combinations(range(len(t)), k):
        m = [[g[r] for g in gens] for r in rows]
        d = _det(m)
        if d:
            cols = [[row[:i] + [t[r]] + row[i + 1 :] for row, r in zip(m, rows)] for i in range(k)]
            y = [Fraction(_det(c), d) for c in cols]
            if any(v.denominator != 1 for v in y):
                return None
            y = tuple(int(v) for v in y)
            ok = all(sum(v * g[j] for v, g in zip(y, gens)) == x for j, x in enumerate(t))
            return y if ok else None
    raise AssertionError("dependent gens")


def _solve_reference(word, h, order):
    """The coefficient at h of a word of finite factors and one Gauss factor,
    by :func:`_word_coeff_reference`: the Gauss factor's table holds, for each
    combo of finite points, the point h less them, valued by its rule at the
    y that Cramer's rule gives (no point off its lattice or outside its cones)."""
    (lat,) = [f for f in word.factors if not f.is_finite]
    assert lat.coeff is None
    table = {}
    for pts in itertools.product(*[f.table for f in word.factors if f.is_finite]):
        q = tuple(x - sum(c) for x, c in zip(h, zip(*pts))) if pts else h
        y = _integer_preimage(lat.gens, vec_sub(q, lat.offset))
        if y is not None and all(v >= 0 for v, cone in zip(y, lat.cones) if cone):
            table[q] = lat.gauss.at(y)
    tables = [f.table if f.is_finite else table for f in word.factors]
    return _word_coeff_reference(word.param, tables, h, order)


def _solve_pass_words(m):
    """(name, word): the basis thetas of a theta-products pair's composed
    multiplier (|det G| = 4) with their images under its small group (kernel
    generators and a gamma lift), the single-theta E332 words, and an
    offset Gauss factor with a cone (|det G| = 3) between finite factors."""
    from qtheta.multiplier import compose
    from qtheta.smallheis import SmallHeisElement, gamma_lift, group_structure

    f = CycloField(m)
    L = ample_multiplier(*ACCEPTED_PAIR, field=f)
    composed = compose(L, L)
    one, zero = UnitMonomial.one(f), (0, 0)
    elems = [SmallHeisElement(one, g, zero) for g in group_structure(composed).kappa_generators]
    elems.append(gamma_lift(composed, (1, 0))[0])
    out = []
    for i, th in enumerate(theta_dim_basis(composed, 3, 40).basis):
        out.append((f"theta{i}", th))
        out += [(f"act{k}.theta{i}", heis_act(e.raw(composed.param), th)) for k, e in enumerate(elems)]
    for spec in identity_specs("E332", f, window=2, order=20):
        for t, term in enumerate(spec.terms):
            word = _term_series(term)[1]
            if not word._layout().solver.kernel and word._cell_rules() is None:
                out.append((f"{spec.label}[{t}]", word))
    _f, p, _mus, points = _gauss_cases(m)
    rule, _s = _offset_gauss_series(f, p)
    coned = TorusSeries.rule(p, (1, -2), [(1, 1), (2, -1)], None, (True, False), gauss=rule)
    front = TorusSeries.exponent(p, (2, 1), UnitMonomial(f.zeta(), 1))
    back = TorusSeries.from_dict(
        p, {(0, -1): UnitMonomial(f.from_rational(-2), -3), (1, 0): UnitMonomial(-f.one(), 2)}
    )
    out.append(("coned", front.mul(coned.shift_pullback(points[0])).mul(back)))
    return out


@pytest.mark.parametrize("m", [1, 5])
@pytest.mark.parametrize("order", [24, INF])
def test_solve_pass_matches_the_reference(monkeypatch, m, order):
    words = _solve_pass_words(m)
    names = [name for name, _w in words]
    assert sum(n.startswith("E332") for n in names) == 8 and "coned" in names
    passes = []  # cells in each combo pass
    orig = TorusSeries._combo_coeffs
    monkeypatch.setattr(TorusSeries, "_combo_coeffs", lambda s, hs, o: passes.append(len(hs)) or orig(s, hs, o))
    for name, word in words:
        lay = word._layout()
        assert not lay.solver.kernel and word._cell_rules() is None, name
        if name.startswith("theta") or name.startswith("act"):
            assert math.prod(lay.solver.divisors) == 4, name
        if name == "coned":
            assert lay.cones
        cells = word.window_cells(3)
        want = {h: _solve_reference(word, h, order) for h in cells}
        assert any(c.is_zero() for c in want.values()), name  # cells off the support
        assert any(not c.is_zero() for c in want.values()), name
        assert TorusSeries(word.param, word.factors).coeffs(cells, order) == want, name
        assert passes == [len(cells)]  # one pass
        fresh = TorusSeries(word.param, word.factors)
        assert {h: fresh.coeff(h, order) for h in cells} == want, name
        assert passes == [len(cells)] + [1] * len(cells)  # then one pass per cell
        passes.clear()


# ---------------------------------------------------------------------------
# window_dump, materialize and series_equal_on_cells take their coefficients
# from one coeffs pass, and give what per-cell coeff gives


# ACCEPTED_PAIR is pair 1 of the theta-products benchmark, whose product the
# window pass already answered; pair 0's per-cell boxes the trace bound
# certified at over 10**7 points each and refused
REFUSED_PAIR = (((-1, -3), (2, 5)), [[6, -2], [-2, 8]])


def _theta_square(pair, window, order):
    """(L composed with itself, the square of L's first basis theta)."""
    from qtheta.multiplier import compose

    L = ample_multiplier(*pair)
    th = theta_dim_basis(L, window, order).basis[0]
    return compose(L, L), th.mul(th)


def _routed_words():
    """(name, fresh-word factory, radius, order): E026 terms with a kernel
    and one theta product."""
    out = []
    for i, word in enumerate(_fresh_terms("E026", 1, 1)[2]):
        if word._layout().solver.kernel:
            out.append((f"E026[{i}]", lambda i=i: _fresh_terms("E026", 1, 1)[2][i], 1, 12))
    out.append(("theta^2", lambda: _theta_square(ACCEPTED_PAIR, 2, 40)[1], 2, 40))
    return out


@pytest.mark.parametrize("refused", [False, True])
def test_window_routines_match_per_cell_coeff(monkeypatch, refused):
    import qtheta.series as series_mod

    words = _routed_words()
    assert len(words) >= 3
    for name, fresh, radius, order in words:
        ref = fresh()
        cells = ref.window_cells(radius)
        want = {h: ref.coeff(h, order) for h in cells}
        nonzero = {h: c for h, c in want.items() if not c.is_zero()}
        assert nonzero, name
        with monkeypatch.context() as mp:
            if refused:  # a window budget of one point per cell
                mp.setattr(series_mod, "MAX_POINTS", 1)
            log = _record_enumerations(mp)
            dump = fresh().window_dump(radius, order)
            assert [tuple(h) for h, _c in dump["coeffs"]] == list(nonzero), name
            assert dump == ref.window_dump(radius, order)
            if refused:
                assert isinstance(log[0], EnumerationLimit)
                assert len(log) > len(cells)  # then cell by cell
            else:
                # one enumeration per finite combo
                combos = math.prod(map(len, ref._layout().items))
                assert all(isinstance(x, int) for x in log) and 1 <= len(log) <= combos
            assert fresh().materialize(cells, order).factors[0].table == nonzero
            word = fresh()
            assert series_equal_on_cells(word, ref, cells, order)
            assert all(word._cache[order][h] == c for h, c in want.items())
            assert not series_equal_on_cells(fresh(), ref.scaled(UnitMonomial(-F.one(), 0)), cells, order)


def test_window_pass_maps_points_to_the_rank_0_cell(monkeypatch):
    # on a rank-0 torus every point of the kernel lands on the one cell ():
    # sum over y, z of u^(y^2 + z^2) is 1 + 4u + 4u^2 + 4u^4 to order 4
    import qtheta.series as series_mod

    f = CycloField(1)
    p = QuantParam.trivial(f, 0)
    gauss = TorusSeries.rule(p, (), [()], None, gauss=GaussRule(1, f.one(), [(0, 0, 2)]))
    word = gauss.mul(gauss)
    assert word._layout().solver.kernel
    four = f.from_rational(4)
    want = ScalarSeries(f, {0: f.one(), 1: four, 2: four, 4: four}, 4)
    assert word._combo_coeffs({(): ()}, 4) == {(): want}  # the window pass
    assert word.coeff((), 4) == want  # one cell: the same window pass
    # a window budget of one point is refused: the fibre around the cell,
    # its 13 points, with the default budget
    monkeypatch.setattr(series_mod, "MAX_POINTS", 1)
    log = _record_enumerations(monkeypatch)
    assert gauss.mul(gauss).coeff((), 4) == want
    assert isinstance(log[0], EnumerationLimit) and log[1:] == [13]


def _kernel_words(f):
    """{name: fresh-word factory} on a rank-1 torus, each with a kernel and
    reaching the even cells only: g g for the Gauss factor g = u^(y^2) at
    2y, and a formal factor u^(y^2 + z^2) at 2y + 2z."""
    p = QuantParam.trivial(f, 1)
    g = TorusSeries.rule(p, (0,), [(2,)], None, gauss=GaussRule(1, f.one(), [(0, 0, 2)]))
    both = GaussRule(2, f.one(), [(0, 0, 2), (1, 1, 2)])
    return {
        "g.g": lambda: g.mul(g),
        "formal": lambda: TorusSeries.rule(p, (0,), [(2,), (2,)], None, gauss=both, formal=True),
    }


@pytest.mark.parametrize("m", [1, 5])
@pytest.mark.parametrize("order", [INF, 8])
def test_kernel_sums_without_a_certificate_refuse_only_reached_cells(m, order):
    # over a kernel, an INF order or a formal factor leaves a reached cell's
    # sum uncertified: a call that asks for an even cell, alone or among odd
    # ones in either order, raises and caches no cell; an odd cell is an
    # exact zero; g g at a finite order is the plain kernel sum
    f = CycloField(m)
    inf = "infinite-order product coefficient needs a finite order"
    refused = {"g.g": inf if order == INF else None, "formal": inf if order == INF else "window-only factor"}
    for name, fresh in _kernel_words(f).items():
        assert fresh()._layout().solver.kernel, name
        for cells in ([(1,)], [(1,), (-1,), (3,)]):
            got = fresh().coeffs(cells, order)
            assert all(not c.terms and c.trunc == order for c in got.values()), (name, cells)
        for cells in ([(0,)], [(1,), (0,)], [(0,), (1,)], [(-1,), (2,), (1,)]):
            word = fresh()
            if refused[name] is None:
                want = {}
                for h in cells:
                    exps = [y * y + (h[0] // 2 - y) ** 2 for y in range(-4, 5)] if h[0] % 2 == 0 else []
                    terms = {e: f.from_rational(exps.count(e)) for e in set(exps) if e <= order}
                    want[h] = ScalarSeries(f, terms, order)
                assert word.coeffs(cells, order) == want, cells
                continue
            with pytest.raises(NotMultipliable, match=refused[name]):
                word.coeffs(cells, order)
            assert not any(word._cache.values()), (name, cells)


def test_cache_holds_one_table_per_order(monkeypatch):
    # coeffs and coeff share one {h: coefficient} table per order, and
    # coeffs hands out the table's own objects
    import qtheta.series as series_mod

    name, fresh, radius, _order = _routed_words()[0]  # an E026 term with a kernel
    word = fresh()
    cells = word.window_cells(radius)
    t8, t12 = word.coeffs(cells, 8), word.coeffs(cells, 12)
    assert set(word._cache) == {8, 12}, name
    assert word._cache[8] is not word._cache[12]
    assert all(word._cache[8][h] is t8[h] and word._cache[12][h] is t12[h] for h in cells)
    assert all(word.coeff(h, 8) is t8[h] for h in cells)
    assert any(t8[h] != t12[h] for h in cells)  # the orders' tables differ
    word = fresh()
    with monkeypatch.context() as mp:  # a window budget of one point per cell
        mp.setattr(series_mod, "MAX_POINTS", 1)
        log = _record_enumerations(mp)
        got = word.coeffs(cells, 8)
    assert isinstance(log[0], EnumerationLimit) and len(log) > len(cells)  # then cell by cell
    assert set(word._cache) == {8}
    assert all(word._cache[8][h] is got[h] for h in cells)
    assert all(word.coeff(h, 8) is got[h] for h in cells)
    assert got == t8


def test_theta_product_refused_before_is_a_member():
    # the per-cell boxes of this product were refused; now its window pass
    # is certified and the product lies in the composed theta space
    composed, prod = _theta_square(REFUSED_PAIR, 3, 40)
    cells = prod.window_cells(3)
    assert theta_membership(composed, prod, cells, 40)
    assert any(not c.is_zero() for c in prod.coeffs(cells, 40).values())


# ---------------------------------------------------------------------------
# whole-lattice proofs by translating the summation lattice


def _prover_words():
    """(name, multiplier, theta word, window, order): each basis theta of
    the oracle multipliers (rank-1 and rank-2 tori), exact at INF, and the
    square of a first basis theta under the composed multiplier, a word
    with a kernel, on rank 1 and rank 2."""
    from qtheta.multiplier import compose

    out = []
    mults = oracle_multipliers()
    for name, L in mults.items():
        for i, th in enumerate(theta_dim_basis(L, 2, 20).basis):
            out.append((f"{name}.theta{i}", L, th, 3, INF))
    for name in ("jacobi", "random0"):
        L = mults[name]
        th = theta_dim_basis(L, 2, 20).basis[0]
        out.append((f"{name}.square", compose(L, L), th.mul(th), 2, 24))
    return out


def _flattened(word, extra=None, moved=None):
    """The one-combo pure-Gauss word as one Gauss factor on its summation
    lattice (offset base, generators the columns of G), its rule times
    ``extra`` and its offset moved by ``moved`` when given."""
    lay = word._layout()
    ((_chosen, base, (rule, rest), _form, _low),) = [word._combo_plan(c) for c in itertools.product(*lay.items)]
    assert not rest
    gauss = rule if extra is None else rule.times(extra)
    offset = base if moved is None else vec_add(base, moved)
    return TorusSeries.rule(word.param, offset, list(zip(*lay.mtx)), None, gauss=gauss)


def _agree(a, b, cells, order):
    """a and b have the same coefficients on the cells, as far as both are known."""
    ta, tb = a.coeffs(cells, order), b.coeffs(cells, order)
    for h in cells:
        known = min(ta[h].trunc, tb[h].trunc)
        assert known >= order - 8, h
        if not ta[h].equal_to_order(tb[h], known):
            return False
    return True


def test_translation_proves_acted_thetas():
    # each theta word acted on by a random image of its multiplier is the
    # word translated on its summation lattice: proved, with constant 1,
    # and equal to the word on a window
    rng = random.Random(11)
    for name, L, th, window, order in _prover_words():
        for _ in range(2):
            b = tuple(rng.randint(-2, 2) for _ in range(L.rank))
            acted = heis_act(L.image(b), th)
            c = _prove_by_translation(acted, th)
            assert c is not None and c.is_one(), (name, b)
            assert _agree(acted, th, th.window_cells(window), order), (name, b)
        flat = _flattened(th)
        assert _prove_by_translation(flat, th).is_one(), name


def test_translation_never_proves_a_perturbed_theta():
    # copies scaled by u, 1/u or -1 are proved to be those multiples, and
    # copies with the offset moved off its coset, an extra sign (-1)^(y0 y1)
    # or an extra sign (-1)^(y0 (y0 - 1)/2) are not proved at all
    seen = set()
    for name, _L, th, _window, _order in _prover_words():
        f = th.param.field
        for scale in (UnitMonomial(f.one(), 1), UnitMonomial(f.one(), -1), UnitMonomial(-f.one(), 0)):
            assert _prove_by_translation(th.scaled(scale), th) == scale, name
        lay = th._layout()
        n = lay.solver.ncols
        off = [e for e in itertools.product((0, 1), repeat=th.param.rank) if lay.solver.solve(e) is None]
        perturbed = [("coset", _flattened(th, moved=e)) for e in off[:1]]
        if n > 1:
            perturbed.append(("cross", _flattened(th, GaussRule(n, f.one(), (), [(0, 1, 2)]))))
        perturbed.append(("diagonal", _flattened(th, GaussRule(n, f.one(), (), [(0, 0, 1), (0, n, -1)]))))
        for kind, word in perturbed:
            assert _prove_by_translation(word, th) is None, (name, kind)
            seen.add(kind)
    assert seen == {"coset", "cross", "diagonal"}


@pytest.mark.parametrize("m", [1, 5])
def test_translation_proves_every_e313_spec(m):
    # both sides of an E313 spec are formal, as theta_W is window-only, but
    # kernel-free, so each cell's coefficient is one rule value and there is
    # no sum to certify: each spec c_a a + c_b b is proved to cancel,
    # c_a c + c_b = 0, and a side scaled by u or -1 is proved to be exactly
    # that multiple; a formal word with a kernel is still refused
    f = CycloField(m)
    specs = identity_specs("E313", f)
    assert len(specs) == 10
    for spec in specs:
        (ca, a), (cb, b) = map(_term_series, spec.terms)
        assert a.kind == b.kind == "formal" and not (a._layout().solver.kernel or b._layout().solver.kernel)
        c = _prove_by_translation(a, b)
        assert c is not None and ca * c == -cb, spec.label
        for scale in (UnitMonomial(f.one(), 1), UnitMonomial(-f.one(), 0)):
            got = _prove_by_translation(a.scaled(scale), b)
            assert got == scale * c and got != c, (spec.label, scale)
    formal = _kernel_words(f)["formal"]()
    assert formal.kind == "formal" and formal._layout().solver.kernel
    assert _prove_by_translation(formal, formal) is None
