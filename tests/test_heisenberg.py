"""Large Heisenberg group: group law, normal forms, groupoid, morphisms."""

import itertools
import random
from fractions import Fraction

import pytest
from oracles import factor_coeff

from qtheta.errors import (
    IncompatibleForm,
    IncompatibleQuantization,
    Indivisible,
    NotComposable,
    NotInImage,
)
from qtheta.heisenberg import (
    HeisElement,
    HeisRaw,
    TorusMorphism,
    compose,
    double_sided,
    heis_act,
    heis_mul,
    heis_transport,
    mumford_morphism,
    psi_dn,
    representatives,
    same_class,
    scaling_morphism,
    shift_morphism,
    twist,
)
from qtheta.intlinalg import LatticeMap, mat
from qtheta.multiplier import Multiplier, pullback
from qtheta.named import eq_series, theta_series
from qtheta.scalars import INF, CycloField, ScalarSeries, UnitMonomial
from qtheta.series import GaussRule, TorusSeries, series_equal_on_cells
from qtheta.torus import QuantParam, TorusPoint

F = CycloField(1)
TQ = QuantParam.standard_tq(F)
P1 = QuantParam.trivial(F, 2)


def q_mono(k, sign=1):
    return UnitMonomial.q_power(F, k, sign)


def rand_vec(rng, d=2, lo=-3, hi=3):
    return tuple(rng.randint(lo, hi) for _ in range(d))


def rand_point(rng, d=2):
    return TorusPoint(
        tuple(q_mono(rng.randint(-3, 3), rng.choice([1, -1])) for _ in range(d))
    )


def rand_raw(rng, param=TQ):
    return HeisRaw(
        param,
        q_mono(rng.randint(-3, 3), rng.choice([1, -1])),
        rand_point(rng),
        rand_vec(rng),
        rand_vec(rng),
    )


def rand_algebraic(rng, param=TQ, n=3):
    table = {
        rand_vec(rng, param.rank, -2, 2): q_mono(rng.randint(-2, 3), rng.choice([1, -1]))
        for _ in range(n)
    }
    return TorusSeries.from_dict(param, table)


def act_matches(a: HeisRaw, b: HeisRaw, window=2):
    """heis_mul(a,b) acts like a after b on all e(k) in a window."""
    prod = heis_mul(a, b)
    for k in TorusSeries.one(a.param).window_cells(window):
        cb, sb = b.action_on_exponent(k)
        ca, sa = a.action_on_exponent(sb)
        cp, sp = prod.action_on_exponent(k)
        if sp != sa or cp != ca * cb:
            return False
    return True


def test_group_law_is_action_composition():
    rng = random.Random(1)
    for _ in range(50):
        assert act_matches(rand_raw(rng), rand_raw(rng))


def test_mul_left_elements_specialization():
    # [c'; x', g', 0] . [c; x, g, 0] = [c'c g(x') alpha(g',g); x x', g+g', 0]
    rng = random.Random(2)
    for _ in range(20):
        a = HeisRaw(TQ, q_mono(1), rand_point(rng), rand_vec(rng), (0, 0))
        b = HeisRaw(TQ, q_mono(-1), rand_point(rng), rand_vec(rng), (0, 0))
        prod = heis_mul(a, b)
        expect_c = a.c * b.c * a.x.eval(b.g) * TQ.alpha(a.g, b.g)
        assert prod.c == expect_c and prod.g == tuple(
            x + y for x, y in zip(a.g, b.g)
        ) and prod.h == (0, 0)


def test_trivial_alpha_central_mul():
    rng = random.Random(3)
    ident = TorusPoint.identity(F, 2)
    for _ in range(10):
        a = HeisRaw(P1, q_mono(2), ident, rand_vec(rng), rand_vec(rng))
        b = HeisRaw(P1, q_mono(-1), ident, rand_vec(rng), rand_vec(rng))
        prod = heis_mul(a, b)
        assert prod.c == a.c * b.c


def test_group_axioms_identity_inverse():
    rng = random.Random(4)
    e = HeisRaw.identity(TQ)
    for _ in range(20):
        a = rand_raw(rng)
        assert same_class(heis_mul(a, a.inverse()), e)
        assert same_class(heis_mul(a.inverse(), a), e)
        assert same_class(heis_mul(a, e), a)
    for _ in range(20):
        a, b, c = rand_raw(rng), rand_raw(rng), rand_raw(rng)
        lhs = heis_mul(heis_mul(a, b), c)
        rhs = heis_mul(a, heis_mul(b, c))
        assert lhs.c == rhs.c and lhs.x == rhs.x and lhs.g == rhs.g and lhs.h == rhs.h


def test_action_examples():
    # [1; x, 0, 0] e(k) = k(x) e(k)
    rng = random.Random(5)
    x = rand_point(rng)
    a = HeisRaw(TQ, q_mono(0), x, (0, 0), (0, 0))
    c, s = a.action_on_exponent((2, -1))
    assert s == (2, -1) and c == x.eval((2, -1))
    # T_q: [q; 1, h1, 0] e(h2) = q^2 e(h1+h2)
    b = HeisRaw(TQ, q_mono(1), TorusPoint.identity(F, 2), (1, 0), (0, 0))
    c2, s2 = b.action_on_exponent((0, 1))
    assert s2 == (1, 1) and c2 == q_mono(2)


def test_kernel_elements_act_trivially():
    rng = random.Random(6)
    for _ in range(20):
        h = rand_vec(rng)
        z = HeisRaw(TQ, q_mono(0), TQ.hidden_point(h) ** 2, h, h)
        for k in [(0, 0), (1, 0), (-2, 3), (1, 1)]:
            c, s = z.action_on_exponent(k)
            assert s == k and c.is_one()
        f = rand_algebraic(rng)
        acted = heis_act(z, f)
        assert series_equal_on_cells(acted, f, f.support_points(), INF)


def test_representatives():
    rng = random.Random(7)
    for _ in range(30):
        a = rand_raw(rng)
        left, right = representatives(a)
        assert left.h == (0, 0) and right.g == (0, 0)
        # both act identically to a on exponents
        for k in [(0, 0), (1, -1), (2, 1)]:
            ca, sa = a.action_on_exponent(k)
            cl, sl = left.action_on_exponent(k)
            cr, sr = right.action_on_exponent(k)
            assert (ca, sa) == (cl, sl) == (cr, sr)
        # left/right correspondence: h_l = -h_r, x_r = x_l A_{h_l}^-2, c_r = c_l eps(h_l)
        assert left.g == tuple(-x for x in right.h)
        assert right.x == left.x * (TQ.hidden_point(left.g) ** -2)
        assert right.c == left.c * TQ.epsilon(left.g)


def test_left_rep_of_pure_right():
    # a = [1; 1, 0, h1] -> left = [eps(h1); A_{h1}^-2, -h1, 0]
    a = HeisRaw(TQ, q_mono(0), TorusPoint.identity(F, 2), (0, 0), (1, 0))
    left, _ = representatives(a)
    assert left.c.is_one()  # eps(h1) = 1 on TQ
    assert left.g == (-1, 0)
    assert left.x == TQ.hidden_point((1, 0)) ** -2


def test_same_class():
    rng = random.Random(8)
    for _ in range(20):
        a = rand_raw(rng)
        h = rand_vec(rng)
        z = HeisRaw(TQ, q_mono(0), TQ.hidden_point(h) ** 2, h, h)
        assert same_class(a, heis_mul(a, z))
        left, right = representatives(a)
        assert same_class(left, right)
        bumped = HeisRaw(a.param, a.c * q_mono(1), a.x, a.g, a.h)
        assert not same_class(a, bumped)


def test_compose_identity_and_boundaries():
    rng = random.Random(9)
    for _ in range(20):
        b = HeisElement.from_raw(rand_raw(rng))
        ident = HeisElement.identity(TQ, b.x_l)
        assert compose(ident, b) == b
        ident_r = HeisElement.identity(TQ, b.x_r)
        assert compose(b, ident_r) == b
    with pytest.raises(NotComposable):
        a = HeisElement.from_raw(rand_raw(rng))
        shifted = HeisElement(TQ, a.c, a.x * TorusPoint.from_q_exps(F, [1, 0]), a.h)
        compose(a, shifted.mul(shifted.inverse()).mul(a))  # mismatched boundary
        # (construct definitely mismatched pair)
        compose(a, HeisElement.identity(TQ, a.x_l * TorusPoint.from_q_exps(F, [1, 1])))


def composable_pair(rng):
    """(a, b) with x_r(a) == x_l(b)."""
    b = HeisElement.from_raw(rand_raw(rng))
    h = rand_vec(rng)
    a = HeisElement(
        TQ,
        q_mono(rng.randint(-2, 2), rng.choice([1, -1])),
        b.x_l * (TQ.hidden_point(h) ** 2),
        h,
    )
    assert a.x_r == b.x_l
    return a, b


def test_compose_alpha_trivial_reduces_to_mul():
    rng = random.Random(10)
    for _ in range(20):
        a = HeisElement.from_raw(rand_raw(rng, P1))
        b = HeisElement.from_raw(rand_raw(rng, P1))
        if a.x_r != b.x_l:
            continue
        assert compose(a, b) == a.mul(b)


def test_property_1_11():
    # Gamma'(Phi) Gamma''(Psi) = (Gamma'' o Gamma')(Phi Psi)
    rng = random.Random(11)
    for _ in range(100):
        gpp, gp = composable_pair(rng)  # gpp o gp defined
        phi = rand_algebraic(rng, n=2)
        psi = rand_algebraic(rng, n=2)
        lhs = heis_act(gp, phi).mul(heis_act(gpp, psi))
        rhs = heis_act(compose(gpp, gp), phi.mul(psi))
        cells = set(lhs.support_points()) | set(rhs.support_points())
        assert series_equal_on_cells(lhs, rhs, cells, INF)


def test_compose_associative_on_chains():
    rng = random.Random(12)
    for _ in range(30):
        c = HeisElement.from_raw(rand_raw(rng))
        h1, h2 = rand_vec(rng), rand_vec(rng)
        b = HeisElement(TQ, q_mono(1), c.x_l * (TQ.hidden_point(h1) ** 2), h1)
        a = HeisElement(TQ, q_mono(-1), b.x_l * (TQ.hidden_point(h2) ** 2), h2)
        lhs = compose(compose(a, b), c)
        rhs = compose(a, compose(b, c))
        assert lhs == rhs


def test_groupoid_inverse():
    rng = random.Random(13)
    for _ in range(30):
        a = HeisElement.from_raw(rand_raw(rng))
        inv = a.groupoid_inverse()
        assert compose(inv, a) == HeisElement.identity(TQ, a.x_r)
        assert compose(a, inv) == HeisElement.identity(TQ, a.x_l)
    ident = HeisElement.identity(TQ, rand_point(rng))
    assert ident.groupoid_inverse() == ident


def test_hom_sets_hidden_periods():
    # Hom(xi, eta) nonempty iff xi == eta mod hidden periods
    xi = TorusPoint.from_q_exps(F, [0, 0])
    eta = xi * (TQ.hidden_point((1, 0)) ** 2)
    # morphism from xi to eta: left rep [c; eta, h, 0] with eta A_h^-2 = xi
    g = HeisElement(TQ, q_mono(0), eta, (1, 0))
    assert g.x_r == xi and g.x_l == eta
    # a point off the hidden period group: q-exponent odd in second slot
    bad = TorusPoint(
        (UnitMonomial(F.from_rational(3), 0), UnitMonomial.one(F))
    )
    # hidden periods of TQ have pure q-power values; no h gives x_r = bad
    assert all(
        (xi * (TQ.hidden_point(h) ** -2)) != bad
        for h in [(a, b) for a in range(-4, 5) for b in range(-4, 5)]
    )


def test_automorphism_group_adds_kernel_exponents():
    # [c'; xi, h', 0] o [c; xi, h, 0] = [c'c; xi, h'+h, 0] for h in ker alpha^2
    # On TQ ker alpha^2 = 0, so use the trivial parameter where all h qualify.
    rng = random.Random(14)
    xi = rand_point(rng)
    for _ in range(10):
        h1, h2 = rand_vec(rng), rand_vec(rng)
        a = HeisElement(P1, q_mono(2), xi, h1)
        b = HeisElement(P1, q_mono(-3), xi, h2)
        c = compose(a, b)
        assert c.x_l == xi and c.h_l == tuple(x + y for x, y in zip(h1, h2))
        assert c.c == a.c * b.c


def test_double_sided():
    rng = random.Random(15)
    for _ in range(20):
        g, h = rand_vec(rng), rand_vec(rng)
        raw = HeisRaw(TQ, q_mono(rng.randint(-2, 2)), TorusPoint.identity(F, 2), g, h)
        elem = HeisElement.from_raw(raw)
        rep = double_sided(elem)
        assert rep is not None
        assert same_class(rep, raw)
        assert rep.g == g and rep.h == h and rep.c == raw.c
    # class with no x = 1 representative: odd q-exponent cannot be A_t^2
    elem = HeisElement(TQ, q_mono(0), TorusPoint.from_q_exps(F, [1, 0]), (0, 0))
    assert double_sided(elem) is None
    # composability of a o b in double-sided form <=> g(a) == h(b)
    a = HeisElement.from_raw(
        HeisRaw(TQ, q_mono(1), TorusPoint.identity(F, 2), (1, 0), (0, 1))
    )
    b_bad = HeisElement.from_raw(
        HeisRaw(TQ, q_mono(0), TorusPoint.identity(F, 2), (0, 1), (1, 1))
    )
    ra = double_sided(a)
    assert (ra.g == double_sided(b_bad).h) == (a.x_r == b_bad.x_l)
    b_good = HeisElement.from_raw(
        HeisRaw(TQ, q_mono(0), TorusPoint.identity(F, 2), (0, 1), (1, 0))
    )
    rb = double_sided(b_good)
    assert ra.g == rb.h and a.x_r == b_good.x_l
    comp = compose(a, b_good)
    rep = double_sided(comp)
    # composed double-sided rep keeps the outer exponents [c''c'; h'_l, h''_r]
    assert rep.g == rb.g and rep.h == ra.h


def test_twist_identity_and_formula():
    rng = random.Random(16)
    for _ in range(10):
        a = HeisElement.from_raw(rand_raw(rng))
        assert twist(TQ, TQ, a) == a
    # u_{1,alpha}: [c; x, h, 0]_1 -> [c; x A_h, h, 0]_alpha
    for _ in range(10):
        a = HeisElement.from_raw(rand_raw(rng, P1))
        t = twist(P1, TQ, a)
        assert t.x == a.x * TQ.hidden_point(a.h)
        assert t.c == a.c and t.h == a.h


def test_twist_intertwines_actions():
    # u_{1,alpha}(Gamma)(e_alpha(k)) has the same coefficient as Gamma(e_1(k))
    rng = random.Random(17)
    for _ in range(30):
        a = HeisElement.from_raw(rand_raw(rng, P1))
        t = twist(P1, TQ, a)
        for k in [(0, 0), (1, 0), (-1, 2)]:
            c1, s1 = a.left_raw().action_on_exponent(k)
            c2, s2 = t.left_raw().action_on_exponent(k)
            assert s1 == s2 and c1 == c2


def test_twist_homomorphism():
    rng = random.Random(18)
    for _ in range(20):
        a = HeisElement.from_raw(rand_raw(rng, P1))
        b = HeisElement.from_raw(rand_raw(rng, P1))
        assert twist(P1, TQ, a.mul(b)) == twist(P1, TQ, a).mul(twist(P1, TQ, b))


def test_psi_dn():
    rng = random.Random(19)
    for _ in range(10):
        a = HeisElement.from_raw(rand_raw(rng))
        assert psi_dn(1, 1, a, TQ) == a
    # d=n=2: [c; x, h, 0]_{alpha^2} -> [c^2; x, 2h, 0]_alpha
    p2 = TQ.power(2)
    for _ in range(10):
        a = HeisElement.from_raw(rand_raw(rng, p2))
        im = psi_dn(2, 2, a, TQ)
        assert im.c == a.c**2 and im.h == tuple(2 * x for x in a.h) and im.x == a.x
    with pytest.raises(Indivisible):
        psi_dn(2, 3, HeisElement.identity(p2), TQ)


def test_psi_dn_homomorphism():
    rng = random.Random(20)
    p2 = TQ.power(2)
    for _ in range(30):
        a = HeisElement.from_raw(rand_raw(rng, p2))
        b = HeisElement.from_raw(rand_raw(rng, p2))
        assert psi_dn(2, 2, a.mul(b), TQ) == psi_dn(2, 2, a, TQ).mul(psi_dn(2, 2, b, TQ))
    # psi maps the representation kernel into the kernel
    for _ in range(10):
        h = rand_vec(rng)
        z = HeisElement.from_raw(
            HeisRaw(p2, UnitMonomial.one(F), p2.hidden_point(h) ** 2, h, h)
        )
        im = psi_dn(2, 2, z, TQ)
        assert im == HeisElement.identity(TQ)


def test_morphism_validation():
    # [n]: f(h) = nh from alpha^(n^2) to alpha is valid
    m2 = scaling_morphism(TQ, 2)
    assert m2.f(( 1, 0)) == (2, 0)
    # Mumford M is valid
    mm = mumford_morphism(TQ)
    assert mm.f((1, 0, 0, 0)) == (1, 0, 1, 0)
    # f = identity with alpha2 = alpha1^2 violates (1.13)
    with pytest.raises(IncompatibleQuantization):
        TorusMorphism(
            LatticeMap.identity(2),
            tuple(UnitMonomial.one(F) for _ in range(2)),
            TQ.power(2),
            TQ,
        )


def test_morphism_ring_hom_property():
    rng = random.Random(21)
    for F_ in (scaling_morphism(TQ, 2), mumford_morphism(TQ), shift_morphism(TQ, TorusPoint.from_q_exps(F, [1, -2]))):
        p1 = F_.source_param
        for _ in range(25):
            g = rand_vec(rng, p1.rank, -3, 3)
            h = rand_vec(rng, p1.rank, -3, 3)
            # F*(e(g) e(h)) == F*(e(g)) F*(e(h))
            lhs_c = p1.alpha(g, h) * F_.a_value(tuple(x + y for x, y in zip(g, h)))
            rhs_c = (
                F_.a_value(g)
                * F_.a_value(h)
                * F_.target_param.alpha(F_.f(g), F_.f(h))
            )
            assert lhs_c == rhs_c


def test_morphism_pullback_series():
    # identity morphism: identity on series
    ident = TorusMorphism(
        LatticeMap.identity(2), (UnitMonomial.one(F), UnitMonomial.one(F)), TQ, TQ
    )
    rng = random.Random(22)
    f = rand_algebraic(rng)
    g = ident.pullback_series(f)
    assert series_equal_on_cells(f, g, f.support_points(), INF)
    # M*(e(h,g)) = e(h+g, h-g)
    mm = mumford_morphism(QuantParam.trivial(F, 1))
    e = TorusSeries.exponent(mm.source_param, (2, 1))
    pulled = mm.pullback_series(e)
    assert pulled.coeff((3, 1), INF).equal_to_order(
        UnitMonomial.one(F).to_series(), 10
    )
    # [2]* matches termwise substitution h -> 2h
    sc = scaling_morphism(QuantParam.trivial(F, 1), 2)
    s = TorusSeries.from_dict(sc.source_param, {(1,): q_mono(1), (-2,): q_mono(4)})
    pulled2 = sc.pullback_series(s)
    assert pulled2.coeff((2,), INF) == q_mono(1).to_series()
    assert pulled2.coeff((-4,), INF) == q_mono(4).to_series()
    assert pulled2.coeff((1,), INF).is_zero()


def test_pullback_shifts_lattice_certificates():
    # a proper series pulled back by a point with nonzero u-exponents: the
    # lattice certificates must move by the same linear form as the values
    s = theta_series(TQ, (1, 0), prefactor=UnitMonomial(-F.one(), 3)).mul(eq_series(TQ, (1, 1)))
    x = TorusPoint((UnitMonomial(-F.one(), 1), UnitMonomial(F.one(), -2)))
    shifted = s.shift_pullback(x)
    pulled = shift_morphism(TQ, x).pullback_series(s)
    assert series_equal_on_cells(shifted, pulled, TQ.window_cells(2), 16)
    # the certificates are the Gauss parts, theta's 2n^2 + 3n + uexp(x(n, 0))
    # and e_q's 2k^2 + uexp(x(k, k)), each the exact valuation
    for n in range(-4, 5):
        assert [f.gauss.at((n,)).uexp for f in shifted.factors] == [2 * n * n + 4 * n, 2 * n * n - n]
    for fac in shifted.factors + pulled.factors:
        for n in range(-4, 5):
            c = factor_coeff(fac, (n,), 40)
            if c is not None:
                assert c.valuation() == fac.gauss.at((n,)).uexp
    # the certificates drive the enumeration of a product with another series
    th = theta_series(TQ, (0, 1))
    big = TQ.window_cells(4)
    expanded = shifted.materialize(big, 30).mul(th.materialize(big, 30))
    assert series_equal_on_cells(shifted.mul(th), expanded, TQ.window_cells(1), 10)


def test_heis_transport():
    # F = [2] on d=1: [c; x, 2g, 0] -> [c; x^2, g, 0]
    base = QuantParam.trivial(F, 1)
    sc = scaling_morphism(base, 2)  # functions on alpha^4 -> alpha; f injective
    x = TorusPoint.from_q_exps(F, [3])
    b = HeisElement(sc.target_param, q_mono(2), x, (4,))
    t = heis_transport(sc, b)
    assert t.param == sc.source_param
    assert t.h == (2,) and t.c == b.c
    assert t.x == TorusPoint.from_q_exps(F, [6])
    with pytest.raises(NotInImage):
        heis_transport(sc, HeisElement(sc.target_param, q_mono(0), x, (3,)))
    # transported element reproduces the action through F* on exponents
    rng = random.Random(23)
    for _ in range(20):
        g = (rng.randint(-3, 3),)
        s = TorusSeries.exponent(sc.source_param, g)
        lhs = heis_act(b, sc.pullback_series(s))
        rhs = sc.pullback_series(heis_act(t, s))
        cells = set(lhs.support_points()) | set(rhs.support_points())
        assert series_equal_on_cells(lhs, rhs, cells, INF)


def test_compose_closed_form_variants():
    # the two printed closed forms of the composition are its left and right
    # representatives: coefficient eps(h''_l) with point x'_l A^2_{h''_l}
    # (left form), coefficient eps(h'_l) with the right-form data
    rng = random.Random(31)
    for _ in range(40):
        gp = HeisElement.from_raw(rand_raw(rng))  # Gamma'
        h = rand_vec(rng)
        gpp = HeisElement(  # Gamma'' with x_r(Gamma'') = x_l(Gamma')
            TQ,
            q_mono(rng.randint(-2, 2), rng.choice([1, -1])),
            gp.x_l * (TQ.hidden_point(h) ** 2),
            h,
        )
        comp = compose(gpp, gp)
        cpp_r = gpp.right_raw().c
        # left-form closed expression
        c_left = cpp_r * gp.c * TQ.alpha(gp.h_l, gpp.h_l) * TQ.epsilon(gpp.h_l)
        x_left = gp.x_l * (TQ.hidden_point(gpp.h_l) ** 2)
        h_left = tuple(a + b for a, b in zip(gp.h_l, gpp.h_l))
        assert comp == HeisElement(TQ, c_left, x_left, h_left)
        # right-form closed expression, reconciled through the left/right relation
        c_right = cpp_r * gp.c * TQ.alpha(gp.h_l, gpp.h_l) * TQ.epsilon(gp.h_l)
        right = comp.right_raw()
        assert right.c == c_right
        assert right.h == tuple(-x for x in h_left)


def test_twist_unique_intertwiner():
    # perturbing the twisted point slot on a generator breaks intertwining
    rng = random.Random(37)
    for _ in range(10):
        a = HeisElement.from_raw(rand_raw(rng, P1))
        good = twist(P1, TQ, a)
        perturbed = HeisElement(
            TQ, good.c, good.x * TorusPoint.from_q_exps(F, [1, 0]), good.h
        )
        same = all(
            good.left_raw().action_on_exponent(k)
            == a.left_raw().action_on_exponent(k)
            for k in [(0, 0), (1, 0), (0, 1)]
        )
        broken = any(
            perturbed.left_raw().action_on_exponent(k)
            != a.left_raw().action_on_exponent(k)
            for k in [(0, 0), (1, 0), (0, 1)]
        )
        assert same and broken


def test_h_minus_projection_kernel():
    # [c; x, g, h] -> g - h is a surjective morphism onto H whose kernel
    # classes are exactly the [c; x, 0, 0]
    rng = random.Random(41)
    for _ in range(20):
        a, b = rand_raw(rng), rand_raw(rng)
        prod = heis_mul(a, b)
        pa = tuple(x - y for x, y in zip(a.g, a.h))
        pb = tuple(x - y for x, y in zip(b.g, b.h))
        assert tuple(x - y for x, y in zip(prod.g, prod.h)) == tuple(
            x + y for x, y in zip(pa, pb)
        )
        elem = HeisElement.from_raw(a)
        if elem.h_l == (0, 0):
            assert same_class(a, HeisRaw(TQ, elem.c, elem.x, (0, 0), (0, 0)))


def _point(fac, y):
    """A lattice factor's point offset + G y."""
    return tuple(o + sum(yi * g[k] for yi, g in zip(y, fac.gens)) for k, o in enumerate(fac.offset))


def _old_a_value(F_, h):
    """a_h as the closure formula: prod a_i^h_i with a flip for each i with
    eps1(e_i) eps2(f e_i) = -1 and odd h_i(h_i-1)/2, and for each i < j with
    eps_f(e_i, e_j) = -1 and odd h_i h_j."""
    p1, p2 = F_.source_param, F_.target_param
    basis = p1.lattice.basis()
    acc = UnitMonomial.one(p1.field)
    for i, hi in enumerate(h):
        acc = acc * F_.avals[i] ** hi
        s = p1.epsilon(basis[i]) * p2.epsilon(F_.f(basis[i]))
        if not s.is_one() and (hi * (hi - 1) // 2) % 2:
            acc = -acc
        for j in range(i + 1, len(h)):
            if not F_.char_sign(basis[i], basis[j]).is_one() and (h[i] * h[j]) % 2:
                acc = -acc
    return acc


@pytest.mark.parametrize("m", [1, 5])
def test_morphism_gauss_rule_matches_the_closure_formula(m):
    f = CycloField(m)
    p = QuantParam(f, TQ.lattice, TQ.A, ((1, 1), (1, 0)))  # S != 0
    p0 = QuantParam(f, TQ.lattice, TQ.A, ((0, 0), (0, 0)))
    avals = (UnitMonomial(f.zeta(), 1), UnitMonomial(f.from_rational(Fraction(-3, 2)), -2))
    # identity lattice map from S != 0 to S = 0: both sign corrections fire
    signed = TorusMorphism(LatticeMap.identity(2), avals, p, p0)
    assert not signed.is_characteristic_trivial()
    x = TorusPoint(avals)
    morphisms = [signed, mumford_morphism(p), scaling_morphism(p, 3), shift_morphism(p, x)]
    for F_ in morphisms:
        d = F_.source_param.rank
        r = 3 if d == 2 else 1
        for h in itertools.product(range(-r, r + 1), repeat=d):
            assert F_.a_value(h) == _old_a_value(F_, h), h
    # pullbacks of a Gauss factor, a closure x Gauss factor and a rule off
    # the origin equal the coefficient times the closure formula of a_h
    rule = GaussRule(2, f.one(), [(0, 2, 2), (0, 1, 6)], [(1, 2, -1), (1, 1, 1)])
    for F_ in (signed, shift_morphism(p, x)):
        src = F_.source_param
        cases = [
            theta_series(src, (1, 1), UnitMonomial(f.zeta(2), 3)),
            eq_series(src, (1, 0), UnitMonomial(-f.one(), 1)),
            TorusSeries.rule(src, (2, -1), [(1, -1), (0, 2)], None, gauss=rule),
        ]
        for s in cases:
            (fac,) = s.factors
            (pulled,) = F_.pullback_series(s).factors
            for y in itertools.product(range(-2, 4), repeat=fac.nparams):
                assert _point(pulled, y) == F_.f(_point(fac, y))
                c = factor_coeff(fac, y, 30)
                got = factor_coeff(pulled, y, 30)
                if c is None:
                    assert got is None
                    continue
                want = _old_a_value(F_, _point(fac, y)) * c
                if isinstance(got, ScalarSeries):
                    got, want = got.truncate(20), want.truncate(20)
                assert got == want, y
                assert got.valuation() >= pulled.gauss.at(y).uexp


@pytest.mark.parametrize(
    "S,signs",
    [
        (((1, 0), (0, 0)), ((0, 0, 1), (0, 2, 3))),  # eps1(e_0) eps2(f e_0) = -1 alone
        (((0, 1), (1, 0)), ((0, 1, 2),)),  # eps_f(e_0, e_1) = -1 alone
        (((1, 1), (1, 0)), ((0, 0, 1), (0, 1, 2), (0, 2, 3))),  # both: the signed morphism's
    ],
    ids=["diagonal", "cross", "both"],
)
def test_a_sign_in_the_characteristic_is_refused(S, signs):
    # the identity lattice map from a signed torus to TQ: each sign is a term
    # of the scale rule's sign form, so the morphism is not characteristic
    # trivial, and transport and pullback refuse it
    ones = (q_mono(0), q_mono(0))
    assert TorusMorphism(LatticeMap.identity(2), ones, TQ, TQ).is_characteristic_trivial()
    src = QuantParam(F, TQ.lattice, TQ.A, S)
    F_ = TorusMorphism(LatticeMap.identity(2), ones, src, TQ)
    assert F_.scale_rule.sform == signs and not F_.is_characteristic_trivial()
    with pytest.raises(IncompatibleQuantization):
        heis_transport(F_, HeisElement.identity(TQ))
    with pytest.raises(IncompatibleForm):
        pullback(F_, Multiplier(src, [HeisElement.identity(src)]))
