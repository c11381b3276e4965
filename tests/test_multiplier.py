"""Theta multipliers: validation, theta spaces, ampleness, operations."""

import random
import re

import pytest

from oracles import (
    ACCEPTED_PAIR,
    ample_multiplier,
    invariance_oracle,
    jacobi_multiplier,
    odd_diagonal_multiplier,
    oracle_multipliers,
    random_ample_pair,
    sign_twisted_multiplier,
    zeta5_multiplier,
)

from qtheta.errors import (
    CocycleFailure,
    InfiniteIndex,
    NoLift,
    NonSymmetricPairing,
    NotComposable,
    NotInvertible,
    PrecisionShortfall,
    SqrtMismatch,
)
from qtheta.heisenberg import (
    HeisElement,
    HeisRaw,
    TorusMorphism,
    heis_act,
    mumford_morphism,
    scaling_morphism,
    shift_morphism,
)
from qtheta.intlinalg import LatticeMap, mat, solve_integer, vec_add, vec_sub, zero_vec
from qtheta.multiplier import (
    Multiplier,
    _check_recurrence,
    _recurrence_factor,
    _theta_rule,
    boxtimes,
    boxtimes_series,
    compose,
    composed_pairing_formula,
    hidden_from_morphism,
    multiplier_new,
    pic_hom,
    power,
    pullback,
    structure_pairing,
    theta_dim_basis,
    theta_membership,
    theta_product,
)
from qtheta.scalars import INF, CycloField, ScalarSeries, UnitMonomial
from qtheta.series import GaussRule, TorusSeries, _prove_by_translation, series_equal_on_cells
from qtheta.smallheis import SmallHeisElement, act_on_theta, group_structure
from qtheta.torus import QuantParam, TorusPoint

F = CycloField(1)
P1 = QuantParam.trivial(F, 1)
TQ = QuantParam.standard_tq(F)


def q_mono(k, sign=1):
    return UnitMonomial.q_power(F, k, sign)


def test_jacobi_valid_and_pairing():
    L = jacobi_multiplier()
    # <m1, m2> = q^(2 m1 m2)
    assert structure_pairing(L, (2,), (3,)) == q_mono(12)
    assert structure_pairing(L, (5,), (0,)).is_one()
    rng = random.Random(1)
    for _ in range(20):
        b1, b2 = (rng.randint(-4, 4),), (rng.randint(-4, 4),)
        assert structure_pairing(L, b1, b2) == structure_pairing(L, b2, b1)


def test_multiplier_validation_errors():
    # noncommuting generator images: the structure pairing is asymmetric
    u_img = HeisElement(TQ, q_mono(0), TorusPoint.identity(F, 2), (1, 0))
    v_img = HeisElement(TQ, q_mono(0), TorusPoint.identity(F, 2), (0, 1))
    assert u_img.mul(v_img) != v_img.mul(u_img)
    with pytest.raises(NonSymmetricPairing):
        multiplier_new(TQ, [u_img, v_img])
    # wrong square root
    img = HeisElement(P1, q_mono(1), TorusPoint.from_q_exps(F, [2]), (1,))
    with pytest.raises(SqrtMismatch):
        multiplier_new(P1, [img], [[q_mono(2)]])


def test_nonsymmetric_pairing_rejected():
    # x-part pairing asymmetric: <b1,b2> = h(b2)(x1) = q but <b2,b1> = 1
    p = QuantParam.trivial(F, 2)
    img1 = HeisElement(p, q_mono(0), TorusPoint.from_q_exps(F, [0, 1]), (1, 0))
    img2 = HeisElement(p, q_mono(0), TorusPoint.from_q_exps(F, [0, 0]), (0, 1))
    with pytest.raises(NonSymmetricPairing):
        multiplier_new(p, [img1, img2])


def test_images_commute_and_cocycle_random():
    L = jacobi_multiplier()
    rng = random.Random(2)
    for _ in range(20):
        b1 = (rng.randint(-3, 3),)
        b2 = (rng.randint(-3, 3),)
        g1, g2 = L.image(b1), L.image(b2)
        assert g1.mul(g2) == g2.mul(g1)
        # (2.3): c(b1+b2)/(c(b1) c(b2)) = <b1, b2>
        lhs = L.c_l((b1[0] + b2[0],)) * (L.c_l(b1) * L.c_l(b2)).inverse()
        assert lhs == structure_pairing(L, b1, b2)


def test_automorphy_factors_jacobi():
    L = jacobi_multiplier()
    af = L.automorphy_factors()
    assert all(v.is_one() for v in af.psi_l)
    assert af.psi_r == af.psi_l  # trivial characteristic
    assert L.is_symmetric()


def test_theta_basis_jacobi():
    L = jacobi_multiplier()
    tb = theta_dim_basis(L, window=8, order=200)
    assert tb.dim == 1
    th = tb.basis[0]
    for n in range(-8, 9):
        assert th.coeff((n,), INF) == ScalarSeries.q_power(F, n * n)
    # the invariance equations hold on a window
    cells = [(n,) for n in range(-6, 7)]
    assert theta_membership(L, th, cells, 60)


def test_theta_basis_level2():
    L2 = power(jacobi_multiplier(), 2)
    # images [q^(2m^2); x: h0 -> q^(2m), 2m h0, 0]
    img = L2.images[0]
    assert img.c == q_mono(2) and img.h_l == (2,) and img.x == TorusPoint.from_q_exps(F, [2])
    tb = theta_dim_basis(L2, window=8, order=200)
    assert tb.dim == 2 == L2.index()
    # even coset: a_{-2m} = q^(2 m^2)
    even = next(s for s, rep in zip(tb.basis, tb.coset_reps) if rep[0] % 2 == 0)
    for m in range(-3, 4):
        assert even.coeff((-2 * m,), INF) == ScalarSeries.q_power(F, 2 * m * m)
    for th in tb.basis:
        assert theta_membership(L2, th, [(n,) for n in range(-6, 7)], 60)


def test_inconsistent_recurrence_drops_cosets():
    # h- = 0 cannot happen with finite index unless H is rank 0; use a rank-2
    # B with one kernel direction carrying a nontrivial scalar.
    img1 = HeisElement(P1, q_mono(1), TorusPoint.from_q_exps(F, [2]), (1,))
    img_kernel = HeisElement(P1, q_mono(1), TorusPoint.identity(F, 1), (0,))
    L = multiplier_new(P1, [img1, img_kernel])
    tb = theta_dim_basis(L)
    assert tb.dim == 0
    assert len(tb.inconsistent) == 1
    # with a trivial kernel image the dimension is restored
    img_triv = HeisElement(P1, q_mono(0), TorusPoint.identity(F, 1), (0,))
    L_ok = multiplier_new(P1, [img1, img_triv])
    assert theta_dim_basis(L_ok).dim == 1


def test_infinite_index_raises():
    img = HeisElement(P1, q_mono(1), TorusPoint.from_q_exps(F, [2]), (0,))
    L = multiplier_new(P1, [img])
    with pytest.raises(InfiniteIndex):
        theta_dim_basis(L)


def test_is_ample():
    assert jacobi_multiplier().is_ample()
    # negated pairing q^(-2 b^2): not ample
    img = HeisElement(P1, q_mono(-1), TorusPoint.from_q_exps(F, [-2]), (1,))
    L_neg = multiplier_new(P1, [img], [[q_mono(-1)]])
    assert not L_neg.is_ample()
    # trivial multiplier on H = Z: infinite index
    img0 = HeisElement(P1, q_mono(0), TorusPoint.identity(F, 1), (0,))
    assert not multiplier_new(P1, [img0]).is_ample()


def test_power_properties():
    L = jacobi_multiplier()
    L1 = power(L, 1)
    assert L1.images == L.images
    L2 = power(L, 2)
    assert structure_pairing(L2, (1,), (1,)) == structure_pairing(L, (1,), (1,)) ** 2
    # period maps unchanged (alpha = 1 case of the scaling construction)
    assert L2.x_l_generators() == L.x_l_generators()
    assert L2.x_r_generators() == L.x_r_generators()


def test_boxtimes():
    L = jacobi_multiplier()
    box = boxtimes(L, L)
    assert box.rank == 2 and box.param.rank == 2
    assert box.index() == 1
    tb = theta_dim_basis(box, window=4, order=100)
    assert tb.dim == 1
    th = tb.basis[0]
    for n in range(-3, 4):
        for m in range(-3, 4):
            assert th.coeff((n, m), INF) == ScalarSeries.q_power(F, n * n + m * m)
    # pairing of the external product is the product of the pairings
    assert structure_pairing(box, (1, 2), (3, 1)) == structure_pairing(
        L, (1,), (3,)
    ) * structure_pairing(L, (2,), (1,))


def test_pullback_shift():
    # y^*(L)(b) = [c h(y); x, h, 0]: the scalar picks up h(y), the point is
    # unchanged (the induced point map for f = id is the identity); the
    # defining property F*(L)(b) F*(theta) = F*(L(b) theta) pins this down.
    L = jacobi_multiplier()
    y = TorusPoint.from_q_exps(F, [3])
    sm = shift_morphism(P1, y)
    Ly = pullback(sm, L)
    img = Ly.images[0]
    assert img.c == q_mono(1) * y.eval((1,))
    assert img.x == TorusPoint.from_q_exps(F, [2])
    assert img.h_l == (1,)
    # membership: y^*(theta) is a theta for the pulled-back multiplier
    tb = theta_dim_basis(L, window=6, order=120)
    pulled = tb.basis[0].shift_pullback(y)
    assert theta_membership(Ly, pulled, [(n,) for n in range(-5, 6)], 60)


def test_pullback_scaling():
    # [n]: image [c; x^(1/n), n h, 0] over the n^2 power parameter
    L = jacobi_multiplier()
    sc = scaling_morphism(P1, 2)
    Ln = pullback(sc, L)
    img = Ln.images[0]
    assert img.c == q_mono(1)
    assert img.x == TorusPoint.from_q_exps(F, [1])  # (q^2)^(1/2)
    assert img.h_l == (2,)
    # pulled-back thetas contain the pulled-back space: check membership
    tb = theta_dim_basis(L, window=6, order=120)
    pulled_theta = sc.pullback_series(tb.basis[0])
    cells = [(n,) for n in range(-5, 6)]
    assert theta_membership(Ln, pulled_theta, cells, 80)


def test_pullback_along_a_non_injective_map():
    # f(k) = k_1 + k_2 from trivial Z^2 to Z: x' with x'(f(k)) = x_l(k) exists
    # only when x_l is 1 on ker f = Z (1, -1)
    P2 = QuantParam.trivial(F, 2)
    one = UnitMonomial.one(F)
    f = LatticeMap.from_rows([[1, 1]])
    sum_map = TorusMorphism(f, [one, one], P2, P1)

    def on_z2(a, b):
        x = TorusPoint((UnitMonomial(F.one(), a), UnitMonomial(F.one(), b)))
        return multiplier_new(P2, [HeisElement(P2, one, x, (1, 0))])

    with pytest.raises(NoLift):
        pullback(sum_map, on_z2(3, 5))
    L = on_z2(3, 3)
    xprime = pullback(sum_map, L).images[0].x_l
    for k in [(1, 0), (0, 1), (1, -1)]:
        assert xprime.eval(f(k)) == L.images[0].x_l.eval(k)


def test_compose_jacobi():
    L = jacobi_multiplier()
    comp = compose(L, L)
    # structure pairing q^(4 m1 m2), matching the closed formula
    assert structure_pairing(comp, (1,), (1,)) == q_mono(4)
    rng = random.Random(3)
    for _ in range(20):
        b1, b2 = (rng.randint(-3, 3),), (rng.randint(-3, 3),)
        assert structure_pairing(comp, b1, b2) == composed_pairing_formula(L, L, b1, b2)
    # alpha = 1: composition is the coefficient square, same periods as power
    assert comp.x_l_generators() == power(L, 2).x_l_generators()
    assert comp.images[0].c == q_mono(2)
    assert comp.is_ample()


def test_composed_sqrt_pairing_squares_to_the_pairing():
    comp = compose(jacobi_multiplier(), jacobi_multiplier())
    u4 = UnitMonomial(F.one(), 4)
    assert comp.sqrt_pairing == ((u4,),)
    assert comp.sqrt_pairing[0][0] ** 2 == comp.pairing_on_basis(0, 0) == u4**2


def test_boxtimes_sqrt_pairing_is_block_diagonal():
    L = jacobi_multiplier()
    box = boxtimes(L, power(L, 2))
    one = UnitMonomial.one(F)
    assert box.sqrt_pairing == ((q_mono(1), one), (one, q_mono(2)))
    for i in range(2):
        for j in range(2):
            assert box.sqrt_pairing[i][j] ** 2 == box.pairing_on_basis(i, j)


def test_compose_boundary_mismatch():
    L = jacobi_multiplier()
    img = HeisElement(P1, q_mono(1), TorusPoint.from_q_exps(F, [4]), (1,))
    other = multiplier_new(P1, [img])
    with pytest.raises(NotComposable):
        compose(L, other)


def test_theta_product_membership():
    L = jacobi_multiplier()
    tb = theta_dim_basis(L, window=6, order=120)
    th = tb.basis[0]
    comp = compose(L, L)
    prod = theta_product(L, L, th, th, window=6, order=80)
    # theta_q^2 coefficients: sum_k q^(k^2 + (n-k)^2)
    for n in range(-4, 5):
        expect = {}
        for k in range(-12, 13):
            e = 2 * (k * k + (n - k) * (n - k))
            if e <= 80:
                expect[e] = expect.get(e, 0) + 1
        got = prod.coeff((n,), 80)
        assert got == ScalarSeries(F, {e: F.from_rational(c) for e, c in expect.items()}, 80)
    cells = [(n,) for n in range(-4, 5)]
    assert theta_membership(comp, prod, cells, 60)
    # multiplying by the constant 1 in the trivial multiplier leaves theta alone
    triv_img = HeisElement(P1, q_mono(0), TorusPoint.from_q_exps(F, [2]), (0,))
    # (x_r of the trivial image must match x_l of L for composability)
    one = TorusSeries.one(P1)
    prod1 = theta_product(multiplier_new(P1, [triv_img]), L, one, th, window=6, order=80)
    for n in range(-4, 5):
        assert prod1.coeff((n,), 80).equal_to_order(th.coeff((n,), 80), 80)


def test_hidden_from_morphism_examples():
    # Example: f: h1 -> h1, h2 -> h1 + h2 on T_q; chi trivial gives the
    # multiplier annihilating the theta lift along h1.
    fmap = LatticeMap.from_rows([[1, 1], [0, 1]])
    chi = (UnitMonomial.one(F), UnitMonomial.one(F))
    L = hidden_from_morphism(TQ, fmap, chi)
    # theta_q(u): coefficients q^(n^2) on the h1 axis
    def coeff(y, order):
        (n,) = y
        return q_mono(n * n)

    th_u = TorusSeries.rule(TQ, (0, 0), [(1, 0)], coeff, label="th_u")
    cells = [(n, m) for n in range(-4, 5) for m in range(-2, 3)]
    assert theta_membership(L, th_u, cells, 40)
    # f = identity, chi = 1: on a commutative torus this is the trivial
    # multiplier; with nontrivial alpha the images are the inner shifts.
    p_triv = QuantParam.trivial(F, 2)
    L_triv = hidden_from_morphism(p_triv, LatticeMap.identity(2), chi)
    assert all(img == HeisElement.identity(p_triv) for img in L_triv.images)
    L_inner = hidden_from_morphism(TQ, LatticeMap.identity(2), chi)
    for img, b in zip(L_inner.images, TQ.lattice.basis()):
        assert img.h_l == (0, 0)
        assert img.x == TQ.hidden_point(b) ** -2


def test_hidden_multiplier_is_non_endomorphism_arrow():
    fmap = LatticeMap.from_rows([[1, 1], [0, 1]])
    chi = (UnitMonomial.one(F), UnitMonomial.one(F))
    L = hidden_from_morphism(TQ, fmap, chi)
    xl = L.x_l_generators()
    xr = L.x_r_generators()
    assert xl != xr  # periods differ by hidden periods
    assert pic_hom(xr, xl, [L]) == [L]
    assert pic_hom(xl, xl, [L]) == []


def test_pic_hom_trivial_alpha():
    L = jacobi_multiplier()
    xi = L.x_l_generators()
    assert L.x_r_generators() == xi  # alpha = 1
    assert pic_hom(xi, xi, [L]) == [L]
    assert pic_hom(xi, xi, [L], ample_only=True) == [L]


def test_recurrence_path_independence():
    box = boxtimes(jacobi_multiplier(), power(jacobi_multiplier(), 2))
    tb = theta_dim_basis(box, window=4, order=100)
    rng = random.Random(7)
    th = tb.basis[0]
    # the recurrence is path independent: proven for each coset by the
    # finite check in _check_recurrence, re-checked here on the invariance
    # equations directly (test_theta_rules_match_the_recurrence_walk walks it)
    for img in box.images:
        acted = heis_act(img, th)
        cells = [(a, b) for a in range(-3, 4) for b in range(-3, 4)]
        assert series_equal_on_cells(acted, th, cells, 60)


def test_twisted_multiplier_spaces_correspond():
    # u_{1,alpha} o L is a multiplier over alpha; theta coefficients coincide
    from qtheta.heisenberg import twist

    f4 = CycloField(4)
    p1 = QuantParam.trivial(f4, 1)
    sgn = QuantParam(f4, p1.lattice, ((0,),), ((1,),))  # alpha with a sign part
    img = HeisElement(p1, UnitMonomial.q_power(f4, 1), TorusPoint.from_q_exps(f4, [2]), (1,))
    L = multiplier_new(p1, [img])
    Lt = Multiplier(sgn, [twist(p1, sgn, img)])
    tb = theta_dim_basis(L, window=5, order=100)
    tbt = theta_dim_basis(Lt, window=5, order=100)
    assert tb.dim == tbt.dim == 1
    for n in range(-4, 5):
        assert tb.basis[0].coeff((n,), 80) == tbt.basis[0].coeff((n,), 80)


def test_boxtimes_series_coefficients():
    L = jacobi_multiplier()
    th = theta_dim_basis(L, window=4, order=100).basis[0]
    box = boxtimes_series(th, th)
    for n in range(-2, 3):
        for m in range(-2, 3):
            assert box.coeff((n, m), INF) == ScalarSeries.q_power(F, n * n + m * m)


def test_hidden_functoriality():
    # composing hidden-period multipliers tracks composition of the
    # underlying lattice morphisms (the second factor reparameterized
    # through the first): L_g(f(.)) o L_f(.) = L_{g o f}(.)
    chi = (UnitMonomial.one(F), UnitMonomial.one(F))
    fmap = LatticeMap.from_rows([[1, 1], [0, 1]])   # h1->h1, h2->h1+h2
    gmap = LatticeMap.from_rows([[1, 0], [-1, 1]])  # h1->h1-h2, h2->h2
    L1 = hidden_from_morphism(TQ, fmap, chi)
    L2 = hidden_from_morphism(TQ, gmap, chi, hl_map=fmap)
    composed = compose(L2, L1)
    direct = hidden_from_morphism(TQ, gmap.compose(fmap), chi)
    assert composed.images == direct.images


def test_boxtimes_with_rank_zero_is_identity():
    # the degenerate rank-0 torus is the base field; its trivial multiplier
    # is a unit for the external product
    L = jacobi_multiplier()
    p0 = QuantParam.trivial(F, 0)
    L0 = multiplier_new(p0, [], [])
    box = boxtimes(L, L0)
    assert box.param.rank == 1 and box.rank == 1
    assert box.images == L.images
    assert structure_pairing(box, (2,), (3,)) == structure_pairing(L, (2,), (3,))


def test_symmetry_equals_central_coefficient_parity():
    # symmetric <=> c_{l,b} == c_{l,-b} on generators
    L = jacobi_multiplier()
    assert L.is_symmetric()
    assert L.c_l((1,)) == L.c_l((-1,))
    img = HeisElement(P1, q_mono(2), TorusPoint.from_q_exps(F, [2]), (1,))
    skew = multiplier_new(P1, [img], [[q_mono(1)]])
    assert not skew.is_symmetric()
    assert skew.c_l((1,)) != skew.c_l((-1,))


def test_theta_invariance_right_form():
    # the invariance holds whether the generator image acts through its
    # left or its right representative (they are the same operator)
    from qtheta.heisenberg import heis_act

    L2 = power(jacobi_multiplier(), 2)
    tb = theta_dim_basis(L2, window=6, order=160)
    cells = [(n,) for n in range(-5, 6)]
    for th in tb.basis:
        for img in L2.images:
            left = heis_act(img.left_raw(), th)
            right = heis_act(img.right_raw(), th)
            assert series_equal_on_cells(left, th, cells, 60)
            assert series_equal_on_cells(right, th, cells, 60)


def test_sign_twisted_multiplier_membership():
    Lt = sign_twisted_multiplier()
    tb = theta_dim_basis(Lt, window=5, order=120)
    assert tb.dim == 1
    cells = [(n,) for n in range(-4, 5)]
    assert theta_membership(Lt, tb.basis[0], cells, 60)


# ---------------------------------------------------------------------------
# theta bases as proven Gauss rules: half-step forms, the recurrence as an
# independent oracle, and the finite proof


def test_membership_precision_shortfall_names_the_cell():
    # heis_act multiplies some cells of the product by unit monomials of
    # negative u-exponent, so there the acted table is known only below N:
    # comparing to N is a precision shortfall at that cell, not a division
    # error
    L = odd_diagonal_multiplier()
    window, order = 5, 40
    (th,) = theta_dim_basis(L, window=window, order=order).basis
    prod = theta_product(L, L, th, th, window=window, order=order)
    cells = [(n,) for n in range(-3, 4)]
    with pytest.raises(PrecisionShortfall, match=r"known only to 37 at cell \(-3,\)") as exc:
        theta_membership(compose(L, L), prod, cells, order)
    assert not isinstance(exc.value, NotInvertible)


def test_membership_of_a_product_is_proved_without_acted_tables(monkeypatch):
    # each generator's acted product is the product translated on its
    # summation lattice, so only the product's own table is filled
    L = ample_multiplier(*ACCEPTED_PAIR)
    th = theta_dim_basis(L, 2, 20).basis[0]
    prod = th.mul(th)
    filled = []
    orig = TorusSeries._combo_coeffs
    monkeypatch.setattr(TorusSeries, "_combo_coeffs", lambda s, hs, o: filled.append(s) or orig(s, hs, o))
    assert theta_membership(compose(L, L), prod, prod.window_cells(2), 20)
    assert filled == [prod]


def test_membership_outside_the_theta_space_falls_back_to_the_window(monkeypatch):
    # the square of a theta is no theta of L itself: no generator is
    # proved, and the window comparison finds a cell that differs
    import qtheta.multiplier as multiplier_mod

    compared = []
    orig = multiplier_mod.series_equal_on_cells
    monkeypatch.setattr(
        multiplier_mod, "series_equal_on_cells", lambda *a: compared.append(a[0]) or orig(*a)
    )
    for L in (jacobi_multiplier(), ample_multiplier(*ACCEPTED_PAIR)):
        th = theta_dim_basis(L, 2, 20).basis[0]
        prod = th.mul(th)
        assert not theta_membership(L, prod, prod.window_cells(2), 20)
        assert compared and all(_prove_by_translation(a, prod) is None for a in compared)
        compared.clear()


def test_membership_checks_the_series_own_table_first():
    # a series known below the order at a cell cannot be a member there,
    # whether its generators are proved or not
    L = jacobi_multiplier()
    (th,) = theta_dim_basis(L, window=5, order=40).basis
    short = th.materialize([(0,)], 30)
    with pytest.raises(PrecisionShortfall, match=r"order 40: known only to 30 at cell \(0,\)"):
        theta_membership(L, short, [(1,), (0,)], 40)


def recurrence_walk(L, rep, b):
    """phi(b) for the coset of ``rep``, walked from phi(0) = 1 along the
    coordinate axes in order, one _recurrence_factor step at a time:
    phi(b + e_i) = phi(b) * factor(i, rep - h-(b))."""
    phi = UnitMonomial.one(L.param.field)
    cur = zero_vec(L.rank)
    for i, target in enumerate(b):
        e = tuple(int(k == i) for k in range(L.rank))
        while cur[i] < target:
            phi = phi * _recurrence_factor(L, i, vec_sub(rep, L.h_minus(cur)))
            cur = vec_add(cur, e)
        while cur[i] > target:
            cur = vec_sub(cur, e)
            phi = phi * _recurrence_factor(L, i, vec_sub(rep, L.h_minus(cur))).inverse()
    return phi


@pytest.mark.parametrize("name", list(oracle_multipliers()))
def test_theta_rules_match_the_recurrence_walk(name):
    L = oracle_multipliers()[name]
    tb = theta_dim_basis(L, window=3, order=60)
    assert tb.dim == L.index()
    for th, rep in zip(tb.basis, tb.coset_reps):
        (fac,) = th.factors
        assert fac.coeff is None and fac.gauss is not None  # a pure Gauss factor
        for h in th.window_cells(3):
            sol = solve_integer(L.h_minus_matrix, vec_sub(rep, h))
            got = th.coeff(h, INF)
            if sol is None:
                assert got.is_zero(), (name, rep, h)
            else:
                assert got == recurrence_walk(L, rep, sol[0]).to_series(), (name, rep, h)


@pytest.mark.parametrize("name", list(oracle_multipliers()))
def test_recurrence_check_rejects_a_corrupted_base(name):
    L = oracle_multipliers()[name]
    f = L.param.field
    r = L.rank
    rep = L.quotient().coset_reps[-1]
    rule = _theta_rule(L, rep)
    zero, e0 = zero_vec(r), tuple(int(i == 0) for i in range(r))
    # f_i(b) at b = 0 and each e_k, one recurrence factor at rep - h-(b) each
    starts = [zero] + [tuple(int(i == k) for i in range(r)) for k in range(r)]
    steps = [[_recurrence_factor(L, i, vec_sub(rep, L.h_minus(b))) for i in range(r)] for b in starts]
    _check_recurrence(rep, rule, steps)
    corruptions = [  # (exponent form, the generator and start that fail first)
        ([(0, r, 2)], 0, zero),  # A_0 times u
        ([(0, 0, 1), (0, r, -1)], 0, e0),  # D_0 times u, seen only at 2 e_0
    ]
    if r > 1:
        corruptions.append(([(0, 1, 2)], 1, e0))  # C_01 times u, seen only at e_0 + e_1
    for form, i, b in corruptions:
        for bad in (
            rule.times(GaussRule(r, f.one(), form)),
            rule.times(GaussRule(r, f.one(), (), form)),  # base times -1
            rule.times(GaussRule(r, f.one(), (), (), [(f.from_rational(2), form)])),
        ):
            msg = f"theta recurrence of coset {rep} fails at generator {i} from {b}"
            with pytest.raises(CocycleFailure, match=re.escape(msg)):
                _check_recurrence(rep, bad, steps)


def recurrence_factor_cases():
    """The oracle multipliers, their squares and cubes, composed random
    pairs, and a hidden-period multiplier over T_q, whose alpha(h, h-(b_i))
    carries a u-exponent: there alpha(h, -h-(b_i)) differs from it."""
    base = dict(oracle_multipliers())
    cases = dict(base)
    for name, L in base.items():
        cases.update({f"{name}^{n}": power(L, n) for n in (2, 3)})
    rng = random.Random(7)
    for k in range(3):
        l1, l2 = random_ample_pair(rng, 2)
        cases[f"composed{k}"] = compose(l2, l1)
    chi = (UnitMonomial.one(F), q_mono(1))
    cases["tq-hidden"] = hidden_from_morphism(TQ, LatticeMap(mat([[-1, 0], [0, -1]])), chi)
    cases["tq-hidden^2"] = power(cases["tq-hidden"], 2)
    return cases


def test_recurrence_factor_is_the_direct_formula():
    # f_i(h) = c_i^-1 <b_i, b_i> x_l(b_i)(h)^-1 alpha(h, h-(b_i)), with every
    # piece read off the image of e_i; the multipliers are visited in turn,
    # so each must keep its own constants and points
    rng = random.Random(32)
    for name, L in recurrence_factor_cases().items():
        for i in range(L.rank):
            e = tuple(int(k == i) for k in range(L.rank))
            img = L.image(e)
            pair = structure_pairing(L, e, e)
            for _ in range(6):
                h = tuple(rng.randint(-5, 5) for _ in range(L.param.rank))
                direct = img.c.inverse() * pair * img.x_l.eval(h).inverse() * L.param.alpha(h, img.h_l)
                assert _recurrence_factor(L, i, h) == direct, (name, i, h)


@pytest.mark.parametrize("build", [odd_diagonal_multiplier, zeta5_multiplier])
def test_half_step_theta_bases(build):
    L = build()
    assert L.is_ample() and L.pairing_on_basis(0, 0).uexp % 2 == 1
    window, order = 5, 40
    tb = theta_dim_basis(L, window=window, order=order)
    assert tb.dim == 1
    (th,) = tb.basis
    # the certificate, the Gauss exponent, is the exact valuation
    # u^(n(n+1)/2) at cell n
    for n in range(-window, window + 1):
        c = th.coeff((n,), INF)
        assert c.valuation() == n * (n + 1) // 2 == th.factors[0].gauss.at((-n,)).uexp
    if build is odd_diagonal_multiplier:
        for n in range(-window, window + 1):
            assert th.coeff((n,), INF) == ScalarSeries.monomial(F, n * (n + 1) // 2)
    # the independent solver of the invariance equations
    (sol,) = invariance_oracle(L, window, order)
    for h, val in sol.items():
        assert th.coeff(h, order).equal_to_order(val.truncate(order), order), h
    # a product of two basis thetas lies in the composed theta space
    comp = compose(L, L)
    prod = theta_product(L, L, th, th, window=window, order=order)
    cells = [(n,) for n in range(-3, 4)]  # the acted cells stay in the window
    assert theta_membership(comp, prod, cells, order - 10)
    # act_on_theta re-expands the basis: a translation in the normalizer of
    # L, and the kappa generators of the composed space
    one = UnitMonomial.one(L.param.field)
    img = L.images[0]
    (row,) = act_on_theta(L, SmallHeisElement(one, img.x_l, img.h_l), tb, window, order)
    assert row[0].valuation() != INF
    ctb = theta_dim_basis(comp, window=2, order=order)
    struct = group_structure(comp)
    assert ctb.dim == 2 and struct.kappa_orders == (2,)
    for gen in struct.kappa_generators:
        act_on_theta(comp, SmallHeisElement(one, gen, zero_vec(1)), ctb, 2, order)
