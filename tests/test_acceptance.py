"""Acceptance criteria: identity suite, theta spaces, ampleness closure,
Heisenberg algebra properties, small-group structure, doubling pullback,
and the independent-oracle cross-check.

Every check is exact (tolerance zero); each criterion prints a PASS/FAIL
line with its timing.
"""

import random
import time

import pytest
from oracles import invariance_oracle, random_ample_pair

from qtheta.errors import NotComposable
from qtheta.heisenberg import (
    HeisElement,
    HeisRaw,
    compose as heis_compose,
    heis_act,
    heis_mul,
    representatives,
    same_class,
    twist,
)
from qtheta.intlinalg import LatticeMap, mat
from qtheta.multiplier import (
    Multiplier,
    compose as compose_multipliers,
    hidden_from_morphism,
    multiplier_new,
    power,
    theta_dim_basis,
)
from qtheta.scalars import INF, CycloField, ScalarSeries, UnitMonomial
from qtheta.series import TorusSeries, series_equal_on_cells
from qtheta.smallheis import (
    SmallHeisElement,
    act_on_theta,
    commutant_dimension,
    gamma_lift,
    group_structure,
    mumford_theta_pullback,
)
from qtheta.torus import QuantParam, TorusPoint
from qtheta.verify import verify_named

F = CycloField(1)
P1 = QuantParam.trivial(F, 1)
TQ = QuantParam.standard_tq(F)


def q_mono(k, sign=1):
    return UnitMonomial.q_power(F, k, sign)


def jacobi():
    img = HeisElement(P1, q_mono(1), TorusPoint.from_q_exps(F, [2]), (1,))
    return multiplier_new(P1, [img], [[q_mono(1)]])


def announce(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status}  {detail}")
    assert ok, f"{name} failed: {detail}"


def timed(fn):
    t0 = time.monotonic()
    out = fn()
    return out, time.monotonic() - t0


# -- criterion 1: identity suite ------------------------------------------------


@pytest.mark.parametrize(
    "ident,budget",
    [
        ("E012", 5.0),
        ("E016", 5.0),
        ("E023", 30.0),
        ("E024", 30.0),
        ("E025", 60.0),
        ("E026", 120.0),
        ("E332", 60.0),
        ("E313", 60.0),
    ],
)
def test_criterion_1_identities(ident, budget):
    rep, dt = timed(lambda: verify_named(ident))
    announce(
        f"1.{ident}",
        rep["status"] == "pass" and dt < budget,
        f"window={rep['window']} order={rep['order']} cells={rep['cells_checked']} time={dt:.2f}s",
    )


# -- criterion 2: theta spaces ----------------------------------------------------


def test_criterion_2_theta_spaces():
    t0 = time.monotonic()
    L = jacobi()
    tb = theta_dim_basis(L, window=8, order=200)
    ok = tb.dim == 1
    th = tb.basis[0]
    for n in range(-8, 9):
        ok = ok and th.coeff((n,), INF) == ScalarSeries.q_power(F, n * n)
    L2 = power(L, 2)
    tb2 = theta_dim_basis(L2, window=8, order=200)
    ok = ok and tb2.dim == 2 == L2.index()
    # brute-force solution of the invariance linear system on |n| <= 8, N=80
    oracle = invariance_oracle(L2, 8, 80)
    for sol, series, rep in zip(oracle, tb2.basis, tb2.coset_reps):
        for h, val in sol.items():
            got = series.coeff(h, 80)
            want = val.truncate(80)
            ok = ok and got.equal_to_order(want, min(80, got.trunc, want.trunc))
    announce("2.theta-spaces", ok, f"time={time.monotonic()-t0:.2f}s")


# -- criterion 3: ampleness --------------------------------------------------------


def test_criterion_3_ampleness():
    t0 = time.monotonic()
    ok = jacobi().is_ample()
    neg = multiplier_new(
        P1,
        [HeisElement(P1, q_mono(-1), TorusPoint.from_q_exps(F, [-2]), (1,))],
        [[q_mono(-1)]],
    )
    ok = ok and not neg.is_ample()
    rng = random.Random(2024)
    closures = 0
    for _ in range(20):
        n = rng.choice([1, 2])
        l1, l2 = random_ample_pair(rng, n)
        assert l1.is_ample() and l2.is_ample()
        composed = compose_multipliers(l2, l1)
        if composed.is_ample():
            closures += 1
    ok = ok and closures == 20
    announce("3.ampleness", ok, f"20/20 compositions ample, time={time.monotonic()-t0:.2f}s")


# -- criterion 4: Heisenberg algebra properties ---------------------------------------


def rand_point(rng, d=2):
    return TorusPoint(
        tuple(q_mono(rng.randint(-3, 3), rng.choice([1, -1])) for _ in range(d))
    )


def rand_raw(rng, param=TQ):
    d = param.rank
    return HeisRaw(
        param,
        q_mono(rng.randint(-3, 3), rng.choice([1, -1])),
        rand_point(rng, d),
        tuple(rng.randint(-3, 3) for _ in range(d)),
        tuple(rng.randint(-3, 3) for _ in range(d)),
    )


def rand_algebraic(rng, param=TQ, n=3):
    table = {
        tuple(rng.randint(-2, 2) for _ in range(param.rank)): q_mono(
            rng.randint(-2, 3), rng.choice([1, -1])
        )
        for _ in range(n)
    }
    return TorusSeries.from_dict(param, table)


def test_criterion_4_heisenberg_properties():
    t0 = time.monotonic()
    rng = random.Random(99)
    ok = True
    # group axioms via the action oracle
    for _ in range(40):
        a, b = rand_raw(rng), rand_raw(rng)
        prod = heis_mul(a, b)
        for k in [(0, 0), (1, -1), (2, 1)]:
            cb, sb = b.action_on_exponent(k)
            ca, sa = a.action_on_exponent(sb)
            cp, sp = prod.action_on_exponent(k)
            ok = ok and sp == sa and cp == ca * cb
    # kernel of the representation
    for _ in range(20):
        h = (rng.randint(-3, 3), rng.randint(-3, 3))
        z = HeisRaw(TQ, q_mono(0), TQ.hidden_point(h) ** 2, h, h)
        f = rand_algebraic(rng)
        ok = ok and series_equal_on_cells(heis_act(z, f), f, f.support_points(), INF)
    # rigidity intertwining
    p1 = QuantParam.trivial(F, 2)
    for _ in range(25):
        g = HeisElement.from_raw(rand_raw(rng, p1))
        t = twist(p1, TQ, g)
        for k in [(0, 0), (1, 0), (-1, 2)]:
            c1, s1 = g.left_raw().action_on_exponent(k)
            c2, s2 = t.left_raw().action_on_exponent(k)
            ok = ok and s1 == s2 and c1 == c2
    # identity (1.11)-style product compatibility on 100 composable pairs
    for _ in range(100):
        b = HeisElement.from_raw(rand_raw(rng))
        h = (rng.randint(-2, 2), rng.randint(-2, 2))
        a = HeisElement(TQ, q_mono(rng.randint(-2, 2)), b.x_l * (TQ.hidden_point(h) ** 2), h)
        phi = rand_algebraic(rng, n=2)
        psi = rand_algebraic(rng, n=2)
        lhs = heis_act(b, phi).mul(heis_act(a, psi))
        rhs = heis_act(heis_compose(a, b), phi.mul(psi))
        cells = set(lhs.support_points()) | set(rhs.support_points())
        ok = ok and series_equal_on_cells(lhs, rhs, cells, INF)
    # associativity of composition on random chains
    for _ in range(30):
        c = HeisElement.from_raw(rand_raw(rng))
        h1 = (rng.randint(-2, 2), rng.randint(-2, 2))
        h2 = (rng.randint(-2, 2), rng.randint(-2, 2))
        b = HeisElement(TQ, q_mono(1), c.x_l * (TQ.hidden_point(h1) ** 2), h1)
        a = HeisElement(TQ, q_mono(-1), b.x_l * (TQ.hidden_point(h2) ** 2), h2)
        ok = ok and heis_compose(heis_compose(a, b), c) == heis_compose(a, heis_compose(b, c))
    # groupoid inverses
    for _ in range(30):
        a = HeisElement.from_raw(rand_raw(rng))
        inv = a.groupoid_inverse()
        ok = ok and heis_compose(inv, a) == HeisElement.identity(TQ, a.x_r)
        ok = ok and heis_compose(a, inv) == HeisElement.identity(TQ, a.x_l)
    dt = time.monotonic() - t0
    announce("4.heisenberg-properties", ok and dt < 60.0, f"time={dt:.2f}s")


# -- criterion 5: small Heisenberg -----------------------------------------------------


def test_criterion_5_small_heisenberg():
    t0 = time.monotonic()
    L2 = power(jacobi(), 2)
    struct = group_structure(L2)
    ok = struct.quotient.index == 2 and struct.kappa_orders == (2,)
    # nondegenerate duality
    M = struct.torsion_order
    ok = ok and struct.duality[((1,), 1)] == M // 2 and struct.duality[((1,), 0)] == 0
    tb = theta_dim_basis(L2, window=6, order=160)
    order = 80
    minus = TorusPoint((UnitMonomial(-F.one(), 0),))
    kelem = SmallHeisElement(UnitMonomial.one(F), minus, (0,))
    mk = act_on_theta(L2, kelem, tb, window=4, order=order)
    parities = [rep[0] % 2 for rep in tb.coset_reps]
    for i in range(2):
        for j in range(2):
            if i != j:
                ok = ok and mk[i][j].is_zero()
        expect = ScalarSeries.one(F) if parities[i] == 0 else -ScalarSeries.one(F)
        ok = ok and mk[i][i].equal_to_order(expect.truncate(order), order)
    glift = gamma_lift(L2, (1,))[0]
    mg = act_on_theta(L2, glift, tb, window=4, order=order)
    ok = ok and mg[0][0].is_zero() and mg[1][1].is_zero()
    ok = ok and not mg[0][1].is_zero() and not mg[1][0].is_zero()
    ok = ok and commutant_dimension([mk, mg], F) == 1
    announce("5.small-heisenberg", ok, f"time={time.monotonic()-t0:.2f}s")


# -- criterion 6: doubling pullback ------------------------------------------------------


def test_criterion_6_mumford_pullback():
    t0 = time.monotonic()
    L = jacobi()
    tb = theta_dim_basis(L, window=8, order=300)
    th = tb.basis[0]
    plain, _, ok_plain = mumford_theta_pullback(L, th, th, window=4, order=40)
    # twisted run over the sign parameter: identical coefficient tables
    f4 = CycloField(4)
    p4 = QuantParam.trivial(f4, 1)
    img = HeisElement(
        p4, UnitMonomial.q_power(f4, 1), TorusPoint.from_q_exps(f4, [2]), (1,)
    )
    L4 = multiplier_new(p4, [img], [[UnitMonomial.q_power(f4, 1)]])
    tb4 = theta_dim_basis(L4, window=8, order=300)
    twisted_half = QuantParam(f4, p4.lattice, ((0,),), ((1,),))
    tw, _, ok_tw = mumford_theta_pullback(
        L4, tb4.basis[0], tb4.basis[0], window=4, order=40, half_param=twisted_half
    )
    ok = ok_plain and ok_tw
    for a in range(-4, 5):
        for b in range(-4, 5):
            ca = plain.coeff((a, b), 40)
            cb = tw.coeff((a, b), 40)
            ok = ok and [(e, str(c)) for e, c in sorted(ca.terms.items())] == [
                (e, str(c)) for e, c in sorted(cb.terms.items())
            ]
    announce("6.mumford-pullback", ok, f"time={time.monotonic()-t0:.2f}s")


# -- criterion 7: oracle equivalence -------------------------------------------------------


def test_criterion_7_oracle_equivalence():
    t0 = time.monotonic()
    ok = True
    cases = []
    cases.append(("jacobi", jacobi(), 6, 80))
    cases.append(("level2", power(jacobi(), 2), 6, 80))
    minus_id = LatticeMap(mat([[-1, 0], [0, -1]]))
    chi = (UnitMonomial.one(F), UnitMonomial.one(F))
    cases.append(("tq-hidden", hidden_from_morphism(TQ, minus_id, chi), 3, 60))
    for name, L, window, order in cases:
        tb = theta_dim_basis(L, window=window, order=2 * order)
        oracle = invariance_oracle(L, window, order)
        ok = ok and tb.dim == len(oracle) == L.index()
        for sol, series in zip(oracle, tb.basis):
            for h, val in sol.items():
                got = series.coeff(h, order)
                want = val.truncate(order)
                eff = min(order, got.trunc, want.trunc)
                ok = ok and got.equal_to_order(want, eff)
    announce("7.oracle-equivalence", ok, f"time={time.monotonic()-t0:.2f}s")
