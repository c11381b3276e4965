"""Oracles and multiplier fixtures shared by several test modules.

This module imports no test module, so a bad import in one test file stops
the collection of that file alone.
"""

import itertools
import random

from qtheta.heisenberg import HeisElement, twist
from qtheta.intlinalg import identity, mat, mat_inverse_unimodular, mat_mul, transpose
from qtheta.multiplier import Multiplier, boxtimes, multiplier_new, power
from qtheta.scalars import CycloField, ScalarSeries, UnitMonomial
from qtheta.torus import QuantParam, TorusPoint

F = CycloField(1)
P1 = QuantParam.trivial(F, 1)


def q_mono(k, sign=1):
    return UnitMonomial.q_power(F, k, sign)


def factor_coeff(fac, y, order):
    """A lattice factor's whole coefficient at y, exact to ``order``: its
    Gauss part times its closure value (None off the closure's support)."""
    g = fac.gauss.at(y) if fac.gauss is not None else UnitMonomial.one(fac.param.field)
    if fac.coeff is None:
        return g
    c = fac.coeff_at(y, order - g.uexp)
    return None if c is None else g * c


def word_coeff_reference(param, tables, h, order):
    """Coefficient at h of the product of finitely supported factors (dicts
    point -> scalar), built pair by pair with the plain product and
    truncated at the end: every choice of points from the tables but the
    last, whose point is h less theirs.  No enumeration, position or
    valuation bound enters."""
    f = param.field
    *firsts, last = tables
    total = ScalarSeries.zero(f, order)
    for combo in itertools.product(*[t.items() for t in firsts]):
        q = tuple(x - sum(c) for x, c in zip(h, zip(*[pt for pt, _v in combo]))) if combo else tuple(h)
        if q not in last:
            continue
        combo = (*combo, (q, last[q]))
        pts = [pt for pt, _v in combo]
        term = UnitMonomial.one(f).to_series()
        for i, (pt, v) in enumerate(combo):
            for p in pts[i + 1 :]:
                term = term * param.alpha(pt, p)
            term = term * (v if isinstance(v, ScalarSeries) else v.to_series())
        total = total + term.truncate(order)
    return total


def invariance_oracle(L, window, order):
    """Independent theta solver: propagate the raw invariance equations
    a_{h + h_l} = a_h * c * h(x) * alpha(h_l, h) cellwise from each coset
    representative and verify every equation on the window."""
    quot = L.quotient()
    cells = [
        tuple(c)
        for c in itertools.product(range(-window, window + 1), repeat=L.param.rank)
    ]
    cellset = set(cells)
    steps = []
    for img in L.images:
        raw = img.left_raw()
        steps.append(raw)
        steps.append(raw.inverse())
    solutions = []
    for rep in quot.coset_reps:
        values = {rep: UnitMonomial.one(L.param.field).to_series()}
        frontier = [rep]
        while frontier:
            h = frontier.pop()
            ah = values[h]
            for raw in steps:
                coeff, target = raw.action_on_exponent(h)
                if target not in cellset:
                    continue
                new_val = ah.scale(coeff)
                cur = values.get(target)
                if cur is None:
                    values[target] = new_val
                    frontier.append(target)
                elif cur != new_val:
                    raise AssertionError("oracle inconsistency")
        solutions.append(values)
    return solutions


def evaluation_duality(struct):
    """The small Heisenberg duality table by evaluation: each kernel element
    (a product of powers of the generators) at each coset rep, as a power of
    root_of_unity(M) read off a discrete-log table of the torsion units."""
    field = struct.multiplier.param.field
    M = struct.torsion_order
    zeta, acc, logs = field.root_of_unity(M), field.one(), {}
    for e in range(M):
        logs[acc] = e
        acc = acc * zeta
    table = {}
    for kidx in itertools.product(*(range(o) for o in struct.kappa_orders)):
        for ci, rep in enumerate(struct.quotient.coset_reps):
            val = UnitMonomial.one(field)
            for gen, k in zip(struct.kappa_generators, kidx):
                val = val * gen.eval(rep) ** k
            assert val.uexp == 0 and val.coeff in logs, "duality value is not a torsion unit"
            table[(kidx, ci)] = logs[val.coeff]
    return table


def random_unimodular(rng, n):
    m = [list(r) for r in identity(n)]
    for _ in range(6):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            k = rng.randint(-2, 2)
            m[i] = [a + k * b for a, b in zip(m[i], m[j])]
    return mat(m)


def random_ample_pair(rng, n):
    """Two composable ample multipliers over the trivial pairing on Z^n."""
    f = random_unimodular(rng, n)
    r = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
    s = [
        [2 * sum(r[k][i] * r[k][j] for k in range(n)) + (4 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    # X = F^-T S: exact over Z because F is unimodular
    x = mat_mul(transpose(mat_inverse_unimodular(f)), mat(s))
    p = QuantParam.trivial(F, n)

    def build(psi_signs):
        images = []
        for i in range(n):
            c = UnitMonomial(
                (-F.one() if psi_signs[i] else F.one()), s[i][i]
            )
            xpt = TorusPoint(
                tuple(UnitMonomial(F.one(), x[k][i]) for k in range(n))
            )
            hcol = tuple(f[k][i] for k in range(n))
            images.append(HeisElement(p, c, xpt, hcol))
        return multiplier_new(p, images)

    l1 = build([rng.randint(0, 1) for _ in range(n)])
    l2 = build([rng.randint(0, 1) for _ in range(n)])
    return l1, l2


# pair 1 of the theta-products benchmark (period basis change, valuation
# form); composed with itself, h- has |det| = 4
ACCEPTED_PAIR = (((1, 0), (4, 1)), [[8, 2], [2, 6]])


def ample_multiplier(f, s, field=F):
    """A multiplier over the trivial pairing on Z^2 with period basis change
    f (unimodular), valuation form s and X = f^-T s (as in the theta-products
    benchmark, with trivial signs)."""
    p = QuantParam.trivial(field, 2)
    x = mat_mul(transpose(mat_inverse_unimodular(mat(f))), mat(s))
    images = [
        HeisElement(
            p,
            UnitMonomial(field.one(), s[i][i]),
            TorusPoint(tuple(UnitMonomial(field.one(), x[k][i]) for k in range(2))),
            tuple(f[k][i] for k in range(2)),
        )
        for i in range(2)
    ]
    return multiplier_new(p, images)


def jacobi_multiplier():
    """H = Z, alpha = 1, B = Z: generator image [q; x: h0 -> q^2, h0, 0]."""
    img = HeisElement(P1, q_mono(1), TorusPoint.from_q_exps(F, [2]), (1,))
    return multiplier_new(P1, [img], [[q_mono(1)]])


def odd_diagonal_multiplier():
    """Rank 1 over Q with trivial pairing: [u; x = (u), h = (1)].  The
    valuation diagonal <b, b> = u is odd; the coefficient at n is
    u^(n(n+1)/2)."""
    u = UnitMonomial(F.one(), 1)
    return multiplier_new(P1, [HeisElement(P1, u, TorusPoint((u,)), (1,))])


def zeta5_multiplier():
    """Over Q(zeta_5): [zeta u; x = (zeta u), h = (1)].  The diagonal base
    of the recurrence is zeta, not +-1, so the rule has a character with the
    half-step exponent n(n-1)/2."""
    f5 = CycloField(5)
    p5 = QuantParam.trivial(f5, 1)
    z = UnitMonomial(f5.zeta(), 1)
    return multiplier_new(p5, [HeisElement(p5, z, TorusPoint((z,)), (1,))])


def sign_twisted_multiplier():
    f4 = CycloField(4)
    p1 = QuantParam.trivial(f4, 1)
    sgn = QuantParam(f4, p1.lattice, ((0,),), ((1,),))
    img = HeisElement(p1, UnitMonomial.q_power(f4, 1), TorusPoint.from_q_exps(f4, [2]), (1,))
    return Multiplier(sgn, [twist(p1, sgn, img)])


def oracle_multipliers():
    """Every multiplier whose theta basis the recurrence oracle checks."""
    jac = jacobi_multiplier()
    out = {
        "jacobi": jac,
        "level2": power(jac, 2),
        "boxtimes": boxtimes(jac, power(jac, 2)),
        "sign-twisted": sign_twisted_multiplier(),
        "odd-diagonal": odd_diagonal_multiplier(),
        "zeta5": zeta5_multiplier(),
    }
    rng = random.Random(2024)
    for k in range(3):
        out[f"random{k}"] = random_ample_pair(rng, 2)[0]
    return out
