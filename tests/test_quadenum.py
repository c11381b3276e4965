"""Sublevel enumeration: soundness and completeness against brute force."""

import itertools
import math
import random
import sys
from fractions import Fraction
from operator import mul

import pytest

from qtheta.errors import EnumerationLimit, NotMultipliable
from qtheta.quadenum import QuadExpr, _walk_order, enumerate_sublevel
from qtheta.scalars import CycloField
from qtheta.gauss import _form, _forms_at, _quad, _subst
from qtheta.verify import _term_series, identity_specs


def brute(T, limit, ineqs, box):
    out = []
    for y in itertools.product(*[range(-box, box + 1) for _ in range(T.n)]):
        if T.value(y) > limit:
            continue
        if all(sum(c * yy for c, yy in zip(a, y)) + b >= 0 for a, b in ineqs):
            out.append(y)
    return sorted(out)


def _integral(n, quad, lin, const, limit, rows=()):
    """A rational bound T(y) <= limit with rational rows a.y + b >= 0 as the
    walk's integer input: T and the limit times their common denominator,
    each row times its own, which keeps every solution and no other."""

    def lcm(xs):
        return math.lcm(*(Fraction(x).denominator for x in xs))

    def times(xs, k):
        return [int(x * k) for x in xs]

    d = lcm([*itertools.chain(*quad), *lin, const, limit])
    T = QuadExpr(n, [times(row, d) for row in quad], times(lin, d), int(const * d))
    return T, int(limit * d), [(tuple(times(a, lcm([*a, b]))), int(b * lcm([*a, b]))) for a, b in rows]


def test_single_quadratic():
    T = QuadExpr(1, [[2]], [0], 0)  # 2y^2
    pts = enumerate_sublevel(T, 25)
    assert sorted(pts) == [(y,) for y in range(-3, 4)]


def test_quadratic_with_linear_weight():
    # 2y^2 - 7y <= 10
    T = QuadExpr(1, [[2]], [-7], 0)
    pts = sorted(enumerate_sublevel(T, 10))
    assert pts == brute(T, 10, [], 12)


def test_cone_linear():
    # val = 2k on k >= 0, limit 9 -> k in [0,4]
    T = QuadExpr(1, [[0]], [2], 0)
    pts = enumerate_sublevel(T, 9, ineqs=[((1,), 0)])
    assert sorted(pts) == [(k,) for k in range(5)]


def test_cone_linear_unbounded_raises():
    T = QuadExpr(1, [[0]], [2], 0)  # 2k <= 9 with k unconstrained below
    with pytest.raises(NotMultipliable):
        enumerate_sublevel(T, 9)


def test_two_cones_coupled_by_inequalities():
    # k, j >= 0, k + j <= 5 expressed as linear bound 2k+2j <= 10
    T = QuadExpr(2, [[0, 0], [0, 0]], [2, 2], 0)
    ineqs = [((1, 0), 0), ((0, 1), 0)]
    pts = sorted(enumerate_sublevel(T, 10, ineqs=ineqs))
    assert pts == brute(T, 10, ineqs, 8)


def test_pd_cross_coupled_block():
    # PD form with negative cross terms: propagation alone cannot bound it
    T = QuadExpr(2, [[4, -3], [-3, 4]], [0, 0], 0)
    limit = 30
    pts = sorted(enumerate_sublevel(T, limit))
    assert pts == brute(T, limit, [], 10)
    assert (2, 2) in pts  # the flat-ish diagonal direction is inside


def test_indefinite_raises():
    T = QuadExpr(2, [[1, 0], [0, -1]], [0, 0], 0)
    with pytest.raises(NotMultipliable):
        enumerate_sublevel(T, 5)


def test_empty_results():
    T = QuadExpr(1, [[2]], [0], 100)  # 2y^2 + 100 <= 5: empty
    assert enumerate_sublevel(T, 5) == []
    # contradictory inequalities
    T2 = QuadExpr(1, [[1]], [0], 0)
    assert enumerate_sublevel(T2, 10, ineqs=[((1,), -20), ((-1,), -20)]) == []


def test_mixed_quadratic_and_cone():
    # theta-like 2n^2 plus capped cone var with bilinear coupling 2nk;
    # without the cap the sublevel set is infinite (n -> -inf, k ~ |n|)
    T = QuadExpr(2, [[2, 1], [1, 0]], [0, 2], 0)
    ineqs = [((0, 1), 0), ((0, -1), 7)]
    limit = 16
    pts = sorted(enumerate_sublevel(T, limit, ineqs=ineqs))
    assert pts == brute(T, limit, ineqs, 12)
    # and the uncapped variant must refuse rather than silently truncate
    with pytest.raises(NotMultipliable):
        enumerate_sublevel(T, limit, ineqs=[((0, 1), 0)])


def test_random_pd_forms_match_bruteforce():
    rng = random.Random(101)
    for _ in range(40):
        n = rng.choice([1, 2, 3])
        # build PD Q = R^T R + I
        r = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        q = [[sum(r[k][i] * r[k][j] for k in range(n)) + (2 if i == j else 0) for j in range(n)] for i in range(n)]
        lin = [rng.randint(-4, 4) for _ in range(n)]
        const = rng.randint(-5, 5)
        T = QuadExpr(n, q, lin, const)
        limit = rng.randint(0, 25)
        pts = sorted(enumerate_sublevel(T, limit))
        assert pts == brute(T, limit, [], 9)


def test_random_with_cones_match_bruteforce():
    rng = random.Random(55)
    for _ in range(30):
        n = rng.choice([2, 3])
        q = [[0] * n for _ in range(n)]
        lin = [2] * n
        # couple a quadratic variable with cone variables
        q[0][0] = 2
        lin[0] = rng.randint(-3, 3)
        ineqs = [(tuple(1 if j == i else 0 for j in range(n)), 0) for i in range(1, n)]
        T = QuadExpr(n, q, lin, 0)
        limit = rng.randint(4, 18)
        pts = sorted(enumerate_sublevel(T, limit, ineqs=ineqs))
        assert pts == brute(T, limit, ineqs, 12)


def test_substitute_affine():
    # a bound form (cross terms, a half-step diagonal: y1^2 + 3 y1 is twice
    # an integer) as a QuadExpr, and its substitution y = y0 + K z for a
    # kernel K of two vectors; the cone row y_c >= 0 becomes (the kernel
    # vectors' c-th entries, y0[c]) in z
    form = _form([(0, 0, 2), (0, 1, 6), (1, 1, 1), (1, 3, 3), (0, 3, 2), (1, 2, -2), (3, 3, 6)])
    T = _quad(form, 3)
    y0, kernel = (2, -1, 0), [(1, 1, 0), (0, 2, -1)]
    S = _quad(_subst(form, y0, kernel), 2)
    kt = list(zip(*kernel))
    rng = random.Random(2)
    for _ in range(20):
        y = tuple(rng.randint(-10, 10) for _ in range(3))
        assert T.value(y) == _forms_at(form, [y], 3)[0]
        z = (rng.randint(-10, 10), rng.randint(-10, 10))
        y = tuple(p + sum(map(mul, z, k)) for p, k in zip(y0, kt))
        assert S.value(z) == T.value(y)
        for c in range(3):
            assert sum(map(mul, kt[c], z)) + y0[c] == y[c]


def _random_integer_valued_form(rng, n):
    """A merged form in n variables that is twice an integer quadratic: even
    cross terms and constant, and each y_a^2 + y_a pair of one parity, odd
    for about half of them (a half-step diagonal with an odd linear term)."""
    terms = [(n, n, 2 * rng.randint(-5, 5))]
    for a in range(n):
        x = rng.randint(-4, 4)
        terms += [(a, a, x), (a, n, rng.randint(-3, 3) * 2 + x % 2)]
        terms += [(a, b, 2 * rng.randint(-3, 3)) for b in range(a + 1, n)]
    return _form(terms)


def test_quad_is_the_form_itself():
    # the walk takes twice the bound, which is the form as stored: _quad's
    # value is the form's at every point, in ints
    rng = random.Random(38)
    odd = 0
    for _ in range(60):
        n = rng.choice([1, 2, 3, 4])
        form = _random_integer_valued_form(rng, n)
        T = _quad(form, n)
        assert all(type(x) is int for x in (*itertools.chain(*T.quad), *T.lin, T.const))
        ys = [tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(12)]
        assert [T.value(y) for y in ys] == _forms_at(form, ys, n)
        odd += any(b == n and x % 2 for _a, b, x in form)
    assert odd >= 30
    # an odd diagonal: y(y + 1)/2 - 2 <= 2, walked as twice that under 2 * 2
    assert sorted(enumerate_sublevel(_quad(_form([(0, 0, 1), (0, 1, 1), (1, 1, -4)]), 1), 4)) == [
        (-3,), (-2,), (-1,), (0,), (1,), (2,)
    ]


@pytest.mark.parametrize(
    "form",
    [
        [(0, 0, 1)],  # y0^2 / 2
        [(0, 0, 2), (0, 2, 1)],  # y0 / 2
        [(0, 1, 1)],  # y0 y1 / 2
        [(2, 2, 1)],  # 1 / 2
        [(0, 0, Fraction(2, 3))],
    ],
)
def test_quad_refuses_a_form_that_is_not_integer_valued(form):
    with pytest.raises(ValueError):
        _quad(_form(form), 2)


def test_constant_form_above_the_limit_is_empty():
    # T constant: no bound on any variable, and no positive definite block,
    # so only the constant decides -- above the limit the set is certified
    # empty, at or below it the set is every integer point and is refused
    assert enumerate_sublevel(QuadExpr(1, [[0]], [0], 10), 5) == []
    with pytest.raises(NotMultipliable):
        enumerate_sublevel(QuadExpr(1, [[0]], [0], 3), 5)
    # the same with one cone row on two variables, which bounds neither
    cone = [((1, 1), 0)]
    assert enumerate_sublevel(QuadExpr(2, [[0, 0], [0, 0]], [0, 0], 10), 5, cone) == []
    with pytest.raises(NotMultipliable):
        enumerate_sublevel(QuadExpr(2, [[0, 0], [0, 0]], [0, 0], 3), 5, cone)


def test_pd_fallback_empty_region():
    # PD cross-coupled block with a constant already above the limit:
    # the region is empty and must be reported as such, not refused
    T = QuadExpr(2, [[4, -3], [-3, 4]], [0, 0], 50)
    assert enumerate_sublevel(T, 10) == []


# --- the pruned walk --------------------------------------------------------

E026_Q = [
    [8, 0, 4, 0, -8],
    [0, 8, 0, 4, 4],
    [4, 0, 4, 0, -4],
    [0, 4, 0, 2, 2],
    [-8, 4, -4, 2, 10],
]


def _unit_rows(n, idx):
    return [(tuple(1 if j == i else 0 for j in range(n)), 0) for i in idx]


def _brute_ranges(T, limit, ineqs, ranges):
    return [
        y
        for y in itertools.product(*ranges)
        if T.value(y) <= limit
        and all(sum(c * v for c, v in zip(a, y)) + b >= 0 for a, b in ineqs)
    ]


def _match_brute(T, limit, ineqs, box, **kw):
    pts = sorted(enumerate_sublevel(T, limit, ineqs=ineqs, **kw))
    assert all(abs(v) < box for p in pts for v in p)  # brute's box has slack
    assert pts == brute(T, limit, ineqs, box)
    return pts


def test_e026_shaped_forms_match_bruteforce():
    # singular PSD valuation form of the Yang-Baxter identity, four cone
    # variables and the two coupling rows, at random cells.  The rows keep
    # y1 + y3 + y4 <= 2 and y0 <= y3 + y4 + 1, so brute force can walk a
    # small box that still holds every solution
    rng = random.Random(2026)
    ranges = [range(0, 5), range(0, 4), range(-9, 10), range(0, 4), range(0, 4)]
    sizes = []
    for _ in range(12):
        lin = [rng.randint(-12, 12) for _ in range(5)]
        T = QuadExpr(5, E026_Q, lin, rng.randint(0, 10))
        limit = rng.randint(4, 14)
        ineqs = _unit_rows(5, (0, 1, 3, 4)) + [
            ((-1, 0, 0, 1, 1), rng.randint(-1, 1)),
            ((0, -1, 0, -1, -1), rng.randint(1, 2)),
        ]
        pts = sorted(enumerate_sublevel(T, limit, ineqs=ineqs))
        assert all(abs(p[2]) < 9 for p in pts)
        assert pts == _brute_ranges(T, limit, ineqs, ranges)
        sizes.append(len(pts))
    assert sum(1 for k in sizes if k) >= 8


def test_random_singular_psd_forms_with_cones_match_bruteforce():
    # Q = 2 R^T R with R of rank n - 1; each variable boxed by two rows (a
    # cone when its lower end is 0) plus one coupling row of the E026 shape
    rng = random.Random(77)
    for _ in range(20):
        n = rng.choice([4, 5])
        r = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n - 1)]
        q = [[2 * sum(row[i] * row[j] for row in r) for j in range(n)] for i in range(n)]
        lin = [rng.randint(-6, 6) for _ in range(n)]
        T = QuadExpr(n, q, lin, rng.randint(-2, 2))
        ineqs = []
        for i in range(n):
            e = [0] * n
            e[i] = 1
            ineqs.append((tuple(e), rng.randint(0, 2)))
            ineqs.append((tuple(-x for x in e), rng.randint(1, 2)))
        a, b, c = rng.sample(range(n), 3)
        row = [0] * n
        row[a], row[b], row[c] = -1, 1, 1
        ineqs.append((tuple(row), rng.randint(-1, 1)))
        limit = rng.randint(0, 12)
        pts = sorted(enumerate_sublevel(T, limit, ineqs=ineqs))
        assert pts == _brute_ranges(T, limit, ineqs, [range(-2, 3)] * n)


def test_negative_tail_minimum_is_summed_not_cut():
    # the remaining variables can pull the value down again: y2^2 - 10 y2 has
    # minimum -25, so y0 = +-5 (25 on its own, above the limit) is feasible
    T = QuadExpr(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 0, -10], 0)
    pts = _match_brute(T, 5, [], 11)
    assert (5, 0, 5) in pts and (-5, 0, 5) in pts
    # the same trap through a cross term: -2 y0 y1 is negative for y0, y1 > 0
    T2 = QuadExpr(2, [[2, -1], [-1, 1]], [0, -6], 0)
    pts = _match_brute(T2, 3, [], 15)
    assert (6, 9) in pts
    rng = random.Random(9)
    for _ in range(15):
        n = rng.choice([2, 3])
        q = [[3 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                q[i][j] = q[j][i] = rng.randint(-1, 1)
        lin = [rng.randint(-10, 10) for _ in range(n)]
        lin[-1] = -abs(lin[-1]) - 6  # the last variable's minimum is negative
        T = QuadExpr(n, q, lin, rng.randint(-3, 3))
        # the certified box can exceed a million points here; the walk
        # must still visit only the prefixes that can reach the limit
        _match_brute(T, rng.randint(-8, 6), [], 8, max_points=2_000_000)


def test_fraction_inequality_rows():
    # rational rows, each scaled to integers by its own denominator
    ineqs = [
        ((Fraction(1, 2), Fraction(-1, 3)), Fraction(5, 6)),
        ((Fraction(-2, 3), Fraction(1, 4)), Fraction(7, 5)),
    ]
    T, limit, rows = _integral(2, [[1, 0], [0, 1]], [0, 0], 0, 20, ineqs)
    assert rows == [((3, -2), 5), ((-40, 15), 84)] and limit == 20
    _match_brute(T, limit, rows, 7)
    # rational entries in the form and the limit as well
    T2, limit2, rows = _integral(
        2, [[Fraction(3, 2), Fraction(1, 3)], [Fraction(1, 3), 1]], [Fraction(-1, 2), 1], Fraction(1, 7),
        Fraction(40, 3), ineqs,
    )
    assert T2.quad == ((63, 14), (14, 42)) and limit2 == 560
    _match_brute(T2, limit2, rows, 8)


def test_the_walk_takes_only_ints():
    # a rational entry in T, the limit or a row is refused, never floored
    half = Fraction(1, 2)
    with pytest.raises(TypeError):
        QuadExpr(1, [[half]], [0], 0)
    with pytest.raises(TypeError):
        QuadExpr(1, [[1]], [0], half)
    T = QuadExpr(1, [[1]], [0], 0)
    with pytest.raises(TypeError):
        enumerate_sublevel(T, half)
    with pytest.raises(TypeError):
        enumerate_sublevel(T, 4, [((half,), 1)])
    with pytest.raises(TypeError):
        enumerate_sublevel(T, 4, [((1,), half)])
    assert sorted(enumerate_sublevel(T, 4, [((1,), 1)])) == [(-1,), (0,), (1,), (2,)]


def test_linear_and_concave_innermost_variable():
    # q == 0 innermost: 2 y0^2 + 2 y0 y1 + 3 y1 on the cone 0 <= y1 <= 6
    T = QuadExpr(2, [[2, 1], [1, 0]], [0, 3], 0)
    ineqs = [((0, 1), 0), ((0, -1), 6)]
    _match_brute(T, 9, ineqs, 10)
    # q == 0 with a negative coefficient once the prefix is fixed
    T2 = QuadExpr(2, [[3, -2], [-2, 0]], [0, 1], 0)
    _match_brute(T2, 8, [((0, 1), 0), ((0, -1), 5)], 9)
    # q < 0 innermost: the last variable walks its box
    T3 = QuadExpr(2, [[3, 1], [1, -1]], [0, 1], 0)
    ineqs3 = [((0, 1), 3), ((0, -1), 3)]
    pts = _match_brute(T3, 4, ineqs3, 8)
    assert (0, 3) in pts and (0, -3) in pts


def test_enumeration_limit_is_a_refusal():
    T = QuadExpr(2, [[1, 0], [0, 1]], [0, 0], 0)
    with pytest.raises(EnumerationLimit) as exc:
        enumerate_sublevel(T, 100, max_points=10)
    assert isinstance(exc.value, NotMultipliable)
    assert "certified box too large" in str(exc.value)
    assert len(enumerate_sublevel(T, 100, max_points=21 * 21)) == 317


def test_runaway_propagation_stops():
    # T = 4 y0^2 - 2 y1 + 3 <= 1 with 3 y0 - 4 y1 - 1 >= 0, 4 y0 + 3 y1 - 3 >= 0
    # is empty, but the passes only push two lower bounds up (y1 >= 2 y0^2 + 1,
    # y0 >= (4 y1 + 1) / 3), doubling their digits each round
    import time

    T = QuadExpr(2, [[4, 0], [0, 0]], [0, -2], 3)
    rows = [((3, -4), -1), ((4, 3), -3)]
    t0 = time.perf_counter()
    try:
        assert enumerate_sublevel(T, 1, ineqs=rows) == []
    except NotMultipliable:
        pass
    assert time.perf_counter() - t0 < 1.0
    assert brute(T, 1, rows, 30) == []


def _box_rows(n, r):
    """-r <= y_i <= r for every variable, so brute force walks exactly the box."""
    return [(tuple(s * (j == i) for j in range(n)), r) for i in range(n) for s in (1, -1)]


def test_rows_hold_without_a_leaf_check():
    # each multi-variable row is cut exactly at its last nonzero variable,
    # each one-variable row is exact in the box and a constant row is settled
    # up front, so every emitted point meets every row
    T = QuadExpr(3, [[2, 1, 0], [1, 2, 1], [0, 1, 2]], [1, -2, 0], 0)
    # a row whose last nonzero coefficient sits at an inner variable
    inner = [((1, -2, 0), 1), ((0, 1, 0), 1)]
    pts = _brute_ranges(T, 12, inner + _box_rows(3, 4), [range(-4, 5)] * 3)
    assert pts and sorted(enumerate_sublevel(T, 12, inner + _box_rows(3, 4))) == pts
    # a row with a negative coefficient on the last variable
    neg = [((1, 1, -1), 0), ((-2, 0, -3), 2)]
    pts = _brute_ranges(T, 12, neg + _box_rows(3, 4), [range(-4, 5)] * 3)
    assert pts and sorted(enumerate_sublevel(T, 12, neg + _box_rows(3, 4))) == pts
    # constant rows: one that fails everywhere empties the set, one that holds
    # everywhere changes nothing
    assert enumerate_sublevel(T, 12, [((0, 0, 0), -1)] + neg) == []
    assert sorted(enumerate_sublevel(T, 12, [((0, 0, 0), 0)] + neg + _box_rows(3, 4))) == pts
    assert enumerate_sublevel(QuadExpr(0, [], [], 0), 1, [((), -1)]) == []


def test_e026_window_rows_match_bruteforce():
    # the window pass's rows: cones, then lo <= base + G y <= hi for each of
    # the four coordinates (8 rows) with G's columns Yang-Baxter directions
    # (t, z + t, z - t); most rows end at an inner variable, several with a
    # negative coefficient there
    cols = [(1, 0, 0, 0), (1, 0, 1, 0), (-1, 0, 1, 0), (0, 1, 0, 0), (0, 1, 1, 1)]
    G = [tuple(c[k] for c in cols) for k in range(4)]
    rng = random.Random(26)
    hits = 0
    for _ in range(10):
        lin = [rng.randint(-8, 8) for _ in range(5)]
        T = QuadExpr(5, E026_Q, lin, rng.randint(0, 4))
        limit = rng.randint(10, 24)
        base = [rng.randint(-1, 1) for _ in range(4)]
        rows = _unit_rows(5, (1, 2, 4))
        for g, b in zip(G, base):
            lo = rng.randint(-2, 0)
            rows += [(g, b - lo), (tuple(-x for x in g), lo + rng.randint(2, 4) - b)]
        assert len(rows) == 3 + 8
        pts = sorted(enumerate_sublevel(T, limit, rows + _box_rows(5, 2)))
        assert pts == _brute_ranges(T, limit, rows + _box_rows(5, 2), [range(-2, 3)] * 5)
        hits += bool(pts)
    assert hits >= 8


# --- the walk's values ---------------------------------------------------------


def _assert_exact_values(T, pts):
    """Each returned T(y) is the int QuadExpr.value(y)."""
    assert len(pts.values) == len(pts)
    for y, t in zip(pts, pts.values):
        assert type(t) is int and t == T.value(y), (y, t)


def test_the_walk_returns_each_points_value():
    # the leaf test's sum: rational forms scaled to integers, with cones and
    # rows, a constant form (n = 0) and the empty sets
    rng = random.Random(34)
    for _ in range(30):
        n = rng.choice([1, 2, 3])
        d = rng.choice([2, 3, 6])
        r = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        q = [[Fraction(sum(r[k][i] * r[k][j] for k in range(n)) + 2 * (i == j), d) for j in range(n)]
             for i in range(n)]
        lin = [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 4])) for _ in range(n)]
        rows = [((1,) + (0,) * (n - 1), rng.randint(0, 3))] if rng.random() < 0.5 else []
        T, limit, rows = _integral(n, q, lin, Fraction(rng.randint(-6, 6), 3), Fraction(rng.randint(0, 30), 2), rows)
        pts = enumerate_sublevel(T, limit, rows)
        _assert_exact_values(T, pts)
    for const in (3, Fraction(3, 2)):
        T, limit, _rows = _integral(0, [], [], const, 3)
        pts = enumerate_sublevel(T, limit)
        assert pts == [()] and pts.values == [T.const]
        _assert_exact_values(T, pts)
        assert not enumerate_sublevel(*_integral(0, [], [], const, 1)[:2]).values
    T = QuadExpr(1, [[2]], [0], 100)
    assert not enumerate_sublevel(T, 5).values
    assert not enumerate_sublevel(T, 200, [((0,), -1)]).values


def test_the_walk_returns_each_points_value_on_e026(monkeypatch):
    # E026's window forms are walked in their reordered variables, and with
    # the window enumeration refused, each cell's fibre in the kernel's
    import qtheta.series as series_mod

    calls = []
    real = series_mod.enumerate_sublevel

    def checking(T, *args, **kwargs):
        pts = real(T, *args, **kwargs)
        _assert_exact_values(T, pts)
        calls.append((T.n, _walk_order(T.quad) is not None, len(pts)))
        return pts

    monkeypatch.setattr(series_mod, "enumerate_sublevel", checking)
    spec = identity_specs("E026", CycloField(1), window=1)[0]
    for term in spec.terms:
        _term_series(term)[1].coeffs(spec.cells(), spec.order)
    assert [c[:2] for c in calls] == [(9, True)] * 2 and all(c[2] for c in calls)
    calls.clear()
    monkeypatch.setattr(series_mod, "MAX_POINTS", 1)
    for term in spec.terms:
        _term_series(term)[1].coeffs(spec.cells(), spec.order)
    assert len(calls) == 2 * len(spec.cells()) and {n for n, *_ in calls} == {5}
    assert sum(c[2] for c in calls) > 0


def test_the_walk_leaves_no_cycle_holding_its_points():
    # the recursive walk's closure refers to itself; the cycle is broken on
    # return, so the points go with the last reference to them rather than at
    # the next cyclic collection
    import gc

    T = QuadExpr(2, [[1, 0], [0, 1]], [0, 0], 0)
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            assert len(enumerate_sublevel(T, 50)) == 161
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- the walk's cell positions -----------------------------------------------


def _strides(lo, hi):
    """A cell h's position in the box [lo, hi] is strides . (h - lo)."""
    return [math.prod(u - l + 1 for l, u in zip(lo[r + 1 :], hi[r + 1 :])) for r in range(len(lo))]


def _assert_cell_positions(pts, G, base, lo, hi):
    """Each returned position is that of the point's cell base + G y."""
    stride = _strides(lo, hi)
    assert len(pts.positions) == len(pts)
    for y, p in zip(pts, pts.positions):
        h = [b + sum(map(mul, g, y)) for g, b in zip(G, base)]
        assert p == sum(s * (x - l) for s, x, l in zip(stride, h, lo)), (y, p)


def test_the_walk_returns_each_points_cell_position():
    # random forms and rows, half of them walked in a reordered variable
    # order, under random integer maps G: the position the walk carries is
    # that of base + G y in a box, as the torus series count it
    rng = random.Random(35)
    reordered = 0
    for _ in range(40):
        n = rng.choice([3, 4, 5])
        if rng.random() < 0.5:
            q, pos = _interleaved_form(rng, n)
        else:
            r = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
            q = [[2 * sum(row[i] * row[j] for row in r) + 2 * (i == j) for j in range(n)] for i in range(n)]
            pos = range(n)
        T = QuadExpr(n, q, [rng.randint(-4, 4) for _ in range(n)], rng.randint(-2, 2))
        rows = []
        for i in range(n):  # cones on the zero-diagonal variables, a box on all
            e = tuple(int(j == i) for j in range(n))
            rows += [(e, 0 if i not in pos else rng.randint(1, 3)), (tuple(-x for x in e), rng.randint(1, 3))]
        k = rng.choice([1, 2, 3])
        G = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
        base = [rng.randint(-3, 3) for _ in range(k)]
        lo = [rng.randint(-6, 0) for _ in range(k)]
        hi = [x + rng.randint(0, 8) for x in lo]
        stride = _strides(lo, hi)
        w = [sum(s * g[j] for s, g in zip(stride, G)) for j in range(n)]
        w0 = sum(s * (b - x) for s, b, x in zip(stride, base, lo))
        limit = rng.randint(0, 12)
        pts = enumerate_sublevel(T, limit, rows, position=(w, w0))
        plain = enumerate_sublevel(T, limit, rows)
        assert pts == plain and pts.values == plain.values and plain.positions == ()
        _assert_cell_positions(pts, G, base, lo, hi)
        reordered += bool(pts) and _walk_order(T.quad) is not None
    assert reordered >= 8


def test_empty_results_and_early_exits_have_no_positions():
    at = ((1, 3), 5)
    T = QuadExpr(2, [[1, 0], [0, 1]], [0, 0], 0)
    # the walk runs and finds nothing: the box is {(1, 1)}, the row's cut at
    # y1 asks for y1 >= 2
    row = [((1, 1), -3)]
    assert enumerate_sublevel(T, 4, row).positions == ()
    empty = [
        enumerate_sublevel(T, 4, row, position=at),
        enumerate_sublevel(T, 4, [((0, 0), -1)], position=at),  # a constant row that fails
        enumerate_sublevel(T, -1, position=at),  # certified empty by propagation
        enumerate_sublevel(QuadExpr(0, [], [], 3), 1, position=((), 7)),
    ]
    for pts in empty:
        assert pts == [] and pts.positions == () and not pts.values
    pts = enumerate_sublevel(QuadExpr(0, [], [], 3), 3, position=((), 7))
    assert pts == [()] and pts.positions == [7]
    pts = enumerate_sublevel(T, 1, position=at)
    assert sorted(zip(pts, pts.positions)) == [((-1, 0), 4), ((0, -1), 2), ((0, 0), 5), ((0, 1), 8), ((1, 0), 6)]


def test_e026_window_walk_returns_each_points_cell_position(monkeypatch):
    # E026's window walks run in their reordered variables; each point's
    # position is that of its cell base + G y in the window's box
    import qtheta.series as series_mod

    seen = []
    real = series_mod.enumerate_sublevel

    def recording(*args, **kwargs):
        pts = real(*args, **kwargs)
        seen.append(pts)
        return pts

    monkeypatch.setattr(series_mod, "enumerate_sublevel", recording)
    spec = identity_specs("E026", CycloField(1), window=1)[0]
    cells = spec.cells()
    lo, hi = [min(c) for c in zip(*cells)], [max(c) for c in zip(*cells)]
    for term in spec.terms:
        ser = _term_series(term)[1]
        lay = ser._layout()
        (combo,) = itertools.product(*lay.items)
        ser.coeffs(cells, spec.order)
        pts, (_chosen, base, _term, form, _low) = seen[-1], ser._combo_plan(combo)
        assert len(pts) > 100 and _walk_order(_quad(form, len(pts[0])).quad)
        _assert_cell_positions(pts, lay.mtx, base, lo, hi)


def test_sparse_cells_read_the_same_coefficients_as_their_window():
    # cells that do not fill their bounding box are looked up by position in
    # a dict, the window's own cells in a list; points that land on a cell
    # outside the set are dropped
    spec = identity_specs("E026", CycloField(1), window=1)[0]
    cells = spec.cells()
    sparse = [h for h in cells if sum(h) % 2 == 0]
    assert 0 < len(sparse) < len(cells)
    for term in spec.terms:
        full = _term_series(term)[1].coeffs(cells, spec.order)
        part = _term_series(term)[1].coeffs(sparse, spec.order)
        assert part == {h: full[h] for h in sparse}
        assert any(part.values())


# --- the last level and the separable bound -----------------------------------


def _walk_calls(T, limit, rows):
    """The points and the number of the walk's level calls (its ``rec`` and
    ``leaf`` frames, counted by a profile hook)."""
    calls = [0]

    def hook(frame, event, _arg):
        if event == "call" and frame.f_code.co_name in ("rec", "leaf"):
            calls[0] += 1

    sys.setprofile(hook)
    try:
        pts = enumerate_sublevel(T, limit, rows)
    finally:
        sys.setprofile(None)
    return sorted(pts), calls[0]


def test_last_level_matches_bruteforce():
    # n = 1: q > 0, q = 0 on a cone and q < 0 in a box, where only the exact
    # test T(y) <= limit keeps the points out that the box lets through
    for q, l, c, rows in [
        (3, -7, 2, []),
        (0, 3, -4, [((1,), 0)]),
        (0, -2, 1, [((1,), 5), ((-1,), 0)]),
        (-1, 4, 0, [((1,), 6), ((-1,), 6)]),
        (Fraction(1, 2), Fraction(1, 3), 0, []),
    ]:
        for limit in (-3, 0, 5):
            T, lim, ints = _integral(1, [[q]], [l], c, limit, rows)
            pts = sorted(enumerate_sublevel(T, lim, ints))
            assert pts == brute(T, lim, ints, 12)
    # no positive diagonal entry: the walk keeps the given order and its last
    # variable has q = 0 or q < 0; the rows end at the last variable
    rng = random.Random(3535)
    concave = 0
    for _ in range(30):
        n = rng.choice([2, 3])
        q = [[0] * n for _ in range(n)]
        for i in range(n):
            q[i][i] = rng.choice([0, -1, -2])
            for j in range(i):
                q[i][j] = q[j][i] = rng.randint(-1, 1)
        T = QuadExpr(n, q, [rng.randint(-3, 3) for _ in range(n)], rng.randint(-2, 2))
        assert _walk_order(T.quad) is None
        rows = _box_rows(n, 3) + [(tuple(rng.randint(-1, 1) for _ in range(n - 1)) + (rng.choice([1, -1]),), 2)]
        limit = rng.randint(-4, 4)
        pts = sorted(enumerate_sublevel(T, limit, rows))
        assert pts == _brute_ranges(T, limit, rows, [range(-3, 4)] * n)
        concave += q[-1][-1] < 0 and len(pts) < len(_brute_ranges(T, 10**6, rows, [range(-3, 4)] * n))
    assert concave >= 5


def test_separable_bound_prunes_where_the_next_level_has_no_range():
    # y1 and y2 have Q_ii < 0, so level 1 has no completion of squares and
    # level 2 has one: the separable bound prunes level 0's children and is
    # skipped at level 1's (the walk makes 31 calls with the bound nowhere
    # and 21 with it at level 1 in place of level 0)
    q = [[0, -2, -2, 0], [-2, -1, 2, -2], [-2, 2, -1, 0], [0, -2, 0, 4]]
    T = QuadExpr(4, q, [5, 4, 1, -4], 1)
    rows = [((1, 0, 0, 0), 2), ((-1, 0, 0, 0), 4), ((0, 1, 0, 0), 0), ((0, -1, 0, 0), 0),
            ((0, 0, 1, 0), 3), ((0, 0, -1, 0), 0), ((0, 0, 0, 1), 3), ((0, 0, 0, -1), 1)]
    assert _walk_order(T.quad) is None
    pts, calls = _walk_calls(T, -3, rows)
    assert pts == _brute_ranges(T, -3, rows, [range(-2, 5), range(0, 1), range(-3, 1), range(-3, 2)])
    assert len(pts) == 29 and calls <= 19


# --- the walk order -----------------------------------------------------------


def test_walk_order_puts_e026_theta_parameters_last():
    # the window form of E026's kernel term: only the theta parameters y0,
    # y3 and y6 have a positive diagonal, and together they are positive
    # definite, so the walk takes the six cone variables first
    spec = identity_specs("E026", CycloField(1), window=1)[0]
    forms = []
    for term in spec.terms:
        s = _term_series(term)[1]
        lay = s._layout()
        if lay.solver is not None and lay.solver.kernel:
            forms += [_quad(s._combo_plan(c)[3], 9) for c in itertools.product(*lay.items)]
    assert forms
    for T in forms:
        assert T.n == 9 and [i for i in range(9) if T.quad[i][i] > 0] == [0, 3, 6]
        assert _walk_order(T.quad) == (1, 2, 4, 5, 7, 8, 0, 3, 6)
    # a positive definite form keeps its order, as does one whose block is
    # already last; a positive diagonal entry that would make the block
    # singular stays in front
    assert _walk_order(((2, 1), (1, 2))) is None
    assert _walk_order(((0, 1), (1, 2))) is None
    assert _walk_order(((1, 1, 0), (1, 1, 0), (0, 0, 0))) == (1, 2, 0)


def _interleaved_form(rng, n):
    """A singular form whose positive diagonal entries are interleaved with
    zero-diagonal cone variables, like E026's: the positive ones carry 2 R^T R
    with R of deficient rank (so greedy growth may drop one), the cone
    variables only cross terms."""
    pos = sorted(rng.sample(range(n), rng.choice([1, 2, n // 2])))
    k = len(pos)
    r = [[rng.randint(-1, 1) for _ in range(k)] for _ in range(max(k - 1, 1))]
    for j in range(k):
        r[0][j] = r[0][j] or 1  # every positive variable has a nonzero column
    q = [[0] * n for _ in range(n)]
    for a, i in enumerate(pos):
        for b, j in enumerate(pos):
            q[i][j] = 2 * sum(row[a] * row[b] for row in r)
    for i in range(n):
        for j in range(i):
            if i not in pos or j not in pos:
                q[i][j] = q[j][i] = rng.randint(-1, 1)
    return q, pos


def test_interleaved_singular_forms_match_bruteforce():
    # the walk reorders these forms; each point must come back in the
    # caller's variable order, under the caller's rows
    rng = random.Random(1313)
    orders = set()
    for _ in range(40):
        n = rng.choice([3, 4, 5])
        q, pos = _interleaved_form(rng, n)
        lin = [rng.randint(-4, 4) for _ in range(n)]
        T = QuadExpr(n, q, lin, rng.randint(-2, 2))
        rows = []
        for i in range(n):  # cones on the zero-diagonal variables, a box on all
            e = tuple(int(j == i) for j in range(n))
            rows.append((e, 0 if i not in pos else rng.randint(1, 2)))
            rows.append((tuple(-x for x in e), rng.randint(1, 2)))
        a, b, c = rng.sample(range(n), 3)
        row = [0] * n
        row[a], row[b], row[c] = -1, 1, rng.choice([1, 2])
        rows.append((tuple(row), rng.randint(-1, 1)))
        limit = rng.randint(0, 10)
        pts = sorted(enumerate_sublevel(T, limit, rows))
        assert pts == _brute_ranges(T, limit, rows, [range(-2, 3)] * n)
        orders.add(_walk_order(T.quad))
    assert len(orders) >= 6
    # some orders are not involutions, so mapping back by the order itself fails
    assert any(o is not None and any(o[o[i]] != i for i in range(len(o))) for o in orders)


def test_three_cycle_walk_order_matches_bruteforce():
    # diagonal (+, 0, 0): the walk order (1, 2, 0) is a 3-cycle, with cross
    # terms and rows that tell every variable apart
    T = QuadExpr(3, [[2, 1, -1], [1, 0, 1], [-1, 1, 0]], [1, 3, 2], 0)
    assert _walk_order(T.quad) == (1, 2, 0)
    rows = _unit_rows(3, (1, 2)) + [((0, -1, 0), 3), ((0, 0, -1), 2), ((1, -1, 2), 1)]
    pts = sorted(enumerate_sublevel(T, 9, rows))
    assert len(pts) >= 5 and any(p[1] != p[2] for p in pts)
    assert pts == _brute_ranges(T, 9, rows, [range(-9, 10), range(0, 4), range(0, 3)])


def test_walk_order_keeps_a_longer_positive_definite_suffix():
    # the greedy block is {0} (neither {0, 1} nor {0, 2} is positive
    # definite), but the given order already ends in the block {1, 2}
    T = QuadExpr(3, [[1, 1, 2], [1, 1, 0], [2, 0, 1]], [0, 0, 0], 0)
    assert _walk_order(T.quad) is None
    rows = _box_rows(3, 6)
    pts = sorted(enumerate_sublevel(T, 4, rows))
    assert len(pts) == 643
    assert pts == _brute_ranges(T, 4, rows, [range(-6, 7)] * 3)


# --- the per-coordinate (Fincke-Pohst) certification ------------------------


def _inverse(q):
    """Exact inverse of a nonsingular rational matrix (Gauss-Jordan)."""
    k = len(q)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(k)] for i, row in enumerate(q)]
    for c in range(k):
        p = next(r for r in range(c, k) if m[r][c])
        m[c], m[p] = m[p], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(k):
            if r != c and m[r][c]:
                m[r] = [x - m[r][c] * y for x, y in zip(m[r], m[c])]
    return [row[k:] for row in m]


def _ellipse_ranges(q, lin, const, limit):
    """Integer ranges holding every real y with y^T q y + lin.y + const <=
    limit, for positive definite q: y_i lies within sqrt(R (q^-1)_ii) of the
    centre -q^-1 lin / 2, R = limit - const + lin^T q^-1 lin / 4."""
    qi = _inverse(q)
    k = len(q)
    w = [sum(qi[i][j] * lin[j] for j in range(k)) for i in range(k)]
    r = limit - const + sum(a * b for a, b in zip(lin, w)) / 4
    if r < 0:
        return None
    out = []
    for i in range(k):
        rad = math.isqrt(math.floor(r * qi[i][i])) + 1
        c = -w[i] / 2
        out.append(range(math.floor(c) - rad, math.ceil(c) + rad + 1))
    return out


def _pd_block(rng, k, skew):
    # U^T diag(d) U with U unit upper triangular: skewed for a large skew
    u = [[int(i == j) or (rng.randint(-skew, skew) if j > i else 0) for j in range(k)] for i in range(k)]
    d = [rng.randint(1, 3) for _ in range(k)]
    return [[sum(u[t][i] * d[t] * u[t][j] for t in range(k)) for j in range(k)] for i in range(k)]


def _coupled_boxes(T, limit, k, zranges):
    """Boxes holding every solution: for each value z of the bounded
    variables y_k.. (in zranges), the first k variables range over the exact
    real ellipse of the positive definite block Q[:k, :k] at z."""
    q = [row[:k] for row in T.quad[:k]]
    out = []
    for z in itertools.product(*zranges):
        lin = [T.lin[i] + 2 * sum(T.quad[i][k + j] * v for j, v in enumerate(z)) for i in range(k)]
        ranges = _ellipse_ranges(q, lin, T.value((0,) * k + z), limit)
        if ranges is not None:
            out.append((ranges, z))
    return out


def _random_coupled_case(rng, k):
    """T with a positive definite block on y_0..y_{k-1} (skewed for a large
    skew), rational entries scaled to integers, up to two variables bounded
    by rows and coupled to the block, and up to two rows on the block; with
    the brute-force boxes of ``_coupled_boxes``."""
    nz = rng.choice([0, 1, 2]) if k < 4 else rng.choice([0, 1])
    n = k + nz
    scale = Fraction(rng.randint(1, 4), rng.choice([1, 2, 3]))
    block = _pd_block(rng, k, rng.randint(0, {1: 6, 2: 4, 3: 2, 4: 1}[k]))
    q = [[0] * n for _ in range(n)]
    for i in range(k):
        for j in range(k):
            q[i][j] = block[i][j] * scale
    for z in range(k, n):
        q[z][z] = rng.choice([0, 0, 1])
        for i in range(k):
            q[i][z] = q[z][i] = Fraction(rng.randint(-8, 8), 2)
    lin = [Fraction(rng.randint(-9, 9), rng.choice([1, 2])) for _ in range(n)]
    const = Fraction(rng.randint(-6, 6), rng.choice([1, 3]))
    limit = Fraction(rng.randint(0, 24), rng.choice([1, 2]))
    zhi = [rng.randint(1, 3) for _ in range(nz)]
    rows = []
    for j, h in enumerate(zhi):
        e = tuple(int(t == k + j) for t in range(n))
        rows += [(e, 0), (tuple(-x for x in e), h)]
    for _ in range(rng.randint(0, 2)):
        a = [rng.randint(-2, 2) for _ in range(k)] + [0] * nz
        rows.append((tuple(a), Fraction(rng.randint(-1, 6), rng.choice([1, 2]))))
    T, limit, rows = _integral(n, q, lin, const, limit, rows)
    return T, limit, rows, _coupled_boxes(T, limit, k, [range(h + 1) for h in zhi])


def test_per_coordinate_bound_matches_bruteforce():
    # the fallback bounds each block; with coupled variables the block's
    # linear part is an interval.  Forms whose brute-force boxes exceed
    # 4,000 points are drawn again, to keep the test fast
    rng = random.Random(1985)
    nonempty = coupled = 0
    for case in range(60):
        k = 1 + case % 4
        while True:
            T, limit, rows, boxes = _random_coupled_case(rng, k)
            if sum(math.prod(map(len, r)) for r, _z in boxes) <= 4000:
                break
        expect = sorted(
            p
            for ranges, z in boxes
            for p in (y + z for y in itertools.product(*ranges))
            if T.value(p) <= limit and all(sum(map(mul, a, p)) + b >= 0 for a, b in rows)
        )
        pts = sorted(enumerate_sublevel(T, limit, rows))
        assert pts == expect, case
        nonempty += bool(pts)
        coupled += bool(pts) and T.n > k
    assert nonempty >= 30 and coupled >= 10


def test_fincke_pohst_bound_takes_no_slack():
    # the fallback bounds 4D y_i by the isqrt itself: this cross-coupled
    # form's certified box holds 55 points (60 with one unit of slack on
    # each side), and its 18 solutions match brute force
    T = QuadExpr(2, [[3, 6], [6, 14]], [-2, 1], 2)
    pts = sorted(enumerate_sublevel(T, 13, max_points=55))
    assert len(pts) == 18 and pts == brute(T, 13, [], 12)
    with pytest.raises(EnumerationLimit):
        enumerate_sublevel(T, 13, max_points=54)


def test_replayed_refusal_is_certified_tight():
    # a call of the theta-products benchmark (pair 18 at seed 7): the trace
    # bound ||y||_1^2 <= k tr(Q^-1) y^T Q y certified a box of 23,889,720,969
    # points and refused it; the form is positive definite (det 24) and
    # skewed, and its real minimum 7887/2 lies far above the limit 40
    q, lin, const = [[100, -176], [-176, 310]], [-1284, 2262], 8070
    T = QuadExpr(2, q, lin, const)
    assert _ellipse_ranges(q, lin, const, 40) is None
    assert enumerate_sublevel(T, 40, max_points=1) == []
    # just above the minimum the certified box is small and holds the set
    pts = sorted(enumerate_sublevel(T, 4000, max_points=56 * 32))
    assert len(pts) == 36
    assert pts == _brute_ranges(T, 4000, [], _ellipse_ranges(q, lin, const, 4000))


def test_the_certified_box_is_the_integer_hull_of_the_solutions():
    # the quadratic propagation solves each variable's range exactly, so for
    # one-variable forms, and separable two-variable forms with one-variable
    # rows, the certified box holds no point outside the solutions' bounding
    # box: a budget of the hull's size passes and one point less is refused
    half = Fraction(1, 2)
    cases = [
        _integral(1, [[a]], [l], c, limit)
        for a, l, c, limit in itertools.product((half, 1, 3), (-5, -2, 0, 1, 4, Fraction(5, 2)), (0, 2), (0, 3, 7, 11))
    ]
    box_rows = ([], [((0, 1), -1)], [((1, 0), 0), ((-1, 0), 2)])  # none, y1 >= 1, 0 <= y0 <= 2
    cases += [
        _integral(2, [[a0, 0], [0, a1]], [0, 0], c, limit, rows)
        for a0, a1, c, limit, rows in itertools.product((1, 2), (half, 3), (0, -1), (2, 9), box_rows)
    ]
    checked = 0
    for T, limit, rows in cases:
        pts = brute(T, limit, rows, 13)
        if not pts:
            continue
        assert all(abs(v) < 13 for p in pts for v in p)  # brute's box has slack
        hull = math.prod(max(col) - min(col) + 1 for col in zip(*pts))
        assert sorted(enumerate_sublevel(T, limit, rows, max_points=hull)) == pts
        with pytest.raises(EnumerationLimit):
            enumerate_sublevel(T, limit, rows, max_points=hull - 1)
        checked += 1
    assert checked > 150
