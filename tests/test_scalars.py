"""Base field arithmetic: cyclotomic rationals and truncated Laurent series."""

import ast
import inspect
import itertools
import operator
import random
import textwrap
from fractions import Fraction

import pytest

from qtheta import scalars
from qtheta.errors import DivisionByZero, NotInvertible, PrecisionShortfall
from qtheta.scalars import (
    INF,
    CycloField,
    ScalarSeries,
    UnitMonomial,
    cyclo_nth_root,
    cyclotomic_polynomial,
    monomial_from_json,
    monomial_to_json,
    series_from_json,
    series_to_json,
    unequal_cells,
)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


# The field's arithmetic runs on integer numerators and one denominator;
# Fractions enter and leave only through the input and output helpers
# (element, from_rational, coeffs, as_rational, _coerce, __hash__, JSON).
INTEGER_ONLY = {
    scalars: ("cyclotomic_polynomial", "_normalised", "unequal_cells"),
    scalars.CycloField: ("_reduce", "_mul"),
    scalars.CycloRational: ("__add__", "__mul__", "__neg__", "__pow__", "inverse"),
    scalars.ScalarSeries: ("_of", "__add__", "__neg__", "mul_to", "scale", "shift", "truncate",
                           "equal_to_order", "__eq__", "__hash__"),
    scalars.SeriesSum: ("add", "valuation", "series"),
}


def test_field_arithmetic_reads_no_fraction():
    # no Fraction name, and none of the Fraction-valued views of an element
    found = []
    for owner, names in INTEGER_ONLY.items():
        for name in names:
            tree = ast.parse(textwrap.dedent(inspect.getsource(getattr(owner, name))))
            for node in ast.walk(tree):
                if (isinstance(node, ast.Name) and node.id == "Fraction") or (
                    isinstance(node, ast.Attribute) and node.attr in ("Fraction", "coeffs", "as_rational")
                ):
                    found.append(f"{name}:{node.lineno}")
    assert found == []


def test_reprs_coercions_and_reflected_operators():
    f = CycloField(5)
    z = f.zeta()
    x = z * 2 + Fraction(1, 3) + z**3
    assert repr(f) == "CycloField(5)"
    assert repr(x) == "1/3 + 2*z + z^3" and repr(f.zero()) == "0" and repr(f.from_rational(-2)) == "-2"
    assert repr(UnitMonomial(f.one(), 1)) == "u" and repr(UnitMonomial(x, 0)) == repr(x)
    assert repr(UnitMonomial(-f.one(), -3)) == "-1*u^-3"
    s = ScalarSeries(f, {0: f.from_rational(Fraction(1, 3)), 1: f.one(), 3: z * 2}, 5)
    assert repr(s) == "1/3 + u + 2*z*u^3 + O(u^6)"
    assert repr(ScalarSeries.zero(f)) == "0" and repr(ScalarSeries.one(f, 0)) == "1 + O(u^1)"
    # reflected field operators
    assert 1 - z == -(z - 1) and 2 / z == (z / 2).inverse()
    with pytest.raises(ValueError, match="mixed cyclotomic orders"):
        z + CycloField(3).zeta()
    # a series meets a monomial, a rational or a field element as the series it is
    assert s + UnitMonomial(z, 2) == s + ScalarSeries(f, {2: z})
    assert s + 2 == s + ScalarSeries.monomial(f, 0, 2) and s * Fraction(1, 2) == s.scale(UnitMonomial(f.from_rational(Fraction(1, 2))))
    assert s - z == s + ScalarSeries(f, {0: -z}) and 2 + s == s + 2
    assert ScalarSeries.one(f) == 1 and ScalarSeries.one(f) != "1"
    for bad in ("1", 1.5, None):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(s, bad)
        with pytest.raises(TypeError):
            z * bad


def test_a_computed_infinite_trunc_is_exact():
    # INF - v and INF + k are new float objects, not INF itself: an exact
    # series that went through arithmetic is still exact
    f = CycloField(1)
    s = ScalarSeries(f, {0: f.one(), 1: f.one()})
    with pytest.raises(NotInvertible, match="infinite series"):
        s.invert()
    shifted = s.shift(1)
    assert series_to_json(shifted)["N"] is None and repr(shifted) == "u + u^2"


def test_cyclo_add_m2():
    f = CycloField(2)
    half = f.from_rational(Fraction(1, 2))
    assert half + half == f.one()


def test_cyclo_mul_m4_zeta_squared():
    f = CycloField(4)
    z = f.zeta()
    assert z * z == -f.one()


def test_cyclo_inv_m3():
    # (1+z)(-z) = -z - z^2 = 1 mod Phi_3
    f = CycloField(3)
    z = f.zeta()
    a = f.one() + z
    assert a.inverse() == -z
    assert a * a.inverse() == f.one()


def test_cyclo_inv_of_zero_raises():
    f = CycloField(4)
    with pytest.raises(DivisionByZero):
        f.zero().inverse()


def test_rational_elements_of_different_fields_compare_by_value():
    # each equals its int or Fraction, so equality stays transitive and a
    # set's size does not depend on the insertion order
    a, b = CycloField(5).from_rational(3), CycloField(7).from_rational(3)
    h, k = CycloField(3).from_rational(Fraction(1, 2)), CycloField(4).from_rational(Fraction(1, 2))
    assert a == 3 == b and a == b and hash(a) == hash(b)
    assert h == Fraction(1, 2) == k and h == k and hash(h) == hash(k)
    assert a != h and a != CycloField(7).from_rational(-3)
    for group in ([3, a, b], [Fraction(1, 2), h, k]):
        for order in itertools.permutations(group):
            assert len(set(order)) == 1 and len(dict.fromkeys(order)) == 1
    # an irrational element meets nothing outside its own field, even where
    # the fields are one (Q(zeta_5) = Q(zeta_10))
    z5, z10 = CycloField(5).zeta(), CycloField(10).zeta(2)
    assert z5 != z10 and z5 == CycloField(5).zeta(6)
    assert len({3, a, b, z5, z10}) == len({z10, z5, b, a, 3}) == 3


def test_cyclo_m1_matches_plain_rationals():
    f = CycloField(1)
    rng = random.Random(7)
    for _ in range(50):
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        b = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        fa, fb = f.from_rational(a), f.from_rational(b)
        assert (fa + fb).as_rational() == a + b
        assert (fa * fb).as_rational() == a * b
        if b != 0:
            assert (fa / fb).as_rational() == a / b


def test_cyclo_field_axioms_random():
    f = CycloField(12)
    rng = random.Random(3)

    def rand():
        return f.element([rng.randint(-3, 3) for _ in range(f.degree)])

    for _ in range(30):
        a, b, c = rand(), rand(), rand()
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        if not a.is_zero():
            assert a * a.inverse() == f.one()


def test_roots_of_unity():
    f = CycloField(12)
    for k in (1, 2, 3, 4, 6, 12):
        z = f.root_of_unity(k)
        assert z**k == f.one()
        assert all(z**j != f.one() for j in range(1, k))
    # odd order field still has -1
    f3 = CycloField(3)
    assert f3.root_of_unity(2) == -f3.one()
    z6 = f3.root_of_unity(6)
    assert z6**6 == f3.one() and z6**3 != f3.one()


def test_cyclo_sqrt():
    f = CycloField(4)
    assert cyclo_nth_root(f.from_rational(Fraction(9, 4)), 2) == f.from_rational(Fraction(3, 2))
    i = f.root_of_unity(4)
    assert cyclo_nth_root(-f.one(), 2) in (i, -i)
    assert cyclo_nth_root(f.from_rational(2), 2) is None


def test_nth_root_exact_for_large_integers():
    f = CycloField(1)
    # beyond float range: no OverflowError, exact answers either way
    assert cyclo_nth_root(f.from_rational(10**400), 4) == f.from_rational(10**100)
    assert cyclo_nth_root(f.from_rational(10**400), 3) is None
    assert cyclo_nth_root(f.from_rational(-(10**402)), 3) == f.from_rational(-(10**134))
    # an exact cube that float rounding misses
    cube = (10**20 + 1) ** 3
    root = UnitMonomial(f.from_rational(Fraction(cube, 8)), 6).nth_root(3)
    assert root == UnitMonomial(f.from_rational(Fraction(10**20 + 1, 2)), 2)
    assert cyclo_nth_root(f.from_rational(cube + 1), 3) is None


def test_nth_root_results_are_roots():
    # every returned root satisfies root**n == a; negative rationals with even
    # n use an n-th root of -1 from the torsion subgroup
    f8 = CycloField(8)
    r = cyclo_nth_root(f8.from_rational(-64), 6)
    assert r is not None and r**6 == f8.from_rational(-64)
    for m in (3, 4, 5, 8, 12):
        f = CycloField(m)
        z = f.root_of_unity(f.torsion_order)
        for j in range(f.torsion_order):
            a = z**j * Fraction(9, 4)
            for n in (2, 3, 4):
                root = cyclo_nth_root(a, n)
                if root is not None:
                    assert root**n == a
    # -zeta_5 is a primitive 10th root of unity: no square root in Q(zeta_5)
    f5 = CycloField(5)
    assert cyclo_nth_root(-f5.zeta(), 2) is None


# ---------------------------------------------------------------------------


def series(field, pairs, trunc=INF):
    return ScalarSeries(field, {e: field.from_rational(c) for e, c in pairs}, trunc)


def test_series_mul_polynomials():
    f = CycloField(1)
    a = series(f, [(0, 1), (2, 1)], trunc=10)
    b = series(f, [(0, 1), (2, -1)], trunc=10)
    prod = a * b
    assert prod.coefficient(0) == f.one()
    assert prod.coefficient(4) == -f.one()
    assert prod.coefficient(2).is_zero()


def test_series_mul_of_unknown_zeros_stays_truncated():
    # (0 + O(u^6)) * (0 + O(u^3)) is O(u^9), never an exact zero
    f = CycloField(1)
    a, b = ScalarSeries.zero(f, 5), ScalarSeries.zero(f, 2)
    assert (a * b).trunc == 8 and (b * a).trunc == 8
    assert (a * series(f, [(1, 1)])).trunc == 6
    assert (a * ScalarSeries.zero(f)).trunc == INF


def test_series_additive_inverse_random():
    f = CycloField(4)
    rng = random.Random(11)
    for _ in range(20):
        s = ScalarSeries(
            f,
            {rng.randint(-5, 8): f.element([rng.randint(-4, 4), rng.randint(-4, 4)]) for _ in range(6)},
            trunc=8,
        )
        assert (s + -s).is_zero()


def test_series_geometric_oracle():
    # (sum_{k>=0} u^{2k}) * (1 - u^2) == 1 at truncation 6
    f = CycloField(1)
    geo = series(f, [(0, 1), (2, 1), (4, 1), (6, 1)], trunc=6)
    fac = series(f, [(0, 1), (2, -1)])
    prod = geo * fac
    assert prod.equal_to_order(ScalarSeries.one(f).truncate(6), 6)


def test_series_invert_examples():
    f = CycloField(1)
    one = ScalarSeries.one(f)
    assert one.invert() == one
    # invert(1-u) @N=4 -> 1+u+u^2+u^3+u^4  (long division oracle)
    s = series(f, [(0, 1), (1, -1)], trunc=4)
    inv = s.invert()
    assert inv == series(f, [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)], trunc=4)
    # invert(u^2) -> u^-2
    mono = series(f, [(2, 1)])
    assert mono.invert() == series(f, [(-2, 1)])


def test_series_invert_two_sided_random():
    f = CycloField(1)
    rng = random.Random(5)
    for _ in range(100):
        v = rng.randint(-3, 3)
        terms = {v: f.one()}
        for _ in range(4):
            terms[v + rng.randint(1, 6)] = f.from_rational(rng.randint(-3, 3))
        s = ScalarSeries(f, terms, trunc=v + 8)
        inv = s.invert()
        for prod in (s * inv, inv * s):
            order = prod.trunc
            assert order >= 8 - abs(v) - 2
            assert prod.equal_to_order(ScalarSeries.one(f).truncate(order), order)


def test_compare_beyond_known_order_is_a_precision_shortfall():
    f = CycloField(1)
    known = ScalarSeries.one(f, trunc=5)
    assert known.equal_to_order(ScalarSeries.one(f), 5)
    with pytest.raises(PrecisionShortfall, match="cannot compare to order 6: known only to 5"):
        known.equal_to_order(ScalarSeries.one(f), 6)


def test_series_invert_zero_raises():
    f = CycloField(1)
    with pytest.raises(NotInvertible):
        ScalarSeries.zero(f, trunc=5).invert()


def test_valuation():
    f = CycloField(1)
    s = series(f, [(3, 1), (5, 2)])
    assert s.valuation() == 3
    assert ScalarSeries.zero(f).valuation() == INF
    # valuation(u^2 s * u^3 t) = 5 + valuation(s t) for unit-leading s, t
    rng = random.Random(13)
    for _ in range(20):
        s1 = series(f, [(0, 1), (1, rng.randint(-3, 3))], trunc=9)
        t1 = series(f, [(0, 1), (2, rng.randint(-3, 3))], trunc=9)
        lhs = (s1.shift(2)) * (t1.shift(3))
        assert lhs.valuation() == 5 + (s1 * t1).valuation()


def test_ring_axioms_random_series():
    f = CycloField(1)
    rng = random.Random(23)

    def rand():
        return ScalarSeries(
            f,
            {rng.randint(-4, 6): f.from_rational(rng.randint(-5, 5)) for _ in range(5)},
            trunc=rng.choice([8, 10, INF]),
        )

    for _ in range(40):
        a, b, c = rand(), rand(), rand()
        lhs = (a * b) * c
        rhs = a * (b * c)
        order = min(lhs.trunc, rhs.trunc, 6)
        if order is INF:
            assert lhs == rhs
        else:
            assert lhs.equal_to_order(rhs, order)
        d1 = a * (b + c)
        d2 = a * b + a * c
        order = min(d1.trunc, d2.trunc, 6)
        if order is INF:
            assert d1 == d2
        else:
            assert d1.equal_to_order(d2, order)


def test_valuation_multiplicative_on_units():
    f = CycloField(1)
    a = series(f, [(2, 3), (4, 1)], trunc=9)
    b = series(f, [(-1, 2), (0, 5)], trunc=9)
    assert (a * b).valuation() == a.valuation() + b.valuation()


def test_truncation_tracking():
    f = CycloField(1)
    a = series(f, [(0, 1)], trunc=5)
    b = series(f, [(3, 1)])  # exact monomial
    prod = a * b
    assert prod.trunc == 8  # validity shifts with the monomial's valuation
    s = a + b
    assert s.trunc == 5


def test_unit_monomial_group():
    f = CycloField(4)
    q = UnitMonomial.q_power(f, 1)
    assert q.uexp == 2
    m = UnitMonomial(f.zeta(), 3)
    assert (m * m.inverse()).is_one()
    assert (m**2).uexp == 6
    r = UnitMonomial(f.one(), 4).nth_root(2)
    assert r.uexp == 2


def test_series_json_roundtrip():
    f = CycloField(4)
    s = ScalarSeries(f, {-2: f.zeta(), 3: f.from_rational(Fraction(5, 3))}, trunc=7)
    assert series_from_json(series_to_json(s)) == s
    # an integral value is written from its numerators, any other through Fractions
    assert series_to_json(s)["terms"] == [[-2, ["0", "1"]], [3, ["5/3", "0"]]]
    exact = ScalarSeries(f, {0: f.one()})
    assert series_from_json(series_to_json(exact)) == exact
    u = UnitMonomial(f.zeta(3), -4)
    assert monomial_from_json(monomial_to_json(u)) == u


@pytest.mark.parametrize("k", [-2, 0, 3])
@pytest.mark.parametrize("trunc", [5, INF])
def test_scaling_an_empty_series_is_the_slow_path(k, trunc):
    # an empty series kept at its own trunc comes back itself; any other
    # trunc builds the series the slow path builds
    f = CycloField(4)
    empty = ScalarSeries(f, {}, trunc)
    mono = UnitMonomial(f.zeta(), k)
    for cap in (trunc - 1, trunc, trunc + 1, trunc + k, INF):
        top = min(trunc + k, cap)
        got = empty.scale(mono, cap)
        assert got.terms == {} and got.trunc == top, (cap, top)
        assert (got is empty) == (top == trunc), (cap, top)


@pytest.mark.parametrize(
    "data",
    [
        {"m": 1, "N": 3.5, "terms": [[1.9, [0.5]], [True, ["2"]]]},
        {"m": 1, "N": 3, "terms": [[1.0, ["1"]]]},
        {"m": 1, "N": 3, "terms": [[True, ["1"]]]},
        {"m": 1, "N": 3.0, "terms": [[1, ["1"]]]},
        {"m": 1, "N": True, "terms": []},
        {"m": 1.0, "N": None, "terms": []},
        {"m": True, "N": None, "terms": []},
        {"m": 1, "N": None, "terms": [[1, [0.5]]]},
        {"m": 1, "N": None, "terms": [[1, [2]]]},
        {"m": 1, "N": None, "terms": [[1, "2"]]},
    ],
)
def test_series_from_json_refuses_floats_bools_and_numbers(data):
    # exact code reads ints and rational strings only; a float exponent was
    # truncated, a bool read as 0 or 1 and a float trunc kept
    with pytest.raises(ValueError):
        series_from_json(data)


@pytest.mark.parametrize(
    "key, value", [("uexp", 0.5), ("uexp", True), ("m", 1.0), ("coeff", [1]), ("coeff", ["1", 0.5])]
)
def test_monomial_from_json_refuses_floats_bools_and_numbers(key, value):
    data = {**monomial_to_json(UnitMonomial.one(CycloField(1))), key: value}
    with pytest.raises(ValueError, match=f"{key} must be"):
        monomial_from_json(data)


def test_monomials_share_one_series_per_value_and_trunc():
    # to_series keeps one series per (value, trunc) and one empty series per
    # trunc for every u-exponent above it; a trunc never reads another's
    f = CycloField(5)
    c = f.zeta() * Fraction(2, 3)
    s = UnitMonomial(c, 2).to_series(6)
    assert s == ScalarSeries(f, {2: c}, 6) and s.trunc == 6
    assert UnitMonomial(f.zeta() * Fraction(2, 3), 2).to_series(6) is s  # an equal value, built anew
    for other in (UnitMonomial(c, 2).to_series(9), UnitMonomial(c, 2).to_series(),
                  UnitMonomial(c, 3).to_series(6), UnitMonomial(-c, 2).to_series(6)):
        assert other is not s and other != s
    assert UnitMonomial(c, 2).to_series(9).trunc == 9 and UnitMonomial(c, 2).to_series().trunc == INF
    empty = UnitMonomial(c, 7).to_series(6)
    assert empty == ScalarSeries.zero(f, 6) and empty is UnitMonomial(f.minus_one(), 11).to_series(6)
    assert UnitMonomial(c, 7).to_series(8) == ScalarSeries(f, {7: c}, 8)
    assert UnitMonomial(c, 9).to_series(8) == ScalarSeries.zero(f, 8)
    g = CycloField(1)
    assert UnitMonomial(g.one(), 2).to_series(6).field is g and UnitMonomial(g.one(), 9).to_series(6).field is g


def test_unequal_cells_matches_a_cell_by_cell_reference():
    # identity is a shortcut inside the one comparison: equal lists pass at
    # once only when every entry is known to the order
    f = CycloField(5)

    def series(terms, trunc):
        return ScalarSeries(f, {e: f.element(c) for e, c in terms.items()}, trunc)

    def reference(xs, ys, order):
        return [i for i, (x, y) in enumerate(zip(xs, ys))
                if x.trunc < order or y.trunc < order or x.terms != y.terms]

    a = series({0: [1, 2], 3: [Fraction(1, 2), 0, 1]}, 8)
    short = series({0: [1, 2], 3: [Fraction(1, 2), 0, 1]}, 5)
    pool = [
        a,
        series({0: [1, 2], 3: [Fraction(1, 2), 0, 1]}, 8),  # equal to a, another object
        series({0: [1, 2], 3: [Fraction(1, 2), 0, 2]}, 8),  # one term differs
        series({0: [1, 2], 9: [1]}, 9),  # a term above the order differs
        short,
        series({}, 8),
        series({}, 3),
    ]
    rng = random.Random(5)
    for order in (3, 5, 8):
        assert unequal_cells([], [], order) == []
        for xs in ([a] * 4, pool, pool[::-1]):
            want = reference(xs, xs, order)
            assert unequal_cells(xs, xs, order) == unequal_cells(xs, [*xs], order) == want
            assert want == [i for i, x in enumerate(xs) if x.trunc < order]
        for _ in range(60):
            xs, ys = rng.choices(pool, k=6), rng.choices(pool, k=6)
            assert unequal_cells(xs, ys, order) == reference(xs, ys, order)
    assert unequal_cells([a, pool[1]], [pool[1], a], 8) == []
    assert unequal_cells([a, short], [a, short], 8) == [1]
    assert unequal_cells([a, a], [a, short], 8) == unequal_cells([a, short], [a, a], 8) == [1]
    assert unequal_cells([a, pool[2]], [a, a], 8) == [1]
    with pytest.raises(ValueError):  # lists of two windows
        unequal_cells([a], [a, a], 8)
