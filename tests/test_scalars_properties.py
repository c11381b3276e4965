"""Property tests: CycloRational against a Fraction-polynomial reference.

The reference keeps an element of Q(zeta_m) as a list of Fraction
coefficients in the power basis and reduces products by long division by the
monic cyclotomic polynomial, which is the textbook definition of the field.
"""

import json
from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from qtheta.scalars import (
    INF,
    CycloField,
    ScalarSeries,
    UnitMonomial,
    add_into,
    cyclotomic_polynomial,
    series_from_json,
    series_to_json,
)

ORDERS = (1, 3, 4, 5, 7, 9, 12, 15)

SETTINGS = settings(max_examples=60, deadline=None)

rationals = st.builds(
    Fraction,
    st.integers(-60, 60) | st.integers(-(10**30), 10**30),
    st.sampled_from([1, 1, 1, 2, 3, 4, 6, 7, 12, 10**20 + 3]),
)


def ref_reduce(vec, m):
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    vec = [Fraction(c) for c in vec]
    while len(vec) > deg:
        c = vec.pop()
        shift = len(vec) - deg
        for i in range(deg):
            vec[shift + i] -= c * phi[i]
    return tuple(vec) + (Fraction(0),) * (deg - len(vec))


def ref_mul(a, b, m):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_reduce(out, m)


@st.composite
def field_and_vectors(draw, count):
    m = draw(st.sampled_from(ORDERS))
    deg = CycloField(m).degree
    vecs = [
        draw(st.lists(rationals, min_size=1, max_size=deg + 3)) for _ in range(count)
    ]
    return m, vecs


def check_normalised(x):
    assert x.den > 0 and gcd(x.den, *x.num) == 1
    assert len(x.num) == x.field.degree
    assert all(type(c) is int for c in x.num)


@SETTINGS
@given(field_and_vectors(2), st.integers(0, 5))
def test_arithmetic_matches_reference(data, n):
    m, (va, vb) = data
    f = CycloField(m)
    a, b = f.element(va), f.element(vb)
    ra, rb = ref_reduce(va, m), ref_reduce(vb, m)
    assert a.coeffs == ra and b.coeffs == rb
    results = {
        "add": (a + b, tuple(x + y for x, y in zip(ra, rb))),
        "sub": (a - b, tuple(x - y for x, y in zip(ra, rb))),
        "neg": (-a, tuple(-x for x in ra)),
        "mul": (a * b, ref_mul(ra, rb, m)),
    }
    power = ref_reduce([1], m)
    for _ in range(n):
        power = ref_mul(power, ra, m)
    results["pow"] = (a**n, power)
    for got, want in results.values():
        check_normalised(got)
        assert got.coeffs == want
    if any(ra):
        inv = a.inverse()
        check_normalised(inv)
        assert ref_mul(inv.coeffs, ra, m) == ref_reduce([1], m)
        assert (b / a).coeffs == ref_mul(rb, inv.coeffs, m)


@SETTINGS
@given(field_and_vectors(2), rationals)
def test_equality_and_hash_agree_across_constructions(data, r):
    m, (va, vb) = data
    f = CycloField(m)
    same = [
        f.from_rational(r),
        f.element([r]),
        f.element([Fraction(r.numerator * 6, r.denominator * 6)]),
        f.element([str(r)]),
        f.one() * r,
        r * f.one(),
        f.from_rational(r.numerator) / r.denominator,
        f.from_rational(r) + f.zero(),
    ]
    for x in same:
        check_normalised(x)
        assert x == same[0] and hash(x) == hash(same[0])
        assert x == r and x.as_rational() == r
    # a rational element, its Fraction and (when whole) its int find each
    # other in sets and dicts
    values = [same[0], r] + ([r.numerator] if r.denominator == 1 else [])
    for x in values:
        for y in values:
            assert x in {y} and {y: "v"}[x] == "v"
    a, b = f.element(va), f.element(vb)
    # a polynomial and its remainder mod Phi_m are one element
    phi = cyclotomic_polynomial(m)
    padded = list(va) + [Fraction(0)] * (len(phi) + 2)
    for i, c in enumerate(phi):
        padded[i + 2] += 5 * c
    for x in (f.element(padded), (a + b) - b, -(-a), a * f.one()):
        assert x == a and hash(x) == hash(a)
    assert (a == b) == (a.coeffs == b.coeffs)


def test_cyclotomic_polynomials_multiply_to_x_m_minus_1():
    # x^m - 1 is the product of Phi_d over the divisors d of m
    for m in range(1, 41):
        prod = (1,)
        for d in range(1, m + 1):
            if m % d == 0:
                phi = cyclotomic_polynomial(d)
                out = [0] * (len(prod) + len(phi) - 1)
                for i, x in enumerate(prod):
                    for j, y in enumerate(phi):
                        out[i + j] += x * y
                prod = tuple(out)
        assert prod == (-1,) + (0,) * (m - 1) + (1,)


@SETTINGS
@given(
    st.sampled_from(ORDERS),
    st.dictionaries(st.integers(-6, 12), st.lists(rationals, min_size=1, max_size=6), max_size=6),
    st.sampled_from([INF, 4, 12]),
)
def test_series_json_roundtrip_text(m, terms, trunc):
    f = CycloField(m)
    s = ScalarSeries(f, {e: f.element(v) for e, v in terms.items()}, trunc)
    text = json.dumps(series_to_json(s), sort_keys=True)
    back = series_from_json(json.loads(text))
    assert back == s
    assert json.dumps(series_to_json(back), sort_keys=True) == text


def ref_series_mul(a, b):
    """Every pair, summed, kept up to the product's validity order: the
    unknown tail of one factor times the lowest possible term of the other,
    which for a series with no known term lies just above its trunc."""
    va = a.valuation() if a.terms else a.trunc + 1
    vb = b.valuation() if b.terms else b.trunc + 1
    trunc = min(a.trunc + vb, b.trunc + va)
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            out[e1 + e2] = out.get(e1 + e2, a.field.zero()) + c1 * c2
    return ScalarSeries(a.field, out, trunc)


small_series_terms = st.dictionaries(
    st.integers(-8, 10), st.lists(st.integers(-3, 3), min_size=1, max_size=4), max_size=6
)


@SETTINGS
@given(
    st.sampled_from([1, 5]),
    small_series_terms,
    small_series_terms,
    st.sampled_from([INF, -4, 3, 9]),
    st.sampled_from([INF, -1, 6]),
    st.integers(-20, 20) | st.just(INF),
)
def test_mul_to_is_the_truncated_product(m, ta, tb, trunc_a, trunc_b, cap):
    f = CycloField(m)
    a = ScalarSeries(f, {e: f.element(v) for e, v in ta.items()}, trunc_a)
    b = ScalarSeries(f, {e: f.element(v) for e, v in tb.items()}, trunc_b)
    ref = ref_series_mul(a, b)
    assert a * b == ref
    assert a.mul_trunc(b) == b.mul_trunc(a) == ref.trunc
    low = min(a.valuation(), b.valuation()) - 1  # below both valuations
    for c in (cap, low):
        assert a.mul_to(b, c) == ref.truncate(c) == (a * b).truncate(c)
        assert b.mul_to(a, c) == ref.truncate(c)


@st.composite
def accumulator_and_addend(draw):
    """A field, an accumulator and the terms of a value to add into it.  At
    each exponent the accumulator holds, the value holds the same element,
    one with the same numerator over another denominator, another element,
    or nothing; it also has exponents the accumulator lacks."""
    f = CycloField(draw(st.sampled_from([1, 5])))
    nums = st.lists(st.integers(-9, 9), min_size=f.degree, max_size=f.degree).filter(any)

    def element(den):
        return f.element([Fraction(c, den) for c in draw(nums)])

    dens = st.sampled_from([1, 2, 3, 6])
    acc = {e: element(d) for e, d in draw(st.dictionaries(st.integers(-4, 6), dens)).items()}
    terms = {e: element(d) for e, d in draw(st.dictionaries(st.integers(7, 9), dens)).items()}
    for e, a in acc.items():
        kind = draw(st.sampled_from(["same", "numerator", "other", "absent"]))
        if kind == "same":
            terms[e] = f.element(a.coeffs)  # equal, but not the same object
        elif kind == "numerator":
            den = next(a.den * p for p in (2, 3, 5, 7) if gcd(p, *a.num) == 1)
            terms[e] = f.element([Fraction(c, den) for c in a.num])
            assert terms[e].num == a.num and terms[e].den != a.den
        elif kind == "other":
            terms[e] = element(draw(dens))
    return f, acc, terms


@SETTINGS
@given(
    accumulator_and_addend(),
    st.sampled_from(["none", "own", "built"]),
    st.sampled_from([INF, 2, 8]),
    st.integers(-5, 10) | st.just(INF),
)
def test_add_into_is_the_slow_sum(case, neg, x_trunc, top):
    # add_into(acc, x, top, trunc, 0, scale) with scale -1 is acc + (-x) on
    # exponents up to top, built by plain field arithmetic; the -1 is the
    # field's own minus one or an equal element built by arithmetic, and no
    # scale is the control
    f, acc, terms = case
    scale = {"none": None, "own": f.minus_one(), "built": -f.one()}[neg]
    assert neg == "none" or (scale is f.minus_one()) == (neg == "own")
    x = ScalarSeries(f, terms, x_trunc)
    want = dict(acc)
    for e, c in x.terms.items():
        if e <= top:
            total = want.pop(e, f.zero()) + (c if scale is None else -c)
            if not total.is_zero():
                want[e] = total
    got = dict(acc)
    assert add_into(got, x, top, 5, 0, scale) == min(5, x_trunc)
    assert got == want
    got = dict(acc)
    for e, c in x.terms.items():
        assert add_into(got, UnitMonomial(c, e), top, INF, 0, scale) == INF
    assert got == want


@SETTINGS
@given(
    accumulator_and_addend(),
    st.sampled_from(["one", "minus one", 1, -1, 2, "zeta"]),
    st.integers(-3, 3),
    st.sampled_from([INF, 2, 8]),
    st.integers(-5, 10) | st.just(INF),
)
def test_add_into_with_a_monomial_is_the_slow_scaled_sum(case, coeff, uexp, x_trunc, top):
    # add_into(acc, x, top, trunc, uexp, c0) is acc + (c0 u^uexp) x on exponents
    # up to top; a +-1 c0 takes the fast path, whether it is the field's own
    # one or minus one or an equal element built by arithmetic (1 and -1),
    # and 2 and zeta the product
    f, acc, terms = case
    named = {"one": f.one(), "minus one": f.minus_one(), "zeta": f.zeta()}
    c0 = named[coeff] if coeff in named else f.from_rational(coeff)
    assert c0 is not f.one() and c0 is not f.minus_one() or coeff in named
    x = ScalarSeries(f, terms, x_trunc)
    want = dict(acc)
    for e, c in x.terms.items():
        if e + uexp <= top:
            total = want.pop(e + uexp, f.zero()) + c * c0
            if not total.is_zero():
                want[e + uexp] = total
    got = dict(acc)
    assert add_into(got, x, top, 5, uexp, c0) == min(5, x_trunc + uexp)
    assert got == want
    got = dict(acc)
    for e, c in x.terms.items():
        assert add_into(got, UnitMonomial(c, e), top, INF, uexp, c0) == INF
    assert got == want
