"""Named series registry and the identity verifier."""

import collections
import dataclasses
import hashlib
import json
import pathlib
import random

import pytest

from qtheta import named, verify
from qtheta.errors import EnumerationLimit, NotMultipliable, UnknownName
from qtheta.named import (
    builtin_series,
    eq_addition_series,
    eq_coefficient,
    eq_inv_coefficient,
    eq_series,
    r_series,
    theta_series,
    weinstein_norm,
    weinstein_shift_point,
    weinstein_theta,
    _yang_baxter_param,
)
from qtheta.scalars import INF, CycloField, ScalarSeries, SeriesSum, UnitMonomial, series_to_json
from qtheta.series import TorusSeries, series_equal_on_cells
from qtheta.torus import QuantParam, TorusPoint
from qtheta.verify import (
    OPERATOR,
    REGISTRY,
    EquationSpec,
    EquationTerm,
    _term_series,
    emit_report,
    identity_specs,
    verify_equation,
    verify_named,
)

F = CycloField(1)


# (k, order) requests that grow the cached P_k chain in k and in order in
# turn, with 2k^2 above the order at k = 8 and k = 5
EQ_REQUESTS = [(3, 10), (8, 20), (2, 60), (5, 12), (0, 7), (7, 40), (1, 3), (6, 90)]


def _eq_product_coefficient(f, degree, order):
    """t^degree coefficient of prod_n (1 + q^(2n+1) t), to u^order."""
    poly = {0: ScalarSeries.one(f, order)}
    for n in range(order // 4 + 1):  # the factors with 2(2n+1) <= order
        fac = 2 * (2 * n + 1)  # u-exponent of q^(2n+1)
        new = dict(poly)
        for k, c in poly.items():
            if k + 1 <= degree:
                term = c.shift(fac)
                cur = new.get(k + 1)
                new[k + 1] = (term if cur is None else cur + term).truncate(order)
        poly = new
    return poly.get(degree, ScalarSeries.zero(f, order))


@pytest.fixture
def fresh_eq_cache(monkeypatch):
    # the requests below must grow the chain themselves, not find it grown
    monkeypatch.setattr(named, "_P_CHAIN", [[1]])


@pytest.mark.usefixtures("fresh_eq_cache")
def test_eq_coefficients_match_product_expansion():
    for m in (1, 5):
        f = CycloField(m)
        for k, order in EQ_REQUESTS:
            got = eq_coefficient(f, k, order)
            assert got.trunc >= order
            want = _eq_product_coefficient(f, k, order)
            assert got.equal_to_order(want, order), (m, k, order)


@pytest.mark.usefixtures("fresh_eq_cache")
def test_eq_coefficient_valuations():
    # the certificates 2k^2 and 2k are exact: P_k has constant term 1
    for m in (1, 5):
        f = CycloField(m)
        for k, order in EQ_REQUESTS:
            c, d = eq_coefficient(f, k, order), eq_inv_coefficient(f, k, order)
            assert c.leading() == (2 * k * k, f.one())
            assert d.leading() == (2 * k, f.one() if k % 2 == 0 else -f.one())
            assert c.trunc == max(order, 2 * k * k) and d.trunc == max(order, 2 * k)
        # an infinite order asks for no more than the leading term
        assert eq_coefficient(f, 3, INF) == ScalarSeries.monomial(f, 18, 1, 18)
        assert eq_inv_coefficient(f, 3, INF) == ScalarSeries.monomial(f, 6, -1, 6)
        assert builtin_series("e_q_inv", f).coeff((3,), INF).trunc == 6


@pytest.mark.usefixtures("fresh_eq_cache")
def test_eq_inverse_is_inverse():
    # sum_j c_j d_{k-j} = [k == 0], which fixes every d_k to the order
    for m in (1, 5):
        f = CycloField(m)
        for k, order in EQ_REQUESTS:
            acc = ScalarSeries.zero(f, order)
            for j in range(k + 1):
                acc = acc + eq_coefficient(f, j, order) * eq_inv_coefficient(f, k - j, order)
            expect = ScalarSeries.one(f, order) if k == 0 else ScalarSeries.zero(f, order)
            assert acc.equal_to_order(expect, order), (m, k, order)


def test_theta_series_prefactor():
    p = QuantParam.trivial(F, 1)
    mu = UnitMonomial.q_power(F, 3)
    th = theta_series(p, (1,), prefactor=mu)
    for n in range(-3, 4):
        assert th.coeff((n,), INF) == ScalarSeries.q_power(F, n * n + 3 * n)


def test_registry_names():
    for name in (
        "theta_jacobi",
        "e_q",
        "e_q_inv",
        "theta_on_Tq_u",
        "theta_on_Tq_v",
        "theta_weinstein",
        "r_fv",
    ):
        s = builtin_series(name, F)
        assert isinstance(s, TorusSeries)
    with pytest.raises(UnknownName):
        builtin_series("nope", F)


def test_registry_determinism():
    a = builtin_series("e_q", F)
    b = builtin_series("e_q", F)
    for k in range(5):
        assert a.coeff((k,), 30) == b.coeff((k,), 30)
    ra = builtin_series("r_fv", F)
    rb = builtin_series("r_fv", F)
    for cell in [(0, 0, 0, 0), (1, 0, 1, 0), (-1, 0, 2, 0)]:
        assert ra.coeff(cell, 14) == rb.coeff(cell, 14)


def test_weinstein_identity_cellwise():
    base = QuantParam.standard_tq(F)
    w = weinstein_theta(base)
    assert w.kind == "formal"
    k = (1, 0, 0, 1)
    norm = weinstein_norm(base, k)
    x = weinstein_shift_point(base, k)
    # <k,k> e(k) x_k^*(theta_W) = theta_W at a few cells
    from qtheta.heisenberg import heis_act, HeisRaw

    gamma = HeisRaw(w.param, norm, x, k, (0, 0, 0, 0))
    acted = heis_act(gamma, w)
    cells = [(0, 0, 0, 0), (1, 1, 0, 0), (-1, 2, 1, 0), (2, -1, 0, 1)]
    assert series_equal_on_cells(acted, w, cells, 60)


def test_weinstein_refuses_products():
    base = QuantParam.standard_tq(F)
    w = weinstein_theta(base)
    with pytest.raises(NotMultipliable):
        w.mul(w)


def test_verify_named_passes():
    for ident in ("E016", "E023", "E024"):
        rep = verify_named(ident)
        assert rep["status"] == "pass"
        assert rep["cells_checked"] > 0


def test_verify_monotone_windows():
    # passing at (R, N) implies passing at all smaller windows/orders
    for ident in ("E023", "E024"):
        for w, o in [(2, 8), (3, 12), (4, 16)]:
            rep = verify_named(ident, window=w, order=o)
            assert rep["status"] == "pass"


def test_verify_detects_corruption():
    # corrupt one coefficient of the braid and expect a pinpointed failure
    p = QuantParam.standard_tq(F)
    tu = theta_series(p, (1, 0))
    tv = theta_series(p, (0, 1))
    bad = tu.scaled(UnitMonomial.q_power(F, 1))
    spec = EquationSpec(
        p,
        [
            EquationTerm(UnitMonomial.one(F), [bad, tv, tu]),
            EquationTerm(UnitMonomial(-F.one(), 0), [tv, tu, tv]),
        ],
        3,
        12,
        label="corrupted",
    )
    rep = verify_equation(spec)
    assert rep["status"] == "fail"
    assert "first_mismatch" in rep
    assert "cell" in rep["first_mismatch"] and "uexp" in rep["first_mismatch"]


def test_verify_fails_vacuous_checks():
    # an empty window or a negative order compares nothing: never a pass
    for window, order in [(-1, 40), (10, -3)]:
        rep = verify_named("E016", window=window, order=order)
        assert rep["status"] == "fail" and rep["cells_checked"] == 0
        assert rep["first_mismatch"]["cell"] is None
    spec = identity_specs("E016")[0]
    spec.window = -1
    assert verify_equation(spec)["status"] == "fail"


def test_verify_fails_a_spec_with_no_terms():
    # 0 = 0 on every cell would be a pass that compared nothing
    spec = identity_specs("E016")[0]
    spec.terms = []
    rep = verify_equation(spec)
    assert rep["status"] == "fail" and rep["cells_checked"] == 0
    assert rep["first_mismatch"] == {"cell": None, "uexp": None, "reason": "no terms to compare"}


def test_report_determinism():
    r1 = emit_report(verify_named("E016"))
    r2 = emit_report(verify_named("E016"))
    assert r1 == r2
    parsed = json.loads(r1)
    assert parsed["schema"] == 1 and "first_mismatch" not in parsed


def test_identity_specs_unknown():
    with pytest.raises(UnknownName):
        identity_specs("E999")


def test_e332_all_six():
    rep = verify_named("E332", window=3, order=15)
    assert rep["status"] == "pass"
    specs = identity_specs("E332")
    assert len(specs) == 6


def test_r_series_cells():
    # r(z, u) = theta(u) / (e_q(zu) e_q(zu^-1)): low-order window values
    p = _yang_baxter_param(F)
    r = r_series(p, (1, 0, 0, 0), (0, 0, 1, 0))
    # z-degree 0: just theta coefficients
    for n in (-1, 0, 1):
        assert r.coeff((n, 0, 0, 0), 10).equal_to_order(
            ScalarSeries.q_power(F, n * n).truncate(10), 10
        )
    # cell u^0 z^1: theta_0 * (d_1 contributions from both factors):
    # d_1 (zu) at (1,0,1,0) + d_1 (zu^-1) at (-1,0,1,0) shifted by theta_{+-1}
    got = r.coeff((0, 0, 1, 0), 12)
    d1 = eq_inv_coefficient(F, 1, 12)
    th1 = ScalarSeries.q_power(F, 1)
    expect = (d1 * th1 + d1 * th1).truncate(12)
    assert got.equal_to_order(expect, 12)


def _rescaled(spec, mono):
    """The same equation with every term coefficient multiplied by ``mono``."""
    for t in spec.terms:
        t.coefficient = t.coefficient * mono
    return spec


def test_term_coefficient_uexp_moves_the_requested_order(monkeypatch):
    # a coefficient of u-exponent e is applied after the lookup, so its word
    # must be known to order - e: E332's q^-1 spec (e = -2) asks for order + 2
    q3 = UnitMonomial.q_power(F, 3)
    specs = identity_specs("E332", window=3, order=15)
    cases = [
        specs[5],  # q^-1 u theta(u) theta(v) v u^-1 = theta(u) theta(v)
        _rescaled(specs[1], q3),  # q^3 u theta(u) u^-1 = q^3 theta(u)
        _rescaled(specs[0], q3),  # q^4 u v^-1 theta(u) v = q^3 theta(u)
    ]
    assert specs[5].terms[0].coefficient.uexp == -2
    asked = []
    # a window filled by an earlier spec is not refilled, so its entry
    # point records the order too
    for name in ("coeff", "_table", "_window_table"):
        orig = getattr(TorusSeries, name)

        def recording(self, at, order, orig=orig):
            asked.append(order)
            return orig(self, at, order)

        monkeypatch.setattr(TorusSeries, name, recording)
    for spec in cases:
        asked.clear()
        rep = verify_equation(spec)
        assert rep["status"] == "pass", rep
        assert rep["cells_checked"] == len(spec.cells())
        assert set(asked) == {spec.order - t.coefficient.uexp for t in spec.terms}
        for t in spec.terms:
            c, s = _term_series(t)
            for h in spec.cells():
                assert (s.coeff(h, spec.order - c.uexp) * c).trunc == spec.order


def test_corrupted_specs_report_the_same_first_mismatch():
    # reference reports of the verifier that scaled each term's series
    def run(index, which, mono, window=None, order=None):
        spec = identity_specs("E332", window=window, order=order)[index]
        spec.terms[which].coefficient = spec.terms[which].coefficient * mono
        rep = verify_equation(spec)
        assert rep["status"] == "fail"
        return rep["cells_checked"], rep["first_mismatch"]

    qm1, q3 = UnitMonomial.q_power(F, -1), UnitMonomial.q_power(F, 3)
    assert run(0, 0, qm1) == (28, {"cell": [-3, 0], "uexp": 16})
    assert run(0, 1, UnitMonomial(F.one(), 1)) == (28, {"cell": [-3, 0], "uexp": 18})
    assert run(5, 1, q3) == (19, {"cell": [-4, 2], "uexp": 24})
    assert run(5, 0, UnitMonomial(-F.one(), 0), 3, 15) == (5, {"cell": [-3, 1], "uexp": 14})


@pytest.mark.parametrize("refused_first", [False, True])
def test_first_failing_cell_decides_between_mismatch_and_refusal(monkeypatch, refused_first):
    # the verifier computes each term over all cells before comparing; a
    # refusal met there must not hide an earlier cell's mismatch, and a
    # refusal at an earlier cell is still raised
    spec = identity_specs("E332", window=2, order=10)[1]  # u theta(u) u^-1 = theta(u)
    spec.terms[1].coefficient = spec.terms[1].coefficient * UnitMonomial(F.one(), 1)
    cells = sorted(spec.cells())
    refused = cells[0] if refused_first else cells[-1]
    # both words are kernel-free without cell rules, so each term's pass and
    # each cell computed alone go through the combo pass
    orig = TorusSeries._combo_coeffs
    refusals = []

    def refusing(self, hs, order):
        if refused in hs:
            refusals.append(len(hs))
            raise EnumerationLimit("certified box too large")
        return orig(self, hs, order)

    monkeypatch.setattr(TorusSeries, "_combo_coeffs", refusing)
    if refused_first:
        with pytest.raises(EnumerationLimit):
            verify_equation(spec)
    else:
        rep = verify_equation(spec)
        assert rep["status"] == "fail" and rep["first_mismatch"]["cell"] == [-2, 0]
    # refused in each term's pass, then cell by cell only when reached first
    assert refusals == [len(cells)] * 2 + [1] * refused_first


def test_e313_computes_each_theta_w_cell_once(monkeypatch):
    # the -theta_W term is the one shared series in all ten specs, so its
    # cell coefficients are computed once, not once per spec; every E313
    # word has cell rules, so each cell it computes goes through the rule pass
    specs = identity_specs("E313", window=1, order=8)
    theta_w = specs[0].terms[1].word[0]
    assert len(specs) == 10 and all(s.terms[1].word == [theta_w] for s in specs)
    counts = collections.Counter()
    orig = TorusSeries._rule_coeffs

    def counting(self, rules, cells, order):
        if theta_w.factors[0] in self.factors:  # theta_W, scaled or not
            for h in cells:
                counts[h] += 1
        return orig(self, rules, cells, order)

    monkeypatch.setattr(TorusSeries, "_rule_coeffs", counting)
    for spec in specs:
        assert verify_equation(spec)["status"] == "pass"
    assert set(counts) == set(specs[0].cells())
    assert set(counts.values()) == {1}


def test_e026_evaluates_no_gauss_form(monkeypatch):
    # each E026 batch is a kernel walk whose values give its points'
    # u-exponents, and its rules have no sign form or character, so no form
    # is evaluated at the points (a u-form pass over one term's 7,611 points
    # would cost about a quarter of the run)
    import qtheta.gauss as gauss_mod
    import qtheta.series as series_mod

    forms, walks = [], []
    real_forms, real_walk = gauss_mod._forms_at, series_mod.enumerate_sublevel

    def counting_forms(form, ys, n):
        forms.append(len(ys))
        return real_forms(form, ys, n)

    def counting_walks(*args, **kwargs):
        walks.append(1)
        return real_walk(*args, **kwargs)

    monkeypatch.setattr(gauss_mod, "_forms_at", counting_forms)
    monkeypatch.setattr(series_mod, "enumerate_sublevel", counting_walks)
    assert verify_named("E026")["status"] == "pass"
    assert len(walks) == 2 and forms == []


def test_e313_fills_the_theta_w_window_once(monkeypatch):
    # the -theta_W term is one series in all ten specs: the first spec fills
    # its window table in one pass, and the other nine read that list with
    # no pass, so its cells are not scanned again; each run builds and fills
    # a new acted word
    specs = identity_specs("E313", window=1, order=8)
    theta_w = specs[0].terms[1].word[0]
    calls = collections.Counter()
    real = TorusSeries._pass

    def counting(self, cells, order):
        calls[self is theta_w] += 1
        return real(self, cells, order)

    monkeypatch.setattr(TorusSeries, "_pass", counting)
    for runs in (1, 2):
        for spec in specs:
            assert verify_equation(spec)["status"] == "pass"
        assert calls == {True: 1, False: runs * len(specs)}
    assert [*theta_w._windows] == [(8, 1)]


def test_e313_sides_hold_the_same_series_at_every_cell(monkeypatch):
    # both sides' window tables draw one shared series per value and trunc,
    # so each spec's left table is its right one entry by entry, and
    # unequal_cells passes it with one list comparison
    seen = []
    real = verify.unequal_cells
    monkeypatch.setattr(verify, "unequal_cells", lambda xs, ys, order: seen.append((xs, ys)) or real(xs, ys, order))
    assert verify_named("E313")["status"] == "pass"
    assert len(seen) == 10
    for xs, ys in seen:
        assert len(xs) == len(ys) == 9**4 and xs is not ys
        assert all(x is y for x, y in zip(xs, ys))
    assert len({id(x) for xs, _ys in seen for x in xs}) < 100


@pytest.mark.parametrize("m", [1, 5])
def test_corrupted_e313_specs_report_the_parent_first_mismatch(m):
    # the left series scaled by u or by -1, with the spec's coefficient kept
    # 1, so the sides go through unequal_cells; the expected reports are the
    # verifier's before the window tables became lists
    f = CycloField(m)
    for index, order in ((0, 40), (0, 3), (9, 0), (4, 5)):
        for mono in (UnitMonomial(f.one(), 1), UnitMonomial(f.minus_one(), 0)):
            spec = identity_specs("E313", f, order=order)[index]
            _c, acted = _term_series(spec.terms[0])
            spec.terms[0] = EquationTerm(spec.terms[0].coefficient, [acted.scaled(mono)])
            rep = verify_equation(spec)
            assert rep["status"] == "fail" and rep["cells_checked"] == 1
            assert rep["first_mismatch"] == {"cell": [-4, -4, -4, -4], "uexp": 0}


def test_specs_that_compare_nothing_fill_no_table(monkeypatch):
    # a negative order and a spec with no terms fail before any cell is
    # compared, and fill no table of any term series
    spec = identity_specs("E332", window=2, order=10)[1]  # u theta(u) u^-1 = theta(u)
    calls = []
    for name in ("_table", "_window_table"):
        monkeypatch.setattr(TorusSeries, name, lambda self, *args: calls.append(args))
    rep = verify_equation(dataclasses.replace(spec, order=-1))
    assert rep["first_mismatch"]["reason"] == "negative order -1" and rep["cells_checked"] == 0
    rep = verify_equation(dataclasses.replace(spec, terms=[]))
    assert rep["first_mismatch"]["reason"] == "no terms to compare" and rep["cells_checked"] == 0
    assert calls == []


def test_verify_equation_compares_the_filled_tables(monkeypatch):
    # the E313 words have cell rules: _table fills the cache in one rule pass
    # over all the cells and the comparison reads that table itself, so a
    # passing spec asks coeff, coeffs and the other passes for no cell
    spec = identity_specs("E313", window=1, order=8)[0]
    cells = spec.cells()
    calls = []

    def counting(name):
        orig = getattr(TorusSeries, name)

        def wrapped(self, *args):
            calls.append((name, len(args[1]) if name == "_rule_coeffs" else None))
            return orig(self, *args)

        monkeypatch.setattr(TorusSeries, name, wrapped)

    for name in ("coeff", "coeffs", "_rule_coeffs", "_combo_coeffs"):
        counting(name)
    assert verify_equation(spec)["status"] == "pass"
    assert calls == [("_rule_coeffs", len(cells))] * len(spec.terms)


# the registry's specs are lhs - rhs, but for these four E332 ones, whose lhs
# is scaled by q or q^-1: every other spec passes each cell by comparing its
# two sides' tables and sums no terms
SCALED_E332 = {
    "E332[quv-1.th(u).v]",
    "E332[qvu.th(v).u-1]",
    "E332[quv-1.th(u)th(v).v]",
    "E332[q-1u.th(u)th(v).vu-1]",
}


def _counting_sum(calls):
    """A SeriesSum whose every add is logged in ``calls``: verify's summed loop."""

    class Counting(SeriesSum):
        __slots__ = ()

        def add(self, *args):
            calls.append(args)
            super().add(*args)

    return Counting


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_only_the_q_scaled_specs_sum_their_terms(name, monkeypatch):
    calls = []
    monkeypatch.setattr(verify, "SeriesSum", _counting_sum(calls))
    window, order = (1, 8) if name == "E313" else (2, 10)
    for spec in identity_specs(name, window=window, order=order):
        calls.clear()
        rep = verify_equation(spec)
        assert rep["status"] == "pass" and rep["cells_checked"] > 0
        want = len(spec.terms) * rep["cells_checked"] if spec.label in SCALED_E332 else 0
        assert len(calls) == want, spec.label


def _two_sided(lhs, rhs, window, order, mirrored=False):
    """lhs - rhs = 0, or -lhs + rhs = 0 when ``mirrored``: the same cells
    fail, but only the first shape has its sides compared directly."""
    one, minus = UnitMonomial.one(F), UnitMonomial(-F.one(), 0)
    signs = (minus, one) if mirrored else (one, minus)
    terms = [EquationTerm(c, [s]) for c, s in zip(signs, (lhs, rhs))]
    return EquationSpec(lhs.param, terms, window, order, mode=OPERATOR)


def test_equal_sides_known_below_the_order_are_a_shortfall():
    # at (0,) both sides are 1, but the right one only to u^5: equal terms
    # do not pass a cell whose trunc is short of the order
    p = QuantParam.trivial(F, 1)
    lhs = TorusSeries.from_dict(p, {(0,): ScalarSeries.one(F), (1,): UnitMonomial.one(F)})
    rhs = TorusSeries.from_dict(p, {(0,): ScalarSeries.one(F, 5), (1,): UnitMonomial.one(F)})
    want = {"cell": [0], "uexp": None, "reason": "coefficient known only to order 5"}
    for mirrored in (False, True):
        rep = verify_equation(_two_sided(lhs, rhs, 2, 8, mirrored))
        assert rep["cells_checked"] == 3 and rep["first_mismatch"] == want


def test_sides_that_differ_at_one_cell_report_as_the_summed_loop():
    # theta_W against theta_W + e(h0): the right side is a finite table, so
    # its coefficients are computed apart from theta_W's; at h0 both have one
    # term (1 and 2), so a comparison by length alone would pass the cell
    base = QuantParam.standard_tq(F)
    theta_w = weinstein_theta(base)
    cells, h0 = sorted(theta_w.window_cells(1)), (0, -1, 0, 0)
    table = theta_w.coeffs(cells, 8)
    assert len(table[h0].terms) == 1
    table[h0] = table[h0] + ScalarSeries.one(F)
    rhs = TorusSeries.from_dict(theta_w.param, table)
    rep = verify_equation(_two_sided(theta_w, rhs, 1, 8))
    assert rep == verify_equation(_two_sided(theta_w, rhs, 1, 8, mirrored=True))
    assert rep["cells_checked"] == cells.index(h0) + 1 == 32
    assert rep["first_mismatch"] == {"cell": list(h0), "uexp": 0}
    table[h0] = table[h0] - ScalarSeries.one(F)
    same = TorusSeries.from_dict(theta_w.param, table)
    assert verify_equation(_two_sided(theta_w, same, 1, 8))["status"] == "pass"


# sha256 of every term's coefficient table (per cell, in sorted cell order:
# the cell and its series_to_json, whose "N" is the trunc), at the registry
# defaults, recorded before the window pass shared each combo's series part
# across points; the words with closure factors (E016, E023, E024, E026) and
# the theta and exponent words (E012, E025, E332).  The E313 tables at window
# 2 were recorded before cell-rule words were evaluated a window at a time.
DATA = pathlib.Path(__file__).parent / "data"
TERM_DIGESTS = json.loads((DATA / "term_digests.json").read_text())
DIGEST_CASES = sorted({tuple(k.split("/")[:2]) for k in TERM_DIGESTS})
E313_DIGESTS = json.loads((DATA / "e313_window2_digests.json").read_text())


def _term_digests(name, m, window=None, specs=None):
    """The term-table digests of ``specs``, by default fresh registry specs."""
    got = {}
    field = CycloField(int(m.removeprefix("m=")))
    for spec in specs or identity_specs(name, field, window):
        cells = sorted(spec.cells())
        for ti, term in enumerate(spec.terms):
            c, s = _term_series(term)
            table = s.coeffs(cells, spec.order - c.uexp)
            blob = json.dumps([[list(h), series_to_json(table[h])] for h in cells], sort_keys=True)
            got[f"{name}/{m}/{spec.label}/{ti}"] = hashlib.sha256(blob.encode()).hexdigest()
    return got


@pytest.mark.parametrize("name, m", DIGEST_CASES)
def test_term_tables_match_recorded_digests(name, m):
    want = {k: v for k, v in TERM_DIGESTS.items() if k.startswith(f"{name}/{m}/")}
    assert _term_digests(name, m) == want


@pytest.mark.parametrize("m", ["m=1", "m=5"])
def test_e313_term_tables_match_recorded_digests(m):
    want = {k: v for k, v in E313_DIGESTS.items() if k.startswith(f"E313/{m}/")}
    assert len(want) == 20
    assert _term_digests("E313", m, window=2) == want


def _one_series_per_term(spec):
    """``spec`` with each term's word replaced by its series, built once."""
    terms = [EquationTerm(c, [s]) for c, s in map(_term_series, spec.terms)]
    return dataclasses.replace(spec, terms=terms)


@pytest.mark.parametrize("m", ["m=1", "m=5"])
def test_the_summed_loop_never_writes_a_shared_cell_value(m, monkeypatch):
    # verify sums the terms of the q-scaled E332 specs, and of each E313 spec
    # with its first term times u, read from the tables of the very series
    # whose digests are then taken: their shared values stay as recorded
    calls = []
    monkeypatch.setattr(verify, "SeriesSum", _counting_sum(calls))
    field = CycloField(int(m.removeprefix("m=")))
    u = UnitMonomial(field.one(), 1)
    for name, window, recorded in (("E332", None, TERM_DIGESTS), ("E313", 2, E313_DIGESTS)):
        specs = [_one_series_per_term(spec) for spec in identity_specs(name, field, window)]
        for spec in specs:
            calls.clear()
            assert verify_equation(spec)["status"] == "pass"
            if name == "E313":
                first, rhs = spec.terms
                times_u = [EquationTerm(first.coefficient * u, first.word), rhs]
                assert verify_equation(dataclasses.replace(spec, terms=times_u))["status"] == "fail"
            assert bool(calls) == (name == "E313" or spec.label in SCALED_E332)
        want = {k: v for k, v in recorded.items() if k.startswith(f"{name}/{m}/")}
        assert len(want) == 2 * len(specs)
        assert _term_digests(name, m, specs=specs) == want
