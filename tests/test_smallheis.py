"""Small Heisenberg groups: normalizers, duality, actions, doubling."""

import collections
import dataclasses
import itertools
import random

import pytest

from qtheta.errors import (
    DimensionDeficit,
    MissingRootsOfUnity,
    NotInNormalizer,
)
from oracles import (
    ACCEPTED_PAIR,
    ample_multiplier,
    evaluation_duality,
    random_ample_pair,
    random_unimodular,
    sign_twisted_multiplier,
    zeta5_multiplier,
)

from qtheta import heisenberg, intlinalg, multiplier, smallheis
from qtheta.heisenberg import HeisElement, heis_act, heis_mul
from qtheta.multiplier import compose, multiplier_new, power, theta_dim_basis, theta_membership
from qtheta.scalars import INF, CycloField, ScalarSeries, UnitMonomial
from qtheta.series import TorusSeries
from qtheta.smallheis import (
    SmallHeisElement,
    act_on_theta,
    character_split,
    commutant_dimension,
    conjugate_generator,
    gamma_lift,
    group_structure,
    kernel_group,
    mumford_theta_pullback,
    normalizer_membership,
)
from qtheta.torus import QuantParam, TorusPoint

F = CycloField(1)
P1 = QuantParam.trivial(F, 1)


def q_mono(k, sign=1):
    return UnitMonomial.q_power(F, k, sign)


def jacobi():
    img = HeisElement(P1, q_mono(1), TorusPoint.from_q_exps(F, [2]), (1,))
    return multiplier_new(P1, [img], [[q_mono(1)]])


def level2():
    return power(jacobi(), 2)


def minus_one_point():
    return TorusPoint((UnitMonomial(-F.one(), 0),))


def test_normalizer_membership():
    L2 = level2()
    one = UnitMonomial.one(F)
    # identity element
    assert normalizer_membership(L2, one, TorusPoint.identity(F, 1), (0,))
    # kernel element xi = (h0 -> -1), gamma = 0: the equations reduce to (-1)^(2m) = 1
    assert normalizer_membership(L2, one, minus_one_point(), (0,))
    # gamma = h0 with xi solving the lifting equations: xi(h0) = +/- q
    assert normalizer_membership(L2, one, TorusPoint.from_q_exps(F, [1]), (1,))
    assert normalizer_membership(
        L2, one, TorusPoint((UnitMonomial(-F.one(), 2),)), (1,)
    )
    # a wrong point fails
    assert not normalizer_membership(L2, one, TorusPoint.from_q_exps(F, [3]), (1,))


def test_conjugation_formula_fixed_points():
    L2 = level2()
    elems = [
        SmallHeisElement(UnitMonomial.one(F), minus_one_point(), (0,)),
        SmallHeisElement(UnitMonomial.one(F), TorusPoint.from_q_exps(F, [1]), (1,)),
    ]
    for e in elems:
        for i in range(L2.rank):
            conj = conjugate_generator(L2, e, i)
            img = L2.images[i].left_raw()
            assert conj.c == img.c and conj.x == img.x
            assert conj.g == img.g and conj.h == img.h


def test_kernel_group_and_structure_level2():
    L2 = level2()
    gens, orders = kernel_group(L2)
    assert orders == (2,)
    assert gens[0] == minus_one_point()
    struct = group_structure(L2)
    assert struct.quotient.index == 2
    assert struct.kappa_orders == (2,)
    # duality: gamma(-1) = (-1)^gamma, the nontrivial pairing of Z/2 x Z/2
    M = struct.torsion_order
    vals = {
        (kidx, ci): e for (kidx, ci), e in struct.duality.items()
    }
    nontrivial = [e for (kidx, ci), e in vals.items() if kidx == (1,) and ci == 1]
    assert nontrivial[0] == M // 2  # the value -1
    assert vals[((1,), 0)] == 0
    assert vals[((0,), 0)] == 0 and vals[((0,), 1)] == 0


def test_kernel_size_matches_index_random():
    rng = random.Random(3)
    f12 = CycloField(12)
    p = QuantParam.trivial(f12, 2)
    for _ in range(10):
        # diagonal-ish h- with entries in {1,2,3}: index = product
        d1, d2 = rng.choice([1, 2, 3]), rng.choice([1, 2, 3])
        imgs = [
            HeisElement(
                p,
                UnitMonomial.q_power(f12, d1 * d1),
                TorusPoint.from_q_exps(f12, [2 * d1, 0]),
                (d1, 0),
            ),
            HeisElement(
                p,
                UnitMonomial.q_power(f12, d2 * d2),
                TorusPoint.from_q_exps(f12, [0, 2 * d2]),
                (0, d2),
            ),
        ]
        L = multiplier_new(p, imgs)
        gens, orders = kernel_group(L)
        size = 1
        for o in orders:
            size *= o
        assert size == L.index()


def zeta3_index3():
    f3 = CycloField(3)
    p3 = QuantParam.trivial(f3, 1)
    img = HeisElement(p3, UnitMonomial.q_power(f3, 9), TorusPoint.from_q_exps(f3, [6]), (3,))
    return multiplier_new(p3, [img])


def random_index_multiplier(rng, field):
    """A rank-2 multiplier over the trivial pairing with h- = A diag(d1, d2) B
    for random unimodular A, B and d1 | d2 | torsion_order, d2 > 1, and
    x_l = T h- for a positive definite T, so the pairing h-^T T h- is symmetric."""
    M = field.torsion_order
    d2 = rng.choice([d for d in range(2, M + 1) if M % d == 0])
    d1 = rng.choice([d for d in range(1, d2 + 1) if d2 % d == 0])
    h = intlinalg.mat_mul(
        intlinalg.mat_mul(random_unimodular(rng, 2), ((d1, 0), (0, d2))), random_unimodular(rng, 2)
    )
    x = intlinalg.mat_mul(((2, 1), (1, 2)), h)
    s = intlinalg.mat_mul(intlinalg.transpose(h), x)
    p = QuantParam.trivial(field, 2)
    images = [
        HeisElement(
            p,
            UnitMonomial(field.one(), s[i][i]),
            TorusPoint(tuple(UnitMonomial(field.one(), x[k][i]) for k in range(2))),
            (h[0][i], h[1][i]),
        )
        for i in range(2)
    ]
    return multiplier_new(p, images)


def test_duality_matches_the_evaluation_pairing():
    # the table read off the Smith form equals each kernel element evaluated
    # at each coset rep, and the pairing is nondegenerate on both sides
    rng = random.Random(7)
    cases = [level2(), zeta3_index3()]
    cases += [random_index_multiplier(rng, CycloField(m)) for m in (4, 12) for _ in range(5)]
    seen = set()
    for L in cases:
        struct = group_structure(L)
        index = struct.quotient.index
        assert index > 1
        seen.add(struct.kappa_orders)
        table = evaluation_duality(struct)
        assert list(struct.duality.items()) == list(table.items())
        kernel = [*itertools.product(*(range(o) for o in struct.kappa_orders))]
        assert len(kernel) == index
        for kidx in kernel[1:]:
            assert any(table[(kidx, ci)] for ci in range(index))
        for ci in range(1, index):
            assert any(table[(kidx, ci)] for kidx in kernel)
    # the cases reach cyclic and non-cyclic kernels, of orders 2 to 6
    assert {(2,), (3,), (2, 2)} <= seen and any(max(o) > 4 for o in seen)


def test_gamma_lift():
    L2 = level2()
    # gamma = 0: lifts = the kernel group itself
    lifts0 = gamma_lift(L2, (0,))
    pts = {e.xi for e in lifts0}
    assert pts == {TorusPoint.identity(F, 1), minus_one_point()}
    # gamma = h0: two lifts differing by the sign of xi(h0)
    lifts1 = gamma_lift(L2, (1,))
    assert len(lifts1) == 2
    vals = sorted((v.xi.values[0].uexp, repr(v.xi.values[0].coeff)) for v in lifts1)
    assert all(u == 2 for u, _ in vals)
    for e in lifts1:
        assert normalizer_membership(L2, e.c, e.xi, e.gamma)


def test_missing_roots_reported():
    # index-3 multiplier needs cube roots of unity: fails over Q, works in Q(z_3)
    img = HeisElement(P1, q_mono(9), TorusPoint.from_q_exps(F, [6]), (3,))
    L3 = multiplier_new(P1, [img])
    with pytest.raises(MissingRootsOfUnity):
        group_structure(L3)
    struct = group_structure(zeta3_index3())
    assert struct.quotient.index == 3
    assert struct.kappa_orders == (3,)


def test_gamma_lift_reports_the_missing_root_order():
    # xi(2) = -u^4 needs a square root of -1: a root of unity of order
    # d * torsion_order = 2 * 2 over Q, which Q(zeta_4) has
    def halved(field):
        p = QuantParam.trivial(field, 1)
        x = TorusPoint((UnitMonomial(-field.one(), 4),))
        return multiplier_new(p, [HeisElement(p, UnitMonomial.q_power(field, 4), x, (2,))])

    with pytest.raises(MissingRootsOfUnity) as exc:
        gamma_lift(halved(F), (1,))
    assert exc.value.order == 2 * F.torsion_order == 4
    L = halved(CycloField(4))
    lifts = gamma_lift(L, (1,))
    assert len(lifts) == 2
    assert all(normalizer_membership(L, e.c, e.xi, e.gamma) for e in lifts)


def test_each_matrix_is_factored_once(monkeypatch):
    """Theta bases, the small group, gamma lifts and the action read one
    shared Smith factorization per distinct integer matrix."""
    l1, l2 = random_ample_pair(random.Random(5), 2)
    composed = compose(l2, l1)  # h- = 2F: index 4, kernel group (Z/2)^2
    one, zero = UnitMonomial.one(F), (0, 0)
    calls = []
    factor = intlinalg.smith_normal_form

    def counting(m):
        calls.append(m)
        return factor(m)

    monkeypatch.setattr(intlinalg, "smith_normal_form", counting)
    intlinalg._smith_cached.cache_clear()

    def run():
        for L in (l1, l2, composed):
            basis = theta_dim_basis(L, 2, 12)
            struct = group_structure(L)
            for gen in struct.kappa_generators:
                act_on_theta(L, SmallHeisElement(one, gen, zero), basis, 2, 12)
            for gamma in [(0, 0), (1, 0), (0, 1)]:
                gamma_lift(L, gamma)

    run()
    assert composed.h_minus_matrix in calls
    assert len(calls) == len(set(calls))
    calls.clear()
    run()
    assert calls == []


def test_each_multiplier_builds_its_quotient_once(monkeypatch):
    """One product request -- compose, theta bases, the product's membership,
    the small group, the composed basis and its action -- builds the cosets
    of h-(B) once per multiplier, however often it asks for them."""
    l1, l2 = random_ample_pair(random.Random(5), 2)
    calls = []
    build = multiplier.quotient_data

    def counting(target, image_map):
        calls.append(image_map.matrix)
        return build(target, image_map)

    monkeypatch.setattr(multiplier, "quotient_data", counting)
    one, zero = UnitMonomial.one(F), (0, 0)
    composed = compose(l2, l1)
    tb1, tb2 = theta_dim_basis(l1, 2, 12), theta_dim_basis(l2, 2, 12)
    product = tb1.basis[0].mul(tb2.basis[0])
    assert theta_membership(composed, product, product.window_cells(2), 12)
    struct = group_structure(composed)
    basis = theta_dim_basis(composed, 2, 12)
    assert basis.dim == composed.index() == 4
    for gen in struct.kappa_generators:
        act_on_theta(composed, SmallHeisElement(one, gen, zero), basis, 2, 12)
    mats = [L.h_minus_matrix for L in (l1, l2, composed)]
    assert sorted(calls) == sorted(mats)


def test_character_split_level2():
    L2 = level2()
    tb = theta_dim_basis(L2, window=6, order=120)
    split = character_split(L2, tb)
    # even/odd support split: -1 acts trivially on the even line and by -1
    # on the odd line
    exps = {rep[0] % 2: e for rep, e in split.items()}
    assert exps[0] == (0,)
    assert exps[1] == (1,)  # exponent M/2 over zeta_M... M=2 here: exponent 1
    # index 1: single line, trivial character
    L = jacobi()
    tb1 = theta_dim_basis(L, window=6, order=120)
    split1 = character_split(L, tb1)
    assert list(split1.values()) == [()]


def test_character_split_requires_full_dim():
    # kernel generator with point -1 and scalar q: the recurrence is
    # overdetermined on every coset, so the dimension drops to 0
    img1 = HeisElement(P1, q_mono(2), TorusPoint.from_q_exps(F, [2]), (2,))
    img_kernel = HeisElement(P1, q_mono(1), minus_one_point(), (0,))
    L = multiplier_new(P1, [img1, img_kernel])
    tb = theta_dim_basis(L)
    assert tb.dim == 0 < L.index()
    with pytest.raises(DimensionDeficit):
        character_split(L, tb)


def test_act_on_theta_matrices():
    L2 = level2()
    tb = theta_dim_basis(L2, window=6, order=120)
    order = 80
    ident = SmallHeisElement(UnitMonomial.one(F), TorusPoint.identity(F, 1), (0,))
    m_id = act_on_theta(L2, ident, tb, window=4, order=order)
    for i in range(2):
        for j in range(2):
            if i == j:
                assert m_id[i][j].equal_to_order(ScalarSeries.one(F).truncate(order), order)
            else:
                assert m_id[i][j].is_zero()
    # kernel generator acts as diag(1, -1) in the even/odd order
    kelem = SmallHeisElement(UnitMonomial.one(F), minus_one_point(), (0,))
    m_k = act_on_theta(L2, kelem, tb, window=4, order=order)
    parities = [rep[0] % 2 for rep in tb.coset_reps]
    for i in range(2):
        for j in range(2):
            if i != j:
                assert m_k[i][j].is_zero()
        expect = ScalarSeries.one(F) if parities[i] == 0 else -ScalarSeries.one(F)
        assert m_k[i][i].equal_to_order(expect.truncate(order), order)
    # gamma-lift permutes the two lines (antidiagonal up to monomials)
    glift = gamma_lift(L2, (1,))[0]
    m_g = act_on_theta(L2, glift, tb, window=4, order=order)
    for i in range(2):
        assert m_g[i][i].is_zero()
    assert not m_g[0][1].is_zero() and not m_g[1][0].is_zero()
    # rejection of non-normalizer elements
    with pytest.raises(NotInNormalizer):
        act_on_theta(
            L2,
            SmallHeisElement(UnitMonomial.one(F), TorusPoint.from_q_exps(F, [3]), (1,)),
            tb,
            window=4,
            order=order,
        )


def _pair_basis(window, order):
    """A theta-products pair (benchmark pair 1, trivial signs): the composed
    multiplier, its theta basis and its small group."""
    L = ample_multiplier(*ACCEPTED_PAIR)
    composed = compose(L, L)
    return composed, theta_dim_basis(composed, window, order), group_structure(composed)


def test_act_on_theta_reads_each_acted_theta_from_one_pass(monkeypatch):
    # each acted theta is read off its basis theta's own table, filled at the
    # coset reps and window cells in one combo pass: no Heisenberg word is
    # built and no acted word is solved, no cell is computed alone, and every
    # matrix entry read is a cache hit
    composed, basis, struct = _pair_basis(3, 40)
    cells = set(basis.basis[0].window_cells(3))
    assert any(rep not in cells for rep in basis.coset_reps)  # a rep off the window
    calls = collections.Counter()
    passes = []  # (series, cells) of each combo pass
    coeff, combo = TorusSeries.coeff, TorusSeries._combo_coeffs

    def counting_coeff(self, h, order):
        calls["hit" if tuple(h) in self._cache.get(order, ()) else "miss"] += 1
        return coeff(self, h, order)

    def counting_combo(self, hs, order):
        passes.append((self, len(hs)))
        return combo(self, hs, order)

    def no_word(*args):
        raise AssertionError("act_on_theta built a Heisenberg word")

    monkeypatch.setattr(TorusSeries, "coeff", counting_coeff)
    monkeypatch.setattr(TorusSeries, "_combo_coeffs", counting_combo)
    monkeypatch.setattr(heisenberg, "heis_act", no_word)
    monkeypatch.setattr(smallheis, "heis_act", no_word, raising=False)
    one, zero = UnitMonomial.one(F), (0, 0)
    for gen in struct.kappa_generators:
        act_on_theta(composed, SmallHeisElement(one, gen, zero), basis, 3, 40)
    assert len(struct.kappa_generators) == 2
    assert calls == {"hit": basis.dim**2 * len(struct.kappa_generators)}
    # the first action fills each basis theta's table; the second reads it
    assert passes == [(theta, len(cells | set(basis.coset_reps))) for theta in basis.basis]


def _acted_fixtures():
    """(multiplier, basis, elements) with kernel generators and, where the
    field has the roots, gamma lifts: benchmark pair 1 over Q, a fifth
    power over Q(zeta_5) and a square over the sign-twisted pairing, whose
    alpha is not 1."""
    pair = ample_multiplier(*ACCEPTED_PAIR)
    cases = [
        (compose(pair, pair), [(1, 0), (0, 1), (1, 1)]),
        (power(zeta5_multiplier(), 5), []),
        (power(sign_twisted_multiplier(), 2), [(1,)]),
    ]
    for L, gammas in cases:
        one, zero = UnitMonomial.one(L.param.field), (0,) * L.param.rank
        elems = [SmallHeisElement(one, g, zero) for g in group_structure(L).kappa_generators]
        elems += [e for gamma in gammas for e in gamma_lift(L, gamma)[:2]]
        yield L, theta_dim_basis(L, 3, 40), elems


def test_action_rule_is_the_action_on_exponents():
    # mu(k) = c xi(k) alpha(gamma, k), the coefficient HeisRaw gives e(k);
    # random elements over random pairings, signs and torsion
    rng = random.Random(31)
    for m in (1, 4, 5):
        field = CycloField(m)
        z = field.root_of_unity(field.torsion_order)
        for d in (1, 2, 3):
            for _ in range(4):
                A = [[0] * d for _ in range(d)]
                for i in range(d):
                    for j in range(i + 1, d):
                        A[i][j] = rng.randint(-3, 3)
                        A[j][i] = -A[i][j]
                S = [[rng.randint(0, 1) if i == j else 0 for j in range(d)] for i in range(d)]
                p = QuantParam(field, intlinalg.Lattice(d), intlinalg.mat(A), intlinalg.mat(S))

                def mono():
                    return UnitMonomial(z ** rng.randrange(field.torsion_order), rng.randint(-5, 5))

                elem = SmallHeisElement(
                    mono(), TorusPoint(tuple(mono() for _ in range(d))), tuple(rng.randint(-2, 2) for _ in range(d))
                )
                raw = elem.raw(p)
                cells = p.window_cells(2)
                vals = smallheis._action_rule(p, elem).values(cells)
                for k, (c, e) in zip(cells, vals):
                    coeff, target = raw.action_on_exponent(k)
                    assert UnitMonomial(c, e) == coeff
                    assert target == tuple(x + g for x, g in zip(k, elem.gamma))


def test_acted_thetas_match_the_heisenberg_words(monkeypatch):
    # act_on_theta's entries (its acted thetas at the coset reps) and the
    # acted values it re-expands (at the window cells) equal the coefficients
    # of heis_act's word, terms and trunc; the gamma lifts' mu reach negative
    # u-exponents, where the basis theta is read to a higher order.  Each
    # acted value is read where act_on_theta scales it, which is only at a
    # cell it compares: one where the acted value or a basis value it
    # re-expands through has a term
    lowest, skipped = [], 0
    for L, basis, elems in _acted_fixtures():
        cells = basis.basis[0].window_cells(3)
        for elem in elems:
            seen = []
            scale = ScalarSeries.scale

            def spy(self, mono, cap=INF):
                out = scale(self, mono, cap)
                seen.append(out)
                return out

            with monkeypatch.context() as mp:
                mp.setattr(ScalarSeries, "scale", spy)
                M = act_on_theta(L, elem, basis, 3, 40)
            dim = basis.dim
            entries, acted = seen[: dim * dim], seen[dim * dim :]  # each column's entries, then its acted values
            for j, theta in enumerate(basis.basis):
                word = heis_act(elem.raw(L.param), theta)
                want = word.coeffs([*basis.coset_reps, *cells], 40)
                got = entries[j * dim : (j + 1) * dim]
                assert all(x is M[k][j] for k, x in enumerate(got))
                col = [basis.basis[k] for k in range(dim) if not M[k][j].is_zero()]
                compared = [h for h in cells if want[h].terms or any(b.coeff(h, 40).terms for b in col)]
                got, acted = [*got, *acted[: len(compared)]], acted[len(compared) :]
                for h, x in zip([*basis.coset_reps, *compared], got):
                    assert (x.terms, x.trunc) == (want[h].terms, want[h].trunc), (L, elem, j, h)
                skipped += len(cells) - len(compared)
            assert acted == []
            reads = [tuple(x - g for x, g in zip(h, elem.gamma)) for h in [*basis.coset_reps, *cells]]
            lowest.append(min(e for _c, e in smallheis._action_rule(L.param, elem).values(reads)))
    assert min(lowest) == -209 and max(lowest) == 0
    assert skipped > 0


def test_re_expansion_catches_a_matrix_read_at_the_wrong_reps():
    # with the coset reps rotated, each entry is read at another theta's rep:
    # the elements are in the normalizer, so the re-expansion check on the
    # window is what refuses them
    composed, basis, struct = _pair_basis(3, 40)
    reps = basis.coset_reps
    rotated = dataclasses.replace(basis, coset_reps=(*reps[1:], reps[0]))
    one, zero = UnitMonomial.one(F), (0, 0)
    elems = [SmallHeisElement(one, g, zero) for g in struct.kappa_generators]
    elems.append(gamma_lift(composed, (1, 0))[0])
    for elem in elems:
        assert normalizer_membership(composed, elem.c, elem.xi, elem.gamma)
        act_on_theta(composed, elem, basis, 3, 40)
        with pytest.raises(NotInNormalizer, match="re-expand"):
            act_on_theta(composed, elem, rotated, 3, 40)


def test_re_expansion_compares_at_the_order_both_sides_know(monkeypatch):
    # a gamma lift's matrix entries have negative valuation, so where a basis
    # coefficient is empty its product m * b is still known only to
    # b.trunc + val(m): act_on_theta compares at the order the plain sum over
    # every nonzero entry would know, without building the empty products
    composed, basis, _struct = _pair_basis(3, 40)
    elem = gamma_lift(composed, (1, 0))[0]
    seen = []
    equal = ScalarSeries.equal_to_order

    def spy(self, other, order):
        seen.append(order)
        return equal(self, other, order)

    with monkeypatch.context() as mp:
        mp.setattr(ScalarSeries, "equal_to_order", spy)
        M = act_on_theta(composed, elem, basis, 3, 40)
    assert any(x.valuation() < 0 for row in M for x in row)
    # every (column, cell) pair: compared at the order the plain sum knows,
    # unless the acted value and every basis value it re-expands through have
    # no term there, where the comparison cannot fail and is skipped
    want, unfolded, kinds = [], [], collections.Counter()
    cells = basis.basis[0].window_cells(3)
    for j, theta in enumerate(basis.basis):
        acted = heis_act(elem.raw(composed.param), theta)
        for h in cells:
            full = nonempty = ScalarSeries.zero(F, 40)
            bs = [basis.basis[k].coeff(h, 40) for k in range(basis.dim) if not M[k][j].is_zero()]
            for k in range(basis.dim):
                if not M[k][j].is_zero():
                    b = basis.basis[k].coeff(h, 40)
                    full = full + M[k][j] * b
                    nonempty = nonempty + M[k][j] * b if b.terms else nonempty
            lhs = acted.coeff(h, 40)
            kinds[bool(lhs.terms), any(b.terms for b in bs)] += 1
            if lhs.terms or any(b.terms for b in bs):
                want.append(min(40, lhs.trunc, full.trunc))
                unfolded.append(min(40, lhs.trunc, nonempty.trunc))
    assert sum(kinds.values()) == basis.dim * len(cells)
    assert kinds[False, False] and kinds[True, True]
    assert seen == want
    assert want != unfolded  # some empty product lowers the order compared


def test_re_expansion_compares_where_only_the_acted_value_is_empty(monkeypatch):
    # with every acted value at the window cells replaced by an empty series
    # (the matrix entries kept), only the cells where no basis value has a
    # term may be skipped: the others re-expand to a nonzero sum and refuse
    composed, basis, struct = _pair_basis(3, 40)
    elem = SmallHeisElement(UnitMonomial.one(F), struct.kappa_generators[0], (0, 0))
    per = basis.dim + len(basis.basis[0].window_cells(3))  # a column's entries, then its acted values
    calls = []
    scale = ScalarSeries.scale

    def emptied(self, mono, cap=INF):
        calls.append(None)
        out = scale(self, mono, cap)
        return out if (len(calls) - 1) % per < basis.dim else ScalarSeries.zero(F, out.trunc)

    act_on_theta(composed, elem, basis, 3, 40)
    monkeypatch.setattr(ScalarSeries, "scale", emptied)
    with pytest.raises(NotInNormalizer, match="re-expand"):
        act_on_theta(composed, elem, basis, 3, 40)

def test_action_group_law_mod_center():
    L2 = level2()
    tb = theta_dim_basis(L2, window=6, order=120)
    order = 60
    a = gamma_lift(L2, (1,))[0]
    b = SmallHeisElement(UnitMonomial.one(F), minus_one_point(), (0,))
    ma = act_on_theta(L2, a, tb, window=3, order=order)
    mb = act_on_theta(L2, b, tb, window=3, order=order)
    ab_raw = heis_mul(a.raw(P1), b.raw(P1))
    ab = SmallHeisElement(ab_raw.c, ab_raw.x, ab_raw.g)
    mab = act_on_theta(L2, ab, tb, window=3, order=order)
    # M(ab) == M(a) M(b) exactly (the raw product tracks the scalar)
    n = tb.dim
    for i in range(n):
        for j in range(n):
            acc = ScalarSeries.zero(F, order)
            for k in range(n):
                acc = acc + ma[i][k] * mb[k][j]
            eff = min(order, acc.trunc, mab[i][j].trunc)
            assert mab[i][j].equal_to_order(acc, eff)


def test_commutant_is_scalar():
    L2 = level2()
    tb = theta_dim_basis(L2, window=6, order=120)
    order = 60
    mats = []
    for e in [
        SmallHeisElement(UnitMonomial.one(F), minus_one_point(), (0,)),
        gamma_lift(L2, (1,))[0],
    ]:
        mats.append(act_on_theta(L2, e, tb, window=3, order=order))
    assert commutant_dimension(mats, F) == 1


def test_mumford_theta_pullback():
    L = jacobi()
    tb = theta_dim_basis(L, window=6, order=200)
    th = tb.basis[0]
    pulled, pulled_mult, ok = mumford_theta_pullback(L, th, th, window=3, order=40)
    assert ok
    # M*(theta box theta) coefficient at (a, b): q^((a^2+b^2)/2) when a == b mod 2
    for a in range(-3, 4):
        for b in range(-3, 4):
            c = pulled.coeff((a, b), 40)
            if (a - b) % 2 == 0:
                e = a * a + b * b  # u-exponent: 2*(a^2+b^2)/2
                if e <= 40:
                    assert c == ScalarSeries(F, {e: F.one()}, 40)
            else:
                assert c.is_zero()
    # the doubling map reindexes injectively: cell (0,0) sees only the
    # (h,g) = (0,0) coefficient
    c00 = pulled.coeff((0, 0), 40)
    assert c00 == ScalarSeries.one(F).truncate(40)


def test_mumford_twist_invariance():
    f4 = CycloField(4)
    p = QuantParam.trivial(f4, 1)
    img = HeisElement(p, UnitMonomial.q_power(f4, 1), TorusPoint.from_q_exps(f4, [2]), (1,))
    L = multiplier_new(p, [img], [[UnitMonomial.q_power(f4, 1)]])
    tb = theta_dim_basis(L, window=6, order=200)
    th = tb.basis[0]
    plain, _, ok1 = mumford_theta_pullback(L, th, th, window=3, order=40)
    twisted_half = QuantParam(f4, p.lattice, ((0,),), ((1,),))
    tw, _, ok2 = mumford_theta_pullback(L, th, th, window=3, order=40, half_param=twisted_half)
    assert ok1 and ok2
    for a in range(-3, 4):
        for b in range(-3, 4):
            assert plain.coeff((a, b), 40) == tw.coeff((a, b), 40)


def test_injectivity_check_catches_combined_collapse():
    # each kernel generator alone has an infinite-order point, but their sum
    # collapses: x_l(k1 + k2) is the identity
    from qtheta.errors import NonInjectiveImage
    from qtheta.smallheis import _check_injective_image

    p2 = QuantParam.trivial(F, 2)
    img1 = HeisElement(p2, q_mono(1), TorusPoint.from_q_exps(F, [2, 0]), (1, 0))
    k1 = HeisElement(p2, q_mono(0), TorusPoint.from_q_exps(F, [0, 1]), (0, 0))
    k2 = HeisElement(p2, q_mono(0), TorusPoint.from_q_exps(F, [0, -1]), (0, 0))
    L = multiplier_new(p2, [img1, k1, k2])
    with pytest.raises(NonInjectiveImage):
        _check_injective_image(L)
    # with independent kernel points the injectivity hypothesis holds
    k3 = HeisElement(p2, q_mono(0), TorusPoint.from_q_exps(F, [0, 2]), (0, 0))
    L_ok = multiplier_new(p2, [img1, k1, k3])
    with pytest.raises(NonInjectiveImage):
        # k1, k3 are dependent (uexp vectors (0,1) and (0,2) have a kernel
        # combination 2*k1 - k3)
        _check_injective_image(L_ok)
    k4 = HeisElement(p2, q_mono(1), TorusPoint.from_q_exps(F, [0, 1]), (0, 0))
    L_good = multiplier_new(p2, [img1, k4])
    _check_injective_image(L_good)
