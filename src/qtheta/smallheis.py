"""Small Heisenberg groups: normalizers of multiplier images.

For a multiplier L with finite coset index, the elements [c; xi, gamma, 0]
normalizing the image are cut out by one monomial equation per generator:

    h-(b)(xi) = gamma(x_l(b)) * alpha^2(h-(b), gamma).

Modulo scalars the normalizer is an extension of H/h-(B) by the finite dual
group K of torus points killed on h-(B); the evaluation pairing between the
two is a perfect duality valued in roots of unity, read off the Smith form
U h- V = D that K and the cosets share.  This module computes the
structure, solves the lifting equations, splits theta spaces into character
lines, computes action matrices on canonical bases, and implements the
doubling-morphism pullback of pairs of thetas.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    DimensionDeficit,
    InfiniteIndex,
    MissingRootsOfUnity,
    NonInjectiveImage,
    NotAmple,
    NotInNormalizer,
    NotSymmetric,
    ParamMismatch,
)
from .heisenberg import HeisRaw, heis_mul, mumford_morphism
from .intlinalg import INFINITE, QuotientData, Vec, mat_vec, smith, vec_sub, zero_vec
from .multiplier import Multiplier, ThetaBasis, boxtimes, boxtimes_series, pullback, theta_membership
from .scalars import CycloField, CycloRational, ScalarSeries, UnitMonomial
from .series import GaussRule, TorusSeries
from .torus import QuantParam, TorusPoint, smith_root


@dataclass(frozen=True)
class SmallHeisElement:
    """Left representative [c; xi, gamma, 0] of a normalizer element."""

    c: UnitMonomial
    xi: TorusPoint
    gamma: Vec

    def raw(self, param: QuantParam) -> HeisRaw:
        return HeisRaw(param, self.c, self.xi, tuple(self.gamma), zero_vec(param.rank))


@dataclass
class SmallHeisStructure:
    multiplier: Multiplier
    kappa_generators: tuple[TorusPoint, ...]
    kappa_orders: tuple[int, ...]
    quotient: QuotientData
    duality: dict  # (kappa index tuple, coset index) -> root-of-unity exponent
    torsion_order: int  # exponents are relative to zeta of this order


def _check_injective_image(L: Multiplier):
    """The hypothesis of the normalizer description: L(B) -> T x H injective.

    Some nonzero b has h-(b) = 0 and x_l(b) = 1 iff the u-exponent map of
    x_l vanishes on a nonzero vector of ker(h-): torsion coefficient parts
    always die after raising to the torsion order.
    """
    kern = smith(L.h_minus_matrix, L.rank).kernel
    if not kern:
        return
    uexps = [L.x_l(k).uexp_vector() for k in kern]
    if smith(tuple(zip(*uexps)), len(kern)).kernel:
        raise NonInjectiveImage(
            "h- kernel carries finite-order period points; the image is not "
            "injective into T(H,1) x H"
        )


def normalizer_membership(
    L: Multiplier, c: UnitMonomial, xi: TorusPoint, gamma: Vec
) -> bool:
    """Evaluate the normalizer equations on all generators of B."""
    _check_injective_image(L)
    p = L.param
    for img in L.images:
        lhs = xi.eval(img.h_l)
        rhs = img.x_l.eval(gamma) * (p.alpha(img.h_l, gamma) ** 2)
        if lhs != rhs:
            return False
    return True


def _kernel_rows(L: Multiplier) -> tuple[list, list]:
    """The rows of U with d_i > 1 in U h- V = D, and those d_i: kernel
    generator i takes the value zeta_(d_i)^((U h)_i) at h."""
    s = smith(L.h_minus_matrix, L.rank)
    pivots = [(row, d) for row, d in zip(s.u, s.divisors) if d > 1]
    return [row for row, _d in pivots], [d for _row, d in pivots]


def kernel_group(L: Multiplier) -> tuple[tuple[TorusPoint, ...], tuple[int, ...]]:
    """Generators and orders of the points killed on h-(B)."""
    if L.quotient().index == INFINITE:
        raise InfiniteIndex("kernel group is finite only for finite index")
    field = L.param.field
    rows, orders = _kernel_rows(L)
    gens = []
    for row, dt in zip(rows, orders):
        if field.torsion_order % dt:
            raise MissingRootsOfUnity(dt)
        z = field.root_of_unity(dt)
        gens.append(TorusPoint(tuple(UnitMonomial(z ** (x % dt), 0) for x in row)))
    return tuple(gens), tuple(orders)


def gamma_lift(L: Multiplier, gamma: Vec) -> list[SmallHeisElement]:
    """All solutions xi of the lifting equations for the given gamma.

    The image of xi on h-(B) is uniquely determined; lifts to the full torus
    form a torsor over the kernel group.  c is normalized to 1.
    """
    _check_injective_image(L)
    if L.quotient().index == INFINITE:
        raise InfiniteIndex("gamma lifts need a finite coset index")
    p = L.param
    field = p.field

    def rhs(b):
        # gamma(x_l(b)) alpha^2(h-(b), gamma) is a homomorphism in b
        return L.x_l(b).eval(gamma) * (p.alpha(L.h_minus(b), gamma) ** 2)

    def missing(dt, value, exc):
        return MissingRootsOfUnity(
            dt * field.torsion_order, f"lifting needs a {dt}-th root of {value!r}"
        )

    base = smith_root(smith(L.h_minus_matrix, L.rank), rhs, field, missing)
    if base is None:
        return []  # no solution: equations inconsistent on the kernel
    lifts = [base]
    for gen, o in zip(*kernel_group(L)):  # base times each kernel element
        lifts = [xi * gen**a for xi in lifts for a in range(o)]
    return [SmallHeisElement(UnitMonomial.one(field), xi, tuple(gamma)) for xi in lifts]


def group_structure(L: Multiplier) -> SmallHeisStructure:
    """Kernel group, coset quotient and the evaluation duality table.

    Both groups are read off U h- V = D: kernel generator i (d_i > 1) takes
    the value zeta_{d_i}^{(U h)_i} at h, and U maps the coset reps onto the
    box 0 <= (U rep)_i < d_i, so kernel element k pairs with a coset rep to
    zeta_M^(sum_i k_i (M / d_i) (U rep)_i), a perfect duality.
    """
    _check_injective_image(L)
    quot = L.quotient()
    if quot.index == INFINITE:
        raise InfiniteIndex("small Heisenberg structure needs a finite index")
    gens, orders = kernel_group(L)
    M = L.param.field.torsion_order
    rows = _kernel_rows(L)[0]
    weights = [
        [(M // d) * x for x, d in zip(mat_vec(rows, rep), orders)] for rep in quot.coset_reps
    ]
    duality = {
        (kidx, ci): sum(k * x for k, x in zip(kidx, w)) % M
        for kidx in itertools.product(*(range(o) for o in orders))
        for ci, w in enumerate(weights)
    }
    return SmallHeisStructure(L, gens, orders, quot, duality, M)


def character_split(L: Multiplier, basis: ThetaBasis) -> dict:
    """Assign each basis theta its coset character under the kernel action.

    Returns {coset rep: tuple of duality exponents per kernel generator}.
    """
    index = L.index()
    if basis.dim < index:
        raise DimensionDeficit(f"dim {basis.dim} < index {index}: no full split")
    struct = group_structure(L)
    r = len(struct.kappa_orders)
    units = [tuple(int(t == i) for t in range(r)) for i in range(r)]
    return {
        rep: tuple(struct.duality[(k, struct.quotient.project(rep))] for k in units)
        for rep in basis.coset_reps
    }


def _action_rule(param: QuantParam, elem: SmallHeisElement) -> GaussRule:
    """mu with elem . e(k) = mu(k) e(k + gamma): mu(k) = c xi(k) alpha(gamma, k),
    the constant c times the character of k at the point xi A_gamma^-1."""
    d = param.rank
    point = elem.xi * param.hidden_point(elem.gamma).inverse()
    const = GaussRule(d, elem.c.coeff, [(d, d, 2 * elem.c.uexp)])
    return const.times(GaussRule.character(param.field, point.values))


def act_on_theta(
    L: Multiplier,
    elem: SmallHeisElement,
    basis: ThetaBasis,
    window: int,
    order,
) -> list[list[ScalarSeries]]:
    """Matrix of the induced action on the canonical theta basis.

    Entry [k][j] is the coefficient of the image of theta_j on theta_k.  The
    action is coefficientwise, so the acted theta_j at h is mu(h - gamma)
    theta_j(h - gamma) (:func:`_action_rule`), read off theta_j's own table:
    where mu has u-exponent e < 0, theta_j is read to ``order`` - e.  That
    table is filled in one pass per read order; the entries are its values
    at the coset reps, and the acted theta is re-expanded through them and
    checked on the window cells, where an empty product adds only its trunc
    and a cell with no term on either side is skipped.
    """
    if not normalizer_membership(L, elem.c, elem.xi, elem.gamma):
        raise NotInNormalizer("element fails the normalizer equations")
    n, field = basis.dim, L.param.field
    cells = basis.basis[0].window_cells(window)
    ks = [vec_sub(h, elem.gamma) for h in (*basis.coset_reps, *cells)]
    monos = [UnitMonomial(*v) for v in _action_rule(L.param, elem).values(ks)]
    reads = [order - min(0, m.uexp) for m in monos]
    passes: dict = {}  # read order -> cells
    for k, o in zip(ks, reads):
        passes.setdefault(o, []).append(k)
    matrix = [[None] * n for _ in range(n)]
    lhs = []
    for j, theta in enumerate(basis.basis):
        own = {o: theta._table(at, o) for o, at in passes.items()}
        for k in range(n):  # cache hits, counted as coeff reads
            matrix[k][j] = theta.coeff(ks[k], reads[k]).scale(monos[k], order)
        lhs.append([own[o][h].scale(m, order) for h, m, o in zip(ks[n:], monos[n:], reads[n:])])
    tables = [theta.coeffs(cells, order) for theta in basis.basis]
    zero = ScalarSeries.zero(field, order)
    for j in range(n):
        col = [(matrix[k][j], tables[k]) for k in range(n) if not matrix[k][j].is_zero()]
        for h, acted in zip(cells, lhs[j]):
            bs = [(m, table[h]) for m, table in col]
            if not acted.terms and not any(b.terms for _m, b in bs):
                continue  # two empty sides: the comparison cannot fail
            # entries may have negative valuation; compare at the order
            # both sides actually know
            rhs, eff = zero, min(order, acted.trunc)
            for m, b in bs:
                if b.terms:
                    rhs = rhs + m * b
                else:  # m * b has no term: only its trunc reaches the sum
                    eff = min(eff, m.mul_trunc(b))
            if not acted.equal_to_order(rhs, min(eff, rhs.trunc)):
                raise NotInNormalizer("acted theta does not re-expand in the basis")
    return matrix


def conjugate_generator(L: Multiplier, elem: SmallHeisElement, i: int) -> HeisRaw:
    """g^-1 L(b_i) g for a normalizer element g: equals L(b_i) exactly."""
    p = L.param
    g = elem.raw(p)
    img = L.images[i].left_raw()
    return heis_mul(heis_mul(g.inverse(), img), g)


def commutant_dimension(mats: Sequence[Sequence[Sequence[ScalarSeries]]], field: CycloField) -> int:
    """Dimension over Q(zeta) of matrices commuting with all given ones.

    Matrix entries must be unit monomials (or zero); commutation is imposed
    coefficientwise per u-exponent, giving an exact linear system for the
    unknown constant matrix.
    """
    n = len(mats[0])
    unknowns = n * n
    rows = []

    def entry_monomial(s: ScalarSeries):
        if s.is_zero():
            return None
        items = list(s.terms.items())
        if len(items) != 1:
            raise ValueError("action matrix entries must be monomials")
        return items[0]  # (uexp, coeff)

    for M in mats:
        mono = [[entry_monomial(M[i][j]) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                # sum_k T[i][k] M[k][j] - M[i][k] T[k][j] = 0, split by uexp
                by_exp: dict[int, dict[int, CycloRational]] = {}
                for k in range(n):
                    m1 = mono[k][j]
                    if m1 is not None:
                        e, c = m1
                        by_exp.setdefault(e, {}).setdefault(i * n + k, field.zero())
                        by_exp[e][i * n + k] = by_exp[e][i * n + k] + c
                    m2 = mono[i][k]
                    if m2 is not None:
                        e, c = m2
                        by_exp.setdefault(e, {}).setdefault(k * n + j, field.zero())
                        by_exp[e][k * n + j] = by_exp[e][k * n + j] - c
                for e, coeffs in by_exp.items():
                    row = [field.zero()] * unknowns
                    nonzero = False
                    for idx, c in coeffs.items():
                        row[idx] = c
                        nonzero = nonzero or not c.is_zero()
                    if nonzero:
                        rows.append(row)
    # Gaussian elimination over the cyclotomic field
    rank = 0
    ncols = unknowns
    rows = [r[:] for r in rows]
    for col in range(ncols):
        piv = None
        for r in range(rank, len(rows)):
            if not rows[r][col].is_zero():
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and not rows[r][col].is_zero():
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return unknowns - rank


def mumford_theta_pullback(
    L: Multiplier,
    th1: TorusSeries,
    th2: TorusSeries,
    window: int,
    order,
    half_param: Optional[QuantParam] = None,
):
    """M^*(th1 box th2) together with its membership report.

    The doubling morphism lives over a square root of L's parameter: the
    default half parameter has A/2 and no sign part; pass ``half_param`` to
    run a twisted variant (coefficient tables are identical by rigidity).
    """
    if not L.is_symmetric():
        raise NotSymmetric("doubling pullback needs a symmetric multiplier")
    if not L.is_ample():
        raise NotAmple("doubling pullback needs an ample multiplier")
    beta = L.param
    if half_param is None:
        if any(x % 2 for row in beta.A for x in row) or any(
            s for row in beta.S for s in row
        ):
            raise ParamMismatch("no canonical half parameter: A must be even, S zero")
        half = QuantParam(
            beta.field,
            beta.lattice,
            tuple(tuple(x // 2 for x in row) for row in beta.A),
            beta.S,
        )
    else:
        half = half_param
        if half.power(2) != beta:
            raise ParamMismatch("half parameter squared must equal the multiplier's")
    M = mumford_morphism(half)
    box_series = boxtimes_series(th1, th2)
    pulled = M.pullback_series(box_series)
    pulled_mult = pullback(M, boxtimes(L, L))
    ok = theta_membership(pulled_mult, pulled, pulled.window_cells(window), order)
    return pulled, pulled_mult, ok
