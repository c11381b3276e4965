"""Theta multipliers and their theta spaces.

A multiplier is a homomorphism from a free abelian period group B into the
large Heisenberg group, presented by its generator images.  Validation
reduces to finitely many checks: generator images must commute (the
coefficient cocycle), the structure pairing

    <b1, b2> = h-(b2)(x_l(b1)) * alpha(h-(b1), h-(b2))

must be symmetric, and optional square-root data must square to it.  Theta
functions are the invariants of the image; their coefficients satisfy a
unit-monomial recurrence over the cosets of h-(B) in H.  On each coset its
solution is a quadratic character of B, a :class:`~qtheta.series.GaussRule`
fitted from a few recurrence steps and proven by a finite check.  That
yields exact dimension counts and canonical bases of pure Gauss factors,
and, when the valuation of <b, b> grows positive definitely (ampleness),
properness certificates: the rule's u-form, the exact valuation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .errors import (
    CocycleFailure,
    DimensionMismatch,
    IncompatibleForm,
    InfiniteIndex,
    NoLift,
    NoMonomialRoot,
    NonSymmetricPairing,
    NotComposable,
    ParamMismatch,
    PrecisionShortfall,
    SqrtMismatch,
)
from .gauss import GaussRule, _newton_points
from .heisenberg import HeisElement, HeisRaw, TorusMorphism, compose as heis_compose, heis_act
from .intlinalg import (
    INFINITE,
    Lattice,
    LatticeMap,
    QuotientData,
    Vec,
    identity,
    is_positive_definite,
    mat_vec,
    quotient_data,
    smith,
    vec_add,
    vec_neg,
    vec_sub,
    zero_vec,
)
from .scalars import UnitMonomial
from .series import TorusSeries, _prove_by_translation, series_equal_on_cells
from .torus import QuantParam, TorusPoint, smith_root


class Multiplier:
    """Homomorphism B = Z^r -> G(H, alpha), stored on generators."""

    def __init__(
        self,
        param: QuantParam,
        images: Sequence[HeisElement],
        sqrt_pairing: Optional[Sequence[Sequence[UnitMonomial]]] = None,
    ):
        self.param = param
        self.images = tuple(images)
        self.rank = len(self.images)
        self.B = Lattice(self.rank)
        self.sqrt_pairing = (
            tuple(tuple(row) for row in sqrt_pairing) if sqrt_pairing is not None else None
        )
        self._image_cache: dict[Vec, HeisElement] = {}
        self._pairing_cache: dict[tuple[int, int], UnitMonomial] = {}
        self._quotient: Optional[QuotientData] = None
        self._validate()

    # -- validation ------------------------------------------------------------

    def _validate(self):
        for img in self.images:
            if img.param != self.param:
                raise ParamMismatch("generator image over a different torus")
        r = self.rank
        for i in range(r):
            for j in range(r):
                if self.pairing_on_basis(i, j) != self.pairing_on_basis(j, i):
                    raise NonSymmetricPairing(
                        f"structure pairing not symmetric at ({i}, {j})"
                    )
        for i in range(r):
            for j in range(i + 1, r):
                a, b = self.images[i], self.images[j]
                if a.mul(b) != b.mul(a):
                    raise CocycleFailure(
                        f"generator images {i} and {j} do not commute"
                    )
        if self.sqrt_pairing is not None:
            if len(self.sqrt_pairing) != r or any(len(row) != r for row in self.sqrt_pairing):
                raise DimensionMismatch("sqrt pairing must be r x r")
            for i in range(r):
                for j in range(r):
                    if self.sqrt_pairing[i][j] != self.sqrt_pairing[j][i]:
                        raise SqrtMismatch("sqrt pairing must be symmetric")
                    if self.sqrt_pairing[i][j] ** 2 != self.pairing_on_basis(i, j):
                        raise SqrtMismatch(
                            f"sqrt pairing squared differs from <b_{i}, b_{j}>"
                        )

    # -- generator data ----------------------------------------------------------

    def pairing_on_basis(self, i: int, j: int) -> UnitMonomial:
        # <b_i, b_j> = h-(b_j)(x_l(b_i)) alpha(h-(b_i), h-(b_j)), cached per (i, j)
        hit = self._pairing_cache.get((i, j))
        if hit is None:
            gi, gj = self.images[i], self.images[j]
            hit = self._pairing_cache[i, j] = gi.x_l.eval(gj.h_l) * self.param.alpha(gi.h_l, gj.h_l)
        return hit

    def image(self, b: Vec) -> HeisElement:
        b = tuple(b)
        hit = self._image_cache.get(b)
        if hit is not None:
            return hit
        acc = HeisElement.identity(self.param)
        for i, coord in enumerate(b):
            if coord:
                acc = acc.mul(self.images[i] ** coord)
        self._image_cache[b] = acc
        return acc

    @cached_property
    def h_minus_matrix(self):
        """d x r matrix with columns h-(b_i)."""
        d = self.param.rank
        return tuple(tuple(self.images[j].h_l[i] for j in range(self.rank)) for i in range(d))

    @cached_property
    def _recurrence(self) -> tuple:
        """(K_i, P_i) per generator, with the recurrence factor f_i(h) = K_i P_i(h):
        K_i = c_i^-1 <b_i, b_i> and P_i = x_l(b_i)^-1 A_(h-(b_i)), as h(A_g) = alpha(h, g)."""
        return tuple((img.c.inverse() * self.pairing_on_basis(i, i),
                      img.x_l.inverse() * self.param.hidden_point(img.h_l))
                     for i, img in enumerate(self.images))

    def h_minus(self, b: Vec) -> Vec:
        return mat_vec(self.h_minus_matrix, b)

    def h_minus_map(self) -> LatticeMap:
        return LatticeMap(self.h_minus_matrix)

    def x_l(self, b: Vec) -> TorusPoint:
        return self.image(b).x_l

    def c_l(self, b: Vec) -> UnitMonomial:
        return self.image(b).c

    def x_l_generators(self) -> tuple[TorusPoint, ...]:
        return tuple(img.x_l for img in self.images)

    def x_r_generators(self) -> tuple[TorusPoint, ...]:
        return tuple(img.x_r for img in self.images)

    # -- quotient and ampleness -----------------------------------------------------

    def quotient(self) -> QuotientData:
        """Cached: the cosets of h-(B) in the lattice, built once."""
        if self._quotient is None:
            self._quotient = quotient_data(self.param.lattice, self.h_minus_map())
        return self._quotient

    def index(self):
        return self.quotient().index

    def valuation_form(self):
        r = self.rank
        return [
            [self.pairing_on_basis(i, j).uexp for j in range(r)] for i in range(r)
        ]

    def is_ample(self) -> bool:
        if self.index() == INFINITE:
            return False
        return is_positive_definite(self.valuation_form())

    def is_symmetric(self) -> bool:
        """psi_l takes values in +/-1 (equivalently c_{l,b} == c_{l,-b})."""
        af = self.automorphy_factors()
        for v in af.psi_l:
            if not (v.uexp == 0 and (v.coeff * v.coeff).is_one()):
                return False
        return True

    def automorphy_factors(self) -> "AutomorphyFactors":
        if self.sqrt_pairing is None:
            raise SqrtMismatch("automorphy factors need square-root pairing data")
        psi_l = tuple(
            self.images[i].c * self.sqrt_pairing[i][i].inverse() for i in range(self.rank)
        )
        psi_r = tuple(
            self.param.epsilon(self.images[i].h_l) * psi_l[i] for i in range(self.rank)
        )
        return AutomorphyFactors(
            psi_l=psi_l,
            psi_r=psi_r,
            sqrt_pairing=self.sqrt_pairing,
            x_l=self.x_l_generators(),
            x_r=self.x_r_generators(),
            h_l=tuple(img.h_l for img in self.images),
            h_r=tuple(img.h_r for img in self.images),
        )

    def __repr__(self):
        return f"Multiplier(rank={self.rank}, H-rank={self.param.rank})"


@dataclass(frozen=True)
class AutomorphyFactors:
    psi_l: tuple
    psi_r: tuple
    sqrt_pairing: tuple
    x_l: tuple
    x_r: tuple
    h_l: tuple
    h_r: tuple


@dataclass
class ThetaBasis:
    multiplier: Multiplier
    dim: int
    coset_reps: tuple[Vec, ...]
    basis: list  # TorusSeries, one per consistent coset
    inconsistent: list  # (rep, reason) for cosets killed by the recurrence
    window: int
    order: object


# ---------------------------------------------------------------------------
# construction and operations


def multiplier_new(
    param: QuantParam,
    images: Sequence[HeisElement],
    sqrt_pairing: Optional[Sequence[Sequence[UnitMonomial]]] = None,
) -> Multiplier:
    return Multiplier(param, images, sqrt_pairing)


def structure_pairing(L: Multiplier, b1: Vec, b2: Vec) -> UnitMonomial:
    g1, g2 = L.image(b1), L.image(b2)
    return g1.x_l.eval(g2.h_l) * L.param.alpha(g1.h_l, g2.h_l)


def _recurrence_factor(L: Multiplier, i: int, h: Vec) -> UnitMonomial:
    """a_{h - h-(e_i)} = a_h * factor(e_i, h), straight from the invariance
    equations: c_i^-1 <b_i, b_i> x_l(b_i)(h)^-1 alpha(h, h-(b_i)), read
    off the generator's cached constant and point."""
    const, point = L._recurrence[i]
    return const * point.eval(h)


def _theta_rule(L: Multiplier, rep: Vec) -> GaussRule:
    """The basis theta's coefficient phi(b) at rep - h-(b) as a Gauss rule
    in b: the solution of phi(b + e_i) = phi(b) f_i(b) with phi(0) = 1,
    where f_i(b) is the recurrence factor at rep - h-(b).

    Each f_i(b) = f_i(0) prod_k G_ik^(b_k) has exponents affine in b, so
    phi(b) = prod_i f_i(0)^(b_i) G_ii^(b_i(b_i-1)/2) prod_{i<j} G_ji^(b_i b_j).
    A base's u-exponent enters the u-form, a base -1 the sign form and any
    other coefficient a character.  The steps f_i(b) at b = 0 and each e_k
    give the bases, and prove the rule before it is returned
    (:func:`_check_recurrence`).
    """
    r = L.rank
    steps = [[_recurrence_factor(L, i, vec_sub(rep, L.h_minus(b))) for i in range(r)]
             for b in (zero_vec(r), *identity(r))]
    f0 = steps[0]
    bases = [(f0[i], [(i, r, 2)]) for i in range(r)]  # (base, exponent form)
    for i in range(r):
        for j in range(i, r):
            form = [(i, i, 1), (i, r, -1)] if i == j else [(i, j, 2)]
            bases.append((steps[i + 1][j] / f0[j], form))
    uform, sform, chars = [], [], []
    for base, form in bases:
        uform += [(a, b, base.uexp * x) for a, b, x in form]
        if (-base.coeff).is_one():
            sform += form
        elif not base.coeff.is_one():
            chars.append((base.coeff, form))
    rule = GaussRule(r, L.param.field.one(), uform, sform, chars)
    _check_recurrence(rep, rule, steps)
    return rule


def _check_recurrence(rep: Vec, rule: GaussRule, steps: list):
    """Raise unless rule(b + e_i) = rule(b) f_i(b) at b = 0 and every b = e_k,
    where steps[0][i] = f_i(0) and steps[k + 1][i] = f_i(e_k).

    Both sides are unit monomials with exponents affine in b, so their
    quotient is C prod_k beta_k^(b_k), and agreement at these r + 1 points is
    agreement on all of B.  As rule(0) = 1, the rule is then the recurrence's
    solution everywhere, which also proves the recurrence path independent.
    The rule is evaluated at the Newton points in one call.
    """
    pts = _newton_points(rule.n)
    e = pts[1 : rule.n + 1]
    at = {b: UnitMonomial(c, x) for b, (c, x) in zip(pts, rule.values(pts))}
    for b, row in zip(pts, steps):  # pts opens with the starts b = 0, e_0, ..., e_(r-1)
        for i, f in enumerate(row):
            if at[vec_add(b, e[i])] != at[b] * f:
                raise CocycleFailure(
                    f"theta recurrence of coset {rep} fails at generator {i} from {b}"
                )


def theta_dim_basis(L: Multiplier, window: int = 6, order=40) -> ThetaBasis:
    """Dimension and canonical basis of the theta space.

    Basis elements are normalized to coefficient 1 at their canonical coset
    representative; all other coefficients follow the recurrence.  With a
    non-injective h- the recurrence may be overdetermined: offending cosets
    are dropped (the reported dimension shrinks accordingly).  ``window``
    and ``order`` do not change the basis, whose series are exact rules;
    they are only stored on the result and remain for positional callers.
    """
    quot = L.quotient()
    if quot.index == INFINITE:
        raise InfiniteIndex("theta basis needs a finite coset index")
    hm = L.h_minus_matrix
    # h-'s preimage columns map onto a basis of h-(B) inside H; its kernel
    # columns span ker(h-)
    s = smith(hm, L.rank)
    pre, kern = s.pre, s.kernel
    img_cols = [mat_vec(hm, b) for b in pre]
    inconsistent = []
    consistent_reps = []
    for rep in quot.coset_reps:
        reason = None
        for k in kern:
            img = L.image(k)
            # [c; x, 0, 0] scales a_h by c*h(x); invariance forces c*h(x) = 1
            # on the whole coset, i.e. constant along image translates too.
            for col in img_cols:
                if not img.x.eval(col).is_one():
                    reason = f"kernel element {k} has non-periodic point part"
                    break
            if reason:
                break
            if not (img.c * img.x.eval(rep)).is_one():
                reason = f"kernel element {k} scales coset {rep} by a nonunit"
                break
        if reason is None:
            consistent_reps.append(rep)
        else:
            inconsistent.append((rep, reason))

    # each basis theta is one Gauss factor in image coordinates y, taken at
    # b = sum_k y_k pre_k; its u-form is the exact valuation certificate, and
    # bounds a sum only when L is ample
    basis = []
    for rep in consistent_reps:
        rule = _theta_rule(L, rep).compose(zero_vec(L.rank), pre)
        gens = [vec_neg(c) for c in img_cols]
        label = f"theta[{rep}]"
        theta = TorusSeries.rule(L.param, rep, gens, None, label=label, gauss=rule)
        basis.append(theta)
    return ThetaBasis(
        multiplier=L,
        dim=len(basis),
        coset_reps=tuple(consistent_reps),
        basis=basis,
        inconsistent=inconsistent,
        window=window,
        order=order,
    )


def theta_membership(L: Multiplier, series: TorusSeries, cells, order) -> bool:
    """Invariance of ``series`` under every generator image: proved on the
    whole lattice when the acted word is the series translated
    (:func:`~qtheta.series._prove_by_translation` with constant 1), else
    compared on the cells.  The series' own table is filled and must be
    known to ``order`` at every cell either way."""
    cells = [*map(tuple, cells)]
    table = series._table(cells, order)
    for h in cells:
        if table[h].trunc < order:
            raise PrecisionShortfall(
                f"cannot compare to order {order}: known only to {table[h].trunc} at cell {h}"
            )
    for img in L.images:
        acted = heis_act(img, series)
        c = _prove_by_translation(acted, series)
        if (c is None or not c.is_one()) and not series_equal_on_cells(acted, series, cells, order):
            return False
    return True


# -- operations -----------------------------------------------------------------


def power(L: Multiplier, n: int) -> Multiplier:
    """L^n over the same parameter, via the n-th scaling homomorphism
    applied to the alpha^n-twist of L."""
    p = L.param
    new_images = []
    for img in L.images:
        ah = p.hidden_point(img.h_l)
        new_images.append(
            HeisElement(
                p,
                img.c**n,
                img.x * ah ** (n - 1),
                tuple(n * x for x in img.h_l),
            )
        )
    sqrt = None
    if L.sqrt_pairing is not None:
        sqrt = tuple(
            tuple(L.sqrt_pairing[i][j] ** n for j in range(L.rank)) for i in range(L.rank)
        )
    return Multiplier(p, new_images, sqrt)


def boxtimes(L1: Multiplier, L2: Multiplier) -> Multiplier:
    """External product on the direct-sum torus."""
    p = L1.param.direct_sum(L2.param)
    d1, d2 = L1.param.rank, L2.param.rank
    f = L1.param.field

    def lift1(img: HeisElement) -> HeisElement:
        x = TorusPoint(img.x.values + tuple(UnitMonomial.one(f) for _ in range(d2)))
        return HeisElement(p, img.c, x, img.h_l + zero_vec(d2))

    def lift2(img: HeisElement) -> HeisElement:
        x = TorusPoint(tuple(UnitMonomial.one(f) for _ in range(d1)) + img.x.values)
        return HeisElement(p, img.c, x, zero_vec(d1) + img.h_l)

    images = [lift1(i) for i in L1.images] + [lift2(i) for i in L2.images]
    sqrt = None
    if L1.sqrt_pairing is not None and L2.sqrt_pairing is not None:
        r1, r2 = L1.rank, L2.rank
        one = UnitMonomial.one(f)
        sqrt = []
        for i in range(r1 + r2):
            row = []
            for j in range(r1 + r2):
                if i < r1 and j < r1:
                    row.append(L1.sqrt_pairing[i][j])
                elif i >= r1 and j >= r1:
                    row.append(L2.sqrt_pairing[i - r1][j - r1])
                else:
                    row.append(one)
            sqrt.append(tuple(row))
        sqrt = tuple(sqrt)
    return Multiplier(p, images, sqrt)


def boxtimes_series(a: TorusSeries, b: TorusSeries) -> TorusSeries:
    """External product of functions: coefficient at (h, g) is a_h * b_g."""
    p = a.param.direct_sum(b.param)
    za, zb = zero_vec(a.param.rank), zero_vec(b.param.rank)
    left = a.pullback(p, lambda h: h + zb)
    right = b.pullback(p, lambda g: za + g)
    return TorusSeries(p, left.factors + right.factors, f"({a.label})box({b.label})")


def pullback(F: TorusMorphism, L: Multiplier) -> Multiplier:
    """F^*(L): the pulled-back multiplier on the source torus of F^*.

    Generator images [c a_{h}; x', f(h), 0] where x' is the canonical
    monomial solution of x'(f(k)) = x_l(k) for all k (Smith roots, see
    :func:`~qtheta.torus.smith_root`).  There is none, and ``NoLift`` is
    raised, when some x_l is not 1 on ker f or a root is missing.
    """
    if L.param != F.source_param:
        raise ParamMismatch("multiplier does not live on the morphism's function source")
    if not F.is_characteristic_trivial():
        raise IncompatibleForm("pullback needs multiplicative scalar data")
    p2 = F.target_param
    s = smith(F.f.matrix, L.param.rank)

    def missing(d, value, exc):
        return NoLift(f"no monomial lift for generator image: {exc}")

    new_images = []
    for img in L.images:
        # phi is induced by f alone; the scalar data enters the coefficient
        # slot, not the point
        xprime = smith_root(s, img.x.eval, p2.field, missing)
        if xprime is None:
            raise NoLift(f"generator image point {img.x} is not 1 on ker f")
        new_images.append(
            HeisElement.from_raw(
                HeisRaw(
                    p2,
                    img.c * F.a_value(img.h_l),
                    xprime,
                    F.f(img.h_l),
                    zero_vec(p2.rank),
                )
            )
        )
    # the pulled-back pairing equals the original one
    return Multiplier(p2, new_images, L.sqrt_pairing)


def _check_composable(L2: Multiplier, L1: Multiplier):
    """Raise unless L2's right periods match L1's left periods on a common
    torus and period group."""
    if L2.param != L1.param or L2.rank != L1.rank:
        raise ParamMismatch("composition needs a common torus and period group")
    for i in range(L2.rank):
        if L2.images[i].x_r != L1.images[i].x_l:
            raise NotComposable(L2.images[i].x_r, L1.images[i].x_l, where=f"generator {i}")


def compose(L2: Multiplier, L1: Multiplier) -> Multiplier:
    """Pointwise composition b -> L2(b) o L1(b) (right periods of L2 must
    match left periods of L1).

    With both square-root pairings, the composition's is their product
    times alpha(h1_i, h2_i) on the diagonal and a root of alpha(h1_j, h2_i)
    alpha(h1_i, h2_j) off it, which squares to
    :func:`composed_pairing_formula`; it is left out when such a root is
    not a monomial."""
    _check_composable(L2, L1)
    p, r = L1.param, L1.rank
    images = [heis_compose(a, b) for a, b in zip(L2.images, L1.images)]
    sqrt = None
    if L1.sqrt_pairing is not None and L2.sqrt_pairing is not None:
        h1, h2 = [img.h_l for img in L1.images], [img.h_l for img in L2.images]

        def gamma(i, j):
            if i == j:
                return p.alpha(h1[i], h2[i])
            return (p.alpha(h1[j], h2[i]) * p.alpha(h1[i], h2[j])).nth_root(2)

        try:
            sqrt = [[L1.sqrt_pairing[i][j] * L2.sqrt_pairing[i][j] * gamma(i, j) for j in range(r)] for i in range(r)]
        except NoMonomialRoot:
            pass  # no sqrt data
    return Multiplier(p, images, sqrt)


def composed_pairing_formula(L2: Multiplier, L1: Multiplier, b1: Vec, b2: Vec) -> UnitMonomial:
    """The closed-form structure pairing of the composition."""
    p = L1.param
    return (
        structure_pairing(L2, b1, b2)
        * structure_pairing(L1, b1, b2)
        * p.alpha(L1.image(b2).h_l, L2.image(b1).h_l)
        * p.alpha(L1.image(b1).h_l, L2.image(b2).h_l)
    )


def theta_product(
    L2: Multiplier,
    L1: Multiplier,
    th2: TorusSeries,
    th1: TorusSeries,
    window: int,
    order,
) -> TorusSeries:
    """Product th1 * th2 of invariants, a theta for the composition."""
    _check_composable(L2, L1)
    prod = th1.mul(th2)
    return prod.materialize(prod.window_cells(window), order)


def hidden_from_morphism(
    param: QuantParam,
    fmap: LatticeMap,
    chi: Sequence[UnitMonomial],
    hl_map: Optional[LatticeMap] = None,
) -> Multiplier:
    """Multipliers with hidden periods: b -> [chi(b); 1, h_l(b), f(h_l(b))].

    ``fmap`` must be compatible with the squared pairing (the alternating
    form of the data takes values +/-1).
    """
    d = param.rank
    if hl_map is None:
        hl_map = LatticeMap.identity(d)
    r = hl_map.source_rank
    if len(chi) != r:
        raise DimensionMismatch("need one character value per generator")
    basis = [tuple(1 if i == j else 0 for j in range(r)) for i in range(r)]
    hls = [hl_map(b) for b in basis]
    hrs = [fmap(h) for h in hls]
    for i in range(r):
        for j in range(r):
            form = param.alpha(hls[i], hls[j]) * param.alpha(hrs[i], hrs[j]).inverse()
            if form.uexp != 0 or not (form.coeff * form.coeff).is_one():
                raise IncompatibleForm(
                    f"alternating form is not a sign on generators ({i}, {j})"
                )
    images = []
    ident = TorusPoint.identity(param.field, d)
    for i in range(r):
        raw = HeisRaw(param, chi[i], ident, hls[i], hrs[i])
        images.append(HeisElement.from_raw(raw))
    return Multiplier(param, images, None)


def pic_hom(
    xi: Sequence[TorusPoint],
    eta: Sequence[TorusPoint],
    candidates: Sequence[Multiplier],
    ample_only: bool = False,
) -> list[Multiplier]:
    """Multipliers with right period map xi and left period map eta."""
    out = []
    for L in candidates:
        if L.x_r_generators() == tuple(xi) and L.x_l_generators() == tuple(eta):
            if ample_only and not L.is_ample():
                continue
            out.append(L)
    return out
