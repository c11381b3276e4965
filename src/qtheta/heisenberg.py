"""The large Heisenberg group of a quantum torus.

Elements are operators  Phi -> c e(g) x^*(Phi) e(h)^-1  on formal functions,
encoded as quadruples [c; x, g, h] with the explicit multiplication law.
The quotient by the kernel of the representation is the large Heisenberg
group; every class is stored by its canonical left representative
[c_l; x_l, h_l, 0].  This module implements the group law, the faithful
action, left/right/double-sided normal forms, the boundary-matching partial
composition (a groupoid), twisting isomorphisms between different
quantization parameters, the scaling homomorphisms, and torus morphisms with
their pullbacks and transport.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    DegenerateAlpha,
    DimensionMismatch,
    IncompatibleQuantization,
    Indivisible,
    LatticeMismatch,
    NotComposable,
    NotInImage,
    ParamMismatch,
)
from .intlinalg import LatticeMap, Vec, det, solve_integer, vec_add, vec_neg, vec_sub, zero_vec
from .scalars import INF, UnitMonomial
from .series import GaussRule, TorusSeries
from .torus import QuantParam, TorusPoint


@dataclass(frozen=True)
class HeisRaw:
    """A quadruple [c; x, g, h] acting as Phi -> c e(g) x^*(Phi) e(h)^-1."""

    param: QuantParam
    c: UnitMonomial
    x: TorusPoint
    g: Vec
    h: Vec

    def __post_init__(self):
        d = self.param.rank
        if len(self.g) != d or len(self.h) != d or self.x.rank != d:
            raise DimensionMismatch("component rank mismatch")

    @classmethod
    def identity(cls, param: QuantParam) -> "HeisRaw":
        return cls(
            param,
            UnitMonomial.one(param.field),
            TorusPoint.identity(param.field, param.rank),
            zero_vec(param.rank),
            zero_vec(param.rank),
        )

    def action_on_exponent(self, k: Vec) -> tuple[UnitMonomial, Vec]:
        """Image of e(k): returns (coefficient, new exponent)."""
        p = self.param
        coeff = (
            self.c
            * self.x.eval(k)
            * p.alpha(self.g, k)
            * p.epsilon(self.h)
            * p.alpha(vec_add(self.g, k), self.h).inverse()
        )
        return coeff, vec_sub(vec_add(k, self.g), self.h)

    def inverse(self) -> "HeisRaw":
        p = self.param
        c = (
            self.c.inverse()
            * self.x.eval(self.g)
            * self.x.eval(self.h).inverse()
            * p.epsilon(self.g)
            * p.epsilon(self.h)
        )
        return HeisRaw(p, c, self.x.inverse(), vec_neg(self.g), vec_neg(self.h))


def heis_mul(a: HeisRaw, b: HeisRaw) -> HeisRaw:
    """[c'; x', g', h'] . [c; x, g, h] with a primed, b unprimed."""
    if a.param != b.param:
        raise ParamMismatch("product of elements over different tori")
    p = a.param
    c = (
        a.c
        * b.c
        * a.x.eval(b.g)
        * a.x.eval(b.h).inverse()
        * p.alpha(a.g, b.g)
        * p.alpha(a.h, b.h).inverse()
    )
    return HeisRaw(p, c, b.x * a.x, vec_add(a.g, b.g), vec_add(a.h, b.h))


class HeisElement:
    """A Heisenberg class in left-representative normal form [c; x, h, 0]."""

    __slots__ = ("param", "c", "x", "h", "_hash")

    def __init__(self, param: QuantParam, c: UnitMonomial, x: TorusPoint, h: Vec):
        self.param = param
        self.c = c
        self.x = x
        self.h = tuple(h)
        self._hash = None

    # -- normal forms ----------------------------------------------------------

    @classmethod
    def from_raw(cls, raw: HeisRaw) -> "HeisElement":
        p = raw.param
        c = raw.c * p.alpha(raw.h, raw.g) * p.epsilon(raw.h)
        x = raw.x * (p.hidden_point(raw.h) ** -2)
        return cls(p, c, x, vec_sub(raw.g, raw.h))

    @classmethod
    def identity(cls, param: QuantParam, x: Optional[TorusPoint] = None) -> "HeisElement":
        return cls(
            param,
            UnitMonomial.one(param.field),
            x if x is not None else TorusPoint.identity(param.field, param.rank),
            zero_vec(param.rank),
        )

    def left_raw(self) -> HeisRaw:
        return HeisRaw(self.param, self.c, self.x, self.h, zero_vec(self.param.rank))

    def right_raw(self) -> HeisRaw:
        """Right representative via h_l = -h_r, x_r = x_l A_{h_l}^-2, c_r = c_l eps."""
        p = self.param
        return HeisRaw(
            p,
            self.c * p.epsilon(self.h),
            self.x * (p.hidden_point(self.h) ** -2),
            zero_vec(p.rank),
            vec_neg(self.h),
        )

    @property
    def x_l(self) -> TorusPoint:
        return self.x

    @property
    def x_r(self) -> TorusPoint:
        return self.x * (self.param.hidden_point(self.h) ** -2)

    @property
    def h_l(self) -> Vec:
        return self.h

    @property
    def h_r(self) -> Vec:
        return vec_neg(self.h)

    # -- group structure ---------------------------------------------------------

    def mul(self, other: "HeisElement") -> "HeisElement":
        return HeisElement.from_raw(heis_mul(self.left_raw(), other.left_raw()))

    def inverse(self) -> "HeisElement":
        return HeisElement.from_raw(self.left_raw().inverse())

    def __pow__(self, n: int) -> "HeisElement":
        if n < 0:
            return self.inverse() ** (-n)
        acc = HeisElement.identity(self.param)
        base = self
        while n:
            if n & 1:
                acc = acc.mul(base)
            base = base.mul(base)
            n >>= 1
        return acc

    def __eq__(self, other):
        if not isinstance(other, HeisElement):
            return NotImplemented
        return (
            self.param == other.param
            and self.c == other.c
            and self.x == other.x
            and self.h == other.h
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.c, self.x, self.h))
        return self._hash

    def __repr__(self):
        return f"[{self.c!r}; {self.x!r}, {self.h}, 0]"

    # -- groupoid -------------------------------------------------------------------

    def groupoid_inverse(self) -> "HeisElement":
        p = self.param
        return HeisElement(
            p,
            self.c.inverse() * p.epsilon(self.h),
            self.x_r,
            vec_neg(self.h),
        )


def heis_act(a, f: TorusSeries) -> TorusSeries:
    """c e(g) x^*(f) e(h)^-1, expanded exactly (words stay words)."""
    raw = a.left_raw() if isinstance(a, HeisElement) else a
    if raw.param != f.param:
        raise ParamMismatch("action over a different torus")
    p = raw.param
    front = TorusSeries.exponent(p, raw.g, raw.c)
    # e(h)^-1 = eps(h) e(-h)
    back = TorusSeries.exponent(p, vec_neg(raw.h), p.epsilon(raw.h))
    word = front.factors + f.shift_pullback(raw.x).factors + back.factors
    out = TorusSeries(p, word, f"act({f.label})")
    if f.kind == "algebraic":
        return out.materialize(out.support_points(), INF)
    return out


def representatives(a: HeisRaw) -> tuple[HeisRaw, HeisRaw]:
    """Left and right representatives of the class of ``a``."""
    e = HeisElement.from_raw(a)
    return e.left_raw(), e.right_raw()


def same_class(a: HeisRaw, b: HeisRaw) -> bool:
    if a.param != b.param:
        raise ParamMismatch("comparison across tori")
    return HeisElement.from_raw(a) == HeisElement.from_raw(b)


def compose(a: HeisElement, b: HeisElement) -> HeisElement:
    """Partial composition a o b, defined when x_r(a) == x_l(b)."""
    if a.param != b.param:
        raise ParamMismatch("composition across tori")
    if a.x_r != b.x_l:
        raise NotComposable(a.x_r, b.x_l)
    p = a.param
    ra = a.right_raw()
    rb = b.left_raw()
    first = HeisRaw(p, ra.c, TorusPoint.identity(p.field, p.rank), zero_vec(p.rank), ra.h)
    return HeisElement.from_raw(heis_mul(first, rb))


def double_sided(a: HeisElement) -> Optional[HeisRaw]:
    """The unique representative [c; 1, g, h] of the class, if one exists."""
    p = a.param
    if det(p.A) == 0:
        raise DegenerateAlpha("double-sided forms need nonsingular A")
    # need t with x_l * A_t^2 = 1: coefficient parts of x_l must be trivial
    # and 2 A t = -uexp(x_l)
    for v in a.x.values:
        if not v.coeff.is_one():
            return None
    target = tuple(-e for e in a.x.uexp_vector())
    two_a = tuple(tuple(2 * x for x in row) for row in p.A)
    sol = solve_integer(two_a, target)
    if sol is None:
        return None
    t = sol[0]
    z = HeisRaw(p, UnitMonomial.one(p.field), p.hidden_point(t) ** 2, t, t)
    rep = heis_mul(a.left_raw(), z)
    assert rep.x.is_identity()
    return rep


def twist(source_param: QuantParam, target_param: QuantParam, a: HeisElement) -> HeisElement:
    """u_{alpha,beta}: [c; x, h, 0]_alpha -> [c; x A_h^-1 B_h, h, 0]_beta."""
    if a.param != source_param:
        raise ParamMismatch("element does not live over the source parameter")
    if not source_param.same_lattice(target_param):
        raise LatticeMismatch("twisting requires a common lattice")
    ah = source_param.hidden_point(a.h)
    bh = target_param.hidden_point(a.h)
    return HeisElement(target_param, a.c, a.x * ah.inverse() * bh, a.h)


def psi_dn(d: int, n: int, a: HeisElement, target_param: QuantParam) -> HeisElement:
    """[c; x, h_l, h_r]_{alpha^d} -> [c^(n^2/d); x^(n/d), n h_l, n h_r]_alpha."""
    if n % d:
        raise Indivisible(f"{d} does not divide {n}")
    if a.param != target_param.power(d):
        raise ParamMismatch("source parameter is not the d-th power of the target")
    raw = a.left_raw()
    image = HeisRaw(
        target_param,
        raw.c ** (n * n // d),
        raw.x ** (n // d),
        tuple(n * x for x in raw.g),
        tuple(n * x for x in raw.h),
    )
    return HeisElement.from_raw(image)


# ---------------------------------------------------------------------------
# torus morphisms


class TorusMorphism:
    """F^*: functions on T(H1, alpha1) -> functions on T(H2, alpha2).

    Determined by the lattice map f: H1 -> H2 and the basis values a_i of
    the scalar factors:  F*(e(h)) = a_h e(f(h)).  The characteristic
    eps_f(h,g) = alpha1(h,g) alpha2(f h, f g)^-1 must be +/-1 valued, which
    is exactly compatibility with the squared pairings.
    """

    def __init__(
        self,
        f: LatticeMap,
        avals: Sequence[UnitMonomial],
        source_param: QuantParam,
        target_param: QuantParam,
    ):
        self.f = f
        self.avals = tuple(avals)
        self.source_param = source_param
        self.target_param = target_param
        d1 = source_param.rank
        if f.source_rank != d1 or f.target_rank != target_param.rank:
            raise DimensionMismatch("lattice map shape mismatch")
        if len(self.avals) != d1:
            raise DimensionMismatch("need one scalar value per source basis vector")
        basis = source_param.lattice.basis()
        for i in range(d1):
            for j in range(d1):
                lhs = source_param.alpha(basis[i], basis[j]) ** 2
                rhs = target_param.alpha(f(basis[i]), f(basis[j])) ** 2
                if lhs != rhs:
                    raise IncompatibleQuantization(
                        f"squared-pairing compatibility fails on basis pair ({i}, {j})"
                    )
        # a_h = prod a_i^h_i, flipped for each i with eps1(e_i) eps2(f e_i) = -1
        # and odd h_i(h_i - 1)/2 (the sign form counts half turns: h_i^2 - h_i),
        # and for each i < j with eps_f(e_i, e_j) = -1 and odd h_i h_j
        sign = []
        for i in range(d1):
            if not (source_param.epsilon(basis[i]) * target_param.epsilon(f(basis[i]))).is_one():
                sign += [(i, i, 1), (i, d1, -1)]
            for j in range(i + 1, d1):
                if not self.char_sign(basis[i], basis[j]).is_one():
                    sign.append((i, j, 2))
        self.scale_rule = GaussRule.character(source_param.field, self.avals).times(
            GaussRule(d1, source_param.field.one(), sform=sign)
        )

    # -- scalar data -------------------------------------------------------------

    def char_sign(self, g: Vec, h: Vec) -> UnitMonomial:
        """eps_f(g, h) = alpha1(g,h) alpha2(f g, f h)^-1, a sign."""
        p1, p2 = self.source_param, self.target_param
        return p1.alpha(g, h) * p2.alpha(self.f(g), self.f(h)).inverse()

    def is_characteristic_trivial(self) -> bool:
        basis = self.source_param.lattice.basis()
        for i in range(len(basis)):
            for j in range(i, len(basis)):
                if not self.char_sign(basis[i], basis[j]).is_one():
                    return False
        # diagonal: eps1(e_i) vs eps2(f e_i)
        for b in basis:
            if not (
                self.source_param.epsilon(b)
                * self.target_param.epsilon(self.f(b)).inverse()
            ).is_one():
                return False
        return True

    def a_value(self, h: Vec) -> UnitMonomial:
        """a_h with the normal-ordering sign corrections."""
        return self.scale_rule.at(h)

    def point_pushforward_plain(self, x: TorusPoint) -> TorusPoint:
        """The a-less induced map h -> x(f h) (used by transport)."""
        return x.on_columns(self.f.matrix)

    # -- series pullback ------------------------------------------------------------

    def pullback_series(self, series: TorusSeries) -> TorusSeries:
        """F^* applied factorwise: sum a_h coeff_h e(f h)."""
        if series.param != self.source_param:
            raise ParamMismatch("series does not live on the morphism's source")
        return series.pullback(
            self.target_param, self.f, self.scale_rule, f"pull({series.label})"
        )


def scaling_morphism(param: QuantParam, n: int) -> TorusMorphism:
    """[n]: pulls functions on T(H, alpha^(n^2)) back to T(H, alpha)."""
    d = param.rank
    ones = tuple(UnitMonomial.one(param.field) for _ in range(d))
    return TorusMorphism(LatticeMap.scaling(d, n), ones, param.power(n * n), param)


def mumford_morphism(param: QuantParam) -> TorusMorphism:
    """M: (h,g) -> (h+g, h-g), from alpha^2 (+) alpha^2 to alpha (+) alpha."""
    d = param.rank
    rows = []
    for i in range(d):  # h + g block row
        rows.append([1 if j == i else 0 for j in range(d)] + [1 if j == i else 0 for j in range(d)])
    for i in range(d):  # h - g block row
        rows.append([1 if j == i else 0 for j in range(d)] + [-1 if j == i else 0 for j in range(d)])
    f = LatticeMap.from_rows(rows)
    source = param.power(2).direct_sum(param.power(2))
    target = param.direct_sum(param)
    ones = tuple(UnitMonomial.one(param.field) for _ in range(2 * d))
    return TorusMorphism(f, ones, source, target)


def shift_morphism(param: QuantParam, y: TorusPoint) -> TorusMorphism:
    """y^*: the shift endomorphism as a morphism (f = id, a_h = h(y))."""
    d = param.rank
    avals = tuple(y.eval(b) for b in param.lattice.basis())
    return TorusMorphism(LatticeMap.identity(d), avals, param, param)


def heis_transport(F: TorusMorphism, b: HeisElement) -> HeisElement:
    """G(F) -> G(H1, alpha1): [c a_g; x, f(g), 0] -> [c; phi(x), g, 0].

    Requires f injective and multiplicative a (trivial characteristic).
    """
    if b.param != F.target_param:
        raise ParamMismatch("element does not live over the morphism's target")
    if not F.f.is_injective():
        raise NotInImage("transport needs an injective lattice map")
    if not F.is_characteristic_trivial():
        raise IncompatibleQuantization("transport needs multiplicative scalar data")
    g = F.f.preimage(b.h)
    if g is None:
        raise NotInImage(f"h_l = {b.h} is not in the image of the lattice map")
    c = b.c * F.a_value(g).inverse()
    return HeisElement(F.source_param, c, F.point_pushforward_plain(b.x), g)
