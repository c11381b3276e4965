"""Gauss rules: unit monomials whose u-exponent, sign and character
exponents are integer quadratics of an integer vector, and the half-step
quadratic forms they are made of.

A lattice factor's Gauss part, a word's term plan and the cell rules of a
pure-Gauss word (:mod:`qtheta.series`) are all rules; a valuation bound is
a form, which :func:`_quad` hands to :func:`qtheta.quadenum.enumerate_sublevel`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .intlinalg import Vec, identity, vec_add, zero_vec
from .quadenum import QuadExpr
from .scalars import UnitMonomial
from .torus import _window


# A form is a quadratic in y = (y_0, ..., y_{n-1}) counted in half steps:
# terms (a, b, x) of (sum x y_a y_b) / 2, where index n stands for the
# constant 1: (a, n) terms are linear and (n, n) is the constant.  So
# y(y - 1)/2 is the form y^2 - y, and every form is stored at twice its
# value.  A Gauss rule's forms have integer x; a combo's valuation bound is a
# form too, which :func:`_subst` moves to new variables and :func:`_quad`
# hands to ``enumerate_sublevel`` as it is, with twice the order as limit.


def _form(terms, mod=0):
    """The terms merged (a <= b), reduced mod ``mod`` when given, zeros dropped."""
    acc = {}
    for a, b, x in terms:
        key = (a, b) if a <= b else (b, a)
        acc[key] = acc.get(key, 0) + x
    red = {k: x % mod if mod else x for k, x in acc.items()}
    return tuple((a, b, x) for (a, b), x in sorted(red.items()) if x)


def _forms_at(form, ys, n) -> list:
    """The sum of x y_a y_b over the terms (a, b, x) at each y in ys (index n
    is the constant 1): twice a form's value, one list pass per term."""
    out = [0] * len(ys)
    for a, b, x in form:
        if b < n:
            out = [s + x * y[a] * y[b] for s, y in zip(out, ys)]
        elif a < n:
            out = [s + x * y[a] for s, y in zip(out, ys)]
        else:
            out = [s + x for s in out]
    return out


def _affine_at(mtx, base, ys, n):
    """base + mtx y at each y in ys (of length n), one row of mtx at a time."""
    rows = [_forms_at([*((j, n, x) for j, x in enumerate(g) if x), (n, n, b)], ys, n)
            for g, b in zip(mtx, base)]
    return zip(*rows) if rows else [()] * len(ys)


def _check_half_steps(form, n):
    """Raise unless the merged form is integer-valued on Z^n: its constant,
    cross terms and each y_a^2 + y_a pair of coefficients are even."""
    par = {}
    for a, b, x in form:
        key = (a, a) if b == n else (a, b)
        par[key] = par.get(key, 0) + x
    if any(x % 2 for x in par.values()):
        raise ValueError(f"form {form} is not integer-valued")


def _quad(form, n) -> QuadExpr:
    """Twice the form's value, the form itself, as a QuadExpr in n
    variables: the cross terms symmetrised and the quadratic part halved,
    exact as the form is integer-valued (and a ValueError otherwise)."""
    _check_half_steps(form, n)
    Q = [[0] * (n + 1) for _ in range(n + 1)]
    for a, b, x in form:
        Q[a][b] += x
        Q[b][a] += x
    return QuadExpr(n, [[x // 2 for x in row[:n]] for row in Q[:n]], Q[n][:n], Q[n][n] // 2)


def _subst(form, offset, gens):
    """The merged form of z at y = offset + sum_j z_j gens[j], in which
    index len(gens) is the constant."""
    cols = [(*g, 0) for g in gens] + [(*offset, 1)]
    nz = [[(j, c[a]) for j, c in enumerate(cols) if c[a]] for a in range(len(offset) + 1)]
    return _form((j, k, x * u * v) for a, b, x in form for j, u in nz[a] for k, v in nz[b])


def _moved(form, at, k, n):
    """A form in k variables as one in n: y_i moves to y_(at + i), the constant k to n."""
    idx = [*range(at, at + k), n]
    return [(idx[a], idx[b], x) for a, b, x in form]


class GaussRule:
    """The unit monomial c (-1)^s(y) u^q(y) prod_k b_k^(l_k(y)) of an
    integer vector y of length n.

    q, s and the l_k are integer-valued quadratics given as forms, which
    count half steps: y(y-1)/2 is the form y^2 - y, so a half-integer
    coefficient (an odd valuation diagonal, say) needs no other kind.  s is
    kept mod 4, as only its parity matters.  The bases b_k carry the
    coefficients other than +-1.  A +-1 constant is held as the field's own
    one or minus one, so a rule without bases has those very objects as values.
    """

    __slots__ = ("n", "const", "signed", "uform", "sform", "chars")

    def __init__(self, n: int, const, uform=(), sform=(), chars=()):
        self.n = n
        one, minus = const.field.one(), const.field.minus_one()
        self.signed = (one, minus) if const == one else (minus, one) if const == minus else (const, -const)
        self.const = self.signed[0]
        self.uform = _form(uform)
        self.sform = _form(sform, 4)
        self.chars = tuple((b, _form(l)) for b, l in chars)
        for form in (self.uform, self.sform, *(l for _b, l in self.chars)):
            _check_half_steps(form, n)

    @classmethod
    def character(cls, field, values: Sequence[UnitMonomial]) -> "GaussRule":
        """y -> prod values_i^y_i: the character e(y) at a torus point."""
        n = len(values)
        chars = [(v.coeff, [(i, n, 2)]) for i, v in enumerate(values) if not v.coeff.is_one()]
        return cls(n, field.one(), [(i, n, 2 * v.uexp) for i, v in enumerate(values)], (), chars)

    def times(self, other: "GaussRule") -> "GaussRule":
        """The pointwise product of two rules in the same variables."""
        u, s, chars = self.uform + other.uform, self.sform + other.sform, self.chars + other.chars
        return GaussRule(self.n, self.const * other.const, u, s, chars)

    def compose(self, offset: Vec, gens: Sequence[Vec]) -> "GaussRule":
        """The rule of z at y = offset + sum_j z_j gens[j]."""
        u, s = _subst(self.uform, offset, gens), _subst(self.sform, offset, gens)
        chars = [(b, _subst(l, offset, gens)) for b, l in self.chars]
        return GaussRule(len(gens), self.const, u, s, chars)

    def at(self, y) -> UnitMonomial:
        return UnitMonomial(*self.values((y,))[0])

    def values(self, ys) -> list:
        """[(coefficient, u-exponent) of the rule at y for y in ys]: the points'
        :meth:`keys`, each distinct one read back once by :meth:`key_values`."""
        keys = self.keys(ys)
        return [*map(self.key_values(set(keys)).__getitem__, keys)]

    def keys(self, ys, twice_u=None) -> list:
        """One key per y in ys, equal keys standing for equal values: the int
        twice the u-exponent plus the sign bit, or with characters a tuple of
        it and each character's exponent; :meth:`key_values` reads it back.
        A caller that has twice the u-exponent at each y already (a walk's
        values less twice its low) hands it in as ``twice_u``, and the u-form
        is not evaluated."""
        return _keys(self.uform, self.sform, [l for _b, l in self.chars], ys, self.n, twice_u)

    def window_keys(self, radius: int) -> tuple:
        """:meth:`keys` at ``QuantParam.window_cells(radius)`` and their set, one
        pair for every rule with these forms: keys read no constant or base."""
        return _window_keys(self.uform, self.sform, tuple(l for _b, l in self.chars), self.n, radius)

    def key_values(self, keys) -> dict:
        """{key: (coefficient, u-exponent)} for distinct keys of :meth:`keys`,
        each character's power built once per exponent."""
        if not self.chars:
            return {k: (self.signed[k & 1], k >> 1) for k in keys}
        powers = [{} for _b in self.chars]
        out = {}
        for key in keys:
            k, *js = key
            c = self.signed[k & 1]
            for (b, _l), p, j in zip(self.chars, powers, js):
                if j not in p:
                    p[j] = b**j
                c = c * p[j]
            out[key] = c, k >> 1
        return out


def _keys(uform, sform, lforms, ys, n, twice_u=None) -> list:
    """:meth:`GaussRule.keys` of a rule with these u-, sign and character forms."""
    ks = _forms_at(uform, ys, n) if twice_u is None else twice_u  # even: twice the u-exponent
    if sform:  # the form holds 2s
        ks = [k | v >> 1 & 1 for k, v in zip(ks, _forms_at(sform, ys, n))]
    js = [[v >> 1 for v in _forms_at(l, ys, n)] for l in lforms]
    return [*zip(ks, *js)] if js else ks


@lru_cache(maxsize=16)
def _window_keys(uform, sform, lforms, n, radius) -> tuple:
    """:meth:`GaussRule.window_keys`, once per forms and window."""
    keys = tuple(_keys(uform, sform, lforms, _window(n, radius), n))
    return keys, frozenset(keys)


def _newton_points(n) -> list:
    """0, each e_i and each e_i + e_j (i <= j) in Z^n.  A map of y whose
    third differences vanish, such as a quotient of two Gauss rules, is
    determined by its values there, so it is constant when they agree."""
    e = identity(n)
    return [zero_vec(n), *e, *(vec_add(a, b) for i, a in enumerate(e) for b in e[i:])]
