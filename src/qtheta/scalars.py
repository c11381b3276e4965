"""Exact base-field arithmetic.

The coefficient domain for the whole engine is the field of truncated formal
Laurent series in ``u`` (a formal half power of ``q``, so ``q == u**2``) over
a cyclotomic-rational field Q(zeta_m).  Three layers:

* :class:`CycloRational` -- an element of Q[x]/Phi_m(x), stored as a vector
  of integer numerators over one positive integer denominator (the layout of
  FLINT's ``nf_elem``), always reduced mod the m-th cyclotomic polynomial and
  normalised so that the numerators and the denominator share no factor.  Its
  arithmetic, the inverse included (conjugates over the norm), is integer-only.
* :class:`UnitMonomial` -- a nonzero scalar times a power of ``u``; the group
  where pairing values, point values and automorphy constants live.
* :class:`ScalarSeries` -- a finite map exponent -> coefficient together
  with a truncation order; exponents above the order are *unknown*, not zero.

Everything is immutable; all arithmetic is exact.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

from .errors import DivisionByZero, MissingRootsOfUnity, NoMonomialRoot, NotInvertible, PrecisionShortfall

INF = math.inf

Rat = Union[int, Fraction]


_CYCLO_CACHE: dict[int, tuple] = {}


def cyclotomic_polynomial(m: int) -> tuple:
    """Integer coefficient tuple of Phi_m, constant term first."""
    if m in _CYCLO_CACHE:
        return _CYCLO_CACHE[m]
    if m < 1:
        raise ValueError("cyclotomic order must be positive")
    # x^m - 1 divided by the monic Phi_d of each proper divisor d | m, by
    # integer long division from the top power down
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            phi_d = cyclotomic_polynomial(d)
            k = len(phi_d) - 1
            quo = [0] * (len(num) - k)
            for s in range(len(quo) - 1, -1, -1):
                c = quo[s] = num[s + k]
                for i, p in enumerate(phi_d):
                    num[s + i] -= c * p
            assert not any(num), "cyclotomic division must be exact"
            num = quo
    result = tuple(num)
    _CYCLO_CACHE[m] = result
    return result


class CycloField:
    """The field Q(zeta_m), interned per order ``m``.

    ``torsion_order`` is the order of the full group of roots of unity in the
    field: m for even m, 2m for odd m (because -1 is always present).
    """

    _instances: dict[int, "CycloField"] = {}

    def __new__(cls, order: int):
        inst = cls._instances.get(order)
        if inst is None:
            if order < 1:
                raise ValueError("cyclotomic order must be positive")
            inst = super().__new__(cls)
            inst.order = order
            phi = cyclotomic_polynomial(order)
            inst.degree = len(phi) - 1
            # Phi_m is monic, so zeta^deg = -(phi_0 + phi_1 zeta + ...): the
            # reduction needs only its nonzero lower coefficients, all integers.
            inst._phi_low = tuple((i, c) for i, c in enumerate(phi[:-1]) if c)
            inst._zeros = (0,) * (inst.degree - 1)
            inst._zero = inst._one = inst._minus_one = None
            cls._instances[order] = inst
        return inst

    @property
    def torsion_order(self) -> int:
        return self.order if self.order % 2 == 0 else 2 * self.order

    def _reduce(self, vec: list) -> tuple:
        """An integer vector of any length, reduced mod Phi_m to ``degree`` entries.

        Works in place on ``vec``, from the top power down.
        """
        deg = self.degree
        n = len(vec)
        if n <= deg:
            return tuple(vec) + (0,) * (deg - n)
        low = self._phi_low
        for k in range(n - 1, deg - 1, -1):
            c = vec[k]
            if c:
                s = k - deg
                for i, p in low:
                    vec[s + i] -= c * p
        return tuple(vec[:deg])

    def element(self, coeffs: Iterable[Rat]) -> "CycloRational":
        vals = [c if isinstance(c, int) else Fraction(c) for c in coeffs]
        den = math.lcm(*[c.denominator for c in vals])
        num = [c.numerator * (den // c.denominator) for c in vals]
        return _normalised(self, self._reduce(num), den)

    def zero(self) -> "CycloRational":
        if self._zero is None:
            self._zero = self.element([0])
        return self._zero

    def one(self) -> "CycloRational":
        if self._one is None:
            self._one = self.element([1])
        return self._one

    def minus_one(self) -> "CycloRational":
        if self._minus_one is None:
            self._minus_one = self.element([-1])
        return self._minus_one

    def from_rational(self, value: Rat) -> "CycloRational":
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        return CycloRational(self, (value.numerator,) + self._zeros, value.denominator)

    def zeta(self, power: int = 1) -> "CycloRational":
        """zeta_m ** power."""
        power %= self.order
        return self.element([0] * power + [1])

    def root_of_unity(self, k: int) -> "CycloRational":
        """A primitive k-th root of unity, if the field contains one."""
        if k < 1:
            raise ValueError("order must be positive")
        m = self.order
        if m % k == 0:
            return self.zeta(m // k)
        if m % 2 == 1 and (2 * m) % k == 0:
            # zeta_{2m} = -zeta_m^{(m+1)//2} generates the full torsion.
            z2m = -self.zeta((m + 1) // 2)
            return z2m ** (2 * m // k)
        raise MissingRootsOfUnity(k)

    def __repr__(self):
        return f"CycloField({self.order})"


def _normalised(field: CycloField, num: tuple, den: int) -> "CycloRational":
    """The element ``num / den`` for ``den > 0``, with the common factor cancelled."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = tuple(c // g for c in num)
            den //= g
    return CycloRational(field, num, den)


class CycloRational:
    """Element of Q(zeta_m) in the power basis 1, zeta, ..., zeta^(deg-1).

    The element is ``sum(num[i] * zeta**i) / den``: ``num`` is a tuple of
    ``field.degree`` integers and ``den`` a positive integer, normalised so
    that ``gcd(den, *num) == 1`` (zero is ``(0, ..., 0) / 1``).  Under that
    invariant equal elements have equal numerators and denominators.  The
    constructor trusts its arguments; build elements through
    :class:`CycloField` or arithmetic.
    """

    __slots__ = ("field", "num", "den", "_hash")

    def __init__(self, field: CycloField, num: tuple, den: int = 1):
        self.field = field
        self.num = num
        self.den = den
        self._hash = None

    @property
    def coeffs(self) -> tuple:
        """The power-basis coefficients as Fractions."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    # -- helpers ----------------------------------------------------------

    def _coerce(self, other) -> "CycloRational":
        if isinstance(other, CycloRational):
            if other.field is not self.field:
                raise ValueError("mixed cyclotomic orders")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not CycloRational or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d1, d2 = self.den, other.den
        if d1 == d2:
            num = tuple(map(operator.add, self.num, other.num))
            if d1 == 1:
                return CycloRational(self.field, num, 1)
            return _normalised(self.field, num, d1)
        num = tuple(x * d2 + y * d1 for x, y in zip(self.num, other.num))
        return _normalised(self.field, num, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return CycloRational(self.field, tuple(map(operator.neg, self.num)), self.den)

    def __mul__(self, other):
        if other.__class__ is not CycloRational or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        field = self.field
        a, b = self.num, other.num
        deg = field.degree
        if deg == 1:
            num = (a[0] * b[0],)
        else:
            out = [0] * (2 * deg - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b, i):
                        out[j] += x * y
            num = field._reduce(out)
        den = self.den * other.den
        if den == 1:
            return CycloRational(field, num, 1)
        return _normalised(field, num, den)

    __rmul__ = __mul__

    def inverse(self) -> "CycloRational":
        """``den * adj / N``: adj is the product of the other Galois conjugates
        num(zeta^k), gcd(k, m) = 1, and N = num * adj is the norm of num, a
        nonzero integer."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        field = self.field
        if self.is_rational():
            n0 = self.num[0]
            return CycloRational(field, (self.den if n0 > 0 else -self.den,) + field._zeros, abs(n0))
        m = field.order
        num = CycloRational(field, self.num, 1)
        adj = field.one()
        for k in range(2, m):
            if math.gcd(k, m) == 1:
                conj = [0] * m  # num(x^k), its exponents taken mod m
                for i, c in enumerate(self.num):
                    conj[i * k % m] += c
                adj = adj * CycloRational(field, field._reduce(conj), 1)
        norm = (num * adj).num[0]
        if norm < 0:
            norm, adj = -norm, -adj
        return _normalised(field, tuple(self.den * c for c in adj.num), norm)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return self.field.one()
        base = self
        while not n & 1:
            base = base * base
            n >>= 1
        result = base  # the lowest set bit; square only up to the top bit
        n >>= 1
        while n:
            base = base * base
            if n & 1:
                result = result * base
            n >>= 1
        return result

    # -- comparison / display ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, CycloRational):
            if self.field is other.field:
                return self.num == other.num and self.den == other.den
            # across fields only rationals meet, by value, as each equals its int or Fraction
            return other.is_rational() and self == other.as_rational()
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.num[0] == other * self.den
        return NotImplemented

    def __hash__(self):
        # a rational element hashes as the int or Fraction it equals; any
        # other by its normalised form, which is canonical
        if self._hash is None:
            if self.is_rational():
                n0, den = self.num[0], self.den
                self._hash = hash(n0 if den == 1 else Fraction(n0, den))
            else:
                self._hash = hash((self.field.order, self.num, self.den))
        return self._hash

    def __repr__(self):
        coeffs = self.coeffs
        if self.is_rational():
            return str(coeffs[0])
        parts = []
        for i, c in enumerate(coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                z = "z" if i == 1 else f"z^{i}"
                parts.append(z if c == 1 else f"{c}*{z}")
        return " + ".join(parts) if parts else "0"


def _exact_root(x: int, n: int) -> Optional[int]:
    """The integer r >= 0 with r**n == x, or None (x >= 0, n >= 2)."""
    if n == 2 or x < 2:
        r = math.isqrt(x)
    else:
        # integer Newton from an over-estimate; it decreases to floor(x**(1/n))
        r = 1 << -(-x.bit_length() // n)
        while True:
            s = ((n - 1) * r + x // r ** (n - 1)) // n
            if s >= r:
                break
            r = s
    return r if r**n == x else None


def cyclo_nth_root(a: CycloRational, n: int) -> Optional[CycloRational]:
    """An n-th root of ``a`` in the field, or None (monomial-group cases).

    Handles the cases that occur for automorphy data: rationals +-r**n, and
    roots of unity with an n-th root in the torsion subgroup.
    """
    if n == 1:
        return a
    field = a.field
    if a.is_zero():
        return field.zero()
    scale = None
    if a.is_rational():
        r = a.as_rational()
        p = _exact_root(abs(r.numerator), n)
        q = _exact_root(r.denominator, n)
        if p is not None and q is not None:
            scale = Fraction(p, q)
            if r > 0:
                return field.from_rational(scale)
            if n % 2:
                return field.from_rational(-scale)
            a = field.minus_one()  # scale times an n-th root of -1
    # scan the torsion subgroup: a == z^j  =>  root z^s with n*s == j mod big
    big = field.torsion_order
    z = field.root_of_unity(big)
    power = field.one()
    for j in range(big):
        if power == a:
            g = math.gcd(n, big)
            if j % g:
                return None
            s = (j // g) * pow(n // g, -1, big // g) % (big // g)
            root = z**s
            return root if scale is None else root * scale
        power = power * z
    return None


# ---------------------------------------------------------------------------


class UnitMonomial:
    """A nonzero scalar times u**uexp; closed under product and inverse."""

    __slots__ = ("coeff", "uexp", "_hash")

    def __init__(self, coeff: CycloRational, uexp: int = 0):
        if coeff.is_zero():
            raise DivisionByZero("unit monomial with zero coefficient")
        self.coeff = coeff
        self.uexp = uexp
        self._hash = None

    @classmethod
    def one(cls, field: CycloField) -> "UnitMonomial":
        return cls(field.one(), 0)

    @classmethod
    def q_power(cls, field: CycloField, k: int, sign: int = 1) -> "UnitMonomial":
        c = field.one() if sign >= 0 else field.minus_one()
        return cls(c, 2 * k)

    @property
    def field(self) -> CycloField:
        return self.coeff.field

    def __mul__(self, other):
        if isinstance(other, UnitMonomial):
            return UnitMonomial(self.coeff * other.coeff, self.uexp + other.uexp)
        if isinstance(other, ScalarSeries):
            return other.scale(self)
        return NotImplemented

    def inverse(self) -> "UnitMonomial":
        return UnitMonomial(self.coeff.inverse(), -self.uexp)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n: int) -> "UnitMonomial":
        return UnitMonomial(self.coeff**n, self.uexp * n)

    def __neg__(self):
        return UnitMonomial(-self.coeff, self.uexp)

    def nth_root(self, n: int) -> "UnitMonomial":
        if n < 1:
            raise ValueError("root order must be positive")
        if self.uexp % n != 0:
            raise NoMonomialRoot(f"u-exponent {self.uexp} not divisible by {n}")
        root = cyclo_nth_root(self.coeff, n)
        if root is None:
            raise NoMonomialRoot(f"{self.coeff} has no {n}-th root in the field")
        return UnitMonomial(root, self.uexp // n)

    def is_one(self) -> bool:
        return self.uexp == 0 and self.coeff.is_one()

    def valuation(self) -> int:
        return self.uexp

    def to_series(self, trunc=INF) -> "ScalarSeries":
        return ScalarSeries(self.field, {self.uexp: self.coeff}, trunc)

    def __eq__(self, other):
        if not isinstance(other, UnitMonomial):
            return NotImplemented
        return self.uexp == other.uexp and self.coeff == other.coeff

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.uexp, self.coeff))
        return self._hash

    def __repr__(self):
        if self.uexp == 0:
            return repr(self.coeff)
        u = "u" if self.uexp == 1 else f"u^{self.uexp}"
        if self.coeff.is_one():
            return u
        return f"{self.coeff!r}*{u}"


# ---------------------------------------------------------------------------


class ScalarSeries:
    """Truncated Laurent series in u over a cyclotomic field.

    ``terms`` maps exponent -> nonzero coefficient, all exponents <= trunc;
    exponents above ``trunc`` are unknown.  ``trunc`` may be ``math.inf`` for
    exactly-known (finitely supported) series.  A series is immutable:
    ``terms`` is never written in place, so one series may be the value of
    many cells of a coefficient table.
    """

    __slots__ = ("field", "terms", "trunc")

    def __init__(self, field: CycloField, terms: Mapping[int, CycloRational], trunc=INF):
        self.field = field
        clean = {}
        for e, c in terms.items():
            if e <= trunc and not c.is_zero():
                clean[e] = c
        self.terms = clean
        self.trunc = trunc

    @classmethod
    def _clean(cls, field: CycloField, terms: dict, trunc) -> "ScalarSeries":
        """Wraps ``terms`` as they are: nonzero coefficients, exponents <= trunc."""
        s = cls.__new__(cls)
        s.field = field
        s.terms = terms
        s.trunc = trunc
        return s

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field: CycloField, trunc=INF) -> "ScalarSeries":
        return cls(field, {}, trunc)

    @classmethod
    def one(cls, field: CycloField, trunc=INF) -> "ScalarSeries":
        return cls(field, {0: field.one()}, trunc)

    @classmethod
    def monomial(cls, field: CycloField, uexp: int, coeff=1, trunc=INF) -> "ScalarSeries":
        if isinstance(coeff, (int, Fraction)):
            coeff = field.from_rational(coeff)
        return cls(field, {uexp: coeff}, trunc)

    @classmethod
    def q_power(cls, field: CycloField, k: int, trunc=INF) -> "ScalarSeries":
        return cls.monomial(field, 2 * k, 1, trunc)

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        """True when no known coefficient is nonzero (window-local zero)."""
        return not self.terms

    def valuation(self):
        """Minimal stored exponent, or +inf when all stored terms vanish."""
        return min(self.terms) if self.terms else INF

    def leading(self) -> tuple[int, CycloRational]:
        if not self.terms:
            raise NotInvertible("zero series has no leading term")
        v = min(self.terms)
        return v, self.terms[v]

    def coefficient(self, uexp: int) -> CycloRational:
        return self.terms.get(uexp, self.field.zero())

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ScalarSeries):
            return other
        if isinstance(other, UnitMonomial):
            return other.to_series()
        if isinstance(other, (int, Fraction)):
            return ScalarSeries(self.field, {0: self.field.from_rational(other)})
        if isinstance(other, CycloRational):
            return ScalarSeries(self.field, {0: other})
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        return ScalarSeries(self.field, out, add_into(out, other, INF, self.trunc))

    __radd__ = __add__

    def __neg__(self):
        return ScalarSeries._clean(self.field, {e: -c for e, c in self.terms.items()}, self.trunc)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, UnitMonomial):
            return self.scale(other)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.mul_to(other, INF)

    __rmul__ = __mul__

    def mul_trunc(self, other: "ScalarSeries"):
        """The order to which ``self * other`` is known: unknown(a)*b enters above
        trunc(a) + val(b), and an empty series has valuation above its trunc."""
        va = self.valuation() if self.terms else self.trunc + 1
        vb = other.valuation() if other.terms else other.trunc + 1
        return min(self.trunc + vb, other.trunc + va)

    def mul_to(self, other: "ScalarSeries", cap) -> "ScalarSeries":
        """``(self * other).truncate(cap)``; pairs above ``cap`` are never formed."""
        trunc = min(self.mul_trunc(other), cap)
        out: dict[int, CycloRational] = {}
        if self.terms and other.terms:
            right = sorted(other.terms.items())
            for e1, c1 in self.terms.items():
                top = trunc - e1
                for e2, c2 in right:
                    if e2 > top:
                        break
                    e = e1 + e2
                    p = c1 * c2
                    cur = out.get(e)
                    s = p if cur is None else cur + p
                    if s.is_zero():
                        del out[e]
                    else:
                        out[e] = s
        return ScalarSeries._clean(self.field, out, trunc)

    def scale(self, mono: UnitMonomial, cap=INF) -> "ScalarSeries":
        """``(mono * self).truncate(cap)``; an empty series kept at its trunc is itself."""
        k, m = mono.uexp, mono.coeff
        top = min(self.trunc + k, cap)
        if not self.terms and top == self.trunc:
            return self
        return ScalarSeries._clean(
            self.field, {e + k: c * m for e, c in self.terms.items() if e + k <= top}, top
        )

    def shift(self, k: int) -> "ScalarSeries":
        return ScalarSeries._clean(
            self.field, {e + k: c for e, c in self.terms.items()}, self.trunc + k
        )

    def __pow__(self, n: int):
        if n < 0:
            return self.invert() ** (-n)
        result = ScalarSeries.one(self.field, self.trunc if n == 0 else INF)
        base = self
        first = True
        while n:
            if n & 1:
                result = base if first else result * base
                first = False
            n >>= 1
            if n:
                base = base * base
        return result if not first else ScalarSeries.one(self.field)

    def invert(self) -> "ScalarSeries":
        """Two-sided inverse up to the truncation order.

        Requires an invertible leading coefficient; the result has minimal
        exponent -self.valuation().
        """
        if not self.terms:
            raise NotInvertible("series is zero within its truncation window")
        v, lead = self.leading()
        lead_inv = lead.inverse()
        # normalize: n = self * u^-v / lead has valuation 0 and leading 1
        n_trunc = self.trunc - v
        rest = {e - v: c * lead_inv for e, c in self.terms.items()}
        rest.pop(0)
        if not rest:
            # pure monomial: exact inverse
            return ScalarSeries(self.field, {-v: lead_inv}, INF if self.trunc is INF else n_trunc - v)
        if n_trunc is INF:
            raise NotInvertible(
                "inverse of a non-monomial exact series is an infinite series; "
                "truncate the input first"
            )
        # standard long-division recurrence for 1/(1 + rest)
        coeffs = {0: self.field.one()}
        for k in range(1, int(n_trunc) + 1):
            acc = self.field.zero()
            for e, c in rest.items():
                if 0 < e <= k:
                    prev = coeffs.get(k - e)
                    if prev is not None:
                        acc = acc + c * prev
            if not acc.is_zero():
                coeffs[k] = -acc
        return ScalarSeries(
            self.field,
            {e - v: c * lead_inv for e, c in coeffs.items()},
            n_trunc - v,
        )

    def truncate(self, order) -> "ScalarSeries":
        new_trunc = min(self.trunc, order)
        return ScalarSeries._clean(
            self.field, {e: c for e, c in self.terms.items() if e <= new_trunc}, new_trunc
        )

    # -- comparison ----------------------------------------------------------

    def equal_to_order(self, other: "ScalarSeries", order) -> bool:
        """Coefficientwise equality for all exponents <= order.

        Both operands must actually know their coefficients that far;
        otherwise PrecisionShortfall is raised.
        """
        if self.trunc < order or other.trunc < order:
            raise PrecisionShortfall(
                f"cannot compare to order {order}: known only to "
                f"{min(self.trunc, other.trunc)}"
            )
        for e in set(self.terms) | set(other.terms):
            if e <= order and self.coefficient(e) != other.coefficient(e):
                return False
        return True

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.trunc == other.trunc and self.terms == other.terms

    def __hash__(self):
        return hash((self.trunc, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            body = "0"
        else:
            parts = []
            for e in sorted(self.terms):
                c = self.terms[e]
                if e == 0:
                    parts.append(repr(c))
                else:
                    un = "u" if e == 1 else f"u^{e}"
                    parts.append(un if c.is_one() else f"{c!r}*{un}")
            body = " + ".join(parts)
        if self.trunc is INF:
            return body
        return f"{body} + O(u^{int(self.trunc) + 1})"


def add_into(acc: dict, x, top, trunc, k: int = 0, scale: Optional[CycloRational] = None):
    """Adds ``x`` (a ScalarSeries or UnitMonomial) times ``scale`` u^k into
    ``acc``, a dict of exponent -> nonzero value, dropping exponents above
    ``top``; returns the lower of ``trunc`` and the sum's trunc.  A +-1
    ``scale`` multiplies nothing: the field's own one and minus one are
    known by identity before the value is tested; -1 negates, and a negated
    value equal to the one held at its exponent deletes it before ``-c`` or
    the sum is built: equal elements have equal normalised fields."""
    unit = isinstance(x, UnitMonomial)
    items, xt = (((x.uexp, x.coeff),), INF) if unit else (x.terms.items(), x.trunc)
    neg = False
    if scale is not None and (scale is scale.field._one or scale is scale.field._minus_one
                              or scale.den == 1 and scale.num[0] in (1, -1) and not any(scale.num[1:])):
        neg, scale = scale.num[0] < 0, None
    for e, c in items:
        e += k
        if e > top:
            continue
        cur = acc.get(e)
        if neg and cur is not None and cur.num == c.num and cur.den == c.den:
            del acc[e]
            continue
        c = -c if neg else c if scale is None else c * scale
        if cur is not None:
            c = cur + c
            if c.is_zero():
                del acc[e]
                continue
        acc[e] = c
    xt += k
    return xt if xt < trunc else trunc


# -- JSON serialization ------------------------------------------------------


def series_to_json(s: ScalarSeries) -> dict:
    return {
        "m": s.field.order,
        "N": None if s.trunc is INF else int(s.trunc),
        "terms": [  # an integral value's numerators are its coefficients
            [e, [str(x) for x in (c.num if c.den == 1 else c.coeffs)]]
            for e, c in sorted(s.terms.items())
        ],
    }


def _int(v, key: str) -> int:
    if type(v) is not int:  # bool is an int subclass
        raise ValueError(f"{key} must be an integer, got {v!r}")
    return v


def _rationals(v, key: str) -> list:
    if not isinstance(v, list) or not all(isinstance(x, str) for x in v):
        raise ValueError(f"{key} must be a list of rational strings, got {v!r}")
    return [Fraction(x) for x in v]


def series_from_json(data: dict) -> ScalarSeries:
    """A float or bool where an int belongs, or a coefficient that is not a
    string, raises ValueError here and in :func:`monomial_from_json`."""
    field = CycloField(_int(data["m"], "m"))
    trunc = INF if data.get("N") is None else _int(data["N"], "N")
    terms = {}
    for e, coeffs in data["terms"]:
        terms[_int(e, "exponent")] = field.element(_rationals(coeffs, "coefficient"))
    return ScalarSeries(field, terms, trunc)


def monomial_to_json(u: UnitMonomial) -> dict:
    return {"coeff": [str(c) for c in u.coeff.coeffs], "uexp": u.uexp, "m": u.field.order}


def monomial_from_json(data: dict) -> UnitMonomial:
    coeff = _rationals(data["coeff"], "coeff")
    field = CycloField(_int(data["m"], "m"))
    return UnitMonomial(field.element(coeff), _int(data["uexp"], "uexp"))
