"""Quantum torus data: the quantization pairing and commutative-torus points.

A quantization pairing alpha on Z^d is stored as an antisymmetric integer
matrix A (u-exponents) plus a symmetric mod-2 matrix S (signs):

    alpha(g, h) = (-1)^(g^T S h) * u^(g^T A h)

which makes alpha(h, g) = alpha(g, h)^-1 and biadditivity automatic.  The
characteristic eps(h) = alpha(h, h) = (-1)^(h^T S h) is a character of the
lattice.  Points of the commutative torus T(H,1)(K) are tuples of unit
monomials (their values on the basis characters).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

from .errors import DimensionMismatch, LatticeMismatch, NoMonomialRoot, QThetaError
from .intlinalg import IntegerSolver, Lattice, Mat, Vec, mat
from .scalars import CycloField, UnitMonomial


@dataclass(frozen=True)
class QuantParam:
    """Pairing data (A antisymmetric u-exponents, S symmetric mod-2 signs)."""

    field: CycloField
    lattice: Lattice
    A: Mat
    S: Mat

    def __post_init__(self):
        d = self.lattice.rank
        if len(self.A) != d or any(len(r) != d for r in self.A):
            raise DimensionMismatch("A must be d x d")
        if len(self.S) != d or any(len(r) != d for r in self.S):
            raise DimensionMismatch("S must be d x d")
        for i in range(d):
            for j in range(d):
                if self.A[i][j] != -self.A[j][i]:
                    raise ValueError("A must be antisymmetric")
                if (self.S[i][j] - self.S[j][i]) % 2:
                    raise ValueError("S must be symmetric mod 2")
        object.__setattr__(self, "S", mat([[x % 2 for x in row] for row in self.S]))
        object.__setattr__(
            self,
            "_A_entries",
            tuple(
                (i, j, self.A[i][j])
                for i in range(d)
                for j in range(d)
                if self.A[i][j]
            ),
        )
        object.__setattr__(
            self,
            "_S_entries",
            tuple(
                (i, j, self.S[i][j])
                for i in range(d)
                for j in range(d)
                if self.S[i][j]
            ),
        )

    # -- constructors --------------------------------------------------------

    @classmethod
    def trivial(cls, field: CycloField, rank: int) -> "QuantParam":
        z = tuple((0,) * rank for _ in range(rank))
        return cls(field, Lattice(rank), z, z)

    @classmethod
    def standard_tq(cls, field: CycloField) -> "QuantParam":
        """Rank 2, alpha(h1, h2) = q: the torus with uv = q^2 vu."""
        return cls(field, Lattice(2), mat([[0, 2], [-2, 0]]), mat([[0, 0], [0, 0]]))

    @property
    def rank(self) -> int:
        return self.lattice.rank

    def window_cells(self, radius: int) -> list[Vec]:
        """The centred box [-radius, radius]^d of lattice cells, sorted: a
        copy of the one tuple of cells that every window of this rank and
        radius shares, so tables filled over it are keyed by those cells."""
        return list(_window(self.rank, radius))

    # -- pairing values ------------------------------------------------------

    def alpha_exp(self, g: Vec, h: Vec) -> int:
        return sum(g[i] * a * h[j] for i, j, a in self._A_entries)

    def alpha_sign(self, g: Vec, h: Vec) -> int:
        if not self._S_entries:
            return 0
        return sum(g[i] * s * h[j] for i, j, s in self._S_entries) % 2

    def alpha(self, g: Vec, h: Vec) -> UnitMonomial:
        c = self.field.one()
        if self.alpha_sign(g, h):
            c = -c
        return UnitMonomial(c, self.alpha_exp(g, h))

    def epsilon(self, h: Vec) -> UnitMonomial:
        return self.alpha(h, h)

    # -- derived data --------------------------------------------------------

    def hidden_point(self, h: Vec) -> "TorusPoint":
        """The point A_h with g(A_h) = alpha(g, h) for all g."""
        d = self.rank
        vals = []
        for i in range(d):
            e = tuple(1 if j == i else 0 for j in range(d))
            vals.append(self.alpha(e, h))
        return TorusPoint(tuple(vals))

    def power(self, n: int) -> "QuantParam":
        """alpha^n: scales A by n; the sign survives only for odd n."""
        a = tuple(tuple(n * x for x in row) for row in self.A)
        s = self.S if n % 2 else tuple((0,) * self.rank for _ in range(self.rank))
        return QuantParam(self.field, self.lattice, a, s)

    def direct_sum(self, other: "QuantParam") -> "QuantParam":
        if other.field is not self.field:
            raise LatticeMismatch("direct sum over different base fields")
        d1, d2 = self.rank, other.rank
        a = [[0] * (d1 + d2) for _ in range(d1 + d2)]
        s = [[0] * (d1 + d2) for _ in range(d1 + d2)]
        for i in range(d1):
            for j in range(d1):
                a[i][j] = self.A[i][j]
                s[i][j] = self.S[i][j]
        for i in range(d2):
            for j in range(d2):
                a[d1 + i][d1 + j] = other.A[i][j]
                s[d1 + i][d1 + j] = other.S[i][j]
        return QuantParam(self.field, Lattice(d1 + d2), mat(a), mat(s))

    def same_lattice(self, other: "QuantParam") -> bool:
        return self.lattice == other.lattice and self.field is other.field


@lru_cache(maxsize=16)
def _window(rank: int, radius: int) -> tuple:
    rng = range(-radius, radius + 1)
    return tuple(itertools.product(rng, repeat=rank))


class TorusPoint:
    """A K-point of the commutative torus: values on the basis characters."""

    __slots__ = ("values", "_hash")

    def __init__(self, values: Sequence[UnitMonomial]):
        self.values = tuple(values)
        self._hash = None

    @classmethod
    def identity(cls, field: CycloField, rank: int) -> "TorusPoint":
        return cls(tuple(UnitMonomial.one(field) for _ in range(rank)))

    @classmethod
    def from_q_exps(cls, field: CycloField, qexps: Sequence[int]) -> "TorusPoint":
        return cls(tuple(UnitMonomial.q_power(field, k) for k in qexps))

    @property
    def rank(self) -> int:
        return len(self.values)

    @property
    def field(self) -> CycloField:
        return self.values[0].field if self.values else None

    def eval(self, h: Vec) -> UnitMonomial:
        """h(x) = prod values_i^{h_i}: value of the character e(h) at x."""
        if len(h) != len(self.values):
            raise DimensionMismatch("point/vector rank mismatch")
        acc = None
        for v, e in zip(self.values, h):
            if e:
                m = v**e
                acc = m if acc is None else acc * m
        if acc is None:
            if not self.values:
                raise DimensionMismatch("rank-0 point evaluation needs a field")
            return UnitMonomial.one(self.values[0].field)
        return acc

    def on_columns(self, m: Mat) -> "TorusPoint":
        """The point with value self(m e_j) on e_j, i.e. prod_t values[t]^m[t][j].

        For U M V = D in Smith normal form and values ``vals`` on the
        columns of U^-1, ``TorusPoint(vals).on_columns(U)`` takes those
        values there (see :func:`smith_root`)."""
        return TorusPoint(tuple(self.eval(col) for col in zip(*m)))

    def uexp_vector(self) -> Vec:
        return tuple(v.uexp for v in self.values)

    def __mul__(self, other: "TorusPoint") -> "TorusPoint":
        if len(self.values) != len(other.values):
            raise DimensionMismatch("point product rank mismatch")
        return TorusPoint(tuple(a * b for a, b in zip(self.values, other.values)))

    def inverse(self) -> "TorusPoint":
        return TorusPoint(tuple(v.inverse() for v in self.values))

    def __pow__(self, n: int) -> "TorusPoint":
        return TorusPoint(tuple(v**n for v in self.values))

    def nth_root(self, n: int) -> "TorusPoint":
        return TorusPoint(tuple(v.nth_root(n) for v in self.values))

    def is_identity(self) -> bool:
        return all(v.is_one() for v in self.values)

    def __eq__(self, other):
        if not isinstance(other, TorusPoint):
            return NotImplemented
        return self.values == other.values

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.values)
        return self._hash

    def __repr__(self):
        return "(" + ", ".join(repr(v) for v in self.values) + ")"


def smith_root(
    solver: IntegerSolver,
    chi: Callable[[Vec], UnitMonomial],
    field: CycloField,
    missing: Callable[[int, UnitMonomial, NoMonomialRoot], QThetaError],
) -> Optional[TorusPoint]:
    """A point x with x(M k) = chi(k) for every k, for a character chi of
    the source of the matrix M that ``solver`` factors; None when chi is not
    1 on ker M.  As M p_i = d_i U^-1 e_i, x takes a d_i-th root of chi(p_i)
    on U^-1 e_i and 1 past M's rank; a missing root raises
    ``missing(d_i, chi(p_i), exc)``.
    """
    if any(not chi(k).is_one() for k in solver.kernel):
        return None
    vals = []
    for d, p in zip(solver.divisors, solver.pre):
        value = chi(p)
        try:
            vals.append(value.nth_root(d))
        except NoMonomialRoot as exc:
            raise missing(d, value, exc) from exc
    vals += [UnitMonomial.one(field)] * (solver.nrows - len(vals))
    return TorusPoint(vals).on_columns(solver.u)
