"""Integer lattice algebra.

Vectors are int tuples, matrices are tuples of row tuples.  Provides Smith
normal form with unimodular transforms, finite quotient data with canonical
coset representatives, definiteness by integer leading minors, and integer
linear solving (particular solution + kernel basis) -- the workhorses behind
coset indices, theta bases and support intersection.  The Bareiss ``det``
and ``smith_normal_form`` are the only eliminations, and each distinct
matrix is factored once: :func:`smith` caches its :class:`IntegerSolver`
(U, the elementary divisors, V's image preimages and kernel columns) for
the 512 most recently used matrices.
Solving, kernels, unimodular inverses and quotients read it here; theta
bases, the small Heisenberg group's kernel group and gamma lifts,
multiplier pullbacks and the series coefficient layout read it elsewhere.
A rational form is scaled to integers before its minors are taken.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DimensionMismatch, NotSymmetric

Vec = tuple[int, ...]
Mat = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# basic matrix/vector helpers


def vec(*entries: int) -> Vec:
    return tuple(int(e) for e in entries)


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vec_neg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def zero_vec(n: int) -> Vec:
    return (0,) * n


def mat(rows: Sequence[Sequence[int]]) -> Mat:
    return tuple(tuple(int(x) for x in r) for r in rows)


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def mat_vec(m: Mat, v: Vec) -> Vec:
    if m and len(m[0]) != len(v):
        raise DimensionMismatch(f"{len(m[0])}-column matrix applied to {len(v)}-vector")
    return tuple(sum(r[j] * v[j] for j in range(len(v))) for r in m)


def mat_mul(a: Mat, b: Mat) -> Mat:
    if a and b and len(a[0]) != len(b):
        raise DimensionMismatch("matrix product shape mismatch")
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def bilinear_eval(q: Mat, g: Vec, h: Vec) -> int:
    """g^T Q h with exact integers."""
    if len(q) != len(g) or (q and len(q[0]) != len(h)):
        raise DimensionMismatch("bilinear form dimension mismatch")
    return sum(g[i] * q[i][j] * h[j] for i in range(len(g)) for j in range(len(h)))


def det(m: Mat) -> int:
    """Integer determinant (fraction-free Bareiss)."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(r) for r in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Smith normal form


def smith_normal_form(m: Mat) -> tuple[Mat, Mat, Mat]:
    """Return (U, D, V) with U*M*V = D diagonal, d_i | d_{i+1}, U,V unimodular."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [list(r) for r in m]
    u = [list(r) for r in identity(rows)]
    v = [list(r) for r in identity(cols)]

    def row_op(i, j, k):  # row_i += k*row_j
        a[i] = [x + k * y for x, y in zip(a[i], a[j])]
        u[i] = [x + k * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, k):  # col_i += k*col_j
        for r in a:
            r[i] += k * r[j]
        for r in v:
            r[i] += k * r[j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(rows, cols):
        # find pivot: smallest |entry| in the remaining block
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = abs(a[i][j])
                if x and (best is None or x < best):
                    best, piv = x, (i, j)
        if piv is None:
            break
        pi, pj = piv
        row_swap(t, pi)
        col_swap(t, pj)
        if a[t][t] < 0:
            row_negate(t)
        # clear row and column t
        dirty = False
        for i in range(t + 1, rows):
            if a[i][t]:
                qt = a[i][t] // a[t][t]
                row_op(i, t, -qt)
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if a[t][j]:
                qt = a[t][j] // a[t][t]
                col_op(j, t, -qt)
                if a[t][j]:
                    dirty = True
        if dirty:
            continue  # remainder became the new smaller pivot candidate
        # enforce divisibility d_t | a[i][j] in the remaining block
        viol = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t]:
                    viol = i
                    break
            if viol is not None:
                break
        if viol is not None:
            row_op(t, viol, 1)
            continue
        t += 1

    return tuple(tuple(r) for r in u), tuple(tuple(r) for r in a), tuple(tuple(r) for r in v)


def snf_diagonal(d: Mat) -> list[int]:
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


class IntegerSolver:
    """M's Smith normal form U M V = D, kept as what its readers need.

    ``u`` is U; ``divisors`` are the nonzero elementary divisors
    d_1 | d_2 | ..., one per unit of M's rank; ``pre`` are V's first rank
    columns, with M pre_i = d_i U^-1 e_i, so they map onto a basis of M's
    image; ``kernel`` holds V's other columns, a basis of ker M.  M y = t is
    solvable exactly when every zero row of U annihilates t and each pivot
    row's (U t)_i is divisible by d_i; then y = sum_i ((U t)_i / d_i) pre_i
    is one solution.  ``ncols`` gives the width of a matrix with no rows.
    """

    __slots__ = ("nrows", "ncols", "u", "divisors", "pre", "kernel", "pivots", "zero_rows")

    def __init__(self, m: Mat, ncols: Optional[int] = None):
        self.nrows = len(m)
        self.ncols = len(m[0]) if m else ncols or 0
        u, d, v = smith_normal_form(m) if m else ((), (), identity(self.ncols))
        self.u = u
        self.divisors = tuple(x for x in snf_diagonal(d) if x)
        rank = len(self.divisors)
        vt = transpose(v)
        self.pre = vt[:rank]
        self.kernel = vt[rank:]
        # (row of U, elementary divisor, column of V) per pivot, sparse rows
        self.pivots = tuple(
            (_sparse(row), x, _sparse(col)) for row, x, col in zip(u, self.divisors, self.pre)
        )
        self.zero_rows = tuple(_sparse(row) for row in u[rank:])

    def solve(self, target: Vec) -> Optional[Vec]:
        """One integer solution of M y = target, or None when there is none."""
        return self.solve_all([target])[0]

    def solve_all(self, targets: Sequence[Vec]) -> list[Optional[Vec]]:
        """:meth:`solve` at every target: one pass over the targets per row
        of U, the zero rows' test and each pivot's divisibility test, then
        y = V-columns times the quotients for each target that passed."""
        if any(len(t) != self.nrows for t in targets):
            raise DimensionMismatch("integer solve target length mismatch")
        entries = [*zip(*targets)] or [()] * self.nrows  # entries[i]: every target's i-th entry

        def dots(row):  # (U t)_row for every target t
            acc = [0] * len(targets)
            for i, x in row:
                acc = [a + x * t for a, t in zip(acc, entries[i])]
            return acc

        live = [True] * len(targets)
        for row in self.zero_rows:
            live = [ok and not w for ok, w in zip(live, dots(row))]
        quots = []  # (every target's quotient, column of V) per pivot
        for row, d, col in self.pivots:
            qr = [divmod(w, d) for w in dots(row)]
            live = [ok and not r for ok, (_q, r) in zip(live, qr)]
            quots.append(([q for q, _r in qr], col))
        out = []
        for k, ok in enumerate(live):
            y = [0] * self.ncols
            for qs, col in quots if ok else ():
                for j, c in col:
                    y[j] += qs[k] * c
            out.append(tuple(y) if ok else None)
        return out


def _sparse(v: Vec) -> tuple[tuple[int, int], ...]:
    return tuple((i, x) for i, x in enumerate(v) if x)


def smith(m: Sequence[Sequence[int]], ncols: Optional[int] = None) -> IntegerSolver:
    """The one factorization of ``m``, shared by every reader of the matrix.

    Rows are made tuples, so lists of lists work too; ``ncols`` gives the
    width of a matrix with no rows.  The result is cached per distinct
    matrix (the 512 most recent) and holds only tuples.
    """
    m = tuple(map(tuple, m))
    return _smith_cached(m, len(m[0]) if m else ncols or 0)


@functools.lru_cache(maxsize=512)
def _smith_cached(m: Mat, ncols: int) -> IntegerSolver:
    return IntegerSolver(m, ncols)


def mat_inverse_unimodular(m: Mat) -> Mat:
    """Inverse of a square integer matrix with det +-1: V U from U M V = I."""
    s = smith(m)
    if s.nrows != s.ncols or s.divisors != (1,) * s.ncols:
        raise ValueError("matrix is not square with det +-1")
    return mat_mul(transpose(s.pre), s.u)


def solve_integer(m: Mat, target: Vec) -> Optional[tuple[Vec, list[Vec]]]:
    """Solve M y = target over the integers.

    Returns (particular solution, kernel basis) or None when unsolvable.
    """
    solver = smith(m)
    y = solver.solve(target)
    return None if y is None else (y, list(solver.kernel))


# ---------------------------------------------------------------------------
# spec domain types


@dataclass(frozen=True)
class Lattice:
    """Z^rank with its standard basis."""

    rank: int

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("lattice rank must be nonnegative")

    def zero(self) -> Vec:
        return zero_vec(self.rank)

    def basis(self) -> list[Vec]:
        return [tuple(1 if i == j else 0 for j in range(self.rank)) for i in range(self.rank)]


@dataclass(frozen=True)
class LatticeMap:
    """Homomorphism Z^d1 -> Z^d2 given by a d2 x d1 integer matrix."""

    matrix: Mat

    @classmethod
    def from_rows(cls, rows) -> "LatticeMap":
        return cls(mat(rows))

    @classmethod
    def identity(cls, n: int) -> "LatticeMap":
        return cls(identity(n))

    @classmethod
    def scaling(cls, n: int, factor: int) -> "LatticeMap":
        return cls(tuple(tuple(factor if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def source_rank(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    @property
    def target_rank(self) -> int:
        return len(self.matrix)

    def __call__(self, v: Vec) -> Vec:
        return mat_vec(self.matrix, v)

    def compose(self, other: "LatticeMap") -> "LatticeMap":
        """self after other."""
        return LatticeMap(mat_mul(self.matrix, other.matrix))

    def is_injective(self) -> bool:
        return not smith(self.matrix).kernel

    def preimage(self, v: Vec) -> Optional[Vec]:
        return smith(self.matrix).solve(v)


INFINITE = float("inf")


@dataclass(frozen=True)
class QuotientData:
    """The quotient Z^d / im(map), with canonical coset representatives.

    ``index`` is the order of the quotient (inf when the image has lower
    rank); coset representatives are lexicographically minimal in the Smith
    coordinates and listed in mixed-radix order.
    """

    invariant_factors: tuple[int, ...]
    index: object  # int or math.inf
    coset_reps: tuple[Vec, ...]
    _u: Mat
    _diag: tuple[int, ...]

    def project(self, v: Vec) -> int:
        """Index of the coset of ``v`` among coset_reps (finite index only)."""
        if self.index == INFINITE:
            raise ValueError("projection undefined for infinite index")
        w = mat_vec(self._u, v)
        idx = 0
        for i, d in enumerate(self._diag):
            idx = idx * d + (w[i] % d)
        return idx

    def reduce(self, v: Vec) -> Vec:
        """Canonical representative of the coset of ``v``."""
        return self.coset_reps[self.project(v)]


def quotient_data(target: Lattice, image_map: LatticeMap) -> QuotientData:
    if image_map.target_rank != target.rank:
        raise DimensionMismatch("image map does not target the given lattice")
    s = smith(image_map.matrix, image_map.source_rank)
    diag = s.divisors
    factors = tuple(x for x in diag if x > 1)
    if len(diag) < target.rank:
        return QuotientData(factors, INFINITE, (), s.u, ())
    # U^-1 e_i = M pre_i / d_i; the reps are sum_i w_i U^-1 e_i, 0 <= w_i < d_i
    cols = [tuple(x // di for x in mat_vec(image_map.matrix, p)) for di, p in zip(diag, s.pre)]
    reps = tuple(
        tuple(sum(w * col[k] for w, col in zip(ws, cols)) for k in range(target.rank))
        for ws in itertools.product(*(range(x) for x in diag))
    )
    return QuotientData(factors, math.prod(diag), reps, s.u, diag)


# ---------------------------------------------------------------------------
# quadratic form tests


def is_positive_definite(q: Sequence[Sequence[Fraction]]) -> bool:
    """Sylvester's criterion: q, scaled to integers by the lcm of its
    denominators, has every leading minor's det positive.  Requires
    symmetric input."""
    n = len(q)
    qq = [[Fraction(x) for x in row] for row in q]
    for i in range(n):
        for j in range(n):
            if qq[i][j] != qq[j][i]:
                raise NotSymmetric(f"entry ({i},{j}) != ({j},{i})")
    scale = math.lcm(*(x.denominator for row in qq for x in row))
    qi = [[x.numerator * (scale // x.denominator) for x in row] for row in qq]
    return all(det(tuple(tuple(row[:k]) for row in qi[:k])) > 0 for k in range(1, n + 1))
