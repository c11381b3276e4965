"""Certified enumeration of integer points under a quadratic bound.

The convolution kernel of the torus-series engine reduces every coefficient
computation to: find all integer points y with

    T(y) = y^T Q y + L.y + C  <=  limit     and     A_k.y + b_k >= 0,

where T is an exact lower bound for the u-adic valuation of the term indexed
by y.  Soundness (never miss a point) is mandatory: a dropped point silently
corrupts a coefficient.  T, the limit and the rows are integers, all work
is integer arithmetic, and an unbounded end of an interval is ``None``.

1. Certification.  Interval propagation over the linear constraints and the
   per-variable quadratic bounds, with a positive definite block fallback,
   yields a box holding every solution.  A round that only pushes out the
   finite end of half-bounded intervals is no progress and hands over to the
   fallback, since such rounds can repeat without end.  The fallback takes
   the still unbounded variables' block Q_U (determinant D, adjugate A) and
   bounds each coordinate by Fincke-Pohst: with l the block's linear part
   and R4 = 4D (limit - base) + l^T A l, the set is empty when R4 < 0 and
   otherwise 2D y_i lies in -(A l)_i +- sqrt(R4 A_ii), rounded outward with
   ``math.isqrt``.  Where l is only known as an interval (it holds the
   bounded variables' cross terms), its midpoint and half-width bound
   (A l)_i and l^T A l from above, which is exact for a single point.  A
   box of more than ``max_points`` points is refused with
   ``EnumerationLimit``.
2. Pruned walk.  The walk first reorders the variables (``_walk_order``):
   those outside a positive definite principal block, in their order, then
   the block, grown greedily over the variables with Q_ii > 0.  A
   permutation of the variables is a bijection of Z^n that carries T, the
   rows and the box along with it, so the walk meets the same points; each
   is mapped back through the inverse permutation as it is emitted.  With
   the block last, B below is positive definite at every level from the
   last variable outside the block on (E026's form is singular: only its
   three theta parameters have Q_ii > 0).  Positive definite forms keep
   their order, as does any order whose positive definite suffix is as long
   as the greedy block.  With y_0..y_{i-1} fixed, T(y) = acc + R(y_i, ...,
   y_{n-1}), where the linear coefficients lin_j of R are updated as the
   prefix grows.  Two cuts narrow each level's box range, and each holds at
   every point of the box, so neither loses a solution:
   - Completion of squares (Fincke-Pohst): when B = Q[i+1:, i+1:] is positive
     definite, the minimum of R over real y_{i+1..} is a quadratic in y_i
     (integer after scaling by 4 det B through the adjugate of B), and y_i
     lies in its integer sublevel set, solved exactly with ``math.isqrt``.
     The last level (B empty) is solved by its own helper, called straight
     from the level before: q v^2 + lin v + acc <= limit, exact for q >= 0.
   - Inequality rows: given the prefix and the box maximum of the suffix
     terms, each row bounds y_i.
   A level whose B is not positive definite walks what the rows leave of
   its box range.
   Every emitted point still passes the exact test T(y) <= limit, and the
   sum it tests is returned with it.  The rows need no test there: each is
   exact at its last nonzero variable's cut or, with one nonzero variable,
   in the box.  Given an integer linear form w.y + w0 (a torus series'
   cell position), the walk carries it as it carries T and returns it too.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain
from operator import itemgetter, mul
from typing import Sequence

from .errors import EnumerationLimit, NotMultipliable
from .intlinalg import det

_MAX_ROUNDS = 64  # cap on bound-propagation rounds
MAX_POINTS = 500_000  # default cap on the certified box


def _lin_min(c, lo, hi):
    """min of c*y over lo <= y <= hi (None ends are unbounded); None is -inf."""
    if c > 0:
        return None if lo is None else c * lo
    if c < 0:
        return None if hi is None else c * hi
    return 0


def _cross_min(q, lo1, hi1, lo2, hi2):
    """min of 2*q*y1*y2 over the box; None is -inf (inf * 0 = 0)."""
    best = None
    for a, sa in ((lo1, -1), (hi1, 1)):
        for b, sb in ((lo2, -1), (hi2, 1)):
            if a is not None and b is not None:
                p = 2 * q * a * b
            else:  # an infinite corner: only its sign matters
                sign = q * (sa if a is None else a) * (sb if b is None else b)
                if sign < 0:
                    return None
                if sign > 0:
                    continue
                p = 0
            if best is None or p < best:
                best = p
    return best


def _square_min(lo, hi):
    if lo is not None and lo > 0:
        return lo * lo
    if hi is not None and hi < 0:
        return hi * hi
    return 0


def _quad_range(A, B, C, lo, hi):
    """The integers v in [lo, hi] with A v^2 + B v + C <= 0, exactly where
    A >= 0 ((2 A v + B)^2 <= B^2 - 4 A C); all of [lo, hi] when A < 0."""
    if A > 0:
        disc = B * B - 4 * A * C
        if disc < 0:
            return 1, 0
        s = math.isqrt(disc)
        return max(lo, -((B + s) // (2 * A))), min(hi, (s - B) // (2 * A))
    if A == 0:
        if B > 0:
            hi = min(hi, -C // B)
        elif B < 0:
            lo = max(lo, -(-C // -B))
        elif C > 0:
            return 1, 0
    return lo, hi


@lru_cache(maxsize=512)
def _pd_adjugate(m):
    """(det m, adjugate of m) when the integer matrix m (a tuple of row
    tuples) is symmetric positive definite, else None."""
    k = len(m)
    if any(m[i][j] != m[j][i] for i in range(k) for j in range(i)):
        return None
    if any(det([r[:t] for r in m[:t]]) <= 0 for t in range(1, k + 1)):
        return None

    def minor(i, j):
        return [r[:j] + r[j + 1 :] for a, r in enumerate(m) if a != i]

    adj = tuple(tuple((-1) ** (i + j) * det(minor(j, i)) for j in range(k)) for i in range(k))
    return det(m), adj


@lru_cache(maxsize=256)
def _tail_bounds(quad):
    """Per level i: (4 det Q[i:, i:], det B, adj B, adj B . Q[i+1:, i]) with
    B = Q[i+1:, i+1:] when B is positive definite, else None."""
    n = len(quad)
    out = []
    for i in range(n):
        pd = _pd_adjugate(tuple(r[i + 1 :] for r in quad[i + 1 :]))
        if pd is None:
            out.append(None)
            continue
        D, adj = pd
        c = [quad[j][i] for j in range(i + 1, n)]
        w = tuple(sum(map(mul, row, c)) for row in adj)
        out.append((4 * (D * quad[i][i] - sum(map(mul, w, c))), D, adj, w))
    return tuple(out)


@lru_cache(maxsize=256)
def _walk_order(quad):
    """The walk's variable order: the variables outside a positive definite
    principal block, in their order, then the block, grown greedily over the
    positive diagonal entries; None, keeping the given order, when its
    positive definite suffix is at least as long as that block (as it is
    when the block already ends the given order)."""
    n = len(quad)
    tail = 0  # every suffix of a positive definite suffix is one too
    while tail < n and _pd_adjugate(tuple(r[n - tail - 1 :] for r in quad[n - tail - 1 :])):
        tail += 1
    block = []
    for i in range(n):
        grown = block + [i]
        if quad[i][i] > 0 and _pd_adjugate(tuple(tuple(quad[a][b] for b in grown) for a in grown)):
            block = grown
    if len(block) <= tail:
        return None
    return tuple(i for i in range(n) if i not in block) + tuple(block)


class QuadExpr:
    """T(y) = y^T Q y + L.y + C with symmetric integer Q."""

    __slots__ = ("n", "quad", "lin", "const")

    def __init__(self, n: int, quad, lin, const: int):
        self.n = n
        self.quad = tuple(map(tuple, quad))
        self.lin = tuple(lin)
        self.const = const
        if not all(isinstance(x, int) for x in (*chain.from_iterable(self.quad), *self.lin, const)):
            raise TypeError(f"QuadExpr takes ints, got {quad}, {lin}, {const}")

    def value(self, y: Sequence[int]) -> int:
        q = self.quad
        acc = self.const
        for i, yi in enumerate(y):
            if yi:
                acc += self.lin[i] * yi
                row = q[i]
                acc += yi * sum(row[j] * y[j] for j in range(self.n) if y[j])
        return acc


class Sublevel(list):
    """The points found, in walk order, ``values``: T at each of them, and
    ``positions``: the caller's linear form at each of them."""

    values = positions = ()


def enumerate_sublevel(
    T: QuadExpr,
    limit: int,
    ineqs: Sequence[tuple[Sequence[int], int]] = (),
    max_points: int = MAX_POINTS,
    position=None,
) -> Sublevel:
    """All integer y with T(y) <= limit and a.y + b >= 0 for each (a, b),
    with the exact T(y) of each in ``values`` and, given an integer linear
    form ``position`` = (w, w0), each w.y + w0 in ``positions``.  The limit
    and the rows are ints, as T is; anything else raises TypeError.

    Raises NotMultipliable when the solution set cannot be certified finite,
    and its subclass EnumerationLimit when the certified box holds more than
    ``max_points`` points.
    """
    n, const = T.n, T.const
    if not isinstance(limit, int):
        raise TypeError(f"the limit must be an int, got {limit!r}")
    rows = []
    for coeffs, b in ineqs:
        if not all(isinstance(x, int) for x in (*coeffs, b)):
            raise TypeError(f"inequality rows take ints, got {(coeffs, b)}")
        if any(coeffs):
            rows.append((coeffs, b))
        elif b < 0:
            return Sublevel()  # a constant row that fails everywhere
    if n == 0:
        out = Sublevel([()] if const <= limit else [])
        out.values = [const] * len(out)
        if position and out:
            out.positions = [position[1]]
        return out

    Q, L = T.quad, T.lin
    lo = [None] * n
    hi = [None] * n

    def set_lower(i, v):
        if lo[i] is None or v > lo[i]:
            lo[i] = v

    def set_upper(i, v):
        if hi[i] is None or v < hi[i]:
            hi[i] = v

    def crossed(i) -> bool:
        return lo[i] is not None and hi[i] is not None and lo[i] > hi[i]

    def propagate_ineqs() -> bool:
        """Tighten bounds by the inequality rows; True when certified empty."""
        for coeffs, b in rows:
            for i, ai in enumerate(coeffs):
                if ai == 0:
                    continue
                # ai*y_i >= -s, s = b + max of the other terms
                s = b
                for j, aj in enumerate(coeffs):
                    if j != i and aj:
                        m = _lin_min(-aj, lo[j], hi[j])
                        if m is None:
                            break
                        s -= m
                else:
                    if ai > 0:
                        set_lower(i, -(s // ai))
                    else:
                        set_upper(i, -s // ai)
                    if crossed(i):
                        return True
        return False

    def lin_coeff_interval(i, ublock):
        """Interval of lin_i + 2*sum_{j not in ublock} Q_ij y_j over the box
        (terms inside ublock, which holds i, stay in the quadratic block)."""
        a = b = L[i]
        for j in range(n):
            qij = Q[i][j]
            if qij == 0 or j in ublock:
                continue
            if a is not None:
                m = _lin_min(2 * qij, lo[j], hi[j])
                a = None if m is None else a + m
            if b is not None:
                m = _lin_min(-2 * qij, lo[j], hi[j])
                b = None if m is None else b - m
        return a, b

    def bounded_part_min(ublock):
        """Lower bound of T over the box without the terms that involve a
        variable of ublock; None is -inf."""
        acc = const
        for j in range(n):
            if j in ublock:
                continue
            lj, hj = lo[j], hi[j]
            qjj = Q[j][j]
            if qjj > 0:
                acc += qjj * _square_min(lj, hj)
            elif qjj < 0:
                if lj is None or hj is None:
                    return None
                acc += qjj * max(lj * lj, hj * hj)
            m = _lin_min(L[j], lj, hj)
            if m is None:
                return None
            acc += m
            for k in range(j + 1, n):
                if Q[j][k] and k not in ublock:
                    m = _cross_min(Q[j][k], lj, hj, lo[k], hi[k])
                    if m is None:
                        return None
                    acc += m
        return acc

    def propagate_quad() -> bool:
        """Tighten bounds by the quadratic bound; True when certified empty."""
        for i in range(n):
            a = Q[i][i]
            if a < 0:
                continue
            rmin = bounded_part_min((i,))
            if rmin is None:
                continue
            llo, lhi = lin_coeff_interval(i, (i,))
            if llo is None or lhi is None:
                continue
            C = limit - rmin
            if a == 0:
                # purely linear in y_i: usable when the coefficient interval
                # is sign-definite
                if llo > 0:
                    set_upper(i, max(C // llo, C // lhi))
                elif lhi < 0:
                    set_lower(i, min(-(-C // llo), -(-C // lhi)))
            else:
                # a*y^2 + Lc*y <= C for some Lc in [llo, lhi]: the union of the
                # two endpoints' exact integer ranges, as Lc*y is linear in Lc
                ends = [_quad_range(a, Lc, -C, -math.inf, math.inf) for Lc in (llo, lhi)]
                ends = [(l, h) for l, h in ends if l <= h]
                if not ends:
                    return True  # no solutions at all
                set_upper(i, max(h for _l, h in ends))
                set_lower(i, min(l for l, _h in ends))
            if crossed(i):
                return True
        return False

    def pd_fallback():
        """Bound the unbounded variables by their positive definite block:
        True when bounded, "empty" when certified empty, None when not PD."""
        u = [i for i in range(n) if lo[i] is None or hi[i] is None]
        pd = _pd_adjugate(tuple(tuple(Q[i][j] for j in u) for i in u))
        if pd is None:
            return None
        D, adj = pd
        # the block's linear part is l = (mid + d) / 2 with |d_j| <= wid_j
        mid, wid = [], []
        for i in u:
            llo, lhi = lin_coeff_interval(i, u)
            if llo is None or lhi is None:
                return None
            mid.append(llo + lhi)
            wid.append(lhi - llo)
        base = bounded_part_min(u)
        if base is None:
            return None
        # Fincke-Pohst per coordinate: y^T Quu y + l.y <= limit - base and
        # Quu^-1 = adj / D give (2D y_i + (adj l)_i)^2 <= adj_ii R4 with
        # R4 = 4D (limit - base) + l^T adj l; doubled, 2 (adj l)_i lies in
        # am_i +- spread_i and 4 R4 <= r16 (equal when every wid_j is 0): the
        # integers +-(4D y_i + am_i) - spread_i are at most |4D y_i + 2 (adj
        # l)_i| <= sqrt(adj_ii r16), so at most its isqrt
        am = [sum(map(mul, row, mid)) for row in adj]
        spread = [sum(abs(a) * w for a, w in zip(row, wid)) for row in adj]
        r16 = 16 * D * (limit - base) + sum(
            m * a + (2 * abs(a) + s) * w for m, a, s, w in zip(mid, am, spread, wid)
        )
        if r16 < 0:
            return "empty"  # no feasible point at all
        for k, i in enumerate(u):
            s = math.isqrt(r16 * adj[k][k]) + spread[k]
            set_upper(i, (s - am[k]) // (4 * D))
            set_lower(i, -((s + am[k]) // (4 * D)))
        return True

    def progressed(before) -> bool:
        """Did the round find a new bound or shrink a bounded interval?
        Pushing out the finite end of a half-bounded interval is no progress:
        it can go on forever (y1 >= 2 y0^2 + 1 and y0 >= (4 y1 + 1) / 3
        double the bounds' digits every round)."""
        for (a, b), l, h in zip(before, lo, hi):
            if (a is None) != (l is None) or (b is None) != (h is None):
                return True
            if l is not None and h is not None and (a, b) != (l, h):
                return True
        return False

    # --- main propagation loop ---------------------------------------------
    for _ in range(_MAX_ROUNDS):
        before = list(zip(lo, hi))
        if propagate_ineqs() or propagate_quad():
            return Sublevel()
        if not progressed(before):
            if None not in lo and None not in hi:
                break
            res3 = pd_fallback()
            if res3 == "empty":
                return Sublevel()
            if res3 is None:
                # only a constant T above the limit is certified empty here
                if const > limit and not any(L) and not any(map(any, Q)):
                    return Sublevel()
                raise NotMultipliable(
                    "cannot certify a finite convolution: unbounded directions "
                    "with non positive definite valuation growth"
                )
    else:
        if None in lo or None in hi:
            raise NotMultipliable("bound propagation did not converge")

    if any(lo[i] > hi[i] for i in range(n)):
        return Sublevel()
    size = 1
    for i in range(n):
        size *= hi[i] - lo[i] + 1
        if size > max_points:
            raise EnumerationLimit(f"certified box too large ({size} > {max_points})")

    # --- pruned walk (see the module docstring) -----------------------------
    order = _walk_order(Q)
    emit = tuple
    pw, p0 = position or ((0,) * n, 0)
    if order is not None:
        Q = tuple(tuple(Q[i][j] for j in order) for i in order)
        L = [L[i] for i in order]
        lo = [lo[i] for i in order]
        hi = [hi[i] for i in order]
        rows = [(tuple(c[i] for i in order), b) for c, b in rows]
        pw = [pw[i] for i in order]
        emit = itemgetter(*sorted(range(n), key=order.__getitem__))
    tails = _tail_bounds(Q)
    # rows coupling y_i with other variables bound y_i given the prefix:
    # (prefix coefficients, b + box maximum of the suffix terms, coefficient of y_i);
    # at a row's last nonzero variable the suffix is empty and the cut exact, and
    # propagate_ineqs made the box exact for one-variable rows, so no leaf test
    cuts = [
        [
            (c[:i], b + sum(-_lin_min(-c[k], lo[k], hi[k]) for k in range(i + 1, n)), c[i])
            for c, b in rows
            if c[i] and sum(map(bool, c)) > 1
        ]
        for i in range(n)
    ]
    lin = list(L)
    y = [0] * n
    out, vals, pos = Sublevel(), [], []
    last = n - 1
    q, wl = Q[last][last], pw[last]

    def leaf(acc, l, p):
        a, b = _quad_range(q, l, acc - limit, lo[last], hi[last])
        for pre, s, ci in cuts[last]:
            s += sum(map(mul, pre, y))
            if ci > 0:
                a = max(a, -(s // ci))
            else:
                b = min(b, s // -ci)
        for v in range(a, b + 1):
            t = acc + (q * v + l) * v
            if t <= limit:
                y[last] = v
                out.append(emit(y))
                vals.append(t)
                pos.append(p + wl * v)

    def rec(i, acc, p):
        a, b = lo[i], hi[i]
        if tails[i] is not None:
            A, D, adj, w = tails[i]
            rest = lin[i + 1 :]
            Bc = 4 * (D * lin[i] - sum(map(mul, w, rest)))
            Cc = 4 * D * (acc - limit) - sum(t * sum(map(mul, row, rest)) for t, row in zip(rest, adj))
            a, b = _quad_range(A, Bc, Cc, a, b)
        for pre, s, ci in cuts[i]:
            s += sum(map(mul, pre, y))
            if ci > 0:
                a = max(a, -(s // ci))
            else:
                b = min(b, s // -ci)
        qii, li, wi, j = Q[i][i], lin[i], pw[i], i + 1
        if j == last:
            l, c = lin[last], 2 * Q[i][last]
            for v in range(a, b + 1):
                y[i] = v
                leaf(acc + (qii * v + li) * v, l + c * v, p + wi * v)
            return
        base, row = lin[j:], [2 * x for x in Q[i][j:]]
        for v in range(a, b + 1):
            lin[j:] = [t + c * v for t, c in zip(base, row)]
            y[i] = v
            rec(j, acc + (qii * v + li) * v, p + wi * v)
        lin[j:] = base

    if n == 1:
        leaf(const, lin[0], p0)
    else:
        rec(0, const, p0)
    del rec  # rec's closure holds rec: left to the cyclic collector, the cycle would keep the points
    if position and pos:
        out.positions = pos
    out.values = vals
    return out

