"""Smith normal form, quotients, definiteness: exact integer linear algebra."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qtheta.errors import NotSymmetric
from qtheta.intlinalg import (
    INFINITE,
    IntegerSolver,
    Lattice,
    LatticeMap,
    bilinear_eval,
    det,
    identity,
    is_positive_definite,
    mat,
    mat_inverse_unimodular,
    mat_mul,
    mat_vec,
    quotient_data,
    smith,
    smith_normal_form,
    snf_diagonal,
    solve_integer,
    transpose,
)


def check_snf(m):
    u, d, v = smith_normal_form(m)
    assert mat_mul(mat_mul(u, m), v) == d
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    diag = snf_diagonal(d)
    for i in range(len(d)):
        for j in range(len(d[0])):
            if i != j:
                assert d[i][j] == 0
    nz = [x for x in diag if x]
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    assert all(x >= 0 for x in diag)
    return diag


def test_snf_examples():
    # diag(2,3) -> diag(1,6) by row/column reduction
    assert check_snf(mat([[2, 0], [0, 3]])) == [1, 6]
    assert check_snf(identity(3)) == [1, 1, 1]
    # [[2,4],[0,0]] -> diag(2,0) by gcd reduction
    assert check_snf(mat([[2, 4], [0, 0]])) == [2, 0]


def test_snf_random():
    rng = random.Random(42)
    for _ in range(200):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        m = mat([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
        check_snf(m)


def test_unimodular_inverse():
    rng = random.Random(9)
    for _ in range(30):
        # random unimodular: product of elementary matrices
        n = rng.randint(1, 4)
        m = [list(r) for r in identity(n)]
        for _ in range(8):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                k = rng.randint(-3, 3)
                m[i] = [x + k * y for x, y in zip(m[i], m[j])]
        m = mat(m)
        inv = mat_inverse_unimodular(m)
        assert mat_mul(m, inv) == identity(n)



@pytest.mark.parametrize(
    "m", [[[2, 0], [0, 1]], [[1, 1], [1, -1]], [[1, 0]], [[1], [0]], [[0, 0], [0, 0]]],
    ids=["det2", "det-2", "wide", "tall", "zero"],
)
def test_unimodular_inverse_refuses_other_matrices(m):
    with pytest.raises(ValueError):
        mat_inverse_unimodular(mat(m))


def test_quotient_examples():
    # Z / 2Z
    q = quotient_data(Lattice(1), LatticeMap.scaling(1, 2))
    assert q.index == 2
    assert sorted(v[0] % 2 for v in q.coset_reps) == [0, 1]
    # Z^2 / <(1,0)> is infinite
    q2 = quotient_data(Lattice(2), LatticeMap(mat([[1], [0]])))
    assert q2.index == INFINITE
    # Z^2 / <(2,0),(1,3)> has index 6 = |det|
    q3 = quotient_data(Lattice(2), LatticeMap(mat([[2, 1], [0, 3]])))
    assert q3.index == 6
    assert len(q3.coset_reps) == 6
    # representatives are pairwise incongruent and project correctly
    seen = set()
    for i, rep in enumerate(q3.coset_reps):
        assert q3.project(rep) == i
        seen.add(q3.project(rep))
    assert len(seen) == 6


def test_quotient_index_matches_det():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(1, 3)
        m = mat([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        dd = det(m)
        q = quotient_data(Lattice(n), LatticeMap(m))
        if dd == 0:
            assert q.index == INFINITE
        else:
            assert q.index == abs(dd)


def _coset_reps_by_unimodular_inverse(m):
    """Coset reps sum_i w_i U^-1 e_i (0 <= w_i < d_i) with U^-1 taken by
    inverting U, the construction quotient_data reads off M's columns now."""
    u, d, _ = smith_normal_form(m)
    diag = [x for x in snf_diagonal(d) if x]
    uinv_cols = transpose(mat_inverse_unimodular(u))
    n = len(m)
    return tuple(
        tuple(sum(uinv_cols[i][k] * w[i] for i in range(n)) for k in range(n))
        for w in itertools.product(*(range(x) for x in diag))
    )


def test_quotient_reps_match_the_unimodular_inverse_construction():
    rng = random.Random(31)
    checked = 0
    while checked < 60:
        n = rng.randint(1, 4)
        m = mat([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        if det(m) == 0 or abs(det(m)) > 200:
            continue
        q = quotient_data(Lattice(n), LatticeMap(m))
        assert q.coset_reps == _coset_reps_by_unimodular_inverse(m)
        assert [q.project(rep) for rep in q.coset_reps] == list(range(q.index))
        checked += 1


def test_quotient_reduce_is_translation_invariant():
    m = LatticeMap(mat([[2, 1], [0, 3]]))
    q = quotient_data(Lattice(2), m)
    rng = random.Random(17)
    for _ in range(40):
        v = (rng.randint(-8, 8), rng.randint(-8, 8))
        shift = m((rng.randint(-3, 3), rng.randint(-3, 3)))
        assert q.reduce(v) == q.reduce((v[0] + shift[0], v[1] + shift[1]))


def test_solve_integer():
    m = mat([[2, 0], [0, 3]])
    sol = solve_integer(m, (4, -6))
    assert sol is not None and mat_vec(m, sol[0]) == (4, -6)
    assert solve_integer(m, (1, 0)) is None
    # underdetermined: kernel has rank 1
    m2 = mat([[1, 2, 3]])
    part, ker = solve_integer(m2, (6,))
    assert mat_vec(m2, part) == (6,)
    assert len(ker) == 2
    for k in ker:
        assert mat_vec(m2, k) == (0,)


def test_kernel_basis():
    m = mat([[2, 4], [1, 2]])
    ker = smith(m).kernel
    assert len(ker) == 1 and mat_vec(m, ker[0]) == (0, 0)


def test_smith_is_shared_and_its_readers_return_copies():
    rows = [[2, 4], [1, 2]]
    s = smith(rows)
    assert smith(mat(rows)) is s  # lists of lists and row tuples share one entry
    solve_integer(rows, (2, 1))[1].clear()
    assert isinstance(s.kernel, tuple)
    assert solve_integer(rows, (2, 1))[1] == list(s.kernel) and len(s.kernel) == 1
    assert mat_vec(mat(rows), s.kernel[0]) == (0, 0)


def test_snf_transforms_give_the_image():
    """M V e_i = d_i U^-1 e_i, so the nonzero d_i U^-1 e_i span M's image
    (the identity theta_dim_basis relies on)."""
    rng = random.Random(23)
    for _ in range(100):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        m = mat([[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)])
        u, d, v = smith_normal_form(m)
        mv, uinv = transpose(mat_mul(m, v)), transpose(mat_inverse_unimodular(u))
        diag = snf_diagonal(d) + [0] * c
        for i in range(c):
            assert mv[i] == tuple(diag[i] * x for x in (uinv[i] if i < r else (0,) * r))
    # the column (2, 1) of [[2, 4], [1, 2]] lies in that span
    u, d, _v = smith_normal_form(mat([[2, 4], [1, 2]]))
    uinv = transpose(mat_inverse_unimodular(u))
    img = [tuple(di * x for x in col) for di, col in zip(snf_diagonal(d), uinv) if di]
    assert len(img) == 1 and solve_integer(tuple(zip(*img)), (2, 1)) is not None


def test_positive_definite_examples():
    assert is_positive_definite([[4, 0], [0, 4]])
    assert not is_positive_definite([[0, 1], [1, 0]])
    assert is_positive_definite([[2, 1], [1, 2]])  # minors 2, 3
    with pytest.raises(NotSymmetric):
        is_positive_definite([[1, 2], [0, 1]])
    # det(-I) = 1 > 0, but the first leading minor is -1
    assert not is_positive_definite([[-1, 0], [0, -1]])
    # half-integer entries: minors 1/2 and 1/4, taken exactly as 1 and 1 at scale 2
    half = Fraction(1, 2)
    assert is_positive_definite([[half, half], [half, 1]])
    assert not is_positive_definite([[half, half], [half, half]])
    assert is_positive_definite([[Fraction(1, 3), Fraction(1, 4)], [Fraction(1, 4), Fraction(1, 2)]])


def test_positive_definite_vs_bruteforce():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.choice([2, 3])
        q = [[Fraction(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i):
                q[i][j] = q[j][i]
        verdict = is_positive_definite(q)
        # brute-force necessary condition over the box ||g||_inf <= 5
        box_positive = True
        rng_pts = [
            tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(120)
        ]
        for g in rng_pts:
            if any(g):
                val = sum(Fraction(g[i]) * q[i][j] * g[j] for i in range(n) for j in range(n))
                if val <= 0:
                    box_positive = False
                    break
        if verdict:
            assert box_positive
        # (non-PD forms may still be positive on the sampled box; only the
        # one-way implication is a theorem)


def test_bilinear_eval():
    q = mat([[0, 2], [-2, 0]])
    assert bilinear_eval(q, (1, 0), (0, 1)) == 2
    assert bilinear_eval(q, (0, 0), (5, 7)) == 0
    rng = random.Random(3)
    for _ in range(20):
        g = (rng.randint(-5, 5), rng.randint(-5, 5))
        assert bilinear_eval(q, g, g) == 0  # antisymmetry


# -- the one integer solver -----------------------------------------------------


def _minor_gcd(m, r):
    """gcd of all r x r minors of an integer matrix (0 when all vanish)."""
    g = 0
    for rows in itertools.combinations(range(len(m)), r):
        for cols in itertools.combinations(range(len(m[0])), r):
            g = math.gcd(g, det(tuple(tuple(m[i][j] for j in cols) for i in rows)))
    return g


def _rank(m):
    rows, cols = len(m), len(m[0])
    for r in range(min(rows, cols), 0, -1):
        if _minor_gcd(m, r):
            return r
    return 0


def _solvable(m, t):
    """Integer solvability of M y = t without Smith normal form: the augmented
    matrix must keep the rank r and the gcd of the r x r minors."""
    aug = tuple(row + (x,) for row, x in zip(m, t))
    r = _rank(m)
    if _rank(aug) != r:
        return False
    return r == 0 or _minor_gcd(m, r) == _minor_gcd(aug, r)


@st.composite
def solver_cases(draw):
    d = draw(st.integers(1, 4))
    k = draw(st.integers(1, 5))
    m = [[draw(st.integers(-3, 3)) for _ in range(k)] for _ in range(d)]
    if d > 1 and draw(st.booleans()):  # rank-deficient: a row of combinations
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[1 % (d - 1)])]
    if draw(st.booleans()):  # elementary divisors other than 1
        f, i = draw(st.sampled_from([2, 3, 4, 6])), draw(st.integers(0, d - 1))
        m[i] = [f * x for x in m[i]]
    if draw(st.booleans()):  # a target in the image
        x = [draw(st.integers(-3, 3)) for _ in range(k)]
        t = tuple(sum(a * b for a, b in zip(row, x)) for row in m)
    else:
        t = tuple(draw(st.integers(-8, 8)) for _ in range(d))
    return mat(m), t


@settings(max_examples=300, deadline=None)
@given(solver_cases())
def test_integer_solver_properties(case):
    m, t = case
    solver = IntegerSolver(m)
    y = solver.solve(t)
    if y is not None:
        assert mat_vec(m, y) == t
    assert (y is not None) == _solvable(m, t)
    if y is None:  # nothing in a small box either
        k = len(m[0])
        box = itertools.product(range(-3, 4), repeat=k) if k <= 4 else ()
        assert all(mat_vec(m, x) != t for x in box)
    assert len(solver.kernel) == len(m[0]) - _rank(m)
    for v in solver.kernel:
        assert mat_vec(m, v) == (0,) * len(m)
    assert solve_integer(m, t) == (None if y is None else (y, list(solver.kernel)))


@st.composite
def batch_cases(draw):
    """A solver case's matrix with zero rows, a kernel or divisors > 1 and
    up to seven targets, each in the image or arbitrary (often unsolvable)."""
    m, _t = draw(solver_cases())
    d, k = len(m), len(m[0])
    targets = []
    for _ in range(draw(st.integers(0, 7))):
        if draw(st.booleans()):
            x = [draw(st.integers(-3, 3)) for _ in range(k)]
            targets.append(mat_vec(m, x))
        else:
            targets.append(tuple(draw(st.integers(-8, 8)) for _ in range(d)))
    return m, targets


@settings(max_examples=300, deadline=None)
@given(batch_cases())
def test_batch_solve_is_the_per_target_solve(case):
    # the batch is one pass per row of U over all targets; each target gets
    # exactly its own answer, which solves M y = t exactly when t is solvable
    m, targets = case
    solver = IntegerSolver(m)
    ys = solver.solve_all(targets)
    assert ys == [solver.solve(t) for t in targets]
    for t, y in zip(targets, ys):
        assert (y is not None) == _solvable(m, t)
        assert y is None or mat_vec(m, y) == t


def test_integer_solver_without_rows():
    # a matrix with no rows: every parameter is free
    solver = IntegerSolver((), 3)
    assert solver.solve(()) == (0, 0, 0)
    assert solver.kernel == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
