"""Exact rational and rational-function linear algebra."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetfree.errors import NoSolution, SingularJacobian
from jetfree.jetspace import JetContext, SpaceSpec
from jetfree.linalg import det, expr_inverse, nullspace, rank, solve_affine, solve_square
from jetfree.symkernel import Expr, VarRegistry


def _frac_rows(ints):
    return [[Fraction(x) for x in row] for row in ints]


def test_rank_and_rref_known():
    # reduced rows (1, 0, 1) and (0, 1, 1), pivots in columns 0 and 1: the
    # kernel is spanned by (-1, -1, 1)
    m = _frac_rows([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert rank(m) == 2
    assert nullspace(m, 3) == [[Fraction(-1), Fraction(-1), Fraction(1)]]


def test_nullspace_known():
    m = _frac_rows([[1, 2, 3], [2, 4, 6]])
    basis = nullspace(m, 3)
    assert len(basis) == 2
    for v in basis:
        assert all(sum(r[j] * v[j] for j in range(3)) == 0 for r in m)
    assert basis[0][1] == 1 and basis[1][2] == 1


def test_nullspace_trivial():
    m = _frac_rows([[1, 0], [0, 1]])
    assert nullspace(m, 2) == []


def test_solve_affine_unique():
    a = _frac_rows([[2, 0], [0, 3]])
    x, basis = solve_affine(a, [Fraction(4), Fraction(9)])
    assert x == [Fraction(2), Fraction(3)]
    assert basis == []


def test_solve_affine_underdetermined():
    a = _frac_rows([[1, 1, 0]])
    x, basis = solve_affine(a, [Fraction(5)])
    assert sum(ai * xi for ai, xi in zip(a[0], x)) == 5
    assert len(basis) == 2


def test_solve_affine_inconsistent():
    a = _frac_rows([[1, 1], [1, 1]])
    with pytest.raises(NoSolution):
        solve_affine(a, [Fraction(1), Fraction(2)])


def test_det_known():
    assert det(_frac_rows([[1, 2], [3, 4]])) == -2
    assert det(_frac_rows([[1, 2], [2, 4]])) == 0
    assert det([[Fraction(1, 2), Fraction(0)], [Fraction(7), Fraction(2, 3)]]) == Fraction(1, 3)
    assert det(_frac_rows([[2, 0, 1], [1, 1, 0], [0, 3, 1]])) == 5


_small = st.integers(-5, 5)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(_small, min_size=4, max_size=4), min_size=2, max_size=5))
def test_nullspace_annihilates(ints):
    m = _frac_rows(ints)
    basis = nullspace(m, 4)
    assert len(basis) == 4 - rank(m)
    for v in basis:
        for r in m:
            assert sum(r[j] * v[j] for j in range(4)) == 0


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.lists(_small, min_size=3, max_size=3), min_size=3, max_size=3),
    st.lists(_small, min_size=3, max_size=3),
)
def test_solve_affine_verifies(ints, xs):
    a = _frac_rows(ints)
    b = [sum(Fraction(a_ij) * x for a_ij, x in zip(row, xs)) for row in ints]
    x, basis = solve_affine(a, b)
    for row, rhs in zip(a, b):
        assert sum(c * v for c, v in zip(row, x)) == rhs
    assert len(basis) == 3 - rank(a)


def test_expr_det_and_inverse():
    reg = VarRegistry()
    u = Expr.var(reg, reg.register("u"))
    x = Expr.var(reg, reg.register("x"))
    one = Expr.const(reg, 1)
    zero = Expr.const(reg, 0)
    m = [[u, x], [one, u]]
    assert det(m) == u * u - x
    inv = expr_inverse(m)
    for i in range(2):
        for j in range(2):
            acc = zero
            for k in range(2):
                acc = acc + m[i][k] * inv[k][j]
            assert acc == (one if i == j else zero)


def test_expr_det_three_by_three():
    reg = VarRegistry()
    t = Expr.var(reg, reg.register("t"))
    one = Expr.const(reg, 1)
    zero = Expr.const(reg, 0)
    m = [[t, one, zero], [one, t, one], [zero, one, t]]
    assert det(m) == t**3 - 2 * t


def test_expr_inverse_singular_raises():
    reg = VarRegistry()
    u = Expr.var(reg, reg.register("u"))
    with pytest.raises(SingularJacobian):
        expr_inverse([[u, u], [u, u]])


# -- the sparse elimination against textbook dense Gauss-Jordan ----------------------


def _dense_rref(rows):
    """Dense Gauss-Jordan over Fraction, the oracle: (rows, pivot cols)."""
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[: len(pivots)], pivots


def _dense_nullspace(rows, ncols):
    red, pivots = _dense_rref(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for k, c in enumerate(pivots):
            v[c] = -red[k][f]
        basis.append(v)
    return basis


def _seeded_matrices(seed, count):
    """Seeded rational matrices of every shape the kernel must handle:
    empty, 1 x n, n x 1, zero rows, duplicate rows, rows with one
    nonzero, sparse and dense."""
    rng = random.Random(seed)
    yield []
    yield [[]]
    yield [[Fraction(0)] * 3]
    for _ in range(count):
        nrows = rng.choice([1, 1, 2, 3, 5, 8])
        ncols = rng.choice([1, 1, 2, 4, 7, 9])
        density = rng.choice([0.15, 0.4, 1.0])
        m = [
            [
                Fraction(rng.randint(-9, 9), rng.randint(1, 4)) if rng.random() < density else Fraction(0)
                for _ in range(ncols)
            ]
            for _ in range(nrows)
        ]
        kind = rng.randrange(4)
        if kind == 0:
            m.insert(rng.randrange(nrows + 1), [Fraction(0)] * ncols)
        elif kind == 1:
            m.append(list(rng.choice(m)))
        elif kind == 2:
            row = [Fraction(0)] * ncols
            row[rng.randrange(ncols)] = Fraction(rng.choice([-3, 1, 5]), rng.randint(1, 3))
            m.insert(rng.randrange(nrows + 1), row)
        rng.shuffle(m)
        yield m


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_elimination_matches_dense_oracle(seed):
    for m in _seeded_matrices(seed, 150):
        ncols = len(m[0]) if m else 4
        _, pivots = _dense_rref(m)
        assert rank(m) == len(pivots)
        assert nullspace(m, ncols) == _dense_nullspace(m, ncols)


@pytest.mark.parametrize("seed", [0, 1])
def test_solve_affine_matches_dense_oracle(seed):
    rng = random.Random(seed)
    for m in _seeded_matrices(seed, 150):
        if not m or not m[0]:
            continue
        ncols = len(m[0])
        b = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in m]
        red, pivots = _dense_rref([row + [rhs] for row, rhs in zip(m, b)])
        if pivots and pivots[-1] == ncols:
            with pytest.raises(NoSolution):
                solve_affine(m, b)
            continue
        x = [Fraction(0)] * ncols
        for k, c in enumerate(pivots):
            x[c] = red[k][ncols]
        assert solve_affine(m, b) == (x, _dense_nullspace(m, ncols))


def test_empty_shapes():
    assert rank([]) == 0
    assert rank([[]]) == 0
    assert nullspace([], 2) == [[1, 0], [0, 1]]
    assert nullspace([[]], 0) == []
    assert solve_affine([], []) == ([], [])


# -- the dense kernel against the eliminations it replaced -------------------------


def _leibniz_det(m):
    """Sum over permutations, the oracle for exact determinants."""
    n = len(m)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def _old_float_det(rows):
    """Partial-pivoting float determinant, as the jet checks computed it before."""
    m = [list(map(float, r)) for r in rows]
    n = len(m)
    out = 1.0
    for c in range(n):
        piv = max(range(c, n), key=lambda r: abs(m[r][c]))
        if m[piv][c] == 0.0:
            return 0.0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = -out
        out *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            for k in range(c, n):
                m[r][k] -= f * m[c][k]
    return out


def _old_solve_float(a, b):
    """Partial-pivoting float solve, as the Gauss-Newton frame step computed it before."""
    n = len(a)
    m = [row[:] + [rhs] for row, rhs in zip(a, b)]
    for c in range(n):
        piv = max(range(c, n), key=lambda r: abs(m[r][c]))
        if m[piv][c] == 0.0:
            return None
        m[c], m[piv] = m[piv], m[c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            for k in range(c, n + 1):
                m[r][k] -= f * m[c][k]
    out = [0.0] * n
    for r in range(n - 1, -1, -1):
        s = m[r][n] - sum(m[r][j] * out[j] for j in range(r + 1, n))
        out[r] = s / m[r][r]
    return out


def _old_expr_det(rows):
    """Field elimination with first-nonzero pivots, cofactors below 3 x 3."""
    n = len(rows)
    reg = rows[0][0].reg
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    m = [list(r) for r in rows]
    result = Expr.const(reg, 1)
    for c in range(n):
        pr = next((i for i in range(c, n) if not m[i][c].is_zero()), None)
        if pr is None:
            return Expr.const(reg, 0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            result = -result
        pivot = m[c][c]
        result = result * pivot
        for i in range(c + 1, n):
            f = m[i][c] / pivot
            if not f.is_zero():
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return result


def _old_expr_inverse(rows):
    """Gauss-Jordan over the rational-function field; None when singular."""
    n = len(rows)
    reg = rows[0][0].reg
    m = [list(r) for r in rows]
    inv = [[Expr.const(reg, 1 if i == j else 0) for j in range(n)] for i in range(n)]
    for c in range(n):
        pr = next((i for i in range(c, n) if not m[i][c].is_zero()), None)
        if pr is None:
            return None
        m[c], m[pr] = m[pr], m[c]
        inv[c], inv[pr] = inv[pr], inv[c]
        pivot = m[c][c]
        m[c] = [e / pivot for e in m[c]]
        inv[c] = [e / pivot for e in inv[c]]
        for i in range(n):
            f = m[i][c]
            if i != c and not f.is_zero():
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
                inv[i] = [a - f * b for a, b in zip(inv[i], inv[c])]
    return inv


def _square_matrices(rng, count, entry):
    """Seeded square matrices up to 5 x 5: sparse and dense, some with a
    zero row, a repeated row or a row that is the sum of two others."""
    for _ in range(count):
        n = rng.choice([1, 1, 2, 2, 3, 4, 5])
        density = rng.choice([0.3, 0.7, 1.0])
        m = [[entry() if rng.random() < density else entry() * 0 for _ in range(n)] for _ in range(n)]
        kind = rng.randrange(5)
        if kind == 0:
            m[rng.randrange(n)] = [entry() * 0 for _ in range(n)]
        elif kind == 1 and n > 1:
            i, j = rng.sample(range(n), 2)
            m[i] = list(m[j])
        elif kind == 2 and n > 2:
            i, j, k = rng.sample(range(n), 3)
            m[i] = [a + b for a, b in zip(m[j], m[k])]
        yield m


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_det_matches_leibniz(seed):
    rng = random.Random(seed)
    assert det([]) == 1
    singular = 0
    for m in _square_matrices(rng, 200, lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 5))):
        want = _leibniz_det(m)
        assert det(m) == want
        singular += want == 0
    assert singular > 20


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_float_det_and_solve_match_the_old_float_code(seed):
    rng = random.Random(seed)
    singular = 0
    for m in _square_matrices(rng, 300, lambda: rng.uniform(-4.0, 4.0)):
        assert (det(m) == 0) == (_old_float_det(m) == 0.0)
        b = [rng.uniform(-4.0, 4.0) for _ in m]
        want = _old_solve_float(m, b)
        got = solve_square(m, b)
        singular += want is None
        if want is None:
            assert got is None
        else:
            assert [x.hex() for x in got] == [x.hex() for x in want]
    assert singular > 20


def _total_jacobian(p):
    ctx = JetContext(SpaceSpec(("x", "y", "z")[:p], ("u",)))
    return ctx.total_jacobian()


@pytest.mark.parametrize("p", [1, 2])
def test_expr_inverse_of_the_total_jacobian_matches_gauss_jordan(p):
    jac = _total_jacobian(p)
    assert expr_inverse(jac) == _old_expr_inverse(jac)
    assert det(jac) == _old_expr_det(jac)


@pytest.mark.parametrize("seed", [0, 1])
def test_expr_det_and_inverse_match_the_old_field_elimination(seed):
    rng = random.Random(seed)
    reg = VarRegistry()
    xs = [Expr.var(reg, reg.register(name)) for name in ("a", "b", "c")]

    def entry():
        e = Expr.const(reg, rng.randint(-3, 3))
        for x in rng.sample(xs, rng.randint(0, 2)):
            e = e + rng.randint(-2, 2) * x ** rng.randint(1, 2)
        return e / (xs[0] + rng.randint(1, 3)) if rng.random() < 0.2 else e

    singular = 0
    for m in _square_matrices(rng, 40, entry):
        if len(m) > 3:
            continue
        want = _old_expr_inverse(m)
        singular += want is None
        if want is None:
            with pytest.raises(SingularJacobian):
                expr_inverse(m)
        else:
            assert expr_inverse(m) == want
        assert det(m) == _old_expr_det(m)
    assert singular > 3
