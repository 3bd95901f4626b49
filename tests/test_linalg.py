"""Exact rational and rational-function linear algebra."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetfree.errors import NoSolution, SingularJacobian
from jetfree.linalg import det, expr_det, expr_inverse, nullspace, rank, rref, solve_affine
from jetfree.symkernel import Expr, VarRegistry


def _frac_rows(ints):
    return [[Fraction(x) for x in row] for row in ints]


def test_rank_and_rref_known():
    m = _frac_rows([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert rank(m) == 2
    red, pivots = rref(m)
    assert pivots == [0, 1]
    assert red[0] == [Fraction(1), Fraction(0), Fraction(1)]
    assert red[1] == [Fraction(0), Fraction(1), Fraction(1)]


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
    assert expr_det(m) == u * u - x
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
    assert expr_det(m) == t**3 - 2 * t


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
        red, pivots = _dense_rref(m)
        if m:
            assert rref(m) == (red, pivots)
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
    assert rref([]) == ([], []) and rank([]) == 0
    assert rref([[]]) == ([], []) and rank([[]]) == 0
    assert nullspace([], 2) == [[1, 0], [0, 1]]
    assert nullspace([[]], 0) == []
    assert solve_affine([], []) == ([], [])
