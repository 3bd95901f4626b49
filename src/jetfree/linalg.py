"""Exact linear algebra over rationals, and dense square solves over any field.

Rational matrices are lists of rows of ``Fraction``.  Ranks, kernels
and affine solves share one sparse fraction-free Gauss-Jordan
elimination over integer rows, so they are exact by construction and
cost little on the mostly-zero matrices of fiber and freeness problems.
Determinants, inverses and square solves share one dense Gaussian
elimination over the field of their entries: ``Fraction``, float, or
:class:`~jetfree.symkernel.Expr`, whose zero test is structural, which
canonical form makes decidable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import NoSolution, SingularJacobian
from .symkernel import Expr

Row = list[Fraction]

_ZERO = Fraction(0)


def _eliminate(rows: Sequence[Sequence[Fraction]]) -> list[tuple[int, dict[int, int]]]:
    """Sparse fraction-free Gauss-Jordan elimination.

    Each row is cleared of denominators into a dict of its nonzero
    integer entries and kept primitive (content 1) after every update.
    Columns are taken in order; a column's pivot is the sparsest unused
    row with an entry there, and only the rows with an entry in the
    pivot column are touched.  Returns the pivot rows as (pivot column,
    entries) in column order; each pivot column has an entry in its own
    pivot row only, so dividing each row by its pivot entry gives the
    reduced row echelon form.
    """
    live: list[dict[int, int]] = []
    where: dict[int, set[int]] = {}  # column -> rows with an entry there
    for row in rows:
        nz = [(j, c) for j, c in enumerate(row) if c]
        lcm = math.lcm(*(c.denominator for _, c in nz)) if nz else 1
        entries = _primitive({j: c.numerator * (lcm // c.denominator) for j, c in nz})
        for j in entries:
            where.setdefault(j, set()).add(len(live))
        live.append(entries)
    used: set[int] = set()
    pivots: list[tuple[int, int]] = []
    # elimination only moves entries into columns some row already uses
    for c in sorted(where):
        holders = where[c]
        free = [i for i in holders if i not in used]
        if not free:
            continue
        r = min(free, key=lambda i: (len(live[i]), i))
        used.add(r)
        prow = live[r]
        p = prow[c]
        for i in list(holders):
            if i == r:
                continue
            old = live[i]
            f = old[c]
            g = math.gcd(p, f)
            a, b = p // g, f // g
            new = {j: a * v for j, v in old.items()}
            for j, v in prow.items():
                s = new.get(j, 0) - b * v
                if s:
                    new[j] = s
                else:
                    del new[j]
            for j in old:
                if j not in new:
                    where[j].discard(i)
            for j in new:
                if j not in old:
                    where[j].add(i)
            live[i] = _primitive(new)
        pivots.append((c, r))
    return [(c, live[r]) for c, r in pivots]


def _primitive(entries: dict[int, int]) -> dict[int, int]:
    g = math.gcd(*entries.values()) if entries else 1
    if g == 1:
        return entries
    return {j: v // g for j, v in entries.items()}


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(_eliminate(rows))


def _kernel(pivots: list[tuple[int, dict[int, int]]], ncols: int) -> list[Row]:
    """Kernel basis of the reduced rows, one vector per free column below
    ncols: 1 in its free column, 0 in the others."""
    pivset = {c for c, _ in pivots}
    basis: list[Row] = []
    for f in range(ncols):
        if f in pivset:
            continue
        v = [_ZERO] * ncols
        v[f] = Fraction(1)
        for c, entries in pivots:
            x = entries.get(f)
            if x:
                v[c] = Fraction(-x, entries[c])
        basis.append(v)
    return basis


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[Row]:
    """Basis of the right kernel, one vector per free column in column order.

    Each basis vector has value 1 in its free column and 0 in the others,
    so the result is deterministic and directly readable.
    """
    return _kernel(_eliminate(rows), ncols)


def solve_affine(
    a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> tuple[Row, list[Row]]:
    """All solutions of A x = b as (particular, kernel basis).

    Raises NoSolution when the system is inconsistent.  The particular
    solution sets every free variable to zero.  One elimination of the
    augmented matrix gives both: once it is consistent, its pivot rows
    restricted to A's columns are the reduced form of A.
    """
    if not a:
        if any(b):
            raise NoSolution("inconsistent empty system")
        return [], []
    ncols = len(a[0])
    pivots = _eliminate([list(row) + [rhs] for row, rhs in zip(a, b)])
    if pivots and pivots[-1][0] == ncols:
        raise NoSolution("inconsistent linear system")
    x = [_ZERO] * ncols
    for c, entries in pivots:
        x[c] = Fraction(entries.get(ncols, 0), entries[c])
    return x, _kernel(pivots, ncols)




# ---------------------------------------------------------------------------
# dense square systems over any field: Fraction, float or Expr


def _gauss(m: list[list], n: int) -> tuple[int, list[list] | None]:
    """Dense Gaussian elimination in place over the field of m's entries.

    Forward elimination brings the leading n x n block of m to upper
    triangular form; back substitution then solves block * X = R for the
    columns R right of the block.  A column's pivot is its largest entry
    in absolute value for numbers (Fraction or float) and its first
    nonzero entry for Expr, whose zero test is structural.  Elimination
    stops at the first column without a pivot, whose diagonal entry is
    then zero.  Returns (sign of the row permutation, rows of X), X None
    when the block is singular.
    """
    sign = 1
    for c in range(n):
        rows = range(c, n)
        if isinstance(m[c][c], Expr):
            p = next((r for r in rows if m[r][c] != 0), c)
        else:
            p = max(rows, key=lambda r: abs(m[r][c]))
        if m[p][c] == 0:
            return sign, None
        if p != c:
            m[c], m[p] = m[p], m[c]
            sign = -sign
        top = m[c]
        for r in range(c + 1, n):
            row = m[r]
            f = row[c] / top[c]
            for k in range(c, len(row)):
                row[k] -= f * top[k]
    x: list[list] = [[]] * n
    for r in range(n - 1, -1, -1):
        row = m[r]
        x[r] = [
            (row[t] - sum(row[j] * x[j][t - n] for j in range(r + 1, n))) / row[r]
            for t in range(n, len(row))
        ]
    return sign, x


def det(rows: Sequence[Sequence]) -> object:
    """Determinant of a square matrix over Fraction, float or Expr."""
    m = [list(r) for r in rows]
    sign, _ = _gauss(m, len(m))
    d = math.prod(m[c][c] for c in range(len(m)))
    return d if sign > 0 else -d


def solve_square(a: Sequence[Sequence], b: Sequence) -> list | None:
    """The solution of the square system a x = b over the field of its
    entries, or None when a is singular."""
    _, x = _gauss([list(row) + [rhs] for row, rhs in zip(a, b)], len(a))
    return None if x is None else [v for v, in x]


def expr_inverse(rows: Sequence[Sequence[Expr]]) -> list[list[Expr]]:
    """Exact inverse of a square Expr matrix over the rational-function
    field; raises SingularJacobian when the matrix is singular as a
    matrix of rational functions."""
    n = len(rows)
    reg = rows[0][0].reg
    one, zero = Expr.const(reg, 1), Expr.const(reg, 0)
    m = [list(r) + [one if i == j else zero for j in range(n)] for i, r in enumerate(rows)]
    _, inverse = _gauss(m, n)
    if inverse is None:
        raise SingularJacobian("matrix of rational functions is singular")
    return inverse
