"""Exact linear algebra over rationals and over rational-function matrices.

Rational matrices are lists of rows of ``Fraction``.  Reduced echelon
form, ranks, kernels and affine solves share one sparse fraction-free
Gauss-Jordan elimination over integer rows, so they are exact by
construction and cost little on the mostly-zero matrices of fiber and
freeness problems; determinants use Bareiss elimination.
Rational-function matrices (entries :class:`~jetfree.symkernel.Expr`)
get determinant and inverse through field elimination with structural
zero tests, which canonical form makes decidable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import NoSolution, SingularJacobian
from .symkernel import Expr

Row = list[Fraction]

_ZERO = Fraction(0)


def _clear_denominators(rows: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    out = []
    for row in rows:
        lcm = 1
        for c in row:
            lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
        out.append([int(c * lcm) for c in row])
    return out


def _bareiss_forward(m: list[list[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free row echelon form.

    Returns (echelon rows, pivot column list, sign of row permutation).
    Entries stay integral throughout; each pivot row is exact up to the
    running divisor, which cancels in rank/kernel/determinant uses.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    m = [row[:] for row in m]
    pivots: list[int] = []
    sign = 1
    prev = 1
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            sign = -sign
        pivot = m[r][c]
        for i in range(r + 1, nrows):
            fi = m[i][c]
            row_i = m[i]
            row_r = m[r]
            for j in range(c, ncols):
                row_i[j] = (pivot * row_i[j] - fi * row_r[j]) // prev
        prev = pivot
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots, sign


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


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form with unit pivots; returns (rows, pivot cols)."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    red: list[Row] = []
    pivots: list[int] = []
    for c, entries in _eliminate(rows):
        p = entries[c]
        line = [_ZERO] * ncols
        for j, v in entries.items():
            line[j] = Fraction(v, p)
        red.append(line)
        pivots.append(c)
    return red, pivots


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


def det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    n = len(rows)
    if n == 0:
        return Fraction(1)
    ints = _clear_denominators(rows)
    scale = Fraction(1)
    for orig, cleared in zip(rows, ints):
        for co, ci in zip(orig, cleared):
            if ci:
                scale /= Fraction(ci) / co
                break
        else:
            return Fraction(0)
    ech, pivots, sign = _bareiss_forward(ints)
    if len(pivots) < n:
        return Fraction(0)
    # Bareiss: last pivot of the full forward pass is det of the integer matrix
    return sign * Fraction(ech[-1][pivots[-1]]) * scale


# ---------------------------------------------------------------------------
# rational-function matrices


def expr_det(rows: Sequence[Sequence[Expr]]) -> Expr:
    """Determinant of a square Expr matrix (cofactor for tiny, elimination else)."""
    n = len(rows)
    reg = rows[0][0].reg
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    m = [list(r) for r in rows]
    result = Expr.const(reg, 1)
    for c in range(n):
        pr = None
        for i in range(c, n):
            if not m[i][c].is_zero():
                pr = i
                break
        if pr is None:
            return Expr.const(reg, 0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            result = -result
        pivot = m[c][c]
        result = result * pivot
        for i in range(c + 1, n):
            f = m[i][c] / pivot
            if f.is_zero():
                continue
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return result


def expr_inverse(
    rows: Sequence[Sequence[Expr]], singular_error: type[Exception] = SingularJacobian
) -> list[list[Expr]]:
    """Exact inverse of a square Expr matrix by Gauss-Jordan over the
    rational-function field; raises ``singular_error`` when the matrix is
    singular as a matrix of rational functions."""
    n = len(rows)
    reg = rows[0][0].reg
    zero = Expr.const(reg, 0)
    one = Expr.const(reg, 1)
    m = [list(r) for r in rows]
    inv = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for c in range(n):
        pr = None
        for i in range(c, n):
            if not m[i][c].is_zero():
                pr = i
                break
        if pr is None:
            raise singular_error("matrix of rational functions is singular")
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            inv[c], inv[pr] = inv[pr], inv[c]
        pivot = m[c][c]
        m[c] = [e / pivot for e in m[c]]
        inv[c] = [e / pivot for e in inv[c]]
        for i in range(n):
            if i == c:
                continue
            f = m[i][c]
            if f.is_zero():
                continue
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
            inv[i] = [a - f * b for a, b in zip(inv[i], inv[c])]
    return inv
