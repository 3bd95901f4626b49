"""Affine read-off of stage equations and the affine stage solve."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from jetfree.errors import NoSolution, PreconditionViolation
from jetfree.stagesolve import extract_affine, solve_affine_exprs
from jetfree.symkernel import Expr, VarRegistry


def _old_extract_affine(e, unknowns, reg, error=PreconditionViolation):
    """Substitute zero, differentiate per unknown, rebuild and compare: the
    read-off as it was computed before."""
    zero = {v: Expr.const(reg, 0) for v in unknowns}
    try:
        const = e.subst(zero).as_scalar()
    except Exception as exc:
        raise error("not affine") from exc
    coeffs = []
    rebuilt = Expr.const(reg, const)
    for v in unknowns:
        try:
            c = e.diff(v).subst(zero).as_scalar()
        except Exception as exc:
            raise error("not affine") from exc
        coeffs.append(c)
        if c != 0:
            rebuilt = rebuilt + Expr.const(reg, c) * Expr.var(reg, v)
    if not (rebuilt - e).is_zero():
        raise error("not affine")
    return coeffs, const


class _Refused(Exception):
    pass


def _registry():
    reg = VarRegistry()
    unknowns = [reg.register(name) for name in ("a", "b", "c")]
    foreign = reg.register("y")
    return reg, unknowns, foreign


def _stage_expressions(rng, reg, unknowns, count):
    """Seeded expressions in the unknowns only: affine ones, and ones with
    a product, a square or an unknown in a denominator."""
    xs = [Expr.var(reg, v) for v in unknowns]
    for _ in range(count):
        e = Expr.const(reg, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        for x in rng.sample(xs, rng.randint(0, 3)):
            e = e + Fraction(rng.randint(-5, 5), rng.randint(1, 3)) * x
        kind = rng.randrange(6)
        if kind == 0:
            e = e + rng.choice(xs) * rng.choice(xs)
        elif kind == 1:
            e = e + 1 / (rng.choice(xs) + rng.randint(1, 3))
        elif kind == 2:
            e = e / (rng.choice(xs) + 2)
        elif kind == 3:
            # cancels back to an affine expression
            x = rng.choice(xs)
            e = (e * (x + 1)) / (x + 1)
        yield e


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_extract_affine_matches_the_old_read_off(seed):
    rng = random.Random(seed)
    reg, unknowns, _ = _registry()
    refused = 0
    for e in _stage_expressions(rng, reg, unknowns, 300):
        try:
            want = _old_extract_affine(e, unknowns, reg, _Refused)
        except _Refused:
            refused += 1
            with pytest.raises(_Refused):
                extract_affine(e, unknowns, _Refused)
            continue
        assert extract_affine(e, unknowns, _Refused) == want
    assert 50 < refused < 250


@pytest.mark.parametrize("seed", [0, 1])
def test_extract_affine_refuses_foreign_variables(seed):
    rng = random.Random(seed)
    reg, unknowns, foreign = _registry()
    a, y = Expr.var(reg, unknowns[0]), Expr.var(reg, foreign)
    with pytest.raises(PreconditionViolation):
        extract_affine(a + y, [unknowns[0]])
    for e in _stage_expressions(rng, reg, unknowns, 100):
        for bad in (e + y, e * y, e / (y + 1), e + y * y):
            if bad.variables() - set(unknowns):
                with pytest.raises(_Refused):
                    extract_affine(bad, unknowns, _Refused)


def test_solve_affine_exprs_without_equations_leaves_every_unknown_free():
    reg, unknowns, _ = _registry()
    zero = Expr.const(reg, 0)
    identity = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    for equations in ([], [zero], [zero, zero]):
        assert solve_affine_exprs(equations, unknowns) == ([Fraction(0)] * 3, identity)
    assert solve_affine_exprs([], []) == ([], [])


def test_solve_affine_exprs_solves_and_refuses():
    reg, unknowns, _ = _registry()
    a, b, c = (Expr.var(reg, v) for v in unknowns)
    part, kern = solve_affine_exprs([a + 2 * b - 3, b - c], unknowns)
    assert part == [Fraction(3), Fraction(0), Fraction(0)]
    assert kern == [[Fraction(-2), Fraction(1), Fraction(1)]]
    with pytest.raises(NoSolution):
        solve_affine_exprs([a - 1, a - 2], unknowns)
    with pytest.raises(PreconditionViolation):
        solve_affine_exprs([a * b], unknowns)
