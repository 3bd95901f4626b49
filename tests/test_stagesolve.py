"""Affine read-off of stage equations and the affine stage solve."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from jetfree.dsl import SpecSource, load_bundled_spec, parse_spec
from jetfree.errors import NoSolution, PreconditionViolation
from jetfree.frames import CrossSection
from jetfree.freeness import _full_cross_section
from jetfree.jetspace import coord_order, jet_keys
from jetfree.prolong import SubmanifoldJetPoint, identity_jet
from jetfree.stagesolve import StagedSystem, extract_affine, solve_affine_exprs
from jetfree.symkernel import Expr, VarRegistry

P2 = Path(__file__).parent / "specs" / "p2.psg"


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


# -- stage numerators against the quotient they are read off -----------------------


def _spec(name):
    src = SpecSource.from_file(P2) if name == "p2" else load_bundled_spec(name)
    spec, diags = parse_spec(src)
    assert spec is not None and not diags, name
    return spec


def _seeded_point(space, n, rng):
    def value(nonzero):
        while True:
            v = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            if v or not nonzero:
                return v

    # u, u.x and u.y nonzero keep every spec's point free
    u = {key: value(len(key[1]) <= 1) for key in jet_keys(space.q, space.p, 0, n)}
    return SubmanifoldJetPoint(space, n, tuple(value(False) for _ in range(space.p)), u)


def _frame_section(name, n):
    """The coordinate cross-section a frame of the benchmark normalizes
    onto (p2: x, y and u.x fixed, u.y left free)."""
    higher = {"u." + "x" * k: 0 for k in range(2, n + 1)}
    return {
        "e1": {"x": 0, "u.x": 1, **higher},
        "e2": {"x": 0, "u.x": 1},
        "e3": {"x": 0, "u": 1, "u.x": 0, **higher},
        "p2": {"x": 0, "y": 0, "u.x": 1},
    }[name]


def _old_stage(system, k):
    """Stage k as it was built before: each fixed coordinate's residual
    N/D - v as a canonical quotient, then its numerator."""
    eqs = list(system.determining(k))
    for key, value in system.fixes:
        if coord_order(key) == k:
            e = system.normalization(key, value)
            eqs.append(e.numerator() if k > 0 else e)
    return eqs


def _assert_stages_match(system, n):
    for k in range(n + 1):
        got, want = system.stage(k), _old_stage(system, k)
        assert got == want
        assert [list(e.num.items()) for e in got] == [list(e.num.items()) for e in want]


STAGE_CASES = [(name, n) for name in ("e1", "e2", "e3") for n in range(1, 5)] + [("p2", 1), ("p2", 2)]


@pytest.mark.parametrize("name,n", STAGE_CASES)
def test_stage_numerators_match_the_old_build(name, n):
    spec = _spec(name)
    rng = random.Random(f"stage:{name}:{n}")
    z = _seeded_point(spec.space, n, rng)
    # the point's full cross-section, as isotropy solves it
    _assert_stages_match(StagedSystem(spec, n, z.base, z.u, _full_cross_section(z)), n)
    # the benchmark's frame section
    cs = CrossSection.from_names(spec.space, n, _frame_section(name, n))
    _assert_stages_match(StagedSystem(spec, n, z.base, z.u, cs.pairs), n)
    # the identity known below the top order, as the top-order stabilizer sets it
    lower = identity_jet(spec.space, n, z.base).truncate(n - 1).coeffs
    _assert_stages_match(StagedSystem(spec, n, z.base, z.u, _full_cross_section(z), lower), n)
