"""The staged jet solve shared by inversion, sampling, frames and isotropy.

Several constructions solve for jet coefficients order by order: inverting
a jet, sampling a group jet from its determining system, normalizing a
moving frame, deciding isotropy.  Each stage substitutes everything
already known and leaves equations that must be affine in that stage's
unknowns.  :class:`StagedSystem` builds each stage's equations once, and
:func:`solve_stage` checks affineness exactly and reduces the stage to
one exact linear solve.

Isotropy at a point is the frame of the point's full cross-section: the
cross-section that fixes every coordinate of z^(n) to its own value.
"""

from __future__ import annotations

from .errors import PreconditionViolation
from .jetspace import CoordKey, context_for, coord_order, jet_keys
from .linalg import solve_affine
from .symkernel import Expr, Scalar, VarRegistry, poly_const, poly_mul, poly_sub, scalar


def extract_affine(
    e: Expr,
    unknowns: list[int],
    error: type[Exception] = PreconditionViolation,
) -> tuple[list[Scalar], Scalar]:
    """Write e as const + sum(coeff_i * unknown_i), exactly, read off its
    canonical polynomial.

    Raises the given error class when e is not affine in the unknowns
    (including unknowns in a denominator) or depends on other variables.
    """
    if not e.is_polynomial():
        raise error(f"stage equation is not affine in the stage unknowns: {e}")
    where = {v: i for i, v in enumerate(unknowns)}
    coeffs = [scalar(0)] * len(unknowns)
    const = scalar(0)
    for mono, c in e.num.items():
        if not mono:
            const = c
        elif len(mono) == 1 and mono[0][1] == 1 and mono[0][0] in where:
            coeffs[where[mono[0][0]]] = c
        else:
            raise error(f"stage equation is not affine in the stage unknowns: {e}")
    return coeffs, const


def solve_affine_exprs(
    equations: list[Expr],
    unknowns: list[int],
    error: type[Exception] = PreconditionViolation,
) -> tuple[list[Scalar], list[list[Scalar]]]:
    """Solve equations(unknowns) = 0 where each equation is affine in the
    unknowns; returns (particular solution, kernel basis).

    Raises NoSolution if the affine system is inconsistent, and the given
    error class if an equation is not affine.
    """
    # one zero row leaves every unknown free when there is no equation
    rows, rhs = [[scalar(0)] * len(unknowns)], [scalar(0)]
    for e in equations:
        coeffs, const = extract_affine(e, unknowns, error)
        rows.append(coeffs)
        rhs.append(-const)
    return solve_affine(rows, rhs)


def solve_stage(
    equations: list[Expr],
    k: int,
    m: int,
    var,
    values: dict,
    reg: VarRegistry,
) -> tuple[list, list[Scalar], list[list[Scalar]]]:
    """Solve the order-k stage of a staged jet solve on top of values, the
    coefficients already fixed, keyed (component, multi-index) like the
    stage's own unknowns; var maps such a key to its variable.  Returns
    (keys, particular solution, kernel basis), the vectors indexed like
    the keys.  Raises NoSolution on an inconsistent stage,
    PreconditionViolation on an equation that is not affine, and
    DivisionByZero when the fixed values hit a denominator."""
    keys = list(jet_keys(m, m, k, k))
    fixed = {var(*key): Expr.const(reg, v) for key, v in values.items()}
    part, kern = solve_affine_exprs(
        [e.subst(fixed) for e in equations], [var(*key) for key in keys]
    )
    return keys, part, kern


class StagedSystem:
    """Equations of a staged solve for an order-n group jet sourced at a
    base point of M.

    Stage k holds the prolonged determining equations of target order k
    and the order-k normalization equations of the fixed coordinates, with
    the base point and the given submanifold-jet values u substituted:
    N - v*D for a coordinate fixed to v whose moved value is N/D (D = 1
    at order 0).  Group-jet coefficients known before any stage is
    solved (the top-order stabilizer fixes the identity below its one
    stage) are substituted at the same time, before N - v*D is formed,
    which keeps a high stage small.  The prolonged determining system is
    the spec's own, built once per spec and order
    (PseudogroupSpec.determining_closure), so the spec must have
    determining equations; every stage is built on first use and kept."""

    def __init__(self, ps, n: int, base: tuple, u=None, fixes=(), known=None):
        ctx = context_for(ps.space)
        ctx.ensure_target(n)
        ctx.ensure_sub(n + 1)
        self.ctx = ctx
        self.fixes: tuple[tuple[CoordKey, Scalar], ...] = tuple(fixes)
        self._env = {ctx.source_var(a): ctx.const(v) for a, v in enumerate(base)}
        for (al, J), v in (u or {}).items():
            self._env[ctx.sub_var(al, J)] = ctx.const(v)
        for key, v in (known or {}).items():
            self._env[ctx.target_var(*key)] = ctx.const(v)
        self._raw = ps.determining_closure(n)
        self._determining: dict[int, list[Expr]] = {}
        self._stages: dict[int, list[Expr]] = {}

    def normalization(self, key: CoordKey, value) -> Expr:
        """Residual of one fixed coordinate of the moved point, in the
        group-jet variables, denominators kept."""
        return self.ctx.moved_coord(key).subst(self._env) - self.ctx.const(value)

    def determining(self, k: int) -> list[Expr]:
        """The prolonged determining equations of target order k."""
        eqs = self._determining.get(k)
        if eqs is None:
            eqs = [e.subst(self._env) for e in self._raw.get(k, ())]
            self._determining[k] = eqs
        return eqs

    def solve(self, k: int, values: dict) -> tuple[list, list[Scalar], list[list[Scalar]]]:
        """solve_stage of stage k on top of the group-jet coefficients in
        values."""
        ctx = self.ctx
        return solve_stage(self.stage(k), k, ctx.space.m, ctx.target_var, values, ctx.reg)

    def stage(self, k: int) -> list[Expr]:
        """Stage k: determining equations first, then the fixed
        coordinates of order k in the order they were given."""
        eqs = self._stages.get(k)
        if eqs is None:
            eqs = list(self.determining(k))
            for key, value in self.fixes:
                if coord_order(key) == k:
                    # N/D is canonical, so N - v*D is the numerator of N/D - v
                    moved = self.ctx.moved_coord(key).subst(self._env)
                    num = poly_sub(moved.num, poly_mul(poly_const(value), moved.den))
                    eqs.append(Expr(num, {(): scalar(1)}, moved.reg, _canonical=True))
            self._stages[k] = eqs
        return eqs
