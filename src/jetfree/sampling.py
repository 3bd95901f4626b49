"""Seeded random sampling of points, jets, and group elements.

Everything draws from a caller-supplied :class:`random.Random`, so runs
are reproducible from a single integer seed.  Rationals are sampled with
bounded numerator and denominator; verdict computations stay exact on
these inputs.

Group jets are sampled by solving the prolonged determining system at a
base point stage by stage: each jet order is an affine problem in that
order's coefficients, whose solution set is the identity stage plus the
stage kernel; a random kernel combination gives a generic pseudogroup
jet.
"""

from __future__ import annotations

import random

from .detsys import PseudogroupSpec
from .errors import NoSolution, PreconditionViolation, SingularJet
from .jetspace import MultiIndex, SpaceSpec, mi_enumerate
from .prolong import DiffeoJet, SubmanifoldJetPoint
from .stagesolve import StagedSystem, solve_stage
from .symkernel import Scalar, scalar


def random_rational(rng: random.Random, bound: int = 10) -> Scalar:
    return scalar(rng.randint(-bound, bound), rng.randint(1, bound))


def random_point(space: SpaceSpec, rng: random.Random, bound: int = 10) -> tuple:
    return tuple(random_rational(rng, bound) for _ in range(space.m))


def random_jet_point(
    space: SpaceSpec, n: int, rng: random.Random, bound: int = 10
) -> SubmanifoldJetPoint:
    x = tuple(random_rational(rng, bound) for _ in range(space.p))
    u = {}
    for k in range(n + 1):
        for al in range(space.q):
            for J in mi_enumerate(space.p, k):
                u[(al, J)] = random_rational(rng, bound)
    return SubmanifoldJetPoint(space, n, x, u)


def lift_jet_point(
    z: SubmanifoldJetPoint, k: int, rng: random.Random, bound: int = 10
) -> SubmanifoldJetPoint:
    """Random lift of z by k extra orders: existing coordinates are kept,
    new top-order coordinates are drawn uniformly from bounded rationals."""
    if k < 0:
        raise PreconditionViolation("lift step must be nonnegative")
    space = z.space
    u = dict(z.u)
    for order in range(z.order + 1, z.order + k + 1):
        for al in range(space.q):
            for J in mi_enumerate(space.p, order):
                u[(al, J)] = random_rational(rng, bound)
    return SubmanifoldJetPoint(space, z.order + k, z.x, u)


def sample_group_jet(
    ds: PseudogroupSpec,
    n: int,
    z0: tuple,
    rng: random.Random,
    bound: int = 3,
    max_tries: int = 25,
) -> DiffeoJet:
    """Random order-n pseudogroup jet sourced at z0, found by solving the
    prolonged determining system stage by stage.  Requires the system to
    be affine in each stage's target jets once lower stages are fixed."""
    if n < ds.effective_order:
        raise PreconditionViolation("sampling below the base order is not defined")
    if not ds.determining:
        raise PreconditionViolation("sampling requires determining equations")
    system = StagedSystem(ds, n, z0)
    ctx = system.ctx
    last_error: Exception | None = None
    for _ in range(max_tries):
        coeffs: dict[tuple[int, MultiIndex], Scalar] = {}
        try:
            for k in range(n + 1):
                keys, vals, kern = solve_stage(
                    system.stage(k), k, ds.space.m, ctx.target_var, coeffs, ctx.reg
                )
                for vec in kern:
                    c = random_rational(rng, bound)
                    vals = [v + c * w for v, w in zip(vals, vec)]
                coeffs.update(zip(keys, vals))
            return DiffeoJet(ds.space, n, tuple(z0), coeffs)
        except (SingularJet, NoSolution) as exc:
            last_error = exc
            continue
    raise NoSolution(
        f"could not sample a group jet at {z0} after {max_tries} attempts"
    ) from last_error
