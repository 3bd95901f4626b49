"""Freeness of prolonged pseudogroup actions on submanifold jets.

The prolonged action is locally free at a jet z^(n) exactly when the
linear map sending a vector-field jet in the fiber g^(n)|_z to the
prolonged tangent vector at z^(n) is injective.  This module builds that
matrix over an exact fiber basis, returns verdicts with exact kernel
bases, and re-verifies the two persistence phenomena instance by
instance:

* local freeness at z^(n) persists on every lift of z^(n) to higher
  order (swept over seeded random rational lifts), and the mechanism
  behind it: an order-(n+1) kernel jet vanishing to order n produces
  witness jets that land in g^(n)|_z intersected with the order-n
  kernel, forcing it to zero at free points.  The candidate kernel jets
  are the kernel of the one-step block on K_{n+1}, the fiber jets
  vanishing to order n: the same block a lift step ranks
  (_lift_verdict), and the paper's obstruction to persistence;
* trivial order-n isotropy persists at top order, checked by solving
  the linear system a top-order stabilizer coefficient must satisfy.

The order-triangular isotropy solver decides TRIVIAL/NONTRIVIAL when
each stage is affine in its top-order unknowns and falls back to
UNDECIDED otherwise; no general polynomial solving is attempted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .detsys import (
    FiberBasis,
    FreenessProblem,
    PseudogroupSpec,
    combine_columns,
    jet_satisfies,
)
from .errors import (
    CoefficientSingularity,
    DivisionByZero,
    NoSolution,
    NotFreeAtBase,
    OrderMismatch,
    PreconditionViolation,
    SingularJet,
    SingularTotalJacobian,
)
from .jetspace import JetContext, MultiIndex, context_for, coord_order, jet_keys, mi_concat
from .linalg import nullspace, rank
from .prolong import (
    DiffeoJet,
    SubmanifoldJetPoint,
    VectorFieldJet,
    _point_env,
    act_on_jet,
    identity_jet,
)
from .sampling import lift_jet_point
from .stagesolve import StagedSystem
from .symkernel import Scalar, scalar

LOCALLY_FREE = "LOCALLY_FREE"
NOT_LOCALLY_FREE = "NOT_LOCALLY_FREE"
TRIVIAL = "TRIVIAL"
NONTRIVIAL = "NONTRIVIAL"
UNDECIDED = "UNDECIDED"
PERSISTS = "PERSISTS"
COUNTEREXAMPLE = "COUNTEREXAMPLE"
INCONCLUSIVE = "INCONCLUSIVE"


def _combine(
    z: SubmanifoldJetPoint, columns: tuple[dict, ...], vec: list[Scalar]
) -> VectorFieldJet:
    """The vector-field jet of z's order at z's base point that combines the
    columns (nonzero coefficients) with the given weights."""
    m = z.space.m
    coeffs = dict.fromkeys(jet_keys(m, m, 0, z.order), scalar(0))
    coeffs.update(combine_columns(columns, vec))
    return VectorFieldJet(z.space, z.order, z.base, coeffs)


def _nonzero(v: VectorFieldJet) -> dict:
    """The nonzero coefficients of v: its column."""
    return {key: c for key, c in v.coeffs.items() if c != 0}


# -- prolongation matrices and verdicts ------------------------------------------------


@dataclass
class ProlongationMatrix:
    """Exact matrix of the prolonged-action differential restricted to a
    fiber basis; rows follow the jet coordinates of J^n, columns the
    basis elements."""

    order: int
    point: SubmanifoldJetPoint
    rows: list
    basis: FiberBasis
    entries: list[list[Scalar]]

    @property
    def rank(self) -> int:
        return rank(self.entries)


@dataclass
class FreenessVerdict:
    order: int
    point: SubmanifoldJetPoint
    fiber_dimension: int
    kernel_dimension: int
    kernel_basis: list[VectorFieldJet]
    orbit_dimension: int
    verdict: str

    @property
    def is_free(self) -> bool:
        return self.verdict == LOCALLY_FREE


def _products(lines: list, columns: tuple[dict, ...]) -> list[list[Scalar]]:
    """Evaluated plan rows (nonzero (key, coefficient) pairs) times the
    columns (nonzero {key: coefficient} of each fiber element)."""
    return [
        [sum((c * col[key] for key, c in terms if key in col), scalar(0)) for col in columns]
        for terms in lines
    ]


def _restricted_matrix(
    ctx: JetContext, z: SubmanifoldJetPoint, columns: tuple[dict, ...]
) -> tuple[list, list[list[Scalar]]]:
    """prolong_at_point(ctx, z) times the fiber elements given by their
    nonzero columns, without the dense matrix: the order's phihat plan
    evaluates every row's coefficients at z at once, dropping the zero
    ones, and the rest are paired with the columns' entries only."""
    lines = ctx.phihat_plan(z.order).evaluate(_point_env(ctx, z))
    return ctx.jn_coords(z.order), _products(lines, columns)


def prolongation_matrix(ps, n: int, z: SubmanifoldJetPoint) -> ProlongationMatrix:
    """Matrix of the prolonged action's differential at z over an exact
    basis of the order-n vector-field jet fiber at the base point.

    ps is a PseudogroupSpec, a LinearDeterminingSystem or a
    FreenessProblem; pass the same FreenessProblem to reuse its
    prolongations and fibers across points."""
    problem = FreenessProblem.of(ps)
    if z.space != problem.space:
        raise PreconditionViolation("jet point lives on a different space")
    if z.order < n:
        raise OrderMismatch(f"need an order-{n} jet point, got order {z.order}")
    zn = z.truncate(n)
    ctx = context_for(problem.space)
    basis = problem.fiber(n, zn.base)
    rows, entries = _restricted_matrix(ctx, zn, basis.columns)
    return ProlongationMatrix(n, zn, rows, basis, entries)


def _lift_verdict(problem: FreenessProblem, n: int, z: SubmanifoldJetPoint) -> FreenessVerdict | None:
    """LOCALLY_FREE at z^(n), decided one order at a time, when the
    problem recorded a truncation z^(k), k < n, as free; None when there
    is no such record or some step's block has a kernel.

    Step j lifts freeness from z^(j-1) to z^(j).  The rows of order
    <= j-1 of the restricted matrix involve only z^(j-1) and the field
    jets of order <= j-1, so they are injective on the order-(j-1) fiber
    when z^(j-1) is free.  A kernel vector at z^(j) therefore lies in
    K_j, the order-j fiber jets vanishing to order j-1, on which those
    rows vanish: z^(j) is free exactly when the rows of order j,
    evaluated at z^(j), have trivial kernel on K_j.  Steps k+1..n in turn
    show z^(n) free by induction.

    Each step's block reads only the variables of its plan's degree, and
    K_j only the base point, so the step's verdict is kept on the problem
    under (j, base, the values of those variables) and ranked once."""
    if z.order < n:
        return None  # the full path raises OrderMismatch
    k = problem.free_truncation(z, n)
    if k is None:
        return None
    zn = z.truncate(n)
    base = zn.base
    steps = problem.lift_steps(k, n, base)
    if steps:
        ctx = context_for(problem.space)
        env = _point_env(ctx, zn)
        for j, K in steps:
            plan = ctx.phihat_plan(j, above=j - 1)
            key = (j, base, tuple(env[vid] for vid, _ in plan.degree))
            injective = problem.step_verdict(
                key, lambda: rank(_products(plan.evaluate(env), K)) == len(K)
            )
            if not injective:
                return None
    fdim = problem.fiber(n, base).dimension
    return FreenessVerdict(n, zn, fdim, 0, [], fdim, LOCALLY_FREE)


def local_freeness(ps, n: int, z: SubmanifoldJetPoint) -> FreenessVerdict:
    """Exact verdict: LOCALLY_FREE iff the prolongation matrix has trivial
    kernel on the fiber.

    Pass one FreenessProblem to reuse its work: every LOCALLY_FREE point
    is recorded on it, and a lift of a recorded point is decided order by
    order on one-step blocks, each ranked once per problem (_lift_verdict).
    A step with a kernel falls back to the full matrix, so the kernel
    basis is always the full path's."""
    problem = FreenessProblem.of(ps)
    verdict = _lift_verdict(problem, n, z)
    if verdict is None:
        pm = prolongation_matrix(problem, n, z)
        fdim = pm.basis.dimension
        kern = nullspace(pm.entries, fdim)
        kernel_basis = [_combine(pm.point, pm.basis.columns, vec) for vec in kern]
        kdim = len(kern)
        free = LOCALLY_FREE if kdim == 0 else NOT_LOCALLY_FREE
        verdict = FreenessVerdict(n, pm.point, fdim, kdim, kernel_basis, fdim - kdim, free)
    if verdict.is_free:
        problem.record_free(verdict.point)
    return verdict


# -- persistence sweeps -----------------------------------------------------------------


@dataclass
class PersistenceFailure:
    """Forensic record of a lift whose verdict flipped (indicates invalid
    input or an implementation bug)."""

    order: int
    lift: SubmanifoldJetPoint
    kernel_basis: list[VectorFieldJet]


@dataclass
class PersistenceReport:
    order: int
    through: int
    samples: int
    seed: int
    point: SubmanifoldJetPoint
    base_verdict: FreenessVerdict
    lifts_checked: int
    skipped: int
    failures: list[PersistenceFailure] = field(default_factory=list)

    @property
    def all_free(self) -> bool:
        return not self.failures

    @property
    def verdict(self) -> str:
        """PERSISTS when lifts were checked and all were free,
        COUNTEREXAMPLE on a flipped lift, INCONCLUSIVE when no lift could
        be checked at all."""
        if self.failures:
            return COUNTEREXAMPLE
        return PERSISTS if self.lifts_checked else INCONCLUSIVE


def persistence_sweep(
    ps,
    n: int,
    z: SubmanifoldJetPoint,
    through: int,
    samples: int,
    seed: int,
    bound: int = 10,
) -> PersistenceReport:
    """Re-test local freeness on seeded random rational lifts of z^(n) to
    every order n+1..through.

    Requires local freeness at z^(n) itself (NotFreeAtBase otherwise)
    and at least one sample per order.  Lifts where the coefficient
    evaluation degenerates are skipped, not counted as failures; a sweep
    that skipped every lift is INCONCLUSIVE.  The sweep stops at the
    first counterexample and records the lift and kernel for inspection.

    One FreenessProblem serves the base point and every lift, so each
    order's fiber at the shared base point is solved once.
    """
    if through < n:
        raise PreconditionViolation("sweep must go through at least the base order")
    if samples < 1:
        raise PreconditionViolation(f"need at least one sample per order, got {samples}")
    problem = FreenessProblem.of(ps)
    base = local_freeness(problem, n, z)
    if not base.is_free:
        raise NotFreeAtBase(
            f"not locally free at the base point (kernel dimension {base.kernel_dimension})"
        )
    rng = random.Random(seed)
    zn = base.point
    checked = 0
    skipped = 0
    failures: list[PersistenceFailure] = []
    for order in range(n + 1, through + 1):
        for _ in range(samples):
            lift = lift_jet_point(zn, order - n, rng, bound)
            try:
                verdict = local_freeness(problem, order, lift)
            except (CoefficientSingularity, SingularTotalJacobian):
                skipped += 1
                continue
            checked += 1
            if not verdict.is_free:
                failures.append(
                    PersistenceFailure(order, lift, verdict.kernel_basis)
                )
                return PersistenceReport(
                    n, through, samples, seed, zn, base, checked, skipped, failures
                )
    return PersistenceReport(n, through, samples, seed, zn, base, checked, skipped, [])


# -- the kernel-jet witness mechanism ----------------------------------------------------


def witness_candidates(ps, n: int, z: SubmanifoldJetPoint) -> list[VectorFieldJet]:
    """Basis of the order-(n+1) fiber jets that vanish to order n and that
    the prolonged action at z^(n+1) kills: the kernel, on K_{n+1}
    (FreenessProblem.vanishing_columns), of the one-step block that
    _lift_verdict ranks.  These are the candidate obstructions to
    persistence.  Empty (only v = 0) at free points."""
    problem = FreenessProblem.of(ps)
    if z.order < n + 1:
        raise OrderMismatch("need the point to order n+1")
    z1 = z.truncate(n + 1)
    ctx = context_for(problem.space)
    K = problem.vanishing_columns(n, n + 1, z1.base)
    block = _products(ctx.phihat_plan(n + 1, above=n).evaluate(_point_env(ctx, z1)), K)
    return [_combine(z1, K, vec) for vec in nullspace(block, len(K))]


@dataclass
class WitnessReport:
    order: int
    point: SubmanifoldJetPoint
    candidate: VectorFieldJet
    witnesses: list[tuple[str, VectorFieldJet]]
    projection_free: bool
    forced_zero: bool


def witness_check(ps, n: int, z: SubmanifoldJetPoint, v: VectorFieldJet) -> WitnessReport:
    """Run the persistence mechanism on one candidate kernel jet.

    Checks the preconditions (v of order n+1, vanishing to order n, in
    the order-(n+1) fiber, and killed by the one-step block of
    witness_candidates at z^(n+1)), builds the witness jets from v's top
    coefficients, and verifies each lies in the order-n fiber intersected
    with the kernel of the prolonged differential at z^(n).  When z^(n)
    is locally free this forces every witness, hence v, to zero.
    """
    problem = FreenessProblem.of(ps)
    space = problem.space
    if z.order < n + 1:
        raise OrderMismatch("need the point to order n+1")
    z1 = z.truncate(n + 1)
    zn = z.truncate(n)
    if v.order != n + 1 or tuple(v.base) != z1.base:
        raise PreconditionViolation("candidate must be an order-(n+1) jet at the point")
    for (a, B), val in v.coeffs.items():
        if len(B) <= n and val != 0:
            raise PreconditionViolation(
                "candidate does not vanish to order n: "
                f"coefficient {(a, B)} = {val}"
            )
    if not jet_satisfies(problem, v):
        raise PreconditionViolation(f"candidate is not in the order-{n + 1} fiber")
    ctx = context_for(space)
    lines = ctx.phihat_plan(n + 1, above=n).evaluate(_point_env(ctx, z1))
    top_rows = [name for key, name, _ in ctx.jn_table(n + 1) if coord_order(key) > n]
    for name, (val,) in zip(top_rows, _products(lines, (_nonzero(v),))):
        if val != 0:
            raise PreconditionViolation(
                f"candidate is not in the kernel of the one-step block: its {name} row gives {val}"
            )

    p, q, m = space.p, space.q, space.m
    witnesses: list[tuple[str, VectorFieldJet]] = []

    def make(top) -> VectorFieldJet:
        coeffs = {(b, C): top(b, C) if len(C) == n else scalar(0) for b, C in jet_keys(m, m, 0, n)}
        return VectorFieldJet(space, n, z1.base, coeffs)

    for i in range(p):
        slopes = [z1.u[(al, (i,))] for al in range(q)]
        w = make(
            lambda b, C, i=i, slopes=slopes: v.coeffs[(b, mi_concat(C, i))]
            + sum(
                (s * v.coeffs[(b, mi_concat(C, p + al))] for al, s in enumerate(slopes)),
                scalar(0),
            )
        )
        witnesses.append((f"w_{space.independent[i]}", w))
    for e_slot in range(m):
        w = make(lambda b, C, e=e_slot: v.coeffs[(b, mi_concat(C, e))])
        witnesses.append((f"what_{space.source_names[e_slot]}", w))

    for label, w in witnesses:
        if not jet_satisfies(problem, w):
            raise PreconditionViolation(f"witness {label} left the order-{n} fiber")
        rows, image = _restricted_matrix(ctx, zn, (_nonzero(w),))
        for row, (val,) in zip(rows, image):
            if val != 0:
                raise PreconditionViolation(
                    f"witness {label} is not in the kernel of the prolonged differential: "
                    f"its {row[-1]} row gives {val}"
                )

    free = local_freeness(problem, n, zn).is_free
    zero = all(w.is_zero() for _, w in witnesses) and v.is_zero()
    if free and not zero:
        raise PreconditionViolation(
            "nonzero witness at a locally free projection: persistence mechanism violated"
        )
    return WitnessReport(n, z1, v, witnesses, free, zero)


# -- top-order stabilizer ----------------------------------------------------------------


@dataclass
class StabilizerReport:
    """Null space of the linear system a top-order isotropy coefficient
    must satisfy over a jet that is the identity to order n."""

    order: int
    point: SubmanifoldJetPoint
    unknowns: list[tuple[int, MultiIndex]]
    dimension: int
    basis: list[dict[tuple[int, MultiIndex], Scalar]]


def _full_cross_section(z: SubmanifoldJetPoint) -> list:
    """The cross-section fixing every coordinate of z to its own value."""
    return [(key, z.value(key)) for key, _, _ in context_for(z.space).jn_table(z.order)]


def top_order_stabilizer(ps: PseudogroupSpec, n: int, z: SubmanifoldJetPoint) -> StabilizerReport:
    """Linear system for the order-(n+1) coefficients of a group jet that
    agrees with the identity to order n and stabilizes z^(n+1): stage
    n + 1 of the staged solve of the point's full cross-section, with the
    identity fixed below it.  Null-space dimension 0 means the top order
    is forced."""
    if not ps.determining:
        raise PreconditionViolation("top-order stabilizer needs determining equations")
    if z.order < n + 1:
        raise OrderMismatch("need the point to order n+1")
    if n + 1 < ps.effective_order:
        raise PreconditionViolation(
            "order must reach the determining system's own order"
        )
    z1 = z.truncate(n + 1)
    ident = identity_jet(ps.space, n + 1, z1.base)
    lower = ident.truncate(n).coeffs
    system = StagedSystem(ps, n + 1, z1.base, z1.u, _full_cross_section(z1), lower)
    try:
        tops, part, kern = system.solve(n + 1, {})
    except NoSolution as exc:
        raise PreconditionViolation("identity jet fails the top-order stage") from exc
    gap = [ident.coeffs[key] - v for key, v in zip(tops, part)]
    if rank(kern + [gap]) > len(kern):
        raise PreconditionViolation("identity jet fails the top-order stage")
    basis = [dict(zip(tops, vec)) for vec in kern]
    return StabilizerReport(n, z1, tops, len(kern), basis)


# -- order-triangular isotropy jets ------------------------------------------------------


@dataclass
class IsotropyReport:
    order: int
    point: SubmanifoldJetPoint
    status: str
    stages: list[dict[str, Scalar]] | None
    witness: DiffeoJet | None


def isotropy_jets_triangular(
    ps: PseudogroupSpec, n: int, z: SubmanifoldJetPoint
) -> IsotropyReport:
    """Solve the stabilization equations together with the determining
    equations order by order: the staged frame solve of the point's full
    cross-section, which fixes every coordinate of z^(n) to its own value.

    TRIVIAL when every stage pins its top-order coefficients uniquely
    (necessarily to the identity's).  NONTRIVIAL when a verified
    non-identity stabilizing jet is found.  UNDECIDED when a stage is
    not affine in its unknowns or no candidate could be completed.
    """
    if not ps.determining:
        raise PreconditionViolation("isotropy needs determining equations")
    space = ps.space
    if z.order < n:
        raise OrderMismatch(f"need an order-{n} jet point, got order {z.order}")
    zn = z.truncate(n)
    system = StagedSystem(ps, n, zn.base, zn.u, _full_cross_section(zn))
    ctx = system.ctx
    ident = identity_jet(space, n, zn.base).coeffs
    unsolved = (DivisionByZero, NoSolution, PreconditionViolation)

    # main pass: follow the identity while every stage is unique
    stages: list[dict[str, Scalar]] = []
    values: dict[tuple[int, MultiIndex], Scalar] = {}
    for k in range(n + 1):
        try:
            keys, part, kern = system.solve(k, values)
        except unsolved:
            return IsotropyReport(n, zn, UNDECIDED, None, None)
        idvec = [ident[key] for key in keys]
        if kern:
            break
        if part != idvec:
            # unique but not the identity: the identity failed a stage,
            # which contradicts it stabilizing its own jet
            return IsotropyReport(n, zn, UNDECIDED, None, None)
        values.update(zip(keys, part))
        stages.append({ctx.target_name(a, B): v for (a, B), v in zip(keys, part)})
    else:
        return IsotropyReport(n, zn, TRIVIAL, stages, None)

    # stage k is not unique: hunt for a verified non-identity stabilizer,
    # completing the later stages with particular solutions
    candidates: list[list[Scalar]] = []
    if part != idvec:
        candidates.append(part)
    for vec in kern:
        for c in (scalar(1), scalar(-1), scalar(2)):
            cand = [pv + c * kv for pv, kv in zip(part, vec)]
            if cand != idvec:
                candidates.append(cand)
    for cand in candidates:
        full = dict(values)
        full.update(zip(keys, cand))
        try:
            for j in range(k + 1, n + 1):
                later, later_part, _ = system.solve(j, full)
                full.update(zip(later, later_part))
            g = DiffeoJet(space, n, zn.base, full)
            if act_on_jet(g, zn) == zn:
                return IsotropyReport(n, zn, NONTRIVIAL, None, g)
        except (*unsolved, SingularJet, SingularTotalJacobian):
            continue
    return IsotropyReport(n, zn, UNDECIDED, None, None)
