"""Coordinate cross-sections and normalized moving frames.

A coordinate cross-section of order n fixes selected jet coordinates of
the submanifold jet space to rational constants.  When the coordinate
subspace complementary to the fixed coordinates is a direct complement
of the prolonged orbit directions (transversality, decided by exact
rank), the normalization equations

    fixed coordinates of act_on_jet(ghat, z) = their constants

together with the prolonged determining system single out one group jet
ghat(z): the normalized moving frame at z.  The frame is solved order by
order -- order-k normalizations pin order-k jet coefficients -- exactly
when every stage is affine in its top-order unknowns, with a float
Gauss-Newton fallback (flagged inexact) otherwise.  A frame chart caches
solved points and records points where solving fails as outside the
chart.

A verification helper re-checks, on seeded samples, the compatibility
of frames built from nested cross-sections (the order-n truncation of
the higher frame equals the lower frame at the projected point).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping

from .detsys import PseudogroupSpec, _jet_key
from .errors import (
    DivisionByZero,
    DomainMismatch,
    NoSolution,
    NonTriangular,
    NotTransversal,
    OrderMismatch,
    PreconditionViolation,
    SingularJet,
    SingularTotalJacobian,
    UnknownVariable,
)
from .freeness import prolongation_matrix
from .jetspace import CoordKey, MultiIndex, SpaceSpec, context_for, jet_keys
from .linalg import rank, solve_square
from .prolong import DiffeoJet, SubmanifoldJetPoint, act_on_jet, identity_jet
from .sampling import random_jet_point
from .stagesolve import StagedSystem
from .symkernel import Expr, Scalar, scalar

# -- cross-sections ---------------------------------------------------------------


@dataclass(frozen=True)
class CrossSection:
    """Coordinate cross-section: selected order-<=n jet coordinates fixed
    to rational constants, as ((key, constant), ...) pairs."""

    space: SpaceSpec
    order: int
    pairs: tuple[tuple[CoordKey, Scalar], ...]

    def __post_init__(self):
        norm = []
        seen = set()
        for key, value in self.pairs:
            if key[0] == "x":
                if not (len(key) == 2 and 0 <= key[1] < self.space.p):
                    raise UnknownVariable(f"no independent coordinate {key}")
                key = ("x", key[1])
            elif key[0] == "u":
                if len(key) != 3 or not (0 <= key[1] < self.space.q):
                    raise UnknownVariable(f"no dependent coordinate {key}")
                J = tuple(sorted(key[2]))
                if len(J) > self.order or any(not 0 <= j < self.space.p for j in J):
                    raise UnknownVariable(f"no jet coordinate {key} at order {self.order}")
                key = ("u", key[1], J)
            else:
                raise UnknownVariable(f"malformed coordinate key {key}")
            if key in seen:
                raise PreconditionViolation(f"coordinate fixed twice: {key}")
            seen.add(key)
            norm.append((key, scalar(value)))
        object.__setattr__(self, "pairs", tuple(norm))

    @classmethod
    def from_names(
        cls, space: SpaceSpec, order: int, fixes: Mapping[str, object]
    ) -> "CrossSection":
        """Build from coordinate names as printed for J^n, e.g. {"x": 0, "u.x": 1}."""
        by_name = {name: key for key, name, _ in context_for(space).jn_table(order)}
        pairs = []
        for name, value in fixes.items():
            key = by_name.get(name)
            if key is None:
                raise UnknownVariable(f"unknown jet coordinate {name!r} at order {order}")
            pairs.append((key, scalar(value)))
        return cls(space, order, tuple(pairs))

    def names(self) -> list[str]:
        printed = {key: name for key, name, _ in context_for(self.space).jn_table(self.order)}
        return [printed[key] for key, _ in self.pairs]

    def residuals(self, z: SubmanifoldJetPoint) -> list:
        if z.order < self.order:
            raise OrderMismatch(f"need an order-{self.order} jet point, got order {z.order}")
        return [z.value(key) - value for key, value in self.pairs]

    def satisfied_by(self, z: SubmanifoldJetPoint) -> bool:
        return all(v == 0 for v in self.residuals(z))

    def extends(self, other: "CrossSection") -> bool:
        """True when every coordinate other fixes is fixed here to the same
        constant and this section's order is at least other's."""
        if self.space != other.space or self.order < other.order:
            return False
        mine = dict(self.pairs)
        return all(mine.get(key) == value for key, value in other.pairs)


# -- transversality ---------------------------------------------------------------


@dataclass
class TransversalityReport:
    order: int
    point: SubmanifoldJetPoint
    jet_dimension: int
    fixed_count: int
    orbit_dimension: int
    stacked_rank: int
    transversal: bool


def check_transversality(
    cs: CrossSection, ps, z: SubmanifoldJetPoint
) -> TransversalityReport:
    """Exact test that the coordinate subspace complementary to the fixed
    coordinates plus the prolonged orbit directions span the tangent
    space of J^n at z directly.  Requires z to satisfy the cross-section
    equations."""
    if cs.space != z.space:
        raise PreconditionViolation("cross-section and point live on different spaces")
    n = cs.order
    if z.order < n:
        raise OrderMismatch(f"need an order-{n} jet point, got order {z.order}")
    zn = z.truncate(n)
    for key, value in cs.pairs:
        if zn.value(key) != value:
            raise PreconditionViolation(
                f"point does not satisfy the cross-section equation fixing {key}"
            )
    pm = prolongation_matrix(ps, n, zn)
    index = {key: i for i, (key, _, _) in enumerate(context_for(cs.space).jn_table(n))}
    fixed_rows = {index[key] for key, _ in cs.pairs}
    d = len(index)
    free = [i for i in range(d) if i not in fixed_rows]
    stacked = []
    for i in range(d):
        unit = [scalar(1) if i == j else scalar(0) for j in free]
        stacked.append(unit + pm.entries[i])
    orbit_dim = pm.rank
    stacked_rank = rank(stacked) if stacked and stacked[0] else 0
    spans = stacked_rank == d
    direct = len(free) + orbit_dim == stacked_rank
    return TransversalityReport(
        n, zn, d, len(cs.pairs), orbit_dim, stacked_rank, spans and direct
    )


# -- frame construction -----------------------------------------------------------


_NEWTON_TOLERANCE = 1e-12
_NEWTON_MAX_ITER = 50
# float frames and the sampled checks compare within this tolerance
_VERIFY_TOLERANCE = max(_NEWTON_TOLERANCE * 1e3, 1e-9)


def _verify_frame(
    cs: CrossSection, jet: DiffeoJet, zn: SubmanifoldJetPoint, tol
) -> SubmanifoldJetPoint:
    """Re-apply the jet and check the fixed coordinates; denominator
    clearing during staging could otherwise let a spurious root through.
    Returns the moved point."""
    try:
        moved = act_on_jet(jet, zn)
    except (SingularTotalJacobian, DivisionByZero) as exc:
        raise NoSolution("normalized jet leaves the chart at the point") from exc
    for value in cs.residuals(moved):
        good = value == 0 if tol is None else abs(float(value)) <= tol
        if not good:
            raise NoSolution(
                "normalization failed verification; the point lies outside the frame chart"
            )
    return moved


def _newton_frame(
    n: int, cs: CrossSection, zn: SubmanifoldJetPoint, system: StagedSystem
) -> DiffeoJet | None:
    """Gauss-Newton on the full system (determining closure plus rational
    normalization residuals) in all jet coefficients at once."""
    ctx = system.ctx
    space = ctx.space
    keys = jet_keys(space.m, space.m, 0, n)
    vids = [ctx.target_var(*key) for key in keys]
    eqs: list[Expr] = []
    for k in range(n + 1):
        eqs.extend(system.determining(k))
    for key, value in cs.pairs:
        eqs.append(system.normalization(key, value))
    jac = [[e.diff(v) for v in vids] for e in eqs]
    ident = identity_jet(space, n, zn.base)
    x = [float(ident.coeffs[key]) for key in keys]
    for _ in range(_NEWTON_MAX_ITER):
        env = dict(zip(vids, x))
        try:
            fvals = [e.eval_float(env) for e in eqs]
        except (ZeroDivisionError, DivisionByZero, OverflowError):
            return None
        if max(abs(v) for v in fvals) <= _NEWTON_TOLERANCE:
            try:
                return DiffeoJet(space, n, zn.base, dict(zip(keys, x)))
            except SingularJet:
                return None
        try:
            jvals = [[e.eval_float(env) for e in row] for row in jac]
        except (ZeroDivisionError, DivisionByZero, OverflowError):
            return None
        cols = len(vids)
        normal = [
            [sum(row[i] * row[j] for row in jvals) for j in range(cols)] for i in range(cols)
        ]
        rhs = [sum(row[i] * f for row, f in zip(jvals, fvals)) for i in range(cols)]
        step = solve_square(normal, rhs)
        if step is None:
            return None
        x = [xi - s for xi, s in zip(x, step)]
    return None


@dataclass(frozen=True)
class FrameResult:
    """The frame jet at a point, whether it is exact, and the point it
    moves onto the cross-section."""

    jet: DiffeoJet
    exact: bool
    moved: SubmanifoldJetPoint


def _solve_frame(
    ps: PseudogroupSpec,
    n: int,
    cs: CrossSection,
    z: SubmanifoldJetPoint,
) -> FrameResult:
    """Solve the normalization plus determining equations for the frame jet
    at z, by staged exact elimination, else by float Gauss-Newton from the
    identity jet when a stage is not affine in its unknowns."""
    space = ps.space
    if cs.space != space or z.space != space:
        raise PreconditionViolation("pseudogroup, cross-section, and point must share a space")
    if cs.order != n:
        raise OrderMismatch(f"cross-section has order {cs.order}, frame order is {n}")
    if z.order < n:
        raise OrderMismatch(f"need an order-{n} jet point, got order {z.order}")
    if not ps.determining:
        raise PreconditionViolation("moving frame needs determining equations")
    if n < ps.effective_order:
        raise PreconditionViolation("frame order below the determining system's order")
    zn = z.truncate(n)
    system = StagedSystem(ps, n, zn.base, zn.u, cs.pairs)
    values: dict[tuple[int, MultiIndex], Scalar] = {}
    failure: Exception | None = None
    for k in range(n + 1):
        try:
            keys, part, kern = system.solve(k, values)
        except NoSolution as exc:
            raise NoSolution(
                f"normalization equations are inconsistent at order {k}; "
                "the point lies outside the frame chart"
            ) from exc
        except (PreconditionViolation, DivisionByZero) as exc:
            failure = exc
            break
        if kern:
            failure = NonTriangular(
                f"order-{k} stage leaves {len(kern)} jet coefficients undetermined"
            )
            break
        values.update(zip(keys, part))

    if failure is None:
        try:
            jet = DiffeoJet(space, n, zn.base, values)
        except SingularJet as exc:
            raise NoSolution(
                "normalized jet is singular; the point lies outside the frame chart"
            ) from exc
        return FrameResult(jet, True, _verify_frame(cs, jet, zn, None))

    jet = _newton_frame(n, cs, zn, system)
    if jet is None:
        raise NonTriangular(
            f"staged solve failed ({failure}) and the float fallback did not converge"
        )
    return FrameResult(jet, False, _verify_frame(cs, jet, zn, _VERIFY_TOLERANCE))


# -- frame charts -----------------------------------------------------------------


@dataclass
class MovingFrameChart:
    """Normalized moving frame over a lazily discovered chart: queried
    points are solved on demand and cached; points where solving fails
    are recorded as outside the chart.  Transversality of the
    cross-section at the anchor is verified on construction."""

    pseudogroup: PseudogroupSpec
    order: int
    cross_section: CrossSection
    anchor: SubmanifoldJetPoint
    transversality: TransversalityReport = field(init=False, repr=False)
    _cache: dict = field(default_factory=dict, repr=False)
    _outside: set = field(default_factory=set, repr=False)

    def __post_init__(self):
        if self.cross_section.order != self.order:
            raise OrderMismatch("cross-section order differs from the frame order")
        report = check_transversality(self.cross_section, self.pseudogroup, self.anchor)
        if not report.transversal:
            raise NotTransversal(
                "cross-section is not transversal to the orbit at the anchor", report
            )
        self.transversality = report

    def result(self, z: SubmanifoldJetPoint) -> FrameResult:
        if z.order < self.order:
            raise OrderMismatch(f"need an order-{self.order} jet point, got order {z.order}")
        zn = z.truncate(self.order)
        key = _jet_key(zn, self.order)
        if key in self._outside:
            raise NoSolution("point recorded as outside the frame chart")
        hit = self._cache.get(key)
        if hit is None:
            try:
                hit = _solve_frame(self.pseudogroup, self.order, self.cross_section, zn)
            except NoSolution:
                self._outside.add(key)
                raise
            self._cache[key] = hit
        return hit

    def frame(self, z: SubmanifoldJetPoint) -> DiffeoJet:
        return self.result(z).jet


def invariants(frame: MovingFrameChart, z: SubmanifoldJetPoint) -> list[tuple[str, object]]:
    """All coordinates of act_on_jet(ghat(z), z) as (name, value) pairs in
    J^n row order.  Entries fixed by the cross-section equal their
    constants; the rest are differential invariants, constant along
    orbits through the chart."""
    moved = frame.result(z).moved
    table = context_for(frame.cross_section.space).jn_table(frame.order)
    return [(name, moved.value(key)) for key, name, _ in table]


# -- sampled verification ----------------------------------------------------------


def _jets_agree(a: DiffeoJet, b: DiffeoJet, tol: float) -> bool:
    if a.space != b.space or a.order != b.order or a.source != b.source:
        return False
    if a.is_exact() and b.is_exact():
        return a.coeffs == b.coeffs
    return all(abs(float(a.coeffs[k]) - float(b.coeffs[k])) <= tol for k in a.coeffs)


@dataclass
class CompatibilityReport:
    lower_order: int
    higher_order: int
    extends: bool
    samples: int
    checked: int
    excluded: int
    seed: int
    violations: list

    @property
    def compatible(self) -> bool:
        return self.extends and self.checked > 0 and not self.violations


def check_compatibility(
    frame_n: MovingFrameChart,
    frame_k: MovingFrameChart,
    samples: int = 20,
    seed: int = 0,
) -> CompatibilityReport:
    """Sampled projected-frame identity: the order-n truncation of the
    higher frame's jet at z equals the lower frame's jet at the
    truncated point.  Raises DomainMismatch when a projected in-chart
    sample falls outside the lower chart."""
    if frame_k.order < frame_n.order:
        raise OrderMismatch("second frame must not have lower order than the first")
    if frame_n.cross_section.space != frame_k.cross_section.space:
        raise PreconditionViolation("frames live on different spaces")
    ext = frame_k.cross_section.extends(frame_n.cross_section)
    rng = random.Random(seed)
    checked = excluded = 0
    violations: list[tuple] = []
    for _ in range(samples):
        z = random_jet_point(frame_k.cross_section.space, frame_k.order, rng, bound=5)
        try:
            high = frame_k.frame(z)
        except (NoSolution, NonTriangular):
            excluded += 1
            continue
        zn = z.truncate(frame_n.order)
        try:
            low = frame_n.frame(zn)
        except NoSolution as exc:
            raise DomainMismatch(
                "projected sample falls outside the lower frame's chart"
            ) from exc
        if not _jets_agree(high.truncate(frame_n.order), low, _VERIFY_TOLERANCE):
            violations.append((z, high, low))
        checked += 1
    return CompatibilityReport(
        frame_n.order, frame_k.order, ext, samples, checked, excluded, seed, violations
    )
