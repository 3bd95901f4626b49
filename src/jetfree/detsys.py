"""Determining systems of pseudogroups and their vector-field jet fibers.

A pseudogroup is specified by determining equations F(z, Z^(n*)) = 0 on
diffeomorphism jets, an infinitesimal system L(z, zeta^(n*)) = 0 on
vector-field jets, or both.  Linearizing the determining equations at
the identity jet produces an infinitesimal system; when both forms are
supplied, :func:`validate_consistency` confirms at sampled points that
they cut out the same spaces.

Both kinds of system prolong by total differentiation.  Evaluating a
prolonged linear system at a base point and solving exactly gives the
fiber of order-n vector-field jets, the central object every freeness
computation consumes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from .errors import (
    CoefficientSingularity,
    DivisionByZero,
    NonRationalDependence,
    PreconditionViolation,
    RegularityWarning,
    UnboundVariable,
)
from .jetspace import JetContext, MultiIndex, SpaceSpec, jet_keys, mi_concat
from .linalg import nullspace, rank
from .prolong import VectorFieldJet, context_for
from .symkernel import Expr, Scalar, scalar


def _check_kinds(ctx: JetContext, e: Expr, allowed: tuple[str, ...], what: str) -> None:
    for vid in e.variables():
        kind = ctx.info(vid)[0]
        if kind not in allowed:
            raise PreconditionViolation(
                f"{what} may only involve {allowed} variables, found {ctx.reg.name(vid)}"
            )


@dataclass(frozen=True)
class PseudogroupSpec:
    """A pseudogroup given by determining equations on diffeomorphism jets
    and/or an infinitesimal system on vector-field jets, both of order
    at most base_order.

    A spec is immutable, and it owns the work that depends on it and the
    jet order alone: its linear system (:attr:`linear_system`) and the
    prolongations of its determining system (:meth:`determining_closure`)
    are built on first use and kept for the spec's lifetime."""

    space: SpaceSpec
    base_order: int
    determining: tuple[Expr, ...] = ()
    infinitesimal: tuple[Expr, ...] = ()
    name: str = ""
    # target order bound -> the determining closure by target order
    _closures: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.base_order < 1:
            raise PreconditionViolation("base order must be at least 1")
        object.__setattr__(self, "determining", tuple(self.determining))
        object.__setattr__(self, "infinitesimal", tuple(self.infinitesimal))
        if not self.determining and not self.infinitesimal:
            raise PreconditionViolation(
                "need determining equations or an infinitesimal system"
            )
        ctx = context_for(self.space)
        for e in self.determining:
            _check_kinds(ctx, e, ("source", "target"), "determining equation")
        for e in self.infinitesimal:
            _check_kinds(ctx, e, ("source", "vf"), "infinitesimal equation")

    @cached_property
    def effective_order(self) -> int:
        """Largest jet order actually appearing, at least base_order.

        Equations above the declared order are legal (the parser warns);
        prolongation and linearization work from this order instead.
        """
        ctx = context_for(self.space)
        n = self.base_order
        for e in self.determining:
            n = max(n, ctx.max_order(e, "target"))
        for e in self.infinitesimal:
            n = max(n, ctx.max_order(e, "vf"))
        return n

    @cached_property
    def linear_system(self) -> LinearDeterminingSystem:
        """The declared infinitesimal system, else the linearization of the
        determining equations (declared_linear_system), built once."""
        return declared_linear_system(self)

    def determining_closure(self, n: int) -> dict[int, tuple[Expr, ...]]:
        """The determining equations closed under total derivatives through
        target order max(n, effective_order) (prolong_determining_system),
        bucketed by target order, equations free of target jets in bucket
        0; built once per order."""
        n = max(n, self.effective_order)
        closure = self._closures.get(n)
        if closure is None:
            ctx = context_for(self.space)
            buckets: dict[int, list[Expr]] = {}
            for e in prolong_determining_system(self, n - self.effective_order):
                buckets.setdefault(max(ctx.max_order(e, "target"), 0), []).append(e)
            closure = {k: tuple(eqs) for k, eqs in buckets.items()}
            self._closures[n] = closure
        return closure


# one linear equation sum_J c_J(z) zeta_J: its (zeta vid, c_J) pairs with
# c_J nonzero, sorted by vid
Row = tuple[tuple[int, Expr], ...]


@dataclass(frozen=True)
class LinearDeterminingSystem:
    """Homogeneous linear system on vector-field jets, complete (closed
    under total differentiation) up to the declared order.

    Each equation is also held as a row of (zeta vid, coefficient)
    pairs, extracted while the equations are validated.  Prolonged
    systems are built from rows (:meth:`from_rows`) and materialize
    their equations only when these are read.  A system keeps its
    prolongation to each order (:meth:`prolonged`)."""

    space: SpaceSpec
    order: int
    equations: tuple[Expr, ...]
    rows: tuple[Row, ...] = field(init=False, repr=False, compare=False)
    _prolonged: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "equations", tuple(self.equations))
        ctx = context_for(self.space)
        rows = []
        for e in self.equations:
            _check_kinds(ctx, e, ("source", "vf"), "linear determining equation")
            rows.append(_zeta_row(ctx, e))
        object.__setattr__(self, "rows", tuple(rows))

    @classmethod
    def from_rows(cls, space: SpaceSpec, order: int, rows) -> LinearDeterminingSystem:
        """A system whose rows are linear by construction: nothing is
        validated again."""
        self = object.__new__(cls)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "_prolonged", {})
        return self

    def __getattr__(self, name: str):
        # reached only for the equations of a system built from rows
        if name != "equations" or "rows" not in self.__dict__:
            raise AttributeError(name)
        ctx = context_for(self.space)
        equations = tuple(_row_expr(ctx, row) for row in self.rows)
        object.__setattr__(self, "equations", equations)
        return equations

    def prolonged(self, n: int) -> LinearDeterminingSystem:
        """The system closed under total derivatives through order
        max(n, order) (prolong_linear_system), built once per order."""
        n = max(n, self.order)
        Lp = self._prolonged.get(n)
        if Lp is None:
            Lp = prolong_linear_system(self, n - self.order)
            self._prolonged[n] = Lp
        return Lp

    def rows_through(self, n: int) -> list[Row]:
        """Rows of the prolonged system involving field jets of order at
        most n: the order-n truncation."""
        ctx = context_for(self.space)
        return [row for row in self.prolonged(n).rows if _row_order(ctx, row) <= n]

    def equations_through(self, n: int) -> list[Expr]:
        """The order-n truncation as equations."""
        ctx = context_for(self.space)
        return [e for e in self.prolonged(n).equations if ctx.max_order(e, "vf") <= n]


def _row_expr(ctx: JetContext, row: Row) -> Expr:
    out = ctx.const(0)
    for vid, coeff in row:
        out = out + coeff * ctx.expr(vid)
    return out


def _zeta_row(ctx: JetContext, e: Expr) -> Row:
    """The row of e; raises unless e is homogeneous of degree 1 in the
    zeta-variables."""
    row = []
    for vid in sorted(e.variables()):
        if ctx.info(vid)[0] != "vf":
            continue
        coeff = e.diff(vid)
        for w in coeff.variables():
            if ctx.info(w)[0] == "vf":
                raise PreconditionViolation(
                    "linear determining equation is not linear in the field jets"
                )
        row.append((vid, coeff))
    if not (_row_expr(ctx, row) - e).is_zero():
        raise PreconditionViolation(
            "linear determining equation is not homogeneous in the field jets"
        )
    return tuple(row)


def _row_order(ctx: JetContext, row: Row) -> int:
    return max((len(ctx.info(vid)[2]) for vid, _ in row), default=-1)


def _row_derivative(ctx: JetContext, row: Row, b: int) -> Row:
    """D_{z^b} sum_J c_J zeta_J = sum_J (d c_J / d z^b) zeta_J + c_J zeta_{J+b};
    the coefficients depend on z alone."""
    src = ctx.source_var(b)
    out: dict[int, Expr] = {}

    def add(vid: int, c: Expr) -> None:
        out[vid] = out[vid] + c if vid in out else c

    for vid, coeff in row:
        dc = coeff.diff(src)
        if not dc.is_zero():
            add(vid, dc)
        _, a, J = ctx.info(vid)
        add(ctx.vf_var(a, mi_concat(J, b)), coeff)
    return tuple((v, out[v]) for v in sorted(out) if not out[v].is_zero())


@dataclass
class FiberBasis:
    """Exact basis of the vector-field jet fiber at one base point."""

    base: tuple
    order: int
    elements: list[VectorFieldJet]
    dimension: int = field(default=-1)

    def __post_init__(self):
        self.base = tuple(self.base)
        if self.dimension < 0:
            self.dimension = len(self.elements)
        if self.dimension != len(self.elements):
            raise ValueError("dimension disagrees with the element count")


# -- linearization ------------------------------------------------------------------


def linearize(ds: PseudogroupSpec) -> LinearDeterminingSystem:
    """Linearize the determining equations at the identity jet: substitute
    Z^a_B by the identity jet plus t * zeta^a_B and differentiate in t
    at t = 0."""
    if not ds.determining:
        raise PreconditionViolation("no determining equations to linearize")
    ctx = context_for(ds.space)
    n, m = ds.effective_order, ds.space.m
    ctx.ensure_target(n)
    ctx.ensure_vf(n)
    tvid = ctx.param_var()
    t = ctx.expr(tvid)
    sub: dict[int, Expr] = {}
    idsub: dict[int, Expr] = {}
    for a, B in jet_keys(m, m, 0, n):
        base = ctx.const(1 if B == (a,) else 0) if B else ctx.expr(ctx.source_var(a))
        idsub[ctx.target_var(a, B)] = base
        sub[ctx.target_var(a, B)] = base + t * ctx.expr(ctx.vf_var(a, B))
    tzero = {tvid: ctx.const(0)}
    eqs = []
    for F in ds.determining:
        try:
            # the deformed substitution can cancel the deformation parameter
            # out of a vanishing denominator, so probe the identity directly
            F.subst(idsub)
        except DivisionByZero as exc:
            raise NonRationalDependence(
                "determining equation is singular at the identity jet"
            ) from exc
        try:
            deformed = F.subst(sub)
            at_identity = deformed.subst(tzero)
        except DivisionByZero as exc:
            raise NonRationalDependence(
                "determining equation is singular at the identity jet"
            ) from exc
        if not at_identity.is_zero():
            raise PreconditionViolation(
                "the identity jet does not solve the determining system"
            )
        try:
            lin = deformed.diff(tvid).subst(tzero)
        except DivisionByZero as exc:
            raise NonRationalDependence(
                "determining equation is singular at the identity jet"
            ) from exc
        if not lin.is_zero():
            eqs.append(lin)
    return LinearDeterminingSystem(ds.space, n, tuple(eqs))


def declared_linear_system(ds: PseudogroupSpec) -> LinearDeterminingSystem:
    """The infinitesimal system as supplied, else the linearization."""
    if ds.infinitesimal:
        return LinearDeterminingSystem(ds.space, ds.effective_order, ds.infinitesimal)
    return linearize(ds)


# -- prolongation --------------------------------------------------------------------


def _close(items, m: int, n: int, order_of, derivative) -> list:
    """The items plus all their total derivatives D_{z^0}..D_{z^(m-1)}
    taken from items of order below n, each once, in discovery order;
    derivative returns a false value for a zero derivative."""
    out = list(items)
    seen = set(out)
    queue = list(items)
    while queue:
        e = queue.pop()
        if order_of(e) >= n:
            continue
        for c in range(m):
            de = derivative(e, c)
            if not de or de in seen:
                continue
            seen.add(de)
            out.append(de)
            queue.append(de)
    return out


def prolong_linear_system(L: LinearDeterminingSystem, k: int) -> LinearDeterminingSystem:
    """Close the system under total derivatives up to order L.order + k."""
    if k < 0:
        raise PreconditionViolation("prolongation step must be nonnegative")
    ctx = context_for(L.space)
    n = L.order + k
    ctx.ensure_vf(n)
    rows = _close(
        L.rows,
        ctx.space.m,
        n,
        lambda row: _row_order(ctx, row),
        lambda row, b: _row_derivative(ctx, row, b),
    )
    return LinearDeterminingSystem.from_rows(L.space, n, rows)


def prolong_determining_system(ds: PseudogroupSpec, k: int) -> list[Expr]:
    """Close the nonlinear determining system under total derivatives up
    to order effective_order + k."""
    if k < 0:
        raise PreconditionViolation("prolongation step must be nonnegative")
    if not ds.determining:
        raise PreconditionViolation("no determining equations to prolong")
    ctx = context_for(ds.space)
    n = ds.effective_order + k
    ctx.ensure_target(n)

    def derivative(e: Expr, b: int) -> Expr | None:
        de = ctx.total_derivative(e, b)
        return None if de.is_zero() else de

    return _close(
        ds.determining, ctx.space.m, n, lambda e: ctx.max_order(e, "target"), derivative
    )


# -- the point-independent layer -------------------------------------------------------


def nonzero_columns(basis: FiberBasis) -> tuple[dict, ...]:
    """Each basis element's nonzero coefficients {(a, B): c}."""
    return tuple({key: c for key, c in elem.coeffs.items() if c != 0} for elem in basis.elements)


def combine_columns(columns: tuple[dict, ...], weights) -> dict:
    """Nonzero coefficients of the weighted sum of the columns."""
    out: dict = {}
    for w, col in zip(weights, columns):
        if w:
            for key, c in col.items():
                out[key] = out.get(key, 0) + w * c
    return {key: c for key, c in out.items() if c}


def _jet_key(z, n: int) -> tuple:
    """Hashable key of the order-n truncation of a submanifold jet point:
    its values in jet-key order."""
    # tuple() of a generator allocates a larger tuple and shrinks it, and
    # on release such tuples fill the interpreter's tuple free lists; from
    # a list, tuple() takes one of the exact size
    return (z.space, z.x, tuple([z.u[key] for key in jet_keys(z.space.q, z.space.p, 0, n)]))


def linear_system_of(ps) -> LinearDeterminingSystem:
    """The linear system of a FreenessProblem or of a pseudogroup spec
    (its declared, else linearized, system, built once per spec), or ps
    itself when it is a linear system."""
    if isinstance(ps, FreenessProblem):
        return ps.system
    if isinstance(ps, PseudogroupSpec):
        return ps.linear_system
    return ps


@dataclass(frozen=True, eq=False)
class FreenessProblem:
    """The point state the freeness computations of one linear system
    share: the fiber basis at each (order, base point) already solved,
    the fiber jets vanishing to a lower order, the jet points found
    LOCALLY_FREE, the steps of each lift, and the verdicts of the
    one-step lift blocks already ranked (see freeness._lift_verdict).
    The system and its prolongations belong to the system (and so to its
    spec), not to the problem.

    Fibers depend on the base point z = (x, u) only, so every lift of a
    jet point reuses the fibers of its base.  A problem lives as long as
    the caller keeps it (one CLI command, one sweep), so point state
    never outlives it."""

    system: LinearDeterminingSystem
    # (order, base) -> (fiber basis, its nonzero columns)
    _fibers: dict = field(default_factory=dict, init=False, repr=False)
    # (n, order, base) -> nonzero columns of the fiber jets vanishing to order n
    _vanishing: dict = field(default_factory=dict, init=False, repr=False)
    # order -> keys of the points recorded LOCALLY_FREE at that order
    _free: dict = field(default_factory=dict, init=False, repr=False)
    # (k, n, base) -> (j, K_j) of each step of a lift from order k to n
    # whose K_j is nonzero
    _lift_steps: dict = field(default_factory=dict, init=False, repr=False)
    # (j, base, values of the step-j block's variables) -> whether the
    # block is injective on K_j
    _steps: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def of(cls, ps) -> FreenessProblem:
        """The problem itself, else a new problem over the linear system
        of ps (see linear_system_of)."""
        if isinstance(ps, FreenessProblem):
            return ps
        return cls(linear_system_of(ps))

    @property
    def space(self) -> SpaceSpec:
        return self.system.space

    def _solved_fiber(self, n: int, z0: tuple) -> tuple[FiberBasis, tuple[dict, ...]]:
        key = (n, tuple(z0))
        solved = self._fibers.get(key)
        if solved is None:
            fb = fiber_basis(self, n, z0)
            solved = (fb, nonzero_columns(fb))
            self._fibers[key] = solved
        return solved

    def fiber(self, n: int, z0: tuple) -> FiberBasis:
        """Fiber basis of order n at base point z0, solved on first use."""
        return self._solved_fiber(n, z0)[0]

    def fiber_columns(self, n: int, z0: tuple) -> tuple[dict, ...]:
        """The fiber basis's nonzero columns (see nonzero_columns), built
        once with the fiber."""
        return self._solved_fiber(n, z0)[1]

    def vanishing_columns(self, n: int, order: int, z0: tuple) -> tuple[dict, ...]:
        """Nonzero columns of a basis of K, the order-`order` fiber jets at
        z0 whose jets of order <= n are all zero: the null space of the
        fiber basis's order-<= n coordinates, solved on first use."""
        key = (n, order, tuple(z0))
        K = self._vanishing.get(key)
        if K is None:
            columns = self.fiber_columns(order, z0)
            K = ()
            if columns:
                low = [(a, B) for a, B, _ in context_for(self.space).vf_coords(n)]
                rows = [[col.get(k, 0) for col in columns] for k in low]
                K = tuple(combine_columns(columns, vec) for vec in nullspace(rows, len(columns)))
            self._vanishing[key] = K
        return K

    def lift_steps(self, k: int, n: int, z0: tuple) -> tuple:
        """The steps j = k+1..n of a lift from order k to order n at z0
        that have something to decide: (j, K_j) for each nonzero K_j, the
        order-j fiber jets vanishing to order j-1 (vanishing_columns).
        Built on first use."""
        key = (k, n, tuple(z0))
        steps = self._lift_steps.get(key)
        if steps is None:
            steps = tuple(
                (j, K) for j in range(k + 1, n + 1) if (K := self.vanishing_columns(j - 1, j, z0))
            )
            self._lift_steps[key] = steps
        return steps

    def step_verdict(self, key: tuple, decide: Callable[[], bool]) -> bool:
        """The one-step lift verdict kept under key, from decide() on first
        use.  key must hold every input of the step's block."""
        verdict = self._steps.get(key)
        if verdict is None:
            verdict = self._steps[key] = decide()
        return verdict

    def record_free(self, z) -> None:
        """Record the jet point z as LOCALLY_FREE at its own order."""
        self._free.setdefault(z.order, set()).add(_jet_key(z, z.order))

    def free_truncation(self, z, below: int) -> int | None:
        """The highest order k < min(below, z.order + 1) whose truncation
        z^(k) was recorded LOCALLY_FREE, else None."""
        for k in sorted(self._free, reverse=True):
            if k < below and k <= z.order and _jet_key(z, k) in self._free[k]:
                return k
        return None


# -- fibers ---------------------------------------------------------------------------


def evaluated_rows(
    L, n: int, z0: tuple
) -> tuple[list[list[Scalar]], list[tuple[int, MultiIndex, int]]]:
    """Coefficient matrix of the order-n truncation of L (a linear system,
    a spec or a FreenessProblem: see linear_system_of) evaluated at z0,
    with columns over all zeta-jet coordinates of order <= n.  Only the
    rows' nonzero coefficients are evaluated."""
    system = linear_system_of(L)
    ctx = context_for(system.space)
    coords = ctx.vf_coords(n)
    column = {vid: i for i, (_, _, vid) in enumerate(coords)}
    env = {ctx.source_var(a): z0[a] for a in range(system.space.m)}
    rows = []
    for entries in system.rows_through(n):
        row = [scalar(0)] * len(coords)
        for vid, ce in entries:
            try:
                row[column[vid]] = ce.eval(env)
            except (DivisionByZero, ZeroDivisionError) as exc:
                raise CoefficientSingularity(
                    f"coefficient denominator vanishes at the base point: {ce}"
                ) from exc
            except UnboundVariable as exc:
                raise CoefficientSingularity(
                    f"coefficient is not a function of the base point alone: {ce}"
                ) from exc
        rows.append(row)
    return rows, coords


def basis_from_rows(
    space: SpaceSpec, n: int, z0: tuple, rows: list, coords: list
) -> FiberBasis:
    """Null-space basis of rows over the zeta-jet coordinates coords, as
    order-n vector-field jets at z0."""
    elements = []
    for vec in nullspace(rows, len(coords)):
        coeffs = {(a, B): vec[i] for i, (a, B, _) in enumerate(coords)}
        elements.append(VectorFieldJet(space, n, tuple(z0), coeffs))
    return FiberBasis(tuple(z0), n, elements)


def fiber_basis(L, n: int, z0: tuple) -> FiberBasis:
    """Exact null-space basis of the evaluated linear system over the
    zeta-jet coordinates of order <= n.  The system is prolonged to
    order n if needed (once per system and order); equations of higher
    order are not evaluated.  L is anything linear_system_of accepts; the
    solve itself is always done afresh."""
    rows, coords = evaluated_rows(L, n, z0)
    return basis_from_rows(L.space, n, z0, rows, coords)


def vanishing_fiber_basis(L, n: int, z0: tuple) -> FiberBasis:
    """Basis of the subspace of the fiber whose order-0 components vanish."""
    rows, coords = evaluated_rows(L, n, z0)
    for a in range(L.space.m):
        rows.append([scalar(1) if (ca == a and B == ()) else scalar(0) for ca, B, _ in coords])
    return basis_from_rows(L.space, n, z0, rows, coords)


def fiber_rank(L, n: int, z0: tuple) -> int:
    """Rank of the evaluated system at z0 (fiber codimension)."""
    rows, _ = evaluated_rows(L, n, z0)
    return rank(rows)


def jet_satisfies(L, v: VectorFieldJet) -> bool:
    """Exact membership test of a vector-field jet in the solution space of
    the order-truncated system at its base point."""
    system = linear_system_of(L)
    ctx = context_for(system.space)
    env = {ctx.source_var(a): v.base[a] for a in range(system.space.m)}
    for (a, B), val in v.coeffs.items():
        env[ctx.vf_var(a, B)] = val
    for e in system.equations_through(v.order):
        try:
            if e.eval(env) != 0:
                return False
        except (DivisionByZero, ZeroDivisionError) as exc:
            raise CoefficientSingularity(
                "coefficient denominator vanishes at the base point"
            ) from exc
    return True


# -- validation ------------------------------------------------------------------------


def validate_consistency(
    ds: PseudogroupSpec, seed: int = 0, points: int = 20, extra_orders: int = 2
) -> None:
    """When both system forms are present, check at random rational points
    that the linearized determining system and the declared infinitesimal
    system have fibers of equal dimension containing each other.

    Raises PreconditionViolation on any disagreement.
    """
    if not ds.determining or not ds.infinitesimal:
        return
    from .sampling import random_point

    import random

    rng = random.Random(seed)
    lin = linearize(ds)
    dec = ds.linear_system  # the declared system
    for n in range(ds.base_order, ds.base_order + extra_orders + 1):
        checked = 0
        attempts = 0
        while checked < points:
            attempts += 1
            if attempts > 20 * points:
                raise PreconditionViolation(
                    "could not sample enough regular points for consistency validation"
                )
            z0 = random_point(ds.space, rng)
            try:
                fa = fiber_basis(lin, n, z0)
                fb = fiber_basis(dec, n, z0)
            except CoefficientSingularity:
                continue
            if fa.dimension != fb.dimension:
                raise PreconditionViolation(
                    f"linearized and declared systems disagree at {z0}, order {n}: "
                    f"dimensions {fa.dimension} vs {fb.dimension}"
                )
            for v in fa.elements:
                if not jet_satisfies(dec, v):
                    raise PreconditionViolation(
                        f"linearized fiber is not contained in the declared fiber at {z0}"
                    )
            for v in fb.elements:
                if not jet_satisfies(lin, v):
                    raise PreconditionViolation(
                        f"declared fiber is not contained in the linearized fiber at {z0}"
                    )
            checked += 1


def check_regularity(L, n: int, points: list[tuple]) -> list[int]:
    """Evaluate the system rank at each point; warn when the rank jumps
    between points (the pseudogroup bundle may fail to be a smooth,
    embedded subbundle there).  Returns the rank profile."""
    ranks = []
    for z0 in points:
        try:
            ranks.append(fiber_rank(L, n, z0))
        except CoefficientSingularity:
            ranks.append(-1)
    good = [r for r in ranks if r >= 0]
    if good and any(r != good[0] for r in good):
        warnings.warn(
            f"system rank at order {n} varies across sampled points "
            f"(profile {ranks}); the jet bundle may not be regular",
            RegularityWarning,
            stacklevel=2,
        )
    return ranks
