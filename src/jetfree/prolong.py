"""Diffeomorphism jets, their groupoid operations, and prolongation.

A :class:`DiffeoJet` stores the Taylor coefficients (plain partial
derivatives) of a local diffeomorphism at one source point.  Composition
is computed from cached chain-rule expansion tables that are linear in
the outer jet; inversion solves ``compose(result, g) = identity`` order
by order, which is a staged affine problem in exact arithmetic.

A jet acts on a :class:`SubmanifoldJetPoint` by moving the base point
with the target coordinates and transforming the derivative coordinates
with iterated invariant total derivatives.  Vector fields lift to
vertical fields on the diffeomorphism-jet bundle by total
differentiation of their components evaluated at the target, and
prolong to submanifold jet space through the characteristic.  Both
constructions preserve brackets, which the tests check exactly.

All verdict-bearing operations are exact over :class:`~fractions.Fraction`;
the only floating-point entry point is :func:`flow_jet`, a fixed-step
integrator used by validation harnesses to differentiate the action
numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite

from .errors import (
    BasePointMismatch,
    DivisionByZero,
    NoSolution,
    OrderMismatch,
    SingularJet,
    SingularTotalJacobian,
    StepFailure,
)
from .jetspace import JetContext, MultiIndex, SpaceSpec, jet_key_set, jet_keys, mi_concat
from .linalg import det
from .stagesolve import solve_stage
from .symkernel import Expr, VarRegistry, scalar

_CTX_CACHE: dict[SpaceSpec, JetContext] = {}


def context_for(space: SpaceSpec) -> JetContext:
    """Shared per-space context so symbolic caches are built once."""
    ctx = _CTX_CACHE.get(space)
    if ctx is None:
        ctx = JetContext(space)
        _CTX_CACHE[space] = ctx
    return ctx


def _is_exact(value) -> bool:
    return not isinstance(value, float)


@dataclass
class DiffeoJet:
    """Jet of a local diffeomorphism: source point and target coefficients
    Z^a_B for 0 <= |B| <= order, indexed by (component, multi-index)."""

    space: SpaceSpec
    order: int
    source: tuple
    coeffs: dict[tuple[int, MultiIndex], object]

    def __post_init__(self):
        m = self.space.m
        self.source = tuple(self.source)
        if len(self.source) != m:
            raise ValueError("source point has wrong dimension")
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        if self.coeffs.keys() != jet_key_set(m, m, self.order):
            raise ValueError("jet coefficients incomplete or overfull")
        if self.order >= 1:
            block = [[self.coeffs[(a, (b,))] for b in range(m)] for a in range(m)]
            if det(block) == 0:
                raise SingularJet("first-order block of the jet is singular")

    @property
    def target(self) -> tuple:
        return tuple(self.coeffs[(a, ())] for a in range(self.space.m))

    def truncate(self, n: int) -> DiffeoJet:
        if n > self.order:
            raise OrderMismatch("cannot truncate upward")
        m = self.space.m
        kept = {key: self.coeffs[key] for key in jet_keys(m, m, 0, n)}
        return DiffeoJet(self.space, n, self.source, kept)

    def is_exact(self) -> bool:
        return all(_is_exact(v) for v in self.coeffs.values()) and all(
            _is_exact(v) for v in self.source
        )


@dataclass
class SubmanifoldJetPoint:
    """Point of submanifold jet space: x values plus u^alpha_J values for
    0 <= |J| <= order, indexed by (component, multi-index over x slots)."""

    space: SpaceSpec
    order: int
    x: tuple
    u: dict[tuple[int, MultiIndex], object]

    def __post_init__(self):
        self.x = tuple(self.x)
        if len(self.x) != self.space.p:
            raise ValueError("independent values have wrong dimension")
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        if self.u.keys() != jet_key_set(self.space.q, self.space.p, self.order):
            raise ValueError("jet coordinates incomplete or overfull")

    @property
    def base(self) -> tuple:
        """Underlying point of M: (x, u) values."""
        return self.x + tuple(self.u[(al, ())] for al in range(self.space.q))

    def truncate(self, n: int) -> SubmanifoldJetPoint:
        if n > self.order:
            raise OrderMismatch("cannot truncate upward")
        kept = {key: self.u[key] for key in jet_keys(self.space.q, self.space.p, 0, n)}
        return SubmanifoldJetPoint(self.space, n, self.x, kept)


@dataclass
class VectorFieldJet:
    """Jet of a vector field at a point: coefficients zeta^a_B."""

    space: SpaceSpec
    order: int
    base: tuple
    coeffs: dict[tuple[int, MultiIndex], object]

    def __post_init__(self):
        m = self.space.m
        self.base = tuple(self.base)
        if len(self.base) != m:
            raise ValueError("base point has wrong dimension")
        if self.coeffs.keys() != jet_key_set(m, m, self.order):
            raise ValueError("vector-field jet coefficients incomplete or overfull")

    def truncate(self, n: int) -> VectorFieldJet:
        if n > self.order:
            raise OrderMismatch("cannot truncate upward")
        m = self.space.m
        kept = {key: self.coeffs[key] for key in jet_keys(m, m, 0, n)}
        return VectorFieldJet(self.space, n, self.base, kept)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.coeffs.values())


@dataclass
class GroupoidElement:
    """A submanifold jet paired with a diffeomorphism jet based at the
    same point of M; ``act`` applies the second to the first."""

    point: SubmanifoldJetPoint
    jet: DiffeoJet

    def __post_init__(self):
        if self.point.space != self.jet.space:
            raise BasePointMismatch("point and jet live over different spaces")
        if self.point.base != self.jet.source:
            raise BasePointMismatch("point and jet have different base points")

    def act(self) -> SubmanifoldJetPoint:
        return act_on_jet(self.jet, self.point)


@dataclass
class ProlongedVF:
    """Components of a prolonged vector field on submanifold jet space,
    keyed ("x", i) and ("u", alpha, J).  For the formal general field the
    components are linear homogeneous in the zeta-jet variables; for a
    concrete field they are expressions in (x, u-jets)."""

    space: SpaceSpec
    order: int
    components: dict[tuple, Expr]
    general: bool = field(default=False)


# -- construction helpers ------------------------------------------------------


def identity_jet(space: SpaceSpec, n: int, at: tuple) -> DiffeoJet:
    coeffs = {
        (a, B): scalar(1 if B == (a,) else 0) if B else at[a]
        for a, B in jet_keys(space.m, space.m, 0, n)
    }
    return DiffeoJet(space, n, tuple(at), coeffs)


def _partial(e: Expr, vids: list[int], B: MultiIndex) -> Expr:
    for b in B:
        e = e.diff(vids[b])
    return e


def diffeo_jet_from_map(ctx: JetContext, components, n: int, at: tuple) -> DiffeoJet:
    """Jet of the map z -> (components) at the given point, coefficients
    computed by exact partial differentiation."""
    m = ctx.space.m
    if len(components) != m:
        raise ValueError("need one component per coordinate of M")
    src = [ctx.source_var(a) for a in range(m)]
    env = {src[a]: at[a] for a in range(m)}
    coeffs = {(a, B): _partial(components[a], src, B).eval(env) for a, B in jet_keys(m, m, 0, n)}
    return DiffeoJet(ctx.space, n, tuple(at), coeffs)


def submanifold_jet_from_sections(ctx: JetContext, sections, n: int, at: tuple) -> SubmanifoldJetPoint:
    """Jet of the graph u = s(x) at the given x values."""
    p, q = ctx.space.p, ctx.space.q
    if len(sections) != q:
        raise ValueError("need one section component per dependent coordinate")
    src = [ctx.source_var(i) for i in range(p)]
    env = {src[i]: at[i] for i in range(p)}
    u = {(al, J): _partial(sections[al], src, J).eval(env) for al, J in jet_keys(q, p, 0, n)}
    return SubmanifoldJetPoint(ctx.space, n, tuple(at), u)


# -- composition tables --------------------------------------------------------


class _CompTable:
    """Chain-rule expansion of the jet of a composite h(g(z)): expressions
    in outer jets H^a_C (linear) and inner jets G^c_B."""

    def __init__(self, m: int, n: int):
        self.m, self.n = m, n
        self.reg = VarRegistry()
        self.h: dict[tuple[int, MultiIndex], int] = {}
        self.g: dict[tuple[int, MultiIndex], int] = {}
        self._kind: dict[int, tuple[str, int, MultiIndex]] = {}
        keys = jet_keys(m, m, 0, n)
        for fam, store in (("h", self.h), ("g", self.g)):
            for a, B in keys:
                suffix = "_".join(str(b) for b in B)
                vid = self.reg.register(f"{fam}{a}.{suffix}")
                store[(a, B)] = vid
                self._kind[vid] = (fam, a, B)
        self.comp: dict[tuple[int, MultiIndex], Expr] = {}
        for a, B in keys:
            self.comp[(a, B)] = (
                self._chain_derivative(self.comp[(a, B[:-1])], B[-1])
                if B
                else Expr.var(self.reg, self.h[(a, ())])
            )

    def _chain_derivative(self, e: Expr, b: int) -> Expr:
        out = Expr.const(self.reg, 0)
        for vid in sorted(e.variables()):
            fam, a, B = self._kind[vid]
            coeff = e.diff(vid)
            if fam == "h":
                repl = Expr.const(self.reg, 0)
                for c in range(self.m):
                    repl = repl + Expr.var(self.reg, self.h[(a, mi_concat(B, c))]) * Expr.var(
                        self.reg, self.g[(c, (b,))]
                    )
            else:
                repl = Expr.var(self.reg, self.g[(a, mi_concat(B, b))])
            out = out + coeff * repl
        return out


_COMP_TABLES: dict[tuple[int, int], _CompTable] = {}


def _comp_table(m: int, n: int) -> _CompTable:
    tab = _COMP_TABLES.get((m, n))
    if tab is None:
        tab = _CompTable(m, n)
        _COMP_TABLES[(m, n)] = tab
    return tab


# -- groupoid operations ---------------------------------------------------------


def jet_compose(h: DiffeoJet, g: DiffeoJet) -> DiffeoJet:
    """Jet of the composite map h after g; requires source(h) = target(g)."""
    if h.space != g.space:
        raise BasePointMismatch("jets live over different spaces")
    if h.order != g.order:
        raise OrderMismatch(f"orders differ: {h.order} vs {g.order}")
    if h.source != g.target:
        raise BasePointMismatch("source of outer jet differs from target of inner jet")
    tab = _comp_table(h.space.m, h.order)
    env = {}
    for key, vid in tab.h.items():
        env[vid] = h.coeffs[key]
    for key, vid in tab.g.items():
        env[vid] = g.coeffs[key]
    coeffs = {key: tab.comp[key].eval(env) for key in g.coeffs}
    return DiffeoJet(h.space, h.order, g.source, coeffs)


def jet_invert(g: DiffeoJet) -> DiffeoJet:
    """Groupoid inverse: the unique jet h with h∘g and g∘h identity jets,
    solved order by order (each stage is affine in the unknown level)."""
    m, n = g.space.m, g.order
    tab = _comp_table(m, n)
    reg = tab.reg
    inner = {vid: Expr.const(reg, g.coeffs[key]) for key, vid in tab.g.items()}
    hvals: dict[tuple[int, MultiIndex], object] = {(a, ()): g.source[a] for a in range(m)}
    for k in range(1, n + 1):
        # compose(h, g) = identity at order k
        equations = [
            tab.comp[(a, B)].subst(inner) - Expr.const(reg, 1 if B == (a,) else 0)
            for a, B in jet_keys(m, m, k, k)
        ]
        try:
            keys, sol, kern = solve_stage(
                equations, k, m, lambda a, C: tab.h[(a, C)], hvals, reg
            )
        except NoSolution as exc:
            raise SingularJet("no inverse jet exists") from exc
        if kern:
            raise SingularJet("inverse jet is not unique")
        hvals.update(zip(keys, sol))
    return DiffeoJet(g.space, n, g.target, hvals)


# -- the action on submanifold jets ----------------------------------------------


def _point_env(ctx: JetContext, z: SubmanifoldJetPoint) -> dict[int, object]:
    ctx.ensure_sub(z.order)
    env = {}
    for i in range(ctx.space.p):
        env[ctx.source_var(i)] = z.x[i]
    for (al, J), val in z.u.items():
        env[ctx.sub_var(al, J)] = val
    return env


def act_on_jet(g: DiffeoJet, z: SubmanifoldJetPoint) -> SubmanifoldJetPoint:
    """Prolonged action of a diffeomorphism jet on a submanifold jet based
    at the same point; exact when all inputs are exact."""
    if g.space != z.space:
        raise BasePointMismatch("jet and point live over different spaces")
    if g.order != z.order:
        raise OrderMismatch(f"orders differ: {g.order} vs {z.order}")
    if g.source != z.base:
        raise BasePointMismatch("jet and point have different base points")
    space, n = g.space, g.order
    p, q = space.p, space.q
    ctx = context_for(space)
    ctx.ensure_target(max(n, 1))
    ctx.ensure_sub(max(n, 1))
    env = _point_env(ctx, z)
    for key, val in g.coeffs.items():
        env[ctx.target_var(*key)] = val
    # a float jet is evaluated in float arithmetic, in a fixed term order
    evaluate = Expr.eval if g.is_exact() else Expr.eval_float
    if n >= 1:
        jac = [[evaluate(e, env) for e in row] for row in ctx.total_jacobian()]
        if det(jac) == 0:
            raise SingularTotalJacobian("total Jacobian degenerates; jet leaves the chart")
    newx = tuple(g.coeffs[(i, ())] for i in range(p))
    newu: dict[tuple[int, MultiIndex], object] = {}
    for al in range(q):
        newu[(al, ())] = g.coeffs[(p + al, ())]
    for al, J in jet_keys(q, p, 1, n):
        try:
            newu[(al, J)] = evaluate(ctx.uhat(al, J), env)
        except (DivisionByZero, ZeroDivisionError) as exc:
            raise SingularTotalJacobian("total Jacobian degenerates; jet leaves the chart") from exc
    return SubmanifoldJetPoint(space, n, newx, newu)


# -- vector fields: lift, characteristic, prolongation ------------------------------


def lift_vector_field(ctx: JetContext, components, n: int) -> dict[tuple[int, MultiIndex], Expr]:
    """Vertical lift to the diffeomorphism-jet bundle: the coefficient of
    the Z^a_B direction is the iterated total derivative of the a-th
    component evaluated at the target."""
    m = ctx.space.m
    if len(components) != m:
        raise ValueError("need one component per coordinate of M")
    ctx.ensure_target(n)
    at_target = {ctx.source_var(a): ctx.expr(ctx.target_var(a, ())) for a in range(m)}
    out: dict[tuple[int, MultiIndex], Expr] = {}
    for a, B in jet_keys(m, m, 0, n):
        out[(a, B)] = (
            ctx.total_derivative(out[(a, B[:-1])], B[-1]) if B else components[a].subst(at_target)
        )
    return out


def characteristic(ctx: JetContext, components) -> list[Expr]:
    """Q^alpha = phi^alpha - sum_i xi^i u^alpha_i for v = (xi, phi)."""
    p, q = ctx.space.p, ctx.space.q
    if len(components) != p + q:
        raise ValueError("need one component per coordinate of M")
    ctx.ensure_sub(1)
    out = []
    for al in range(q):
        e = components[p + al]
        for i in range(p):
            e = e - components[i] * ctx.expr(ctx.sub_var(al, (i,)))
        out.append(e)
    return out


def prolong_vector_field(ctx: JetContext, components, n: int) -> ProlongedVF:
    """Prolongation of a concrete vector field with rational components:
    substitutes the derivatives of the components into the formal
    prolongation."""
    p, q = ctx.space.p, ctx.space.q
    if len(components) != p + q:
        raise ValueError("need one component per coordinate of M")
    src = [ctx.source_var(a) for a in range(ctx.space.m)]
    submap = {}
    for a, B, vid in ctx.vf_coords(n):
        submap[vid] = _partial(components[a], src, B)
    comps: dict[tuple, Expr] = {}
    for i in range(p):
        comps[("x", i)] = components[i]
    for al, J in jet_keys(q, p, 0, n):
        comps[("u", al, J)] = ctx.phihat(al, J).subst(submap)
    return ProlongedVF(ctx.space, n, comps, general=False)


def general_prolonged_vf(ctx: JetContext, n: int) -> ProlongedVF:
    """Formal prolongation with the vector-field jet left symbolic; each
    component is linear homogeneous in the zeta-variables."""
    p, q = ctx.space.p, ctx.space.q
    ctx.ensure_vf(n)
    comps: dict[tuple, Expr] = {}
    for i in range(p):
        comps[("x", i)] = ctx.expr(ctx.vf_var(i, ()))
    for al, J in jet_keys(q, p, 0, n):
        comps[("u", al, J)] = ctx.phihat(al, J)
    return ProlongedVF(ctx.space, n, comps, general=True)


def prolong_at_point(ctx: JetContext, z: SubmanifoldJetPoint):
    """Matrix of the linear map from vector-field jets at the base point to
    tangent vectors of submanifold jet space at z.  Returns (matrix,
    row labels, column labels); rows follow jn_coords, columns vf_coords."""
    n = z.order
    env = _point_env(ctx, z)
    cols = ctx.vf_coords(n)
    rows = ctx.jn_coords(n)
    mat = []
    for row in rows:
        if row[0] == "x":
            i = row[1]
            mat.append([scalar(1) if (a == i and B == ()) else scalar(0) for a, B, _ in cols])
        else:
            al, J = row[1], row[2]
            by_vid = {vid: ce for vid, ce in ctx.phihat_coeffs(al, J)}
            line = []
            for _, _, vid in cols:
                ce = by_vid.get(vid)
                line.append(scalar(0) if ce is None else ce.eval(env))
            mat.append(line)
    return mat, rows, [(a, B) for a, B, _ in cols]


# -- brackets ----------------------------------------------------------------------


def vf_bracket(ctx: JetContext, v, w) -> list[Expr]:
    """Lie bracket of vector fields on M with Expr components over z."""
    m = ctx.space.m
    src = [ctx.source_var(a) for a in range(m)]
    out = []
    for a in range(m):
        e = ctx.const(0)
        for b in range(m):
            e = e + v[b] * w[a].diff(src[b]) - w[b] * v[a].diff(src[b])
        out.append(e)
    return out


def lifted_bracket(ctx: JetContext, V: dict, W: dict) -> dict:
    """Bracket of two vertical lifted fields, as a derivation in the
    target-jet coordinates only."""
    out = {}
    keys = sorted(V.keys(), key=lambda k: (len(k[1]), k))
    for key in keys:
        e = ctx.const(0)
        for ckey in keys:
            dvid = ctx.target_var(*ckey)
            e = e + V[ckey] * W[key].diff(dvid) - W[ckey] * V[key].diff(dvid)
        out[key] = e
    return out


def prolonged_bracket(ctx: JetContext, A: ProlongedVF, B: ProlongedVF) -> ProlongedVF:
    """Bracket of two concrete prolonged fields as derivations in the
    submanifold jet coordinates up to the common order."""
    if A.order != B.order:
        raise OrderMismatch("prolonged fields have different orders")

    def coord_vid(key):
        if key[0] == "x":
            return ctx.source_var(key[1])
        return ctx.sub_var(key[1], key[2])

    comps = {}
    for key in A.components:
        e = ctx.const(0)
        for ckey in A.components:
            dvid = coord_vid(ckey)
            e = e + A.components[ckey] * B.components[key].diff(dvid)
            e = e - B.components[ckey] * A.components[key].diff(dvid)
        comps[key] = e
    return ProlongedVF(A.space, A.order, comps, general=False)


# -- numeric flow (validation only) ---------------------------------------------------


def flow_jet(ctx: JetContext, components, t, g0: DiffeoJet, steps: int | None = None) -> DiffeoJet:
    """Float-mode flow of the lifted field through g0 for time t, with a
    fixed-step fourth-order Runge-Kutta integrator.  Exact inputs pass
    through unchanged at t = 0."""
    if t == 0:
        return g0
    m, n = ctx.space.m, g0.order
    lift = lift_vector_field(ctx, components, n)
    keys = jet_keys(m, m, 0, n)
    vids = [ctx.target_var(a, B) for a, B in keys]
    exprs = [lift[key] for key in keys]
    y = [float(g0.coeffs[key]) for key in keys]
    tf = float(t)
    if steps is None:
        steps = max(32, int(abs(tf) * 64) + 1)
    h = tf / steps

    def rhs(state):
        env = dict(zip(vids, state))
        return [e.eval_float(env) for e in exprs]

    for _ in range(steps):
        try:
            k1 = rhs(y)
            k2 = rhs([yi + 0.5 * h * ki for yi, ki in zip(y, k1)])
            k3 = rhs([yi + 0.5 * h * ki for yi, ki in zip(y, k2)])
            k4 = rhs([yi + h * ki for yi, ki in zip(y, k3)])
        except ZeroDivisionError as exc:
            raise StepFailure("flow integrand became singular") from exc
        y = [yi + h / 6.0 * (a + 2 * b + 2 * c + d) for yi, a, b, c, d in zip(y, k1, k2, k3, k4)]
        if any(not isfinite(v) for v in y):
            raise StepFailure("flow diverged to a non-finite state")
    return DiffeoJet(g0.space, n, g0.source, dict(zip(keys, y)))
