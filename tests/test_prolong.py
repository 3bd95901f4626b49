from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jetfree.errors import (
    BasePointMismatch,
    OrderMismatch,
    SingularJet,
    SingularTotalJacobian,
)
from jetfree.jetspace import SpaceSpec, mi_enumerate
from jetfree.linalg import det
from jetfree.prolong import (
    DiffeoJet,
    SubmanifoldJetPoint,
    VectorFieldJet,
    act_on_jet,
    context_for,
    diffeo_jet_from_map,
    flow_jet,
    identity_jet,
    jet_compose,
    jet_invert,
    lift_vector_field,
    lifted_bracket,
    prolong_at_point,
    prolong_vector_field,
    prolonged_bracket,
    submanifold_jet_from_sections,
    vf_bracket,
)
from jetfree.symkernel import scalar

SP = SpaceSpec(("x",), ("u",))


def _F(v) -> Fraction:
    return Fraction(v)


def _pt(n, x, u_vals):
    """Build a curve jet point from a flat list u, u_x, u_xx, ..."""
    u = {(0, (0,) * k): _F(u_vals[k]) for k in range(n + 1)}
    return SubmanifoldJetPoint(SP, n, (_F(x),), u)


def _xu_map(fx, fu):
    """Expr components of a map (x, u) -> (fx, fu) over the shared context."""
    ctx = context_for(SP)
    return ctx, [fx(ctx), fu(ctx)]


def _x(ctx):
    return ctx.expr(ctx.source_var(0))


def _u(ctx):
    return ctx.expr(ctx.source_var(1))


# -- groupoid operations -------------------------------------------------------


def test_compose_identity_left_and_right():
    ctx = context_for(SP)
    g = diffeo_jet_from_map(ctx, [_x(ctx) + _x(ctx) * _x(ctx), _u(ctx) + _x(ctx)], 2, (_F(0), _F(1)))
    left = jet_compose(identity_jet(SP, 2, g.target), g)
    right = jet_compose(g, identity_jet(SP, 2, g.source))
    assert left == g
    assert right == g


def test_compose_matches_direct_differentiation():
    # one-variable chain rule through the two-dimensional ambient space
    ctx = context_for(SP)
    x, u = _x(ctx), _u(ctx)
    inner = [x + x * x, u]
    outer = [x * x * x + ctx.const(2) * x, u + ctx.const(3)]
    x0 = (_F(1), _F(5))
    g = diffeo_jet_from_map(ctx, inner, 3, x0)
    h = diffeo_jet_from_map(ctx, outer, 3, g.target)
    composed = jet_compose(h, g)
    # independent path: substitute and differentiate the composite map
    smap = {ctx.source_var(0): inner[0], ctx.source_var(1): inner[1]}
    direct = diffeo_jet_from_map(ctx, [c.subst(smap) for c in outer], 3, x0)
    assert composed == direct


def test_compose_second_order_chain_rule_value():
    # (h∘g)'' = h''(g)·(g')² + h'(g)·g''
    ctx = context_for(SP)
    x, u = _x(ctx), _u(ctx)
    g = diffeo_jet_from_map(ctx, [x + x * x, u], 2, (_F(1), _F(0)))
    h = diffeo_jet_from_map(ctx, [x * x * x, u], 2, g.target)
    comp = jet_compose(h, g)
    gp, gpp = g.coeffs[(0, (0,))], g.coeffs[(0, (0, 0))]
    hp, hpp = h.coeffs[(0, (0,))], h.coeffs[(0, (0, 0))]
    assert comp.coeffs[(0, (0, 0))] == hpp * gp * gp + hp * gpp


def test_compose_order_and_base_mismatch():
    g1 = identity_jet(SP, 1, (_F(0), _F(0)))
    g2 = identity_jet(SP, 2, (_F(0), _F(0)))
    with pytest.raises(OrderMismatch):
        jet_compose(g1, g2)
    far = identity_jet(SP, 1, (_F(1), _F(0)))
    with pytest.raises(BasePointMismatch):
        jet_compose(far, g1)


def test_invert_identity_and_scalar():
    ident = identity_jet(SP, 1, (_F(0), _F(0)))
    assert jet_invert(ident) == ident
    coeffs = {
        (0, ()): _F(0),
        (1, ()): _F(0),
        (0, (0,)): _F(2),
        (0, (1,)): _F(0),
        (1, (0,)): _F(0),
        (1, (1,)): _F(1),
    }
    g = DiffeoJet(SP, 1, (_F(0), _F(0)), coeffs)
    inv = jet_invert(g)
    assert inv.coeffs[(0, (0,))] == Fraction(1, 2)
    assert jet_compose(g, inv) == identity_jet(SP, 1, g.target)
    assert jet_compose(inv, g) == identity_jet(SP, 1, g.source)


def test_invert_second_order_coefficient():
    # inverse second derivative is -f''/(f')^3
    ctx = context_for(SP)
    x, u = _x(ctx), _u(ctx)
    f = diffeo_jet_from_map(ctx, [ctx.const(2) * x + ctx.const(3) * x * x, u], 2, (_F(0), _F(0)))
    inv = jet_invert(f)
    assert inv.coeffs[(0, (0, 0))] == Fraction(-6, 8)
    assert jet_compose(f, inv) == identity_jet(SP, 2, f.target)


def test_singular_jet_rejected():
    coeffs = {
        (0, ()): _F(0),
        (1, ()): _F(0),
        (0, (0,)): _F(1),
        (0, (1,)): _F(1),
        (1, (0,)): _F(1),
        (1, (1,)): _F(1),
    }
    with pytest.raises(SingularJet):
        DiffeoJet(SP, 1, (_F(0), _F(0)), coeffs)


def _loop_keys(components, slots, n):
    return [(a, B) for k in range(n + 1) for a in range(components) for B in mi_enumerate(slots, k)]


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("space", [SP, SpaceSpec(("x", "y"), ("u",))], ids=["p1", "p2"])
@pytest.mark.parametrize("kind", ["diffeo", "point", "field"])
def test_jets_reject_missing_and_extra_keys(kind, space, n):
    m, p, q = space.m, space.p, space.q
    if kind == "point":
        components, build = q, lambda vals: SubmanifoldJetPoint(space, n, (_F(0),) * p, vals)
        keys = _loop_keys(q, p, n)
    else:
        cls = DiffeoJet if kind == "diffeo" else VectorFieldJet
        components, build = m, lambda vals: cls(space, n, (_F(0),) * m, vals)
        keys = _loop_keys(m, m, n)
    # the identity jet's values, so a complete diffeomorphism jet is regular
    complete = {(a, B): _F(1 if B == (a,) else 0) for a, B in keys}
    build(complete)
    for key in keys:
        with pytest.raises(ValueError):
            build({k: v for k, v in complete.items() if k != key})
    for extra in [(components, ()), (0, (0,) * (n + 1))]:
        with pytest.raises(ValueError):
            build({**complete, extra: _F(0)})


@st.composite
def _diffeo(draw, space, n, source):
    vals = {}
    m = space.m
    for k in range(n + 1):
        for a in range(m):
            for B in mi_enumerate(m, k):
                vals[(a, B)] = _F(draw(st.integers(-3, 3)))
    block = [[vals[(a, (b,))] for b in range(m)] for a in range(m)]
    assume(det(block) != 0)
    return DiffeoJet(space, n, source, vals)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_groupoid_associativity(data):
    z0 = (_F(0), _F(1))
    g = data.draw(_diffeo(SP, 2, z0))
    h = data.draw(_diffeo(SP, 2, g.target))
    f = data.draw(_diffeo(SP, 2, h.target))
    assert jet_compose(f, jet_compose(h, g)) == jet_compose(jet_compose(f, h), g)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_groupoid_inverse_law(data):
    z0 = (_F(1), _F(0))
    g = data.draw(_diffeo(SP, 3, z0))
    inv = jet_invert(g)
    assert jet_compose(g, inv) == identity_jet(SP, 3, g.target)
    assert jet_compose(inv, g) == identity_jet(SP, 3, g.source)


# -- the action ------------------------------------------------------------------


def test_act_identity_fixes_point():
    for z in (_pt(2, 0, [1, 2, 3]), _pt(1, 0, [0, 2])):
        ident = identity_jet(SP, z.order, z.base)
        assert act_on_jet(ident, z) == z


def test_act_scaling_example():
    # X stretched by 2, U unchanged: slope halves
    coeffs = {
        (0, ()): _F(0),
        (1, ()): _F(0),
        (0, (0,)): _F(2),
        (0, (1,)): _F(0),
        (1, (0,)): _F(0),
        (1, (1,)): _F(1),
    }
    g = DiffeoJet(SP, 1, (_F(0), _F(0)), coeffs)
    z = _pt(1, 0, [0, 2])
    out = act_on_jet(g, z)
    assert out.u[(0, (0,))] == _F(1)


def test_act_base_point_and_order_checks():
    z = _pt(1, 0, [0, 1])
    g = identity_jet(SP, 1, (_F(1), _F(0)))
    with pytest.raises(BasePointMismatch):
        act_on_jet(g, z)
    g2 = identity_jet(SP, 2, z.base)
    with pytest.raises(OrderMismatch):
        act_on_jet(g2, z)


def test_act_singular_total_jacobian():
    coeffs = {
        (0, ()): _F(0),
        (1, ()): _F(0),
        (0, (0,)): _F(1),
        (0, (1,)): _F(-1),
        (1, (0,)): _F(0),
        (1, (1,)): _F(1),
    }
    g = DiffeoJet(SP, 1, (_F(0), _F(0)), coeffs)
    z = _pt(1, 0, [0, 1])
    with pytest.raises(SingularTotalJacobian):
        act_on_jet(g, z)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_action_respects_composition(data):
    z0 = (_F(0), _F(0))
    g = data.draw(_diffeo(SP, 2, z0))
    h = data.draw(_diffeo(SP, 2, g.target))
    z = _pt(2, 0, [0, data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))])
    try:
        two_step = act_on_jet(h, act_on_jet(g, z))
        one_step = act_on_jet(jet_compose(h, g), z)
    except SingularTotalJacobian:
        assume(False)
    assert one_step == two_step


def test_chain_rule_identity_on_submanifold():
    # act on the jet of a graph = jet of the transformed graph
    ctx = context_for(SP)
    x, u = _x(ctx), _u(ctx)
    xv = ctx.source_var(0)
    cases = [
        ([ctx.const(2) * x + u, ctx.const(2) * u + x * x], x * x + ctx.const(1), _F(1)),
        ([x + u * u, u - x, ], ctx.const(2) * x + ctx.const(1), _F(0)),
    ]
    for phi, s, x0 in cases:
        u0 = s.eval({xv: x0})
        zj = submanifold_jet_from_sections(ctx, [s], 3, (x0,))
        gj = diffeo_jet_from_map(ctx, phi, 3, (x0, u0))
        moved = act_on_jet(gj, zj)
        # independent recomputation along the parametrized curve
        smap = {ctx.source_var(1): s}
        X = phi[0].subst(smap)
        U = phi[1].subst(smap)
        Xp = X.diff(xv)
        env = {xv: x0}
        assert moved.x[0] == X.eval(env)
        assert moved.u[(0, ())] == U.eval(env)
        w = U
        for k in range(1, 4):
            w = w.diff(xv) / Xp
            assert moved.u[(0, (0,) * k)] == w.eval(env)


# -- lifting and prolongation -------------------------------------------------------


def test_lift_constant_field():
    ctx = context_for(SP)
    lift = lift_vector_field(ctx, [ctx.const(1), ctx.const(0)], 2)
    assert (lift[(0, ())] - ctx.const(1)).is_zero()
    for key, e in lift.items():
        if key != (0, ()):
            assert e.is_zero()


def test_lift_linear_field():
    ctx = context_for(SP)
    lift = lift_vector_field(ctx, [_x(ctx), ctx.const(0)], 1)
    X = ctx.expr(ctx.target_var(0, ()))
    Xx = ctx.expr(ctx.target_var(0, (0,)))
    Xu = ctx.expr(ctx.target_var(0, (1,)))
    assert (lift[(0, ())] - X).is_zero()
    assert (lift[(0, (0,))] - Xx).is_zero()
    assert (lift[(0, (1,))] - Xu).is_zero()
    assert lift[(1, ())].is_zero()


def test_lift_is_vertical():
    ctx = context_for(SP)
    lift = lift_vector_field(ctx, [_x(ctx) * _x(ctx), _u(ctx)], 2)
    src = {ctx.source_var(0), ctx.source_var(1)}
    for e in lift.values():
        assert not (e.variables() & src)


def test_lift_preserves_bracket():
    ctx = context_for(SP)
    v = [ctx.const(1), ctx.const(0)]
    w = [_x(ctx) * _x(ctx), ctx.const(0)]
    n = 2
    lv = lift_vector_field(ctx, v, n)
    lw = lift_vector_field(ctx, w, n)
    direct = lift_vector_field(ctx, vf_bracket(ctx, v, w), n)
    br = lifted_bracket(ctx, lv, lw)
    for key in direct:
        assert (br[key] - direct[key]).is_zero()


def test_prolong_concrete_horizontal_field():
    # v = xi(x) d/dx prolongs to -xi' u_x at first order
    ctx = context_for(SP)
    xi = _x(ctx) * _x(ctx)
    pv = prolong_vector_field(ctx, [xi, ctx.const(0)], 2)
    ux = ctx.expr(ctx.sub_var(0, (0,)))
    uxx = ctx.expr(ctx.sub_var(0, (0, 0)))
    xip = xi.diff(ctx.source_var(0))
    xipp = xip.diff(ctx.source_var(0))
    assert (pv.components[("u", 0, (0,))] + xip * ux).is_zero()
    want2 = ctx.const(0) - xipp * ux - ctx.const(2) * xip * uxx
    assert (pv.components[("u", 0, (0, 0))] - want2).is_zero()


def test_prolong_concrete_vertical_field():
    ctx = context_for(SP)
    phi = _x(ctx) * _u(ctx)
    pv = prolong_vector_field(ctx, [ctx.const(0), phi], 1)
    ux = ctx.expr(ctx.sub_var(0, (0,)))
    want = phi.diff(ctx.source_var(0)) + phi.diff(ctx.source_var(1)) * ux
    assert (pv.components[("u", 0, (0,))] - want).is_zero()


def test_prolonged_bracket_matches_base_bracket():
    ctx = context_for(SP)
    x, u = _x(ctx), _u(ctx)
    pairs = [
        ([ctx.const(1), ctx.const(0)], [x * x, ctx.const(0)]),
        ([x, u], [ctx.const(0), x * u]),
        ([x * x, u], [x, u * u]),
    ]
    for v, w in pairs:
        for n in (1, 2, 3):
            pv = prolong_vector_field(ctx, v, n)
            pw = prolong_vector_field(ctx, w, n)
            lhs = prolonged_bracket(ctx, pv, pw)
            rhs = prolong_vector_field(ctx, vf_bracket(ctx, v, w), n)
            for key in rhs.components:
                assert (lhs.components[key] - rhs.components[key]).is_zero()


def test_general_prolonged_vf_is_linear_in_field_jets():
    ctx = context_for(SP)
    for key, _, _ in ctx.jn_table(2):
        e = ctx.prolonged_coord(key)
        for vid in e.variables():
            kind = ctx.info(vid)[0]
            assert kind in ("vf", "source", "sub")


def test_prolong_at_point_matrix():
    ctx = context_for(SP)
    z = _pt(1, 0, [0, 1])
    mat, rows, cols = prolong_at_point(ctx, z)
    names = [r[-1] for r in rows]
    assert names == ["x", "u", "u.x"]
    assert cols == [(0, ()), (1, ()), (0, (0,)), (0, (1,)), (1, (0,)), (1, (1,))]
    assert mat[0] == [scalar(1), scalar(0), scalar(0), scalar(0), scalar(0), scalar(0)]
    assert mat[1] == [scalar(0), scalar(1), scalar(0), scalar(0), scalar(0), scalar(0)]
    assert mat[2] == [scalar(0), scalar(0), scalar(-1), scalar(-1), scalar(1), scalar(1)]


def test_prolong_depends_only_on_jet_at_point():
    ctx = context_for(SP)
    x = _x(ctx)
    n = 2
    v1 = [x * x, ctx.const(0)]
    bump = (x - ctx.const(1)) ** 3
    v2 = [x * x + bump, ctx.const(0)]
    z = _pt(n, 1, [2, 3, 4])
    m1, _, _ = prolong_at_point(ctx, z)
    p1 = prolong_vector_field(ctx, v1, n)
    p2 = prolong_vector_field(ctx, v2, n)
    env = {ctx.source_var(0): _F(1), ctx.source_var(1): _F(2)}
    env[ctx.sub_var(0, (0,))] = _F(3)
    env[ctx.sub_var(0, (0, 0))] = _F(4)
    for key in p1.components:
        assert p1.components[key].eval(env) == p2.components[key].eval(env)
    assert m1 is not None


# -- numeric flow ------------------------------------------------------------------


def test_flow_zero_time_returns_input():
    ctx = context_for(SP)
    g0 = identity_jet(SP, 2, (_F(0), _F(0)))
    assert flow_jet(ctx, [ctx.const(1), ctx.const(0)], 0, g0) is g0


def test_flow_translation():
    ctx = context_for(SP)
    g0 = identity_jet(SP, 1, (_F(0), _F(0)))
    out = flow_jet(ctx, [ctx.const(1), ctx.const(0)], Fraction(1, 2), g0)
    assert abs(out.coeffs[(0, ())] - 0.5) < 1e-12
    assert abs(out.coeffs[(0, (0,))] - 1.0) < 1e-12
    assert abs(out.coeffs[(1, ())]) < 1e-12
    assert abs(out.coeffs[(1, (1,))] - 1.0) < 1e-12


def test_flow_linear_field_is_exponential():
    from math import exp

    ctx = context_for(SP)
    g0 = identity_jet(SP, 1, (_F(1), _F(0)))
    out = flow_jet(ctx, [_x(ctx), ctx.const(0)], Fraction(1, 10), g0)
    assert abs(out.coeffs[(0, ())] - exp(0.1)) < 1e-9
    assert abs(out.coeffs[(0, (0,))] - exp(0.1)) < 1e-9


def test_flow_action_derivative_matches_prolongation():
    # central difference of the action along the flow vs the prolonged field
    ctx = context_for(SP)
    v = [_x(ctx) * _x(ctx), ctx.const(0)]
    n = 2
    z = _pt(n, 1, [2, 3, 1])
    ident = identity_jet(SP, n, z.base)
    h = 1e-4
    plus = act_on_jet(flow_jet(ctx, v, h, ident), z)
    minus = act_on_jet(flow_jet(ctx, v, -h, ident), z)
    pv = prolong_vector_field(ctx, v, n)
    env = {ctx.source_var(0): _F(1), ctx.source_var(1): _F(2)}
    env[ctx.sub_var(0, (0,))] = _F(3)
    env[ctx.sub_var(0, (0, 0))] = _F(1)
    got_x = (plus.x[0] - minus.x[0]) / (2 * h)
    want_x = float(pv.components[("x", 0)].eval(env))
    assert abs(got_x - want_x) <= 1e-6 * max(1.0, abs(want_x))
    for key in [(0, ()), (0, (0,)), (0, (0, 0))]:
        got = (plus.u[key] - minus.u[key]) / (2 * h)
        want = float(pv.components[("u", key[0], key[1])].eval(env))
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want))
