from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetfree.errors import OrderCapExceeded, UnboundVariable
from jetfree.jetspace import (
    JetContext,
    SpaceSpec,
    coord_order,
    jet_dims,
    jet_key_set,
    jet_keys,
    mi_concat,
    mi_enumerate,
)
from jetfree.linalg import expr_inverse
from jetfree.prolong import _point_env, prolong_at_point
from jetfree.sampling import random_jet_point
from jetfree.symkernel import scalar


def _ctx_pq11() -> JetContext:
    return JetContext(SpaceSpec(("x",), ("u",)))


def _ctx_pq21() -> JetContext:
    return JetContext(SpaceSpec(("x", "y"), ("u",)))


def test_mi_enumerate_counts_and_order():
    # two symbols, order two: xx, xu, uu
    assert mi_enumerate(2, 2) == [(0, 0), (0, 1), (1, 1)]
    assert mi_enumerate(1, 3) == [(0, 0, 0)]
    assert mi_enumerate(3, 0) == [()]
    # counts follow the stars-and-bars formula
    from math import comb

    for s in (1, 2, 3):
        for k in range(6):
            assert len(mi_enumerate(s, k)) == comb(s + k - 1, k)


def test_mi_concat_resorts():
    assert mi_concat((0, 1), 0) == (0, 0, 1)
    assert mi_concat((), 2) == (2,)


def test_jet_dims_curve_case():
    d = jet_dims(SpaceSpec(("x",), ("u",)), 2)
    assert d.jn_fiber == 3
    assert d.jn_total == 4
    assert d.dn_target_fiber == 2 * 6  # m * C(m+n, n) with m=2, n=2
    assert d.vf_dim == 12


def test_jet_dims_matches_enumeration():
    for p in (1, 2):
        for q in (1, 2):
            sp = SpaceSpec(tuple(f"x{i}" for i in range(p)), tuple(f"u{a}" for a in range(q)))
            for n in range(6):
                d = jet_dims(sp, n)
                fiber = sum(q * len(mi_enumerate(p, k)) for k in range(n + 1))
                assert d.jn_fiber == fiber
                assert d.jn_total == p + fiber
                target = sum((p + q) * len(mi_enumerate(p + q, k)) for k in range(n + 1))
                assert d.dn_target_fiber == target
                assert d.vf_dim == target


def test_naming_conventions():
    ctx = JetContext(SpaceSpec(("x", "y"), ("u",)))
    assert ctx.target_name(0, ()) == "X"
    assert ctx.target_name(2, (0, 2)) == "U.xu"
    assert ctx.sub_name(0, (0, 1, 1)) == "u.xyy"
    assert ctx.vf_name(1, (2,)) == "zeta{y}.u"
    multi = JetContext(SpaceSpec(("x1", "x2"), ("u",)))
    assert multi.target_name(0, (1,)) == "X1.{x2}"
    assert multi.sub_name(0, (0, 0)) == "u.{x1}{x1}"


def test_order_caps_fail_loudly():
    ctx = _ctx_pq11()
    ctx.ensure_target(1)
    ctx.target_var(0, (0,))
    with pytest.raises(OrderCapExceeded):
        ctx.target_var(0, (0, 0))
    with pytest.raises(OrderCapExceeded):
        ctx.sub_var(0, (0,))
    with pytest.raises(OrderCapExceeded):
        ctx.vf_var(0, ())


def test_sub_order_zero_is_source_var():
    ctx = _ctx_pq11()
    assert ctx.sub_var(0, ()) == ctx.source_var(1)


def test_total_derivative_product_rule_on_targets():
    ctx = _ctx_pq11()
    ctx.ensure_target(1)
    X = ctx.expr(ctx.target_var(0, ()))
    U = ctx.expr(ctx.target_var(1, ()))
    Xx = ctx.expr(ctx.target_var(0, (0,)))
    Ux = ctx.expr(ctx.target_var(1, (0,)))
    assert (ctx.total_derivative(U * X, 0) - (Ux * X + U * Xx)).is_zero()


def test_total_derivative_concatenates_vf_jets():
    ctx = _ctx_pq11()
    ctx.ensure_vf(1)
    z = ctx.expr(ctx.vf_var(0, ()))
    zx = ctx.expr(ctx.vf_var(0, (0,)))
    zu = ctx.expr(ctx.vf_var(0, (1,)))
    assert (ctx.total_derivative(z, 0) - zx).is_zero()
    assert (ctx.total_derivative(z, 1) - zu).is_zero()


def test_lifted_total_derivative_examples():
    ctx = _ctx_pq11()
    ctx.ensure_target(1)
    ctx.ensure_sub(2)
    x = ctx.expr(ctx.source_var(0))
    u = ctx.expr(ctx.source_var(1))
    ux = ctx.expr(ctx.sub_var(0, (0,)))
    uxx = ctx.expr(ctx.sub_var(0, (0, 0)))
    X = ctx.expr(ctx.target_var(0, ()))
    U = ctx.expr(ctx.target_var(1, ()))
    Xx = ctx.expr(ctx.target_var(0, (0,)))
    Xu = ctx.expr(ctx.target_var(0, (1,)))
    Ux = ctx.expr(ctx.target_var(1, (0,)))
    Uu = ctx.expr(ctx.target_var(1, (1,)))
    assert (ctx.lifted_total_derivative(u, 0) - ux).is_zero()
    assert (ctx.lifted_total_derivative(x, 0) - ctx.const(1)).is_zero()
    assert (ctx.lifted_total_derivative(U, 0) - (Ux + ux * Uu)).is_zero()
    want = uxx * X + ux * (Xx + ux * Xu)
    assert (ctx.lifted_total_derivative(ux * X, 0) - want).is_zero()


def test_invariant_derivative_single_independent():
    ctx = _ctx_pq11()
    ctx.ensure_target(1)
    ctx.ensure_sub(1)
    ux = ctx.expr(ctx.sub_var(0, (0,)))
    X = ctx.expr(ctx.target_var(0, ()))
    U = ctx.expr(ctx.target_var(1, ()))
    Xx = ctx.expr(ctx.target_var(0, (0,)))
    Xu = ctx.expr(ctx.target_var(0, (1,)))
    Ux = ctx.expr(ctx.target_var(1, (0,)))
    Uu = ctx.expr(ctx.target_var(1, (1,)))
    got = ctx.invariant_total_derivative(U, 0)
    want = (Ux + ux * Uu) / (Xx + ux * Xu)
    assert (got - want).is_zero()
    assert (ctx.invariant_total_derivative(X, 0) - ctx.const(1)).is_zero()


def test_invariant_derivative_of_targets_is_kronecker():
    ctx = _ctx_pq21()
    ctx.ensure_target(1)
    ctx.ensure_sub(1)
    for i in range(2):
        Xi = ctx.expr(ctx.target_var(i, ()))
        for j in range(2):
            got = ctx.invariant_total_derivative(Xi, j)
            want = ctx.const(1 if i == j else 0)
            assert (got - want).is_zero()


def test_uhat_first_order():
    ctx = _ctx_pq11()
    e = ctx.uhat(0, (0,))
    ux = ctx.expr(ctx.sub_var(0, (0,)))
    Xx = ctx.expr(ctx.target_var(0, (0,)))
    Xu = ctx.expr(ctx.target_var(0, (1,)))
    Ux = ctx.expr(ctx.target_var(1, (0,)))
    Uu = ctx.expr(ctx.target_var(1, (1,)))
    assert (e - (Ux + ux * Uu) / (Xx + ux * Xu)).is_zero()


def test_uhat_cache_ignores_index_order():
    ctx = _ctx_pq21()
    assert ctx.uhat(0, (0, 1)) is ctx.uhat(0, (1, 0))


def test_phihat_first_prolongation():
    ctx = _ctx_pq11()
    e = ctx.phihat(0, (0,))
    ux = ctx.expr(ctx.sub_var(0, (0,)))
    zxx = ctx.expr(ctx.vf_var(0, (0,)))
    zxu = ctx.expr(ctx.vf_var(0, (1,)))
    zux = ctx.expr(ctx.vf_var(1, (0,)))
    zuu = ctx.expr(ctx.vf_var(1, (1,)))
    want = zux + ux * zuu - ux * zxx - ux * ux * zxu
    assert (e - want).is_zero()


def test_phihat_second_prolongation():
    ctx = _ctx_pq11()
    e = ctx.phihat(0, (0, 0))
    ux = ctx.expr(ctx.sub_var(0, (0,)))
    uxx = ctx.expr(ctx.sub_var(0, (0, 0)))
    zx_xx = ctx.expr(ctx.vf_var(0, (0, 0)))
    zx_xu = ctx.expr(ctx.vf_var(0, (0, 1)))
    zx_uu = ctx.expr(ctx.vf_var(0, (1, 1)))
    zx_x = ctx.expr(ctx.vf_var(0, (0,)))
    zx_u = ctx.expr(ctx.vf_var(0, (1,)))
    zu_xx = ctx.expr(ctx.vf_var(1, (0, 0)))
    zu_xu = ctx.expr(ctx.vf_var(1, (0, 1)))
    zu_uu = ctx.expr(ctx.vf_var(1, (1, 1)))
    zu_u = ctx.expr(ctx.vf_var(1, (1,)))
    want = (
        zu_xx
        + ux * (ctx.const(2) * zu_xu - zx_xx)
        + ux * ux * (zu_uu - ctx.const(2) * zx_xu)
        - ux * ux * ux * zx_uu
        + uxx * (zu_u - ctx.const(2) * zx_x)
        - ctx.const(3) * ux * uxx * zx_u
    )
    assert (e - want).is_zero()


def test_phihat_depends_only_on_jets_up_to_its_order():
    ctx = _ctx_pq11()
    e = ctx.phihat(0, (0, 0))
    top = ctx.sub_var(0, (0, 0, 0))
    assert top not in e.variables()


def test_phihat_coeffs_reconstruct():
    ctx = _ctx_pq21()
    e = ctx.phihat(0, (0, 1))
    pairs = ctx.phihat_coeffs(0, (0, 1))
    total = ctx.const(0)
    for vid, coeff in pairs:
        total = total + coeff * ctx.expr(vid)
    assert (total - e).is_zero()
    for _, coeff in pairs:
        for vid in coeff.variables():
            assert ctx.info(vid)[0] in ("source", "sub")


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 1), st.integers(0, 1), st.data())
def test_lifted_derivatives_commute(j1, j2, data):
    ctx = _ctx_pq21()
    ctx.ensure_target(2)
    ctx.ensure_sub(3)
    vids = [ctx.source_var(0), ctx.source_var(2), ctx.target_var(0, ()), ctx.sub_var(0, (1,))]
    e = ctx.const(0)
    for vid in vids:
        c = data.draw(st.integers(-3, 3))
        e = e + ctx.const(c) * ctx.expr(vid)
    e = e + ctx.expr(vids[0]) * ctx.expr(vids[2])
    a = ctx.lifted_total_derivative(ctx.lifted_total_derivative(e, j1), j2)
    b = ctx.lifted_total_derivative(ctx.lifted_total_derivative(e, j2), j1)
    assert (a - b).is_zero()


def test_invariant_derivatives_commute_on_target():
    ctx = _ctx_pq21()
    ctx.ensure_target(2)
    ctx.ensure_sub(2)
    U = ctx.expr(ctx.target_var(2, ()))
    a = ctx.invariant_total_derivative(ctx.invariant_total_derivative(U, 0), 1)
    b = ctx.invariant_total_derivative(ctx.invariant_total_derivative(U, 1), 0)
    assert (a - b).is_zero()


@pytest.mark.parametrize("make_ctx", [_ctx_pq11, _ctx_pq21])
def test_total_jacobian_is_built_once_and_shared(make_ctx):
    ctx = make_ctx()
    jac = ctx.total_jacobian()
    W = ctx.w_matrix()
    assert ctx.total_jacobian() is jac
    assert isinstance(jac, tuple) and all(isinstance(row, tuple) for row in jac)
    p = ctx.space.p
    fresh = [
        [ctx.lifted_total_derivative(ctx.expr(ctx.target_var(i, ())), k) for k in range(p)]
        for i in range(p)
    ]
    assert [list(row) for row in jac] == fresh
    assert W == expr_inverse(jac)


def test_jn_coords_row_order():
    ctx = _ctx_pq11()
    rows = ctx.jn_coords(2)
    names = [r[-1] for r in rows]
    assert names == ["x", "u", "u.x", "u.xx"]
    ctx2 = _ctx_pq21()
    names2 = [r[-1] for r in ctx2.jn_coords(1)]
    assert names2 == ["x", "y", "u", "u.x", "u.y"]


def _nested_loop_keys(components, slots, start, n):
    """The jet-coordinate order as the nested loops once spelled it out."""
    out = []
    for k in range(start, n + 1):
        for a in range(components):
            for B in mi_enumerate(slots, k):
                out.append((a, B))
    return out


def test_jet_key_table_keeps_the_nested_loop_order():
    for components, slots in [(1, 1), (1, 2), (2, 2), (3, 3)]:
        for n in range(6):
            for start in range(n + 2):
                assert list(jet_keys(components, slots, start, n)) == _nested_loop_keys(
                    components, slots, start, n
                )
            want = set(_nested_loop_keys(components, slots, 0, n))
            assert jet_key_set(components, slots, n) == want
            assert jet_keys(components, slots, 0, n) is jet_keys(components, slots, 0, n)
    # vf_coords run over (m, m), jn_coords over (q, p): together all four shapes
    for ctx in (_ctx_pq11(), _ctx_pq21()):
        sp = ctx.space
        for n in range(6):
            vf = [(a, B) for a, B, _ in ctx.vf_coords(n)]
            assert vf == _nested_loop_keys(sp.m, sp.m, 0, n)
            rows = ctx.jn_coords(n)
            assert rows[: sp.p] == [("x", i, name) for i, name in enumerate(sp.independent)]
            assert [(row[1], row[2]) for row in rows[sp.p :]] == _nested_loop_keys(sp.q, sp.p, 0, n)


def _old_jn_coords(ctx, n):
    """jn_coords as the x and u loops once spelled it out."""
    ctx.ensure_sub(n)
    out = [("x", i, name) for i, name in enumerate(ctx.space.independent)]
    for al, J in _nested_loop_keys(ctx.space.q, ctx.space.p, 0, n):
        out.append(("u", al, J, ctx.sub_name(al, J)))
    return out


def _old_point_env(ctx, z):
    """The variable binding of a jet point as once spelled out."""
    ctx.ensure_sub(z.order)
    env = {}
    for i in range(ctx.space.p):
        env[ctx.source_var(i)] = z.x[i]
    for (al, J), val in z.u.items():
        env[ctx.sub_var(al, J)] = val
    return env


@pytest.mark.parametrize("make_ctx", [_ctx_pq11, _ctx_pq21])
def test_jn_table_keeps_the_x_and_u_rows(make_ctx):
    ctx = make_ctx()
    sp = ctx.space
    rng = random.Random(3)
    for n in range(4):
        table = ctx.jn_table(n)
        assert ctx.jn_table(n) is table
        old = _old_jn_coords(ctx, n)
        assert [key + (name,) for key, name, _ in table] == old == ctx.jn_coords(n)
        want_vids = [ctx.source_var(i) for i in range(sp.p)]
        want_vids += [ctx.sub_var(row[1], row[2]) for row in old[sp.p :]]
        assert [vid for _, _, vid in table] == want_vids
        assert [coord_order(key) for key, _, _ in table] == [
            0 if row[0] == "x" else len(row[2]) for row in old
        ]
        z = random_jet_point(sp, n, rng)
        assert _point_env(ctx, z) == _old_point_env(ctx, z)
        assert [z.value(key) for key, _, _ in table] == list(z.x) + list(z.u.values())
        mat, rows, cols = prolong_at_point(ctx, z)
        assert rows == old
        for i in range(sp.p):
            assert mat[i] == [scalar(1) if (a == i and B == ()) else scalar(0) for a, B in cols]
    # the per-coordinate expressions where the x/u dispatch used to be spelled out
    for i in range(sp.p):
        assert ctx.moved_coord(("x", i)) == ctx.expr(ctx.target_var(i, ()))
        assert ctx.prolonged_coord(("x", i)) == ctx.expr(ctx.vf_var(i, ()))
        assert ctx.prolonged_row(("x", i)) == ((ctx.vf_var(i, ()), ctx.const(1)),)
    for al in range(sp.q):
        assert ctx.moved_coord(("u", al, ())) == ctx.expr(ctx.target_var(sp.p + al, ()))
        for J in [(), (0,), (0, 0)]:
            assert ctx.moved_coord(("u", al, J)) is ctx.uhat(al, J)
            assert ctx.prolonged_coord(("u", al, J)) is ctx.phihat(al, J)
            assert ctx.prolonged_row(("u", al, J)) is ctx.phihat_coeffs(al, J)


def test_vf_coords_counts():
    ctx = _ctx_pq11()
    for n in range(4):
        coords = ctx.vf_coords(n)
        assert len(coords) == jet_dims(ctx.space, n).vf_dim


# -- the compiled phihat plan against Expr.eval -----------------------------------------


def _jet_env(ctx, n, rng):
    """Seeded rational values for x and the u-jets through order n."""
    ctx.ensure_sub(n)
    env = {ctx.source_var(i): Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for i in range(ctx.space.p)}
    for k in range(n + 1):
        for al in range(ctx.space.q):
            for J in mi_enumerate(ctx.space.p, k):
                env[ctx.sub_var(al, J)] = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
    return env


@pytest.mark.parametrize("make,top", [(_ctx_pq11, 4), (_ctx_pq21, 3)])
def test_phihat_plan_matches_expr_eval(make, top):
    ctx = make()
    rng = random.Random(5)
    for n in range(top + 1):
        plan = ctx.phihat_plan(n)
        assert ctx.phihat_plan(n) is plan
        for _ in range(3):
            env = _jet_env(ctx, n, rng)
            got = plan.evaluate(env)
            rows = ctx.jn_coords(n)
            assert len(got) == len(rows)
            for row, line in zip(rows, got):
                if row[0] == "x":
                    assert line == [((row[1], ()), 1)]
                    continue
                want = []
                for vid, ce in ctx.phihat_coeffs(row[1], row[2]):
                    c = ce.eval(env)
                    if c:
                        want.append((ctx.info(vid)[1:], c))
                assert line == want


def test_phihat_plan_missing_variable_is_unbound():
    ctx = _ctx_pq11()
    plan = ctx.phihat_plan(2)
    env = _jet_env(ctx, 2, random.Random(1))
    for vid, _ in plan.degree:
        partial = {k: v for k, v in env.items() if k != vid}
        with pytest.raises(UnboundVariable):
            plan.evaluate(partial)


def test_phihat_plan_rejects_non_polynomial_coefficient(monkeypatch):
    ctx = _ctx_pq11()
    ctx.ensure_vf(0)
    u = ctx.expr(ctx.source_var(1))
    zx = ctx.vf_var(0, ())
    monkeypatch.setattr(ctx, "phihat_coeffs", lambda al, J: ((zx, 1 / u),))
    with pytest.raises(ArithmeticError, match="not a polynomial"):
        ctx.phihat_plan(0)


def _row_order(row) -> int:
    return 0 if row[0] == "x" else len(row[2])


# p = q = 1 is the space of e1-e3, (x, y; u) that of tests/specs/p2.psg;
# the plans depend on the space alone
@pytest.mark.parametrize("make_ctx,top", [(_ctx_pq11, 5), (_ctx_pq21, 4)])
def test_phihat_plan_rows_respect_the_order_filtration(make_ctx, top):
    """A row of order k references field jets zeta^a_B with |B| <= k and
    submanifold jets of order <= k only: the fact that makes the
    restricted matrix block lower-triangular along the order filtration."""
    ctx = make_ctx()
    plan = ctx.phihat_plan(top)
    rows = ctx.jn_coords(top)
    assert len(plan.rows) == len(rows)
    for row, entries in zip(rows, plan.rows):
        k = _row_order(row)
        for (_, B), _, terms in entries:
            assert len(B) <= k, (row, B)
            for i, _ in terms:
                for vid, _ in plan.monos[i]:
                    info = ctx.info(vid)
                    assert info[0] in ("source", "sub"), (row, info)
                    if info[0] == "sub":
                        assert len(info[2]) <= k, (row, ctx.reg.name(vid))


@pytest.mark.parametrize("make_ctx,top", [(_ctx_pq11, 5), (_ctx_pq21, 4)])
def test_one_step_block_reads_only_first_order_jets(make_ctx, top):
    """The block a lift step j ranks, rows and field jets of order j,
    reads x, u and the first-order jets only, at every j: one rank per
    order decides the step at every lift with the same first-order jet."""
    ctx = make_ctx()
    for j in range(1, top + 1):
        for vid, _ in ctx.phihat_plan(j, above=j - 1).degree:
            info = ctx.info(vid)
            assert info[0] in ("source", "sub"), (j, info)
            if info[0] == "sub":
                assert len(info[2]) <= 1, (j, ctx.reg.name(vid))


@pytest.mark.parametrize("make_ctx,top", [(_ctx_pq11, 4), (_ctx_pq21, 3)])
def test_phihat_plan_block_above_an_order(make_ctx, top):
    """phihat_plan(n, above=k) evaluates to the full plan's rows of order
    above k, restricted to the field jets of order above k."""
    ctx = make_ctx()
    env = _jet_env(ctx, top, random.Random(7))
    full = ctx.phihat_plan(top).evaluate(env)
    orders = [_row_order(row) for row in ctx.jn_coords(top)]
    for k in range(top):
        block = ctx.phihat_plan(top, above=k)
        assert block is ctx.phihat_plan(top, above=k)
        want = [
            [(key, c) for key, c in line if len(key[1]) > k]
            for line, order in zip(full, orders)
            if order > k
        ]
        assert block.evaluate(env) == want
    assert ctx.phihat_plan(top, above=-1) is ctx.phihat_plan(top)
