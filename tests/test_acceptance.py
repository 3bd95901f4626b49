"""Acceptance gate: end-to-end checks of the whole stack at desk scale.

Each test carries the number of the acceptance criterion it implements:
persistence sweeps, negative controls, the two-path prolongation oracle,
bracket compatibility, the chain rule, groupoid laws, moving frames,
top-order stabilizers, the kernel-jet witness mechanism, dimension
bookkeeping, DSL round trips, and report determinism.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from pathlib import Path

from jetfree.cli import main
from jetfree.detsys import declared_linear_system, fiber_basis, jet_satisfies
from jetfree.dsl import bundled_spec_names, load_bundled_spec, parse_spec, serialize_spec
from jetfree.errors import JetfreeError, SingularJet, SingularTotalJacobian
from jetfree.frames import CrossSection, MovingFrameChart, check_compatibility, invariants
from jetfree.freeness import (
    local_freeness,
    persistence_sweep,
    top_order_stabilizer,
    witness_candidates,
    witness_check,
)
from jetfree.jetspace import SpaceSpec, jet_dims, mi_enumerate
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
    prolong_vector_field,
    prolonged_bracket,
    submanifold_jet_from_sections,
    vf_bracket,
)
from jetfree.sampling import (
    lift_jet_point,
    random_jet_point,
    random_point,
    random_rational,
    sample_group_jet,
)

SP = SpaceSpec(("x",), ("u",))
FIXTURES = Path(__file__).parent / "fixtures"


def _bundled(name):
    spec, diags = parse_spec(load_bundled_spec(name))
    assert spec is not None and not [d for d in diags if d.severity == "error"]
    return spec


def _pt(x, *uvals):
    u = {(0, (0,) * k): Fraction(v) for k, v in enumerate(uvals)}
    return SubmanifoldJetPoint(SP, len(uvals) - 1, (Fraction(x),), u)


def _env_at(ctx, z):
    p, q = z.space.p, z.space.q
    env = {ctx.source_var(i): z.x[i] for i in range(p)}
    for al in range(q):
        env[ctx.source_var(p + al)] = z.u[(al, ())]
    for k in range(1, z.order + 1):
        for al in range(q):
            for J in mi_enumerate(p, k):
                env[ctx.sub_var(al, J)] = z.u[(al, J)]
    return env


def _coords_float(z):
    out = [float(v) for v in z.x]
    for k in range(z.order + 1):
        for al in range(z.space.q):
            for J in mi_enumerate(z.space.p, k):
                out.append(float(z.u[(al, J)]))
    return out


def _poly_in_x(ctx, rng, degree, bound):
    x = ctx.expr(ctx.source_var(0))
    e = ctx.const(0)
    xp = ctx.const(1)
    for _ in range(degree + 1):
        e = e + ctx.const(random_rational(rng, bound)) * xp
        xp = xp * x
    return e


def _vf_jet(ctx, comps, n, base):
    m = ctx.space.m
    env = {ctx.source_var(a): base[a] for a in range(m)}
    coeffs = {}
    for k in range(n + 1):
        for a in range(m):
            for B in mi_enumerate(m, k):
                e = comps[a]
                for b in B:
                    e = e.diff(ctx.source_var(b))
                coeffs[(a, B)] = e.eval(env)
    return VectorFieldJet(ctx.space, n, base, coeffs)


def _free_points(spec, n, rng, count, bound=3):
    out = []
    for _ in range(60 * count):
        if len(out) == count:
            break
        z = random_jet_point(spec.space, n, rng, bound)
        try:
            if local_freeness(spec, n, z).is_free:
                out.append(z)
        except JetfreeError:
            continue
    assert len(out) == count
    return out


def _same_jet(a, b):
    return a.order == b.order and a.source == b.source and a.coeffs == b.coeffs


# -- criterion 1: persistence of local freeness ---------------------------------------


def test_criterion_01_persistence_across_all_examples():
    t0 = time.monotonic()
    for name in ("e1", "e2", "e3"):
        spec = _bundled(name)
        rng = random.Random(101)
        if name == "e3":
            # smallest order at which sampled points come out locally free
            n = None
            for cand in range(1, 5):
                pts = []
                for _ in range(30):
                    if len(pts) == 5:
                        break
                    z = random_jet_point(spec.space, cand, rng, 3)
                    try:
                        if local_freeness(spec, cand, z).is_free:
                            pts.append(z)
                    except JetfreeError:
                        continue
                if len(pts) == 5:
                    n = cand
                    break
            assert n is not None
        else:
            n = 1
            pts = _free_points(spec, n, rng, 5)
        for i, z in enumerate(pts):
            rep = persistence_sweep(
                spec, n, z, through=n + 3, samples=100, seed=1000 + i
            )
            assert rep.all_free, (name, rep.failures)
            assert rep.failures == []
            assert rep.lifts_checked + rep.skipped == 300
    assert time.monotonic() - t0 < 60.0


# -- criterion 2: negative control ----------------------------------------------------


def test_criterion_02_flat_point_kernel_dimension_exactly_one():
    spec = _bundled("e1")
    verdict = local_freeness(spec, 1, _pt(0, 0, 0))
    assert verdict.verdict == "NOT_LOCALLY_FREE"
    assert verdict.kernel_dimension == 1
    assert len(verdict.kernel_basis) == 1
    assert not verdict.kernel_basis[0].is_zero()


# -- criterion 3: two-path prolongation oracle ----------------------------------------


def _check_flow_oracle(name, comp_builder):
    spec = _bundled(name)
    ctx = context_for(spec.space)
    L = declared_linear_system(spec)
    rng = random.Random(7)
    h = 1e-4
    for t in range(20):
        n = 1 + t % 3
        comps = comp_builder(ctx, rng)
        # the sampled field really belongs to the infinitesimal system
        z = random_jet_point(spec.space, n, rng, 1)
        assert jet_satisfies(L, _vf_jet(ctx, comps, 3, z.base))
        pv = prolong_vector_field(ctx, comps, n)
        env = _env_at(ctx, z)
        keys = [("x", 0)] + [
            ("u", 0, J) for k in range(n + 1) for J in mi_enumerate(1, k)
        ]
        exact = [float(pv.components[key].eval(env)) for key in keys]
        g0 = identity_jet(spec.space, n, z.base)
        plus = _coords_float(act_on_jet(flow_jet(ctx, comps, h, g0), z))
        minus = _coords_float(act_on_jet(flow_jet(ctx, comps, -h, g0), z))
        fd = [(a - b) / (2 * h) for a, b in zip(plus, minus)]
        for ev, fv in zip(exact, fd):
            assert abs(fv - ev) <= 1e-6 * max(1.0, abs(ev))


def test_criterion_03_prolongation_matches_flow_derivative_e1():
    _check_flow_oracle(
        "e1", lambda ctx, rng: [_poly_in_x(ctx, rng, 3, 1), ctx.const(0)]
    )


def test_criterion_03_prolongation_matches_flow_derivative_e2():
    _check_flow_oracle(
        "e2", lambda ctx, rng: [_poly_in_x(ctx, rng, 1, 1), ctx.const(0)]
    )


def test_criterion_03_prolongation_matches_flow_derivative_e3():
    def build(ctx, rng):
        xi = _poly_in_x(ctx, rng, 3, 1)
        u = ctx.expr(ctx.source_var(1))
        return [xi, u * xi.diff(ctx.source_var(0))]

    _check_flow_oracle("e3", build)


# -- criterion 4: bracket compatibility -----------------------------------------------


def _generator_pairs(ctx, name):
    x = ctx.expr(ctx.source_var(0))
    u = ctx.expr(ctx.source_var(1))
    zero = ctx.const(0)
    xis = [
        (x * x, x * x * x + ctx.const(2) * x),
        (ctx.const(1), x),
        (x * x - ctx.const(3) * x, ctx.const(2) * x * x),
    ]
    if name == "e1":
        return [([xi, zero], [eta, zero]) for xi, eta in xis]
    xvid = ctx.source_var(0)
    return [
        ([xi, u * xi.diff(xvid)], [eta, u * eta.diff(xvid)]) for xi, eta in xis
    ]


def test_criterion_04_prolongation_preserves_brackets():
    for name in ("e1", "e3"):
        ctx = context_for(SP)
        for v, w in _generator_pairs(ctx, name):
            base = vf_bracket(ctx, v, w)
            for n in range(4):
                lhs = prolonged_bracket(
                    ctx, prolong_vector_field(ctx, v, n), prolong_vector_field(ctx, w, n)
                )
                rhs = prolong_vector_field(ctx, base, n)
                for key in rhs.components:
                    assert (lhs.components[key] - rhs.components[key]).is_zero()


def test_criterion_04_lift_preserves_brackets():
    for name in ("e1", "e3"):
        ctx = context_for(SP)
        for v, w in _generator_pairs(ctx, name):
            base = vf_bracket(ctx, v, w)
            for n in range(3):
                br = lifted_bracket(
                    ctx, lift_vector_field(ctx, v, n), lift_vector_field(ctx, w, n)
                )
                direct = lift_vector_field(ctx, base, n)
                for key in direct:
                    assert (br[key] - direct[key]).is_zero()


# -- criterion 5: chain rule ----------------------------------------------------------


def test_criterion_05_third_order_chain_rule_exact():
    ctx = context_for(SP)
    x = ctx.expr(ctx.source_var(0))
    u = ctx.expr(ctx.source_var(1))
    xvid, uvid = ctx.source_var(0), ctx.source_var(1)
    rng = random.Random(23)
    done = 0
    while done < 10:
        a = [random_rational(rng, 2) for _ in range(4)]
        b = [random_rational(rng, 2) for _ in range(4)]
        c = [random_rational(rng, 2) for _ in range(4)]
        x0 = random_rational(rng, 2)
        gx = (x + ctx.const(a[0]) * u + ctx.const(a[1]) * x * u
              + ctx.const(a[2]) * x * x + ctx.const(a[3]) * u * u)
        gu = (u + ctx.const(b[0]) * x + ctx.const(b[1]) * u * u
              + ctx.const(b[2]) * x * u + ctx.const(b[3]) * x * x)
        s = (ctx.const(c[0]) + ctx.const(c[1]) * x
             + ctx.const(c[2]) * x * x + ctx.const(c[3]) * x * x * x)
        z = submanifold_jet_from_sections(ctx, [s], 3, (x0,))
        # reduce to one variable: the image curve X(x), U(x) along the graph
        f = gx.subst({uvid: s})
        g = gu.subst({uvid: s})
        env = {xvid: x0}

        def dvals(e, env=env, xvid=xvid):
            vals = []
            for _ in range(4):
                vals.append(e.eval(env))
                e = e.diff(xvid)
            return vals

        f0, f1, f2, f3 = dvals(f)
        h0, h1, h2, h3 = dvals(g)
        if f1 == 0:
            continue
        try:
            gj = diffeo_jet_from_map(ctx, [gx, gu], 3, (x0, z.u[(0, ())]))
        except SingularJet:
            continue
        moved = act_on_jet(gj, z)
        # inverse-function and composition formulas, hand-expanded
        F1 = 1 / f1
        F2 = -f2 / f1**3
        F3 = (3 * f2**2 - f1 * f3) / f1**5
        assert moved.x == (f0,)
        assert moved.u[(0, ())] == h0
        assert moved.u[(0, (0,))] == h1 * F1
        assert moved.u[(0, (0, 0))] == h2 * F1**2 + h1 * F2
        assert moved.u[(0, (0, 0, 0))] == h3 * F1**3 + 3 * h2 * F1 * F2 + h1 * F3
        done += 1


# -- criterion 6: groupoid laws -------------------------------------------------------


def _random_diffeo_jet(rng, n, source):
    while True:
        coeffs = {}
        for k in range(n + 1):
            for a in range(2):
                for B in mi_enumerate(2, k):
                    coeffs[(a, B)] = random_rational(rng, 3)
        try:
            return DiffeoJet(SP, n, source, coeffs)
        except SingularJet:
            continue


def test_criterion_06_groupoid_laws_exact():
    rng = random.Random(31)
    for t in range(50):
        n = 1 + t % 3
        s0 = random_point(SP, rng, 3)
        g = _random_diffeo_jet(rng, n, s0)
        h = _random_diffeo_jet(rng, n, g.target)
        f = _random_diffeo_jet(rng, n, h.target)
        assert _same_jet(jet_compose(f, jet_compose(h, g)),
                         jet_compose(jet_compose(f, h), g))
        assert _same_jet(jet_compose(identity_jet(SP, n, g.target), g), g)
        assert _same_jet(jet_compose(g, identity_jet(SP, n, g.source)), g)
        inv = jet_invert(g)
        assert _same_jet(jet_compose(inv, g), identity_jet(SP, n, g.source))
        assert _same_jet(jet_compose(g, inv), identity_jet(SP, n, g.target))


# -- criterion 7: moving frame --------------------------------------------------------


def test_criterion_07_order_two_frame_normalization_equivariance_invariants():
    spec = _bundled("e1")
    cs2 = CrossSection.from_names(SP, 2, {"x": 0, "u.x": 1, "u.xx": 0})
    chart2 = MovingFrameChart(spec, 2, cs2, _pt(0, 0, 1, 0))
    rng = random.Random(11)

    def chart_point():
        while True:
            z = random_jet_point(SP, 2, rng, 4)
            if z.u[(0, (0,))] != 0:
                return z

    for _ in range(20):
        z = chart_point()
        res = chart2.result(z)
        assert res.exact
        moved = act_on_jet(res.jet, z)
        assert cs2.residuals(moved) == [0, 0, 0]

    checked = 0
    while checked < 50:
        z = chart_point()
        g = sample_group_jet(spec, 2, z.base, rng)
        try:
            moved = act_on_jet(g, z)
        except SingularTotalJacobian:
            continue
        assert _same_jet(jet_compose(chart2.frame(moved), g), chart2.frame(z))
        assert invariants(chart2, moved) == invariants(chart2, z)
        checked += 1

    cs1 = CrossSection.from_names(SP, 1, {"x": 0, "u.x": 1})
    chart1 = MovingFrameChart(spec, 1, cs1, _pt(0, 0, 1))
    rep = check_compatibility(chart1, chart2, samples=20, seed=3)
    assert rep.extends
    assert rep.compatible
    assert rep.violations == []
    assert rep.checked > 0


# -- criterion 8: top-order stabilizer ------------------------------------------------


def test_criterion_08_top_order_stabilizer_dimensions():
    rng = random.Random(5)
    for name in ("e1", "e2"):
        spec = _bundled(name)
        base = _pt(0, 0, 1)
        assert local_freeness(spec, 1, base).is_free
        for n in (2, 3):
            for _ in range(10):
                z = lift_jet_point(base, n, rng)
                rep = top_order_stabilizer(spec, n, z)
                assert rep.dimension == 0
    flat = _pt(0, 0, 0, 0, 0)
    rep = top_order_stabilizer(_bundled("e1"), 2, flat)
    assert rep.dimension > 0
    assert rep.basis


# -- criterion 9: kernel-jet witness mechanism ----------------------------------------


def test_criterion_09_witness_mechanism():
    spec = _bundled("e1")
    rng = random.Random(9)
    for n in (1, 2):
        found = 0
        while found < 3:
            z = random_jet_point(SP, n + 1, rng, 3)
            if z.u[(0, (0,))] == 0 or not local_freeness(spec, n, z).is_free:
                continue
            assert witness_candidates(spec, n, z) == []
            found += 1

    flat = _pt(0, 0, 0, 0)
    candidates = witness_candidates(spec, 1, flat)
    assert candidates
    for v in candidates:
        assert not v.is_zero()
        rep = witness_check(spec, 1, flat, v)
        assert not rep.projection_free
        assert not rep.forced_zero
        assert any(not w.is_zero() for _, w in rep.witnesses)


# -- criterion 10: dimension bookkeeping ----------------------------------------------


def test_criterion_10_fiber_dimensions_and_jet_counts():
    spec = _bundled("e1")
    L = declared_linear_system(spec)
    rng = random.Random(3)
    points = [random_point(SP, rng, 4) for _ in range(5)]
    for n in range(6):
        for z0 in points:
            assert fiber_basis(L, n, z0).dimension == n + 1

    for p, q in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        sp = SpaceSpec(("x", "y")[:p], ("u", "v")[:q])
        for n in range(6):
            dims = jet_dims(sp, n)
            fiber = sum(q * len(mi_enumerate(p, k)) for k in range(n + 1))
            full = sum((p + q) * len(mi_enumerate(p + q, k)) for k in range(n + 1))
            assert dims.jn_fiber == fiber
            assert dims.jn_total == p + fiber
            assert dims.vf_dim == full
            assert dims.dn_target_fiber == full


# -- criterion 11: DSL round trips and diagnostics ------------------------------------


def test_criterion_11_round_trip_identity_on_bundled_specs():
    for name in bundled_spec_names():
        spec, diags = parse_spec(load_bundled_spec(name))
        assert spec is not None and diags == []
        text = serialize_spec(spec)
        spec2, diags2 = parse_spec(text)
        assert spec2 is not None and diags2 == []
        assert serialize_spec(spec2) == text
        assert spec2.space == spec.space
        assert spec2.base_order == spec.base_order
        assert len(spec2.determining) == len(spec.determining)
        assert len(spec2.infinitesimal) == len(spec.infinitesimal)


def test_criterion_11_negative_fixtures_exit_2_with_spans(capsys):
    fixtures = sorted(FIXTURES.glob("*.psg"))
    assert fixtures
    for path in fixtures:
        rc = main(["parse", str(path), "--json"])
        out = capsys.readouterr().out
        assert rc == 2, path.name
        diags = json.loads(out)
        errors = [d for d in diags if d["severity"] == "error"]
        assert errors, path.name
        for d in errors:
            assert d["line"] >= 1 and d["column"] >= 1
            assert d["end_line"] >= d["line"]
            assert d["end_column"] >= 1


# -- criterion 12: determinism --------------------------------------------------------


def test_criterion_12_persistence_reports_byte_identical(capsys, tmp_path):
    point = tmp_path / "point.json"
    point.write_text(json.dumps(
        {"order": 1, "independent": {"x": "0"}, "dependent": {"u": "0"},
         "jets": {"u.x": "1"}}), encoding="utf-8")
    argv = ["persistence", "e1", "--order", "1", "--point", str(point),
            "--through", "3", "--samples", "25", "--seed", "13", "--json"]
    rc1 = main(argv)
    out1 = capsys.readouterr().out
    rc2 = main(argv)
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 == out2
