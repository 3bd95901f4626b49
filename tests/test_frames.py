"""Cross-sections, normalized moving frames, and differential invariants."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from jetfree.detsys import PseudogroupSpec
from jetfree.errors import (
    NoSolution,
    OrderMismatch,
    PreconditionViolation,
    SingularJet,
    SingularTotalJacobian,
    UnknownVariable,
)
from jetfree.frames import (
    _VERIFY_TOLERANCE,
    CrossSection,
    MovingFrameChart,
    _jets_agree,
    _solve_frame,
    check_compatibility,
    check_transversality,
    invariants,
)
from jetfree.jetspace import SpaceSpec
from jetfree.prolong import (
    DiffeoJet,
    SubmanifoldJetPoint,
    act_on_jet,
    context_for,
    identity_jet,
    jet_compose,
)
from jetfree.sampling import random_jet_point, sample_group_jet

SP = SpaceSpec(("x",), ("u",))


def _ctx():
    ctx = context_for(SP)
    ctx.ensure_target(2)
    ctx.ensure_vf(2)
    return ctx


def _e1():
    ctx = _ctx()
    U = ctx.expr(ctx.target_var(1, ()))
    u = ctx.expr(ctx.source_var(1))
    Xu = ctx.expr(ctx.target_var(0, (1,)))
    zu = ctx.expr(ctx.vf_var(1, ()))
    zxu = ctx.expr(ctx.vf_var(0, (1,)))
    return PseudogroupSpec(SP, 1, determining=(U - u, Xu), infinitesimal=(zu, zxu), name="e1")


def _e2():
    ctx = _ctx()
    U = ctx.expr(ctx.target_var(1, ()))
    u = ctx.expr(ctx.source_var(1))
    Xu = ctx.expr(ctx.target_var(0, (1,)))
    Xxx = ctx.expr(ctx.target_var(0, (0, 0)))
    zu = ctx.expr(ctx.vf_var(1, ()))
    zxu = ctx.expr(ctx.vf_var(0, (1,)))
    zxxx = ctx.expr(ctx.vf_var(0, (0, 0)))
    return PseudogroupSpec(
        SP, 2, determining=(Xu, Xxx, U - u), infinitesimal=(zxu, zxxx, zu), name="e2"
    )


def _e3():
    ctx = _ctx()
    U = ctx.expr(ctx.target_var(1, ()))
    u = ctx.expr(ctx.source_var(1))
    Xx = ctx.expr(ctx.target_var(0, (0,)))
    Xu = ctx.expr(ctx.target_var(0, (1,)))
    Uu = ctx.expr(ctx.target_var(1, (1,)))
    zu = ctx.expr(ctx.vf_var(1, ()))
    zxx = ctx.expr(ctx.vf_var(0, (0,)))
    zxu = ctx.expr(ctx.vf_var(0, (1,)))
    zuu = ctx.expr(ctx.vf_var(1, (1,)))
    return PseudogroupSpec(
        SP,
        1,
        determining=(U - u * Xx, Xu, Uu - Xx),
        infinitesimal=(zu - u * zxx, zxu, zuu - zxx),
        name="e3",
    )


def _cube():
    # x -> phi(x) with phi'(x)^3 = 1: nonlinear determining equations whose
    # only real branch is phi' = 1
    ctx = _ctx()
    U = ctx.expr(ctx.target_var(1, ()))
    u = ctx.expr(ctx.source_var(1))
    Xx = ctx.expr(ctx.target_var(0, (0,)))
    Xu = ctx.expr(ctx.target_var(0, (1,)))
    return PseudogroupSpec(
        SP, 1, determining=(Xx * Xx * Xx - ctx.const(1), Xu, U - u), name="cube"
    )


def _pt(*vals):
    n = len(vals) - 2
    u = {(0, (0,) * k): Fraction(vals[k + 1]) for k in range(n + 1)}
    return SubmanifoldJetPoint(SP, n, (Fraction(vals[0]),), u)


def _cs1():
    return CrossSection.from_names(SP, 1, {"x": 0, "u.x": 1})


def _cs2():
    return CrossSection.from_names(SP, 2, {"x": 0, "u.x": 1, "u.xx": 0})


# -- cross-sections ---------------------------------------------------------------


def test_cross_section_from_names():
    cs = _cs1()
    assert cs.order == 1
    assert cs.pairs == ((("x", 0), Fraction(0)), (("u", 0, (0,)), Fraction(1)))
    assert cs.names() == ["x", "u.x"]


def test_cross_section_rejects_unknown_and_overorder_names():
    with pytest.raises(UnknownVariable):
        CrossSection.from_names(SP, 1, {"v": 0})
    # u.xx is not a coordinate of J^1
    with pytest.raises(UnknownVariable):
        CrossSection.from_names(SP, 1, {"u.xx": 0})


def test_cross_section_rejects_duplicate_coordinate():
    with pytest.raises(PreconditionViolation):
        CrossSection(SP, 1, ((("x", 0), Fraction(0)), (("x", 0), Fraction(1))))


def test_cross_section_residuals_and_membership():
    cs = _cs1()
    assert cs.satisfied_by(_pt(0, 5, 1))
    assert not cs.satisfied_by(_pt(0, 5, 2))
    assert cs.residuals(_pt(0, 5, 2)) == [Fraction(0), Fraction(1)]


def test_cross_section_extends():
    low = _cs1()
    high = _cs2()
    assert high.extends(low)
    assert not low.extends(high)
    conflict = CrossSection.from_names(SP, 2, {"x": 0, "u.x": 2, "u.xx": 0})
    assert not conflict.extends(low)
    assert high.extends(high)


# -- transversality ---------------------------------------------------------------


def test_transversality_of_standard_section():
    rep = check_transversality(_cs1(), _e1(), _pt(0, 0, 1))
    assert rep.transversal
    assert rep.jet_dimension == 3
    assert rep.fixed_count == 2
    assert rep.orbit_dimension == 2
    assert rep.stacked_rank == 3
    # no rank deficit, and the complementary subspace meets the orbit in 0
    assert rep.jet_dimension - rep.stacked_rank == 0
    assert rep.jet_dimension - rep.fixed_count + rep.orbit_dimension - rep.stacked_rank == 0


def test_transversality_fails_without_orbit_direction():
    # the e1 orbit has no u-component, so fixing u cannot be transversal
    cs = CrossSection.from_names(SP, 1, {"u": 0, "u.x": 1})
    rep = check_transversality(cs, _e1(), _pt(0, 0, 1))
    assert not rep.transversal
    assert rep.jet_dimension - rep.stacked_rank == 1


def test_transversality_reports_deficit_for_too_few_equations():
    cs = CrossSection.from_names(SP, 1, {"x": 0})
    rep = check_transversality(cs, _e1(), _pt(0, 0, 1))
    assert not rep.transversal
    assert rep.fixed_count == 1
    assert rep.orbit_dimension == 2
    # the two free coordinates and the two orbit directions span only 3
    assert rep.jet_dimension - rep.fixed_count + rep.orbit_dimension - rep.stacked_rank == 1


def test_transversality_requires_point_on_section():
    with pytest.raises(PreconditionViolation):
        check_transversality(_cs1(), _e1(), _pt(0, 0, 2))


# -- frame construction -----------------------------------------------------------


def test_frame_normalizes_slope():
    g = _solve_frame(_e1(), 1, _cs1(), _pt(0, 0, 2)).jet
    assert g.coeffs == {
        (0, ()): Fraction(0),
        (1, ()): Fraction(0),
        (0, (0,)): Fraction(2),
        (0, (1,)): Fraction(0),
        (1, (0,)): Fraction(0),
        (1, (1,)): Fraction(1),
    }
    moved = act_on_jet(g, _pt(0, 0, 2))
    assert _cs1().satisfied_by(moved)


def test_frame_is_identity_on_the_cross_section():
    z = _pt(0, 7, 1)
    g = _solve_frame(_e1(), 1, _cs1(), z).jet
    assert g == identity_jet(SP, 1, z.base)


def test_order2_frame_solves_second_stage():
    g = _solve_frame(_e1(), 2, _cs2(), _pt(0, 0, 1, 3)).jet
    assert g.coeffs[(0, (0,))] == Fraction(1)
    assert g.coeffs[(0, (0, 0))] == Fraction(3)
    # X_xx = u_xx X_x / u_x
    g = _solve_frame(_e1(), 2, _cs2(), _pt(0, 0, 2, 3)).jet
    assert g.coeffs[(0, (0,))] == Fraction(2)
    assert g.coeffs[(0, (0, 0))] == Fraction(3)
    moved = act_on_jet(g, _pt(0, 0, 2, 3))
    assert _cs2().satisfied_by(moved)


def test_frame_fails_outside_chart():
    # u_x = 0 cannot be rescaled to 1
    with pytest.raises(NoSolution):
        _solve_frame(_e1(), 1, _cs1(), _pt(0, 0, 0))


def test_frame_order_must_match_section_order():
    with pytest.raises(OrderMismatch):
        _solve_frame(_e1(), 2, _cs1(), _pt(0, 0, 2, 0))


def test_e2_frame_normalizes_translation_and_scale():
    ps = _e2()
    cs = CrossSection.from_names(SP, 2, {"x": 0, "u.x": 1})
    z = _pt(1, 5, 2, 12)
    rep = check_transversality(cs, ps, _pt(0, 5, 1, 12))
    assert rep.transversal
    g = _solve_frame(ps, 2, cs, z).jet
    assert g.coeffs[(0, ())] == Fraction(0)
    assert g.coeffs[(0, (0,))] == Fraction(2)
    assert g.coeffs[(0, (0, 0))] == Fraction(0)
    moved = act_on_jet(g, z)
    assert moved.u[(0, ())] == Fraction(5)
    # the non-normalized second-order entry is u_xx / u_x^2
    assert moved.u[(0, (0, 0))] == Fraction(3)


def test_e3_frame_pins_first_order_jet():
    ps = _e3()
    cs = CrossSection.from_names(SP, 1, {"x": 0, "u": 1, "u.x": 0})
    anchor = _pt(0, 1, 0)
    assert check_transversality(cs, ps, anchor).transversal
    z = _pt(3, 2, 5)
    g = _solve_frame(ps, 1, cs, z).jet
    assert g.coeffs[(0, ())] == Fraction(0)
    assert g.coeffs[(1, ())] == Fraction(1)
    assert g.coeffs[(0, (0,))] == Fraction(1, 2)
    assert g.coeffs[(1, (0,))] == Fraction(-5, 2)
    assert g.coeffs[(1, (1,))] == Fraction(1, 2)
    moved = act_on_jet(g, z)
    assert cs.satisfied_by(moved)


# -- frame charts and invariants -----------------------------------------------------


def test_chart_requires_transversal_section():
    cs = CrossSection.from_names(SP, 1, {"u": 0, "u.x": 1})
    with pytest.raises(PreconditionViolation):
        MovingFrameChart(_e1(), 1, cs, _pt(0, 0, 1))


def test_chart_caches_results_and_outside_points():
    chart = MovingFrameChart(_e1(), 1, _cs1(), _pt(0, 0, 1))
    z = _pt(0, 0, 2)
    first = chart.result(z)
    assert first.exact
    assert chart.result(z) is first
    flat = _pt(0, 0, 0)
    for _ in range(2):
        with pytest.raises(NoSolution):
            chart.frame(flat)


def test_invariants_at_order_one():
    chart = MovingFrameChart(_e1(), 1, _cs1(), _pt(0, 0, 1))
    assert invariants(chart, _pt(0, 0, 2)) == [
        ("x", Fraction(0)),
        ("u", Fraction(0)),
        ("u.x", Fraction(1)),
    ]
    # u is the invariant entry
    assert invariants(chart, _pt(0, 5, 2))[1] == ("u", Fraction(5))


def test_invariants_constant_along_orbits():
    chart = MovingFrameChart(_e1(), 1, _cs1(), _pt(0, 0, 1))
    rng = random.Random(11)
    for _ in range(6):
        z = _pt(
            rng.randint(-3, 3), rng.randint(-3, 3), Fraction(rng.randint(1, 5), rng.randint(1, 3))
        )
        g = sample_group_jet(_e1(), 1, z.base, rng)
        try:
            moved = act_on_jet(g, z)
            base = invariants(chart, z)
            along = invariants(chart, moved)
        except NoSolution:
            continue
        assert along == base


# -- equivariance ------------------------------------------------------------------


def test_equivariance_explicit_instance():
    chart = MovingFrameChart(_e1(), 1, _cs1(), _pt(0, 0, 1))
    z = _pt(0, 0, 2)
    g = DiffeoJet(
        SP,
        1,
        (Fraction(0), Fraction(0)),
        {
            (0, ()): Fraction(0),
            (1, ()): Fraction(0),
            (0, (0,)): Fraction(3),
            (0, (1,)): Fraction(0),
            (1, (0,)): Fraction(0),
            (1, (1,)): Fraction(1),
        },
    )
    moved = act_on_jet(g, z)
    assert moved.u[(0, (0,))] == Fraction(2, 3)
    lhs = jet_compose(chart.frame(moved), g)
    assert lhs == chart.frame(z)
    assert lhs.coeffs[(0, (0,))] == Fraction(2)


def test_equivariance_with_identity_is_trivial():
    chart = MovingFrameChart(_e1(), 1, _cs1(), _pt(0, 0, 1))
    z = _pt(2, 3, 5)
    g = identity_jet(SP, 1, z.base)
    assert jet_compose(chart.frame(act_on_jet(g, z)), g) == chart.frame(z)


@dataclass
class EquivarianceReport:
    order: int
    samples: int
    checked: int
    excluded: int
    seed: int
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def check_equivariance(
    frame: MovingFrameChart, samples: int = 25, seed: int = 0
) -> EquivarianceReport:
    """Sampled check of ghat(g.z) o g = ghat(z) for group jets g near the
    identity; samples that leave the chart (either z or g.z) are
    excluded and counted, not failures."""
    rng = random.Random(seed)
    ps = frame.pseudogroup
    n = frame.order
    checked = excluded = 0
    violations: list[tuple] = []
    for _ in range(samples):
        z = random_jet_point(ps.space, n, rng, bound=5)
        try:
            gz = frame.frame(z)
            g = sample_group_jet(ps, n, z.base, rng)
            moved = act_on_jet(g, z)
            gw = frame.frame(moved)
        except (NoSolution, SingularJet, SingularTotalJacobian):
            excluded += 1
            continue
        lhs = jet_compose(gw, g)
        if not _jets_agree(lhs, gz, _VERIFY_TOLERANCE):
            violations.append((z, g, lhs, gz))
        checked += 1
    return EquivarianceReport(n, samples, checked, excluded, seed, violations)


def test_equivariance_sampled_sweep():
    chart = MovingFrameChart(_e1(), 1, _cs1(), _pt(0, 0, 1))
    rep = check_equivariance(chart, samples=20, seed=5)
    assert rep.ok
    assert rep.violations == []
    assert rep.checked + rep.excluded == 20
    assert rep.checked > 0


def test_equivariance_sampled_on_scaling_group():
    ps = _e3()
    cs = CrossSection.from_names(SP, 1, {"x": 0, "u": 1, "u.x": 0})
    chart = MovingFrameChart(ps, 1, cs, _pt(0, 1, 0))
    rep = check_equivariance(chart, samples=15, seed=2)
    assert rep.ok
    assert rep.checked > 0


# -- compatibility -----------------------------------------------------------------


def test_compatibility_of_nested_sections():
    low = MovingFrameChart(_e1(), 1, _cs1(), _pt(0, 0, 1))
    high = MovingFrameChart(_e1(), 2, _cs2(), _pt(0, 0, 1, 0))
    rep = check_compatibility(low, high, samples=12, seed=3)
    assert rep.compatible
    assert rep.extends
    assert rep.violations == []
    assert rep.checked > 0


def test_compatibility_with_itself():
    chart = MovingFrameChart(_e1(), 1, _cs1(), _pt(0, 0, 1))
    rep = check_compatibility(chart, chart, samples=6, seed=1)
    assert rep.compatible


def test_conflicting_constants_are_incompatible():
    low = MovingFrameChart(_e1(), 1, _cs1(), _pt(0, 0, 1))
    conflict = CrossSection.from_names(SP, 2, {"x": 0, "u.x": 2, "u.xx": 0})
    high = MovingFrameChart(_e1(), 2, conflict, _pt(0, 0, 2, 0))
    rep = check_compatibility(low, high, samples=12, seed=3)
    assert not rep.compatible
    assert not rep.extends
    assert rep.violations


def test_compatibility_rejects_order_inversion():
    low = MovingFrameChart(_e1(), 1, _cs1(), _pt(0, 0, 1))
    high = MovingFrameChart(_e1(), 2, _cs2(), _pt(0, 0, 1, 0))
    with pytest.raises(OrderMismatch):
        check_compatibility(high, low, samples=4, seed=0)


# -- float fallback ----------------------------------------------------------------


def test_newton_fallback_on_nonlinear_determining_system():
    ps = _cube()
    cs = CrossSection.from_names(SP, 1, {"x": 0})
    z = _pt(Fraction(1, 2), 3, 5)
    g = _solve_frame(ps, 1, cs, z).jet
    assert not g.is_exact()
    want = {
        (0, ()): 0.0,
        (1, ()): 3.0,
        (0, (0,)): 1.0,
        (0, (1,)): 0.0,
        (1, (0,)): 0.0,
        (1, (1,)): 1.0,
    }
    for key, val in want.items():
        assert abs(float(g.coeffs[key]) - val) <= 1e-9
    moved = act_on_jet(g, z)
    assert abs(float(moved.x[0])) <= 1e-9
    chart = MovingFrameChart(ps, 1, cs, _pt(0, 3, 5))
    assert not chart.result(z).exact
