from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from jetfree.detsys import (
    FiberBasis,
    LinearDeterminingSystem,
    PseudogroupSpec,
    declared_linear_system,
    evaluated_rows,
    fiber_basis,
    jet_satisfies,
    linearize,
    prolong_determining_system,
    prolong_linear_system,
    validate_consistency,
)
from jetfree.dsl import SpecSource, load_bundled_spec, parse_spec
from jetfree.errors import (
    CoefficientSingularity,
    NonRationalDependence,
    PreconditionViolation,
)
from jetfree.jetspace import SpaceSpec, jet_keys
from jetfree.linalg import rank
from jetfree.prolong import VectorFieldJet, context_for
from jetfree.sampling import lift_jet_point, random_jet_point, sample_group_jet
from jetfree.symkernel import scalar

SP = SpaceSpec(("x",), ("u",))


def _ctx():
    ctx = context_for(SP)
    ctx.ensure_target(1)
    ctx.ensure_vf(1)
    return ctx


def _e1():
    ctx = _ctx()
    u = ctx.expr(ctx.source_var(1))
    U = ctx.expr(ctx.target_var(1, ()))
    Xu = ctx.expr(ctx.target_var(0, (1,)))
    zu = ctx.expr(ctx.vf_var(1, ()))
    zxu = ctx.expr(ctx.vf_var(0, (1,)))
    return PseudogroupSpec(
        SP, 1, determining=(U - u, Xu), infinitesimal=(zu, zxu), name="e1"
    )


def _e3():
    ctx = _ctx()
    u = ctx.expr(ctx.source_var(1))
    U = ctx.expr(ctx.target_var(1, ()))
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


def test_linearize_examples():
    ctx = _ctx()
    ds = _e1()
    lin = linearize(ds)
    zu = ctx.expr(ctx.vf_var(1, ()))
    zxu = ctx.expr(ctx.vf_var(0, (1,)))
    assert len(lin.equations) == 2
    assert (lin.equations[0] - zu).is_zero()
    assert (lin.equations[1] - zxu).is_zero()


def test_linearize_product_example():
    ctx = _ctx()
    ds = _e3()
    lin = linearize(ds)
    u = ctx.expr(ctx.source_var(1))
    zu = ctx.expr(ctx.vf_var(1, ()))
    zxx = ctx.expr(ctx.vf_var(0, (0,)))
    assert (lin.equations[0] - (zu - u * zxx)).is_zero()


def test_linearize_rejects_nonidentity_system():
    ctx = _ctx()
    u = ctx.expr(ctx.source_var(1))
    U = ctx.expr(ctx.target_var(1, ()))
    ds = PseudogroupSpec(SP, 1, determining=(U - u * u,), name="bad")
    with pytest.raises(PreconditionViolation):
        linearize(ds)


def test_linearize_rejects_pole_at_identity():
    ctx = _ctx()
    Xu = ctx.expr(ctx.target_var(0, (1,)))
    U = ctx.expr(ctx.target_var(1, ()))
    u = ctx.expr(ctx.source_var(1))
    ds = PseudogroupSpec(SP, 1, determining=((U - u) / Xu,), name="pole")
    with pytest.raises(NonRationalDependence):
        linearize(ds)


def test_prolong_linear_adds_concatenations():
    ctx = _ctx()
    zu = ctx.expr(ctx.vf_var(1, ()))
    L = LinearDeterminingSystem(SP, 0, (zu,))
    L1 = prolong_linear_system(L, 1)
    eqs = set(L1.equations)
    assert ctx.expr(ctx.vf_var(1, (0,))) in eqs
    assert ctx.expr(ctx.vf_var(1, (1,))) in eqs


def test_prolong_linear_product_rule():
    ctx = _ctx()
    ctx.ensure_vf(2)
    u = ctx.expr(ctx.source_var(1))
    zu = ctx.expr(ctx.vf_var(1, ()))
    zxx = ctx.expr(ctx.vf_var(0, (0,)))
    L = LinearDeterminingSystem(SP, 1, (zu - u * zxx,))
    L1 = prolong_linear_system(L, 1)
    zuu = ctx.expr(ctx.vf_var(1, (1,)))
    zxxu = ctx.expr(ctx.vf_var(0, (0, 1)))
    want = zuu - zxx - u * zxxu
    assert any((e - want).is_zero() for e in L1.equations)


def test_prolong_linear_idempotent_closure():
    ctx = _ctx()
    u = ctx.expr(ctx.source_var(1))
    zu = ctx.expr(ctx.vf_var(1, ()))
    zxx = ctx.expr(ctx.vf_var(0, (0,)))
    L = LinearDeterminingSystem(SP, 1, (zu - u * zxx, ctx.expr(ctx.vf_var(0, (1,)))))
    twice = prolong_linear_system(prolong_linear_system(L, 1), 1)
    once = prolong_linear_system(L, 2)
    assert set(twice.equations) == set(once.equations)


def test_prolong_determining_examples():
    ctx = _ctx()
    ctx.ensure_target(2)
    ds = _e1()
    eqs = prolong_determining_system(ds, 1)
    Ux = ctx.expr(ctx.target_var(1, (0,)))
    Uu = ctx.expr(ctx.target_var(1, (1,)))
    Xxu = ctx.expr(ctx.target_var(0, (0, 1)))
    assert any((e - Ux).is_zero() for e in eqs)
    assert any((e - (Uu - ctx.const(1))).is_zero() for e in eqs)
    assert any((e - Xxu).is_zero() for e in eqs)


def test_prolong_determining_product_rule():
    ctx = _ctx()
    ctx.ensure_target(2)
    ds = _e3()
    eqs = prolong_determining_system(ds, 1)
    u = ctx.expr(ctx.source_var(1))
    Ux = ctx.expr(ctx.target_var(1, (0,)))
    Xxx = ctx.expr(ctx.target_var(0, (0, 0)))
    want = Ux - u * Xxx
    assert any((e - want).is_zero() for e in eqs)


def test_fiber_dimensions_scaling_group():
    ds = _e1()
    lin = linearize(ds)
    for z0 in [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(2))]:
        for n in range(1, 5):
            fb = fiber_basis(lin, n, z0)
            assert fb.dimension == n + 1
            for v in fb.elements:
                assert jet_satisfies(lin, v)


def test_fiber_empty_system_is_full_space():
    L = LinearDeterminingSystem(SP, 0, ())
    fb = fiber_basis(L, 0, (Fraction(0), Fraction(0)))
    assert fb.dimension == 2


def test_fiber_monotone_under_projection():
    ds = _e3()
    lin = declared_linear_system(ds)
    z0 = (Fraction(2), Fraction(1))
    for n in (1, 2):
        low = fiber_basis(lin, n, z0)
        high = fiber_basis(lin, n + 1, z0)
        keys = sorted(low.elements[0].coeffs) if low.elements else []
        base_rows = [[v.coeffs[k] for k in keys] for v in low.elements]
        r0 = rank(base_rows)
        for v in high.elements:
            projected = [v.coeffs[k] for k in keys]
            assert rank(base_rows + [projected]) == r0


def test_linear_system_structural_checks():
    ctx = _ctx()
    zu = ctx.expr(ctx.vf_var(1, ()))
    zx = ctx.expr(ctx.vf_var(0, ()))
    with pytest.raises(PreconditionViolation):
        LinearDeterminingSystem(SP, 0, (zu + ctx.const(1),))
    with pytest.raises(PreconditionViolation):
        LinearDeterminingSystem(SP, 0, (zu * zx,))


def test_pseudogroup_spec_kind_checks():
    ctx = _ctx()
    zu = ctx.expr(ctx.vf_var(1, ()))
    U = ctx.expr(ctx.target_var(1, ()))
    u = ctx.expr(ctx.source_var(1))
    with pytest.raises(PreconditionViolation):
        PseudogroupSpec(SP, 1, determining=(zu,))
    with pytest.raises(PreconditionViolation):
        PseudogroupSpec(SP, 1, infinitesimal=(U - u,))
    with pytest.raises(PreconditionViolation):
        PseudogroupSpec(SP, 1)
    # equations above the declared order are kept and raise the effective order
    ctx.ensure_target(2)
    Xxx = ctx.expr(ctx.target_var(0, (0, 0)))
    over = PseudogroupSpec(SP, 1, determining=(Xxx,))
    assert over.effective_order == 2
    assert _e1().effective_order == 1


def test_declared_linear_system_prefers_declaration():
    ds = _e1()
    dec = declared_linear_system(ds)
    assert dec.equations == ds.infinitesimal
    only_det = PseudogroupSpec(SP, 1, determining=_e1().determining, name="d")
    lin = declared_linear_system(only_det)
    assert len(lin.equations) == 2


def test_validate_consistency_passes_on_matching_forms():
    validate_consistency(_e1(), seed=7, points=20)
    validate_consistency(_e3(), seed=7, points=20)


def test_validate_consistency_detects_mismatch():
    ctx = _ctx()
    u = ctx.expr(ctx.source_var(1))
    U = ctx.expr(ctx.target_var(1, ()))
    Xu = ctx.expr(ctx.target_var(0, (1,)))
    zx = ctx.expr(ctx.vf_var(0, ()))
    bad = PseudogroupSpec(SP, 1, determining=(U - u, Xu), infinitesimal=(zx,), name="bad")
    with pytest.raises(PreconditionViolation):
        validate_consistency(bad, seed=3, points=5)


def test_coefficient_singularity():
    ctx = _ctx()
    u = ctx.expr(ctx.source_var(1))
    zu = ctx.expr(ctx.vf_var(1, ()))
    L = LinearDeterminingSystem(SP, 0, (zu / u,))
    with pytest.raises(CoefficientSingularity):
        fiber_basis(L, 0, (Fraction(0), Fraction(0)))
    fb = fiber_basis(L, 0, (Fraction(0), Fraction(1)))
    assert fb.dimension == 1


def test_sample_group_jet_satisfies_system():
    ctx = _ctx()
    for ds, z0 in [
        (_e1(), (Fraction(0), Fraction(0))),
        (_e3(), (Fraction(0), Fraction(1))),
    ]:
        rng = random.Random(11)
        g = sample_group_jet(ds, 2, z0, rng)
        eqs = prolong_determining_system(ds, 1)
        env = {ctx.source_var(a): z0[a] for a in range(2)}
        for key, val in g.coeffs.items():
            env[ctx.target_var(*key)] = val
        for e in eqs:
            assert e.eval(env) == 0


def test_sample_group_jet_reproducible_and_generic():
    ds = _e1()
    z0 = (Fraction(0), Fraction(0))
    g1 = sample_group_jet(ds, 2, z0, random.Random(5))
    g2 = sample_group_jet(ds, 2, z0, random.Random(5))
    g3 = sample_group_jet(ds, 2, z0, random.Random(6))
    assert g1 == g2
    assert g1 != g3


def test_lift_jet_point_extends_and_projects():
    rng = random.Random(1)
    z = random_jet_point(SP, 1, rng)
    w = lift_jet_point(z, 2, rng)
    assert w.order == 3
    assert w.truncate(1) == z


def test_fiber_basis_type_validation():
    with pytest.raises(ValueError):
        FiberBasis((scalar(0), scalar(0)), 1, [], dimension=3)


# -- row prolongation against the Expr total-derivative closure -----------------------


def _expr_close(ctx, equations, n):
    """The closure of the equations under ctx.total_derivative up to
    vf-order n, in discovery order: the oracle for row prolongation."""
    out = list(equations)
    seen = set(out)
    queue = list(equations)
    while queue:
        e = queue.pop()
        if ctx.max_order(e, "vf") >= n:
            continue
        for c in range(ctx.space.m):
            de = ctx.total_derivative(e, c)
            if de.is_zero() or de in seen:
                continue
            seen.add(de)
            out.append(de)
            queue.append(de)
    return out


SYSTEMS = ("e1", "e2", "e3", "p2", "u*zu", "zu/u", "zu - u*zxx")


def _system(name):
    """e1-e3 and p2 as declared, or a system with rational coefficients."""
    if name in ("e1", "e2", "e3"):
        return declared_linear_system(parse_spec(load_bundled_spec(name))[0])
    if name == "p2":
        src = SpecSource.from_file(Path(__file__).parent / "specs" / "p2.psg")
        return declared_linear_system(parse_spec(src)[0])
    ctx = _ctx()
    u = ctx.expr(ctx.source_var(1))
    zu = ctx.expr(ctx.vf_var(1, ()))
    zxx = ctx.expr(ctx.vf_var(0, (0,)))
    order, e = {"u*zu": (0, u * zu), "zu/u": (0, zu / u), "zu - u*zxx": (1, zu - u * zxx)}[name]
    return LinearDeterminingSystem(SP, order, (e,))


@pytest.mark.parametrize("name", SYSTEMS)
def test_row_prolongation_matches_expr_closure(name):
    L = _system(name)
    ctx = context_for(L.space)
    for k in range(4):
        Lk = prolong_linear_system(L, k)
        oracle = _expr_close(ctx, L.equations, L.order + k)
        assert list(Lk.equations) == oracle
        assert Lk.rows == LinearDeterminingSystem(L.space, L.order + k, oracle).rows


@pytest.mark.parametrize("name", SYSTEMS)
def test_jet_satisfies_matches_equation_evaluation(name):
    """Membership read from the evaluated rows agrees with evaluating every
    equation of the order-n truncation at the jet, on fiber elements, on
    perturbed fiber elements and on random jets."""
    L = _system(name)
    ctx = context_for(L.space)
    m = L.space.m
    rng = random.Random(13)
    outcomes = set()
    for n in range(L.order, L.order + 2):
        for _ in range(3):
            z0 = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(m))
            keys = jet_keys(m, m, 0, n)
            jets = list(fiber_basis(L, n, z0).elements)
            for v in list(jets):
                bumped = dict(v.coeffs)
                bumped[rng.choice(keys)] += 1
                jets.append(VectorFieldJet(L.space, n, z0, bumped))
            random_coeffs = {key: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for key in keys}
            jets.append(VectorFieldJet(L.space, n, z0, random_coeffs))
            for v in jets:
                env = {ctx.source_var(a): z0[a] for a in range(m)}
                env.update({ctx.vf_var(a, B): c for (a, B), c in v.coeffs.items()})
                expect = all(e.eval(env) == 0 for e in L.equations_through(n))
                assert jet_satisfies(L, v) == expect
                outcomes.add(expect)
    assert outcomes == {True, False}


def test_jet_satisfies_raises_on_a_singular_coefficient():
    ctx = _ctx()
    u = ctx.expr(ctx.source_var(1))
    zu = ctx.expr(ctx.vf_var(1, ()))
    L = LinearDeterminingSystem(SP, 0, (zu / u,))
    zero = dict.fromkeys(jet_keys(SP.m, SP.m, 0, 1), Fraction(0))
    with pytest.raises(CoefficientSingularity):
        jet_satisfies(L, VectorFieldJet(SP, 1, (Fraction(2), Fraction(0)), zero))
    assert jet_satisfies(L, VectorFieldJet(SP, 1, (Fraction(2), Fraction(1)), zero))


@pytest.mark.parametrize("name", SYSTEMS)
def test_evaluated_rows_match_dense_evaluation(name):
    """Only the nonzero coefficients are evaluated; the matrix equals the
    dense one of every partial derivative evaluated at seeded points."""
    L = _system(name)
    ctx = context_for(L.space)
    rng = random.Random(7)
    for n in range(L.order, L.order + 3):
        Ln = prolong_linear_system(L, n - L.order)
        equations = [e for e in Ln.equations if ctx.max_order(e, "vf") <= n]
        for _ in range(3):
            z0 = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(L.space.m))
            env = {ctx.source_var(a): z0[a] for a in range(L.space.m)}
            rows, coords = evaluated_rows(L, n, z0)
            assert rows == [[e.diff(vid).eval(env) for _, _, vid in coords] for e in equations]
