"""Freeness verdicts, persistence sweeps, witnesses, and isotropy."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from jetfree.detsys import (
    FreenessProblem,
    LinearDeterminingSystem,
    PseudogroupSpec,
    combine_columns,
    evaluated_rows,
)
from jetfree.dsl import SpecSource, load_bundled_spec, parse_spec
from jetfree.errors import (
    CoefficientSingularity,
    NotFreeAtBase,
    OrderMismatch,
    PreconditionViolation,
)
from jetfree.freeness import (
    INCONCLUSIVE,
    LOCALLY_FREE,
    NONTRIVIAL,
    NOT_LOCALLY_FREE,
    PERSISTS,
    TRIVIAL,
    UNDECIDED,
    _products,
    isotropy_jets_triangular,
    local_freeness,
    persistence_sweep,
    prolongation_matrix,
    top_order_stabilizer,
    witness_candidates,
    witness_check,
)
from jetfree.jetspace import SpaceSpec, jet_keys, mi_enumerate
from jetfree.linalg import nullspace, rank
from jetfree.prolong import SubmanifoldJetPoint, _point_env, context_for, prolong_at_point
from jetfree.sampling import lift_jet_point, random_jet_point

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
        SP,
        2,
        determining=(Xu, Xxx, U - u),
        infinitesimal=(zxu, zxxx, zu),
        name="e2",
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


def _pt(*jets) -> SubmanifoldJetPoint:
    """Curve jet (x, u, u_x, u_xx, ...) with rational entries."""
    vals = [Fraction(v) for v in jets]
    x = (vals[0],)
    u = {(0, (0,) * k): vals[k + 1] for k in range(len(vals) - 1)}
    return SubmanifoldJetPoint(SP, len(vals) - 2, x, u)


# -- prolongation matrices --------------------------------------------------------------


def test_prolongation_matrix_e1_slope_one():
    pm = prolongation_matrix(_e1(), 1, _pt(0, 0, 1))
    assert [r[-1] for r in pm.rows] == ["x", "u", "u.x"]
    assert pm.entries == [
        [Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(-1)],
    ]
    assert pm.basis.dimension == 2
    assert pm.rank == 2


def test_prolongation_matrix_zero_fiber():
    ctx = _ctx()
    zx = ctx.expr(ctx.vf_var(0, ()))
    zu = ctx.expr(ctx.vf_var(1, ()))
    ps = PseudogroupSpec(SP, 1, infinitesimal=(zx, zu), name="point")
    pm = prolongation_matrix(ps, 1, _pt(0, 0, 1))
    assert pm.basis.dimension == 0
    assert all(row == [] for row in pm.entries)
    assert pm.rank == 0


def test_full_diffeomorphism_pseudogroup_transitive_at_order_zero():
    free_system = LinearDeterminingSystem(SP, 1, ())
    for z in (_pt(0, 0), _pt(3, "1/2")):
        pm = prolongation_matrix(free_system, 0, z)
        assert pm.rank == SP.m


# -- local freeness ----------------------------------------------------------------------


def test_local_freeness_e1_generic_slope():
    v = local_freeness(_e1(), 1, _pt(0, 0, 1))
    assert v.verdict == LOCALLY_FREE
    assert v.is_free
    assert v.kernel_dimension == 0
    assert v.orbit_dimension == 2
    assert v.fiber_dimension == 2


def test_local_freeness_e1_flat_slope():
    v = local_freeness(_e1(), 1, _pt(0, 0, 0))
    assert v.verdict == NOT_LOCALLY_FREE
    assert v.kernel_dimension == 1
    (k,) = v.kernel_basis
    # translations die: zeta{x} = 0 while zeta{x}.x stays free
    assert k.coeffs[(0, ())] == 0
    assert k.coeffs[(0, (0,))] != 0


def test_local_freeness_e2():
    v = local_freeness(_e2(), 1, _pt(0, 0, 1))
    assert v.verdict == LOCALLY_FREE
    assert v.fiber_dimension == 2


def test_local_freeness_e3_depends_on_u():
    assert local_freeness(_e3(), 1, _pt(0, 2, 1)).is_free
    assert not local_freeness(_e3(), 1, _pt(0, 0, 1)).is_free


def test_rank_nullity_exact_bookkeeping():
    rng = random.Random(5)
    for ps in (_e1(), _e2(), _e3()):
        for n in (1, 2, 3):
            z = random_jet_point(SP, n, rng)
            v = local_freeness(ps, n, z)
            assert v.orbit_dimension + v.kernel_dimension == v.fiber_dimension
            pm = prolongation_matrix(ps, n, z)
            assert pm.rank == v.orbit_dimension


def test_e1_fiber_dimension_grows_with_order():
    for n in range(1, 5):
        v = local_freeness(_e1(), n, _pt(0, 0, *([1] + [0] * (n - 1))))
        assert v.fiber_dimension == n + 1
        assert v.is_free


# -- isotropy algebra --------------------------------------------------------------------


def test_isotropy_algebra_dimensions():
    # the kernel of the restricted matrix is the isotropy algebra at the point
    assert local_freeness(_e1(), 1, _pt(0, 0, 0)).kernel_dimension == 1
    assert local_freeness(_e1(), 1, _pt(0, 0, 1)).kernel_dimension == 0


def test_isotropy_algebra_needs_the_point_to_its_order():
    """A point of order below n is refused; the order-2 lift below has a
    one-dimensional kernel."""
    low = _pt(1, 1, 0)
    for fn in (prolongation_matrix, local_freeness):
        with pytest.raises(OrderMismatch):
            fn(_e1(), 2, low)
    assert local_freeness(_e1(), 2, _pt(1, 1, 0, 3)).kernel_dimension == 1


def _isotropy_dimension(ps, n, z):
    """Dimension of the infinitesimal isotropy algebra at z, built apart
    from local_freeness: the fiber combinations that the prolongation
    matrix annihilates and whose order-0 part vanishes."""
    pm = prolongation_matrix(ps, n, z)
    cols = pm.basis.columns
    order0 = [[col.get((a, ()), 0) for col in cols] for a in range(z.space.m)]
    return len(nullspace(pm.entries + order0, pm.basis.dimension))


def test_isotropy_algebra_is_subspace_of_kernel():
    rng = random.Random(9)
    for ps in (_e1(), _e3()):
        for _ in range(5):
            z = random_jet_point(SP, 2, rng)
            v = local_freeness(ps, 2, z)
            assert _isotropy_dimension(ps, 2, z) <= v.kernel_dimension


def test_isotropy_algebra_rank_bookkeeping():
    # kernel dim minus the rank of the order-0 evaluation on the kernel
    rng = random.Random(31)
    for ps in (_e1(), _e3()):
        for _ in range(6):
            z = random_jet_point(SP, 2, rng)
            v = local_freeness(ps, 2, z)
            rows = [
                [k.coeffs[(a, ())] for a in range(SP.m)] for k in v.kernel_basis
            ]
            assert _isotropy_dimension(ps, 2, z) == v.kernel_dimension - rank(rows)


def test_freeness_kernel_vanishes_at_order_zero():
    # the restricted matrix's x-rows are zeta^x and its order-0 u-rows are
    # phihat(a, ()) = zeta^u, so every kernel jet vanishes at order 0: the
    # kernel is the isotropy algebra, with no separate build needed
    rng = random.Random(23)
    p2 = parse_spec(SpecSource.from_file(Path(__file__).parent / "specs" / "p2.psg"))[0]
    specs = [parse_spec(load_bundled_spec(name))[0] for name in ("e1", "e2", "e3")] + [p2]
    dims = []
    for spec in specs:
        problem = FreenessProblem.of(spec)
        for n in range(spec.effective_order, spec.effective_order + 3):
            for z in _kernel_points(spec.space, n, rng):
                v = local_freeness(problem, n, z)
                for k in v.kernel_basis:
                    assert all(k.coeffs[(a, ())] == 0 for a in range(spec.space.m)), (
                        spec.name, n, z,
                    )
                dims.append(v.kernel_dimension)
    assert 0 in dims and max(dims) >= 1


# -- persistence -------------------------------------------------------------------------


def test_persistence_sweep_e1():
    rep = persistence_sweep(_e1(), 1, _pt(0, 0, 1), through=4, samples=10, seed=3)
    assert rep.all_free
    assert rep.failures == []
    assert rep.lifts_checked == 30
    assert rep.skipped == 0


def test_persistence_sweep_e2_and_e3():
    rep = persistence_sweep(_e2(), 1, _pt(0, 0, 1), through=3, samples=8, seed=1)
    assert rep.all_free and rep.lifts_checked == 16
    rep = persistence_sweep(_e3(), 1, _pt(0, 3, 1), through=3, samples=8, seed=1)
    assert rep.all_free and rep.lifts_checked == 16


def test_persistence_requires_free_base():
    with pytest.raises(NotFreeAtBase):
        persistence_sweep(_e1(), 1, _pt(0, 0, 0), through=2, samples=5, seed=0)


def test_persistence_sweep_deterministic():
    a = persistence_sweep(_e1(), 1, _pt(0, 0, 1), through=3, samples=6, seed=17)
    b = persistence_sweep(_e1(), 1, _pt(0, 0, 1), through=3, samples=6, seed=17)
    assert a == b
    c = persistence_sweep(_e1(), 1, _pt(0, 0, 1), through=3, samples=6, seed=18)
    assert c.all_free and c != a


def test_persistence_sweep_needs_a_sample():
    for samples in (0, -3):
        with pytest.raises(PreconditionViolation):
            persistence_sweep(_e1(), 1, _pt(0, 0, 1), through=3, samples=samples, seed=0)


def test_persistence_sweep_all_skipped_is_inconclusive(monkeypatch):
    import jetfree.freeness as freeness

    real = freeness.local_freeness

    def singular_on_lifts(ps, n, z):
        if n > 1:
            raise CoefficientSingularity("forced singular lift")
        return real(ps, n, z)

    assert persistence_sweep(_e1(), 1, _pt(0, 0, 1), through=2, samples=2, seed=0).verdict == PERSISTS
    monkeypatch.setattr(freeness, "local_freeness", singular_on_lifts)
    rep = persistence_sweep(_e1(), 1, _pt(0, 0, 1), through=3, samples=4, seed=0)
    assert (rep.lifts_checked, rep.skipped, rep.failures) == (0, 8, [])
    assert rep.verdict == INCONCLUSIVE


def test_kernel_projection_lands_in_lower_kernel():
    # order-(n+1) kernel jets project into the order-n kernel
    ps = _e1()
    ctx = _ctx()
    for z in (_pt(0, 0, 0, 0), _pt(0, 0, 0, 2), _pt(1, 2, 0, "1/3")):
        v = local_freeness(ps, 2, z)
        lower = z.truncate(1)
        mat, _, cols = prolong_at_point(ctx, lower)
        for k in v.kernel_basis:
            proj = k.truncate(1)
            image = [
                sum((c * proj.coeffs[key] for c, key in zip(line, cols)), Fraction(0))
                for line in mat
            ]
            assert all(val == 0 for val in image)


# -- frozen total derivatives and kernel equations -----------------------------------------
#
# The symbolic build of the witness kernel, kept here as the oracle for
# witness_candidates, which reads the one-step lift block instead.


def frozen_total_derivative(e, i, z):
    """Total derivative along x^i with the first-order dependent slopes
    frozen at the point: D_{x^i} + sum_a u_(o,i)^a D_{u^a}."""
    space = z.space
    if not 0 <= i < space.p:
        raise PreconditionViolation(f"independent slot {i} out of range")
    if z.order < 1:
        raise PreconditionViolation("need the first-order slopes of the point")
    ctx = context_for(space)
    out = ctx.total_derivative(e, i)
    for al in range(space.q):
        u0 = z.u[(al, (i,))]
        out = out + ctx.const(u0) * ctx.total_derivative(e, space.p + al)
    return out


def kernel_equations(n, z):
    """Linear equations an order-(n+1) fiber jet vanishing to order n must
    satisfy to prolong to zero: all (n+1)-fold frozen total derivatives of
    the frozen characteristic components."""
    space = z.space
    ctx = context_for(space)
    ctx.ensure_vf(n + 1)
    out = []
    for al, J in jet_keys(space.q, space.p, n + 1, n + 1):
        e = ctx.expr(ctx.vf_var(space.p + al, ()))
        for j in range(space.p):
            e = e - ctx.const(z.u[(al, (j,))]) * ctx.expr(ctx.vf_var(j, ()))
        for i in J:
            e = frozen_total_derivative(e, i, z)
        out.append(e)
    return out


def test_frozen_total_derivative_on_base_coordinates():
    ctx = _ctx()
    z = _pt(0, 0, 2)
    x = ctx.expr(ctx.source_var(0))
    u = ctx.expr(ctx.source_var(1))
    assert frozen_total_derivative(x, 0, z) == ctx.const(1)
    assert frozen_total_derivative(u, 0, z) == ctx.const(2)


def test_frozen_total_derivative_on_field_jet():
    ctx = _ctx()
    z = _pt(0, 0, 2)
    zu = ctx.expr(ctx.vf_var(1, ()))
    expect = ctx.expr(ctx.vf_var(1, (0,))) + ctx.const(2) * ctx.expr(ctx.vf_var(1, (1,)))
    assert frozen_total_derivative(zu, 0, z) == expect


def test_kernel_equation_expansion_matches_hand_formula():
    # two frozen derivatives of zeta{u} - s*zeta{x} at slope s = 2
    ctx = _ctx()
    ctx.ensure_vf(2)
    z = _pt(0, 0, 2)
    (eq,) = kernel_equations(1, z)
    s = ctx.const(2)
    zf = lambda a, B: ctx.expr(ctx.vf_var(a, B))
    expect = (
        zf(1, (0, 0))
        + s * (zf(1, (0, 1)) + zf(1, (0, 1)))
        + s * s * zf(1, (1, 1))
        - s * zf(0, (0, 0))
        - s * s * (zf(0, (0, 1)) + zf(0, (0, 1)))
        - s * s * s * zf(0, (1, 1))
    )
    assert eq == expect


# -- witness mechanism --------------------------------------------------------------------


def test_witness_candidates_trivial_at_free_points():
    for n in (1, 2):
        z = _pt(0, 0, *([1] + [0] * n))
        assert witness_candidates(_e1(), n, z) == []


def test_witness_candidates_and_check_at_flat_point():
    z = _pt(0, 0, 0, 0)
    cands = witness_candidates(_e1(), 1, z)
    assert len(cands) == 1
    v = cands[0]
    assert all(val == 0 for (a, B), val in v.coeffs.items() if len(B) <= 1)
    report = witness_check(_e1(), 1, z, v)
    assert not report.projection_free
    assert not report.forced_zero
    labels = [lab for lab, _ in report.witnesses]
    assert labels == ["w_x", "what_x", "what_u"]


def test_witness_check_zero_candidate_passes():
    z = _pt(0, 0, 1, 0)
    coeffs = {
        (a, B): Fraction(0)
        for k in range(3)
        for a in range(2)
        for B in mi_enumerate(2, k)
    }
    from jetfree.prolong import VectorFieldJet

    v = VectorFieldJet(SP, 2, z.base, coeffs)
    report = witness_check(_e1(), 1, z, v)
    assert report.projection_free
    assert report.forced_zero


def _kernel_points(space, n, rng):
    """Seeded order-n points: free (every first-order slope nonzero), flat
    (every first-order slope zero) and unconstrained random points."""
    slopes = jet_keys(space.q, space.p, 1, 1)
    for kind in ("free", "flat", "random"):
        for _ in range(4):
            z = random_jet_point(space, n, rng, bound=5)
            for key in slopes:
                if kind == "flat":
                    z.u[key] = Fraction(0)
                elif kind == "free" and z.u[key] == 0:
                    z.u[key] = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 4))
            yield z


def _oracle_witness_kernel(problem, n, z):
    """Order-(n+1) fiber jets at z vanishing to order n that satisfy the
    kernel equations: the witness kernel built from symbolic equations."""
    rows, coords = evaluated_rows(problem, n + 1, z.base)
    for e in kernel_equations(n, z):
        rows.append([e.diff(vid).as_scalar() for _, _, vid in coords])
    for idx, (_, B, _) in enumerate(coords):
        if len(B) <= n:
            rows.append([Fraction(int(i == idx)) for i in range(len(coords))])
    return [{(a, B): c for (a, B, _), c in zip(coords, vec)} for vec in nullspace(rows, len(coords))]


def _lift_block_kernel(problem, n, z):
    """Kernel, in K_{n+1}, of the one-step lift block _lift_verdict ranks."""
    ctx = context_for(problem.space)
    K = problem.vanishing_columns(n, n + 1, z.base)
    block = _products(ctx.phihat_plan(n + 1, above=n).evaluate(_point_env(ctx, z)), K)
    return [combine_columns(K, vec) for vec in nullspace(block, len(K))]


def test_witness_kernel_is_the_lift_block_kernel():
    # the kernel equations and the lift step's block are two builds of the
    # paper's obstruction to persistence: their kernels are one space
    rng = random.Random(17)
    p2 = parse_spec(SpecSource.from_file(Path(__file__).parent / "specs" / "p2.psg"))[0]
    cases = [(parse_spec(load_bundled_spec(name))[0], 1) for name in ("e1", "e2", "e3")]
    cases.append((p2, 0))
    dims = []
    for spec, extra in cases:
        problem = FreenessProblem.of(spec)
        keys = jet_keys(spec.space.m, spec.space.m, 0, spec.effective_order + extra + 1)
        for n in range(spec.effective_order, spec.effective_order + extra + 1):
            for z in _kernel_points(spec.space, n + 1, rng):
                bases = (
                    [c.coeffs for c in witness_candidates(problem, n, z)],
                    _oracle_witness_kernel(problem, n, z),
                    _lift_block_kernel(problem, n, z),
                )
                vectors = [[v.get(key, 0) for key in keys] for v in bases[0]]
                dim = len(vectors)
                for basis in bases[1:]:
                    other = [[v.get(key, 0) for key in keys] for v in basis]
                    assert rank(other) == dim == rank(vectors) == rank(vectors + other), (
                        spec.name, n, z,
                    )
                dims.append(dim)
    assert len(dims) >= 80
    assert {0, 1, 2} <= set(dims)


def test_witness_check_rejects_bad_candidates():
    from jetfree.prolong import VectorFieldJet

    z = _pt(0, 0, 0, 0)
    coeffs = {
        (a, B): Fraction(0)
        for k in range(3)
        for a in range(2)
        for B in mi_enumerate(2, k)
    }
    coeffs[(0, ())] = Fraction(1)  # nonzero low-order part
    with pytest.raises(PreconditionViolation):
        witness_check(_e1(), 1, z, VectorFieldJet(SP, 2, z.base, coeffs))
    coeffs[(0, ())] = Fraction(0)
    coeffs[(1, (0, 0))] = Fraction(1)  # violates zeta{u} = 0
    with pytest.raises(PreconditionViolation):
        witness_check(_e1(), 1, z, VectorFieldJet(SP, 2, z.base, coeffs))


def test_witness_check_rejects_a_fiber_jet_off_the_kernel():
    # a nonzero fiber jet vanishing to order 1 at a free point: it passes
    # the fiber and vanishing checks, so only the kernel condition rejects it
    from jetfree.prolong import VectorFieldJet

    problem = FreenessProblem.of(_e1())
    z = _pt(0, 0, 2, 1)
    (column,) = problem.vanishing_columns(1, 2, z.base)
    coeffs = dict.fromkeys(jet_keys(SP.m, SP.m, 0, 2), Fraction(0))
    coeffs.update(column)
    v = VectorFieldJet(SP, 2, z.base, coeffs)
    assert not v.is_zero()
    with pytest.raises(PreconditionViolation, match="candidate.*kernel"):
        witness_check(problem, 1, z, v)


# -- top-order stabilizer ------------------------------------------------------------------


def test_top_order_stabilizer_free_points():
    st = top_order_stabilizer(_e1(), 2, _pt(0, 0, 1, 0, 0))
    assert st.dimension == 0
    st = top_order_stabilizer(_e1(), 2, _pt(0, 0, 2, 5, "1/3"))
    assert st.dimension == 0


def test_top_order_stabilizer_flat_point():
    st = top_order_stabilizer(_e1(), 2, _pt(0, 0, 0, 0, 0))
    assert st.dimension > 0
    # every null vector keeps the dependent component rigid
    for vec in st.basis:
        assert all(val == 0 for (a, B), val in vec.items() if a == 1)


def test_top_order_stabilizer_e2():
    st = top_order_stabilizer(_e2(), 2, _pt(0, 0, 1, 0, 0))
    assert st.dimension == 0


# -- triangular isotropy -------------------------------------------------------------------


def test_isotropy_trivial_at_generic_slope():
    rep = isotropy_jets_triangular(_e1(), 1, _pt(0, 0, 1))
    assert rep.status == TRIVIAL
    assert rep.stages[0] == {"X": Fraction(0), "U": Fraction(0)}
    assert rep.stages[1]["X.x"] == Fraction(1)
    assert rep.stages[1]["X.u"] == Fraction(0)


def test_isotropy_trivial_second_order():
    rep = isotropy_jets_triangular(_e1(), 2, _pt(0, 0, 1, 0))
    assert rep.status == TRIVIAL
    assert rep.stages[2]["X.xx"] == Fraction(0)


def test_isotropy_nontrivial_at_flat_slope():
    rep = isotropy_jets_triangular(_e1(), 1, _pt(0, 0, 0))
    assert rep.status == NONTRIVIAL
    g = rep.witness
    assert g is not None
    assert g.coeffs[(0, (0,))] != Fraction(1)
    from jetfree.prolong import act_on_jet

    assert act_on_jet(g, _pt(0, 0, 0)) == _pt(0, 0, 0)


def test_isotropy_undecided_on_nonaffine_stage():
    ctx = _ctx()
    Xx = ctx.expr(ctx.target_var(0, (0,)))
    Xu = ctx.expr(ctx.target_var(0, (1,)))
    U = ctx.expr(ctx.target_var(1, ()))
    u = ctx.expr(ctx.source_var(1))
    ps = PseudogroupSpec(
        SP, 1, determining=(Xx * Xx - ctx.const(1), Xu, U - u), name="quad"
    )
    rep = isotropy_jets_triangular(ps, 1, _pt(0, 0, 1))
    assert rep.status == UNDECIDED


def test_trivial_isotropy_persists_on_lifts():
    rng = random.Random(23)
    base = _pt(0, 0, 1, 0)
    assert isotropy_jets_triangular(_e1(), 2, base).status == TRIVIAL
    for _ in range(3):
        lift = lift_jet_point(base, 1, rng)
        assert isotropy_jets_triangular(_e1(), 3, lift).status == TRIVIAL


def test_trivial_isotropy_implies_local_freeness():
    # a trivial isotropy group at z^(n) leaves no isotropy algebra, so the
    # action is locally free there: the implication between global and
    # local freeness, checked on the staged isotropy solve
    rng = random.Random(11)
    for name in ("e1", "e2", "e3"):
        spec, _ = parse_spec(load_bundled_spec(name))
        problem = FreenessProblem.of(spec)
        trivial = 0
        for n in range(4):
            for i in range(12):
                z = random_jet_point(spec.space, n, rng, bound=5)
                if n >= 1 and i % 2:
                    z.u[(0, (0,))] = Fraction(0)
                if isotropy_jets_triangular(spec, n, z).status == TRIVIAL:
                    trivial += 1
                    assert local_freeness(problem, n, z).is_free, (name, z)
        assert trivial > 0, name
