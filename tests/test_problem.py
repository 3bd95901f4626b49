"""FreenessProblem reuse against the full per-point recomputation.

The oracle rebuilds everything for each point: a fresh fiber basis from
the declared system and the dense prolong_at_point matrix times that
basis.  Verdicts, fiber dimensions, restricted matrices and kernel bases
computed through one reused FreenessProblem must agree with it exactly,
including the verdicts the problem decides order by order on one-step
blocks at lifts of points it recorded as free.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from jetfree.detsys import (
    FreenessProblem,
    declared_linear_system,
    fiber_basis,
    prolong_determining_system,
    prolong_linear_system,
)
from jetfree.dsl import SpecSource, load_bundled_spec, parse_spec
import jetfree.freeness as freeness
from jetfree.freeness import (
    LOCALLY_FREE,
    NOT_LOCALLY_FREE,
    PERSISTS,
    _lift_verdict,
    local_freeness,
    persistence_sweep,
    prolongation_matrix,
)
from jetfree.jetspace import mi_enumerate
from jetfree.linalg import nullspace
from jetfree.prolong import SubmanifoldJetPoint, context_for, prolong_at_point
from jetfree.sampling import lift_jet_point

P2 = Path(__file__).parent / "specs" / "p2.psg"


def _spec(name):
    """A freshly parsed spec: nothing of it is shared with earlier calls."""
    src = SpecSource.from_file(P2) if name == "p2" else load_bundled_spec(name)
    spec, diags = parse_spec(src)
    assert spec is not None and not diags, name
    return spec


def _rational(rng, nonzero=False):
    while True:
        v = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        if v or not nonzero:
            return v


def _point(name, space, n, rng, free):
    """Seeded order-n point.  The closed-form freeness condition is u_x != 0
    for e1 and e2, u != 0 for e3, u_x u_y != 0 for p2.  Non-free points
    zero u_x (e1, p2), u (e3), or every jet of order >= 1 (e2)."""
    u = {(0, J): _rational(rng) for k in range(n + 1) for J in mi_enumerate(space.p, k)}
    tested = {"e3": [()], "p2": [(0,), (1,)]}.get(name, [(0,)])
    if free:
        for J in tested:
            u[(0, J)] = _rational(rng, nonzero=True)
    elif name == "e2":
        u = {key: (v if not key[1] else Fraction(0)) for key, v in u.items()}
    else:
        u[(0, tested[0])] = Fraction(0)
    x = tuple(_rational(rng) for _ in range(space.p))
    return SubmanifoldJetPoint(space, n, x, u)


def _oracle(spec, n, z):
    """(fiber dimension, restricted matrix, kernel basis coefficients),
    recomputed in full with the dense matrix."""
    ctx = context_for(spec.space)
    basis = fiber_basis(declared_linear_system(spec), n, z.base)
    mat, _, cols = prolong_at_point(ctx, z)
    entries = [
        [sum((c * elem.coeffs[key] for c, key in zip(line, cols)), Fraction(0)) for elem in basis.elements]
        for line in mat
    ]
    kernel = []
    for vec in nullspace(entries, basis.dimension):
        coeffs = {key: Fraction(0) for key in basis.elements[0].coeffs}
        for c, elem in zip(vec, basis.elements):
            for key, val in elem.coeffs.items():
                coeffs[key] += c * val
        kernel.append(coeffs)
    return basis.dimension, entries, kernel


def _assert_agrees(spec, problem, n, z):
    fdim, entries, kernel = _oracle(spec, n, z)
    assert prolongation_matrix(problem, n, z).entries == entries
    v = local_freeness(problem, n, z)
    assert v.fiber_dimension == fdim
    assert [w.coeffs for w in v.kernel_basis] == kernel
    assert v.verdict == (LOCALLY_FREE if not kernel else NOT_LOCALLY_FREE)
    assert v.orbit_dimension == fdim - len(kernel)
    return v


CASES = [("e1", 1, 3), ("e2", 2, 3), ("e3", 1, 3), ("p2", 1, 2)]


@pytest.mark.parametrize("name,low,high", CASES)
def test_reused_problem_matches_full_recomputation(name, low, high):
    spec = _spec(name)
    rng = random.Random(f"problem:{name}")
    problem = FreenessProblem.of(spec)
    verdicts = set()
    for free in (True, False):
        for _ in range(3):
            z = _point(name, spec.space, low, rng, free)
            base = _assert_agrees(spec, problem, low, z)
            verdicts.add(base.verdict)
            for order in range(low + 1, high + 1):
                for _ in range(2):
                    lift = lift_jet_point(z, order - low, rng, 6)
                    verdicts.add(_assert_agrees(spec, problem, order, lift).verdict)
    assert verdicts == {LOCALLY_FREE, NOT_LOCALLY_FREE}


@pytest.mark.parametrize("name,low,high", CASES)
def test_reused_problem_matches_fresh_problem_per_lift(name, low, high):
    spec = _spec(name)
    rng = random.Random(f"lifts:{name}")
    shared = FreenessProblem.of(spec)
    for free in (True, False):
        z = _point(name, spec.space, low, rng, free)
        for order in range(low, high + 1):
            for _ in range(4):
                lift = lift_jet_point(z, order - low, rng, 6)
                a = local_freeness(shared, order, lift)
                b = local_freeness(FreenessProblem.of(spec), order, lift)
                # lifts of a non-free point may be free (e2 at order 3)
                assert a.verdict == b.verdict
                assert a.fiber_dimension == b.fiber_dimension
                assert [w.coeffs for w in a.kernel_basis] == [w.coeffs for w in b.kernel_basis]
            # every lift of z shares the fiber of its base point
            assert shared.fiber(order, z.base) is shared.fiber(order, lift.base)


def test_problem_prolongs_each_order_once():
    spec = _spec("e1")
    problem = FreenessProblem.of(spec)
    assert FreenessProblem.of(problem) is problem
    system = problem.system
    assert system.prolonged(3) is system.prolonged(3)
    assert system.prolonged(0) is system.prolonged(system.order)
    assert FreenessProblem.of(system).system is system
    # the spec owns its system, so every problem of the spec shares it
    assert FreenessProblem.of(spec).system is system


@pytest.mark.parametrize("name,low,high", CASES)
def test_block_lift_verdicts_match_full_recomputation(name, low, high):
    """Lifts of a recorded free point are decided order by order on the
    one-step blocks, with no fallback, and agree with the oracle; each
    step is ranked once per base point, however many lifts reach it.
    The lifts go three orders up, past the other tests' top order high."""
    spec = _spec(name)
    rng = random.Random(f"block:{name}")
    problem = FreenessProblem.of(spec)
    top = low + 3
    assert top > high
    points = 3
    for _ in range(points):
        z = _point(name, spec.space, low, rng, free=True)
        assert local_freeness(problem, low, z).is_free
        for order in range(low + 1, top + 1):
            # e2's fiber dimension does not grow with the order: K is {0}
            K = problem.vanishing_columns(order - 1, order, z.base)
            assert (len(K) == 0) == (name == "e2")
            steps = problem.lift_steps(low, order, z.base)
            assert [j for j, _ in steps] == ([] if name == "e2" else list(range(low + 1, order + 1)))
            for _ in range(2):
                lift = lift_jet_point(z, order - low, rng, 6)
                block = _lift_verdict(problem, order, lift)
                assert block is not None
                fdim, _, kernel = _oracle(spec, order, lift)
                assert kernel == []
                assert block.verdict == LOCALLY_FREE
                assert (block.fiber_dimension, block.kernel_dimension, block.orbit_dimension) == (fdim, 0, fdim)
                assert block.kernel_basis == []
                assert block.point == lift.truncate(order)
                assert local_freeness(problem, order, lift) == block
    assert len(problem._steps) == (0 if name == "e2" else points * (top - low))


@pytest.mark.parametrize("name", ["e1", "p2"])
def test_step_verdicts_are_keyed_on_the_first_order_jets(name):
    """A kept step verdict is reused only at the same first-order jet: a
    point with the base of a free point but u.x = 0 (u.x = u.y = 0 on p2),
    recorded free by hand, gets the full path's kernel at its lifts."""
    spec = _spec(name)
    rng = random.Random(f"memo:{name}")
    problem = FreenessProblem.of(spec)
    z = _point(name, spec.space, 1, rng, free=True)
    assert local_freeness(problem, 1, z).is_free
    for order in (2, 3, 4):
        lift = lift_jet_point(z, order - 1, rng, 6)
        assert _assert_agrees(spec, problem, order, lift).is_free
    assert problem._steps
    zero = {key: (Fraction(0) if len(key[1]) == 1 else v) for key, v in z.u.items()}
    bad = SubmanifoldJetPoint(spec.space, 1, z.x, zero)
    assert bad.base == z.base
    assert not local_freeness(problem, 1, bad).is_free
    problem.record_free(bad)
    for order in (2, 3, 4):
        lift = lift_jet_point(bad, order - 1, rng, 6)
        assert _lift_verdict(problem, order, lift) is None
        assert _assert_agrees(spec, problem, order, lift).verdict == NOT_LOCALLY_FREE


@pytest.mark.parametrize("name,low", [("e1", 1), ("e3", 1), ("p2", 1)])
def test_block_with_a_kernel_falls_back_to_the_full_matrix(name, low):
    """A non-free point recorded as free: the block has a kernel at its
    lifts, and the verdict is the full path's, kernel basis included."""
    spec = _spec(name)
    rng = random.Random(f"fallback:{name}")
    problem = FreenessProblem.of(spec)
    z = _point(name, spec.space, low, rng, free=False)
    assert not local_freeness(problem, low, z).is_free
    problem.record_free(z)
    assert problem.free_truncation(z, low + 1) == low
    for order in (low + 1, low + 2):
        lift = lift_jet_point(z, order - low, rng, 6)
        assert _lift_verdict(problem, order, lift) is None
        v = _assert_agrees(spec, problem, order, lift)
        assert v.verdict == NOT_LOCALLY_FREE
        assert v.point == lift


def test_free_truncation_needs_a_lower_order_record():
    spec = _spec("e1")
    rng = random.Random("records")
    problem = FreenessProblem.of(spec)
    z = _point("e1", spec.space, 1, rng, free=True)
    lift = lift_jet_point(z, 2, rng, 6)
    assert problem.free_truncation(lift, 3) is None
    local_freeness(problem, 1, z)
    assert problem.free_truncation(lift, 3) == 1
    assert problem.free_truncation(lift, 1) is None
    assert problem.free_truncation(z, 2) == 1
    other = lift_jet_point(_point("e1", spec.space, 1, rng, free=True), 2, rng, 6)
    assert problem.free_truncation(other, 3) is None
    # a recorded order-2 lift is the highest free truncation of its own lifts
    local_freeness(problem, 2, lift)
    assert problem.free_truncation(lift, 3) == 2


@pytest.mark.parametrize("name,low", [("e1", 1), ("e2", 2), ("e3", 1), ("p2", 1)])
def test_sweep_calls_local_freeness_once_per_point(monkeypatch, name, low):
    spec = _spec(name)
    calls = []
    real = freeness.local_freeness

    def counted(ps, n, z):
        calls.append(n)
        return real(ps, n, z)

    monkeypatch.setattr(freeness, "local_freeness", counted)
    rng = random.Random(f"sweep:{name}")
    z = _point(name, spec.space, low, rng, free=True)
    rep = persistence_sweep(spec, low, z, low + 2, 3, 5, bound=6)
    assert rep.verdict == PERSISTS
    assert len(calls) == 1 + rep.lifts_checked + rep.skipped
    assert calls[0] == low and sorted(calls[1:]) == calls[1:]


# -- work shared through one spec --------------------------------------------------------


def _fresh_fiber(system, n, z0):
    """Fiber basis coefficients at z0 from the equations of a freshly
    prolonged system, each coefficient taken by differentiation."""
    ctx = context_for(system.space)
    coords = ctx.vf_coords(n)
    env = {ctx.source_var(a): z0[a] for a in range(system.space.m)}
    matrix = [[e.diff(vid).eval(env) for _, _, vid in coords] for e in system.equations]
    return [
        {(a, B): vec[i] for i, (a, B, _) in enumerate(coords)}
        for vec in nullspace(matrix, len(coords))
    ]


SHARED_CASES = [("e1", 1, 5), ("e2", 2, 5), ("e3", 1, 5), ("p2", 1, 4)]


@pytest.mark.parametrize("name,low,high", SHARED_CASES)
def test_shared_spec_work_matches_a_fresh_build(name, low, high):
    """Rows, equations, fibers and verdicts taken from one spec, shared by
    every order and point, equal a parse -> declared_linear_system ->
    prolong_linear_system build made afresh for each; its determining
    closures equal a fresh prolong_determining_system."""
    shared = _spec(name)
    rng = random.Random(f"shared:{name}")
    points = [_point(name, shared.space, high, rng, free) for free in (True, True, False)]
    for n in range(low, high + 1):
        L = declared_linear_system(_spec(name))
        fresh = prolong_linear_system(L, n - L.order)
        system = shared.linear_system
        assert system.prolonged(n).rows == fresh.rows
        assert system.rows_through(n) == list(fresh.rows)
        assert system.equations_through(n) == list(fresh.equations)
        closure = prolong_determining_system(_spec(name), n - shared.effective_order)
        ctx = context_for(shared.space)
        for k, eqs in shared.determining_closure(n).items():
            assert list(eqs) == [e for e in closure if max(ctx.max_order(e, "target"), 0) == k]
        assert sum(map(len, shared.determining_closure(n).values())) == len(closure)
        for z in points:
            zn = z.truncate(n)
            problem = FreenessProblem.of(shared)
            assert [v.coeffs for v in problem.fiber(n, zn.base).elements] == _fresh_fiber(fresh, n, zn.base)
            a = local_freeness(shared, n, zn)
            b = local_freeness(declared_linear_system(_spec(name)), n, zn)
            assert (a.verdict, a.fiber_dimension, a.orbit_dimension) == (b.verdict, b.fiber_dimension, b.orbit_dimension)
            assert [w.coeffs for w in a.kernel_basis] == [w.coeffs for w in b.kernel_basis]
    assert FreenessProblem.of(shared).system is shared.linear_system
    samples = 1 if name == "p2" else 2
    for seed, z in enumerate(points[:2]):
        zl = z.truncate(low)
        a = persistence_sweep(shared, low, zl, high, samples, seed, bound=6)
        b = persistence_sweep(declared_linear_system(_spec(name)), low, zl, high, samples, seed, bound=6)
        assert (a.verdict, a.lifts_checked, a.skipped) == (b.verdict, b.lifts_checked, b.skipped)
        assert a.verdict == PERSISTS


def _state_shape(obj):
    """Each attribute of obj: the keys of a dict, else the object itself."""
    return {name: (frozenset(v) if isinstance(v, dict) else id(v)) for name, v in vars(obj).items()}


def test_problems_of_one_spec_share_no_point_state():
    """Problems of one spec share its system and prolongations, but each
    keeps its own fibers, vanishing fibers, free records, lift steps and
    step verdicts; deciding a new point adds nothing to the spec or
    system."""
    spec = _spec("e1")
    rng = random.Random("isolation")
    z = _point("e1", spec.space, 1, rng, free=True)
    lift = lift_jet_point(z, 2, rng, 6)
    a, b = FreenessProblem.of(spec), FreenessProblem.of(spec)
    assert a is not b and a.system is b.system
    assert local_freeness(a, 1, z).is_free
    assert local_freeness(a, 3, lift).is_free
    assert a.free_truncation(lift, 3) == 1 and a._vanishing and a._steps
    assert b.free_truncation(lift, 3) is None
    assert not (b._fibers or b._vanishing or b._free or b._lift_steps or b._steps)
    shapes = (_state_shape(spec), _state_shape(spec.linear_system))
    assert local_freeness(b, 1, z).is_free
    assert b.fiber(1, z.base) is not a.fiber(1, z.base)
    assert b.fiber(1, z.base).elements == a.fiber(1, z.base).elements
    other = _point("e1", spec.space, 1, rng, free=True)
    assert local_freeness(b, 1, other).is_free
    assert local_freeness(b, 3, lift_jet_point(other, 2, rng, 6)).is_free
    assert b._steps and not (b._steps.keys() & a._steps.keys())
    assert (_state_shape(spec), _state_shape(spec.linear_system)) == shapes
