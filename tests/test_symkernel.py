"""Exact rational-function kernel: canonical form, arithmetic, calculus."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetfree.errors import DivisionByZero, UnboundVariable, UnknownVariable
from jetfree.jetspace import JetContext, SpaceSpec
from jetfree.symkernel import Expr, VarRegistry, _poly_subst, poly_gcd


def _ctx():
    reg = VarRegistry()
    vids = {n: reg.register(n) for n in ("x", "u", "z", "t", "zeta", "Z", "w")}
    return reg, vids


def _var(reg, vids, name):
    return Expr.var(reg, vids[name])


def test_add_cancels_to_zero():
    reg, v = _ctx()
    x = _var(reg, v, "x")
    assert (x + (-x)).is_zero()


def test_quotient_reduces_to_polynomial():
    reg, v = _ctx()
    x = _var(reg, v, "x")
    one = Expr.const(reg, 1)
    e = (x * x - one) / (x - one)
    assert e == x + one
    assert e.is_polynomial()


def test_mul_by_reciprocal_cancels():
    reg, v = _ctx()
    x = _var(reg, v, "x")
    u = _var(reg, v, "u")
    assert (u * x) * (Expr.const(reg, 1) / x) == u


def test_power_rule():
    reg, v = _ctx()
    x = _var(reg, v, "x")
    assert (x**5).diff(v["x"]) == 5 * x**4


def test_quotient_rule():
    reg, v = _ctx()
    x = _var(reg, v, "x")
    u = _var(reg, v, "u")
    assert (u / x).diff(v["x"]) == -u / (x * x)
    assert (u / x).diff(v["u"]) == 1 / x


def test_linearization_pattern():
    # substitute Z -> z + t*zeta into Z^2, differentiate in t, set t = 0
    reg, v = _ctx()
    z = _var(reg, v, "z")
    t = _var(reg, v, "t")
    zeta = _var(reg, v, "zeta")
    Z = _var(reg, v, "Z")
    e = (Z * Z).subst({v["Z"]: z + t * zeta})
    lin = e.diff(v["t"]).subst({v["t"]: Expr.const(reg, 0)})
    assert lin == 2 * z * zeta


def test_subst_into_rational():
    reg, v = _ctx()
    x = _var(reg, v, "x")
    one = Expr.const(reg, 1)
    e = one / (one + x)
    assert e.subst({v["x"]: one / x}) == x / (x + one)


def test_eval_exact():
    reg, v = _ctx()
    x = _var(reg, v, "x")
    e = x * x + 1
    assert e.eval({v["x"]: Fraction(3, 2)}) == Fraction(13, 4)


def test_eval_pole_raises():
    reg, v = _ctx()
    x = _var(reg, v, "x")
    with pytest.raises(DivisionByZero):
        (1 / x).eval({v["x"]: Fraction(0)})


def test_eval_unbound_raises():
    reg, v = _ctx()
    x = _var(reg, v, "x")
    u = _var(reg, v, "u")
    with pytest.raises(UnboundVariable):
        (x + u).eval({v["x"]: Fraction(1)})


def test_division_by_zero_expr_raises():
    reg, v = _ctx()
    x = _var(reg, v, "x")
    zero = x - x
    with pytest.raises(DivisionByZero):
        x / zero


def test_unknown_variable_raises():
    reg, _ = _ctx()
    with pytest.raises(UnknownVariable):
        Expr.var(reg, 99)


def test_negative_power_inverts():
    reg, v = _ctx()
    x = _var(reg, v, "x")
    assert x**-2 == 1 / (x * x)
    assert (x**-2) * (x**2) == 1


def test_eval_float_matches_exact():
    reg, v = _ctx()
    x = _var(reg, v, "x")
    u = _var(reg, v, "u")
    e = (x * x + 3 * u) / (u - 1)
    pt = {v["x"]: Fraction(1, 3), v["u"]: Fraction(5, 2)}
    exact = float(e.eval(pt))
    approx = e.eval_float({k: float(q) for k, q in pt.items()})
    assert abs(exact - approx) < 1e-12


def test_eval_float_ignores_how_the_expression_was_built():
    """Canonically equal expressions built in different operation orders
    hold their terms in different dict orders; float evaluation must give
    the same bits for both.  Summed in dict order, x + w + u and
    u + x + w differ at x = 1e16, u = 1, w = -1e16."""
    reg, v = _ctx()
    x, u, w = (_var(reg, v, name) for name in ("x", "u", "w"))
    a = (x + w + u) / (u * u + x)
    b = (u + (x + w)) / (x + u * u)
    assert a == b and list(a.num) != list(b.num)
    pt = {v["x"]: 1e16, v["u"]: 1.0, v["w"]: -1e16}
    assert a.eval_float(pt).hex() == b.eval_float(pt).hex()


def test_subst_partial_leaves_others_formal():
    reg, v = _ctx()
    x = _var(reg, v, "x")
    u = _var(reg, v, "u")
    e = (x + u).subst({v["x"]: Expr.const(reg, 2)})
    assert e == u + 2


def test_printing_is_deterministic():
    reg, v = _ctx()
    x = _var(reg, v, "x")
    u = _var(reg, v, "u")
    e = (u + x * x - 1) / (x - u)
    assert str(e) == str((u + x * x - 1) / (x - u))
    assert str(Expr.const(reg, 0)) == "0"
    assert str(x - x) == "0"


def test_poly_gcd_shared_factor():
    reg, v = _ctx()
    x = _var(reg, v, "x")
    u = _var(reg, v, "u")
    a = ((x + u) * (x - u) * (x + 1)).num
    b = ((x + u) * (x + 2)).num
    g = poly_gcd(a, b)
    assert g == (x + u).num


def test_poly_gcd_coprime():
    reg, v = _ctx()
    x = _var(reg, v, "x")
    u = _var(reg, v, "u")
    assert poly_gcd((x + 1).num, (u + 2).num) == {(): Fraction(1)}


# ---------------------------------------------------------------------------
# randomized algebraic properties

_REG = VarRegistry()
_VIDS = [_REG.register(n) for n in ("x", "y", "z")]


@st.composite
def exprs(draw, depth=0):
    if depth >= 3:
        kind = draw(st.sampled_from(["const", "var"]))
    else:
        kind = draw(st.sampled_from(["const", "var", "add", "mul", "sub"]))
    if kind == "const":
        return Expr.const(_REG, Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3))))
    if kind == "var":
        return Expr.var(_REG, draw(st.sampled_from(_VIDS)))
    a = draw(exprs(depth=depth + 1))
    b = draw(exprs(depth=depth + 1))
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    return a * b


@st.composite
def nonzero_exprs(draw):
    e = draw(exprs())
    if e.is_zero():
        e = e + Expr.const(_REG, draw(st.integers(1, 5)))
    return e


@settings(max_examples=60, deadline=None)
@given(exprs(), exprs(), exprs())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(exprs(), nonzero_exprs())
def test_field_inverse(a, b):
    assert (a / b) * b == a
    assert a - a == Expr.const(_REG, 0)


@settings(max_examples=60, deadline=None)
@given(exprs(), nonzero_exprs(), nonzero_exprs())
def test_quotient_canonical_equality(a, b, c):
    # same rational function through different routes must be identical
    assert (a * c) / (b * c) == a / b


@settings(max_examples=60, deadline=None)
@given(exprs())
def test_mixed_partials_commute(e):
    x, y = _VIDS[0], _VIDS[1]
    assert e.diff(x).diff(y) == e.diff(y).diff(x)


@settings(max_examples=40, deadline=None)
@given(exprs(), st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
def test_eval_subst_composition(e, px, py, pz):
    # evaluating a substituted expression equals evaluating at composed point
    x, y, z = _VIDS
    sub = {x: Expr.var(_REG, y) + 1}
    pt = {x: Fraction(px), y: Fraction(py), z: Fraction(pz)}
    composed = dict(pt)
    composed[x] = pt[y] + 1
    assert e.subst(sub).eval(pt) == e.eval(composed)


@settings(max_examples=40, deadline=None)
@given(exprs(), exprs())
def test_diff_is_derivation(a, b):
    x = _VIDS[0]
    assert (a * b).diff(x) == a.diff(x) * b + a * b.diff(x)
    assert (a + b).diff(x) == a.diff(x) + b.diff(x)


# -- constant substitution against the general path -------------------------------

_SUBST_VALUES = (
    Fraction(0),
    Fraction(-1),
    Fraction(-7, 3),
    Fraction(5, 2),
    Fraction(1, 10**12 + 39),
    Fraction(-(10**9 + 7), 10**15 + 37),
)


def _jet_registry():
    ctx = JetContext(SpaceSpec(("x", "y"), ("u",)))
    ctx.ensure_target(2)
    ctx.ensure_sub(2)
    return ctx.reg, list(range(len(ctx.reg)))


def _random_poly(rng, reg, vids):
    e = Expr.const(reg, rng.choice((0, 1, -2, Fraction(3, 4))))
    for _ in range(rng.randint(1, 6)):
        term = Expr.const(reg, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        for vid in rng.sample(vids, rng.randint(0, 3)):
            term = term * Expr.var(reg, vid) ** rng.randint(1, 3)
        e = e + term
    return e


def _oracle_subst(e, bindings):
    """The general substitution: numerator and denominator substituted
    term by term through Expr arithmetic, then divided."""
    relevant = {v: b for v, b in bindings.items() if v in e.variables()}
    if not relevant:
        return e
    den = _poly_subst(e.den, relevant, e.reg)
    if den.is_zero():
        raise DivisionByZero("denominator vanishes identically after substitution")
    return _poly_subst(e.num, relevant, e.reg) / den


@pytest.mark.parametrize("seed", range(12))
def test_constant_subst_matches_the_general_path(seed):
    rng = random.Random(seed)
    reg, vids = _jet_registry()
    for _ in range(25):
        e = _random_poly(rng, reg, vids)
        if rng.random() < 0.4:
            den = _random_poly(rng, reg, vids)
            if den.is_zero():
                continue
            e = e / den
        used = sorted(e.variables())
        for picked in (rng.sample(used, rng.randint(0, len(used))), used, vids):
            bindings = {v: Expr.const(reg, rng.choice(_SUBST_VALUES)) for v in picked}
            try:
                want = _oracle_subst(e, bindings)
            except DivisionByZero:
                with pytest.raises(DivisionByZero):
                    e.subst(bindings)
                continue
            got = e.subst(bindings)
            assert got == want
            # same terms in the same order, so everything downstream is unchanged
            assert list(got.num.items()) == list(want.num.items())
            assert list(got.den.items()) == list(want.den.items())


def test_constant_subst_into_a_vanishing_denominator_raises():
    reg, v = _ctx()
    x, u = _var(reg, v, "x"), _var(reg, v, "u")
    e = (x + 1) / (x * x - u)
    with pytest.raises(DivisionByZero):
        e.subst({v["x"]: Expr.const(reg, 3), v["u"]: Expr.const(reg, 9)})
    with pytest.raises(DivisionByZero):
        (1 / (x - u)).subst({v["x"]: Expr.const(reg, Fraction(-2, 7)), v["u"]: Expr.const(reg, Fraction(-2, 7))})


def test_constant_subst_into_a_polynomial_keeps_unbound_variables():
    reg, v = _ctx()
    x, u, z = _var(reg, v, "x"), _var(reg, v, "u"), _var(reg, v, "z")
    e = x * x * u - 3 * x * z + u
    got = e.subst({v["x"]: Expr.const(reg, -2), v["w"]: Expr.const(reg, 5)})
    assert got == 4 * u + 6 * z + u and got.is_polynomial()
    assert (x - x * u).subst({v["u"]: Expr.const(reg, 1)}).is_zero()
    # a non-constant binding takes the general path
    assert e.subst({v["x"]: u, v["z"]: Expr.const(reg, 0)}) == u**3 + u
    # so does a constant of another registry, which that path refuses
    other, _ = _ctx()
    with pytest.raises(UnknownVariable):
        e.subst({v["x"]: Expr.const(other, 2)})
