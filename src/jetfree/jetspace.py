"""Coordinate bookkeeping on jet spaces.

A :class:`SpaceSpec` splits the base coordinates z = (x, u) into p
independent and q dependent variables.  A :class:`JetContext` owns one
variable registry holding four families of jet coordinates:

* source coordinates z^a (names as declared),
* diffeomorphism target jets Z^a_B, named ``X``, ``U.xu``, ... with the
  suffix letters naming the source slots differentiated against,
* submanifold jets u^alpha_J, named ``u.xx``, ... with J ranging over
  independent slots only,
* vector-field component jets zeta^a_B, named ``zeta{x}.xu``, ...

Multi-indices are stored as nondecreasing tuples of source-slot numbers,
so the symmetry of mixed partials is structural.  The jet-key table
:func:`jet_keys` is the one place that decides the order of jet
coordinates: order first, then component, then multi-index.  Variable
registration, the columns of every fiber and null space, the keys a jet
must hold, and every report read it.  Jet orders are capped:
``ensure_*`` registers coordinates up to a requested order (append-only,
so existing expressions stay valid) and the derivative operators fail
with :class:`~jetfree.errors.OrderCapExceeded` past the cap.

A coordinate of the submanifold jet space J^n is keyed ("x", i) for x^i
or ("u", alpha, J) for u^alpha_J (:data:`CoordKey`).
:meth:`JetContext.jn_table` is the one place that decides the
coordinates of J^n: their row order, printed names and variables.  It
and the per-coordinate reads next to it (:func:`coord_order`,
:func:`coord_value`, the moved coordinate of the prolonged action and
the general prolonged field's component) are the only code that tells
an x key from a u key.

The context also provides the three derivative operators used
throughout: the total derivative D_{z^b} on diffeomorphism/vector-field
jets, the lifted total derivative that additionally moves submanifold
jets along the contact structure, and the invariant total derivative
obtained by contracting with the exact inverse of the total Jacobian
matrix.  The contexts are shared per space (:func:`context_for`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement
from math import comb, lcm
from typing import Mapping

from .errors import OrderCapExceeded, PreconditionViolation, UnboundVariable
from .linalg import expr_inverse
from .symkernel import Expr, Mono, VarRegistry

MultiIndex = tuple[int, ...]
# (component, multi-index) of one jet coordinate
JetKey = tuple[int, MultiIndex]
# a coordinate of J^n: ("x", i) for x^i, ("u", alpha, J) for u^alpha_J
CoordKey = tuple
# one linear form sum_J c_J zeta_J: its (zeta vid, c_J) pairs, sorted by vid
Row = tuple[tuple[int, Expr], ...]


def mi_enumerate(symbols: int, order: int) -> list[MultiIndex]:
    """All symmetric multi-indices of exact order over the given slot count,
    in lexicographic order."""
    if symbols < 1 or order < 0:
        raise ValueError("need symbols >= 1 and order >= 0")
    return list(combinations_with_replacement(range(symbols), order))


@cache
def jet_keys(components: int, slots: int, start: int, n: int) -> tuple[JetKey, ...]:
    """The keys (component, multi-index over the slots) of the jet
    coordinates of orders start..n: order first, then component, then
    multi-index.  Every enumeration of jet coordinates reads this table."""
    return tuple(
        (a, B)
        for k in range(start, n + 1)
        for a in range(components)
        for B in mi_enumerate(slots, k)
    )


@cache
def jet_key_set(components: int, slots: int, n: int) -> frozenset[JetKey]:
    """The keys of jet_keys(components, slots, 0, n), as a set: the keys a
    jet of order n must hold."""
    return frozenset(jet_keys(components, slots, 0, n))


def mi_concat(B: MultiIndex, b: int) -> MultiIndex:
    """Append one slot and resort into canonical nondecreasing form."""
    return tuple(sorted(B + (b,)))


def coord_order(key: CoordKey) -> int:
    """Jet order of a coordinate of J^n: 0 for x^i, |J| for u^alpha_J."""
    return 0 if key[0] == "x" else len(key[2])


def coord_value(key: CoordKey, x: tuple, u: Mapping) -> object:
    """Value of the coordinate key at the jet point with independent
    values x and submanifold jets u, keyed (alpha, J)."""
    return x[key[1]] if key[0] == "x" else u[key[1:]]


@dataclass(frozen=True)
class SpaceSpec:
    """Splitting of base coordinates into independent and dependent ones."""

    independent: tuple[str, ...]
    dependent: tuple[str, ...]

    def __post_init__(self):
        names = self.independent + self.dependent
        if not self.independent or not self.dependent:
            raise ValueError("need at least one independent and one dependent name")
        if len(set(names)) != len(names):
            raise ValueError("coordinate names must be distinct")
        for n in names:
            if not n.isidentifier():
                raise ValueError(f"coordinate name {n!r} is not an identifier")
        targets = tuple(_capitalize(n) for n in names)
        if len(set(targets)) != len(targets) or set(targets) & set(names):
            raise ValueError("target names (capitalized) collide")

    @property
    def p(self) -> int:
        return len(self.independent)

    @property
    def q(self) -> int:
        return len(self.dependent)

    @property
    def m(self) -> int:
        return self.p + self.q

    @property
    def source_names(self) -> tuple[str, ...]:
        return self.independent + self.dependent

    @property
    def target_names(self) -> tuple[str, ...]:
        return tuple(_capitalize(n) for n in self.source_names)


def _capitalize(name: str) -> str:
    return name[0].upper() + name[1:]


@dataclass(frozen=True)
class JetDims:
    """Dimension counts at one jet order (consistency-check data)."""

    order: int
    jn_fiber: int
    jn_total: int
    dn_target_fiber: int
    vf_dim: int


def jet_dims(space: SpaceSpec, n: int) -> JetDims:
    if n < 0:
        raise ValueError("order must be nonnegative")
    p, q, m = space.p, space.q, space.m
    fiber = q * comb(p + n, n)
    return JetDims(
        order=n,
        jn_fiber=fiber,
        jn_total=p + fiber,
        dn_target_fiber=m * comb(m + n, n),
        vf_dim=m * comb(m + n, n),
    )


def _suffix(names: tuple[str, ...], B: MultiIndex) -> str:
    if not B:
        return ""
    parts = []
    for slot in B:
        n = names[slot]
        parts.append(n if len(n) == 1 else "{" + n + "}")
    return "." + "".join(parts)


class JetContext:
    """Registry and caches for all jet coordinates over one space."""

    def __init__(self, space: SpaceSpec):
        self.space = space
        self.reg = VarRegistry()
        self._info: dict[int, tuple] = {}
        self._src: list[int] = []
        for s, name in enumerate(space.source_names):
            vid = self.reg.register(name)
            self._src.append(vid)
            self._info[vid] = ("source", s)
        self._target: dict[tuple[int, MultiIndex], int] = {}
        self._sub: dict[tuple[int, MultiIndex], int] = {}
        for al in range(space.q):
            self._sub[(al, ())] = self._src[space.p + al]
        self._vf: dict[tuple[int, MultiIndex], int] = {}
        self._target_cap = -1
        self._sub_cap = 0
        self._vf_cap = -1
        self._jn: dict[int, tuple[tuple[CoordKey, str, int], ...]] = {}
        self._param: int | None = None
        self._jac: tuple[tuple[Expr, ...], ...] | None = None
        self._W: list[list[Expr]] | None = None
        self._uhat: dict[tuple[int, MultiIndex], Expr] = {}
        self._qtot: dict[tuple[int, MultiIndex], Expr] = {}
        self._phihat: dict[tuple[int, MultiIndex], Expr] = {}
        self._phihat_coeffs: dict[tuple[int, MultiIndex], Row] = {}
        self._phihat_plans: dict[tuple[int, int], PhihatPlan] = {}

    # -- naming --------------------------------------------------------------

    def target_name(self, a: int, B: MultiIndex) -> str:
        return self.space.target_names[a] + _suffix(self.space.source_names, B)

    def sub_name(self, al: int, J: MultiIndex) -> str:
        return self.space.dependent[al] + _suffix(self.space.independent, J)

    def vf_name(self, a: int, B: MultiIndex) -> str:
        return "zeta{" + self.space.source_names[a] + "}" + _suffix(self.space.source_names, B)

    # -- registration --------------------------------------------------------

    def _register(self, kind: str, store: dict, name, keys) -> None:
        for a, B in keys:
            vid = self.reg.register(name(a, B))
            store[(a, B)] = vid
            self._info[vid] = (kind, a, B)

    def ensure_target(self, n: int) -> None:
        keys = jet_keys(self.space.m, self.space.m, self._target_cap + 1, n)
        self._register("target", self._target, self.target_name, keys)
        self._target_cap = max(self._target_cap, n)

    def ensure_sub(self, n: int) -> None:
        keys = jet_keys(self.space.q, self.space.p, self._sub_cap + 1, n)
        self._register("sub", self._sub, self.sub_name, keys)
        self._sub_cap = max(self._sub_cap, n)

    def ensure_vf(self, n: int) -> None:
        keys = jet_keys(self.space.m, self.space.m, self._vf_cap + 1, n)
        self._register("vf", self._vf, self.vf_name, keys)
        self._vf_cap = max(self._vf_cap, n)

    def param_var(self) -> int:
        """Internal deformation parameter (not expressible in the DSL)."""
        if self._param is None:
            self._param = self.reg.register("$t")
            self._info[self._param] = ("param",)
        return self._param

    # -- lookups ---------------------------------------------------------------

    def source_var(self, slot: int) -> int:
        return self._src[slot]

    def target_var(self, a: int, B: MultiIndex) -> int:
        vid = self._target.get((a, B))
        if vid is None:
            raise OrderCapExceeded(
                f"target jet {self.target_name(a, B)} beyond registered order {self._target_cap}"
            )
        return vid

    def sub_var(self, al: int, J: MultiIndex) -> int:
        vid = self._sub.get((al, J))
        if vid is None:
            raise OrderCapExceeded(
                f"submanifold jet {self.sub_name(al, J)} beyond registered order {self._sub_cap}"
            )
        return vid

    def vf_var(self, a: int, B: MultiIndex) -> int:
        vid = self._vf.get((a, B))
        if vid is None:
            raise OrderCapExceeded(
                f"vector-field jet {self.vf_name(a, B)} beyond registered order {self._vf_cap}"
            )
        return vid

    def info(self, vid: int) -> tuple:
        return self._info.get(vid, ("param",))

    def max_order(self, e: Expr, kind: str) -> int:
        """Highest jet order of the given variable kind appearing in e, or -1."""
        out = -1
        for vid in e.variables():
            info = self.info(vid)
            if info[0] == kind:
                out = max(out, len(info[2]))
        return out

    def expr(self, vid: int) -> Expr:
        return Expr.var(self.reg, vid)

    def const(self, c) -> Expr:
        return Expr.const(self.reg, c)

    # -- canonical coordinate enumerations -------------------------------------

    def vf_coords(self, n: int) -> list[tuple[int, MultiIndex, int]]:
        """All (component, multi-index, vid) for zeta jets of order <= n."""
        self.ensure_vf(n)
        m = self.space.m
        return [(a, B, self._vf[(a, B)]) for a, B in jet_keys(m, m, 0, n)]

    def jn_table(self, n: int) -> tuple[tuple[CoordKey, str, int], ...]:
        """The coordinates of the submanifold jet space J^n in row order,
        x^i first, then u^alpha_J in jet-key order: (key, printed name,
        variable) for each.  Built once per order."""
        table = self._jn.get(n)
        if table is None:
            self.ensure_sub(n)
            xs = [(("x", i), name, self._src[i]) for i, name in enumerate(self.space.independent)]
            us = [
                (("u", al, J), self.sub_name(al, J), self._sub[(al, J)])
                for al, J in jet_keys(self.space.q, self.space.p, 0, n)
            ]
            table = self._jn[n] = tuple(xs + us)
        return table

    def jn_coords(self, n: int) -> list[tuple]:
        """The rows of jn_table(n) as ("x", i, name) or ("u", al, J, name)."""
        return [key + (name,) for key, name, _ in self.jn_table(n)]

    # -- derivative operators ---------------------------------------------------

    def total_derivative(self, e: Expr, b: int) -> Expr:
        """D_{z^b}: partial in z^b plus index concatenation on Z- and zeta-jets."""
        out = e.diff(self._src[b])
        for vid in sorted(e.variables()):
            info = self._info.get(vid)
            if info is None:
                continue
            kind = info[0]
            if kind == "target":
                nv = self.target_var(info[1], mi_concat(info[2], b))
            elif kind == "vf":
                nv = self.vf_var(info[1], mi_concat(info[2], b))
            else:
                continue
            out = out + Expr.var(self.reg, nv) * e.diff(vid)
        return out

    def lifted_total_derivative(self, e: Expr, j: int) -> Expr:
        """Total derivative along x^j on the identity-source bundle: moves
        submanifold jets along contact and dependencies along u^alpha_j."""
        p = self.space.p
        out = self.total_derivative(e, j)
        for al in range(self.space.q):
            du = self.total_derivative(e, p + al)
            if not du.is_zero():
                out = out + self.expr(self.sub_var(al, (j,))) * du
        for vid in sorted(e.variables()):
            info = self._info.get(vid)
            if info is not None and info[0] == "sub" and info[2]:
                nv = self.sub_var(info[1], mi_concat(info[2], j))
                out = out + Expr.var(self.reg, nv) * e.diff(vid)
        return out

    def total_jacobian(self) -> tuple[tuple[Expr, ...], ...]:
        """Matrix with (i, k) entry the lifted x^k-derivative of X^i, built
        once per space; rows are tuples, as every caller shares it."""
        if self._jac is None:
            self.ensure_target(1)
            self.ensure_sub(1)
            p = self.space.p
            X = [self.expr(self.target_var(i, ())) for i in range(p)]
            self._jac = tuple(
                tuple(self.lifted_total_derivative(Xi, k) for k in range(p)) for Xi in X
            )
        return self._jac

    def w_matrix(self) -> list[list[Expr]]:
        """Exact inverse of the total Jacobian; entry [k][j] multiplies the
        lifted x^k-derivative inside the invariant X^j-derivative."""
        if self._W is None:
            self._W = expr_inverse(self.total_jacobian())
        return self._W

    def invariant_total_derivative(self, e: Expr, j: int) -> Expr:
        W = self.w_matrix()
        out = self.const(0)
        for k in range(self.space.p):
            term = self.lifted_total_derivative(e, k)
            if not term.is_zero():
                out = out + W[k][j] * term
        return out

    # -- prolonged action and prolonged vector field caches ----------------------

    def uhat(self, al: int, J: MultiIndex) -> Expr:
        """Target submanifold-jet coordinate of the prolonged action: the
        order-|J| invariant derivatives of U^alpha, as an expression in
        (x, u-jets, Z-jets) of order <= |J| each."""
        J = tuple(sorted(J))
        cached = self._uhat.get((al, J))
        if cached is not None:
            return cached
        if not J:
            self.ensure_target(0)
            e = self.expr(self.target_var(self.space.p + al, ()))
        else:
            self.ensure_target(len(J))
            self.ensure_sub(len(J))
            e = self.invariant_total_derivative(self.uhat(al, J[:-1]), J[-1])
        self._uhat[(al, J)] = e
        return e

    def _q_total(self, al: int, J: MultiIndex) -> Expr:
        """Iterated lifted derivatives of the characteristic component."""
        cached = self._qtot.get((al, J))
        if cached is not None:
            return cached
        if not J:
            self.ensure_vf(0)
            self.ensure_sub(1)
            p = self.space.p
            e = self.expr(self.vf_var(p + al, ()))
            for i in range(p):
                e = e - self.expr(self.vf_var(i, ())) * self.expr(self.sub_var(al, (i,)))
        else:
            self.ensure_vf(len(J))
            self.ensure_sub(len(J) + 1)
            e = self.lifted_total_derivative(self._q_total(al, J[:-1]), J[-1])
        self._qtot[(al, J)] = e
        return e

    def phihat(self, al: int, J: MultiIndex) -> Expr:
        """Prolonged general vector-field component for u^alpha_J: linear
        homogeneous in the zeta-jets of order <= |J|, coefficients in
        (x, u-jets) of order <= |J|."""
        J = tuple(sorted(J))
        cached = self._phihat.get((al, J))
        if cached is not None:
            return cached
        self.ensure_vf(len(J))
        self.ensure_sub(len(J) + 1)
        e = self._q_total(al, J)
        for i in range(self.space.p):
            e = e + self.expr(self.vf_var(i, ())) * self.expr(self.sub_var(al, mi_concat(J, i)))
        self._phihat[(al, J)] = e
        return e

    def phihat_coeffs(self, al: int, J: MultiIndex) -> Row:
        """Decomposition of phihat as sum of coeff(x, u-jets) * zeta-jet."""
        J = tuple(sorted(J))
        row = self._phihat_coeffs.get((al, J))
        if row is None:
            row = self._phihat_coeffs[(al, J)] = self.linear_row(self.phihat(al, J))
        return row

    def linear_row(self, e: Expr) -> Row:
        """e as a row: its (zeta vid, coefficient) pairs, sorted by vid.
        Raises PreconditionViolation unless e is homogeneous of degree 1
        in the zeta-variables."""
        row = []
        for vid in sorted(e.variables()):
            if self.info(vid)[0] != "vf":
                continue
            coeff = e.diff(vid)
            for w in coeff.variables():
                if self.info(w)[0] == "vf":
                    raise PreconditionViolation(
                        "linear determining equation is not linear in the field jets"
                    )
            row.append((vid, coeff))
        if not (self.row_expr(row) - e).is_zero():
            raise PreconditionViolation(
                "linear determining equation is not homogeneous in the field jets"
            )
        return tuple(row)

    def row_expr(self, row: Row) -> Expr:
        """The linear form of a row as an expression."""
        out = self.const(0)
        for vid, coeff in row:
            out = out + coeff * self.expr(vid)
        return out

    # -- one coordinate of J^n under the prolonged action --------------------------

    def moved_coord(self, key: CoordKey) -> Expr:
        """The coordinate key of the moved point g.z^(n): X^i, or
        uhat(alpha, J) (U^alpha when J is empty)."""
        if key[0] == "x":
            self.ensure_target(0)
            return self.expr(self.target_var(key[1], ()))
        return self.uhat(key[1], key[2])

    def prolonged_coord(self, key: CoordKey) -> Expr:
        """The component of the general prolonged vector field along the
        coordinate key: zeta^{x^i}, or phihat(alpha, J)."""
        if key[0] == "x":
            self.ensure_vf(0)
            return self.expr(self.vf_var(key[1], ()))
        return self.phihat(key[1], key[2])

    def prolonged_row(self, key: CoordKey) -> Row:
        """prolonged_coord(key) as a row: (zeta vid, coefficient in
        (x, u-jets)) pairs."""
        if key[0] == "x":
            return self.linear_row(self.prolonged_coord(key))
        return self.phihat_coeffs(key[1], key[2])

    def phihat_plan(self, n: int, above: int = -1) -> PhihatPlan:
        """The compiled phihat coefficients of the rows of J^n; with
        above = k >= 0, only the block of order above k (see PhihatPlan)."""
        plan = self._phihat_plans.get((n, above))
        if plan is None:
            plan = PhihatPlan(self, n, above)
            self._phihat_plans[(n, above)] = plan
        return plan


@cache
def context_for(space: SpaceSpec) -> JetContext:
    """Shared per-space context so symbolic caches are built once."""
    return JetContext(space)


class PhihatPlan:
    """Rows of the prolonged-action differential at order n, in jn_table
    order: each row's prolonged_row (a 1 on zeta^i for an x^i row)
    compiled to integer polynomial terms over one shared table of
    monomials in (x, u-jets).  Evaluating the plan at a point evaluates
    each monomial once for the whole matrix, in integer arithmetic.

    With above = k >= 0 the plan keeps only the rows of order above k
    (an x^i row has order 0) and, in them, only the zeta-jets of order
    above k: the block that acts on fiber jets vanishing to order k."""

    def __init__(self, ctx: JetContext, n: int, above: int = -1):
        ctx.ensure_vf(n)
        monos: dict[Mono, int] = {}
        degree: dict[int, int] = {}
        rows = []
        for key, _, _ in ctx.jn_table(n):
            if coord_order(key) <= above:
                continue
            entries = []
            for vid, coeff in ctx.prolonged_row(key):
                if len(ctx.info(vid)[2]) <= above:
                    continue
                if not coeff.is_polynomial():
                    raise ArithmeticError(f"phihat coefficient is not a polynomial: {coeff}")
                den = lcm(*(c.denominator for c in coeff.num.values()))
                terms = []
                for m, c in coeff.num.items():
                    if m not in monos:
                        monos[m] = len(monos)
                        for v, e in m:
                            degree[v] = max(degree.get(v, 0), e)
                    terms.append((monos[m], c.numerator * (den // c.denominator)))
                entries.append((ctx.info(vid)[1:], den, tuple(terms)))
            rows.append(tuple(entries))
        self.monos: tuple[Mono, ...] = tuple(monos)
        # (vid, highest exponent) of every variable the monomials use
        self.degree: tuple[tuple[int, int], ...] = tuple(sorted(degree.items()))
        # per row: ((a, B), denominator, ((monomial index, integer coefficient), ...))
        self.rows: tuple = tuple(rows)

    def evaluate(self, env: Mapping[int, Fraction]) -> list[list[tuple[tuple[int, MultiIndex], Fraction]]]:
        """Each row's nonzero coefficients at the point env, as
        ((a, B), value) pairs for the zeta-jet zeta^a_B."""
        # every monomial's value is an integer over this common denominator
        common = 1
        for vid, e in self.degree:
            try:
                common *= env[vid].denominator ** e
            except KeyError:
                raise UnboundVariable(f"variable id {vid} not bound") from None
        values = []
        for m in self.monos:
            num = den = 1
            for vid, e in m:
                x = env[vid]
                num *= x.numerator ** e
                den *= x.denominator ** e
            values.append(common // den * num)
        out = []
        for entries in self.rows:
            line = []
            for key, den, terms in entries:
                total = sum(a * values[i] for i, a in terms)
                if total:
                    line.append((key, Fraction(total, den * common)))
            out.append(line)
        return out
