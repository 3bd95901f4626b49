"""Exact sparse multivariate rational-function arithmetic.

Scalars are arbitrary-precision rationals (``fractions.Fraction``).  A
polynomial is a dict mapping monomials to nonzero scalar coefficients,
where a monomial is a tuple of ``(variable id, exponent)`` pairs sorted
by variable id (the empty tuple is the constant monomial).  An
:class:`Expr` is a quotient of two such polynomials kept in canonical
form: numerator and denominator coprime, denominator monic under the
graded-lexicographic order, zero represented as ``0/1``.

Canonical form makes structural equality coincide with mathematical
equality, which the rest of the package relies on for exact property
checks.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, Dict, Mapping, Tuple

from .errors import DivisionByZero, UnboundVariable, UnknownVariable

Scalar = Fraction
VarId = int
Mono = Tuple[Tuple[int, int], ...]
Poly = Dict[Mono, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def scalar(numerator, denominator=1) -> Fraction:
    """Build an exact rational scalar; accepts ints, Fractions, or strings like '3/2'."""
    return Fraction(numerator, denominator) if denominator != 1 else Fraction(numerator)


class VarRegistry:
    """Append-only name/id table for formal variables.

    Ids are dense ints in registration order.  Expressions are only
    meaningful against the registry that issued their variable ids, so
    the registry object doubles as an identity token.
    """

    __slots__ = ("_names", "_ids")

    def __init__(self) -> None:
        self._names: list[str] = []
        self._ids: dict[str, int] = {}

    def register(self, name: str) -> VarId:
        vid = self._ids.get(name)
        if vid is not None:
            return vid
        vid = len(self._names)
        self._names.append(name)
        self._ids[name] = vid
        return vid

    def name(self, vid: VarId) -> str:
        try:
            return self._names[vid]
        except IndexError:
            raise UnknownVariable(f"unknown variable id {vid}") from None

    def __len__(self) -> int:
        return len(self._names)


# ---------------------------------------------------------------------------
# monomial helpers


def mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def mono_div(a: Mono, b: Mono) -> Mono | None:
    """Exact monomial quotient a/b, or None when b does not divide a."""
    if not b:
        return a
    da = dict(a)
    out = []
    for v, e in b:
        r = da.get(v, 0) - e
        if r < 0:
            return None
        da[v] = r
    for v, e in sorted(da.items()):
        if e:
            out.append((v, e))
    return tuple(out)


def mono_gcd(a: Mono, b: Mono) -> Mono:
    if not a or not b:
        return ()
    db = dict(b)
    out = []
    for v, e in a:
        eb = db.get(v)
        if eb:
            out.append((v, min(e, eb)))
    return tuple(out)


def mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


def _grlex_greater(a: Mono, b: Mono) -> bool:
    """Graded-lex order: higher total degree wins; ties broken so that a
    higher exponent on the smallest differing variable id wins."""
    da, db = mono_degree(a), mono_degree(b)
    if da != db:
        return da > db
    i = j = 0
    while i < len(a) and j < len(b):
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            if ea != eb:
                return ea > eb
            i += 1
            j += 1
        elif va < vb:
            return True
        else:
            return False
    return i < len(a)


def leading_mono(p: Poly) -> Mono:
    it = iter(p)
    best = next(it)
    for m in it:
        if _grlex_greater(m, best):
            best = m
    return best


# ---------------------------------------------------------------------------
# polynomial arithmetic (dict-level, no class overhead)


def poly_const(c: Fraction) -> Poly:
    return {(): Fraction(c)} if c else {}


def poly_var(vid: VarId, exp: int = 1) -> Poly:
    return {((vid, exp),): _ONE} if exp else {(): _ONE}


def poly_add(a: Poly, b: Poly) -> Poly:
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for m, c in b.items():
        s = out.get(m)
        if s is None:
            out[m] = c
        else:
            s = s + c
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def poly_neg(a: Poly) -> Poly:
    return {m: -c for m, c in a.items()}


def poly_sub(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m)
        if s is None:
            out[m] = -c
        else:
            s = s - c
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = mono_mul(ma, mb)
            c = out.get(m)
            if c is None:
                out[m] = ca * cb
            else:
                c = c + ca * cb
                if c:
                    out[m] = c
                else:
                    del out[m]
    return out


def poly_diff(a: Poly, vid: VarId) -> Poly:
    out: Poly = {}
    for m, c in a.items():
        for k, (v, e) in enumerate(m):
            if v == vid:
                nm = m[:k] + (((v, e - 1),) if e > 1 else ()) + m[k + 1 :]
                nc = c * e
                s = out.get(nm)
                out[nm] = nc if s is None else s + nc
                if not out[nm]:
                    del out[nm]
                break
    return out


def poly_vars(a: Poly) -> set[int]:
    vs: set[int] = set()
    for m in a:
        for v, _ in m:
            vs.add(v)
    return vs


def poly_degree_in(a: Poly, vid: VarId) -> int:
    d = 0
    for m in a:
        for v, e in m:
            if v == vid and e > d:
                d = e
    return d


def poly_eval(a: Poly, point: Mapping[int, Fraction]) -> Fraction:
    total = _ZERO
    powcache: dict[tuple[int, int], Fraction] = {}
    for m, c in a.items():
        term = c
        for v, e in m:
            key = (v, e)
            pw = powcache.get(key)
            if pw is None:
                try:
                    pw = point[v] ** e
                except KeyError:
                    raise UnboundVariable(f"variable id {v} not bound") from None
                powcache[key] = pw
            term = term * pw
        total += term
    return total


def poly_eval_float(a: Poly, point: Mapping[int, float]) -> float:
    """a at the point in float arithmetic, summed in sorted monomial
    order: canonically equal polynomials give the same bits, however
    their dicts were built."""
    total = 0.0
    for m in sorted(a):
        term = float(a[m])
        for v, e in m:
            term *= point[v] ** e
        total += term
    return total


# ---------------------------------------------------------------------------
# gcd machinery: primitive PRS with a projection-based triviality certificate


def _int_content_and_primitive(a: Poly) -> tuple[Fraction, Poly]:
    """Scale so coefficients become coprime integers with positive leading
    coefficient; returns (scale, primitive) with a == scale * primitive."""
    if not a:
        return _ONE, {}
    num_gcd = 0
    den_lcm = 1
    for c in a.values():
        num_gcd = math.gcd(num_gcd, c.numerator)
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    scale = Fraction(num_gcd, den_lcm)
    if a[leading_mono(a)] < 0:
        scale = -scale
    inv = 1 / scale
    return scale, {m: c * inv for m, c in a.items()}


def _as_univariate(a: Poly, vid: VarId) -> dict[int, Poly]:
    out: dict[int, Poly] = {}
    for m, c in a.items():
        e = 0
        rest = []
        for v, ee in m:
            if v == vid:
                e = ee
            else:
                rest.append((v, ee))
        out.setdefault(e, {})[tuple(rest)] = c
    return out


def _from_univariate(u: dict[int, Poly], vid: VarId) -> Poly:
    out: Poly = {}
    for e, coeff in u.items():
        xm = ((vid, e),) if e else ()
        for m, c in coeff.items():
            out[mono_mul(m, xm)] = c
    return out


def poly_divexact(a: Poly, b: Poly) -> Poly:
    """Exact multivariate division; raises ArithmeticError if b does not divide a."""
    if not b:
        raise DivisionByZero("polynomial division by zero")
    if not a:
        return {}
    if b == {(): b.get((), None)}:  # constant divisor
        inv = 1 / b[()]
        return {m: c * inv for m, c in a.items()}
    lb = leading_mono(b)
    cb = b[lb]
    rem = dict(a)
    quot: Poly = {}
    while rem:
        lm = leading_mono(rem)
        qm = mono_div(lm, lb)
        if qm is None:
            raise ArithmeticError("inexact polynomial division")
        qc = rem[lm] / cb
        quot[qm] = qc
        for m, c in b.items():
            mm = mono_mul(m, qm)
            s = rem.get(mm)
            s = -c * qc if s is None else s - c * qc
            if s:
                rem[mm] = s
            else:
                rem.pop(mm, None)
    return quot


def _poly_divides(b: Poly, a: Poly) -> Poly | None:
    try:
        return poly_divexact(a, b)
    except ArithmeticError:
        return None


_cert_rng = random.Random(0x5EED)


def _univ_gcd_degree(a: dict[int, Fraction], b: dict[int, Fraction]) -> int:
    """Degree of gcd of two univariate polys over Q (dense-dict form)."""

    def norm(p: dict[int, Fraction]) -> list[Fraction]:
        if not p:
            return []
        d = max(p)
        return [p.get(i, _ZERO) for i in range(d + 1)]

    fa, fb = norm(a), norm(b)
    while fb:
        # remainder of fa by fb
        while fa and not fa[-1]:
            fa.pop()
        while fb and not fb[-1]:
            fb.pop()
        if not fb:
            break
        if not fa:
            fa, fb = fb, fa
            continue
        if len(fa) < len(fb):
            fa, fb = fb, fa
            continue
        lead = fb[-1]
        while len(fa) >= len(fb) and fa:
            factor = fa[-1] / lead
            shift = len(fa) - len(fb)
            for i, c in enumerate(fb):
                fa[i + shift] -= factor * c
            while fa and not fa[-1]:
                fa.pop()
        fa, fb = fb, fa
    while fa and not fa[-1]:
        fa.pop()
    return len(fa) - 1 if fa else -1


def _project_univariate(a: Poly, keep: VarId, point: Mapping[int, int]) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for m, c in a.items():
        e = 0
        val = c
        for v, ee in m:
            if v == keep:
                e = ee
            else:
                val = val * (point[v] ** ee)
        if val:
            s = out.get(e)
            s = val if s is None else s + val
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _gcd_certified_trivial(a: Poly, b: Poly, vs: set[int]) -> bool:
    """True when random univariate projections certify deg_v(gcd) = 0 for all v.

    Sound: with the projection preserving deg_v of both inputs, the gcd's
    degree in v is bounded by the projected gcd's degree.  A nontrivial
    projected gcd proves nothing (the point may be unlucky), so each
    variable gets several fresh projections before the certificate is
    abandoned.
    """
    allvars = poly_vars(a) | poly_vars(b)
    for v in vs:
        da, db = poly_degree_in(a, v), poly_degree_in(b, v)
        if da == 0 or db == 0:
            continue
        ok = False
        for _ in range(6):
            point = {w: _cert_rng.randint(-99991, 99991) for w in allvars if w != v}
            pa = _project_univariate(a, v, point)
            pb = _project_univariate(b, v, point)
            if (max(pa) if pa else -1) != da or (max(pb) if pb else -1) != db:
                continue
            if _univ_gcd_degree(pa, pb) == 0:
                ok = True
                break
        if not ok:
            return False
    return True


def _content_wrt(u: dict[int, Poly]) -> Poly:
    coeffs = sorted(u.values(), key=len)
    g = coeffs[0]
    for c in coeffs[1:]:
        g = poly_gcd(g, c)
        if g == {(): _ONE}:
            break
    return g


def _strip_int_content_univ(u: dict[int, Poly]) -> dict[int, Poly]:
    num_gcd = 0
    den_lcm = 1
    for p in u.values():
        for c in p.values():
            num_gcd = math.gcd(num_gcd, c.numerator)
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    if num_gcd == 0:
        return u
    scale = Fraction(den_lcm, num_gcd)
    if scale == 1:
        return u
    return {e: {m: c * scale for m, c in p.items()} for e, p in u.items()}


def _pseudo_rem(f: dict[int, Poly], g: dict[int, Poly], _v: VarId) -> dict[int, Poly]:
    # The result is only used up to a scalar factor (the caller takes the
    # primitive part), and each reduction step is linear in r, so integer
    # content may be stripped between steps to keep coefficients small.
    df = max(f)
    dg = max(g)
    lg = g[dg]
    r = {e: dict(p) for e, p in f.items()}
    while r:
        dr = max(r)
        if dr < dg:
            break
        lr = r[dr]
        nr: dict[int, Poly] = {}
        for e, p in r.items():
            if e == dr:
                continue
            nr[e] = poly_mul(p, lg)
        for e, p in g.items():
            if e == dg:
                continue
            te = e + dr - dg
            q = poly_mul(p, lr)
            nr[te] = poly_sub(nr.get(te, {}), q)
        r = _strip_int_content_univ({e: p for e, p in nr.items() if p})
    return r


def _primitive_univ(u: dict[int, Poly]) -> dict[int, Poly]:
    cont = _content_wrt(u)
    if cont == {(): _ONE}:
        return u
    return {e: poly_divexact(p, cont) for e, p in u.items()}


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Primitive gcd over Q (integer-primitive, positive leading coefficient).

    Returns ``{(): 1}`` for coprime inputs.  Uses a monomial-content fast
    path, a random-projection triviality certificate, then a primitive
    pseudo-remainder sequence.
    """
    if not a:
        return _int_content_and_primitive(b)[1]
    if not b:
        return _int_content_and_primitive(a)[1]
    _, a = _int_content_and_primitive(a)
    _, b = _int_content_and_primitive(b)
    # common monomial factor
    mg = None
    for m in a:
        mg = m if mg is None else mono_gcd(mg, m)
        if not mg:
            break
    amg = mg or ()
    mg = None
    for m in b:
        mg = m if mg is None else mono_gcd(mg, m)
        if not mg:
            break
    bmg = mg or ()
    common = mono_gcd(amg, bmg)
    if amg:
        a = {mono_div(m, amg): c for m, c in a.items()}
    if bmg:
        b = {mono_div(m, bmg): c for m, c in b.items()}
    monopart: Poly = {common: _ONE}

    if a == {(): _ONE} or b == {(): _ONE} or len(a) == 1 or len(b) == 1:
        return monopart
    if a == b:
        return poly_mul(monopart, a) if common else a

    vs = poly_vars(a) & poly_vars(b)
    if not vs:
        return monopart
    if _gcd_certified_trivial(a, b, vs):
        return monopart
    # exact-divisibility probes catch the frequent shared-denominator case
    if len(b) <= len(a) and _poly_divides(b, a) is not None:
        return poly_mul(monopart, b) if common else b
    if len(a) <= len(b) and _poly_divides(a, b) is not None:
        return poly_mul(monopart, a) if common else a

    # main variable: smallest max-degree among shared variables
    v = min(vs, key=lambda w: max(poly_degree_in(a, w), poly_degree_in(b, w)))
    ua = _as_univariate(a, v)
    ub = _as_univariate(b, v)
    ca = _content_wrt(ua)
    cb = _content_wrt(ub)
    cg = poly_gcd(ca, cb)
    fa = {e: poly_divexact(p, ca) for e, p in ua.items()}
    fb = {e: poly_divexact(p, cb) for e, p in ub.items()}
    if max(fa) < max(fb):
        fa, fb = fb, fa
    while True:
        r = _pseudo_rem(fa, fb, v)
        if not r:
            g = _from_univariate(fb, v)
            break
        if max(r) == 0:
            g = {(): _ONE}
            break
        fa, fb = fb, _primitive_univ(r)
    _, g = _int_content_and_primitive(g)
    out = poly_mul(g, cg)
    if common:
        out = poly_mul(out, monopart)
    return _int_content_and_primitive(out)[1]


# ---------------------------------------------------------------------------
# Expr: canonical rational function


class Expr:
    """Immutable rational function in canonical form over a registry."""

    __slots__ = ("num", "den", "reg", "_hash")

    def __init__(self, num: Poly, den: Poly, reg: VarRegistry, _canonical: bool = False):
        if not _canonical:
            num, den = _canonicalize(num, den)
        self.num = num
        self.den = den
        self.reg = reg
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(reg: VarRegistry, c) -> "Expr":
        c = Fraction(c)
        return Expr(poly_const(c), {(): _ONE}, reg, _canonical=True)

    @staticmethod
    def var(reg: VarRegistry, vid: VarId) -> "Expr":
        if vid >= len(reg):
            raise UnknownVariable(f"unknown variable id {vid}")
        return Expr(poly_var(vid), {(): _ONE}, reg, _canonical=True)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def numerator(self) -> "Expr":
        """The numerator polynomial as an expression (denominator cleared).

        Shares the zero set with self wherever the denominator is nonzero.
        """
        return Expr(dict(self.num), {(): _ONE}, self.reg, _canonical=True)

    def is_polynomial(self) -> bool:
        return self.den == {(): _ONE}

    def as_scalar(self) -> Fraction | None:
        """The constant value when the expression is constant, else None."""
        if self.den != {(): _ONE}:
            return None
        if not self.num:
            return _ZERO
        if len(self.num) == 1 and () in self.num:
            return self.num[()]
        return None

    def variables(self) -> set[int]:
        return poly_vars(self.num) | poly_vars(self.den)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Expr":
        if isinstance(other, Expr):
            if other.reg is not self.reg:
                raise UnknownVariable("mixed expression registries")
            return other
        return Expr.const(self.reg, other)

    def __add__(self, other) -> "Expr":
        other = self._coerce(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if b == d:
            num = poly_add(a, c)
            if not num:
                return Expr({}, {(): _ONE}, self.reg, _canonical=True)
            g = poly_gcd(num, b)
            if g != {(): _ONE}:
                return Expr(poly_divexact(num, g), poly_divexact(b, g), self.reg)
            return Expr(num, b, self.reg)
        g = poly_gcd(b, d)
        if g == {(): _ONE}:
            num = poly_add(poly_mul(a, d), poly_mul(c, b))
            return Expr(num, poly_mul(b, d), self.reg)
        b1 = poly_divexact(b, g)
        d1 = poly_divexact(d, g)
        num = poly_add(poly_mul(a, d1), poly_mul(c, b1))
        h = poly_gcd(num, g)
        den = poly_mul(b1, d)
        if h != {(): _ONE}:
            num = poly_divexact(num, h)
            den = poly_divexact(den, h)
        return Expr(num, den, self.reg)

    def __radd__(self, other) -> "Expr":
        return self.__add__(other)

    def __neg__(self) -> "Expr":
        return Expr(poly_neg(self.num), self.den, self.reg, _canonical=True)

    def __sub__(self, other) -> "Expr":
        return self.__add__(self._coerce(other).__neg__())

    def __rsub__(self, other) -> "Expr":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other) -> "Expr":
        other = self._coerce(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a or not c:
            return Expr({}, {(): _ONE}, self.reg, _canonical=True)
        g1 = poly_gcd(a, d)
        if g1 != {(): _ONE}:
            a = poly_divexact(a, g1)
            d = poly_divexact(d, g1)
        g2 = poly_gcd(c, b)
        if g2 != {(): _ONE}:
            c = poly_divexact(c, g2)
            b = poly_divexact(b, g2)
        num = poly_mul(a, c)
        den = poly_mul(b, d)
        lc = den[leading_mono(den)]
        if lc != 1:
            inv = 1 / lc
            num = {m: q * inv for m, q in num.items()}
            den = {m: q * inv for m, q in den.items()}
        return Expr(num, den, self.reg, _canonical=True)

    def __rmul__(self, other) -> "Expr":
        return self.__mul__(other)

    def __truediv__(self, other) -> "Expr":
        other = self._coerce(other)
        if other.is_zero():
            raise DivisionByZero("division by the zero expression")
        return self.__mul__(Expr(other.den, other.num, other.reg))

    def __rtruediv__(self, other) -> "Expr":
        return self._coerce(other).__truediv__(self)

    def __pow__(self, k: int) -> "Expr":
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if k < 0:
            if self.is_zero():
                raise DivisionByZero("zero to a negative power")
            return Expr(self.den, self.num, self.reg) ** (-k)
        result = Expr.const(self.reg, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- calculus -----------------------------------------------------------

    def diff(self, vid: VarId) -> "Expr":
        if vid >= len(self.reg):
            raise UnknownVariable(f"unknown variable id {vid}")
        dn = poly_diff(self.num, vid)
        if self.den == {(): _ONE}:
            return Expr(dn, {(): _ONE}, self.reg)
        dd = poly_diff(self.den, vid)
        if not dd:
            return Expr(dn, self.den, self.reg)
        g = poly_gcd(self.den, dd)
        if g != {(): _ONE}:
            d1 = poly_divexact(self.den, g)
            num = poly_sub(poly_mul(dn, d1), poly_mul(self.num, poly_divexact(dd, g)))
            den = poly_mul(self.den, d1)
        else:
            num = poly_sub(poly_mul(dn, self.den), poly_mul(self.num, dd))
            den = poly_mul(self.den, self.den)
        return Expr(num, den, self.reg)

    def subst(self, bindings: Mapping[VarId, "Expr"]) -> "Expr":
        """Simultaneous substitution; unbound variables stay formal.

        Constants go into a polynomial in one pass: the result is a
        polynomial over denominator 1, already canonical."""
        if not bindings:
            return self
        if self.den == {(): _ONE}:
            values = {}
            for v in poly_vars(self.num):
                target = bindings.get(v)
                if target is None:
                    continue
                value = target.as_scalar()
                if value is None or target.reg is not self.reg:
                    break
                values[v] = value
            else:
                if not values:
                    return self
                return Expr(_poly_subst_scalars(self.num, values), self.den, self.reg, _canonical=True)
        relevant = {v: e for v, e in bindings.items() if _poly_has(self.num, v) or _poly_has(self.den, v)}
        if not relevant:
            return self
        num = _poly_subst(self.num, relevant, self.reg)
        den = _poly_subst(self.den, relevant, self.reg)
        if den.is_zero():
            raise DivisionByZero("denominator vanishes identically after substitution")
        return num / den

    def eval(self, point: Mapping[VarId, Fraction]) -> Fraction:
        d = poly_eval(self.den, point)
        if not d:
            raise DivisionByZero("denominator vanishes at the point")
        return poly_eval(self.num, point) / d

    def eval_float(self, point: Mapping[VarId, float]) -> float:
        d = poly_eval_float(self.den, point)
        if d == 0.0:
            raise DivisionByZero("denominator vanishes at the point")
        return poly_eval_float(self.num, point) / d

    # -- structure ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Expr):
            sc = self.as_scalar()
            return sc is not None and sc == other
        return self.reg is other.reg and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (tuple(sorted(self.num.items())), tuple(sorted(self.den.items())))
            )
        return self._hash

    def __str__(self) -> str:
        return format_expr(self)

    def __repr__(self) -> str:
        return f"Expr({format_expr(self)})"


def _poly_has(p: Poly, vid: VarId) -> bool:
    for m in p:
        for v, _ in m:
            if v == vid:
                return True
    return False


def _poly_subst(p: Poly, bindings: Mapping[VarId, Expr], reg: VarRegistry) -> Expr:
    total = Expr.const(reg, 0)
    powcache: dict[tuple[int, int], Expr] = {}
    for m, c in p.items():
        term = Expr.const(reg, c)
        for v, e in m:
            target = bindings.get(v)
            if target is None:
                term = term * Expr(poly_var(v, e), {(): _ONE}, reg, _canonical=True)
                continue
            key = (v, e)
            pw = powcache.get(key)
            if pw is None:
                pw = target**e
                powcache[key] = pw
            term = term * pw
        total = total + term
    return total


def _poly_subst_scalars(p: Poly, values: Mapping[VarId, Fraction]) -> Poly:
    """p with the bound variables replaced by their values, summed term by
    term in p's order like _poly_subst, without an Expr per term."""
    out: Poly = {}
    powcache: dict[tuple[int, int], Fraction] = {}
    for m, c in p.items():
        rest = []
        for v, e in m:
            value = values.get(v)
            if value is None:
                rest.append((v, e))
                continue
            key = (v, e)
            pw = powcache.get(key)
            if pw is None:
                pw = value**e
                powcache[key] = pw
            c = c * pw
        if not c:
            continue
        mono = tuple(rest)
        s = out.get(mono)
        if s is None:
            out[mono] = c
        else:
            s = s + c
            if s:
                out[mono] = s
            else:
                del out[mono]
    return out


def _canonicalize(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    if not den:
        raise DivisionByZero("zero denominator")
    if not num:
        return {}, {(): _ONE}
    g = poly_gcd(num, den)
    if g != {(): _ONE}:
        num = poly_divexact(num, g)
        den = poly_divexact(den, g)
    lc = den[leading_mono(den)]
    if lc != 1:
        inv = 1 / lc
        num = {m: c * inv for m, c in num.items()}
        den = {m: c * inv for m, c in den.items()}
    return num, den


# ---------------------------------------------------------------------------
# printing


def _format_mono(m: Mono, namer: Callable[[int], str]) -> str:
    parts = []
    for v, e in m:
        n = namer(v)
        parts.append(n if e == 1 else f"{n}^{e}")
    return "*".join(parts)


def format_poly(p: Poly, namer: Callable[[int], str]) -> str:
    if not p:
        return "0"
    monos = sorted(p, key=lambda m: (-mono_degree(m), m))
    chunks = []
    for i, m in enumerate(monos):
        c = p[m]
        neg = c < 0
        mag = -c if neg else c
        body = _format_mono(m, namer)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        if i == 0:
            chunks.append(f"-{text}" if neg else text)
        else:
            chunks.append(f" - {text}" if neg else f" + {text}")
    return "".join(chunks)


def format_expr(e: Expr, namer: Callable[[int], str] | None = None) -> str:
    namer = namer or e.reg.name
    num = format_poly(e.num, namer)
    if e.den == {(): _ONE}:
        return num
    den = format_poly(e.den, namer)
    num_wrapped = f"({num})" if (" + " in num or " - " in num or num.startswith("-")) else num
    den_wrapped = f"({den})" if (" + " in den or " - " in den or "*" in den or "^" in den or den.startswith("-")) else den
    return f"{num_wrapped}/{den_wrapped}"
