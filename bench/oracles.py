"""Oracles for jetfree CLI reports, written apart from jetfree.

Nothing here imports jetfree.  Verdicts and fiber dimensions come from
closed forms, the action on p = q = 1 jets from the hand-expanded chain
rule through order 3, the determining equations from truncated Taylor
polynomials, and the moving frames from their closed forms.  Each
``check_*`` function raises :class:`CheckFailed` when a report
disagrees with the oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

P1_SPECS = ("e1", "e2", "e3")
ALL_SPECS = P1_SPECS + ("p2",)
MAX_P1_ORDER = 3


class CheckFailed(Exception):
    """A report disagrees with the oracle."""


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# -- names and points ---------------------------------------------------------------


def u_name(k: int) -> str:
    """Name of the order-k jet u_(x^k) of a p = q = 1 point."""
    return "u" + ("." + "x" * k if k else "")


def u2_name(i: int, j: int) -> str:
    """Name of the jet u_(x^i y^j) of a p = 2 point."""
    return "u" + ("." + "x" * i + "y" * j if i + j else "")


def target_name(letter: str, i: int, j: int) -> str:
    """Name of the diffeomorphism jet coefficient letter_(x^i u^j), p = q = 1."""
    return letter + ("." + "x" * i + "u" * j if i + j else "")


def target_names(n: int) -> list[str]:
    return [
        target_name(letter, i, k - i)
        for letter in "XU"
        for k in range(n + 1)
        for i in range(k, -1, -1)
    ]


def point_document(n: int, independent: dict, u0: Fraction, jets: dict) -> dict:
    return {
        "order": n,
        "independent": {name: str(v) for name, v in independent.items()},
        "dependent": {"u": str(u0)},
        "jets": {name: str(v) for name, v in jets.items()},
    }


def coords(doc: dict) -> dict[str, Fraction]:
    """All coordinates of a point document by name, as exact rationals."""
    out = {}
    for block in ("independent", "dependent", "jets"):
        for name, value in doc[block].items():
            out[name] = Fraction(value)
    return out


def _us(c: dict[str, Fraction], n: int) -> list[Fraction]:
    return [c[u_name(k)] for k in range(n + 1)]


# -- closed forms -------------------------------------------------------------------


def fiber_dimension(spec: str, n: int) -> int:
    """Dimension of the order-n vector-field jet fiber, n >= 1."""
    return {"e1": n + 1, "e2": 2, "e3": n + 2, "p2": 2 * (n + 1)}[spec]


def is_free(spec: str, n: int, c: dict[str, Fraction]) -> bool:
    """Closed-form local freeness at order n >= 1."""
    if spec == "e1":
        return c["u.x"] != 0
    if spec == "e2":
        return any(c[u_name(k)] != 0 for k in range(1, n + 1))
    if spec == "e3":
        return c["u"] != 0
    if spec == "p2":
        return c["u.x"] != 0 and c["u.y"] != 0
    raise ValueError(spec)


def isotropy_trivial(spec: str, n: int, c: dict[str, Fraction]) -> bool:
    """Closed-form triviality of the order-n stabilizer of a p = q = 1 point.

    e1 (X = X(x), U = u): the curve's reparametrizations fixing its
    n-jet are the identity iff u_x != 0.  e2 (X = a x + b): a nonzero
    a != 1 fixes the jet iff a^k = 1 for every k <= n with u_k != 0, so
    the stabilizer is trivial iff some odd k <= n has u_k != 0.  e3
    (U = u X_x): the order-0 condition forces X_x = 1 iff u != 0.
    """
    if spec == "e1":
        return c["u.x"] != 0
    if spec == "e2":
        return any(c[u_name(k)] != 0 for k in range(1, n + 1, 2))
    if spec == "e3":
        return c["u"] != 0
    raise ValueError(spec)


def frame_section(spec: str, n: int) -> dict[str, Fraction]:
    """The coordinate cross-section each p = q = 1 frame normalizes onto."""
    zero, one = Fraction(0), Fraction(1)
    if spec == "e1":
        return {"x": zero, "u.x": one, **{u_name(k): zero for k in range(2, n + 1)}}
    if spec == "e2":
        return {"x": zero, "u.x": one}
    if spec == "e3":
        return {"x": zero, "u": one, **{u_name(k): zero for k in range(1, n + 1)}}
    raise ValueError(spec)


def _reciprocal_derivatives(us: list[Fraction]) -> list[Fraction]:
    """Derivatives 0..len(us)-1 of 1/u at the point, from u's derivatives."""
    a = [v / factorial(k) for k, v in enumerate(us)]
    b = [1 / a[0]]
    for k in range(1, len(a)):
        b.append(-sum(a[j] * b[k - j] for j in range(1, k + 1)) / a[0])
    return [v * factorial(k) for k, v in enumerate(b)]


def frame_jet(spec: str, n: int, c: dict[str, Fraction]) -> dict[str, Fraction]:
    """Closed-form normalized frame at a chart point, by coefficient name.

    e1: X = u(x) - u(x0).  e2: X = u_x(x0) (x - x0).  e3: X' = 1/u with
    X(x0) = 0, hence U = u X' and U_u = X'.  U = u for e1 and e2.
    """
    us = _us(c, n)
    out = {name: Fraction(0) for name in target_names(n)}
    if spec in ("e1", "e2"):
        out["U"] = us[0]
        if n >= 1:
            out["U.u"] = Fraction(1)
        top = n if spec == "e1" else 1
        for i in range(1, top + 1):
            out[target_name("X", i, 0)] = us[i]
        return out
    if spec == "e3":
        r = _reciprocal_derivatives(us)  # r[i] = X^(i+1)(x0)
        for i in range(1, n + 1):
            out[target_name("X", i, 0)] = r[i - 1]
        for i in range(n + 1):
            out[target_name("U", i, 0)] = us[0] * r[i]
            if i + 1 <= n:
                out[target_name("U", i, 1)] = r[i]
        return out
    raise ValueError(spec)


# -- the action on p = q = 1 jets ---------------------------------------------------


def act(jet: dict[str, Fraction], c: dict[str, Fraction], n: int) -> dict[str, Fraction]:
    """Coordinates of the order-n point c moved by the diffeomorphism jet.

    Along the graph u = s(x), F(x) = X(x, s(x)) and H(x) = U(x, s(x));
    the moved curve w satisfies w(F(x)) = H(x), and its derivatives
    follow from the inverse-function formulas for F.
    """
    if not 0 <= n <= MAX_P1_ORDER:
        raise ValueError("the chain-rule action is written through order 3")
    us = _us(c, n) + [Fraction(0)] * (MAX_P1_ORDER - n)
    u1, u2, u3 = us[1], us[2], us[3]

    def derivatives(letter: str) -> list[Fraction]:
        def t(i: int, j: int) -> Fraction:
            if i + j > n:
                return Fraction(0)
            return jet[target_name(letter, i, j)]

        return [
            t(0, 0),
            t(1, 0) + t(0, 1) * u1,
            t(2, 0) + 2 * t(1, 1) * u1 + t(0, 2) * u1**2 + t(0, 1) * u2,
            t(3, 0) + 3 * t(2, 1) * u1 + 3 * t(1, 2) * u1**2 + t(0, 3) * u1**3
            + 3 * t(1, 1) * u2 + 3 * t(0, 2) * u1 * u2 + t(0, 1) * u3,
        ]

    f0, f1, f2, f3 = derivatives("X")
    h0, h1, h2, h3 = derivatives("U")
    moved = {"x": f0, "u": h0}
    if n == 0:
        return moved
    _expect(f1 != 0, "the jet degenerates along the curve (dX/dx = 0)")
    F1 = 1 / f1
    F2 = -f2 / f1**3
    F3 = (3 * f2**2 - f1 * f3) / f1**5
    moved["u.x"] = h1 * F1
    if n >= 2:
        moved["u.xx"] = h2 * F1**2 + h1 * F2
    if n >= 3:
        moved["u.xxx"] = h3 * F1**3 + 3 * h2 * F1 * F2 + h1 * F3
    return moved


# -- determining equations via truncated Taylor polynomials -------------------------

Poly = dict  # (i, j) -> coefficient of s^i t^j, s = x - x0, t = u - u0


def _taylor(jet: dict[str, Fraction], letter: str, n: int) -> Poly:
    return {
        (i, k - i): jet[target_name(letter, i, k - i)] / (factorial(i) * factorial(k - i))
        for k in range(n + 1)
        for i in range(k + 1)
    }


def _d(a: Poly, slot: int) -> Poly:
    out = {}
    for (i, j), v in a.items():
        e = (i, j)[slot]
        if e:
            out[(i - 1, j) if slot == 0 else (i, j - 1)] = e * v
    return out


def _add(a: Poly, b: Poly, sign: int = 1) -> Poly:
    out = dict(a)
    for key, v in b.items():
        out[key] = out.get(key, 0) + sign * v
    return out


def _mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for (i, j), v in a.items():
        for (k, l), w in b.items():
            out[(i + k, j + l)] = out.get((i + k, j + l), 0) + v * w
    return out


def _determining(spec: str, jet, base, n: int) -> list[tuple[str, Poly, int]]:
    """The spec's determining equations as (text, Taylor polynomial, target
    order), mirroring the bundled e1-e3 specs."""
    X, U = _taylor(jet, "X", n), _taylor(jet, "U", n)
    u = {(0, 0): base[1], (0, 1): Fraction(1)}
    if spec == "e1":
        return [("U - u", _add(U, u, -1), 0), ("X.u", _d(X, 1), 1)]
    if spec == "e2":
        return [("X.u", _d(X, 1), 1), ("X.xx", _d(_d(X, 0), 0), 2), ("U - u", _add(U, u, -1), 0)]
    if spec == "e3":
        Xx = _d(X, 0)
        return [
            ("U - u*X.x", _add(U, _mul(u, Xx), -1), 1),
            ("X.u", _d(X, 1), 1),
            ("U.u - X.x", _add(_d(U, 1), Xx, -1), 1),
        ]
    raise ValueError(spec)


def check_determining(spec: str, jet: dict[str, Fraction], base, n: int) -> None:
    """The order-n jet satisfies every prolonged determining equation of
    target order <= n: an equation of order k vanishes to order n - k."""
    for text, poly, k in _determining(spec, jet, base, n):
        for (i, j), v in poly.items():
            if i + j <= n - k and v != 0:
                raise CheckFailed(
                    f"jet violates the {'x' * i + 'u' * j or 'value'} derivative of {text} = 0"
                )


def identity_jet(base, n: int) -> dict[str, Fraction]:
    out = {name: Fraction(0) for name in target_names(n)}
    out["X"], out["U"] = base
    if n >= 1:
        out["X.x"] = out["U.u"] = Fraction(1)
    return out


def _jet_from_document(doc, n: int) -> dict[str, Fraction]:
    _expect(isinstance(doc, dict), "jet document missing")
    _expect(set(doc) == set(target_names(n)), f"jet document keys are not the order-{n} jet")
    return {name: Fraction(v) for name, v in doc.items()}


# -- report checks ------------------------------------------------------------------


def _check_echo(report: dict, command: str, spec: str, n: int, point: dict) -> None:
    _expect(report.get("command") == command, f"report is for {report.get('command')!r}")
    _expect(report.get("pseudogroup") == spec, "report names another pseudogroup")
    _expect(report.get("order") == n, "report has another order")
    echo = report.get("point")
    _expect(isinstance(echo, dict) and echo.get("order") == n, "report point has another order")
    _expect(coords(echo) == coords(point), "report point differs from the queried point")


def check_freeness(spec: str, n: int, point: dict, rc: int, report: dict) -> None:
    _check_echo(report, "freeness", spec, n, point)
    free = is_free(spec, n, coords(point))
    want = "LOCALLY_FREE" if free else "NOT_LOCALLY_FREE"
    _expect(report["verdict"] == want, f"verdict {report['verdict']}, closed form {want}")
    _expect(rc == (0 if free else 1), f"exit code {rc} for {want}")
    kdim, odim = report["kernel_dimension"], report["orbit_dimension"]
    _expect(kdim + odim == fiber_dimension(spec, n), "kernel + orbit dimension is not the fiber dimension")
    _expect((kdim == 0) == free, f"kernel dimension {kdim} for {want}")
    _expect(len(report["kernel_basis"]) == kdim, "kernel basis length differs from its dimension")


def check_persistence(
    spec: str, n: int, through: int, samples: int, seed: int, point: dict, rc: int, report: dict
) -> None:
    """The persistence property: PERSISTS with every requested lift
    checked.  No lift of these specs is singular, so a skip is a failure."""
    _check_echo(report, "persistence", spec, n, point)
    _expect(is_free(spec, n, coords(point)), "sweep base point is not free by the closed form")
    _expect(report["verdict"] == "PERSISTS", f"verdict {report['verdict']}")
    _expect(rc == 0, f"exit code {rc} for PERSISTS")
    _expect(report["failures"] == [], "sweep reports failures")
    _expect(
        (report["samples"], report["seed"], report["through"]) == (samples, seed, through),
        "sweep parameters differ from the request",
    )
    _expect(report["lifts_checked"] == samples * (through - n), "lifts_checked is not samples x orders")
    _expect(report["skipped"] == 0, f"{report['skipped']} lifts skipped")
    _expect(report["kernel_dimension"] == 0, "base kernel is not trivial")
    _expect(report["orbit_dimension"] == fiber_dimension(spec, n), "base orbit dimension is not the fiber dimension")


def check_isotropy(spec: str, n: int, point: dict, rc: int, report: dict) -> None:
    _check_echo(report, "isotropy", spec, n, point)
    c = coords(point)
    if isotropy_trivial(spec, n, c):
        _expect(report["verdict"] == "TRIVIAL", f"verdict {report['verdict']}, closed form TRIVIAL")
        _expect(rc == 0, f"exit code {rc} for TRIVIAL")
        _expect(report["witness"] is None, "TRIVIAL report carries a witness")
        return
    _expect(report["verdict"] == "NONTRIVIAL", f"verdict {report['verdict']}, closed form NONTRIVIAL")
    _expect(rc == 1, f"exit code {rc} for NONTRIVIAL")
    base = (c["x"], c["u"])
    jet = _jet_from_document(report["witness"], n)
    _expect(jet != identity_jet(base, n), "witness is the identity jet")
    _expect(jet["X.x"] * jet["U.u"] - jet["X.u"] * jet["U.x"] != 0, "witness jet is singular")
    check_determining(spec, jet, base, n)
    _expect(act(jet, c, n) == c, "witness does not fix the point")


def check_frame(spec: str, n: int, point: dict, rc: int, report: dict) -> None:
    _check_echo(report, "frame", spec, n, point)
    c = coords(point)
    _expect(report["verdict"] == "NORMALIZED", f"verdict {report['verdict']}")
    _expect(rc == 0, f"exit code {rc} for NORMALIZED")
    _expect(report["exact"] is True, "frame is not exact")
    _expect(report["transversality"]["transversal"] is True, "section reported not transversal")
    _expect(report["orbit_dimension"] == fiber_dimension(spec, n), "orbit dimension is not the fiber dimension")
    jet = _jet_from_document(report["frame"], n)
    _expect(jet == frame_jet(spec, n, c), "frame differs from the closed-form frame")
    moved = act(jet, c, n)
    section = frame_section(spec, n)
    for name, value in section.items():
        _expect(moved[name] == value, f"frame moves {name} to {moved[name]}, section fixes {value}")
    invariants = {name: Fraction(v) for name, v in report["invariants"].items()}
    want = {name: v for name, v in moved.items() if name not in section}
    _expect(invariants == want, "invariants differ from the moved point's free coordinates")


def points_decided(command: str, report: dict) -> int:
    """Jet points a command decided: a sweep decides its base point and
    every lift it checked; other commands decide one point."""
    if command == "persistence":
        return 1 + report["lifts_checked"]
    return 1
