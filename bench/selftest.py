"""Self-test of the benchmark's oracles and report checks.

Usage, from the root of a checkout:  python3 bench/selftest.py

First each oracle is tested on its own, on hand-worked cases and
against the other oracles, without jetfree.  Then one real report of
each command kind is checked, tampered with (a flipped verdict, a
changed frame coefficient, a dropped lift, ...) and checked again; the
check must accept the real report and reject every tampered one.
Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import oracles
import workload
from oracles import CheckFailed, act, coords, frame_jet, frame_section, identity_jet, u_name

F = Fraction
FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    if not cond:
        FAILURES.append(what)


def rejects(fn, what: str) -> None:
    try:
        fn()
    except CheckFailed:
        return
    FAILURES.append(f"not rejected: {what}")


def accepts(fn, what: str) -> None:
    try:
        fn()
    except CheckFailed as exc:
        FAILURES.append(f"rejected: {what}: {exc}")


def p1(n: int, x, *us) -> dict:
    return coords(oracles.point_document(n, {"x": F(x)}, F(us[0]), {u_name(k): F(us[k]) for k in range(1, n + 1)}))


# -- oracles on their own -------------------------------------------------------------


def test_closed_forms() -> None:
    expect(not oracles.is_free("e1", 2, p1(2, 0, 1, 0, 5)), "e1 free with u_x = 0")
    expect(oracles.is_free("e1", 1, p1(1, 0, 0, 2)), "e1 not free with u_x != 0")
    expect(oracles.is_free("e2", 3, p1(3, 0, 1, 0, 0, 4)), "e2 not free with u_xxx != 0")
    expect(not oracles.is_free("e2", 2, p1(2, 0, 1, 0, 0)), "e2 free on a flat jet")
    expect(not oracles.is_free("e3", 1, p1(1, 0, 0, 3)), "e3 free at u = 0")
    expect(oracles.is_free("p2", 1, {"u.x": F(1), "u.y": F(-2)}), "p2 not free with u_x u_y != 0")
    expect(not oracles.is_free("p2", 1, {"u.x": F(1), "u.y": F(0)}), "p2 free with u_y = 0")
    # e2: X_x = -1 fixes a jet whose only nonzero derivative has even order
    expect(not oracles.isotropy_trivial("e2", 2, p1(2, 0, 1, 0, 3)), "e2 even jet trivial")
    expect(oracles.isotropy_trivial("e2", 3, p1(3, 0, 1, 0, 3, 1)), "e2 odd jet nontrivial")
    expect([oracles.fiber_dimension(s, 2) for s in oracles.ALL_SPECS] == [3, 2, 4, 6], "fiber dimensions")
    # 1/(1 + x): derivatives 1, -1, 2, -6 at x = 0
    expect(oracles._reciprocal_derivatives([F(1), F(1), F(0), F(0)]) == [1, -1, 2, -6], "1/u derivatives")


def test_action() -> None:
    rng = random.Random(5)
    for n in range(4):
        c = p1(n, *[F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 2)])
        expect(act(identity_jet((c["x"], c["u"]), n), c, n) == c, f"identity moves an order-{n} point")
    c = p1(3, 1, 2, 3, 5, 7)
    # X = x0 + 2 (x - x0), U = u: u_k scales by 2^-k
    scale = identity_jet((F(1), F(2)), 3)
    scale["X.x"] = F(2)
    expect(act(scale, c, 3) == p1(3, 1, 2, F(3, 2), F(5, 4), F(7, 8)), "scaling action")
    # U = u + x: u_x gains 1, higher jets stay
    shear = identity_jet((F(1), F(3)), 3)
    shear["U.x"] = F(1)
    expect(act(shear, c, 3) == p1(3, 1, 3, 4, 5, 7), "shear action")
    # X = x + (x - x0)^2 / 2 from x0 = 0, U = u, on u = x: w(X) = sqrt(1 + 2X) - 1
    bend = identity_jet((F(0), F(0)), 3)
    bend["X.xx"] = F(1)
    expect(act(bend, p1(3, 0, 0, 1, 0, 0), 3) == p1(3, 0, 0, 1, -1, 3), "bend action")


def test_frames_and_determining() -> None:
    rng = random.Random(11)
    for spec in oracles.P1_SPECS:
        for n in range(1, 4):
            if spec == "e2" and n < 2:
                continue
            base = (F(1), F(2))
            accepts(lambda: oracles.check_determining(spec, identity_jet(base, n), base, n), f"{spec} identity")
            for _ in range(5):
                us = [F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(n + 1)]
                us[0 if spec == "e3" else 1] = F(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
                c = p1(n, F(rng.randint(-9, 9)), *us)
                jet = frame_jet(spec, n, c)
                moved = act(jet, c, n)
                section = frame_section(spec, n)
                expect(all(moved[k] == v for k, v in section.items()), f"{spec} frame misses its section")
                b = (c["x"], c["u"])
                accepts(lambda: oracles.check_determining(spec, jet, b, n), f"{spec} closed-form frame")
    base = (F(0), F(1))
    bad = identity_jet(base, 2)
    bad["X.u"] = F(1)
    rejects(lambda: oracles.check_determining("e1", bad, base, 2), "e1 jet with X_u = 1")
    bad = identity_jet(base, 2)
    bad["X.xx"] = F(1)
    rejects(lambda: oracles.check_determining("e2", bad, base, 2), "e2 jet with X_xx = 1")
    accepts(lambda: oracles.check_determining("e1", bad, base, 2), "e1 jet with X_xx = 1")
    bad = identity_jet(base, 1)
    bad["X.x"] = F(2)
    rejects(lambda: oracles.check_determining("e3", bad, base, 1), "e3 jet with U_u != X_x")


# -- tampered reports -------------------------------------------------------------------


def _real(cli, workdir: Path, cmd: workload.Command) -> tuple[int, dict]:
    workload.write_points(workdir, [cmd])
    rc, report, _ = workload.run_command(cli, cmd)
    accepts(lambda: cmd.check(rc, report), f"real {' '.join(cmd.argv)}")
    return rc, report


def tampered(cmd, rc: int, report: dict, what: str, change, new_rc=None) -> None:
    bad = copy.deepcopy(report)
    change(bad)
    rejects(lambda: cmd.check(rc if new_rc is None else new_rc, bad), f"{cmd.kind} {cmd.spec}: {what}")


def _bump(doc: dict, key: str) -> None:
    doc[key] = str(Fraction(doc[key]) + 1)


def test_tampered_reports(cli, workdir: Path) -> None:
    inputs = workload.Inputs(random.Random("selftest"))

    cmd = workload.Command("freeness", "e1", 2, inputs.p1("e1", 2, free=True))
    rc, rep = _real(cli, workdir, cmd)
    tampered(cmd, rc, rep, "flipped verdict", lambda r: r.update(verdict="NOT_LOCALLY_FREE"))
    tampered(cmd, rc, rep, "exit code", lambda r: None, new_rc=1)
    tampered(cmd, rc, rep, "orbit dimension", lambda r: r.update(orbit_dimension=r["orbit_dimension"] - 1))
    tampered(cmd, rc, rep, "echoed point", lambda r: _bump(r["point"]["jets"], "u.x"))
    cmd = workload.Command("freeness", "e3", 1, inputs.p1("e3", 1, free=False))
    rc, rep = _real(cli, workdir, cmd)
    tampered(cmd, rc, rep, "flipped verdict", lambda r: r.update(verdict="LOCALLY_FREE"))

    for spec, n, samples in (("e2", 2, 3), ("p2", 1, 1)):
        cmd = workload._sweep(inputs, spec, n, samples)
        rc, rep = _real(cli, workdir, cmd)
        tampered(cmd, rc, rep, "dropped lift", lambda r: r.update(lifts_checked=r["lifts_checked"] - 1))
        tampered(cmd, rc, rep, "skipped lift", lambda r: r.update(skipped=1, lifts_checked=r["lifts_checked"] - 1))
        tampered(cmd, rc, rep, "flipped verdict", lambda r: r.update(verdict="COUNTEREXAMPLE"))
        tampered(cmd, rc, rep, "failure entry", lambda r: r.update(failures=[{"order": n + 1}]))

    cmd = workload.Command("isotropy", "e2", 3, inputs.p1("e2", 3, free=True))
    rc, rep = _real(cli, workdir, cmd)
    tampered(cmd, rc, rep, "flipped verdict", lambda r: r.update(verdict="NONTRIVIAL"))
    for spec in oracles.P1_SPECS:
        cmd = workload.Command("isotropy", spec, 2, inputs.p1(spec, 2, free=False))
        rc, rep = _real(cli, workdir, cmd)
        expect(rep["verdict"] == "NONTRIVIAL", f"{spec} non-free isotropy is {rep['verdict']}")
        c = coords(cmd.point)
        tampered(cmd, rc, rep, "flipped verdict", lambda r: r.update(verdict="TRIVIAL", witness=None), new_rc=0)
        tampered(cmd, rc, rep, "moved witness target", lambda r: _bump(r["witness"], "X"))
        tampered(cmd, rc, rep, "changed witness U_u", lambda r: _bump(r["witness"], "U.u"))
        tampered(cmd, rc, rep, "identity witness", lambda r: r.update(
            witness={k: str(v) for k, v in identity_jet((c["x"], c["u"]), 2).items()}))
        tampered(cmd, rc, rep, "truncated witness", lambda r: r["witness"].pop("U.uu"))

    for spec, n in (("e1", 3), ("e2", 2), ("e3", 3)):
        cmd = workload._frame(inputs, spec, n)
        rc, rep = _real(cli, workdir, cmd)
        tampered(cmd, rc, rep, "changed frame coefficient", lambda r: _bump(r["frame"], "X.x"))
        tampered(cmd, rc, rep, "changed top coefficient", lambda r: _bump(r["frame"], f"U.{'x' * n}"))
        tampered(cmd, rc, rep, "inexact frame", lambda r: r.update(exact=False))
        tampered(cmd, rc, rep, "extra invariant", lambda r: r["invariants"].update({"x": "0"}))
        if rep["invariants"]:
            tampered(cmd, rc, rep, "changed invariant", lambda r: _bump(r["invariants"], "u"))


def main() -> int:
    test_closed_forms()
    test_action()
    test_frames_and_determining()
    root = Path(__file__).resolve().parent.parent
    cli = workload.import_cli(root)
    (workload.BENCH / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workload.BENCH / "_work") as tmp:
        test_tampered_reports(cli, Path(tmp))
    for line in FAILURES:
        print("SELFTEST FAILED:", line)
    print("selftest:", "ok" if not FAILURES else f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
