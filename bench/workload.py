"""One benchmark workload in one fresh process.

Usage: python3 bench/workload.py --workload NAME --seed N --seconds S
       --trace 0|1 --root CHECKOUT

Imports jetfree from CHECKOUT/src, writes the first round of point
documents, then runs whole rounds of CLI commands until S seconds have
passed.  Each command is one in-process call of ``jetfree.cli.main``
with ``--json``; its stdout is captured, and only that call is timed.
Reports are parsed and checked against the oracles after the timed
call.  The last stdout line is one JSON object for bench/run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracles

BENCH = Path(__file__).resolve().parent
P2_SPEC = BENCH / "specs" / "p2.psg"
WORKLOADS = ("sweeps", "verdicts-p1")

SWEEP_P1_SAMPLES = 10
SWEEP_P2_SAMPLES = 2
SWEEP_LIFT_ORDERS = 3
JET_BOUND = 5  # u-jets: numerators in [-5, 5], denominators in [1, 5]
X_BOUND = 999  # wide independent values keep every base point distinct


def _rational(rng: random.Random, bound: int) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def _nonzero(rng: random.Random, bound: int) -> Fraction:
    while True:
        v = _rational(rng, bound)
        if v:
            return v


class Inputs:
    """Seeded point documents.  Every point gets a base point (x, u)
    that no earlier point of the run had."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.bases: set = set()

    def _fresh_x(self, names, u0) -> dict:
        for _ in range(10000):
            x = {name: _rational(self.rng, X_BOUND) for name in names}
            key = (tuple(x.values()), u0)
            if key not in self.bases:
                self.bases.add(key)
                return x
        raise RuntimeError("could not draw a fresh base point")

    def p1(self, spec: str, n: int, free: bool) -> dict:
        """Order-n point of e1-e3.  Free points have the coordinate the
        closed form tests nonzero (u_x for e1 and e2, u for e3); non-free
        points have it zero (all of u_1..u_n for e2)."""
        rng = self.rng
        us = [_rational(rng, JET_BOUND) for _ in range(n + 1)]
        key = 0 if spec == "e3" else 1
        if free:
            us[key] = _nonzero(rng, JET_BOUND)
        elif spec == "e2":
            us[1:] = [Fraction(0)] * n
        else:
            us[key] = Fraction(0)
        x = self._fresh_x(("x",), us[0])
        jets = {oracles.u_name(k): us[k] for k in range(1, n + 1)}
        return oracles.point_document(n, x, us[0], jets)

    def p2(self, n: int) -> dict:
        """Order-n point of p2, free: u_x and u_y nonzero."""
        rng = self.rng
        jets = {
            oracles.u2_name(i, k - i): _rational(rng, JET_BOUND)
            for k in range(1, n + 1)
            for i in range(k, -1, -1)
        }
        jets["u.x"] = _nonzero(rng, JET_BOUND)
        jets["u.y"] = _nonzero(rng, JET_BOUND)
        u0 = _rational(rng, JET_BOUND)
        x = self._fresh_x(("x", "y"), u0)
        return oracles.point_document(n, x, u0, jets)

    def seed(self) -> int:
        return self.rng.randrange(10**6)


class Command:
    """One CLI call: its argv (without --point and --json), its input
    point, and the oracle check for its report."""

    def __init__(self, kind: str, spec: str, n: int, point: dict, extra=(), through=None, samples=None, seed=None):
        self.kind, self.spec, self.n, self.point = kind, spec, n, point
        self.through, self.samples, self.seed = through, samples, seed
        self.spec_arg = str(P2_SPEC) if spec == "p2" else spec
        self.argv = [kind, self.spec_arg, "--order", str(n), *extra]
        self.point_path = ""

    def check(self, rc: int, report: dict) -> None:
        if self.kind == "persistence":
            oracles.check_persistence(
                self.spec, self.n, self.through, self.samples, self.seed, self.point, rc, report
            )
        elif self.kind == "freeness":
            oracles.check_freeness(self.spec, self.n, self.point, rc, report)
        elif self.kind == "isotropy":
            oracles.check_isotropy(self.spec, self.n, self.point, rc, report)
        else:
            oracles.check_frame(self.spec, self.n, self.point, rc, report)


def _sweep(inputs: Inputs, spec: str, n: int, samples: int) -> Command:
    point = inputs.p2(n) if spec == "p2" else inputs.p1(spec, n, free=True)
    through = n + SWEEP_LIFT_ORDERS
    seed = inputs.seed()
    extra = ["--through", str(through), "--samples", str(samples), "--seed", str(seed)]
    return Command("persistence", spec, n, point, extra, through, samples, seed)


def _frame(inputs: Inputs, spec: str, n: int) -> Command:
    section = {"fix": {name: str(v) for name, v in oracles.frame_section(spec, n).items()}}
    extra = ["--cross-section", json.dumps(section, sort_keys=True), "--invariants"]
    return Command("frame", spec, n, inputs.p1(spec, n, free=True), extra)


def round_of(workload: str, inputs: Inputs) -> list[Command]:
    """One round: the same command shapes every time, fresh points."""
    if workload == "sweeps":
        # e2's determining system has order 2; the CLI sweeps from there
        p1 = [_sweep(inputs, spec, n, SWEEP_P1_SAMPLES) for spec, n in (("e1", 1), ("e2", 2), ("e3", 1))]
        return p1 + [_sweep(inputs, "p2", 1, SWEEP_P2_SAMPLES)]
    if workload == "verdicts-p1":
        out = []
        for spec in oracles.P1_SPECS:
            for n in range(1, oracles.MAX_P1_ORDER + 1):
                out.append(Command("freeness", spec, n, inputs.p1(spec, n, free=True)))
                out.append(Command("isotropy", spec, n, inputs.p1(spec, n, free=True)))
                # non-free isotropy at order 3 can come back UNDECIDED
                # (see CHANGES.md), so non-free points stop at order 2
                if n <= 2:
                    out.append(Command("freeness", spec, n, inputs.p1(spec, n, free=False)))
                    out.append(Command("isotropy", spec, n, inputs.p1(spec, n, free=False)))
                if not (spec == "e2" and n < 2):
                    out.append(_frame(inputs, spec, n))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def write_points(workdir: Path, commands: list[Command]) -> None:
    for i, cmd in enumerate(commands):
        path = workdir / f"point{i}.json"
        path.write_text(json.dumps(cmd.point), encoding="utf-8")
        cmd.point_path = str(path)


def run_command(cli, cmd: Command) -> tuple[int, dict, float, float]:
    """One in-process CLI call; only the call itself is timed, by the
    wall clock and by the process's CPU clock."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0, c0 = time.perf_counter(), time.process_time()
        rc = cli.main(cmd.argv + ["--point", cmd.point_path, "--json"])
        cpu, wall = time.process_time() - c0, time.perf_counter() - t0
    return rc, json.loads(buf.getvalue()), wall, cpu


def import_cli(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import jetfree.cli

    where = Path(jetfree.cli.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"jetfree was imported from {where}, not from {src}")
    return jetfree.cli


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--root", required=True)
    args = ap.parse_args()
    root = Path(args.root).resolve()

    cli = import_cli(root)
    workdir = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        inputs = Inputs(random.Random(f"{args.workload}:{args.seed}"))
        commands = round_of(args.workload, inputs)
        write_points(workdir, commands)
        ready = time.monotonic()
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        result = _run(cli, args, workdir, inputs, commands)
        result["ready_monotonic"] = ready
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = tracer.layers()
        result["linalg_cells"] = tracer.cells
        result["linalg_max_entry_bits"] = tracer.max_entry_bits
        out = BENCH / "_trace"
        out.mkdir(exist_ok=True)
        (out / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(result, indent=1, sort_keys=True), encoding="utf-8"
        )
    print(json.dumps(result, sort_keys=True))
    return 0


def _run(cli, args, workdir: Path, inputs: Inputs, commands: list[Command]) -> dict:
    attempted = failed = 0
    mismatches: list[str] = []
    # (place in its round, wall time, CPU time, points decided) of each
    # command whose report passed its check
    timed: list[tuple[int, float, float, int]] = []
    expected_local_freeness = 0
    lifts_checked = 0
    start = time.monotonic()
    while True:
        for slot, cmd in enumerate(commands):
            attempted += 1
            try:
                rc, report, wall, cpu = run_command(cli, cmd)
            except (Exception, SystemExit) as exc:  # a crash is a failed command
                failed += 1
                print(f"FAILED {' '.join(cmd.argv)}: {exc!r}", file=sys.stderr)
                continue
            if rc == 2:
                failed += 1
                print(f"FAILED {' '.join(cmd.argv)}: {report.get('error')}", file=sys.stderr)
                continue
            try:
                cmd.check(rc, report)
            except (oracles.CheckFailed, KeyError, TypeError, ValueError) as exc:
                mismatches.append(f"{' '.join(cmd.argv)}: {exc!r}")
                print(f"WRONG {' '.join(cmd.argv)}: {exc!r}\n{json.dumps(cmd.point)}", file=sys.stderr)
                continue
            timed.append((slot, wall, cpu, oracles.points_decided(cmd.kind, report)))
            if cmd.kind == "freeness":
                expected_local_freeness += 1
            elif cmd.kind == "persistence":
                expected_local_freeness += 1 + report["lifts_checked"] + report["skipped"]
                lifts_checked += report["lifts_checked"]
        if time.monotonic() - start >= args.seconds:
            break
        commands = round_of(args.workload, inputs)
        write_points(workdir, commands)
    return {
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches,
        "timed": timed,
        "expected_local_freeness": expected_local_freeness,
        "lifts_checked": lifts_checked,
    }


if __name__ == "__main__":
    sys.exit(main())
