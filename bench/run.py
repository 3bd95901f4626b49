"""jetfree benchmark: CLI verdict commands, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweeps --seed 1 --seconds 60 --trace 0

Spawns one fresh Python process (bench/workload.py) for the workload,
which imports jetfree from ./src and runs its CLI commands in-process
for --seconds.  With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 the workload runs with wrappers
around each layer's public functions and the line carries the
per-layer metrics.  Exits 1 without a result when the checkout has no
jetfree sources or the workload process fails.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_TIMEOUT_S = 170


def by_command(result: dict) -> tuple[float, float]:
    """Points per second and median command time of one round, each of
    the round's commands timed at the 90th percentile of its CPU time
    over its repetitions in the run.

    The host's speed drifts by up to 1.8x for seconds to minutes at a
    time, and its preemption stretches wall times.  The slow end of each
    command's CPU times moves least with either (see README.md)."""
    cpus: dict[int, list[float]] = {}
    points: dict[int, int] = {}
    for slot, _wall, cpu, decided in result["timed"]:
        cpus.setdefault(slot, []).append(cpu)
        points[slot] = decided
    p90 = [statistics.quantiles(v, n=10, method="inclusive")[-1] if len(v) > 1 else v[0] for v in cpus.values()]
    return sum(points.values()) / sum(p90), statistics.median(p90)


def end_to_end(result: dict, spawned: float) -> dict:
    points_per_s, cmd_s = by_command(result)
    return {
        "setup_s": (result["ready_monotonic"] - spawned, "s"),
        "points_per_s_p90": (points_per_s, "points/s"),
        "cmd_p90_s": (cmd_s, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def per_layer(result: dict) -> dict:
    out = {}
    for label, layer in result["layers"].items():
        out[f"{label}.calls"] = (layer["calls"], "count")
        out[f"{label}.self_s"] = (layer["self_s"], "s")
    out["linalg.cells"] = (result["linalg_cells"], "count")
    out["linalg.max_entry_bits"] = (result["linalg_max_entry_bits"], "bits")
    lifts = result["layers"]["sampling.lift_jet_point"]["calls"]
    # verdicts-p1 draws no lifts; its yield reads 0
    out["freeness.lift_yield"] = (result["lifts_checked"] / lifts if lifts else 0.0, "ratio")
    points_per_s, cmd_s = by_command(result)
    out["trace.points_per_s_p90"] = (points_per_s, "points/s")
    out["trace.cmd_p90_s"] = (cmd_s, "s")
    timed = result["timed"]
    out["trace.cpu_share"] = (sum(t[2] for t in timed) / sum(t[1] for t in timed), "ratio")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "jetfree" / "cli.py").is_file():
        print(f"error: no jetfree sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    argv = [
        sys.executable, "-s", str(BENCH / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--root", str(ROOT),
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT, timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload process ran past {WORKLOAD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: workload process exited {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    if not result["timed"]:
        print("error: no command completed correctly", file=sys.stderr)
        return 1

    correct = not result["mismatches"]
    if args.trace:
        metrics = per_layer(result)
        counted = result["layers"]["freeness.local_freeness"]["calls"]
        if counted != result["expected_local_freeness"]:
            print(
                f"error: {counted} local_freeness calls traced, "
                f"{result['expected_local_freeness']} derived from the reports",
                file=sys.stderr,
            )
            correct = False
    else:
        metrics = end_to_end(result, spawned)
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
