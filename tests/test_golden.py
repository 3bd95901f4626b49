"""Default --json reports, byte for byte, against tests/golden/reports.json.

The file holds the exit code and stdout of a fixed list of freeness,
isotropy, persistence and frame commands on e1-e3 and on the p = 2 spec
tests/specs/p2.psg: free points, non-free points and order-3 points.
A change that alters any default report fails here.  After a change of
reports that is intended, rewrite the file with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

import jetfree.cli as cli

HERE = Path(__file__).parent
GOLDEN = HERE / "golden" / "reports.json"
P2_SPEC = HERE / "specs" / "p2.psg"


def _pt(order, x, u, **jets):
    return {"order": order, "independent": x, "dependent": u, "jets": jets}


def _e(order, x, u, *jets):
    """A point of J^order over (x; u), jets u.x, u.xx, ... in order."""
    names = ["u." + "x" * k for k in range(1, order + 1)]
    return _pt(order, {"x": x}, {"u": u}, **dict(zip(names, jets)))


POINTS = {
    # the points of tests/test_cli.py
    "free": _e(1, "0", "0", "1"),
    "e2": _e(2, "3", "-1", "1/2", "2"),
    "p2": _pt(1, {"x": "1", "y": "-2"}, {"u": "1/2"}, **{"u.x": "2", "u.y": "-1"}),
    # non-free points: a kernel basis and an isotropy witness
    "flat": _e(1, "1", "1", "0"),
    "e2-flat": _e(2, "1", "1", "0", "0"),
    "p2-flat": _pt(1, {"x": "0", "y": "1"}, {"u": "1"}, **{"u.x": "0", "u.y": "0"}),
    # order-3 points
    "o3": _e(3, "1", "-2", "1/2", "-1", "3"),
    "o3-flat": _e(3, "-1", "2", "0", "0", "0"),
}

# per (spec, order): two coordinate cross-sections for frame --invariants
SECTIONS = {
    ("e1", 1): ({"x": "0", "u.x": "1"}, {"x": "1", "u.x": "-1/2"}),
    ("e1", 3): ({"x": "0", "u.x": "1", "u.xx": "0", "u.xxx": "0"},
                {"x": "1", "u.x": "2", "u.xx": "1", "u.xxx": "-1"}),
    ("e2", 2): ({"x": "0", "u.x": "1"}, {"x": "1", "u.x": "-2"}),
    ("e2", 3): ({"x": "0", "u.x": "1"}, {"x": "1", "u.x": "-2"}),
    ("e3", 1): ({"x": "0", "u": "1", "u.x": "0"}, {"x": "1", "u": "2", "u.x": "1"}),
    ("e3", 3): ({"x": "0", "u": "1", "u.x": "0", "u.xx": "0", "u.xxx": "0"},
                {"x": "1", "u": "-1", "u.x": "2", "u.xx": "1", "u.xxx": "-1"}),
    ("p2", 1): ({"x": "0", "y": "0", "u.x": "2", "u.y": "-1"},
                {"x": "1", "y": "-1", "u.x": "1", "u.y": "1"}),
}

# (spec, order, point) for each group of commands
CASES = [
    ("e1", 1, "free"), ("e1", 1, "flat"), ("e1", 3, "o3"),
    ("e2", 2, "e2"), ("e2", 2, "e2-flat"), ("e2", 3, "o3"),
    ("e3", 1, "free"), ("e3", 1, "flat"), ("e3", 3, "o3-flat"),
    ("p2", 1, "p2"), ("p2", 1, "p2-flat"),
]


def commands() -> list[list[str]]:
    """The argv of every recorded command, with the point given by name."""
    out = []
    for spec, order, point in CASES:
        head = ["--order", str(order), "--point", point, "--json"]
        out.append(["freeness", spec] + head)
        out.append(["isotropy", spec] + head)
        out.append(["persistence", spec] + head
                   + ["--through", str(order + 1), "--samples", "3", "--seed", "0"])
        for cs in SECTIONS[(spec, order)]:
            out.append(["frame", spec] + head
                       + ["--cross-section", json.dumps({"fix": cs}), "--invariants"])
    return out


def run(argv: list[str], point_dir: Path) -> dict:
    """Exit code and stdout of one command, the point and the p2 spec
    resolved to files."""
    real = list(argv)
    real[1] = str(P2_SPEC) if real[1] == "p2" else real[1]
    i = real.index("--point") + 1
    real[i] = str(point_dir / f"{real[i]}.json")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(real)
    return {"argv": argv, "rc": rc, "stdout": out.getvalue()}


def _write_points(point_dir: Path) -> None:
    for name, doc in POINTS.items():
        (point_dir / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")


def _golden() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_the_command_list():
    assert [g["argv"] for g in _golden()] == commands()


@pytest.mark.parametrize("index", range(len(commands())))
def test_report_is_byte_identical(index, tmp_path):
    _write_points(tmp_path)
    want = _golden()[index]
    assert run(want["argv"], tmp_path) == want


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _write_points(Path(tmp))
        records = [run(argv, Path(tmp)) for argv in commands()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    for r in records:
        verdict = json.loads(r["stdout"])["verdict"]
        print(r["rc"], verdict, " ".join(r["argv"]), file=sys.stderr)
