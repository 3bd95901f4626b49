"""Command-line interface and machine-readable reports.

Subcommands parse pseudogroup spec files, compute local-freeness
verdicts at jet points, sweep persistence over random lifts, build
normalized moving frames, and decide isotropy triviality.  Reports are
plain text by default and exactly one JSON document with --json; all
rationals are serialized as strings so nothing is lost to floating
point.  Exit codes: 0 affirmative, 1 negative verdict, 2 error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from .detsys import PseudogroupSpec, validate_consistency
from .dsl import ParseDiagnostic, SpecSource, load_bundled_spec, parse_spec, serialize_spec
from .errors import JetfreeError, NoSolution, NotTransversal, PreconditionViolation
from .frames import CrossSection, MovingFrameChart, invariants
from .freeness import (
    INCONCLUSIVE,
    LOCALLY_FREE,
    PERSISTS,
    TRIVIAL,
    isotropy_jets_triangular,
    local_freeness,
    persistence_sweep,
)
from .jetspace import context_for, jet_keys
from .prolong import DiffeoJet, SubmanifoldJetPoint, VectorFieldJet

# -- document serialization ---------------------------------------------------------


def _rational(value, what: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise PreconditionViolation(f"{what} must be an exact rational string, got {value!r}")
    if isinstance(value, str):
        # reports print every rational in full, so refuse one that would
        # be too long to print before Fraction builds 10**exponent
        mantissa, _, exponent = value.strip().lower().partition("e")
        try:
            digits = len(mantissa) + (abs(int(exponent)) if exponent else 0)
        except ValueError as exc:
            raise PreconditionViolation(f"{what} is not a rational: {value[:40]!r}") from exc
        limit = sys.get_int_max_str_digits() or 4300
        if digits > limit:
            raise PreconditionViolation(f"{what} has more than {limit} digits")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise PreconditionViolation(f"{what} is not a rational: {value!r}") from exc


def point_to_document(z: SubmanifoldJetPoint) -> dict:
    """PointDocument: order, independent/dependent values, higher jets,
    all rationals as strings."""
    ctx = context_for(z.space)
    keys = jet_keys(z.space.q, z.space.p, 1, z.order)
    return {
        "order": z.order,
        "independent": {name: str(v) for name, v in zip(z.space.independent, z.x)},
        "dependent": {
            z.space.dependent[al]: str(z.u[(al, ())]) for al in range(z.space.q)
        },
        "jets": {ctx.sub_name(al, J): str(z.u[(al, J)]) for al, J in keys},
    }


def point_from_document(space, doc) -> SubmanifoldJetPoint:
    """Parse and validate a PointDocument against the space: all
    coordinates through the stated order, nothing extra."""
    if not isinstance(doc, dict):
        raise PreconditionViolation("point document must be a JSON object")
    order = doc.get("order")
    if not isinstance(order, int) or isinstance(order, bool) or order < 0:
        raise PreconditionViolation("point document needs a nonnegative integer 'order'")
    for key in doc:
        if key not in ("order", "independent", "dependent", "jets"):
            raise PreconditionViolation(f"unknown point document key {key!r}")
    indep = doc.get("independent", {})
    dep = doc.get("dependent", {})
    jets = doc.get("jets", {})
    for name, block in (("independent", indep), ("dependent", dep), ("jets", jets)):
        if not isinstance(block, dict):
            raise PreconditionViolation(f"point document {name!r} must be an object")
    ctx = context_for(space)
    x = []
    for name in space.independent:
        if name not in indep:
            raise PreconditionViolation(f"missing independent value {name!r}")
        x.append(_rational(indep[name], f"independent value {name!r}"))
    for name in indep:
        if name not in space.independent:
            raise PreconditionViolation(f"unknown independent coordinate {name!r}")
    u: dict[tuple[int, tuple], Fraction] = {}
    for al, name in enumerate(space.dependent):
        if name not in dep:
            raise PreconditionViolation(f"missing dependent value {name!r}")
        u[(al, ())] = _rational(dep[name], f"dependent value {name!r}")
    for name in dep:
        if name not in space.dependent:
            raise PreconditionViolation(f"unknown dependent coordinate {name!r}")
    want = {ctx.sub_name(al, J): (al, J) for al, J in jet_keys(space.q, space.p, 1, order)}
    for name in jets:
        if name not in want:
            raise PreconditionViolation(
                f"unknown jet coordinate {name!r} for order {order}"
            )
    for name, key in want.items():
        if name not in jets:
            raise PreconditionViolation(f"missing jet coordinate {name!r}")
        u[key] = _rational(jets[name], f"jet coordinate {name!r}")
    return SubmanifoldJetPoint(space, order, tuple(x), u)


def jet_to_document(g: DiffeoJet) -> dict:
    name, m = context_for(g.space).target_name, g.space.m
    return {name(a, B): str(g.coeffs[(a, B)]) for a, B in jet_keys(m, m, 0, g.order)}


def vf_to_document(v: VectorFieldJet) -> dict:
    name, m = context_for(v.space).vf_name, v.space.m
    return {name(a, B): str(v.coeffs[(a, B)]) for a, B in jet_keys(m, m, 0, v.order)}


def _diag_document(d) -> dict:
    return {
        "severity": d.severity,
        "code": d.code,
        "message": d.message,
        "line": d.line,
        "column": d.column,
        "end_line": d.end_line,
        "end_column": d.end_column,
    }


def _report(command: str, pseudogroup, order, point) -> dict:
    """ReportDocument skeleton; commands fill their fields, the rest stay
    null so one schema covers every command."""
    return {
        "command": command,
        "pseudogroup": pseudogroup,
        "order": order,
        "point": point,
        "verdict": None,
        "kernel_dimension": None,
        "kernel_basis": None,
        "orbit_dimension": None,
        "samples": None,
        "seed": None,
        "failures": [],
        "timing_ms": None,
    }


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


# -- input loading ------------------------------------------------------------------


def _read_source(arg: str) -> SpecSource:
    path = Path(arg)
    if path.exists():
        try:
            return SpecSource.from_file(path)
        except (OSError, UnicodeDecodeError) as exc:
            raise PreconditionViolation(f"cannot read spec {arg!r}: {exc}") from exc
    name = arg[:-4] if arg.endswith(".psg") else arg
    try:
        return load_bundled_spec(name)
    except FileNotFoundError as exc:
        raise PreconditionViolation(f"spec not found: {arg!r} (no such file or bundled name)") from exc


# distinct spec texts whose parsed spec a process keeps
SPEC_CACHE_SIZE = 8


@functools.lru_cache(maxsize=SPEC_CACHE_SIZE)
def _parsed(text: str) -> tuple[PseudogroupSpec | None, tuple[ParseDiagnostic, ...]]:
    """parse_spec of the spec text, kept for the most recently used
    texts.  A spec owns its linear system and prolongations, so commands
    on one spec text share that work; point state is never kept.  A spec
    with both system forms is first checked for their agreement at a few
    sampled points of its base order (validate_consistency); a spec that
    fails raises PreconditionViolation and is not kept."""
    spec, diags = parse_spec(text)
    if spec is not None and not any(d.severity == "error" for d in diags):
        validate_consistency(spec, points=10, extra_orders=0)
    return spec, tuple(diags)


def _require_spec(arg: str) -> PseudogroupSpec:
    src = _read_source(arg)
    try:
        spec, diags = _parsed(src.text)
    except PreconditionViolation as exc:
        raise PreconditionViolation(f"{src.origin}: {exc}") from exc
    errors = [d for d in diags if d.severity == "error"]
    if spec is None or errors:
        rendered = "; ".join(d.render(src.origin) for d in errors) or "unparseable spec"
        raise PreconditionViolation(rendered)
    return spec


def _load_point(space, path: str) -> SubmanifoldJetPoint:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionViolation(f"cannot read point document: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise PreconditionViolation(f"point document is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer literal past the int-to-str limit
        raise PreconditionViolation(f"point document has a number too long to read: {exc}") from exc
    return point_from_document(space, doc)


def _publish(doc: dict, args, lines: list[str]) -> None:
    """Emit the report: the JSON document with --json, else the text
    lines.  With --timing the document records the command's wall time."""
    if args.timing:
        doc["timing_ms"] = round((time.perf_counter() - args.started) * 1000.0, 3)
    if args.json:
        _emit(doc)
    else:
        for line in lines:
            print(line)


def _fail(args, message: str, **extra) -> int:
    if getattr(args, "json", False):
        doc = _report(getattr(args, "command", None), None, getattr(args, "order", None), None)
        doc["verdict"] = "ERROR"
        doc["error"] = message
        doc.update(extra)
        _emit(doc)
    else:
        print(f"error: {message}", file=sys.stderr)
    return 2


# -- subcommands --------------------------------------------------------------------


def cmd_parse(args) -> int:
    src = _read_source(args.spec)
    spec, diags = parse_spec(src)
    errors = [d for d in diags if d.severity == "error"]
    ok = spec is not None and not errors
    if args.json:
        print(json.dumps([_diag_document(d) for d in diags], indent=2, sort_keys=True))
    else:
        for d in diags:
            print(d.render(src.origin), file=sys.stderr)
        if ok:
            sys.stdout.write(serialize_spec(spec))
    return 0 if ok else 2


def cmd_freeness(args) -> int:
    spec = _require_spec(args.spec)
    z = _load_point(spec.space, args.point)
    if z.order != args.order:
        raise PreconditionViolation(
            f"point has order {z.order}, freeness was requested at order {args.order}"
        )
    verdict = local_freeness(spec, args.order, z)
    doc = _report("freeness", spec.name, args.order, point_to_document(verdict.point))
    doc["verdict"] = verdict.verdict
    doc["kernel_dimension"] = verdict.kernel_dimension
    doc["kernel_basis"] = [vf_to_document(v) for v in verdict.kernel_basis]
    doc["orbit_dimension"] = verdict.orbit_dimension
    text = (
        f"{verdict.verdict} at order {args.order}: kernel dimension "
        f"{verdict.kernel_dimension}, orbit dimension {verdict.orbit_dimension}"
    )
    _publish(doc, args, [text])
    return 0 if verdict.verdict == LOCALLY_FREE else 1


def cmd_persistence(args) -> int:
    spec = _require_spec(args.spec)
    if args.order < spec.effective_order:
        raise PreconditionViolation(
            f"order {args.order} is below the determining system's order {spec.effective_order}"
        )
    if args.through <= args.order:
        raise PreconditionViolation("--through must exceed --order")
    z = _load_point(spec.space, args.point)
    if z.order < args.order:
        raise PreconditionViolation(
            f"point has order {z.order}, the sweep starts at order {args.order}"
        )
    rep = persistence_sweep(
        spec, args.order, z, through=args.through, samples=args.samples, seed=args.seed
    )
    doc = _report("persistence", spec.name, args.order, point_to_document(rep.point))
    doc["verdict"] = rep.verdict
    doc["kernel_dimension"] = rep.base_verdict.kernel_dimension
    doc["orbit_dimension"] = rep.base_verdict.orbit_dimension
    doc["samples"] = args.samples
    doc["seed"] = args.seed
    doc["through"] = args.through
    doc["lifts_checked"] = rep.lifts_checked
    doc["skipped"] = rep.skipped
    doc["failures"] = [
        {
            "order": f.order,
            "lift": point_to_document(f.lift),
            "kernel_basis": [vf_to_document(v) for v in f.kernel_basis],
        }
        for f in rep.failures
    ]
    if rep.verdict == PERSISTS:
        text = (
            f"PERSISTS: {rep.lifts_checked} lifts locally free through order "
            f"{args.through} ({rep.skipped} skipped)"
        )
    elif rep.verdict == INCONCLUSIVE:
        text = f"INCONCLUSIVE: all {rep.skipped} lifts through order {args.through} were skipped"
    else:
        text = (
            f"COUNTEREXAMPLE at order {rep.failures[0].order}: see --json for the lift "
            "and kernel element"
        )
    _publish(doc, args, [text])
    return 0 if rep.verdict == PERSISTS else 1


def cmd_frame(args) -> int:
    spec = _require_spec(args.spec)
    try:
        cs_doc = json.loads(args.cross_section)
    except json.JSONDecodeError as exc:
        raise PreconditionViolation(f"cross-section is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer literal past the int-to-str limit
        raise PreconditionViolation(f"cross-section has a number too long to read: {exc}") from exc
    if not isinstance(cs_doc, dict) or not isinstance(cs_doc.get("fix"), dict):
        raise PreconditionViolation('cross-section must look like {"fix": {"x": "0"}}')
    fixes = {
        name: _rational(value, f"cross-section constant for {name!r}")
        for name, value in cs_doc["fix"].items()
    }
    cs = CrossSection.from_names(spec.space, args.order, fixes)
    z = _load_point(spec.space, args.point)
    if z.order < args.order:
        raise PreconditionViolation(
            f"point has order {z.order}, the frame was requested at order {args.order}"
        )
    zn = z.truncate(args.order)
    # anchor: the queried point moved onto the cross-section coordinate-wise
    fixed = dict(cs.pairs)
    x = tuple(fixed.get(("x", i), v) for i, v in enumerate(zn.x))
    u = {key: fixed.get(("u", *key), v) for key, v in zn.u.items()}
    anchor = SubmanifoldJetPoint(spec.space, args.order, x, u)
    try:
        chart = MovingFrameChart(spec, args.order, cs, anchor)
        tr = chart.transversality
    except NotTransversal as exc:
        chart, tr = None, exc.report
    certificate = {
        "jet_dimension": tr.jet_dimension,
        "fixed_count": tr.fixed_count,
        "orbit_dimension": tr.orbit_dimension,
        "stacked_rank": tr.stacked_rank,
        "transversal": tr.transversal,
    }
    if chart is None:
        return _fail(
            args,
            "cross-section is not transversal to the orbit at the anchor: "
            f"jet dimension {tr.jet_dimension}, fixed {tr.fixed_count}, "
            f"orbit dimension {tr.orbit_dimension}, stacked rank {tr.stacked_rank}",
            transversality=certificate,
        )
    doc = _report("frame", spec.name, args.order, point_to_document(zn))
    doc["orbit_dimension"] = tr.orbit_dimension
    doc["transversality"] = certificate
    try:
        res = chart.result(zn)
    except NoSolution as exc:
        doc["verdict"] = "OUTSIDE_CHART"
        doc["error"] = str(exc)
        _publish(doc, args, [f"OUTSIDE_CHART: {exc}"])
        return 1
    doc["verdict"] = "NORMALIZED"
    doc["frame"] = jet_to_document(res.jet)
    doc["exact"] = res.exact
    if args.invariants:
        normalized = set(cs.names())
        doc["invariants"] = {
            name: str(value)
            for name, value in invariants(chart, zn)
            if name not in normalized
        }
    else:
        doc["invariants"] = None
    lines = [f"NORMALIZED ({'exact' if res.exact else 'float'})"]
    lines += [f"  {name} = {value}" for name, value in sorted(doc["frame"].items())]
    lines += [f"  invariant {name} = {value}" for name, value in (doc["invariants"] or {}).items()]
    _publish(doc, args, lines)
    return 0


def cmd_isotropy(args) -> int:
    spec = _require_spec(args.spec)
    z = _load_point(spec.space, args.point)
    if z.order < args.order:
        raise PreconditionViolation(
            f"point has order {z.order}, isotropy was requested at order {args.order}"
        )
    rep = isotropy_jets_triangular(spec, args.order, z)
    doc = _report("isotropy", spec.name, args.order, point_to_document(rep.point))
    doc["verdict"] = rep.status
    doc["witness"] = jet_to_document(rep.witness) if rep.witness is not None else None
    lines = [rep.status]
    if rep.witness is not None:
        lines += [f"  {name} = {value}" for name, value in sorted(doc["witness"].items())]
    _publish(doc, args, lines)
    return 0 if rep.status == TRIVIAL else 1


# -- entry point --------------------------------------------------------------------


def _add_common(p) -> None:
    p.add_argument("spec", help="path to a .psg spec or a bundled name (e1, e2, e3)")
    p.add_argument("--json", action="store_true", help="emit one JSON report document")
    p.add_argument("--timing", action="store_true", help="include wall time in the report")
    p.add_argument("--order", type=int, required=True, help="jet order n")
    p.add_argument("--point", required=True, help="path to a JSON point document")


# built on the first main() call and kept for the process
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="jetfree",
        description="Exact pseudogroup actions on submanifold jets: freeness, "
        "persistence, moving frames, isotropy.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a spec and echo the normalized form")
    p.add_argument("spec", help="path to a .psg spec or a bundled name (e1, e2, e3)")
    p.add_argument("--json", action="store_true", help="emit diagnostics as a JSON array")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("freeness", help="local freeness verdict at a jet point")
    _add_common(p)
    p.set_defaults(func=cmd_freeness)

    p = sub.add_parser("persistence", help="sweep freeness over random lifts")
    _add_common(p)
    p.add_argument("--through", type=int, required=True, help="highest lift order")
    p.add_argument("--samples", type=int, default=100, help="lifts per order")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.set_defaults(func=cmd_persistence)

    p = sub.add_parser("frame", help="normalized moving frame at a jet point")
    _add_common(p)
    p.add_argument(
        "--cross-section",
        required=True,
        dest="cross_section",
        help='coordinate section as JSON, e.g. {"fix": {"x": "0", "u.x": "1"}}',
    )
    p.add_argument("--invariants", action="store_true", help="list the invariant entries")
    p.set_defaults(func=cmd_frame)

    p = sub.add_parser("isotropy", help="triangular isotropy decision at a jet point")
    _add_common(p)
    p.set_defaults(func=cmd_isotropy)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    args.started = time.perf_counter()
    try:
        if getattr(args, "order", 0) < 0:
            raise PreconditionViolation(f"--order must be nonnegative, got {args.order}")
        return args.func(args)
    except JetfreeError as exc:
        return _fail(args, str(exc))


if __name__ == "__main__":
    sys.exit(main())
