"""Command-line interface: report documents, exit codes, determinism."""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

import jetfree.cli as cli
import jetfree.dsl as dsl
from jetfree.cli import main, point_from_document, point_to_document
from jetfree.dsl import bundled_spec_names, load_bundled_spec
from jetfree.errors import PreconditionViolation
from jetfree.jetspace import SpaceSpec

RATIONAL = re.compile(r"^-?\d+(/\d+)?$")

REPORT_SCHEMA = {
    "type": "object",
    "required": [
        "command",
        "pseudogroup",
        "order",
        "point",
        "verdict",
        "kernel_dimension",
        "kernel_basis",
        "orbit_dimension",
        "samples",
        "seed",
        "failures",
        "timing_ms",
    ],
    "properties": {
        "command": {"type": ["string", "null"]},
        "pseudogroup": {"type": ["string", "null"]},
        "order": {"type": ["integer", "null"]},
        "point": {"type": ["object", "null"]},
        "verdict": {"type": "string"},
        "kernel_dimension": {"type": ["integer", "null"]},
        "kernel_basis": {"type": ["array", "null"]},
        "orbit_dimension": {"type": ["integer", "null"]},
        "samples": {"type": ["integer", "null"]},
        "seed": {"type": ["integer", "null"]},
        "failures": {"type": "array"},
        "timing_ms": {"type": ["number", "null"]},
    },
}

P_FREE = {"order": 1, "independent": {"x": "0"}, "dependent": {"u": "0"}, "jets": {"u.x": "1"}}
P_FLAT = {"order": 1, "independent": {"x": "0"}, "dependent": {"u": "0"}, "jets": {"u.x": "0"}}
P_SLOPE2 = {"order": 1, "independent": {"x": "0"}, "dependent": {"u": "0"}, "jets": {"u.x": "2"}}

CS_X_UX = '{"fix": {"x": "0", "u.x": "1"}}'


def _run(capsys, argv):
    rc = main(argv)
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def _point_file(tmp_path, doc, name="point.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _report(out):
    doc = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    return doc


# -- point documents ----------------------------------------------------------------


def test_point_document_round_trip():
    sp = SpaceSpec(("x",), ("u",))
    z = point_from_document(sp, P_SLOPE2)
    assert z.order == 1
    assert z.x == (0,)
    assert z.u[(0, (0,))] == 2
    assert point_to_document(z) == P_SLOPE2


def test_point_document_rejects_bad_shapes():
    sp = SpaceSpec(("x",), ("u",))
    bad = [
        [],
        {"order": -1, "independent": {"x": "0"}, "dependent": {"u": "0"}, "jets": {}},
        {"order": "1", "independent": {"x": "0"}, "dependent": {"u": "0"}, "jets": {}},
        {"order": 0, "independent": {}, "dependent": {"u": "0"}, "jets": {}},
        {"order": 0, "independent": {"x": "0"}, "dependent": {}, "jets": {}},
        {"order": 0, "independent": {"x": "0", "y": "0"}, "dependent": {"u": "0"}, "jets": {}},
        {"order": 1, "independent": {"x": "0"}, "dependent": {"u": "0"}, "jets": {}},
        {"order": 0, "independent": {"x": "0"}, "dependent": {"u": "0"}, "jets": {"u.x": "1"}},
        {"order": 1, "independent": {"x": "0"}, "dependent": {"u": "0"}, "jets": {"u.y": "1"}},
        {"order": 0, "independent": {"x": "a"}, "dependent": {"u": "0"}, "jets": {}},
        {"order": 0, "independent": {"x": 0.5}, "dependent": {"u": "0"}, "jets": {}},
        {"order": 0, "independent": {"x": "0"}, "dependent": {"u": "0"}, "jets": {}, "extra": 1},
    ]
    for doc in bad:
        with pytest.raises(PreconditionViolation):
            point_from_document(sp, doc)


def test_point_document_accepts_integers_and_fraction_strings():
    sp = SpaceSpec(("x",), ("u",))
    doc = {"order": 0, "independent": {"x": 3}, "dependent": {"u": "-7/2"}, "jets": {}}
    z = point_from_document(sp, doc)
    assert z.x == (3,)
    assert str(z.u[(0, ())]) == "-7/2"
    # decimal strings are exact rationals; only float JSON numbers are rejected
    doc = {"order": 0, "independent": {"x": "0.5"}, "dependent": {"u": "0"}, "jets": {}}
    assert point_from_document(sp, doc).x == (Fraction(1, 2),)


# -- parse --------------------------------------------------------------------------


def test_parse_bundled_names_resolve(capsys):
    names = bundled_spec_names()
    assert {"e1", "e2", "e3"} <= set(names)
    for name in names:
        rc, out, _ = _run(capsys, ["parse", name])
        assert rc == 0
        assert out.startswith("pseudogroup")


def test_bundled_specs_are_read_once_per_process(capsys, tmp_path, monkeypatch):
    reads = []
    reader = dsl._read_bundled_file

    def counting(path):
        reads.append(path.name)
        return reader(path)

    monkeypatch.setattr(dsl, "_read_bundled_file", counting)
    dsl._bundled_texts.cache_clear()
    pt = _point_file(tmp_path, P_FREE)
    for _ in range(2):
        rc, out, _ = _run(capsys, ["freeness", "e1", "--order", "1", "--point", pt, "--json"])
        assert rc == 0 and _report(out)["verdict"] == "LOCALLY_FREE"
    assert sorted(reads) == ["e1.psg", "e2.psg", "e3.psg"]


@pytest.mark.parametrize("name", ["e9", "../e1"])
def test_unknown_bundled_name_lists_the_bundled_specs(name):
    with pytest.raises(FileNotFoundError, match=r"\(have: e1, e2, e3\)"):
        load_bundled_spec(name)


def test_parse_accepts_psg_suffix_and_file_path(capsys, tmp_path):
    rc, out, _ = _run(capsys, ["parse", "e1.psg"])
    assert rc == 0
    copy = tmp_path / "copy.psg"
    copy.write_text(out, encoding="utf-8")
    rc2, out2, _ = _run(capsys, ["parse", str(copy)])
    assert rc2 == 0
    # the normalized echo is a fixed point of parsing
    assert out2 == out


def test_parse_json_clean_spec_emits_empty_array(capsys):
    rc, out, _ = _run(capsys, ["parse", "e1", "--json"])
    assert rc == 0
    assert json.loads(out) == []


def test_parse_malformed_exits_2_with_spanned_diagnostic(capsys, tmp_path):
    bad = tmp_path / "bad.psg"
    bad.write_text('pseudogroup "b" {\n  space { independent: x; dependent: u; }\n'
                   "  base_order: 1;\n  determining { X.q = 0; }\n}\n", encoding="utf-8")
    rc, out, _ = _run(capsys, ["parse", str(bad), "--json"])
    assert rc == 2
    diags = json.loads(out)
    assert diags and all(d["severity"] == "error" for d in diags)
    for d in diags:
        assert isinstance(d["line"], int) and d["line"] >= 1
        assert isinstance(d["column"], int) and d["column"] >= 1
        assert d["code"]
    rc, out, err = _run(capsys, ["parse", str(bad)])
    assert rc == 2
    assert out == ""
    assert "error" in err and str(bad) in err


def test_unknown_spec_name_exits_2(capsys, tmp_path):
    pt = _point_file(tmp_path, P_FREE)
    rc, out, _ = _run(capsys, ["freeness", "nosuch", "--order", "1", "--point", pt, "--json"])
    assert rc == 2
    doc = _report(out)
    assert doc["verdict"] == "ERROR"
    assert "nosuch" in doc["error"]


@pytest.mark.parametrize("case", ["directory", "spec-not-utf8", "point-not-utf8"])
def test_unreadable_input_exits_2(capsys, tmp_path, case):
    """A spec that names a directory or is not UTF-8, and a point document
    that is not UTF-8, exit 2 with a message instead of a traceback."""
    spec, pt = "e1", _point_file(tmp_path, P_FREE)
    if case == "directory":
        spec = str(tmp_path)
    elif case == "spec-not-utf8":
        path = tmp_path / "latin1.psg"
        path.write_bytes(load_bundled_spec("e1").text.replace('"e1"', '"\xe91"').encode("latin-1"))
        spec = str(path)
    else:
        path = tmp_path / "latin1.json"
        doc = {**P_FREE, "independent": {"x\xe9": "0"}}
        path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("latin-1"))
        pt = str(path)
    what = "point document" if case == "point-not-utf8" else "spec"
    rc, out, err = _run(capsys, ["freeness", spec, "--order", "1", "--point", pt])
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {what}")
    rc, out, err = _run(capsys, ["freeness", spec, "--order", "1", "--point", pt, "--json"])
    assert rc == 2 and err == ""
    doc = _report(out)
    assert doc["verdict"] == "ERROR" and doc["error"].startswith(f"cannot read {what}")
    if case != "point-not-utf8":
        rc, out, err = _run(capsys, ["parse", spec])
        assert rc == 2 and out == "" and err.startswith("error: cannot read spec")


# -- freeness -----------------------------------------------------------------------


def test_freeness_free_point_report(capsys, tmp_path):
    pt = _point_file(tmp_path, P_FREE)
    rc, out, _ = _run(capsys, ["freeness", "e1", "--order", "1", "--point", pt, "--json"])
    assert rc == 0
    doc = _report(out)
    assert doc["command"] == "freeness"
    assert doc["pseudogroup"] == "e1"
    assert doc["order"] == 1
    assert doc["verdict"] == "LOCALLY_FREE"
    assert doc["kernel_dimension"] == 0
    assert doc["kernel_basis"] == []
    assert doc["orbit_dimension"] == 2
    assert doc["failures"] == []
    assert doc["point"] == P_FREE


def test_freeness_flat_point_report(capsys, tmp_path):
    pt = _point_file(tmp_path, P_FLAT)
    rc, out, _ = _run(capsys, ["freeness", "e1", "--order", "1", "--point", pt, "--json"])
    assert rc == 1
    doc = _report(out)
    assert doc["verdict"] == "NOT_LOCALLY_FREE"
    assert doc["kernel_dimension"] == 1
    assert len(doc["kernel_basis"]) == 1
    entry = doc["kernel_basis"][0]
    assert set(entry) == {"zeta{x}", "zeta{x}.x", "zeta{x}.u",
                          "zeta{u}", "zeta{u}.x", "zeta{u}.u"}
    assert all(RATIONAL.match(v) for v in entry.values())
    assert any(v != "0" for v in entry.values())


def test_freeness_requires_matching_point_order(capsys, tmp_path):
    pt = _point_file(tmp_path, P_FREE)
    rc, out, _ = _run(capsys, ["freeness", "e1", "--order", "2", "--point", pt, "--json"])
    assert rc == 2
    doc = _report(out)
    assert doc["verdict"] == "ERROR"
    assert "order" in doc["error"]


def test_freeness_human_output(capsys, tmp_path):
    pt = _point_file(tmp_path, P_FREE)
    rc, out, err = _run(capsys, ["freeness", "e1", "--order", "1", "--point", pt])
    assert rc == 0
    assert "LOCALLY_FREE" in out
    assert "{" not in out
    assert err == ""


def test_bad_point_file_exits_2(capsys, tmp_path):
    missing = str(tmp_path / "nope.json")
    rc, _, err = _run(capsys, ["freeness", "e1", "--order", "1", "--point", missing])
    assert rc == 2
    assert "error" in err
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json", encoding="utf-8")
    rc, out, _ = _run(capsys, ["freeness", "e1", "--order", "1",
                               "--point", str(garbled), "--json"])
    assert rc == 2
    assert _report(out)["verdict"] == "ERROR"


HUGE_INT = "9" * 5000  # a JSON integer literal past the int-to-str limit


@pytest.mark.parametrize("case", ["exponent", "point-integer", "cross-section-integer"])
def test_oversized_numbers_exit_2(capsys, tmp_path, case):
    argv = ["freeness", "e1", "--order", "1", "--json", "--point"]
    if case == "exponent":
        argv.append(_point_file(tmp_path, {**P_FREE, "jets": {"u.x": "1e400000"}}))
    elif case == "point-integer":
        path = tmp_path / "huge.json"
        path.write_text('{"order": 1, "independent": {"x": %s}, "dependent": {"u": "0"}, '
                        '"jets": {"u.x": "1"}}' % HUGE_INT, encoding="utf-8")
        argv.append(str(path))
    else:
        argv = ["frame", "e1", "--order", "1", "--json", "--point",
                _point_file(tmp_path, P_SLOPE2), "--cross-section", '{"fix": {"x": %s}}' % HUGE_INT]
    rc, out, err = _run(capsys, argv)
    assert rc == 2
    assert err == ""
    doc = _report(out)
    assert doc["verdict"] == "ERROR"
    assert "digits" in doc["error"] or "too long" in doc["error"]


def test_exponent_notation_within_the_limit_is_accepted():
    space = SpaceSpec(("x",), ("u",))
    doc = {"order": 1, "independent": {"x": "2e3"}, "dependent": {"u": "-15e-1"}, "jets": {"u.x": "1E2"}}
    z = point_from_document(space, doc)
    assert z.x == (Fraction(2000),)
    assert z.u[(0, ())] == Fraction(-3, 2) and z.u[(0, (0,))] == Fraction(100)
    with pytest.raises(PreconditionViolation):
        point_from_document(space, {**doc, "jets": {"u.x": "1e"}})


# -- persistence --------------------------------------------------------------------


def test_persistence_report_and_exit_0(capsys, tmp_path):
    pt = _point_file(tmp_path, P_FREE)
    rc, out, _ = _run(capsys, ["persistence", "e1", "--order", "1", "--point", pt,
                               "--through", "3", "--samples", "10", "--seed", "5", "--json"])
    assert rc == 0
    doc = _report(out)
    assert doc["verdict"] == "PERSISTS"
    assert doc["failures"] == []
    assert doc["samples"] == 10
    assert doc["seed"] == 5
    assert doc["through"] == 3
    assert doc["lifts_checked"] + doc["skipped"] == 20
    assert doc["kernel_dimension"] == 0
    assert doc["orbit_dimension"] == 2


def test_persistence_byte_identical_for_fixed_seed(capsys, tmp_path):
    pt = _point_file(tmp_path, P_FREE)
    argv = ["persistence", "e1", "--order", "1", "--point", pt,
            "--through", "3", "--samples", "15", "--seed", "42", "--json"]
    rc1, out1, _ = _run(capsys, argv)
    rc2, out2, _ = _run(capsys, argv)
    assert (rc1, out1) == (rc2, out2)
    rc3, out3, _ = _run(capsys, argv[:-2] + ["43", "--json"])
    assert rc3 == 0
    assert out3 != out1


def test_persistence_not_free_base_exits_2(capsys, tmp_path):
    pt = _point_file(tmp_path, P_FLAT)
    rc, out, _ = _run(capsys, ["persistence", "e1", "--order", "1", "--point", pt,
                               "--through", "2", "--samples", "5", "--seed", "0", "--json"])
    assert rc == 2
    doc = _report(out)
    assert doc["verdict"] == "ERROR"
    assert "not locally free" in doc["error"]


def test_persistence_precondition_errors(capsys, tmp_path):
    pt = _point_file(tmp_path, P_FREE)
    rc, _, err = _run(capsys, ["persistence", "e1", "--order", "1", "--point", pt,
                               "--through", "1", "--samples", "5", "--seed", "0"])
    assert rc == 2 and "through" in err
    # e2 has a second-order determining system, so order 1 is below it
    rc, _, err = _run(capsys, ["persistence", "e2", "--order", "1", "--point", pt,
                               "--through", "2", "--samples", "5", "--seed", "0"])
    assert rc == 2 and "order" in err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_persistence_without_samples_exits_2(capsys, tmp_path, samples):
    pt = _point_file(tmp_path, P_FREE)
    rc, out, _ = _run(capsys, ["persistence", "e1", "--order", "1", "--point", pt,
                               "--through", "3", "--samples", samples, "--json"])
    assert rc == 2
    doc = _report(out)
    assert doc["verdict"] == "ERROR"
    assert "sample" in doc["error"]


def test_persistence_all_lifts_skipped_is_inconclusive(capsys, tmp_path, monkeypatch):
    import jetfree.freeness as freeness
    from jetfree.errors import CoefficientSingularity

    real = freeness.local_freeness

    def singular_on_lifts(ps, n, z):
        if n > 1:
            raise CoefficientSingularity("forced singular lift")
        return real(ps, n, z)

    monkeypatch.setattr(freeness, "local_freeness", singular_on_lifts)
    pt = _point_file(tmp_path, P_FREE)
    argv = ["persistence", "e1", "--order", "1", "--point", pt,
            "--through", "3", "--samples", "4", "--seed", "0"]
    rc, out, _ = _run(capsys, argv + ["--json"])
    assert rc == 1
    doc = _report(out)
    assert doc["verdict"] == "INCONCLUSIVE"
    assert (doc["lifts_checked"], doc["skipped"]) == (0, 8)
    assert doc["failures"] == []
    rc, out, _ = _run(capsys, argv)
    assert rc == 1
    assert out.startswith("INCONCLUSIVE")


def test_persistence_flipped_lift_is_a_counterexample(capsys, tmp_path, monkeypatch):
    import jetfree.freeness as freeness

    real = freeness.local_freeness
    flat = point_from_document(SpaceSpec(("x",), ("u",)), P_FLAT)

    def flat_on_lifts(ps, n, z):
        # every lift gets the verdict of the flat point, which is not free
        return real(ps, 1, flat) if n > 1 else real(ps, n, z)

    pt = _point_file(tmp_path, P_FLAT, "flat.json")
    rc, out, _ = _run(capsys, ["freeness", "e1", "--order", "1", "--point", pt, "--json"])
    assert rc == 1
    flat_kernel = _report(out)["kernel_basis"]
    monkeypatch.setattr(freeness, "local_freeness", flat_on_lifts)
    pt = _point_file(tmp_path, P_FREE)
    argv = ["persistence", "e1", "--order", "1", "--point", pt,
            "--through", "3", "--samples", "4", "--seed", "0"]
    rc, out, _ = _run(capsys, argv + ["--json"])
    assert rc == 1
    doc = _report(out)
    assert doc["verdict"] == "COUNTEREXAMPLE"
    assert (doc["lifts_checked"], doc["skipped"]) == (1, 0)
    assert len(doc["failures"]) == 1
    failure = doc["failures"][0]
    assert set(failure) == {"order", "lift", "kernel_basis"}
    assert failure["order"] == 2
    lift = failure["lift"]
    assert lift["order"] == 2
    assert (lift["independent"], lift["dependent"]) == (P_FREE["independent"], P_FREE["dependent"])
    assert set(lift["jets"]) == {"u.x", "u.xx"}
    assert lift["jets"]["u.x"] == "1"
    assert failure["kernel_basis"] == flat_kernel and len(flat_kernel) == 1
    rc, out, _ = _run(capsys, argv)
    assert rc == 1
    assert out.strip() == "COUNTEREXAMPLE at order 2: see --json for the lift and kernel element"


# -- frame --------------------------------------------------------------------------


def test_frame_float_overflow_exits_2(capsys, tmp_path):
    # the float Newton fallback overflows on this p = 2 point
    spec = str(Path(__file__).parent / "specs" / "p2.psg")
    pt = _point_file(tmp_path, {
        "order": 1,
        "independent": {"x": "0", "y": "1"},
        "dependent": {"u": "0"},
        "jets": {"u.x": "-1", "u.y": "-3"},
    })
    cs = '{"fix": {"x":"0","y":"0","u.x":"1","u.y":"1"}}'
    rc, out, _ = _run(capsys, ["frame", spec, "--order", "1", "--point", pt,
                               "--cross-section", cs, "--json"])
    assert rc == 2
    doc = _report(out)
    assert doc["verdict"] == "ERROR"
    assert "did not converge" in doc["error"]


def test_frame_report_matches_contract(capsys, tmp_path):
    pt = _point_file(tmp_path, P_SLOPE2)
    rc, out, _ = _run(capsys, ["frame", "e1", "--order", "1", "--point", pt,
                               "--cross-section", CS_X_UX, "--invariants", "--json"])
    assert rc == 0
    doc = _report(out)
    assert doc["verdict"] == "NORMALIZED"
    assert doc["exact"] is True
    assert doc["frame"]["X"] == "0"
    assert doc["frame"]["X.x"] == "2"
    assert doc["invariants"] == {"u": "0"}
    assert doc["transversality"]["transversal"] is True
    assert doc["transversality"]["stacked_rank"] == 3
    assert doc["orbit_dimension"] == 2
    assert all(RATIONAL.match(v) for v in doc["frame"].values())


def test_frame_identity_on_cross_section(capsys, tmp_path):
    pt = _point_file(tmp_path, P_FREE)
    rc, out, _ = _run(capsys, ["frame", "e1", "--order", "1", "--point", pt,
                               "--cross-section", CS_X_UX, "--json"])
    assert rc == 0
    doc = _report(out)
    assert doc["frame"] == {"X": "0", "X.x": "1", "X.u": "0",
                            "U": "0", "U.x": "0", "U.u": "1"}
    assert doc["invariants"] is None


def test_frame_non_transversal_exits_2_with_certificate(capsys, tmp_path):
    pt = _point_file(tmp_path, P_SLOPE2)
    rc, out, _ = _run(capsys, ["frame", "e1", "--order", "1", "--point", pt,
                               "--cross-section", '{"fix": {"u": "0", "u.x": "1"}}', "--json"])
    assert rc == 2
    doc = _report(out)
    assert doc["verdict"] == "ERROR"
    cert = doc["transversality"]
    assert cert["transversal"] is False
    assert cert["stacked_rank"] < cert["jet_dimension"]


def test_frame_outside_chart_exits_1(capsys, tmp_path):
    pt = _point_file(tmp_path, P_FLAT)
    rc, out, _ = _run(capsys, ["frame", "e1", "--order", "1", "--point", pt,
                               "--cross-section", CS_X_UX, "--json"])
    assert rc == 1
    doc = _report(out)
    assert doc["verdict"] == "OUTSIDE_CHART"
    assert "frame" not in doc


def test_frame_rejects_bad_cross_sections(capsys, tmp_path):
    pt = _point_file(tmp_path, P_SLOPE2)
    for cs in ["{oops", '{"pin": {"x": "0"}}', '{"fix": {"w": "0"}}',
               '{"fix": {"x": "a"}}', '{"fix": {"x": 0.5}}']:
        rc, _, err = _run(capsys, ["frame", "e1", "--order", "1", "--point", pt,
                                   "--cross-section", cs])
        assert rc == 2
        assert err.startswith("error:")


def test_frame_human_output(capsys, tmp_path):
    pt = _point_file(tmp_path, P_SLOPE2)
    rc, out, _ = _run(capsys, ["frame", "e1", "--order", "1", "--point", pt,
                               "--cross-section", CS_X_UX, "--invariants"])
    assert rc == 0
    assert "NORMALIZED" in out
    assert "X.x = 2" in out
    assert "invariant u = 0" in out


def test_frame_checks_transversality_once(capsys, tmp_path, monkeypatch):
    import jetfree.cli as cli
    import jetfree.frames as frames

    real = frames.check_transversality
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(frames, "check_transversality", counted)
    monkeypatch.setattr(cli, "check_transversality", counted, raising=False)
    pt = _point_file(tmp_path, P_SLOPE2)
    for cs, want in ((CS_X_UX, 0), ('{"fix": {"u": "0", "u.x": "1"}}', 2)):
        calls.clear()
        rc, _, _ = _run(capsys, ["frame", "e1", "--order", "1", "--point", pt,
                                 "--cross-section", cs, "--json"])
        assert rc == want
        assert len(calls) == 1


# -- isotropy -----------------------------------------------------------------------


def test_isotropy_trivial(capsys, tmp_path):
    pt = _point_file(tmp_path, P_FREE)
    rc, out, _ = _run(capsys, ["isotropy", "e1", "--order", "1", "--point", pt, "--json"])
    assert rc == 0
    doc = _report(out)
    assert doc["verdict"] == "TRIVIAL"
    assert doc["witness"] is None


def test_isotropy_nontrivial_reports_witness(capsys, tmp_path):
    pt = _point_file(tmp_path, P_FLAT)
    rc, out, _ = _run(capsys, ["isotropy", "e1", "--order", "1", "--point", pt, "--json"])
    assert rc == 1
    doc = _report(out)
    assert doc["verdict"] == "NONTRIVIAL"
    witness = doc["witness"]
    assert set(witness) == {"X", "X.x", "X.u", "U", "U.x", "U.u"}
    assert all(RATIONAL.match(v) for v in witness.values())
    identity = {"X": "0", "X.x": "1", "X.u": "0", "U": "0", "U.x": "0", "U.u": "1"}
    assert witness != identity


def test_isotropy_undecided_on_nonaffine_stage(capsys, tmp_path):
    quad = tmp_path / "quad.psg"
    quad.write_text(
        'pseudogroup "quad" {\n'
        "  space {\n    independent: x;\n    dependent: u;\n  }\n"
        "  base_order: 1;\n"
        "  determining {\n    X.x * X.x - 1 = 0;\n    X.u = 0;\n    U - u = 0;\n  }\n"
        "}\n",
        encoding="utf-8",
    )
    pt = _point_file(tmp_path, P_FREE)
    rc, out, _ = _run(capsys, ["isotropy", str(quad), "--order", "1",
                               "--point", pt, "--json"])
    assert rc == 1
    doc = _report(out)
    assert doc["verdict"] == "UNDECIDED"
    assert doc["witness"] is None


E1_WITHOUT_DETERMINING = (
    'pseudogroup "e1" {\n'
    "  space {\n    independent: x;\n    dependent: u;\n  }\n"
    "  base_order: 1;\n"
    "  infinitesimal {\n    zeta{u} = 0;\n    zeta{x}.u = 0;\n  }\n"
    "}\n"
)


@pytest.mark.parametrize("command", ["isotropy", "frame"])
def test_staged_solves_need_determining_equations(capsys, tmp_path, command):
    """Without a determining block the staged solve has no pseudogroup
    equations to impose: isotropy used to report a witness outside the
    pseudogroup (U.u = -1 for e1's infinitesimal system alone), and frame
    a float fallback that did not converge."""
    spec = tmp_path / "e1_infinitesimal.psg"
    spec.write_text(E1_WITHOUT_DETERMINING, encoding="utf-8")
    pt = _point_file(tmp_path, {**P_FREE, "independent": {"x": "1"}, "dependent": {"u": "1"}})
    argv = [command, str(spec), "--order", "1", "--point", pt, "--json"]
    if command == "frame":
        argv += ["--cross-section", CS_X_UX]
    rc, out, _ = _run(capsys, argv)
    assert rc == 2
    doc = _report(out)
    assert doc["verdict"] == "ERROR"
    assert "needs determining equations" in doc["error"]
    # e1 itself, with its determining block, decides the same point
    rc, out, _ = _run(capsys, [command, "e1"] + argv[2:])
    assert rc == 0
    assert _report(out)["verdict"] == ("TRIVIAL" if command == "isotropy" else "NORMALIZED")


def test_spec_whose_two_systems_disagree_exits_2(capsys, tmp_path):
    """e1 with the extra infinitesimal equation zeta{x}.x = 0: its declared
    fiber is smaller than the linearized one, and the two used to give
    contradictory answers at x = u = u.x = 0 (freeness LOCALLY_FREE from
    the declared system, isotropy NONTRIVIAL with X.x = -1 from the
    determining equations).  Loading it refuses the spec; parse still
    accepts its syntax."""
    text = load_bundled_spec("e1").text.replace(
        "    zeta{x}.u = 0;\n", "    zeta{x}.u = 0;\n    zeta{x}.x = 0;\n"
    )
    assert text != load_bundled_spec("e1").text
    spec = tmp_path / "e1_disagree.psg"
    spec.write_text(text, encoding="utf-8")
    pt = _point_file(tmp_path, P_FLAT)
    for command in ("freeness", "isotropy"):
        rc, out, _ = _run(capsys, [command, str(spec), "--order", "1", "--point", pt, "--json"])
        assert rc == 2
        doc = _report(out)
        assert doc["verdict"] == "ERROR"
        assert "linearized and declared systems disagree at x = " in doc["error"]
        rc, out, err = _run(capsys, [command, str(spec), "--order", "1", "--point", pt])
        assert rc == 2 and out == ""
        assert err.startswith("error:") and "disagree" in err
    assert _run(capsys, ["parse", str(spec)])[0] == 0


@pytest.mark.parametrize("argv", [
    ["isotropy", "e1", "--order", "-2"],
    ["frame", "e1", "--order", "-1", "--cross-section", '{"fix":{}}'],
    ["freeness", "e1", "--order", "-1"],
    ["persistence", "e1", "--order", "-1", "--through", "1"],
])
def test_negative_order_exits_2(capsys, tmp_path, argv):
    pt = _point_file(tmp_path, P_FREE)
    rc, out, err = _run(capsys, argv + ["--point", pt])
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "--order must be nonnegative" in err
    rc, out, _ = _run(capsys, argv + ["--point", pt, "--json"])
    assert rc == 2
    doc = _report(out)
    assert doc["verdict"] == "ERROR"
    assert "--order must be nonnegative" in doc["error"]


# -- report plumbing ----------------------------------------------------------------


def test_every_json_mode_emits_exactly_one_document(capsys, tmp_path):
    pt = _point_file(tmp_path, P_FREE)
    runs = [
        ["freeness", "e1", "--order", "1", "--point", pt, "--json"],
        ["persistence", "e1", "--order", "1", "--point", pt,
         "--through", "2", "--samples", "3", "--seed", "0", "--json"],
        ["frame", "e1", "--order", "1", "--point", pt,
         "--cross-section", CS_X_UX, "--json"],
        ["isotropy", "e1", "--order", "1", "--point", pt, "--json"],
        ["parse", "e1", "--json"],
    ]
    for argv in runs:
        _, out, _ = _run(capsys, argv)
        json.loads(out)  # raises if stdout is not a single document


def test_timing_is_opt_in(capsys, tmp_path):
    pt = _point_file(tmp_path, P_FREE)
    rc, out, _ = _run(capsys, ["freeness", "e1", "--order", "1", "--point", pt, "--json"])
    assert json.loads(out)["timing_ms"] is None
    rc, out, _ = _run(capsys, ["freeness", "e1", "--order", "1", "--point", pt,
                               "--json", "--timing"])
    timing = json.loads(out)["timing_ms"]
    assert isinstance(timing, float) and timing >= 0


def test_json_error_documents_go_to_stdout(capsys, tmp_path):
    pt = _point_file(tmp_path, P_FREE)
    rc, out, err = _run(capsys, ["freeness", "e1", "--order", "3", "--point", pt, "--json"])
    assert rc == 2
    assert err == ""
    doc = _report(out)
    assert doc["verdict"] == "ERROR" and doc["error"]


# -- parsed specs shared within a process --------------------------------------------


P2_SPEC = Path(__file__).parent / "specs" / "p2.psg"
P2_FREE = {"order": 1, "independent": {"x": "1", "y": "-2"}, "dependent": {"u": "1/2"},
           "jets": {"u.x": "2", "u.y": "-1"}}
P_E2 = {"order": 2, "independent": {"x": "3"}, "dependent": {"u": "-1"},
        "jets": {"u.x": "1/2", "u.xx": "2"}}


def _interleaved(tmp_path):
    """freeness, persistence, isotropy and frame commands, interleaved
    across e1-e3 and p2, at free and non-free points."""
    free, flat = _point_file(tmp_path, P_FREE), _point_file(tmp_path, P_FLAT, "flat.json")
    e2, p2 = _point_file(tmp_path, P_E2, "e2.json"), _point_file(tmp_path, P2_FREE, "p2.json")
    sweep = ["--through", "3", "--samples", "2", "--seed", "4"]
    return [
        ["freeness", "e1", "--order", "1", "--point", free],
        ["persistence", "e2", "--order", "2", "--point", e2] + sweep,
        ["isotropy", "e3", "--order", "1", "--point", free],
        ["frame", str(P2_SPEC), "--order", "1", "--point", p2,
         "--cross-section", '{"fix": {"x": "0", "y": "0", "u": "0"}}', "--invariants"],
        ["freeness", "e1", "--order", "1", "--point", flat],
        ["persistence", str(P2_SPEC), "--order", "1", "--point", p2] + sweep,
        ["frame", "e1", "--order", "1", "--point", free, "--cross-section", CS_X_UX, "--invariants"],
        ["isotropy", "e1", "--order", "1", "--point", flat],
        ["freeness", "e3", "--order", "1", "--point", flat],
        ["persistence", "e1", "--order", "1", "--point", free] + sweep,
        ["isotropy", "e2", "--order", "2", "--point", e2],
        ["freeness", str(P2_SPEC), "--order", "1", "--point", p2],
        ["frame", "e2", "--order", "2", "--point", e2,
         "--cross-section", '{"fix": {"x": "0", "u.x": "1", "u.xx": "0"}}'],
        ["persistence", "e3", "--order", "1", "--point", free] + sweep,
        ["isotropy", str(P2_SPEC), "--order", "1", "--point", p2],
        ["freeness", "e2", "--order", "2", "--point", e2],
    ]


def test_shared_specs_give_the_reports_of_cleared_caches(capsys, tmp_path):
    """Commands interleaved across specs in one process report byte for
    byte what the same commands report with the spec cache cleared before
    each one."""
    commands = _interleaved(tmp_path)
    cleared = []
    for argv in commands:
        cli._parsed.cache_clear()
        cleared.append(_run(capsys, argv + ["--json"]))
    cli._parsed.cache_clear()
    shared = [_run(capsys, argv + ["--json"]) for argv in commands]
    assert cli._parsed.cache_info().hits == len(commands) - 4
    assert shared == cleared
    verdicts = {json.loads(out)["verdict"] for _, out, _ in shared}
    assert {"LOCALLY_FREE", "NOT_LOCALLY_FREE", "PERSISTS", "TRIVIAL", "NONTRIVIAL", "NORMALIZED"} <= verdicts


def test_shared_specs_keep_no_point_state(capsys, tmp_path):
    """A cached spec keeps only work keyed by jet order: its closures and
    its system's prolongations."""
    cli._parsed.cache_clear()
    for argv in _interleaved(tmp_path):
        _run(capsys, argv + ["--json"])
    for spec, _ in (cli._parsed(load_bundled_spec(name).text) for name in ("e1", "e2", "e3")):
        assert spec._closures and all(isinstance(k, int) for k in spec._closures)
        prolonged = spec.linear_system._prolonged
        assert prolonged and all(isinstance(k, int) for k in prolonged)
        assert all(not L._prolonged for L in prolonged.values())


def test_edited_spec_file_takes_effect(capsys, tmp_path):
    path = tmp_path / "edited.psg"
    pt = _point_file(tmp_path, P_FREE)
    argv = ["freeness", str(path), "--order", "1", "--point", pt, "--json"]
    path.write_text(load_bundled_spec("e1").text, encoding="utf-8")
    rc, out, _ = _run(capsys, argv)
    before = _report(out)
    assert rc == 0 and (before["pseudogroup"], before["verdict"]) == ("e1", "LOCALLY_FREE")
    # drop zeta{x}.u = 0: the fiber grows and the point is no longer free
    path.write_text(E1_WITHOUT_DETERMINING.replace('"e1"', '"edited"')
                    .replace("    zeta{x}.u = 0;\n", ""), encoding="utf-8")
    rc, out, _ = _run(capsys, argv)
    after = _report(out)
    assert rc == 1
    assert after["pseudogroup"] == "edited"
    assert after["verdict"] == "NOT_LOCALLY_FREE"


def test_spec_cache_is_bounded(capsys, tmp_path):
    cli._parsed.cache_clear()
    pt = _point_file(tmp_path, P_FREE)
    text = load_bundled_spec("e1").text
    for i in range(cli.SPEC_CACHE_SIZE + 3):
        path = tmp_path / f"spec{i}.psg"
        path.write_text(text.replace('"e1"', f'"copy{i}"'), encoding="utf-8")
        rc, out, _ = _run(capsys, ["freeness", str(path), "--order", "1", "--point", pt, "--json"])
        assert rc == 0 and _report(out)["pseudogroup"] == f"copy{i}"
        assert cli._parsed.cache_info().currsize == min(i + 1, cli.SPEC_CACHE_SIZE)
