"""Spec text format: parsing, diagnostics, round trips."""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from jetfree.detsys import declared_linear_system, fiber_basis, validate_consistency
from jetfree.dsl import (
    MIXED_KINDS,
    NON_RATIONAL_LITERAL,
    ORDER_EXCEEDS_DECLARED,
    SYNTAX,
    UNKNOWN_COORDINATE,
    SpecSource,
    bundled_spec_names,
    load_bundled_spec,
    parse_spec,
    serialize_spec,
)
from jetfree.prolong import context_for

FIXTURES = Path(__file__).parent / "fixtures"


def _parse_ok(text):
    spec, diags = parse_spec(text)
    assert spec is not None, [d.message for d in diags]
    assert not [d for d in diags if d.severity == "error"]
    return spec, diags


def _parse_fail(text):
    spec, diags = parse_spec(text)
    assert spec is None
    errors = [d for d in diags if d.severity == "error"]
    assert errors
    return errors


def test_bundled_specs_present():
    assert bundled_spec_names() == ["e1", "e2", "e3"]


def test_parse_bundled_e1():
    spec, diags = _parse_ok(load_bundled_spec("e1").text)
    assert diags == []
    assert spec.name == "e1"
    assert spec.space.independent == ("x",)
    assert spec.space.dependent == ("u",)
    assert spec.base_order == 1
    assert len(spec.determining) == 2
    assert len(spec.infinitesimal) == 2
    ctx = context_for(spec.space)
    U = ctx.expr(ctx.target_var(1, ()))
    u = ctx.expr(ctx.source_var(1))
    Xu = ctx.expr(ctx.target_var(0, (1,)))
    assert spec.determining == (U - u, Xu)


def test_bundled_specs_are_consistent_pseudogroups():
    # declared infinitesimal systems match the linearizations on samples
    for name in bundled_spec_names():
        spec, _ = _parse_ok(load_bundled_spec(name).text)
        validate_consistency(spec, seed=11, points=5)


def test_round_trip_bundled_specs():
    for name in bundled_spec_names():
        spec, _ = _parse_ok(load_bundled_spec(name).text)
        text = serialize_spec(spec)
        again, diags = _parse_ok(text)
        assert again == spec
        assert diags == []


def test_round_trip_is_idempotent_text():
    for name in bundled_spec_names():
        spec, _ = _parse_ok(load_bundled_spec(name).text)
        once = serialize_spec(spec)
        spec2, _ = _parse_ok(once)
        assert serialize_spec(spec2) == once


def test_rational_coefficient_survives_exactly():
    text = """
    pseudogroup "frac" {
      space { independent: x; dependent: u; }
      base_order: 1;
      infinitesimal { zeta{u} - 3/2 * zeta{x}.x = 0; }
    }
    """
    spec, _ = _parse_ok(text)
    (eq,) = spec.infinitesimal
    ctx = context_for(spec.space)
    coeff = eq.diff(ctx.vf_var(0, (0,)))
    assert coeff.as_scalar() == Fraction(-3, 2)
    again, _ = _parse_ok(serialize_spec(spec))
    assert again == spec


def test_expression_grammar():
    text = """
    pseudogroup "g" {
      space { independent: x; dependent: u; }
      base_order: 2;
      determining { (U - u)*(U + u) - U^2 + u^2 = 0; X.xx - -X.u = 0; }
    }
    """
    spec, _ = _parse_ok(text)
    ctx = context_for(spec.space)
    first, second = spec.determining
    assert first.is_zero()
    Xxx = ctx.expr(ctx.target_var(0, (0, 0)))
    Xu = ctx.expr(ctx.target_var(0, (1,)))
    assert second == Xxx + Xu


def test_power_tower_is_right_associative():
    text = """
    pseudogroup "g" {
      space { independent: x; dependent: u; }
      base_order: 1;
      determining { U - u^2^3 = 0; }
    }
    """
    spec, _ = _parse_ok(text)
    ctx = context_for(spec.space)
    U = ctx.expr(ctx.target_var(1, ()))
    u = ctx.expr(ctx.source_var(1))
    assert spec.determining[0] == U - u**8


def test_mixed_suffix_forms_agree():
    base = """
    pseudogroup "g" {{
      space {{ independent: x1, x2; dependent: u; }}
      base_order: 2;
      determining {{ {token} = 0; }}
    }}
    """
    specs = []
    for token in ("U.{x1}{x2}", "U.{x2}{x1}"):
        spec, _ = _parse_ok(base.format(token=token))
        specs.append(spec)
    assert specs[0] == specs[1]


def test_parse_failure_is_reported_not_raised():
    for path in sorted(FIXTURES.glob("*.psg")):
        spec, diags = parse_spec(SpecSource.from_file(path))
        assert spec is None, path.name
        assert any(d.severity == "error" for d in diags), path.name


def test_missing_semicolon_span():
    errors = _parse_fail((FIXTURES / "missing_semicolon.psg").read_text())
    assert errors[0].code == SYNTAX
    # the error points at the start of the next equation
    assert errors[0].line == 9
    assert errors[0].column == 5


def test_unknown_coordinate_span():
    errors = _parse_fail((FIXTURES / "unknown_coordinate.psg").read_text())
    assert errors[0].code == UNKNOWN_COORDINATE
    assert errors[0].line == 8
    assert errors[0].column == 7
    assert "q" in errors[0].message


def test_mixed_kinds_diagnostic():
    errors = _parse_fail((FIXTURES / "mixed_kinds.psg").read_text())
    assert errors[0].code == MIXED_KINDS


def test_decimal_literal_rejected():
    errors = _parse_fail((FIXTURES / "decimal_literal.psg").read_text())
    assert errors[0].code == NON_RATIONAL_LITERAL
    assert "1.5" in errors[0].message


def test_target_in_infinitesimal_block_rejected():
    text = """
    pseudogroup "g" {
      space { independent: x; dependent: u; }
      base_order: 1;
      infinitesimal { U - u = 0; }
    }
    """
    errors = _parse_fail(text)
    assert errors[0].code == MIXED_KINDS


def test_unknown_suffix_letter_needs_braces():
    text = """
    pseudogroup "g" {
      space { independent: x1; dependent: u; }
      base_order: 1;
      determining { U.x1 = 0; }
    }
    """
    errors = _parse_fail(text)
    assert errors[0].code == UNKNOWN_COORDINATE
    assert "brace" in errors[0].message


def test_order_above_declared_warns_but_parses():
    text = """
    pseudogroup "g" {
      space { independent: x; dependent: u; }
      base_order: 1;
      determining { X.u = 0; X.xx = 0; U - u = 0; }
    }
    """
    spec, diags = parse_spec(text)
    assert spec is not None
    warnings = [d for d in diags if d.severity == "warning"]
    assert warnings and warnings[0].code == ORDER_EXCEEDS_DECLARED
    assert spec.effective_order == 2
    # the fiber machinery works from the effective order
    basis = fiber_basis(declared_linear_system(spec), 2, (0, 0))
    assert basis.dimension == 2  # zeta{x} = a + b x


def test_empty_body_rejected():
    text = """
    pseudogroup "g" {
      space { independent: x; dependent: u; }
      base_order: 1;
    }
    """
    errors = _parse_fail(text)
    assert errors[0].code == SYNTAX


def test_base_coordinate_takes_no_suffix():
    text = """
    pseudogroup "g" {
      space { independent: x; dependent: u; }
      base_order: 1;
      determining { u.x - U = 0; }
    }
    """
    errors = _parse_fail(text)
    assert errors[0].code == SYNTAX
    assert "suffix" in errors[0].message


def test_comments_and_whitespace_ignored():
    text = (
        'pseudogroup "g" {  # a comment\n'
        "  space { independent: x; dependent: u; }\n"
        "  base_order: 1;\n"
        "  determining {\n"
        "    # the fiber-preserving condition\n"
        "    X.u = 0; U - u = 0;\n"
        "  }\n"
        "}\n"
    )
    spec, diags = _parse_ok(text)
    assert diags == []
    assert len(spec.determining) == 2


def test_totality_on_garbage_inputs():
    cases = [
        "",
        "pseudogroup",
        'pseudogroup "x" {',
        "pseudogroup 42 {}",
        'pseudogroup "g" { space { independent: x; dependent: x; } base_order: 1; }',
        'pseudogroup "g" { space { independent: x; dependent: u; } base_order: 0; '
        "determining { U = u; } }",
        "\x00\x01",
        'pseudogroup "g" { space { independent: x; dependent: u; } base_order: 1; '
        "determining { U = u; } } trailing",
        'pseudogroup "g" { space { independent: x; dependent: u; } base_order: 1; '
        "determining { 1/0 = u; } }",
        'pseudogroup "g" { space { independent: zeta; dependent: u; } base_order: 1; '
        "determining { U = u; } }",
    ]
    for text in cases:
        spec, diags = parse_spec(text)
        assert spec is None, text
        assert diags, text


def test_diagnostic_render():
    errors = _parse_fail('pseudogroup "g" { space }')
    line = errors[0].render("bad.psg")
    assert line.startswith("bad.psg:1:")
    assert "error" in line


def test_source_position_mapping():
    src = SpecSource("ab\ncd\n")
    assert src.position(0) == (1, 1)
    assert src.position(1) == (1, 2)
    assert src.position(3) == (2, 1)
    assert src.position(4) == (2, 2)


def test_spec_source_normalizes_newlines():
    src = SpecSource('pseudogroup "g" {\r\n}')
    assert "\r" not in src.text
