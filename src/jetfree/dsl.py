"""Text format for pseudogroup specifications.

A spec file declares the coordinate split, the order the system is
declared at, and determining and/or infinitesimal equation blocks::

    pseudogroup "name" {
      space {
        independent: x;
        dependent: u;
      }
      base_order: 1;
      determining {
        U - u = 0;
        X.u = 0;
      }
      infinitesimal {
        zeta{u} = 0;
        zeta{x}.u = 0;
      }
    }

Expressions are exact rational arithmetic over coordinate names, target
jets (``X``, ``U.xx``, ``X1.{x2}{x2}``) and vector-field jets
(``zeta{x}.u``).  Jet suffixes after the dot name base coordinates:
single letters for single-character names, braces for longer ones.
Parsing is total: :func:`parse_spec` always returns, either with a spec
or with positioned diagnostics, and :func:`serialize_spec` emits text
that parses back to a structurally equal spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .detsys import PseudogroupSpec
from .errors import DivisionByZero
from .jetspace import SpaceSpec, context_for
from .symkernel import Expr

_KEYWORDS = {
    "pseudogroup",
    "space",
    "independent",
    "dependent",
    "base_order",
    "determining",
    "infinitesimal",
    "zeta",
}

_PUNCT = set("{}():;=+-*/^.,")


@dataclass
class SpecSource:
    """Spec text plus an origin label and offset-to-position bookkeeping."""

    text: str
    origin: str = "<string>"
    _line_starts: list[int] = field(init=False, repr=False)

    def __post_init__(self):
        self.text = self.text.replace("\r\n", "\n").replace("\r", "\n")
        starts = [0]
        for i, ch in enumerate(self.text):
            if ch == "\n":
                starts.append(i + 1)
        self._line_starts = starts

    @classmethod
    def from_file(cls, path: str | Path) -> "SpecSource":
        p = Path(path)
        return cls(p.read_text(encoding="utf-8"), origin=str(p))

    def position(self, offset: int) -> tuple[int, int]:
        """1-based (line, column) of a character offset."""
        offset = max(0, min(offset, len(self.text)))
        lo, hi = 0, len(self._line_starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._line_starts[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1, offset - self._line_starts[lo] + 1


@dataclass
class ParseDiagnostic:
    """One positioned message from the parser."""

    severity: str  # "error" or "warning"
    code: str
    message: str
    line: int
    column: int
    end_line: int
    end_column: int

    def render(self, origin: str = "<string>") -> str:
        return f"{origin}:{self.line}:{self.column}: {self.severity}: {self.message}"


# diagnostic codes
SYNTAX = "syntax"
UNKNOWN_COORDINATE = "unknown-coordinate"
MIXED_KINDS = "mixed-kinds"
NON_RATIONAL_LITERAL = "non-rational-literal"
ORDER_EXCEEDS_DECLARED = "order-exceeds-declared"


@dataclass
class _Tok:
    kind: str  # "ident", "int", "string", "punct", "eof"
    text: str
    start: int
    end: int


class _Abort(Exception):
    """Internal: stop parsing after recording an error diagnostic."""


def _lex(src: SpecSource, diags: list[ParseDiagnostic]) -> list[_Tok]:
    text = src.text
    toks: list[_Tok] = []
    i, n = 0, len(text)

    def diag(code: str, msg: str, start: int, end: int) -> None:
        line, col = src.position(start)
        eline, ecol = src.position(end)
        diags.append(ParseDiagnostic("error", code, msg, line, col, eline, ecol))

    while i < n:
        ch = text[i]
        if ch in " \t\n":
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("ident", text[i:j], i, j))
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                diag(
                    NON_RATIONAL_LITERAL,
                    f"decimal literal {text[i:k]!r} is not exact; write a ratio like 3/2",
                    i,
                    k,
                )
                raise _Abort
            toks.append(_Tok("int", text[i:j], i, j))
            i = j
            continue
        if ch == "." and i + 1 < n and text[i + 1].isdigit():
            k = i + 1
            while k < n and text[k].isdigit():
                k += 1
            diag(
                NON_RATIONAL_LITERAL,
                f"decimal literal {text[i:k]!r} is not exact; write a ratio like 1/2",
                i,
                k,
            )
            raise _Abort
        if ch == '"':
            j = i + 1
            while j < n and text[j] not in '"\n':
                j += 1
            if j >= n or text[j] != '"':
                diag(SYNTAX, "unterminated string", i, j)
                raise _Abort
            toks.append(_Tok("string", text[i + 1 : j], i, j + 1))
            i = j + 1
            continue
        if ch in _PUNCT:
            toks.append(_Tok("punct", ch, i, i + 1))
            i += 1
            continue
        diag(SYNTAX, f"unexpected character {ch!r}", i, i + 1)
        raise _Abort
    toks.append(_Tok("eof", "", n, n))
    return toks


class _Parser:
    def __init__(self, src: SpecSource, toks: list[_Tok], diags: list[ParseDiagnostic]):
        self.src = src
        self.diags = diags
        self.toks = toks
        self.pos = 0
        self.space: SpaceSpec | None = None
        self.ctx = None
        self.block = ""  # "determining" or "infinitesimal" while inside one

    # -- token plumbing ---------------------------------------------------------

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def advance(self) -> _Tok:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def error(self, code: str, msg: str, tok: _Tok) -> None:
        line, col = self.src.position(tok.start)
        eline, ecol = self.src.position(tok.end)
        self.diags.append(
            ParseDiagnostic("error", code, msg, line, col, eline, ecol)
        )
        raise _Abort

    def warn(self, code: str, msg: str, start: int, end: int) -> None:
        line, col = self.src.position(start)
        eline, ecol = self.src.position(end)
        self.diags.append(
            ParseDiagnostic("warning", code, msg, line, col, eline, ecol)
        )

    def expect_punct(self, ch: str) -> _Tok:
        t = self.peek()
        if t.kind != "punct" or t.text != ch:
            self.error(SYNTAX, f"expected {ch!r}, found {t.text or 'end of input'!r}", t)
        return self.advance()

    def expect_keyword(self, word: str) -> _Tok:
        t = self.peek()
        if t.kind != "ident" or t.text != word:
            self.error(SYNTAX, f"expected {word!r}, found {t.text or 'end of input'!r}", t)
        return self.advance()

    def expect_int(self) -> int:
        t = self.peek()
        if t.kind != "int":
            self.error(SYNTAX, f"expected an integer, found {t.text or 'end of input'!r}", t)
        self.advance()
        return int(t.text)

    # -- grammar ----------------------------------------------------------------

    def parse(self) -> PseudogroupSpec | None:
        self.expect_keyword("pseudogroup")
        name_tok = self.peek()
        if name_tok.kind != "string":
            self.error(SYNTAX, "expected a quoted pseudogroup name", name_tok)
        self.advance()
        self.expect_punct("{")
        self.parse_space()
        self.expect_keyword("base_order")
        self.expect_punct(":")
        order_tok = self.peek()
        base_order = self.expect_int()
        if base_order < 1:
            self.error(SYNTAX, "base_order must be at least 1", order_tok)
        self.expect_punct(";")
        determining = self.parse_block("determining")
        infinitesimal = self.parse_block("infinitesimal")
        close = self.peek()
        self.expect_punct("}")
        tail = self.peek()
        if tail.kind != "eof":
            self.error(SYNTAX, f"unexpected trailing input {tail.text!r}", tail)
        if not determining and not infinitesimal:
            self.error(
                SYNTAX,
                "need a determining or infinitesimal block",
                close,
            )
        try:
            spec = PseudogroupSpec(
                self.space,
                base_order,
                determining=tuple(e for e, _, _ in determining),
                infinitesimal=tuple(e for e, _, _ in infinitesimal),
                name=name_tok.text,
            )
        except Exception as exc:  # totality: surface as a diagnostic
            self.error(SYNTAX, str(exc), close)
        for kind, eqs in (("target", determining), ("vf", infinitesimal)):
            for e, start, end in eqs:
                order = self.ctx.max_order(e, kind)
                if order > base_order:
                    self.warn(
                        ORDER_EXCEEDS_DECLARED,
                        f"equation has order {order}, above the declared base_order"
                        f" {base_order}",
                        start,
                        end,
                    )
        return spec

    def parse_space(self) -> None:
        self.expect_keyword("space")
        self.expect_punct("{")
        self.expect_keyword("independent")
        self.expect_punct(":")
        independent = self.parse_names()
        self.expect_punct(";")
        self.expect_keyword("dependent")
        self.expect_punct(":")
        dependent = self.parse_names()
        self.expect_punct(";")
        self.expect_punct("}")
        try:
            self.space = SpaceSpec(tuple(independent), tuple(dependent))
        except ValueError as exc:
            self.error(SYNTAX, str(exc), self.toks[self.pos - 1])
        self.ctx = context_for(self.space)

    def parse_names(self) -> list[str]:
        names = []
        t = self.peek()
        if t.kind != "ident":
            self.error(SYNTAX, "expected a coordinate name", t)
        names.append(self.advance().text)
        while self.peek().kind == "punct" and self.peek().text == ",":
            self.advance()
            t = self.peek()
            if t.kind != "ident":
                self.error(SYNTAX, "expected a coordinate name after ','", t)
            names.append(self.advance().text)
        for nm in names:
            if nm in _KEYWORDS:
                self.error(SYNTAX, f"{nm!r} is reserved and cannot name a coordinate", t)
        return names

    def parse_block(self, which: str) -> list[tuple[Expr, int, int]]:
        t = self.peek()
        if t.kind != "ident" or t.text != which:
            return []
        self.advance()
        self.expect_punct("{")
        self.block = which
        eqs: list[tuple[Expr, int, int]] = []
        while True:
            start = self.peek()
            lhs = self.parse_expr()
            self.expect_punct("=")
            rhs = self.parse_expr()
            end = self.expect_punct(";")
            eqs.append((lhs - rhs, start.start, end.end))
            nxt = self.peek()
            if nxt.kind == "punct" and nxt.text == "}":
                break
            if nxt.kind == "eof":
                self.error(SYNTAX, "unterminated equation block", nxt)
        self.expect_punct("}")
        self.block = ""
        return eqs

    # -- expressions (precedence climbing) ----------------------------------------

    def parse_expr(self) -> Expr:
        return self.parse_binary(1)

    _PREC = {"+": 1, "-": 1, "*": 2, "/": 2}

    def parse_binary(self, min_prec: int) -> Expr:
        left = self.parse_unary()
        while True:
            t = self.peek()
            if t.kind != "punct" or t.text not in self._PREC:
                return left
            prec = self._PREC[t.text]
            if prec < min_prec:
                return left
            self.advance()
            right = self.parse_binary(prec + 1)
            if t.text == "+":
                left = left + right
            elif t.text == "-":
                left = left - right
            elif t.text == "*":
                left = left * right
            else:
                try:
                    left = left / right
                except DivisionByZero:
                    self.error(SYNTAX, "division by zero", t)

    def parse_unary(self) -> Expr:
        t = self.peek()
        if t.kind == "punct" and t.text == "-":
            self.advance()
            return -self.parse_unary()
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_primary()
        exponents: list[int] = []
        while self.peek().kind == "punct" and self.peek().text == "^":
            op = self.advance()
            neg = False
            if self.peek().kind == "punct" and self.peek().text == "-":
                self.advance()
                neg = True
            e = self.expect_int()
            exponents.append(-e if neg else e)
        if not exponents:
            return base
        # exponent towers associate to the right: x^2^3 is x^(2^3)
        total = exponents[-1]
        for e in reversed(exponents[:-1]):
            total = e**total
        try:
            return base**total
        except DivisionByZero:
            self.error(SYNTAX, "zero raised to a negative power", op)

    def parse_primary(self) -> Expr:
        t = self.peek()
        if t.kind == "int":
            self.advance()
            return self.ctx.const(Fraction(int(t.text)))
        if t.kind == "punct" and t.text == "(":
            self.advance()
            e = self.parse_expr()
            self.expect_punct(")")
            return e
        if t.kind == "ident":
            return self.parse_coordinate()
        self.error(SYNTAX, f"expected an expression, found {t.text or 'end of input'!r}", t)

    def parse_coordinate(self) -> Expr:
        head = self.advance()
        space, ctx = self.space, self.ctx
        if head.text == "zeta":
            comp_tok, comp = self.parse_zeta_component(head)
            suffix = self.parse_suffix()
            if self.block == "determining":
                self.error(
                    MIXED_KINDS,
                    "vector-field jets are not allowed in a determining block",
                    head,
                )
            ctx.ensure_vf(len(suffix))
            return ctx.expr(ctx.vf_var(comp, suffix))
        names = space.source_names
        if head.text in names:
            tail = self.peek()
            if tail.kind == "punct" and tail.text == "." and tail.start == head.end:
                self.error(
                    SYNTAX,
                    f"base coordinate {head.text!r} takes no jet suffix",
                    tail,
                )
            return ctx.expr(ctx.source_var(names.index(head.text)))
        targets = space.target_names
        if head.text in targets:
            comp = targets.index(head.text)
            suffix = self.parse_suffix()
            if self.block == "infinitesimal":
                self.error(
                    MIXED_KINDS,
                    "target jets are not allowed in an infinitesimal block",
                    head,
                )
            ctx.ensure_target(len(suffix))
            return ctx.expr(ctx.target_var(comp, suffix))
        self.error(
            UNKNOWN_COORDINATE,
            f"unknown coordinate {head.text!r}",
            head,
        )

    def parse_zeta_component(self, head: _Tok) -> tuple[_Tok, int]:
        open_tok = self.peek()
        if open_tok.kind != "punct" or open_tok.text != "{":
            self.error(SYNTAX, "expected '{' after 'zeta'", open_tok)
        self.advance()
        comp_tok = self.peek()
        if comp_tok.kind != "ident":
            self.error(SYNTAX, "expected a coordinate name inside zeta{...}", comp_tok)
        self.advance()
        self.expect_punct("}")
        names = self.space.source_names
        if comp_tok.text not in names:
            self.error(
                UNKNOWN_COORDINATE,
                f"unknown coordinate {comp_tok.text!r} in zeta component",
                comp_tok,
            )
        return comp_tok, names.index(comp_tok.text)

    def parse_suffix(self) -> tuple[int, ...]:
        """Jet slots after an optional dot: letters and {name} groups, adjacent."""
        t = self.peek()
        if t.kind != "punct" or t.text != ".":
            return ()
        prev = self.toks[self.pos - 1]
        if t.start != prev.end:
            return ()  # detached dot: leave for the expression grammar to reject
        dot = self.advance()
        names = self.space.source_names
        slots: list[int] = []
        prev_end = dot.end
        while True:
            t = self.peek()
            if t.start != prev_end:
                break
            if t.kind == "ident":
                self.advance()
                for k, ch in enumerate(t.text):
                    if ch not in names:
                        bad = _Tok("ident", ch, t.start + k, t.start + k + 1)
                        self.error(
                            UNKNOWN_COORDINATE,
                            f"unknown coordinate {ch!r} in jet suffix"
                            " (brace multi-character names)",
                            bad,
                        )
                    slots.append(names.index(ch))
                prev_end = t.end
            elif t.kind == "punct" and t.text == "{":
                self.advance()
                nm = self.peek()
                if nm.kind != "ident":
                    self.error(SYNTAX, "expected a coordinate name inside braces", nm)
                self.advance()
                close = self.expect_punct("}")
                if nm.text not in names:
                    self.error(
                        UNKNOWN_COORDINATE,
                        f"unknown coordinate {nm.text!r} in jet suffix",
                        nm,
                    )
                slots.append(names.index(nm.text))
                prev_end = close.end
            else:
                break
        if not slots:
            self.error(SYNTAX, "expected jet suffix letters after '.'", dot)
        return tuple(sorted(slots))


def parse_spec(
    source: SpecSource | str,
) -> tuple[PseudogroupSpec | None, list[ParseDiagnostic]]:
    """Parse spec text.  Always returns: a spec with at most warnings, or
    None with at least one error diagnostic."""
    src = source if isinstance(source, SpecSource) else SpecSource(source)
    diags: list[ParseDiagnostic] = []
    try:
        toks = _lex(src, diags)
        spec = _Parser(src, toks, diags).parse()
    except _Abort:
        return None, diags
    return spec, diags


def serialize_spec(ps: PseudogroupSpec) -> str:
    """Canonical text for a spec; parses back structurally equal."""
    lines = [f'pseudogroup "{ps.name}" {{']
    lines.append("  space {")
    lines.append("    independent: " + ", ".join(ps.space.independent) + ";")
    lines.append("    dependent: " + ", ".join(ps.space.dependent) + ";")
    lines.append("  }")
    lines.append(f"  base_order: {ps.base_order};")
    for label, eqs in (
        ("determining", ps.determining),
        ("infinitesimal", ps.infinitesimal),
    ):
        if not eqs:
            continue
        lines.append(f"  {label} {{")
        for e in eqs:
            lines.append(f"    {e} = 0;")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def bundled_spec_names() -> list[str]:
    """Names of the pseudogroup specs shipped with the package."""
    root = resources.files("jetfree") / "specs"
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".psg"))


def load_bundled_spec(name: str) -> SpecSource:
    root = resources.files("jetfree") / "specs"
    path = root / f"{name}.psg"
    if not path.is_file():
        known = ", ".join(bundled_spec_names())
        raise FileNotFoundError(f"no bundled spec {name!r} (have: {known})")
    return SpecSource(path.read_text(encoding="utf-8"), origin=f"{name}.psg")
