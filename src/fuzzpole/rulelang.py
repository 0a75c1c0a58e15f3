"""Textual rule-definition language (.frl): parsing, validation, canonical
serialization, and the built-in 13-rule cart-pole knowledge base.

Grammar (keywords case-insensitive, ``#`` starts a line comment)::

    kb            := statement+
    statement     := var_decl | universe_decl | rule
    var_decl      := "var" NAME "unit" "=" UNIT label_decl+
    label_decl    := "label" NAME SHAPE "(" num ("," num)* ")" [POWER]
    universe_decl := "universe" num num int
    rule          := "rule" NAME ["goal" int] ":" "IF" cond ("AND" cond)*
                     "THEN" NAME "IS" NAME
    cond          := NAME "IS" NAME

SHAPE is one of triangle/shoulder_up/shoulder_down and POWER is ``^k`` for a
label raised to an integer power (how concentrated labels are written down).
The output variable is the one rule conclusions target; ``universe`` pins its
quantization and defaults to the hull of the output labels at 201 points.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from importlib import resources
from itertools import product
from typing import Iterable

from .fuzzy import (
    KBError,
    KnowledgeBase,
    LinguisticVariable,
    MembershipFunction,
    OutputUniverse,
    Precondition,
    Rule,
)

__all__ = [
    "Diagnostic",
    "ParseResult",
    "RuleFileError",
    "parse_knowledge_base",
    "load_kb",
    "validate_kb",
    "serialize_kb",
    "builtin_pole_kb",
    "builtin_pole_source",
]

KEYWORDS = {"var", "unit", "label", "universe", "rule", "goal", "if", "and", "then", "is"}

# Labels accepted on a variable that does not define them, mapped to the
# label actually evaluated.  Mirrors the large/plain aliasing in the built-in
# rule base (NL read as NE); the original spelling is preserved on the rule.
LABEL_ALIASES = {"NL": "NE", "PL": "PO"}

_SHAPES = {"triangle": 3, "shoulder_up": 2, "shoulder_down": 2}
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_POWER_RE = re.compile(r"\^(\d+)\Z")
_PUNCT = "(),:="


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    line: int
    col: int
    message: str
    code: str

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.severity}: {self.message} [{self.code}]"


@dataclass
class ParseResult:
    kb: KnowledgeBase | None
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.kb is not None

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]


class RuleFileError(ValueError):
    """Raised by :func:`load_kb` when a rule file has errors."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        lines = "\n".join(str(d) for d in diagnostics if d.severity == "error")
        super().__init__(f"rule file has errors:\n{lines}")


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    col: int

    @property
    def lower(self) -> str:
        return self.text.lower()


def _tokenize(text: str) -> tuple[list[_Token], _Token]:
    """Total tokenizer: every input decomposes into punctuation and words.

    Also returns an end-of-input marker carrying the final position, so
    errors at the end of the file stay located."""
    tokens: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch.isspace():
            col += 1
            i += 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in _PUNCT:
            tokens.append(_Token(ch, line, col))
            col += 1
            i += 1
        else:
            j = i
            while j < n and not (text[j].isspace() or text[j] in _PUNCT or text[j] == "#"):
                j += 1
            tokens.append(_Token(text[i:j], line, col))
            col += j - i
            i = j
    return tokens, _Token("<end of input>", line, col)


# Intermediate declarations carrying source locations for resolution errors.


@dataclass
class _LabelDecl:
    name: _Token
    shape: _Token
    params: list[tuple[float, _Token]]
    power: int


@dataclass
class _VarDecl:
    name: _Token
    unit: str
    labels: list[_LabelDecl]


@dataclass
class _RuleDecl:
    name: _Token
    goal: int
    conds: list[tuple[_Token, _Token]]
    out_var: _Token
    out_label: _Token


@dataclass
class _UniverseDecl:
    lo: float
    hi: float
    n: int
    at: _Token


class _SyntaxError(Exception):
    def __init__(self, diag: Diagnostic):
        self.diag = diag


class _Parser:
    def __init__(self, tokens: list[_Token], eof: _Token):
        self.tokens = tokens
        self.eof = eof
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []
        self.var_decls: list[_VarDecl] = []
        self.rule_decls: list[_RuleDecl] = []
        self.universe_decl: _UniverseDecl | None = None

    def peek(self) -> _Token:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else self.eof

    def next(self) -> _Token:
        tok = self.peek()
        if self.pos < len(self.tokens):
            self.pos += 1
        return tok

    def error(self, tok: _Token, message: str, code: str = "syntax") -> _SyntaxError:
        return _SyntaxError(Diagnostic("error", tok.line, tok.col, message, code))

    def expect_keyword(self, word: str) -> _Token:
        tok = self.next()
        if tok.lower != word:
            raise self.error(tok, f"expected '{word.upper()}', found '{tok.text}'")
        return tok

    def expect_punct(self, ch: str) -> _Token:
        tok = self.next()
        if tok.text != ch:
            raise self.error(tok, f"expected '{ch}', found '{tok.text}'")
        return tok

    def expect_name(self, what: str) -> _Token:
        tok = self.next()
        if not _IDENT_RE.match(tok.text) or tok.lower in KEYWORDS:
            raise self.error(tok, f"expected {what} name, found '{tok.text}'")
        return tok

    def expect_number(self) -> tuple[float, _Token]:
        tok = self.next()
        try:
            value = float(tok.text)
        except ValueError:
            raise self.error(tok, f"expected a number, found '{tok.text}'") from None
        return value, tok

    def expect_int(self, what: str) -> tuple[int, _Token]:
        tok = self.next()
        try:
            value = int(tok.text)
        except ValueError:
            raise self.error(tok, f"expected an integer {what}, found '{tok.text}'") from None
        return value, tok

    def parse(self) -> None:
        if not self.tokens:
            self.diagnostics.append(
                Diagnostic("error", 1, 1, "no output variable defined: input is empty", "empty")
            )
            return
        while self.peek() is not self.eof:
            tok = self.peek()
            try:
                if tok.lower == "var":
                    self.parse_var()
                elif tok.lower == "rule":
                    self.parse_rule()
                elif tok.lower == "universe":
                    self.parse_universe()
                else:
                    raise self.error(
                        tok, f"expected 'VAR', 'RULE' or 'UNIVERSE', found '{tok.text}'"
                    )
            except _SyntaxError as err:
                self.diagnostics.append(err.diag)
                self.recover()

    def recover(self) -> None:
        """Skip to the next plausible statement start."""
        while self.peek() is not self.eof and self.peek().lower not in ("var", "rule", "universe"):
            self.next()

    def parse_var(self) -> None:
        self.expect_keyword("var")
        name = self.expect_name("variable")
        self.expect_keyword("unit")
        self.expect_punct("=")
        unit_tok = self.next()
        if unit_tok is self.eof or unit_tok.text in _PUNCT:
            raise self.error(unit_tok, f"expected a unit, found '{unit_tok.text}'")
        labels: list[_LabelDecl] = []
        while self.peek().lower == "label":
            labels.append(self.parse_label())
        if not labels:
            raise self.error(
                self.peek(), f"variable '{name.text}' declares no labels"
            )
        self.var_decls.append(_VarDecl(name, unit_tok.text, labels))

    def parse_label(self) -> _LabelDecl:
        self.expect_keyword("label")
        name = self.expect_name("label")
        shape = self.next()
        if shape.lower not in _SHAPES:
            raise self.error(
                shape,
                f"expected a shape (triangle, shoulder_up, shoulder_down), "
                f"found '{shape.text}'",
            )
        self.expect_punct("(")
        params = [self.expect_number()]
        while self.peek().text == ",":
            self.next()
            params.append(self.expect_number())
        self.expect_punct(")")
        power = 1
        m = _POWER_RE.match(self.peek().text)
        if m:
            self.next()
            power = int(m.group(1))
        return _LabelDecl(name, shape, params, power)

    def parse_universe(self) -> None:
        at = self.expect_keyword("universe")
        lo, _ = self.expect_number()
        hi, _ = self.expect_number()
        n, _ = self.expect_int("point count")
        if self.universe_decl is not None:
            raise self.error(at, "duplicate universe declaration", "duplicate-universe")
        self.universe_decl = _UniverseDecl(lo, hi, n, at)

    def parse_rule(self) -> None:
        self.expect_keyword("rule")
        name = self.expect_name("rule")
        goal = 1
        if self.peek().lower == "goal":
            self.next()
            goal, goal_tok = self.expect_int("goal index")
            if goal < 1:
                raise self.error(goal_tok, f"goal index must be positive, got {goal}")
        self.expect_punct(":")
        self.expect_keyword("if")
        conds = [self.parse_cond()]
        while self.peek().lower == "and":
            self.next()
            conds.append(self.parse_cond())
        self.expect_keyword("then")
        out_var = self.expect_name("output variable")
        self.expect_keyword("is")
        out_label = self.expect_name("output label")
        self.rule_decls.append(_RuleDecl(name, goal, conds, out_var, out_label))

    def parse_cond(self) -> tuple[_Token, _Token]:
        var = self.expect_name("variable")
        self.expect_keyword("is")
        label = self.expect_name("label")
        return var, label


def _hull(labels: Iterable[MembershipFunction]) -> tuple[float, float]:
    lo = min(min(mf.params) for mf in labels)
    hi = max(max(mf.params) for mf in labels)
    return lo, hi


def parse_knowledge_base(text: str | bytes) -> ParseResult:
    """Parse rule-file text; failures come back as located diagnostics."""
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    parser = _Parser(*_tokenize(text))
    parser.parse()
    diagnostics = parser.diagnostics
    if any(d.severity == "error" for d in diagnostics):
        return ParseResult(None, diagnostics)

    def err(tok: _Token, message: str, code: str) -> None:
        diagnostics.append(Diagnostic("error", tok.line, tok.col, message, code))

    variables: dict[str, LinguisticVariable] = {}
    for decl in parser.var_decls:
        if decl.name.text in variables:
            err(decl.name, f"duplicate variable '{decl.name.text}'", "duplicate-variable")
            continue
        labels: dict[str, MembershipFunction] = {}
        for lab in decl.labels:
            if lab.name.text in labels:
                err(
                    lab.name,
                    f"duplicate label '{lab.name.text}' on variable '{decl.name.text}'",
                    "duplicate-label",
                )
                continue
            shape = lab.shape.lower
            if len(lab.params) != _SHAPES[shape]:
                err(
                    lab.shape,
                    f"{shape} takes {_SHAPES[shape]} parameters, got {len(lab.params)}",
                    "bad-shape",
                )
                continue
            try:
                labels[lab.name.text] = MembershipFunction(
                    shape,
                    tuple(float(v) + 0.0 for v, _ in lab.params),
                    lab.power,
                )
            except KBError as exc:
                err(lab.shape, str(exc), "bad-shape")
        if not labels:
            continue
        try:
            variables[decl.name.text] = LinguisticVariable(
                decl.name.text, decl.unit, labels
            )
        except KBError as exc:
            err(decl.name, str(exc), "bad-variable")

    if any(d.severity == "error" for d in diagnostics):
        return ParseResult(None, diagnostics)

    if not parser.rule_decls:
        at = parser.var_decls[0].name if parser.var_decls else _Token("", 1, 1)
        diagnostics.append(
            Diagnostic(
                "error", at.line, at.col,
                "no output variable defined: the file declares no rules", "no-output",
            )
        )
        return ParseResult(None, diagnostics)

    output_variable = parser.rule_decls[0].out_var.text
    rules: list[Rule] = []
    seen_rules: set[str] = set()
    for decl in parser.rule_decls:
        bad = False
        if decl.name.text in seen_rules:
            err(decl.name, f"duplicate rule name '{decl.name.text}'", "duplicate-rule")
            bad = True
        seen_rules.add(decl.name.text)
        if decl.out_var.text != output_variable:
            err(
                decl.out_var,
                f"rule '{decl.name.text}' concludes on '{decl.out_var.text}' but "
                f"earlier rules conclude on '{output_variable}'; exactly one "
                "output variable is allowed",
                "multiple-outputs",
            )
            bad = True
        if decl.out_var.text not in variables:
            err(decl.out_var, f"unknown variable '{decl.out_var.text}'", "unknown-variable")
            bad = True
        elif decl.out_label.text not in variables[decl.out_var.text].labels:
            err(
                decl.out_label,
                f"unknown label '{decl.out_label.text}' on variable "
                f"'{decl.out_var.text}'",
                "unknown-label",
            )
            bad = True
        preconditions: list[Precondition] = []
        seen_vars: set[str] = set()
        for var_tok, label_tok in decl.conds:
            if var_tok.text not in variables:
                err(var_tok, f"unknown variable '{var_tok.text}'", "unknown-variable")
                bad = True
                continue
            if var_tok.text in seen_vars:
                err(
                    var_tok,
                    f"rule '{decl.name.text}' constrains variable "
                    f"'{var_tok.text}' more than once",
                    "duplicate-precondition",
                )
                bad = True
                continue
            seen_vars.add(var_tok.text)
            var = variables[var_tok.text]
            label = label_tok.text
            spelled = None
            if label not in var.labels:
                alias = LABEL_ALIASES.get(label)
                if alias is not None and alias in var.labels:
                    diagnostics.append(
                        Diagnostic(
                            "warning", label_tok.line, label_tok.col,
                            f"label '{label}' is not defined on variable "
                            f"'{var_tok.text}'; reading it as '{alias}'",
                            "label-alias",
                        )
                    )
                    spelled, label = label, alias
                else:
                    err(
                        label_tok,
                        f"unknown label '{label}' on variable '{var_tok.text}'",
                        "unknown-label",
                    )
                    bad = True
                    continue
            preconditions.append(Precondition(var_tok.text, label, spelled))
        if not preconditions:
            err(decl.name, f"rule '{decl.name.text}' has no valid preconditions", "empty-rule")
            bad = True
        if not bad:
            rules.append(
                Rule(
                    decl.name.text,
                    tuple(preconditions),
                    (decl.out_var.text, decl.out_label.text),
                    decl.goal,
                )
            )

    if any(d.severity == "error" for d in diagnostics):
        return ParseResult(None, diagnostics)

    if parser.universe_decl is not None:
        u = parser.universe_decl
        try:
            universe = OutputUniverse(u.lo, u.hi, u.n)
        except KBError as exc:
            err(u.at, str(exc), "bad-universe")
            return ParseResult(None, diagnostics)
    else:
        lo, hi = _hull(variables[output_variable].labels.values())
        if not lo < hi:
            err(
                parser.rule_decls[0].out_var,
                f"cannot derive an output universe for '{output_variable}'",
                "bad-universe",
            )
            return ParseResult(None, diagnostics)
        universe = OutputUniverse(lo, hi, 201)

    try:
        kb = KnowledgeBase(variables, output_variable, tuple(rules), universe)
    except KBError as exc:
        diagnostics.append(Diagnostic("error", 1, 1, str(exc), "bad-kb"))
        return ParseResult(None, diagnostics)
    return ParseResult(kb, diagnostics)


def load_kb(text: str | bytes) -> KnowledgeBase:
    """Parse and return the KB, raising :class:`RuleFileError` on errors."""
    result = parse_knowledge_base(text)
    if result.kb is None:
        raise RuleFileError(result.diagnostics)
    return result.kb


# ---------------------------------------------------------------------------
# Validation


def _mirror_map(var: LinguisticVariable) -> dict[str, str] | None:
    """Pair every label with its reflection about zero, or None if impossible."""
    mapping: dict[str, str] = {}
    for name, mf in var.labels.items():
        mirrored = mf.mirrored()
        partner = next(
            (other for other, omf in var.labels.items() if omf == mirrored), None
        )
        if partner is None:
            return None
        mapping[name] = partner
    return mapping


def validate_kb(kb: KnowledgeBase) -> list[Diagnostic]:
    """Sanity checks the inference engine assumes; all findings are warnings.

    Covers: label supports leaving holes in a variable's operating range,
    uncovered cells in the first-goal rule grid, missing mirror rules, and
    aliased precondition labels.
    """
    out: list[Diagnostic] = []

    def warn(message: str, code: str) -> None:
        out.append(Diagnostic("warning", 0, 0, message, code))

    # Alias notes (kept from parse so programmatic KBs are covered too).
    for rule in kb.rules:
        for pre in rule.preconditions:
            if pre.spelled is not None:
                warn(
                    f"rule '{rule.name}': label '{pre.spelled}' on variable "
                    f"'{pre.variable}' is evaluated as '{pre.label}'",
                    "label-alias",
                )

    # Support coverage: the union of label supports over each input variable's
    # operating range (hull of its breakpoints) must leave no open holes.
    for var in kb.input_variables:
        points = sorted({p for mf in var.labels.values() for p in mf.params})
        mids = [(a + b) / 2.0 for a, b in zip(points, points[1:]) if a < b]
        for mid in mids:
            if all(mf(mid) == 0.0 for mf in var.labels.values()):
                warn(
                    f"variable '{var.name}': no label covers values near {mid:g}",
                    "coverage-hole",
                )

    # First-goal rule grid: every combination of the labels those rules use
    # should be handled by some rule.
    goal1 = [r for r in kb.rules if r.goal_index == 1]
    if goal1:
        grid_vars: list[str] = []
        used: dict[str, list[str]] = {}
        for rule in goal1:
            for pre in rule.preconditions:
                if pre.variable not in used:
                    grid_vars.append(pre.variable)
                    used[pre.variable] = []
                if pre.label not in used[pre.variable]:
                    used[pre.variable].append(pre.label)
        for cell in product(*(used[v] for v in grid_vars)):
            hit = False
            for rule in goal1:
                by_var = {p.variable: p.label for p in rule.preconditions}
                if all(by_var.get(v, cell[i]) == cell[i] for i, v in enumerate(grid_vars)):
                    hit = True
                    break
            if not hit:
                pretty = ", ".join(f"{v}={c}" for v, c in zip(grid_vars, cell))
                warn(f"no goal-1 rule covers the grid cell ({pretty})", "grid-gap")

    # Mirror symmetry: each rule should have a counterpart under reflection
    # of every label about zero.
    mirrors: dict[str, dict[str, str]] = {}
    asym_vars: set[str] = set()
    for var in kb.variables.values():
        mapping = _mirror_map(var)
        if mapping is None:
            asym_vars.add(var.name)
            warn(
                f"variable '{var.name}': labels are not mirror-symmetric about zero",
                "asymmetric-labels",
            )
        else:
            mirrors[var.name] = mapping

    if not asym_vars:
        signatures = {
            (
                frozenset((p.variable, p.label) for p in r.preconditions),
                r.conclusion[1],
            )
            for r in kb.rules
        }
        for rule in kb.rules:
            mirrored_sig = (
                frozenset(
                    (p.variable, mirrors[p.variable][p.label])
                    for p in rule.preconditions
                ),
                mirrors[kb.output_variable][rule.conclusion[1]],
            )
            if mirrored_sig not in signatures:
                warn(
                    f"rule '{rule.name}' has no mirror-image counterpart",
                    "missing-mirror-rule",
                )

    return out


# ---------------------------------------------------------------------------
# Canonical serialization


def _fmt(value: float) -> str:
    return repr(float(value) + 0.0)


def _label_sort_key(item: tuple[str, MembershipFunction]) -> tuple[float, str]:
    name, mf = item
    return (mf.params[0], name)


def serialize_kb(kb: KnowledgeBase) -> str:
    """Deterministic canonical text; parse(serialize(kb)) equals kb."""
    lines: list[str] = []
    ordered = sorted(
        (v for v in kb.input_variables), key=lambda v: v.name
    ) + [kb.output]
    for var in ordered:
        lines.append(f"var {var.name} unit = {var.unit}")
        for name, mf in sorted(var.labels.items(), key=_label_sort_key):
            params = ", ".join(_fmt(p) for p in mf.params)
            power = f" ^{mf.power}" if mf.power > 1 else ""
            lines.append(f"  label {name} {mf.kind}({params}){power}")
        lines.append("")
    u = kb.output_universe
    lines.append(f"universe {_fmt(u.lo)} {_fmt(u.hi)} {u.n}")
    lines.append("")
    for rule in kb.rules:
        conds = " AND ".join(
            f"{p.variable} IS {p.written_label}" for p in rule.preconditions
        )
        out_var, out_label = rule.conclusion
        lines.append(
            f"rule {rule.name} goal {rule.goal_index}: "
            f"IF {conds} THEN {out_var} IS {out_label}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Built-in knowledge base


def builtin_pole_source() -> str:
    """Canonical .frl source of the built-in KB, as shipped with the package."""
    return (
        resources.files("fuzzpole").joinpath("kb/pole.frl").read_text(encoding="utf-8")
    )


@functools.cache
def builtin_pole_kb() -> KnowledgeBase:
    """The built-in cart-pole knowledge base, parsed once from ``kb/pole.frl``.

    Every call returns the same shared KB: copy its ``variables`` and
    ``labels`` dicts before changing them.  It has 13 rules in two goal
    tiers.  Nine rules balance the pole (two preconditions
    each); four move the cart to the target position and are gated on the
    pole being nearly balanced (the Very-Small labels).  Rule r9 spells the
    angular-velocity label NL, which the parser and serializer preserve
    while evaluating it as NE.  The cart-position variable x is evaluated on
    the error x - x_target.
    """
    return load_kb(builtin_pole_source())
