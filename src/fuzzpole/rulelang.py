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

SHAPE is one of ``fuzzy.SHAPES`` (triangle/shoulder_up/shoulder_down) and
POWER is ``^k`` for a label raised to an integer power (how concentrated
labels are written down).  The output variable is the one most rule
conclusions target; ``universe`` pins its quantization and defaults to the
hull of the output labels at 201 points.
"""

from __future__ import annotations

import functools
import re
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from itertools import product
from typing import Iterable, NamedTuple

from .fuzzy import (
    KBError,
    KnowledgeBase,
    LinguisticVariable,
    MembershipFunction,
    OutputUniverse,
    Precondition,
    Rule,
    SHAPES,
    rule_problems,
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


class _Token(NamedTuple):
    text: str
    line: int
    col: int

    @property
    def lower(self) -> str:
        return self.text.lower()


# A comment, a punctuation mark or a word; what lies between matches is
# whitespace (``str.isspace``, the set ``\s`` matches).
_TOKEN_RE = re.compile(r"#[^\n]*|[(),:=]|[^\s(),:=#]+")


def _tokenize(text: str) -> tuple[list[_Token], _Token]:
    """Total tokenizer: every input decomposes into punctuation and words.

    Also returns an end-of-input marker just past the last character, so
    errors at the end of the file stay located.  Columns count characters
    from 1."""
    tokens: list[_Token] = []
    line, line_start = 1, 0  # line_start: index of the line's first character
    scanned = 0  # text before this index has been counted for newlines
    for m in _TOKEN_RE.finditer(text):
        start = m.start()
        newlines = text.count("\n", scanned, start)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", scanned, start) + 1
        scanned = m.end()
        word = m.group()
        if word[0] != "#":
            tokens.append(_Token(word, line, start - line_start + 1))
    newlines = text.count("\n", scanned)
    if newlines:
        line += newlines
        line_start = text.rindex("\n") + 1
    return tokens, _Token("<end of input>", line, len(text) - line_start + 1)


@dataclass
class _RuleDecl:
    """A rule as read; resolved once every variable is known, since a rule
    may name variables declared after it."""

    name: _Token
    goal: int
    conds: list[tuple[_Token, _Token]]
    out_var: _Token
    out_label: _Token


class _SyntaxError(Exception):
    def __init__(self, diag: Diagnostic):
        self.diag = diag


def _hull(labels: Iterable[MembershipFunction]) -> tuple[float, float]:
    lo = min(min(mf.params) for mf in labels)
    hi = max(max(mf.params) for mf in labels)
    return lo, hi


class _Parser:
    """Builds labels, variables and the universe as it reads them; only rules
    wait for :meth:`resolve`."""

    def __init__(self, tokens: list[_Token], eof: _Token):
        self.tokens = [*tokens, eof]  # the cursor stops at eof
        self.eof = eof
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []
        self.variables: dict[str, LinguisticVariable] = {}
        self.first_var: _Token | None = None
        self.universe: OutputUniverse | None = None
        self.universe_seen = False
        self.rule_decls: list[_RuleDecl] = []

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok is not self.eof:
            self.pos += 1
        return tok

    def error(self, tok: _Token, message: str, code: str = "syntax") -> _SyntaxError:
        return _SyntaxError(Diagnostic("error", tok.line, tok.col, message, code))

    def report(self, tok: _Token, message: str, code: str, severity: str = "error") -> None:
        self.diagnostics.append(Diagnostic(severity, tok.line, tok.col, message, code))

    def failed(self) -> bool:
        return any(d.severity == "error" for d in self.diagnostics)

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

    def expect_number(self) -> float:
        tok = self.next()
        try:
            return float(tok.text)
        except ValueError:
            raise self.error(tok, f"expected a number, found '{tok.text}'") from None

    def expect_int(self, what: str) -> tuple[int, _Token]:
        tok = self.next()
        try:
            value = int(tok.text)
        except ValueError:
            raise self.error(tok, f"expected an integer {what}, found '{tok.text}'") from None
        return value, tok

    def parse(self) -> None:
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
        self.first_var = self.first_var or name
        self.expect_keyword("unit")
        self.expect_punct("=")
        unit_tok = self.next()
        if unit_tok is self.eof or unit_tok.text in _PUNCT:
            raise self.error(unit_tok, f"expected a unit, found '{unit_tok.text}'")
        if self.peek().lower != "label":
            raise self.error(self.peek(), f"variable '{name.text}' declares no labels")
        labels: dict[str, MembershipFunction] = {}
        while self.peek().lower == "label":
            self.parse_label(name.text, labels)
        if name.text in self.variables:
            self.report(name, f"duplicate variable '{name.text}'", "duplicate-variable")
        elif labels:  # empty only if every label was rejected
            self.variables[name.text] = LinguisticVariable(name.text, unit_tok.text, labels)

    def parse_label(self, var: str, labels: dict[str, MembershipFunction]) -> None:
        self.expect_keyword("label")
        name = self.expect_name("label")
        shape = self.next()
        if shape.lower not in SHAPES:
            raise self.error(
                shape, f"expected a shape ({', '.join(SHAPES)}), found '{shape.text}'"
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
        if name.text in labels:
            self.report(
                name, f"duplicate label '{name.text}' on variable '{var}'", "duplicate-label"
            )
            return
        try:
            labels[name.text] = MembershipFunction(
                shape.lower, tuple(v + 0.0 for v in params), power
            )
        except KBError as exc:
            self.report(shape, str(exc), "bad-shape")

    def parse_universe(self) -> None:
        at = self.expect_keyword("universe")
        lo = self.expect_number()
        hi = self.expect_number()
        n, _ = self.expect_int("point count")
        if self.universe_seen:
            raise self.error(at, "duplicate universe declaration", "duplicate-universe")
        self.universe_seen = True
        try:
            self.universe = OutputUniverse(lo, hi, n)
        except KBError as exc:
            self.report(at, str(exc), "bad-universe")

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

    def precondition(self, var_tok: _Token, label_tok: _Token) -> Precondition:
        """The condition, with an aliased label read as the label it stands for."""
        var, label = self.variables.get(var_tok.text), label_tok.text
        alias = LABEL_ALIASES.get(label)
        if var is not None and label not in var.labels and alias in var.labels:
            return Precondition(var_tok.text, alias, label)
        return Precondition(var_tok.text, label)

    def resolve(self) -> KnowledgeBase | None:
        """Resolve the rules against the variables read; None on any error.

        Whether a rule fits the variables is decided by
        :func:`fuzzy.rule_problems`; this only locates each problem."""
        if self.failed():
            return None
        if not self.rule_decls:
            at = self.first_var or _Token("", 1, 1)
            self.report(
                at, "no output variable defined: the file declares no rules", "no-output"
            )
            return None
        variables = self.variables
        # the variable most conclusions name (ties: the first named), so that
        # one mistyped conclusion is reported there and nowhere else
        named = Counter(decl.out_var.text for decl in self.rule_decls)
        output_variable = max(named, key=named.get)
        rules: list[Rule] = []
        seen_rules: set[str] = set()
        for decl in self.rule_decls:
            if decl.name.text in seen_rules:
                self.report(
                    decl.name, f"duplicate rule name '{decl.name.text}'", "duplicate-rule"
                )
            seen_rules.add(decl.name.text)
            rule = Rule(
                decl.name.text,
                tuple(self.precondition(*cond) for cond in decl.conds),
                (decl.out_var.text, decl.out_label.text),
                decl.goal,
            )
            tokens = [*decl.conds, (decl.out_var, decl.out_label)]  # [-1]: conclusion
            problems = list(rule_problems(rule, variables, output_variable))
            for clause, part, message, code in problems:
                self.report(tokens[clause][part], message, code)
            # a repeated condition is reported as such, not for its label
            repeated = {c for c, _, _, code in problems if code == "duplicate-precondition"}
            for i, pre in enumerate(rule.preconditions):
                if pre.spelled is not None and i not in repeated:
                    message = (
                        f"label '{pre.spelled}' is not defined on variable "
                        f"'{pre.variable}'; reading it as '{pre.label}'"
                    )
                    self.report(tokens[i][1], message, "label-alias", "warning")
            rules.append(rule)
        if self.failed():
            return None
        universe = self.universe or OutputUniverse(
            *_hull(variables[output_variable].labels.values())
        )
        return KnowledgeBase(variables, output_variable, tuple(rules), universe)


def parse_knowledge_base(text: str | bytes) -> ParseResult:
    """Parse rule-file text; failures come back as located diagnostics."""
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    parser = _Parser(*_tokenize(text))
    parser.parse()
    kb = parser.resolve()
    return ParseResult(kb, parser.diagnostics)


def load_kb(text: str | bytes) -> KnowledgeBase:
    """Parse and return the KB, raising :class:`RuleFileError` on errors."""
    result = parse_knowledge_base(text)
    if result.kb is None:
        raise RuleFileError(result.diagnostics)
    return result.kb


# ---------------------------------------------------------------------------
# Validation


def _mirror_map(var: LinguisticVariable) -> dict[str, str] | None:
    """Pair every label with its reflection about zero, or None if impossible.

    The reflection of corners (a, b, c, d) at power k is (-d, -c, -b, -a) at
    power k; the first label with those corners is the partner."""
    by_shape: dict[tuple, str] = {}
    for name, mf in var.labels.items():
        by_shape.setdefault((mf.corners, mf.power), name)
    mapping: dict[str, str] = {}
    for name, mf in var.labels.items():
        a, b, c, d = mf.corners
        partner = by_shape.get(((-d, -c, -b, -a), mf.power))
        if partner is None:
            return None
        mapping[name] = partner
    return mapping


def validate_kb(kb: KnowledgeBase) -> list[Diagnostic]:
    """Sanity checks the inference engine assumes; all findings are warnings.

    Covers: label supports leaving holes in a variable's operating range,
    uncovered cells in the first-goal rule grid, and missing mirror rules.
    Aliased labels are reported by the parser, at their token.
    """
    out: list[Diagnostic] = []

    def warn(message: str, code: str) -> None:
        out.append(Diagnostic("warning", 0, 0, message, code))

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

    # First-goal rule grid (none without goal-1 rules): every combination of
    # the labels those rules use should be handled by some rule.
    goal1 = [
        {p.variable: p.label for p in r.preconditions} for r in kb.rules if r.goal_index == 1
    ]
    used: dict[str, dict[str, None]] = {}  # variable -> its labels, both in first-use order
    for by_var in goal1:
        for var, label in by_var.items():
            used.setdefault(var, {})[label] = None
    for cell in product(*used.values()) if goal1 else ():
        if not any(
            all(by_var.get(v, c) == c for v, c in zip(used, cell)) for by_var in goal1
        ):
            pretty = ", ".join(f"{v}={c}" for v, c in zip(used, cell))
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
            reflected_sig = (
                frozenset(
                    (p.variable, mirrors[p.variable][p.label])
                    for p in rule.preconditions
                ),
                mirrors[kb.output_variable][rule.conclusion[1]],
            )
            if reflected_sig not in signatures:
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
