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
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from itertools import product
from typing import Callable, Iterable

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

_POWER_RE = re.compile(r"\^(\d+)\Z")
_PUNCT = "(),:="


@dataclass(frozen=True)
class Diagnostic:
    """One finding in a rule file, at a 1-based line and column."""

    severity: str  # "error" | "warning"
    line: int
    col: int
    message: str
    code: str

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.severity}: {self.message} [{self.code}]"


@dataclass
class ParseResult:
    """The rule base of a rule file (None when it has errors) and every
    diagnostic found while reading it."""

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


# A comment runs from "#" to the end of its line.  Once comments are blanked
# out, a token is a word or a punctuation mark, and what lies between tokens
# is whitespace (``str.isspace``, the set ``\s`` matches).
_COMMENT_RE = re.compile(r"#[^\n]*")
_WORD = r"[^\s(),:=#]+"
_TOKEN_RE = re.compile(rf"{_WORD}|[(),:=]")
_UNIT_RE = re.compile(rf"{_WORD}\Z")  # a unit is read as one word

# A token is a plain ``(text, offset)`` tuple, the offset the index of its
# first character in the text read.  Its line and column are worked out only
# when a diagnostic names it, by :func:`_locator`.
_Token = tuple[str, int]


def _is_name(text: str) -> bool:
    """Whether ``text`` reads as a name: an ASCII identifier and no keyword."""
    return text.isascii() and text.isidentifier() and text.lower() not in KEYWORDS


def _tokenize(text: str) -> tuple[list[_Token], _Token]:
    """Total tokenizer: every input decomposes into punctuation and words.

    Also returns an end-of-input marker just past the last character, so
    errors at the end of the file stay located.  Comments are blanked out
    with spaces, which keeps every offset."""
    end = ("<end of input>", len(text))
    if "#" in text:
        text = _COMMENT_RE.sub(lambda m: " " * len(m[0]), text)
    return [(m[0], m.start()) for m in _TOKEN_RE.finditer(text)], end


def _locator(text: str) -> Callable[[int], tuple[int, int]]:
    """``locate(offset) -> (line, col)`` for ``text``, both from 1; columns
    count characters and only "\n" starts a line.

    The newlines are found once, when the locator is made, and each lookup
    bisects them, so a file with a diagnostic on every line still takes
    linear time."""
    newlines = [m.start() for m in re.finditer("\n", text)]

    def locate(offset: int) -> tuple[int, int]:
        line = bisect_left(newlines, offset)  # the newlines before offset
        return line + 1, offset - (newlines[line - 1] if line else -1)

    return locate


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

    def __init__(self, text: str):
        self.text = text
        tokens, self.eof = _tokenize(text)
        self.tokens = [*tokens, self.eof]  # the cursor stops at eof
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []
        self.variables: dict[str, LinguisticVariable] = {}
        self.first_var: _Token | None = None
        self.universe: OutputUniverse | None = None
        self.universe_seen = False
        self.rule_decls: list[_RuleDecl] = []

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def at(self, keyword: str) -> bool:
        """Whether the next token is ``keyword``, in any case."""
        return self.tokens[self.pos][0].lower() == keyword

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok is not self.eof:
            self.pos += 1
        return tok

    @functools.cached_property
    def locate(self) -> Callable[[int], tuple[int, int]]:
        return _locator(self.text)  # made with the first diagnostic

    def diagnostic(self, severity: str, tok: _Token, message: str, code: str) -> Diagnostic:
        return Diagnostic(severity, *self.locate(tok[1]), message, code)

    def error(self, tok: _Token, message: str, code: str = "syntax") -> _SyntaxError:
        return _SyntaxError(self.diagnostic("error", tok, message, code))

    def report(self, tok: _Token, message: str, code: str, severity: str = "error") -> None:
        self.diagnostics.append(self.diagnostic(severity, tok, message, code))

    def failed(self) -> bool:
        return any(d.severity == "error" for d in self.diagnostics)

    def expect(self, word: str) -> _Token:
        """The next token, which must be ``word``: a keyword, in any case, or a mark."""
        tok = self.next()
        if tok[0].lower() != word:
            raise self.error(tok, f"expected '{word.upper()}', found '{tok[0]}'")
        return tok

    def expect_name(self, what: str) -> _Token:
        tok = self.next()
        if not _is_name(tok[0]):
            raise self.error(tok, f"expected {what} name, found '{tok[0]}'")
        return tok

    def expect_number(self) -> float:
        tok = self.next()
        try:
            return float(tok[0])
        except ValueError:
            raise self.error(tok, f"expected a number, found '{tok[0]}'") from None

    def expect_int(self, what: str) -> tuple[int, _Token]:
        tok = self.next()
        try:
            value = int(tok[0])
        except ValueError:
            raise self.error(tok, f"expected an integer {what}, found '{tok[0]}'") from None
        return value, tok

    def parse(self) -> None:
        while self.peek() is not self.eof:
            try:
                if self.at("var"):
                    self.parse_var()
                elif self.at("rule"):
                    self.parse_rule()
                elif self.at("universe"):
                    self.parse_universe()
                else:
                    tok = self.peek()
                    raise self.error(
                        tok, f"expected 'VAR', 'RULE' or 'UNIVERSE', found '{tok[0]}'"
                    )
            except _SyntaxError as err:
                self.diagnostics.append(err.diag)
                self.recover()

    def recover(self) -> None:
        """Skip to the next plausible statement start."""
        while self.peek() is not self.eof and self.peek()[0].lower() not in (
            "var", "rule", "universe"
        ):
            self.next()

    def parse_var(self) -> None:
        self.expect("var")
        name = self.expect_name("variable")
        self.first_var = self.first_var or name
        self.expect("unit")
        self.expect("=")
        unit_tok = self.next()
        if unit_tok is self.eof or unit_tok[0] in _PUNCT:
            raise self.error(unit_tok, f"expected a unit, found '{unit_tok[0]}'")
        if not self.at("label"):
            raise self.error(self.peek(), f"variable '{name[0]}' declares no labels")
        labels: dict[str, MembershipFunction] = {}
        while self.at("label"):
            self.parse_label(name[0], labels)
        if name[0] in self.variables:
            self.report(name, f"duplicate variable '{name[0]}'", "duplicate-variable")
        elif labels:  # empty only if every label was rejected
            self.variables[name[0]] = LinguisticVariable(name[0], unit_tok[0], labels)

    def parse_label(self, var: str, labels: dict[str, MembershipFunction]) -> None:
        self.expect("label")
        name = self.expect_name("label")
        shape = self.next()
        kind = shape[0].lower()
        if kind not in SHAPES:
            raise self.error(
                shape, f"expected a shape ({', '.join(SHAPES)}), found '{shape[0]}'"
            )
        self.expect("(")
        params = [self.expect_number()]
        while self.peek()[0] == ",":
            self.next()
            params.append(self.expect_number())
        self.expect(")")
        power = 1
        m = _POWER_RE.match(self.peek()[0])
        if m:
            self.next()
            power = int(m.group(1))
        if name[0] in labels:
            self.report(
                name, f"duplicate label '{name[0]}' on variable '{var}'", "duplicate-label"
            )
            return
        try:
            labels[name[0]] = MembershipFunction(kind, tuple(params), power)
        except KBError as exc:
            self.report(shape, str(exc), "bad-shape")

    def parse_universe(self) -> None:
        at = self.expect("universe")
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
        self.expect("rule")
        name = self.expect_name("rule")
        goal = 1
        if self.at("goal"):
            self.next()
            goal, goal_tok = self.expect_int("goal index")
            if goal < 1:
                raise self.error(goal_tok, f"goal index must be positive, got {goal}")
        self.expect(":")
        self.expect("if")
        conds = [self.parse_cond()]
        while self.at("and"):
            self.next()
            conds.append(self.parse_cond())
        self.expect("then")
        out_var = self.expect_name("output variable")
        self.expect("is")
        out_label = self.expect_name("output label")
        self.rule_decls.append(_RuleDecl(name, goal, conds, out_var, out_label))

    def parse_cond(self) -> tuple[_Token, _Token]:
        var = self.expect_name("variable")
        self.expect("is")
        label = self.expect_name("label")
        return var, label

    def precondition(self, var_tok: _Token, label_tok: _Token) -> Precondition:
        """The condition, with an aliased label read as the label it stands for."""
        var, label = self.variables.get(var_tok[0]), label_tok[0]
        alias = LABEL_ALIASES.get(label)
        if var is not None and label not in var.labels and alias in var.labels:
            return Precondition(var_tok[0], alias, label)
        return Precondition(var_tok[0], label)

    def resolve(self) -> KnowledgeBase | None:
        """Resolve the rules against the variables read; None on any error.

        The :class:`KnowledgeBase` checks each rule with
        :func:`fuzzy.rule_problems`; this runs it only to locate the problems
        of a KB that raised."""
        if self.failed():
            return None
        if not self.rule_decls:
            self.report(
                self.first_var or ("", 0),
                "no output variable defined: the file declares no rules",
                "no-output",
            )
            return None
        variables = self.variables
        # the variable most conclusions name (ties: the first named), so that
        # one mistyped conclusion is reported there and nowhere else
        named = Counter(decl.out_var[0] for decl in self.rule_decls)
        output_variable = max(named, key=named.get)
        rules = [
            Rule(
                decl.name[0], tuple(self.precondition(*cond) for cond in decl.conds),
                (decl.out_var[0], decl.out_label[0]), decl.goal,
            )
            for decl in self.rule_decls
        ]
        kb = universe = None
        if output_variable in variables:  # else the default universe has no labels
            try:
                universe = self.universe or OutputUniverse(
                    *_hull(variables[output_variable].labels.values())
                )
                kb = KnowledgeBase(variables, output_variable, tuple(rules), universe)
            except KBError as exc:
                if universe is None:  # the labels' hull is too wide for a universe
                    at = next(d.out_var for d in self.rule_decls if d.out_var[0] == output_variable)
                    self.report(at, f"default {exc}; declare a universe", "bad-universe")
        seen_rules: set[str] = set()
        for decl, rule in zip(self.rule_decls, rules):
            name = decl.name[0]
            if name in seen_rules:
                self.report(decl.name, f"duplicate rule name '{name}'", "duplicate-rule")
            seen_rules.add(name)
            tokens = [*decl.conds, (decl.out_var, decl.out_label)]  # [-1]: conclusion
            problems = [] if kb else list(rule_problems(rule, variables, output_variable))
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
        return None if self.failed() else kb


def parse_knowledge_base(text: str | bytes) -> ParseResult:
    """Parse rule-file text; failures come back as located diagnostics.
    One leading byte-order mark (U+FEFF) is dropped."""
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    parser = _Parser(text.removeprefix("\ufeff"))
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
        for mid in [(a + b) / 2.0 for a, b in zip(points, points[1:])]:
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
    covered: set[tuple[str, ...]] = set()  # a rule covers every label of a variable it omits
    for by_var in goal1:
        covered.update(product(*((by_var[v],) if v in by_var else labels
                                 for v, labels in used.items())))
    for cell in product(*used.values()) if goal1 else ():
        if cell not in covered:
            pretty = ", ".join(f"{v}={c}" for v, c in zip(used, cell))
            warn(f"no goal-1 rule covers the grid cell ({pretty})", "grid-gap")

    # Mirror symmetry: each rule should have a counterpart under reflection
    # of every label about zero.
    mirrors: dict[str, dict[str, str]] = {}
    for var in kb.variables.values():
        mapping = _mirror_map(var)
        if mapping is None:
            warn(
                f"variable '{var.name}': labels are not mirror-symmetric about zero",
                "asymmetric-labels",
            )
        else:
            mirrors[var.name] = mapping

    if len(mirrors) == len(kb.variables):  # every variable is symmetric
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


def _name(text: str, what: str) -> str:
    """``text``, or KBError when the parser would not read it as a name."""
    if not _is_name(text):
        raise KBError(f"{what} name '{text}' is not an identifier or is a keyword")
    return text


def serialize_kb(kb: KnowledgeBase) -> str:
    """Deterministic canonical text; parse(serialize(kb)) equals kb.

    Raises KBError for a name or unit the text could not carry: a name
    that is not an identifier or is a keyword, a unit that is not one word,
    a rule name used twice.
    """
    lines: list[str] = []
    ordered = sorted(
        (v for v in kb.input_variables), key=lambda v: v.name
    ) + [kb.output]
    for var in ordered:
        if not _UNIT_RE.match(var.unit):
            raise KBError(f"unit '{var.unit}' of variable '{var.name}' is not one word")
        lines.append(f"var {_name(var.name, 'variable')} unit = {var.unit}")
        for name, mf in sorted(var.labels.items(), key=_label_sort_key):
            params = ", ".join(_fmt(p) for p in mf.params)
            power = f" ^{mf.power}" if mf.power > 1 else ""
            lines.append(f"  label {_name(name, 'label')} {mf.kind}({params}){power}")
        lines.append("")
    u = kb.output_universe
    lines.append(f"universe {_fmt(u.lo)} {_fmt(u.hi)} {u.n}")
    lines.append("")
    seen: set[str] = set()
    for rule in kb.rules:
        if rule.name in seen:  # the parser reads the second as an error
            raise KBError(f"duplicate rule name '{rule.name}'")
        seen.add(rule.name)
        conds = " AND ".join(
            f"{p.variable} IS {_name(p.written_label, 'label')}"
            for p in rule.preconditions
        )
        out_var, out_label = rule.conclusion
        lines.append(
            f"rule {_name(rule.name, 'rule')} goal {rule.goal_index}: "
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
