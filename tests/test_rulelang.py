import hashlib
import itertools
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fuzzpole.fuzzy import (
    KBError,
    KnowledgeBase,
    LinguisticVariable,
    MembershipFunction,
    OutputUniverse,
    Precondition,
    Rule,
    fc_output,
)
from fuzzpole.rulelang import (
    KEYWORDS,
    _is_name,
    _locator,
    _tokenize,
    builtin_pole_kb,
    builtin_pole_source,
    load_kb,
    parse_knowledge_base,
    serialize_kb,
    validate_kb,
)

MINI_KB = """
# toy single-variable controller
var e unit = V
  label NE shoulder_down(-1.0, 0.0)
  label ZE triangle(-1.0, 0.0, 1.0)
  label PO shoulder_up(0.0, 1.0)
var u unit = N
  label N triangle(-2.0, -1.0, 0.0)
  label Z triangle(-1.0, 0.0, 1.0)
  label P triangle(0.0, 1.0, 2.0)
rule a: IF e IS PO THEN u IS P
rule b: IF e IS ZE THEN u IS Z
rule c: IF e IS NE THEN u IS N
"""


def test_parse_minimal_kb():
    result = parse_knowledge_base(MINI_KB)
    assert result.ok, result.diagnostics
    kb = result.kb
    assert [r.name for r in kb.rules] == ["a", "b", "c"]
    assert kb.rules[0].preconditions[0].variable == "e"
    assert kb.rules[0].conclusion == ("u", "P")


def test_parse_rule_like_printed_table():
    text = (
        "var theta unit = deg\n"
        "  label PO shoulder_up(0.0, 6.25)\n"
        "  label ZE triangle(-6.25, 0.0, 6.25)\n"
        "var theta_dot unit = deg/s\n"
        "  label ZE triangle(-25.0, 0.0, 25.0)\n"
        "var F unit = N\n"
        "  label PM triangle(3.0, 6.0, 9.0)\n"
        "rule r2: IF theta IS PO AND theta_dot IS ZE THEN F IS PM\n"
    )
    result = parse_knowledge_base(text)
    assert result.ok
    (rule,) = result.kb.rules
    assert len(rule.preconditions) == 2
    assert rule.conclusion == ("F", "PM")
    assert rule.goal_index == 1


def test_empty_input_reports_no_output_variable():
    result = parse_knowledge_base("")
    assert not result.ok
    assert any("no output variable" in d.message for d in result.errors)


def test_unknown_label_is_located():
    text = MINI_KB + "rule d: IF e IS BOGUS THEN u IS Z\n"
    result = parse_knowledge_base(text)
    assert not result.ok
    (diag,) = [d for d in result.errors if "BOGUS" in d.message]
    assert diag.code == "unknown-label"
    assert "e" in diag.message
    assert diag.line > 0 and diag.col > 0


def test_duplicate_rule_name_rejected():
    text = MINI_KB + "rule a: IF e IS ZE THEN u IS Z\n"
    result = parse_knowledge_base(text)
    assert not result.ok
    assert any(d.code == "duplicate-rule" for d in result.errors)


def test_syntax_error_reports_expectation():
    result = parse_knowledge_base("var x unit = V\n  label L triangle(1.0, 2.0\nrule")
    assert not result.ok
    assert any("expected" in d.message for d in result.errors)


def test_keywords_case_insensitive_and_comments():
    text = MINI_KB.replace("IF", "if").replace("THEN", "then").replace("rule", "RULE")
    result = parse_knowledge_base(text)
    assert result.ok


@pytest.mark.parametrize(
    "text, tokens, end",
    [
        # every str.isspace character separates words and advances the
        # column by one; only "\n" starts a line
        ("a\tb\rc\x0bd\x1ce\x85f\xa0g\u2028h é=",
         [("a", 1, 1), ("b", 1, 3), ("c", 1, 5), ("d", 1, 7), ("e", 1, 9),
          ("f", 1, 11), ("g", 1, 13), ("h", 1, 15), ("é", 1, 17), ("=", 1, 18)],
         (1, 19)),
        ("rule r1# note\nx", [("rule", 1, 1), ("r1", 1, 6), ("x", 2, 1)], (2, 2)),
        # the end of input stands just past the last character, a trailing
        # comment's included
        ("var x # trailing", [("var", 1, 1), ("x", 1, 5)], (1, 17)),
        ("", [], (1, 1)),
        ("(x)  \n\t# c\n", [("(", 1, 1), ("x", 1, 2), (")", 1, 3)], (3, 1)),
        ("a:=\n\n b,", [("a", 1, 1), (":", 1, 2), ("=", 1, 3), ("b", 3, 2), (",", 3, 3)],
         (3, 4)),
    ],
    ids=["whitespace", "hash-after-word", "trailing-comment", "empty", "comment-line",
         "blank-line"],
)
def test_tokenize_positions(text, tokens, end):
    """Tokens and the end-of-input marker carry (text, offset); the offset
    reads as (line, col), columns counted in characters from 1."""
    got, (eof, eof_offset) = _tokenize(text)
    locate = _locator(text)
    assert [(word, *locate(offset)) for word, offset in got] == tokens
    assert (eof, *locate(eof_offset)) == ("<end of input>", *end)


# The tokenizer as it was before comments were blanked out: one regex whose
# group 1 is the token and which matches a comment with the group unset.
_ORACLE_TOKEN_RE = re.compile(r"#[^\n]*|([(),:=]|[^\s(),:=#]+)")


def _tokenize_oracle(text):
    return [(word, m.start()) for m in _ORACLE_TOKEN_RE.finditer(text) if (word := m[1])]


_SPACES = [" ", "\t", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028",
           "\u3000"]
_COMMENT_CHARS = "abc (),:=#^.-_\t\r\xa0\u2028\x85é"


@st.composite
def rule_texts(draw):
    """Words, marks, whitespace of every kind and comments, glued in any
    order: a comment may follow a word with no space and end the text
    with no newline."""
    piece = st.one_of(
        st.text(alphabet="aZ_09.-+^é", min_size=1, max_size=5),
        st.sampled_from(list("(),:=")),
        st.sampled_from(_SPACES),
        st.text(alphabet=_COMMENT_CHARS, max_size=12).map(lambda body: "#" + body),
        st.text(max_size=4),
    )
    return "".join(draw(st.lists(piece, max_size=30)))


@settings(max_examples=300, deadline=None)
@given(rule_texts())
@example("rule r1# note (a, b) ## :=\r\nx\t#end")
@example("var x unit = m\u2028# c,=:\x85()")
def test_tokenize_matches_the_one_pass_form(text):
    """Blanking comments out and then matching tokens gives the tokens and
    offsets of the regex that matched comments and tokens in one pass."""
    assert _tokenize(text) == (_tokenize_oracle(text), ("<end of input>", len(text)))


def test_tokenize_matches_the_one_pass_form_on_every_rule_file():
    files = sorted(Path(__file__).resolve().parent.parent.glob("**/*.frl"))
    assert files
    for path in files:
        text = path.read_text(encoding="utf-8")
        assert _tokenize(text)[0] == _tokenize_oracle(text), path


_ORACLE_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(alphabet=st.characters(max_codepoint=127), max_size=8),
    st.text(max_size=8),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]*", fullmatch=True),
    st.from_regex(r"[A-Za-z_\u00e9\u017f\u212a\u0660][A-Za-z0-9_\u00e9\u0660\u212a]*\n?",
                  fullmatch=True),
))
def test_a_name_is_what_the_identifier_regex_reads(text):
    """``_is_name`` (an ASCII identifier and no keyword) accepts exactly the
    names the regex ``[A-Za-z_][A-Za-z0-9_]*`` accepts, keywords aside."""
    expected = _ORACLE_IDENT_RE.match(text) is not None and text.lower() not in KEYWORDS
    assert _is_name(text) == expected


def test_no_keyword_is_a_name_in_any_case():
    for keyword in KEYWORDS:
        for cases in itertools.product(*((c.lower(), c.upper()) for c in keyword)):
            assert not _is_name("".join(cases))
            assert _ORACLE_IDENT_RE.match("".join(cases))


def test_label_alias_warns_and_resolves():
    text = MINI_KB.replace("rule c: IF e IS NE THEN u IS N",
                           "rule c: IF e IS NL THEN u IS N")
    result = parse_knowledge_base(text)
    assert result.ok
    assert any(d.code == "label-alias" for d in result.warnings)
    rule_c = result.kb.rules[2]
    assert rule_c.preconditions[0].label == "NE"
    assert rule_c.preconditions[0].spelled == "NL"
    # round trip preserves the original spelling
    again = parse_knowledge_base(serialize_kb(result.kb))
    assert again.kb == result.kb


def test_universe_and_power_extensions():
    text = MINI_KB + "universe -2.0 2.0 101\n"
    text = text.replace(
        "label ZE triangle(-1.0, 0.0, 1.0)",
        "label ZE triangle(-1.0, 0.0, 1.0) ^2",
    )
    result = parse_knowledge_base(text)
    assert result.ok
    assert result.kb.output_universe == OutputUniverse(-2.0, 2.0, 101)
    assert result.kb.variables["e"].labels["ZE"].power == 2


def test_default_universe_is_output_hull():
    result = parse_knowledge_base(MINI_KB)
    assert result.kb.output_universe == OutputUniverse(-2.0, 2.0, 201)


def test_a_universe_statement_replaces_a_hull_that_overflows():
    """Output labels from -1e308 to 1e308 have a hull too wide for the
    center-of-area sums: the default universe is reported, and a universe
    statement takes its place."""
    text = MINI_KB.replace("label N triangle(-2.0, -1.0, 0.0)", "label N shoulder_down(-1e308, -1.0)")
    text = text.replace("label P triangle(0.0, 1.0, 2.0)", "label P shoulder_up(1.0, 1e308)")
    (diag,) = parse_knowledge_base(text).errors
    assert (diag.code, diag.message) == (
        "bad-universe",
        "default universe n * max(|min|, |max|) must be finite, got 201 * 1e+308; "
        "declare a universe",
    )
    result = parse_knowledge_base(text + "universe -2.0 2.0 101\n")
    assert result.ok and result.kb.output_universe == OutputUniverse(-2.0, 2.0, 101)


def test_a_universe_too_wide_for_its_sums_is_a_located_error():
    """Output labels from -8e307 to 8e307 span a finite 1.6e308, but the
    center of area sums 201 points of up to 8e307, which would read inf:
    the default universe is a located error, and so is a declared universe
    as wide, while a narrower declared universe gives a finite force."""
    text = MINI_KB.replace("label N triangle(-2.0, -1.0, 0.0)", "label N shoulder_down(-8e307, -1.0)")
    text = text.replace("label P triangle(0.0, 1.0, 2.0)", "label P shoulder_up(1.0, 8e307)")
    (diag,) = parse_knowledge_base(text).errors
    assert (diag.code, f"{diag.line}:{diag.col}", diag.message) == (
        "bad-universe", "11:25",
        "default universe n * max(|min|, |max|) must be finite, got 201 * 8e+307; "
        "declare a universe",
    )
    (diag,) = parse_knowledge_base(text + "universe -8e307 8e307 201\n").errors
    assert (diag.code, f"{diag.line}:{diag.col}") == ("bad-universe", "14:1")
    result = parse_knowledge_base(text + "universe -8e305 8e305 201\n")
    assert result.ok and math.isfinite(fc_output(result.kb, {"e": 0.5}))


SMALL_KB = """var e unit = V
  label ZE triangle(-1.0, 0.0, 1.0)
var u unit = N
  label Z triangle(-1.0, 0.0, 1.0)
rule a: IF e IS ZE THEN u IS Z
"""
_E_LABEL = "label ZE triangle(-1.0, 0.0, 1.0)"
_RULE_A = "rule a: IF e IS ZE THEN u IS Z"


# Rows past the declarations: the rules fit no knowledge base over SMALL_KB's
# variables, which only fuzzy.rule_problems decides.
_RESOLVE_ROWS = [
    pytest.param(SMALL_KB + "rule b: IF e IS ZE THEN e IS ZE\n", "multiple-outputs", "6:25",
                 id="multiple-outputs"),
    pytest.param(SMALL_KB.replace("IF e IS", "IF q IS"), "unknown-variable", "5:12",
                 id="unknown-variable-condition"),
    pytest.param(SMALL_KB.replace("THEN u IS", "THEN q IS"), "unknown-variable", "5:25",
                 id="unknown-variable-conclusion"),
    pytest.param(SMALL_KB.replace("e IS ZE", "e IS QQ"), "unknown-label", "5:17",
                 id="unknown-label-condition"),
    pytest.param(SMALL_KB.replace("u IS Z", "u IS QQ"), "unknown-label", "5:30",
                 id="unknown-label-conclusion"),
    pytest.param(SMALL_KB.replace("e IS ZE", "e IS ZE AND e IS ZE"), "duplicate-precondition",
                 "5:24", id="duplicate-precondition"),
    pytest.param(SMALL_KB.replace("IF e IS ZE", "IF u IS Z"), "output-in-condition", "5:12",
                 id="output-in-condition"),
]


# Rows that the parser decides: syntax, declarations and rule names.
_PARSE_ROWS = [
    pytest.param("", "no-output", "1:1",
                 id="empty"),
    pytest.param("# only a comment\n", "no-output", "1:1",
                 id="comment-only"),
    pytest.param(SMALL_KB.replace("unit = V", "unit V"), "syntax", "1:12",
                 id="syntax"),
    pytest.param(SMALL_KB.replace("unit = V", "unit = ("), "syntax", "1:14",
                 id="no-unit"),
    pytest.param(SMALL_KB.replace("rule a:", "rule a goal 0:"), "syntax", "5:13",
                 id="goal-0"),
    pytest.param(SMALL_KB + "var e unit = V\n  " + _E_LABEL + "\n", "duplicate-variable", "6:5",
                 id="duplicate-variable"),
    pytest.param(SMALL_KB.replace(_E_LABEL, _E_LABEL + "\n  " + _E_LABEL), "duplicate-label", "3:9",
                 id="duplicate-label"),
    pytest.param(SMALL_KB.replace(_E_LABEL, "label ZE triangle(-1.0, 1.0)"), "bad-shape", "2:12",
                 id="count"),
    pytest.param(SMALL_KB.replace(_E_LABEL, "label ZE triangle(1.0, 0.0, -1.0)"), "bad-shape", "2:12",
                 id="order"),
    pytest.param(SMALL_KB.replace(_E_LABEL, "label ZE triangle(-inf, 0.0, 1.0)"), "bad-shape", "2:12",
                 id="non-finite"),
    pytest.param(SMALL_KB.replace(_E_LABEL, "label ZE triangle(-1.7e308, 1e308, 1.7e308)"),
                 "bad-shape", "2:12", id="ramp-width-overflows"),
    pytest.param(SMALL_KB.replace(_E_LABEL, _E_LABEL + " ^0"), "bad-shape", "2:12",
                 id="power-0"),
    pytest.param(SMALL_KB.replace(_E_LABEL, _E_LABEL + " ^99"), "bad-shape", "2:12",
                 id="power-99"),
    pytest.param(SMALL_KB + "universe -1.0 1.0 11\nuniverse -1.0 1.0 11\n", "duplicate-universe", "7:1",
                 id="duplicate-universe"),
    pytest.param(SMALL_KB + "universe 1.0 -1.0 11\n", "bad-universe", "6:1",
                 id="bad-universe"),
    pytest.param(SMALL_KB + "universe inf 10 201\n", "bad-universe", "6:1",
                 id="infinite-universe"),
    # the default universe, the hull of the output labels, is too wide for
    # its center-of-area sums: located at the first conclusion naming the output
    pytest.param(SMALL_KB.replace("label Z triangle(-1.0", "label Z triangle(-1e308")
                 .replace("0.0, 1.0)\nrule", "0.0, 1e308)\nrule"), "bad-universe", "5:25",
                 id="overflowing-default-universe"),
    pytest.param(SMALL_KB.replace(_E_LABEL, "label ZE hexagon(-1.0, 0.0, 1.0)"), "syntax", "2:12",
                 id="unknown-shape"),
    pytest.param(SMALL_KB.replace(_RULE_A, ""), "no-output", "1:5",
                 id="no-output"),
    pytest.param(SMALL_KB + _RULE_A + "\n", "duplicate-rule", "6:6",
                 id="duplicate-rule"),
]


@pytest.mark.parametrize("text, code, where", _PARSE_ROWS + _RESOLVE_ROWS)
def test_parser_error_codes_are_located(text, code, where):
    assert parse_knowledge_base(SMALL_KB).ok
    result = parse_knowledge_base(text)
    assert result.kb is None
    assert [(d.code, f"{d.line}:{d.col}") for d in result.errors] == [(code, where)]


_RULE_RE = re.compile(r"rule (\w+): IF (.+) THEN (\w+) IS (\w+)")


@pytest.mark.parametrize("text, code, where", _RESOLVE_ROWS)
def test_knowledge_base_raises_the_parsers_first_error(text, code, where):
    """The parser and KnowledgeBase share one definition of a well-formed
    rule: built from the same variables and rules, the KB raises the message
    the parser reports first."""
    small = parse_knowledge_base(SMALL_KB).kb
    rules = tuple(
        Rule(name, tuple(Precondition(*c.split(" IS ")) for c in conds.split(" AND ")),
             (out_var, out_label))
        for name, conds, out_var, out_label in _RULE_RE.findall(text)
    )
    first = parse_knowledge_base(text).errors[0]
    assert first.code == code
    with pytest.raises(KBError) as err:
        KnowledgeBase(small.variables, rules[0].conclusion[0], rules, small.output_universe)
    assert str(err.value) == first.message


def test_shape_parameter_count_is_named():
    text = SMALL_KB.replace(_E_LABEL, "label ZE triangle(-1.0, 1.0)")
    (diag,) = parse_knowledge_base(text).errors
    assert diag.message == "triangle takes 3 parameters (left, peak, right), got 2"


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(SMALL_KB.replace("triangle(-1.0", "triangle -1.0", 1),
                     "expected '(', found '-1.0'", id="punctuation"),
        pytest.param(SMALL_KB.replace("ZE THEN", "ZE", 1),
                     "expected 'THEN', found 'u'", id="keyword"),
    ],
)
def test_expected_token_message(text, message):
    (diag,) = parse_knowledge_base(text).errors
    assert diag.message == message


def test_unknown_shape_lists_the_shapes():
    text = SMALL_KB.replace(_E_LABEL, "label ZE hexagon(-1.0, 0.0, 1.0)")
    (diag,) = parse_knowledge_base(text).errors
    assert diag.message == (
        "expected a shape (triangle, shoulder_up, shoulder_down), found 'hexagon'"
    )


def test_mistyped_conclusion_is_reported_at_its_token():
    """The output variable is the one most conclusions name, so one mistyped
    conclusion variable is reported at that conclusion, not as every other
    rule disagreeing with it."""
    source = builtin_pole_source()
    r1 = next(line for line in source.splitlines() if line.startswith("rule r1 "))
    assert r1.endswith("THEN F IS PL")
    text = source.replace(r1, r1.replace("THEN F", "THEN theta"))
    row = source.splitlines().index(r1) + 1
    col = r1.index("THEN F") + len("THEN ") + 1
    result = parse_knowledge_base(text)
    assert result.kb is None
    assert [(d.code, d.line, d.col) for d in result.errors] == [
        ("multiple-outputs", row, col),
        ("unknown-label", row, col + len("theta IS ")),
    ]


def test_declaration_errors_are_listed_with_syntax_errors():
    text = SMALL_KB.replace(_E_LABEL, "label ZE triangle(1.0, 0.0, -1.0)") + "rule\n"
    result = parse_knowledge_base(text)
    assert [(d.code, d.line) for d in result.errors] == [("bad-shape", 2), ("syntax", 7)]


# --- built-in knowledge base -------------------------------------------------


def test_builtin_has_thirteen_rules(kb):
    assert len(kb.rules) == 13
    assert sum(1 for r in kb.rules if r.goal_index == 1) == 9
    assert sum(1 for r in kb.rules if r.goal_index == 2) == 4


def test_builtin_rule10_preconditions(kb):
    r10 = next(r for r in kb.rules if r.name == "r10")
    assert [(p.variable, p.label) for p in r10.preconditions] == [
        ("theta", "VS"),
        ("theta_dot", "VS"),
        ("x", "PO"),
        ("x_dot", "PO"),
    ]
    assert r10.conclusion == ("F", "PM")


def test_builtin_precondition_counts(kb):
    counts = {len(r.preconditions) for r in kb.rules}
    assert max(counts) == 4
    assert counts == {2, 4}


def test_builtin_rule9_spells_nl(kb):
    r9 = next(r for r in kb.rules if r.name == "r9")
    pre = dict((p.variable, p) for p in r9.preconditions)
    assert pre["theta_dot"].label == "NE"
    assert pre["theta_dot"].written_label == "NL"


def test_packaged_source_is_canonical(kb):
    source = builtin_pole_source()
    assert source == serialize_kb(kb)
    assert load_kb(source) == kb
    # the rule file is the only definition of the built-in KB: pin its bytes
    assert hashlib.sha256(source.encode("utf-8")).hexdigest() == (
        "6fc18f461bbea2c22a56681c423a7b0d0b5320e0528ebcd891226306236c550e"
    )


def test_builtin_kb_is_parsed_once():
    assert builtin_pole_kb() is builtin_pole_kb()


def test_each_parsed_rule_is_checked_once(monkeypatch):
    """The KB checks every rule; the parser checks them again only to
    locate the problems of a KB that cannot be built."""
    import fuzzpole.fuzzy as fuzzy_mod
    import fuzzpole.rulelang as rulelang_mod

    calls = []
    check = fuzzy_mod.rule_problems

    def counted(*args):
        calls.append(args[0].name)
        return check(*args)

    monkeypatch.setattr(fuzzy_mod, "rule_problems", counted)
    monkeypatch.setattr(rulelang_mod, "rule_problems", counted)
    result = parse_knowledge_base(builtin_pole_source())
    assert result.kb is not None and len(result.kb.rules) == 13
    assert len(calls) == 13


def test_serialize_round_trip_builtin(kb):
    text = serialize_kb(kb)
    assert parse_knowledge_base(text).kb == kb
    assert serialize_kb(parse_knowledge_base(text).kb) == text


def test_serialize_deterministic(kb):
    assert serialize_kb(kb) == serialize_kb(builtin_pole_kb())


@pytest.mark.parametrize(
    "field, text",
    [("var", "1x"), ("label", "a b"), ("rule", "if"), ("var", "IS"),
     ("unit", "deg s"), ("unit", "N(m)"), ("r2", "r1")],
)
def test_serialize_rejects_what_would_not_parse(kb, field, text):
    """A name the parser would not read back, a unit of more than one
    word, or a rule name used twice (the built-in KB with its r2 renamed
    r1) is a KBError naming it, not text that fails to parse."""
    n = {"var": "e", "label": "P", "rule": "a", "unit": "V", field: text}
    mf = MembershipFunction("triangle", (-1.0, 0.0, 1.0))
    bad = KnowledgeBase(
        {
            n["var"]: LinguisticVariable(n["var"], n["unit"], {n["label"]: mf}),
            "u": LinguisticVariable("u", "N", {"Z": mf}),
        },
        "u",
        (Rule(n["rule"], (Precondition(n["var"], n["label"]),), ("u", "Z"), 1),),
        OutputUniverse(-1.0, 1.0, 21),
    )
    if field == "r2":
        rules = tuple(replace(r, name=text) if r.name == field else r for r in kb.rules)
        bad = replace(kb, rules=rules)
    with pytest.raises(KBError, match=re.escape(f"'{text}'")):
        serialize_kb(bad)


def test_a_leading_byte_order_mark_is_dropped(kb):
    source = builtin_pole_source()
    plain = parse_knowledge_base(source)
    for text in ("\ufeff" + source, "\ufeff".encode() + source.encode()):
        result = parse_knowledge_base(text)
        assert result.kb == kb
        assert result.diagnostics == plain.diagnostics


def test_canonical_output_ignores_declaration_order():
    shuffled = MINI_KB.replace(
        'label NE shoulder_down(-1.0, 0.0)\n  label ZE triangle(-1.0, 0.0, 1.0)',
        'label ZE triangle(-1.0, 0.0, 1.0)\n  label NE shoulder_down(-1.0, 0.0)',
    )
    a = parse_knowledge_base(MINI_KB).kb
    b = parse_knowledge_base(shuffled).kb
    assert serialize_kb(a) == serialize_kb(b)


# --- validator ---------------------------------------------------------------


def test_validate_builtin_single_alias_warning(kb):
    # the parser reports the r9 alias, once and located; validate_kb finds
    # nothing else to say about the built-in rule base
    assert validate_kb(kb) == []


def test_validate_flags_grid_gap(kb):
    trimmed = replace(kb, rules=[r for r in kb.rules if r.name not in ("r9",)])
    diags = validate_kb(trimmed)
    gaps = [d for d in diags if d.code == "grid-gap"]
    assert len(gaps) == 1
    assert "NE" in gaps[0].message


def _grid_gaps_oracle(kb):
    """The grid check as a scan, as it was before the covered cells were
    collected once: a cell is covered when some goal-1 rule agrees with it
    on every variable the rule names."""
    goal1 = [
        {p.variable: p.label for p in r.preconditions} for r in kb.rules if r.goal_index == 1
    ]
    used = {}
    for by_var in goal1:
        for var, label in by_var.items():
            used.setdefault(var, {})[label] = None
    gaps = []
    for cell in itertools.product(*used.values()) if goal1 else ():
        if not any(
            all(by_var.get(v, c) == c for v, c in zip(used, cell)) for by_var in goal1
        ):
            pretty = ", ".join(f"{v}={c}" for v, c in zip(used, cell))
            gaps.append(f"no goal-1 rule covers the grid cell ({pretty})")
    return gaps


_GRID_LABELS = ("A", "B", "C", "D")


def _grid_kb(rules):
    """Inputs p, q, r and s with labels A-D, rules given as (goal, {variable: label})."""
    mf = MembershipFunction("triangle", (-1.0, 0.0, 1.0))
    variables = {
        name: LinguisticVariable(name, "u", {label: mf for label in _GRID_LABELS})
        for name in ("p", "q", "r", "s", "out")
    }
    return KnowledgeBase(variables, "out", tuple(
        Rule(f"g{i}", tuple(Precondition(v, label) for v, label in conds.items()),
             ("out", "A"), goal)
        for i, (goal, conds) in enumerate(rules)
    ), OutputUniverse(-1.0, 1.0, 3))


@st.composite
def grid_rule_bases(draw):
    """0-8 rules over up to four inputs, most of them goal-1 rules that
    name some of the inputs and omit the others."""
    rules = []
    for _ in range(draw(st.integers(0, 8))):
        names = draw(st.lists(st.sampled_from("pqrs"), min_size=1, max_size=4, unique=True))
        labels = draw(st.lists(st.sampled_from(_GRID_LABELS[:3]), min_size=len(names),
                               max_size=len(names)))
        rules.append((draw(st.sampled_from([1, 1, 1, 2])), dict(zip(names, labels))))
    return _grid_kb(rules)


@settings(max_examples=200, deadline=None)
@given(grid_rule_bases())
@example(_grid_kb([(1, {"p": "A", "q": "A"}), (1, {"p": "B"}), (1, {"q": "B", "r": "C"}),
                   (2, {"p": "C", "q": "A"}), (1, {"r": "A", "p": "A"})]))
def test_grid_gaps_match_the_scan(kb):
    """The grid-gap warnings of ``validate_kb``, in order, are those of the
    scan of every cell against every goal-1 rule."""
    gaps = [d.message for d in validate_kb(kb) if d.code == "grid-gap"]
    assert gaps == _grid_gaps_oracle(kb)


def test_validate_flags_coverage_hole():
    holed = MINI_KB.replace(
        "label ZE triangle(-1.0, 0.0, 1.0)\n  label PO shoulder_up(0.0, 1.0)",
        "label ZE triangle(-0.4, 0.0, 0.4)\n  label PO shoulder_up(0.5, 1.0)",
    )
    result = parse_knowledge_base(holed)
    assert result.ok
    diags = validate_kb(result.kb)
    assert any(d.code == "coverage-hole" for d in diags)


# Mutual reflections about zero: a triangle pair, the two shoulders and a
# squared label that is its own reflection, with corners at 0.0 and -0.0.
_MIRRORED_LABELS = {
    "NE": MembershipFunction("shoulder_down", (-2.0, -0.0)),
    "NS": MembershipFunction("triangle", (-3.0, -1.5, -0.0)),
    "VZ": MembershipFunction("triangle", (-0.5, -0.0, 0.5), 2),
    "PS": MembershipFunction("triangle", (0.0, 1.5, 3.0)),
    "PO": MembershipFunction("shoulder_up", (0.0, 2.0)),
}


def _warnings(labels):
    """``validate_kb`` of a rule base with no rules whose input has
    ``labels`` and whose output is one symmetric label, as (code, message)."""
    variables = {
        "e": LinguisticVariable("e", "V", labels),
        "u": LinguisticVariable("u", "N", {"Z": MembershipFunction("triangle", (-1.0, 0.0, 1.0))}),
    }
    kb = KnowledgeBase(variables, "u", (), OutputUniverse(-1.0, 1.0, 3))
    return [(d.code, d.message) for d in validate_kb(kb)]


_ASYMMETRIC = [("asymmetric-labels", "variable 'e': labels are not mirror-symmetric about zero")]


def test_mirror_pairs_are_matched_by_corners():
    assert _warnings(_MIRRORED_LABELS) == []  # no rules: no goal-1 grid either
    squared = replace(_MIRRORED_LABELS["PS"], power=2)  # its partner NS is not
    assert _warnings({**_MIRRORED_LABELS, "PS": squared}) == _ASYMMETRIC


@pytest.mark.parametrize("toward", [-np.inf, np.inf])
@pytest.mark.parametrize(
    "name, index",
    [(name, i) for name, mf in _MIRRORED_LABELS.items() for i in range(len(mf.params))],
)
def test_a_corner_one_ulp_off_breaks_the_mirror(name, index, toward):
    mf = _MIRRORED_LABELS[name]
    params = list(mf.params)
    params[index] = float(np.nextafter(params[index], toward))
    moved = {**_MIRRORED_LABELS, name: replace(mf, params=tuple(params))}
    assert _warnings(moved) == _ASYMMETRIC


def test_the_first_of_twin_labels_is_the_mirror_partner():
    """PO2 has PO's corners: NE pairs with PO, the first, so rule c (NE)
    mirrors rule a (PO) and nothing is missing."""
    twins = MINI_KB.replace(
        "label PO shoulder_up(0.0, 1.0)",
        "label PO shoulder_up(0.0, 1.0)\n  label PO2 shoulder_up(0.0, 1.0)",
    )
    assert validate_kb(load_kb(twins)) == []


def test_validate_flags_missing_mirror_rule():
    asym = MINI_KB.replace("rule c: IF e IS NE THEN u IS N\n", "")
    result = parse_knowledge_base(asym)
    diags = validate_kb(result.kb)
    assert any(d.code == "missing-mirror-rule" for d in diags)


# --- randomized round trip ----------------------------------------------------

_finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).map(
    lambda v: round(v, 6)
)


@st.composite
def membership_functions(draw):
    kind = draw(st.sampled_from(["triangle", "shoulder_up", "shoulder_down"]))
    points = sorted(draw(st.lists(_finite, min_size=3, max_size=3, unique=True)))
    assume(points[0] < points[1] < points[2])  # rounding may collapse draws
    power = draw(st.sampled_from([1, 1, 1, 2, 4]))
    if kind == "triangle":
        params = tuple(points)
    else:
        params = (points[0], points[1])
    return MembershipFunction(kind, params, power)


@st.composite
def knowledge_bases(draw):
    names = ["alpha", "beta", "gamma", "delta"]
    n_inputs = draw(st.integers(1, 3))
    variables = {}
    for name in names[:n_inputs] + ["out"]:
        labels = {
            f"L{i}": draw(membership_functions())
            for i in range(draw(st.integers(1, 3)))
        }
        variables[name] = LinguisticVariable(name, "u", labels)
    rules = []
    for i in range(draw(st.integers(1, 4))):
        chosen = draw(
            st.lists(
                st.sampled_from(names[:n_inputs]),
                min_size=1, max_size=n_inputs, unique=True,
            )
        )
        pres = tuple(
            Precondition(v, draw(st.sampled_from(sorted(variables[v].labels))))
            for v in chosen
        )
        conclusion = ("out", draw(st.sampled_from(sorted(variables["out"].labels))))
        rules.append(Rule(f"r{i}", pres, conclusion, draw(st.integers(1, 3))))
    universe = OutputUniverse(-draw(st.floats(0.5, 100.0)), draw(st.floats(0.5, 100.0)),
                              draw(st.integers(3, 401)))
    return KnowledgeBase(variables, "out", tuple(rules), universe)


@settings(max_examples=150, deadline=None)
@given(knowledge_bases())
def test_round_trip_on_random_kbs(kb):
    """parse(serialize(kb)) reproduces every structural detail, including the
    numeric parameters at full precision."""
    text = serialize_kb(kb)
    result = parse_knowledge_base(text)
    assert result.ok, result.diagnostics
    assert result.kb == kb
    assert serialize_kb(result.kb) == text


# --- robustness --------------------------------------------------------------


def test_parser_handles_random_bytes_smoke():
    rng = np.random.default_rng(42)
    for _ in range(2000):
        blob = bytes(rng.integers(0, 256, size=int(rng.integers(0, 80))))
        result = parse_knowledge_base(blob)
        assert result.kb is None or result.ok
        if result.kb is None:
            assert result.errors


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=120))
def test_parser_never_raises(blob):
    result = parse_knowledge_base(blob)
    if result.kb is None:
        assert result.errors
        assert all(d.line >= 1 and d.col >= 1 for d in result.errors)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=160))
def test_parser_never_raises_on_text(text):
    parse_knowledge_base(text)


# Tokens of the built-in rule file, with the whitespace and comments between
# them kept so that mutated text stays on its original lines.  A replacement
# draws from tokens of the same kind, so 25-30% of the mutants get
# past the syntax checks and reach the building of the KB.
_POLE_PIECES = re.findall(r"#[^\n]*|\s+|[(),:=]|[^\s(),:=#]+", builtin_pole_source())


def _token_kind(piece):
    try:
        float(piece)
        return "number"
    except ValueError:
        pass
    if piece.lower() in KEYWORDS or piece in "(),:=":
        return piece.lower()
    return "shape" if piece in ("triangle", "shoulder_up", "shoulder_down") else "name"


_POLE_INDICES = [
    i for i, p in enumerate(_POLE_PIECES) if not p.isspace() and not p.startswith("#")
]
_POLE_TOKENS = {}
for _i in _POLE_INDICES:
    _POLE_TOKENS.setdefault(_token_kind(_POLE_PIECES[_i]), []).append(_i)


@st.composite
def mutated_pole_sources(draw):
    """kb/pole.frl with 1-3 token deletions, duplications or replacements."""
    pieces = list(_POLE_PIECES)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.sampled_from(_POLE_INDICES))
        op = draw(st.sampled_from(["delete", "duplicate", "replace", "replace"]))
        if op == "delete":
            pieces[i] = ""
        elif op == "duplicate":
            pieces[i] = f"{pieces[i]} {pieces[i]}"
        else:
            same_kind = _POLE_TOKENS[_token_kind(_POLE_PIECES[i])]
            pieces[i] = _POLE_PIECES[draw(st.sampled_from(same_kind))]
    return "".join(pieces)


@settings(max_examples=200, deadline=None)
@given(mutated_pole_sources())
def test_mutated_builtin_is_located_or_round_trips(text):
    """Mutations that get past the syntax checks reach the KB construction:
    a rejected file has a located error, an accepted one round-trips."""
    result = parse_knowledge_base(text)
    if result.kb is None:
        assert any(d.line >= 1 and d.col >= 1 for d in result.errors)
    else:
        canonical = serialize_kb(result.kb)
        again = parse_knowledge_base(canonical)
        assert again.kb == result.kb
        assert serialize_kb(again.kb) == canonical
