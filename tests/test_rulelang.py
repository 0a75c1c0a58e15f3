import hashlib

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from fuzzpole.fuzzy import (
    KnowledgeBase,
    LinguisticVariable,
    MembershipFunction,
    OutputUniverse,
    Precondition,
    Rule,
)
from fuzzpole.rulelang import (
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


def test_serialize_round_trip_builtin(kb):
    text = serialize_kb(kb)
    assert parse_knowledge_base(text).kb == kb
    assert serialize_kb(parse_knowledge_base(text).kb) == text


def test_serialize_deterministic(kb):
    assert serialize_kb(kb) == serialize_kb(builtin_pole_kb())


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
    diags = validate_kb(kb)
    assert all(d.severity == "warning" for d in diags)
    assert len(diags) == 1
    assert diags[0].code == "label-alias"
    assert "r9" in diags[0].message


def test_validate_flags_grid_gap(kb):
    trimmed = kb.with_rules([r for r in kb.rules if r.name not in ("r9",)])
    diags = validate_kb(trimmed)
    gaps = [d for d in diags if d.code == "grid-gap"]
    assert len(gaps) == 1
    assert "NE" in gaps[0].message


def test_validate_flags_coverage_hole():
    holed = MINI_KB.replace(
        "label ZE triangle(-1.0, 0.0, 1.0)\n  label PO shoulder_up(0.0, 1.0)",
        "label ZE triangle(-0.4, 0.0, 0.4)\n  label PO shoulder_up(0.5, 1.0)",
    )
    result = parse_knowledge_base(holed)
    assert result.ok
    diags = validate_kb(result.kb)
    assert any(d.code == "coverage-hole" for d in diags)


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
