from dataclasses import replace

import numpy as np
import pytest

from fuzzpole.fuzzy import (
    KnowledgeBase,
    LinguisticVariable,
    OutputUniverse,
    Precondition,
    Rule,
    shoulder_up,
    triangle,
)
from fuzzpole.hierarchy import (
    Achievement,
    Concentration,
    DEFAULT_VERY_FACTOR,
    Goal,
    GoalSpec,
    HierarchyError,
    Narrowed,
    audit_hierarchy,
    cart_pole_goals,
    compose_hierarchical,
    derive_very,
)
ZE = triangle(-6.25, 0.0, 6.25)


def test_narrowed_scales_breakpoints_about_peak():
    very = derive_very(ZE, Narrowed(0.2))
    assert very == triangle(-1.25, 0.0, 1.25)


def test_narrowed_respects_off_center_peak():
    very = derive_very(triangle(0.0, 1.0, 5.0), Narrowed(0.5))
    assert very == triangle(0.5, 1.0, 3.0)


def test_concentration_keeps_apex():
    very = derive_very(ZE, Concentration())
    assert very(0.0) == 1.0
    assert very(3.0) == ZE(3.0) ** 2


def test_narrowed_factor_must_be_fraction():
    with pytest.raises(HierarchyError):
        Narrowed(1.0)
    with pytest.raises(HierarchyError):
        Narrowed(0.0)


@pytest.mark.parametrize("factor", ["0.5", None], ids=["string", "none"])
def test_a_narrowing_factor_that_is_not_a_number_is_a_hierarchy_error(factor):
    with pytest.raises(HierarchyError, match="narrowing factor must be in"):
        Narrowed(factor)


def test_narrowed_rejects_shoulders():
    with pytest.raises(HierarchyError):
        derive_very(shoulder_up(0.0, 6.25), Narrowed(0.5))


def test_derive_very_rejects_a_non_mode():
    with pytest.raises(HierarchyError, match="unknown Very mode 0.5"):
        derive_very(ZE, 0.5)


@pytest.mark.parametrize("mode", [Narrowed(0.3), Concentration()])
def test_narrowing_law(mode):
    """Very labels sit pointwise under the base with strictly smaller
    support at the 1e-6 level set."""
    very = derive_very(ZE, mode)
    grid = np.linspace(-8, 8, 4001)
    assert np.all(very.sample(grid) <= ZE.sample(grid) + 1e-15)
    b_lo, b_hi = ZE.support_at(1e-6)
    v_lo, v_hi = very.support_at(1e-6)
    assert b_lo < v_lo < v_hi < b_hi


def bare_position_rules():
    return (
        Rule("r10", (Precondition("x", "PO"), Precondition("x_dot", "PO")), ("F", "PM")),
        Rule("r11", (Precondition("x", "PO"), Precondition("x_dot", "ZE")), ("F", "PS")),
        Rule("r12", (Precondition("x", "NE"), Precondition("x_dot", "NE")), ("F", "NM")),
        Rule("r13", (Precondition("x", "NE"), Precondition("x_dot", "ZE")), ("F", "NS")),
    )


def base_without_vs(kb):
    variables = {}
    for name, var in kb.variables.items():
        labels = {k: v for k, v in var.labels.items() if k != "VS"}
        variables[name] = LinguisticVariable(var.name, var.unit, labels)
    return KnowledgeBase(variables, kb.output_variable, (), kb.output_universe)


def test_single_goal_passthrough(kb):
    balance = [r for r in kb.rules if r.goal_index == 1]
    spec = GoalSpec((Goal("balance_pole", ("theta", "theta_dot")),))
    out = compose_hierarchical(spec, [balance], Narrowed(0.2), base_without_vs(kb))
    assert out.rules == tuple(balance)
    assert "VS" not in out.variables["theta"].labels


def test_composition_reproduces_builtin_position_rules(kb):
    """Gating the bare cart rules on the balance goal rebuilds rules 10-13."""
    balance = [r for r in kb.rules if r.goal_index == 1]
    out = compose_hierarchical(
        cart_pole_goals(),
        [balance, bare_position_rules()],
        Narrowed(DEFAULT_VERY_FACTOR),
        base_without_vs(kb),
    )
    assert out.variables["theta"].labels["VS"] == kb.variables["theta"].labels["VS"]
    assert out.variables["theta_dot"].labels["VS"] == kb.variables["theta_dot"].labels["VS"]
    composed = {r.name: r for r in out.rules if r.goal_index == 2}
    builtin = {r.name: r for r in kb.rules if r.goal_index == 2}
    assert composed == builtin
    # highest-priority rules pass through verbatim
    assert tuple(r for r in out.rules if r.goal_index == 1) == tuple(balance)
    # and the composed KB is the built-in one, whole
    assert out == kb


def three_goal_setup():
    mfs = {
        "NE": triangle(-2.0, -1.0, 0.0),
        "ZE": triangle(-1.0, 0.0, 1.0),
        "PO": triangle(0.0, 1.0, 2.0),
    }
    variables = {
        name: LinguisticVariable(name, "u", dict(mfs)) for name in ("a", "b", "c")
    }
    variables["out"] = LinguisticVariable("out", "N", dict(mfs))
    base = KnowledgeBase(variables, "out", (), OutputUniverse(-2, 2, 41))
    spec = GoalSpec(
        (
            Goal("first", ("a",), (Achievement("a", "ZE"),)),
            Goal("second", ("b",), (Achievement("b", "ZE"),)),
            Goal("third", ("c",)),
        )
    )
    rules = [
        [Rule("g1", (Precondition("a", "PO"),), ("out", "PO"))],
        [Rule("g2", (Precondition("b", "PO"),), ("out", "PO"))],
        [Rule("g3", (Precondition("c", "PO"),), ("out", "PO"))],
    ]
    return spec, rules, base


def test_chain_gates_on_previous_goal_only():
    spec, rules, base = three_goal_setup()
    out = compose_hierarchical(spec, rules, Narrowed(0.5), base)
    g3 = next(r for r in out.rules if r.name == "g3")
    assert [(p.variable, p.label) for p in g3.preconditions] == [
        ("b", "VZE"),
        ("c", "PO"),
    ]
    g2 = next(r for r in out.rules if r.name == "g2")
    assert [(p.variable, p.label) for p in g2.preconditions] == [
        ("a", "VZE"),
        ("b", "PO"),
    ]
    assert g2.goal_index == 2 and g3.goal_index == 3


def test_the_last_goal_derives_no_label_for_its_achievements():
    """The walk builds a gate from each goal's achievements for the goal
    below; the last goal has none below it, so its achievements derive no
    label, and the goals above still gate as before."""
    spec, rules, base = three_goal_setup()
    last = replace(spec.goals[-1], achieve=(Achievement("c", "ZE", "VC"),))
    achieving = GoalSpec(spec.goals[:-1] + (last,))
    out = compose_hierarchical(achieving, rules, Narrowed(0.5), base)
    assert out.variables["c"] == base.variables["c"]
    assert "VC" not in out.variables["c"].labels
    assert out.variables["b"].labels["VZE"] == triangle(-0.5, 0.0, 0.5)
    assert out == compose_hierarchical(spec, rules, Narrowed(0.5), base)


def test_compose_reuses_an_identical_existing_label(kb):
    """The built-in KB already carries the VS labels the gates derive, so
    composing on it keeps them and rebuilds the KB unchanged."""
    balance = [r for r in kb.rules if r.goal_index == 1]
    out = compose_hierarchical(
        cart_pole_goals(), [balance, bare_position_rules()], Narrowed(DEFAULT_VERY_FACTOR), kb
    )
    assert out == kb


def test_compose_checks_rule_variables():
    spec, rules, base = three_goal_setup()
    rules[0] = [Rule("g1", (Precondition("b", "PO"),), ("out", "PO"))]
    with pytest.raises(HierarchyError):
        compose_hierarchical(spec, rules, Narrowed(0.5), base)


def test_compose_needs_one_rule_set_per_goal():
    spec, rules, base = three_goal_setup()
    with pytest.raises(HierarchyError, match="3 goals but 2 rule sets"):
        compose_hierarchical(spec, rules[:2], Narrowed(0.5), base)


def test_compose_rejects_label_collision():
    spec, rules, base = three_goal_setup()
    labels = dict(base.variables["a"].labels)
    labels["VZE"] = triangle(-0.9, 0.0, 0.9)  # different from the derived shape
    variables = dict(base.variables)
    variables["a"] = LinguisticVariable("a", "u", labels)
    clashing = KnowledgeBase(variables, "out", (), base.output_universe)
    with pytest.raises(HierarchyError):
        compose_hierarchical(spec, rules, Narrowed(0.5), clashing)


def test_compose_rejects_unknown_achievement_variable():
    spec, rules, base = three_goal_setup()
    bad_spec = GoalSpec(
        (
            Goal("first", ("a",), (Achievement("zz", "ZE"),)),
            Goal("second", ("b",)),
        )
    )
    with pytest.raises(HierarchyError):
        compose_hierarchical(bad_spec, rules[:2], Narrowed(0.5), base)


def test_goal_spec_validation():
    with pytest.raises(HierarchyError):
        GoalSpec(())
    with pytest.raises(HierarchyError):
        GoalSpec((Goal("a", ("x",)), Goal("a", ("y",))))
    with pytest.raises(HierarchyError):  # non-final goal without predicate
        GoalSpec((Goal("a", ("x",)), Goal("b", ("y",))))


# --- audit -------------------------------------------------------------------


def test_audit_builtin_clean(kb):
    assert audit_hierarchy(kb, cart_pole_goals()).ok


def test_audit_composed_output_clean():
    spec, rules, base = three_goal_setup()
    out = compose_hierarchical(spec, rules, Narrowed(0.5), base)
    assert audit_hierarchy(out, spec).ok


def test_audit_flags_missing_gate(kb):
    rules = []
    for rule in kb.rules:
        if rule.name == "r10":
            rules.append(
                Rule(
                    rule.name,
                    tuple(p for p in rule.preconditions if p.variable != "theta"),
                    rule.conclusion,
                    rule.goal_index,
                )
            )
        else:
            rules.append(rule)
    report = audit_hierarchy(replace(kb, rules=rules), cart_pole_goals())
    assert not report.ok
    (violation,) = report.violations
    assert violation.rule == "r10" and violation.variable == "theta"
    assert "missing" in violation.reason


def test_audit_flags_not_narrower(kb):
    variables = dict(kb.variables)
    theta = variables["theta"]
    labels = dict(theta.labels)
    labels["VS"] = triangle(-7.0, 0.0, 7.0)  # wider than ZE
    variables["theta"] = LinguisticVariable("theta", theta.unit, labels)
    widened = KnowledgeBase(variables, "F", kb.rules, kb.output_universe)
    report = audit_hierarchy(widened, cart_pole_goals())
    goal_2 = [r.name for r in kb.rules if r.goal_index == 2]
    assert len(goal_2) == 4
    # one violation per offending rule, though the pair is checked once
    assert [v.rule for v in report.violations] == goal_2
    assert {v.variable for v in report.violations} == {"theta"}
    (reason,) = {v.reason for v in report.violations}
    assert reason.startswith("label 'VS' is not narrower than 'ZE': support")


def test_audit_flags_goal_index_above_declared_goals(kb):
    rules = [replace(r, goal_index=3) if r.name == "r10" else r for r in kb.rules]
    report = audit_hierarchy(replace(kb, rules=rules), cart_pole_goals())
    (violation,) = report.violations
    assert violation.rule == "r10" and violation.variable == "-"
    assert violation.reason == "goal index 3 exceeds the 2 declared goals"


def test_audit_flags_gate_above_base_label(kb):
    """A gate whose support lies inside ZE's but which rises above ZE near its
    off-centre peak is not narrower."""
    variables = dict(kb.variables)
    theta = variables["theta"]
    labels = dict(theta.labels)
    labels["VS"] = triangle(-1.0, 2.0, 3.0)
    variables["theta"] = LinguisticVariable("theta", theta.unit, labels)
    skewed = KnowledgeBase(variables, "F", kb.rules, kb.output_universe)
    report = audit_hierarchy(skewed, cart_pole_goals())
    assert {v.variable for v in report.violations} == {"theta"}
    assert all(
        v.reason.endswith("membership exceeds the base label somewhere")
        for v in report.violations
    )
    assert len(report.violations) == 4  # one per position rule


def test_audit_flags_a_base_label_the_variable_lacks(kb):
    """A goal spec that names a base label the variable does not define
    gives one violation per gated rule, not a KBError."""
    spec = GoalSpec(
        (
            Goal("balance_pole", ("theta",), (Achievement("theta", "ZZ", "VS"),)),
            Goal("position_cart", ("x", "x_dot")),
        )
    )
    report = audit_hierarchy(kb, spec)
    assert [v.rule for v in report.violations] == ["r10", "r11", "r12", "r13"]
    assert {(v.variable, v.reason) for v in report.violations} == {
        ("theta", "base label 'ZZ' of the achievement gate is not defined")
    }
