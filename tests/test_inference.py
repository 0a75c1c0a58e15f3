import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from fuzzpole.fuzzy import (
    KBError,
    KnowledgeBase,
    LinguisticVariable,
    MissingInputError,
    NoRuleFired,
    OutputUniverse,
    aggregate_output,
    defuzzify_coa,
    fc_output,
    rule_activation,
    triangle,
)

# Frozen via an independent brute-force script: theta = 5 deg, theta_dot = 0,
# rules r1..r9 only, COA over 201 points on [-10, 10].
GOLDEN_FORCE_5DEG = 4.848181818181819


def brute_force_aggregate(activations, kb, universe):
    """Independent double-loop max-min oracle over the quantized grid."""
    points = universe.points()
    out = np.zeros(universe.n)
    for j in range(universe.n):
        best = 0.0
        for alpha, label in activations:
            clipped = min(alpha, kb.output.label(label)(points[j]))
            if clipped > best:
                best = clipped
        out[j] = best
    return out


def brute_force_coa(degrees, universe):
    points = universe.points()
    num = den = 0.0
    for j in range(universe.n):
        num += points[j] * degrees[j]
        den += degrees[j]
    return num / den


def rule_by_name(kb, name):
    return next(r for r in kb.rules if r.name == name)


def test_activation_both_apexes(kb):
    r5 = rule_by_name(kb, "r5")
    assert rule_activation(r5, {"theta": 0.0, "theta_dot": 0.0}, kb) == 1.0


def test_activation_paper_anchor(kb):
    r2 = rule_by_name(kb, "r2")
    assert rule_activation(r2, {"theta": 5.0, "theta_dot": 0.0}, kb) == pytest.approx(0.8)


def test_activation_takes_minimum(kb):
    r6 = rule_by_name(kb, "r6")  # theta ZE, theta_dot NE
    alpha = rule_activation(r6, {"theta": 5.0, "theta_dot": -50.0}, kb)
    assert alpha == pytest.approx(0.2)


def test_activation_missing_input_names_variable(kb):
    r5 = rule_by_name(kb, "r5")
    with pytest.raises(MissingInputError) as err:
        rule_activation(r5, {"theta": 0.0}, kb)
    assert "theta_dot" in str(err.value)


def test_activation_monotone_in_one_degree(kb):
    r2 = rule_by_name(kb, "r2")
    alphas = [
        rule_activation(r2, {"theta": th, "theta_dot": 0.0}, kb)
        for th in np.linspace(0.0, 6.25, 30)
    ]
    assert all(b >= a for a, b in zip(alphas, alphas[1:]))


def test_aggregate_empty_is_zero(kb):
    out = aggregate_output([], kb)
    assert np.all(out == 0.0)


def test_aggregate_single_rule_full_strength(kb):
    universe = kb.output_universe
    out = aggregate_output([(1.0, "PM")], kb)
    expected = kb.output.label("PM").sample(universe.points())
    assert np.array_equal(out, expected)


def test_aggregate_matches_brute_force_oracle(kb):
    universe = kb.output_universe
    rng = np.random.default_rng(7)
    labels = list(kb.output.labels)
    for _ in range(50):
        acts = [
            (float(rng.uniform(0, 1)), labels[int(rng.integers(len(labels)))])
            for _ in range(int(rng.integers(1, 6)))
        ]
        mine = aggregate_output(acts, kb)
        oracle = brute_force_aggregate(acts, kb, universe)
        assert np.array_equal(mine, oracle)


def test_coa_hand_example():
    universe = OutputUniverse(0.0, 4.0, 5)
    degrees = np.array([0.2, 0.2, 0.8, 0.8, 0.0])
    assert defuzzify_coa(degrees, universe) == pytest.approx(4.2 / 2.0)


def test_coa_symmetric_curve_is_zero(kb):
    universe = kb.output_universe
    out = aggregate_output([(0.7, "ZE")], kb)
    assert defuzzify_coa(out, universe) == pytest.approx(0.0, abs=1e-12)


def test_coa_scale_invariance(kb):
    universe = kb.output_universe
    out = aggregate_output([(0.9, "PS"), (0.3, "NM")], kb)
    z1 = defuzzify_coa(out, universe)
    z2 = defuzzify_coa(out * 0.5, universe)
    assert z2 == pytest.approx(z1, rel=1e-12)


def test_coa_within_hull_of_support(kb):
    universe = kb.output_universe
    out = aggregate_output([(0.4, "PS"), (0.8, "PM")], kb)
    z = defuzzify_coa(out, universe)
    points = universe.points()
    active = points[out > 0]
    assert active.min() <= z <= active.max()


def test_coa_all_zero_raises(kb):
    with pytest.raises(NoRuleFired):
        defuzzify_coa(np.zeros(kb.output_universe.n), kb.output_universe)


def test_coa_rejects_degrees_off_the_grid(kb):
    with pytest.raises(KBError, match=r"degrees shape \(200,\) does not match universe n=201"):
        defuzzify_coa(np.ones(200), kb.output_universe)


def pole_only_kb(kb):
    return replace(kb, rules=[r for r in kb.rules if r.goal_index == 1])


def test_fc_output_zero_state_is_zero(kb):
    inputs = {"theta": 0.0, "theta_dot": 0.0, "x": 0.0, "x_dot": 0.0}
    assert fc_output(kb, inputs) == pytest.approx(0.0, abs=1e-12)


def test_fc_output_golden_value(kb):
    force = fc_output(pole_only_kb(kb), {"theta": 5.0, "theta_dot": 0.0})
    assert force == pytest.approx(GOLDEN_FORCE_5DEG, rel=1e-12)


def test_fc_output_mirror_state_negates(kb):
    rng = np.random.default_rng(3)
    for _ in range(200):
        inputs = {
            "theta": float(rng.uniform(-8, 8)),
            "theta_dot": float(rng.uniform(-30, 30)),
            "x": float(rng.uniform(-0.7, 0.7)),  # already expressed as error
            "x_dot": float(rng.uniform(-0.4, 0.4)),
        }
        mirrored = {k: -v for k, v in inputs.items()}
        assert fc_output(kb, mirrored) == pytest.approx(
            -fc_output(kb, inputs), abs=1e-9
        )


def test_fc_output_no_rule_fired_carries_inputs(kb):
    gap_kb = replace(kb, rules=[rule_by_name(kb, "r10")])  # needs VS on both
    inputs = {"theta": 6.0, "theta_dot": 0.0, "x": 0.3, "x_dot": 0.1}
    with pytest.raises(NoRuleFired) as err:
        fc_output(gap_kb, inputs)
    assert err.value.inputs == inputs


def test_output_universe_validation():
    with pytest.raises(KBError, match="min < max"):
        OutputUniverse(1.0, 1.0, 201)
    with pytest.raises(KBError, match=r"^universe n must be an integer in \[3, 100001\], got 2$"):
        OutputUniverse(-1.0, 1.0, 2)
    for n in (3.5, 201.0, True):
        with pytest.raises(KBError, match="^universe n must be an integer, got "):
            OutputUniverse(0.0, 1.0, n)
    for lo, hi in ((-math.inf, 1.0), (-1.0, math.inf), (math.nan, 1.0), (-(10**400), 1.0)):
        with pytest.raises(KBError, match="universe (lo|hi) must be finite"):
            OutputUniverse(lo, hi)
    # bounds too wide for the center-of-area sums, whether or not their span
    # is a float (one that is not would put inf and NaN among the points)
    for lo, hi in ((-1e308, 1e308), (-(10**308), 10**308), (-8e307, 8e307)):
        with pytest.raises(KBError, match=r"universe n \* max\(\|min\|, \|max\|\) must be finite"):
            OutputUniverse(lo, hi, 11)
    widest = OutputUniverse(-sys.float_info.max / 11, sys.float_info.max / 11, 11)
    assert np.isfinite(widest.points()).all()
    assert math.isfinite(float(np.abs(widest.points()).sum()))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: OutputUniverse("a", "b"), "universe lo must be a real number, got str"),
        (lambda: OutputUniverse(None, 1.0), "universe lo must be a real number, got NoneType"),
        (lambda: OutputUniverse(False, True, 3), "universe lo must be a real number, got bool"),
        (
            lambda: LinguisticVariable("x", "m", {"A": 1.0}),
            "label 'A' of variable 'x' is not a MembershipFunction, got float",
        ),
    ],
    ids=["string-bounds", "none-bound", "bool-bounds", "label-not-a-shape"],
)
def test_a_universe_or_variable_of_the_wrong_type_is_a_kb_error(build, message):
    """A bound that is not a real number (a bool included, as for a
    membership parameter) and a label that is not a MembershipFunction are
    rejected when built, not as a TypeError or AttributeError later."""
    with pytest.raises(KBError, match=message):
        build()


def test_variable_needs_labels_and_names_an_unknown_label():
    with pytest.raises(KBError, match="variable 'theta' has no labels"):
        LinguisticVariable("theta", "deg", {})
    var = LinguisticVariable("theta", "deg", {"ZE": triangle(-1.0, 0.0, 1.0)})
    assert var.label("ZE") == triangle(-1.0, 0.0, 1.0)
    with pytest.raises(KBError, match="unknown label 'PS' on variable 'theta'"):
        var.label("PS")


def test_rule_and_kb_structure_checks(kb):
    from fuzzpole.fuzzy import KBError, Precondition, Rule

    with pytest.raises(KBError, match="has no preconditions"):
        Rule("empty", (), ("F", "PM"))
    with pytest.raises(KBError, match=r"goal index must be an integer in \[1, inf\], got 0"):
        Rule("r", (Precondition("theta", "ZE"),), ("F", "PM"), goal_index=0)
    # goals serialize_kb could not write (``goal True``) fail here
    for goal in (True, 1.5, "2"):
        with pytest.raises(KBError, match="goal index must be an integer"):
            Rule("r", (Precondition("theta", "ZE"),), ("F", "PM"), goal_index=goal)
    with pytest.raises(KBError, match="output variable 'G' not defined"):
        KnowledgeBase(kb.variables, "G", (), kb.output_universe)
    # lists are stored as tuples: the rule hashes, composes and round-trips
    from fuzzpole.hierarchy import Goal, GoalSpec, Narrowed, compose_hierarchical
    from fuzzpole.rulelang import parse_knowledge_base, serialize_kb

    listed = Rule("r", [Precondition("theta", "ZE")], ["F", "ZE"])
    assert listed.preconditions == (Precondition("theta", "ZE"),)
    assert listed.conclusion == ("F", "ZE") and hash(listed) == hash(replace(listed))
    spec = GoalSpec((Goal("balance_pole", ("theta",)),))
    assert compose_hierarchical(spec, [[listed]], Narrowed(0.5), kb).rules == (listed,)
    one_rule = KnowledgeBase(kb.variables, "F", (listed,), kb.output_universe)
    assert parse_knowledge_base(serialize_kb(one_rule)).kb == one_rule


def test_kb_rejects_bad_references(kb):
    from fuzzpole.fuzzy import Precondition, Rule

    bad = Rule("bogus", (Precondition("theta", "QQ"),), ("F", "PM"))
    with pytest.raises(Exception):
        KnowledgeBase(kb.variables, "F", (bad,), kb.output_universe)
