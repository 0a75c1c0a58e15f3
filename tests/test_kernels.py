import collections
import dataclasses
import gc
import hashlib
import itertools
import linecache
import math
import pickle
import random
import re
import sys
import traceback

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzpole import kernels, plant
from fuzzpole.fuzzy import (
    KnowledgeBase,
    LinguisticVariable,
    MembershipFunction,
    NoRuleFired,
    OutputUniverse,
    Precondition,
    Rule,
    fc_output,
    rule_activation,
    shoulder_down,
    shoulder_up,
    triangle,
)
from fuzzpole.harness import default_scenario, run
from fuzzpole.hierarchy import (
    Concentration,
    Narrowed,
    cart_pole_goals,
    compose_hierarchical,
)
from fuzzpole.kernels import compile_kb, control_inputs, fuzzy_force
from fuzzpole.plant import (
    PlantParams, PlantState, pole_params, set_tilt, step, tap,
)
from fuzzpole.rulelang import builtin_pole_kb
from fuzzpole.sfc import design_gains, linearize, sfc_output


def _conclusion_curves(kb):
    """Each group's conclusion curve: its label sampled on the output grid.
    Groups are numbered by the first rule that concludes on their label."""
    points = kb.output_universe.points()
    labels = dict.fromkeys(rule.conclusion[1] for rule in kb.rules)
    return {g: kb.output.label(label).sample(points) for g, label in enumerate(labels)}


def _curve_from_layers(ck, group):
    """A group's curve rebuilt from the coverage layers: its value where it
    takes a layer, 0.0 elsewhere."""
    taken = (ck.layer_group == group) & (ck.layer_curve != 0.0)
    assert np.all(taken.sum(axis=0) <= 1)  # at most one layer per grid point
    layers, columns = np.nonzero(taken)
    curve = np.zeros(ck.points.shape[0])
    curve[columns] = ck.layer_curve[layers, columns]
    return curve


def _strengths(ck, inputs):
    """The group strengths one call of ck's slot entry packs into its
    ``strength`` buffer, the first buffer, filled with NaN before the call,
    as a list of Python floats, so a group it failed to write reads NaN."""
    law = kernels.fuzzy_law(ck)
    strength = law.args[0][len(ck.numbers)]
    strength.fill(np.nan)
    law(inputs)
    return strength.tolist()


def test_compiled_tables_shape(kb, compiled_kb):
    ck = compiled_kb
    (labels, rules, groups), numbers, conclusions = kernels._front_end(kb)
    n_labels = sum(len(v.labels) for v in kb.input_variables)
    assert n_labels == 14
    assert len(labels) == n_labels
    assert len(numbers) == 6 * n_labels  # a, b, b - a, c, d, d - c per label
    assert len(rules) == 13
    # balance rules have 2 preconditions, position rules 4
    assert [len(rows) for rows, _ in rules] == [2] * 9 + [4] * 4
    assert all(0 <= i < n_labels for rows, _ in rules for i in rows)
    # one group per conclusion label
    assert sorted({g for _, g in rules}) == list(range(7))
    assert groups == 7
    assert conclusions == list(dict.fromkeys(r.conclusion[1] for r in kb.rules))
    assert ck.groups == len(_strengths(ck, [0.0] * 4)) == 7
    n = kb.output_universe.n
    assert np.array_equal(ck.points, kb.output_universe.points())
    # at most two of the seven conclusion curves are nonzero at a grid point
    assert ck.layer_group.shape == ck.layer_curve.shape == (2, n)
    curves = _conclusion_curves(kb)
    assert sorted(curves) == list(range(7))
    for g, curve in curves.items():
        assert np.array_equal(_curve_from_layers(ck, g), curve)


def test_compile_requires_known_slots(kb):
    from fuzzpole.fuzzy import (
        KnowledgeBase, LinguisticVariable, OutputUniverse, Precondition, Rule, triangle,
    )

    variables = {
        "pressure": LinguisticVariable("pressure", "Pa", {"L": triangle(0, 1, 2)}),
        "out": LinguisticVariable("out", "N", {"Z": triangle(-1, 0, 1)}),
    }
    alien = KnowledgeBase(
        variables, "out",
        (Rule("r", (Precondition("pressure", "L"),), ("out", "Z")),),
        OutputUniverse(-1, 1, 11),
    )
    with pytest.raises(kernels.KernelError):
        compile_kb(alien)


def _fc_reference(kb, inputs):
    names = ("theta", "theta_dot", "x", "x_dot")
    return fc_output(kb, dict(zip(names, inputs)))


def test_fuzzy_force_matches_reference_pipeline(kb, compiled_kb, backend):
    """The kernels and the object-level fc_output agree bit for bit: the
    membership, clipping and center-of-area arithmetic is identical."""
    rng = np.random.default_rng(9)
    for _ in range(300):
        theta = float(rng.uniform(-0.2, 0.2))
        theta_dot = float(rng.uniform(-0.8, 0.8))
        x = float(rng.uniform(-1.0, 1.0))
        x_dot = float(rng.uniform(-0.5, 0.5))
        x_target = float(rng.uniform(-0.5, 0.5))
        inputs = control_inputs(theta, theta_dot, x, x_dot, x_target)
        force, fired = fuzzy_force(compiled_kb, inputs, backend=backend)
        assert fired
        assert force == _fc_reference(kb, inputs)

    # A NaN degree is skipped in the rule-strength min, as in rule_activation.
    for _ in range(200):
        inputs = rng.uniform([-12, -45, -1, -0.5], [12, 45, 1, 0.5])
        inputs[rng.random(4) < 0.5] = np.nan
        force, fired = fuzzy_force(compiled_kb, inputs, backend=backend)
        try:
            reference = _fc_reference(kb, inputs)
        except NoRuleFired:
            assert (force, fired) == (0.0, False)
        else:
            assert fired and force == reference
    nan_theta = np.array([np.nan, 0.0, 0.1, 0.0])
    assert fuzzy_force(compiled_kb, nan_theta, backend=backend) == (
        _fc_reference(kb, nan_theta), True
    )


_NAMES = ("theta", "theta_dot", "x", "x_dot")  # in kernels.DEFAULT_SLOTS order


def _group_strengths(kb, activations):
    """Per conclusion label, in group order, the ``>`` max from 0.0 of the
    activations of the rules that conclude on it."""
    strengths = {}
    for rule, alpha in zip(kb.rules, activations):
        label = rule.conclusion[1]
        if alpha > strengths.setdefault(label, 0.0):
            strengths[label] = alpha
    return list(strengths.values())


def _agrees_with_reference(kb, ck, inputs, slots=kernels.DEFAULT_SLOTS):
    """ck's group strengths equal the per-group max of fuzzy.rule_activation, and
    fuzzy_force equals fc_output, both by repr, so the sign of a zero and a
    NaN count; fuzzy_force reports (0.0, False) exactly when fc_output finds
    no rule fired."""
    values = {name: inputs[i] for name, i in slots.items()}
    activations = [rule_activation(rule, values, kb) for rule in kb.rules]
    if repr(_strengths(ck, list(inputs))) != repr(_group_strengths(kb, activations)):
        return False
    return repr(fuzzy_force(ck, np.array(inputs, dtype=np.float64))) == _fc_repr(kb, values)


def _fc_repr(kb, values):
    """repr of fc_output's (force, fired); (0.0, False) when no rule fired."""
    try:
        return repr((fc_output(kb, values), True))
    except NoRuleFired:
        return repr((0.0, False))


def test_fc_output_returns_the_kernels_float(kb, compiled_kb):
    """fc_output returns a Python float whose repr is fuzzy_force's, with no
    conversion on either side."""
    rng = np.random.default_rng(17)
    for _ in range(50):
        inputs = rng.uniform([-12, -45, -1, -0.5], [12, 45, 1, 0.5]).tolist()
        force = _fc_reference(kb, inputs)
        assert type(force) is float
        assert repr(force) == repr(fuzzy_force(compiled_kb, np.array(inputs))[0])


def _composed_kb(mode, n, only_label=None):
    """The built-in rule base rebuilt by composition: goal-2 rules lose their
    VS gate, which compose_hierarchical puts back as a derived Very label.
    ``only_label`` makes every rule conclude on that output label."""
    builtin = builtin_pole_kb()
    variables = {
        name: LinguisticVariable(
            var.name, var.unit, {k: v for k, v in var.labels.items() if k != "VS"}
        )
        for name, var in builtin.variables.items()
    }
    universe = OutputUniverse(builtin.output_universe.lo, builtin.output_universe.hi, n)
    base = KnowledgeBase(variables, builtin.output_variable, (), universe)
    tier1 = [r for r in builtin.rules if r.goal_index == 1]
    tier2 = [
        dataclasses.replace(
            r, preconditions=tuple(p for p in r.preconditions if p.label != "VS")
        )
        for r in builtin.rules
        if r.goal_index == 2
    ]
    kb = compose_hierarchical(cart_pole_goals(), [tier1, tier2], mode, base)
    if only_label is not None:
        kb = dataclasses.replace(kb, rules=[
            dataclasses.replace(r, conclusion=(kb.output_variable, only_label))
            for r in kb.rules
        ])
    return kb


_COMPOSED = {
    (name, n): _composed_kb(mode, n)
    for name, mode in (
        ("sq", Concentration()), ("n0.12", Narrowed(0.12)), ("n0.5", Narrowed(0.5)),
    )
    for n in (3, 51, 201, 401)
}
# At n = 3 the grid is (-10, 0, 10), where PS is zero: whatever fires, the
# aggregated output is zero everywhere.
_COMPOSED[("PS only", 3)] = _composed_kb(Concentration(), 3, only_label="PS")
# No rules: no curves to stack, and no rule ever fires.
_COMPOSED[("no rules", 201)] = dataclasses.replace(builtin_pole_kb(), rules=())


def _three_deep_kb():
    """The built-in rules over output labels 4 N apart and 12 N wide, on a
    1 N grid: up to three curves cover a grid point, and every label's
    corners are grid points, where its curve is exactly zero."""
    builtin = builtin_pole_kb()
    names = ("NL", "NM", "NS", "ZE", "PS", "PM", "PL")
    peaks = range(-12, 13, 4)
    labels = {name: triangle(p - 6.0, p, p + 6.0) for name, p in zip(names, peaks)}
    variables = {**builtin.variables, "F": LinguisticVariable("F", "N", labels)}
    return KnowledgeBase(variables, "F", builtin.rules, OutputUniverse(-12.0, 12.0, 25))


_COMPOSED[("3 deep", 25)] = _three_deep_kb()


def _trie_kb():
    """Rules that take every path of the strengths trie: r1's conditions are
    a prefix of r2's and r2's of r3's, r4 and r5 have the same conditions
    and different conclusions, r6 and r8 read Very labels (theta VS squared,
    theta_dot VS to the fourth), and r7 writes its conditions in the other
    variable order.  A theta of 6.25 zeroes the ZE prefix of r1-r3 and r8,
    so a NaN theta_dot below it is pruned."""
    builtin = builtin_pole_kb()
    variables = dict(builtin.variables)
    for name, power in (("theta", 2), ("theta_dot", 4)):
        var = variables[name]
        vs = var.labels["VS"]
        very = MembershipFunction(vs.kind, vs.params, power)
        variables[name] = LinguisticVariable(var.name, var.unit, {**var.labels, "VV": very})
    conditions = {
        "r1": ("theta ZE", "ZE"),
        "r2": ("theta ZE, theta_dot PO", "PS"),
        "r3": ("theta ZE, theta_dot PO, x NE", "NS"),
        "r4": ("theta PO, theta_dot NE", "ZE"),
        "r5": ("theta PO, theta_dot NE", "PM"),
        "r6": ("theta VV, theta_dot VV, x_dot ZE", "PS"),
        "r7": ("theta_dot ZE, theta NE", "NM"),
        "r8": ("theta ZE, theta_dot VV", "NL"),
    }
    rules = tuple(
        Rule(
            name,
            tuple(Precondition(*c.split()) for c in written.split(", ")),
            ("F", conclusion),
        )
        for name, (written, conclusion) in conditions.items()
    )
    return KnowledgeBase(variables, "F", rules, builtin.output_universe)


_COMPOSED[("trie", 201)] = _trie_kb()
_COMPILED = {key: compile_kb(kb) for key, kb in _COMPOSED.items()}
_SCALES = (12.0, 45.0, 1.0, 0.5)
_SPECIALS = (math.nan, math.inf, -math.inf, 0.0, -0.0)


def _breakpoints(kb, name):
    return sorted({p for mf in kb.variables[name].labels.values() for p in mf.params})


@st.composite
def _kb_and_inputs(draw):
    key = draw(st.sampled_from(sorted(_COMPOSED)))
    kb = _COMPOSED[key]
    inputs = []
    for name, scale in zip(_NAMES, _SCALES):
        inputs.append(draw(st.one_of(
            st.floats(-scale, scale, allow_nan=False),
            st.sampled_from(_breakpoints(kb, name)),
            st.floats(-scale / 100, scale / 100),
            st.sampled_from(_SPECIALS),
        )))
    return key, inputs


@settings(max_examples=300, deadline=None)
@given(_kb_and_inputs())
def test_folded_kernel_matches_reference_on_composed_kbs(case):
    key, inputs = case
    assert _agrees_with_reference(_COMPOSED[key], _COMPILED[key], inputs)


@pytest.mark.parametrize("key", sorted(_COMPOSED), ids=lambda key: f"{key[0]}-{key[1]}")
def test_kernel_matches_reference_on_edge_grid(key):
    """Every combination of NaN, +-inf, +-0 and the label breakpoints on the
    four slots.  fc_output reads its inputs only through the rule
    activations, so it runs once per distinct activation vector."""
    kb, ck = _COMPOSED[key], _COMPILED[key]
    values = [
        _SPECIALS + tuple(p for p in _breakpoints(kb, name) if p != 0.0) for name in _NAMES
    ]
    forces = {}
    for row in itertools.product(*values):
        named = dict(zip(_NAMES, row))
        activations = [rule_activation(rule, named, kb) for rule in kb.rules]
        assert repr(_strengths(ck, row)) == repr(_group_strengths(kb, activations)), row
        activated = repr(activations)
        if activated not in forces:
            forces[activated] = _fc_repr(kb, named)
        assert repr(fuzzy_force(ck, np.array(row))) == forces[activated], row


# Coverage depth of each probe rule base: its number of layers.  The law
# pads depths 0 and 1 with +0.0 rows and folds each layer past the second.
_DEPTHS = {
    ("no rules", 201): 0,
    ("PS only", 3): 0,
    **{(name, 3): 1 for name in ("sq", "n0.12", "n0.5")},
    **{(name, n): 2 for name in ("sq", "n0.12", "n0.5") for n in (51, 201, 401)},
    ("3 deep", 25): 3,
    ("trie", 201): 2,
}


def test_probe_kbs_take_every_path_of_the_law():
    """The probes cover depths 0 to 3, so the law's zero pad rows (depths 0
    and 1) and its fold past the second layer (depth 3) are run; a
    compile_kb change that moved a probe to another depth shows here."""
    assert sorted(_DEPTHS) == sorted(_COMPOSED)
    assert set(_DEPTHS.values()) == {0, 1, 2, 3}
    for key, depth in _DEPTHS.items():
        n = _COMPOSED[key].output_universe.n
        assert _COMPILED[key].layer_curve.shape == (depth, n), key


def _near_breakpoint_rows(kb, rng, count):
    """``count`` rows, each slot drawn from NaN, +-inf, +-0.0, its labels'
    breakpoints and the floats one ulp either side of each breakpoint."""
    values = [
        _SPECIALS + tuple(
            v
            for p in _breakpoints(kb, name)
            for v in (math.nextafter(p, -math.inf), p, math.nextafter(p, math.inf))
        )
        for name in _NAMES
    ]
    return [[rng.choice(slot) for slot in values] for _ in range(count)]


@pytest.mark.parametrize("key", sorted(_COMPOSED), ids=lambda key: f"{key[0]}-{key[1]}")
def test_one_law_matches_reference_one_ulp_around_breakpoints(key):
    """One law, built once and called row after row as in a run, so its
    buffers carry over, gives fc_output's (force, fired) by repr on every
    row, at every depth.  The force is a Python float, never a numpy
    scalar, which would spread into the simulation loop's state and slow
    every step."""
    kb = _COMPOSED[key]
    law = kernels.fuzzy_law(_COMPILED[key])
    rng = random.Random(f"ulp {key}")
    for row in _near_breakpoint_rows(kb, rng, 200):
        force, fired = law(row)
        assert type(force) is float and type(fired) is bool
        assert repr((force, fired)) == _fc_repr(kb, dict(zip(_NAMES, row))), row


def _state_rows(kb, rng, count, x_target):
    """``count`` states (theta, theta_dot, x, x_dot), each value drawn from
    NaN, +-inf, +-0.0 and the state values that put a slot on one of its
    labels' corners (an angle divided by RAD2DEG, x shifted by
    ``x_target``), with the floats one ulp either side of those."""
    state_of = {
        "theta": lambda p: p / kernels.RAD2DEG,
        "theta_dot": lambda p: p / kernels.RAD2DEG,
        "x": lambda p: p + x_target,
        "x_dot": lambda p: p,
    }
    values = []
    for name in _NAMES:
        corners = [state_of[name](p) for p in _breakpoints(kb, name)]
        values.append(_SPECIALS + tuple(
            v for c in corners
            for v in (math.nextafter(c, -math.inf), c, math.nextafter(c, math.inf))
        ))
    return [tuple(rng.choice(slot) for slot in values) for _ in range(count)]


@pytest.mark.parametrize(
    "key", [("builtin", 201), *sorted(_DEPTHS)], ids=lambda key: f"{key[0]}-{key[1]}"
)
def test_state_and_slot_entries_agree_with_fc_output(key):
    """The slot entry on control_inputs of the plant state gives
    fc_output's (force, fired) by repr, on kb/pole.frl and the probes of
    every depth; the oracle's inputs are written out here (angles through
    math.degrees), so a slip in the view shows.  The state entry is the
    law a run inlines; test_run_records_the_slot_entrys_forces pins it to
    this one."""
    kb = _LAYER_CASES[key]
    force = kernels.fuzzy_law(compile_kb(kb))
    rng = random.Random(f"entries {key}")
    for x_target in (0.0, 0.5, -1e-300):
        for state in _state_rows(kb, rng, 60, x_target):
            theta, theta_dot, x, x_dot = state
            values = {
                "theta": math.degrees(theta), "theta_dot": math.degrees(theta_dot),
                "x": x - x_target, "x_dot": x_dot,
            }
            inputs = control_inputs(*state, x_target)
            assert repr(force(inputs)) == _fc_repr(kb, values), (state, x_target)


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
@pytest.mark.parametrize("x_target", [0.0, 0.5, -1e-300])
def test_run_records_the_slot_entrys_forces(kb, x_target, integrator):
    """The law a run inlines is the slot entry: each force an FC run
    records is force(control_inputs(row)) at the last control instant, the
    row's state after its events (a tap between instants here), clamped
    (to 5 N, below the law's peak), bit for bit."""
    scenario = dataclasses.replace(
        default_scenario(
            1, "fc", duration=1.0, dt=0.005, control_period=0.01, x_target=x_target,
            initial=PlantState(theta=0.2), events=(tap(0.305, 0.4),),
        ),
        integrator=integrator, params=pole_params(1, f_max=5.0),
    )
    traj = run(scenario)
    assert traj.termination == "completed"
    force = kernels.fuzzy_law(compile_kb(kb))
    f_max = scenario.params.f_max
    expected = []
    for k, row in enumerate(traj.data[:-1].tolist()):
        if k % scenario.control_every == 0:
            f, _ = force(control_inputs(*row[1:5], x_target))
            f = f_max if f > f_max else -f_max if f < -f_max else f
        expected.append(f)
    assert f_max in expected or -f_max in expected  # the clamp took part
    assert np.array_equal(_bits(traj.force), _bits(expected + expected[-1:]))


def test_a_control_instant_is_one_generated_frame(kb):
    """A 200-step FC run computes each control instant's force in the
    loop's own frame: it enters neither the slot entry nor control_inputs,
    so the one generated frame a control instant runs in is the loop's."""
    scenario = default_scenario(1, "fc", duration=1.0)
    assert scenario.n_steps == 200
    ck = compile_kb(kb)
    force_code = kernels.fuzzy_law(ck).func.__code__  # shared by every law of this structure
    entered = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            entered[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        traj = run(scenario)
    finally:
        sys.setprofile(None)
    assert traj.termination == "completed"
    assert entered[force_code] == 0
    assert entered[kernels.control_inputs.__code__] == 0
    loops = [code for code in entered if code.co_name == "simulate"
             and code.co_filename.startswith("<fuzzpole.")]
    assert [entered[code] for code in loops] == [1]


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
@pytest.mark.parametrize("controller", ["fc", "sfc"])
def test_a_run_is_one_generated_frame(controller, integrator):
    """A 200-step run makes as many Python calls as a 100-step one, none
    per step: it enters one generated frame, the loop, and neither
    plant.advance nor the fuzzy law's slot entry (an FC run's compile binds
    no code).  A second run of the same law and integrator hits the loop
    cache: it generates no code."""

    def calls(duration):
        scenario = dataclasses.replace(
            default_scenario(1, controller, duration=duration), integrator=integrator
        )
        entered = collections.Counter()

        def profile(frame, event, arg):
            if event == "call":
                entered[frame.f_code] += 1

        cached = kernels._loop.cache_info()
        sys.setprofile(profile)
        try:
            traj = run(scenario)
        finally:
            sys.setprofile(None)
        assert traj.termination == "completed" and len(traj.t) == scenario.n_steps + 1
        after = kernels._loop.cache_info()
        assert (after.hits, after.misses) == (cached.hits + 1, cached.misses)
        return entered

    run(dataclasses.replace(default_scenario(1, controller, duration=0.1), integrator=integrator))
    short, long = calls(0.5), calls(1.0)
    assert short == long
    generated = {code.co_name: n for code, n in long.items() if code.co_filename.startswith("<fuzzpole.")}
    assert generated == {"simulate": 1}
    assert plant.advance.__code__ not in long


def test_concentrated_labels_compile_to_powers():
    """The Concentration KBs of the grids above carry squared labels."""
    (labels, _, _), _, _ = kernels._front_end(_COMPOSED[("sq", 201)])
    assert {power for power, _ in labels} == {1, 2}


def _one_label_kb():
    variables = {
        "theta": LinguisticVariable("theta", "deg", {"A": shoulder_up(0.0, 1.0)}),
        "F": LinguisticVariable("F", "N", {"Z": triangle(-1.0, 0.0, 1.0)}),
    }
    rule = Rule("r", (Precondition("theta", "A"),), ("F", "Z"))
    return KnowledgeBase(variables, "F", (rule,), OutputUniverse(-1.0, 1.0, 11))


_LAYER_CASES = {
    ("builtin", 201): builtin_pole_kb(),
    **_COMPOSED,
    ("one label", 11): _one_label_kb(),
}


@pytest.mark.parametrize("key", sorted(_LAYER_CASES), ids=lambda key: f"{key[0]}-{key[1]}")
def test_layer_tables_rebuild_the_conclusion_curves(key):
    """Every group's curve comes back exactly from the coverage layers, and
    there are as many layers as curves cover the most covered grid point."""
    kb = _LAYER_CASES[key]
    ck = compile_kb(kb)
    curves = _conclusion_curves(kb)
    n = kb.output_universe.n
    assert ck.groups == len(_strengths(ck, [0.0] * 4)) == len(curves)
    coverage = np.zeros(n, dtype=np.int64)
    for g, curve in curves.items():
        assert np.array_equal(_curve_from_layers(ck, g), curve)
        coverage += curve != 0.0
    assert ck.layer_group.shape == ck.layer_curve.shape == (coverage.max(initial=0), n)
    assert np.array_equal((ck.layer_curve != 0.0).sum(axis=0), coverage)


def test_one_slot_kb_reads_a_one_element_input():
    kb = _one_label_kb()
    ck = compile_kb(kb)
    for theta in (*_SPECIALS, -1.0, 0.5, 1.0, 2.0):
        assert len(_strengths(ck, [theta])) == 1
        assert _agrees_with_reference(kb, ck, [theta], {"theta": 0})


def test_rule_bases_that_differ_only_in_numbers_share_one_generated_law(kb):
    """Widths (Narrowed 0.12 against 0.5) and the grid size n change no
    code: the second law of each pair reuses the cached law and its slot
    entry."""
    builtin_51 = KnowledgeBase(
        kb.variables, kb.output_variable, kb.rules,
        OutputUniverse(kb.output_universe.lo, kb.output_universe.hi, 51),
    )
    pairs = (
        (_composed_kb(Narrowed(0.12), 51), _composed_kb(Narrowed(0.5), 401)),
        (kb, builtin_51),
    )
    for first, second in pairs:
        assert kernels._front_end(first)[0] == kernels._front_end(second)[0]
        law_first = kernels.fuzzy_law(compile_kb(first))
        cached = kernels._law.cache_info()
        law_second = kernels.fuzzy_law(compile_kb(second))
        after = kernels._law.cache_info()
        assert (after.hits, after.misses) == (cached.hits + 1, cached.misses)
        assert law_second.func is law_first.func
    narrow, wide = (compile_kb(k) for k in pairs[0])
    inputs = [1.0, 5.0, 0.1, 0.05]
    assert _strengths(narrow, inputs) != _strengths(wide, inputs)


def test_a_fuzzy_law_generates_no_loop(kb):
    """The slot entry is generated apart from any loop: after the loop
    cache is emptied, a law of a rule base leaves it empty."""
    kernels._loop.cache_clear()
    kernels.fuzzy_law(compile_kb(kb))([0.5, 1.0, 0.1, 0.0])
    assert kernels._loop.cache_info().currsize == 0


def test_euler_and_rk4_runs_of_a_new_shape_generate_its_law_once():
    """The two loops of one shape share one generated law: their runs miss
    the law cache once between them."""
    kernels._loop.cache_clear()
    kernels._law.cache_clear()
    for integrator in ("euler", "rk4"):
        scenario = dataclasses.replace(
            default_scenario(1, "fc", duration=0.1), integrator=integrator)
        assert run(scenario).termination == "completed"
    info = kernels._law.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    assert kernels._loop.cache_info().misses == 2


def test_the_slot_entry_runs_the_loops_law_slot(compiled_kb):
    """Past its prologue, which unpacks the law and reads the slots from
    ``inputs``, the slot entry's source is the loop's law slot past its
    state prologue, and the loop inlines the slot as it is."""
    setup, slot, _, force = kernels._law(compiled_kb.shape)
    slots = range(compiled_kb.reads)
    assert slot[:len(slots)] == [f"x{i} = {kernels._VIEW[i]}" for i in slots]
    lines = linecache.getlines(force.__code__.co_filename)
    assert lines[0] == "def force(law, inputs):\n"
    entry = [line[4:].rstrip("\n") for line in lines[1:]]
    prologue = setup + [f"x{i} = inputs[{i}]" for i in slots]
    assert entry[:len(prologue)] == prologue
    assert entry[len(prologue):] == slot[len(slots):] + ["return f, fired"]
    loop = kernels._loop(compiled_kb.shape, False)
    source = "".join(linecache.getlines(loop.__code__.co_filename))
    assert "".join(f"{' ' * 12}{line}\n" for line in slot) in source


def test_the_generated_sources_keep_their_text(compiled_kb):
    """The SHA-256 of the seven sources generated for the built-in rule
    base, the SFC law and a law call, as ``linecache`` holds them: the
    pieces they are assembled from (``fuzzy._DEGREE``, ``sfc._LAW``, the
    plant's step and clamp sources) may move between modules, but the text
    a run executes may not change unnoticed."""
    def digest(function):
        lines = linecache.getlines(function.__code__.co_filename)
        return hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()

    shape = compiled_kb.shape
    assert {name: digest(function) for name, function in [
        ("fc euler", kernels._loop(shape, False)),
        ("fc rk4", kernels._loop(shape, True)),
        ("slot entry", kernels._law(shape)[3]),
        ("sfc euler", kernels._loop("sfc", False)),
        ("sfc rk4", kernels._loop("sfc", True)),
        ("call euler", kernels._loop("call", False)),
        ("call rk4", kernels._loop("call", True)),
    ]} == {
        "fc euler": "118229a982d767dc9b204cc129c41a5a043e6230195ccb1f3ab281f644221ebe",
        "fc rk4": "d5afef13a9ad41dfb6ef939864d011cbd01dc5946545cba5c60c9a48fbaa8e07",
        "slot entry": "91ca7278490707125c066285957d2fcf9c646cafd8604707965e44ead887604b",
        "sfc euler": "65b6783faf05bda2f2fd4d85557cf72cdc7c2014064eb858d03456f200079c3d",
        "sfc rk4": "f021c573d861d04e4ad2288504f0058ad8628943f5326d6212b660b4d5b04cec",
        "call euler": "fee0ad257afe5b45a16361397f874b2f7b2d2a94b34cadb39d226416d9b7a63f",
        "call rk4": "76a0b8ea6d65b1e9db57827bbad340d314f379b867b334e38721624b43503c82",
    }


def test_a_traceback_shows_the_generated_line():
    """A law that returns a bare float fails in the loop's law slot, and
    the traceback shows that line of the generated source."""
    p = pole_params(1)
    with pytest.raises(TypeError) as caught:
        kernels._simulate(
            (0.0, 0.0, 0.0, 0.0, 0.0), 0.0, (p.g, p.m_c, p.m, p.l, p.mu_c, p.mu_p, p.f_max),
            0.005, 10, 1, False, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
            np.zeros(0), 2.4, 0.8, lambda *state: 0.0,
        )
    last = traceback.extract_tb(caught.value.__traceback__)[-1]
    assert last.filename.startswith("<fuzzpole.kernels simulate ")
    assert last.line == "f, fired = law(theta, theta_dot, x, x_dot, x_target)"


def test_a_generated_source_leaves_linecache_with_its_function():
    """Each compile gets a file name of its own, held while its function
    lives, so a process that generates many laws keeps no dead source."""
    first = kernels._generated(["def g():", "    return 1"], "g", {})
    second = kernels._generated(["def g():", "    return 2"], "g", {})
    names = [f.__code__.co_filename for f in (first, second)]
    assert names[0] != names[1] and all(name.startswith("<fuzzpole.") for name in names)
    assert linecache.getline(names[1], 2) == "    return 2"
    del first, second
    gc.collect()
    assert not any(name in linecache.cache for name in names)


def test_a_traceback_through_the_plant_shows_its_source():
    """plant.advance is generated too; its source is in linecache."""
    code = plant.advance.__code__
    assert code.co_filename == "<fuzzpole.plant>"
    assert linecache.getline(code.co_filename, code.co_firstlineno).startswith("def advance(")


def test_rule_rows_are_part_of_the_structure(kb):
    """r4 rewritten to read theta_dot NE: the labels are shaped alike, the
    rules are not, and so are the strengths."""
    r4 = kb.rules[3]
    assert r4.name == "r4"
    rewired = dataclasses.replace(kb, rules=[
        dataclasses.replace(
            r, preconditions=(r.preconditions[0], Precondition("theta_dot", "NE"))
        ) if r is r4 else r
        for r in kb.rules
    ])
    (labels, rules, _), _, _ = kernels._front_end(kb)
    (labels_rewired, rules_rewired, _), _, _ = kernels._front_end(rewired)
    assert labels == labels_rewired and rules != rules_rewired
    inputs = [0.0, 30.0, 0.0, 0.0]  # only r4 fires in the built-in KB
    ck, ck_rewired = compile_kb(kb), compile_kb(rewired)
    assert _strengths(ck, inputs) != _strengths(ck_rewired, inputs)
    for base, compiled in ((kb, ck), (rewired, ck_rewired)):
        assert _agrees_with_reference(base, compiled, inputs)


def _trie_edges(ck):
    """The number of prefix mins in ck's slot entry: one local s<n> per
    trie edge."""
    names = kernels.fuzzy_law(ck).func.__code__.co_varnames
    return sum(1 for name in names if re.fullmatch(r"s\d+", name))


def test_trie_takes_one_min_per_shared_prefix(kb, compiled_kb):
    """kb/pole.frl's 34 precondition references take 20 prefix mins: r1-r9
    share their theta condition in threes, r10-r13 their VS gate and then
    x.  The trie comes from the structure alone, so rule bases that differ
    only in their numbers still share one generated law
    (test_rule_bases_that_differ_only_in_numbers_share_one_generated_law)."""
    (_, rules, _), _, _ = kernels._front_end(kb)
    assert sum(len(rows) for rows, _ in rules) == 34
    assert _trie_edges(compiled_kb) == 20
    (_, rules, _), _, _ = kernels._front_end(_COMPOSED[("trie", 201)])
    assert sum(len(rows) for rows, _ in rules) == 17
    assert _trie_edges(_COMPILED[("trie", 201)]) == 11


def _reordered(kb, rng):
    """``kb`` with its rules shuffled and each rule's conditions too."""
    rules = []
    for r in kb.rules:
        conditions = list(r.preconditions)
        rng.shuffle(conditions)
        rules.append(dataclasses.replace(r, preconditions=tuple(conditions)))
    rng.shuffle(rules)
    return dataclasses.replace(kb, rules=rules)


@pytest.mark.parametrize("key", [("builtin", 201), ("trie", 201)], ids=lambda key: key[0])
def test_reordered_rule_base_gives_the_same_bits(key):
    """The trie follows the order in which rules and their conditions are
    written, and the min and max are order-free on these values: another
    order gives each conclusion label the same strength and the law the
    same force, bit for bit."""
    kb = _LAYER_CASES[key]
    ck = compile_kb(kb)
    law = kernels.fuzzy_law(ck)
    rng = random.Random(f"reorder {key}")
    rows = _near_breakpoint_rows(kb, rng, 200)
    conclusions = kernels._front_end(kb)[2]
    expected = [(sorted(zip(conclusions, _strengths(ck, row))), law(row)) for row in rows]
    for _ in range(4):
        other = _reordered(kb, rng)
        assert kernels._front_end(other)[0] != kernels._front_end(kb)[0]
        ck_other = compile_kb(other)
        law_other = kernels.fuzzy_law(ck_other)
        other_conclusions = kernels._front_end(other)[2]
        for row, (strengths, force) in zip(rows, expected):
            ours = sorted(zip(other_conclusions, _strengths(ck_other, row)))
            assert repr(ours) == repr(strengths), row
            assert repr(law_other(row)) == repr(force), row


_GENERATED_NAME = re.compile(r"law|inputs|strength|pack|[xugsabcwdz]\d+|layer\d+")
# the names of the numpy tail, the same for every rule base
_TAIL_NAMES = {"layer_group", "layer_curve", "covered", "points", "weighted", "aggregate",
               "terms", "sums", "minimum", "maximum", "multiply", "accumulate", "item",
               "coa", "den", "real", "imag", "f", "fired"}


@pytest.mark.parametrize("key", sorted(_COMPOSED), ids=lambda key: f"{key[0]}-{key[1]}")
def test_generated_source_holds_no_kb_number_or_name(key):
    """The only floats in the slot entry's code are its 0.0 and 1.0, and it
    holds no string; every name in it is an index-numbered local, corner,
    trie edge or layer, the law tuple, the inputs, the strength buffer, the
    bound pack or a name of the numpy tail."""
    code = kernels.fuzzy_law(_COMPILED[key]).func.__code__
    assert {c for c in code.co_consts if isinstance(c, float)} <= {0.0, 1.0}
    assert not [c for c in code.co_consts if isinstance(c, str)]
    names = code.co_varnames + code.co_freevars + code.co_names
    assert all(_GENERATED_NAME.fullmatch(name) or name in _TAIL_NAMES for name in names), names


def test_three_deep_kb_takes_three_layers():
    """Three curves cover each peak.  At 2 N the NS and PM curves have a
    corner, so they are exactly zero there and take no layer."""
    ck = _COMPILED[("3 deep", 25)]
    assert ck.layer_group.shape == (3, 25)
    j = 14  # grid point 2.0
    assert ck.points[j] == 2.0
    assert np.count_nonzero(ck.layer_curve[:, j]) == 2


def test_folded_kernel_no_nonzero_grid_point():
    key = ("PS only", 3)
    ck = _COMPILED[key]
    inputs = [0.0, 30.0, 0.0, 0.0]  # only r4 fires: theta ZE, theta_dot PO -> PS
    assert fuzzy_force(ck, np.array(inputs)) == (0.0, False)
    assert _agrees_with_reference(_COMPOSED[key], ck, inputs)


def test_folded_kernel_keeps_the_sign_of_a_zero_sum():
    """The conclusion's only nonzero grid point is its leftmost, and its
    product with a tiny strength underflows to -0.0.  fc_output starts its
    sums at +0.0, so its force is +0.0 even when every term is -0.0, as on
    the all-negative grid."""
    for universe in (OutputUniverse(-1e-300, 1e-300, 3), OutputUniverse(-3e-300, -1e-300, 3)):
        lo = universe.lo
        variables = {
            "theta": LinguisticVariable("theta", "deg", {"A": shoulder_up(0.0, 1.0)}),
            "F": LinguisticVariable("F", "N", {"N": shoulder_down(lo, 0.9 * lo)}),
        }
        rule = Rule("r", (Precondition("theta", "A"),), ("F", "N"))
        kb = KnowledgeBase(variables, "F", (rule,), universe)
        slots = {"theta": 0}  # theta's slot in kernels.DEFAULT_SLOTS
        ck = compile_kb(kb)
        for theta in (1e-30, 0.5, 1.0):
            assert _agrees_with_reference(kb, ck, [theta], slots)
        assert math.copysign(1.0, fuzzy_force(ck, np.array([1e-30]))[0]) == 1.0


def test_fuzzy_force_reports_no_rule(kb, backend):
    gated = dataclasses.replace(kb, rules=[r for r in kb.rules if r.goal_index == 2])
    ck = compile_kb(gated)
    force, fired = fuzzy_force(
        ck, control_inputs(math.radians(10), 0.0, 0.0, 0.0, 0.0), backend=backend
    )
    assert not fired and force == 0.0


@pytest.mark.parametrize(
    "inputs", [[0.1, 0.2, 0.3], [[0.1] * 4] * 2, 0.1, []], ids=["short", "2-D", "0-D", "empty"]
)
def test_fuzzy_force_rejects_inputs_it_cannot_read(compiled_kb, inputs):
    """kb/pole.frl reads all four slots: a shorter input, or one that is not
    one-dimensional, is a KernelError naming DEFAULT_SLOTS."""
    with pytest.raises(kernels.KernelError, match="DEFAULT_SLOTS"):
        fuzzy_force(compiled_kb, inputs)


def test_unknown_backend_rejected(compiled_kb):
    with pytest.raises(kernels.KernelError, match="numba"):
        fuzzy_force(compiled_kb, np.zeros(4), backend="numba")
    with pytest.raises(kernels.KernelError, match="numba"):
        run(default_scenario(1, "sfc", duration=0.1), backend="numba")


def test_simulation_matches_manual_loop(kb, compiled_kb):
    """Short closed-loop run cross-checked against a transparent per-step loop
    built from the library pieces (plant.step + fc_output)."""
    scenario = default_scenario(1, "fc", duration=0.5)
    traj = run(scenario, backend="numpy")

    s = PlantState()
    f = 0.0
    states = [s]
    forces = []  # forces[k] applies over [t_k, t_{k+1})
    for k in range(scenario.n_steps):
        if k % scenario.control_every == 0:
            f = fc_output(
                kb,
                {
                    "theta": math.degrees(s.theta),
                    "theta_dot": math.degrees(s.theta_dot),
                    "x": s.x - scenario.x_target,
                    "x_dot": s.x_dot,
                },
            )
            f = min(max(f, -scenario.params.f_max), scenario.params.f_max)
        forces.append(f)
        s = step(s, f, scenario.dt, scenario.params)
        states.append(s)

    assert traj.data.shape[0] == len(states)
    # compare columns exactly (same python arithmetic on this backend)
    assert np.array_equal(traj.theta, np.array([st.theta for st in states]))
    assert np.array_equal(traj.x, np.array([st.x for st in states]))
    # the final row repeats the last held force
    assert np.array_equal(traj.force, np.array(forces + [forces[-1]]))


def _manual_loop(kb, scenario, controller):
    """Rows of ``scenario`` stepped by plant.step, the event rule written
    out (a tap adds to theta_dot, a tilt sets the tilt) and fc_output or
    sfc_output at each control instant, the force clamped and held."""
    p = scenario.params
    gains = design_gains(
        linearize(p), reference=(0.0, 0.0, scenario.x_target, 0.0), f_max=p.f_max
    )
    s = PlantState()
    f = 0.0
    rows = []  # row k: the state after step k's events, the force over step k
    for k in range(scenario.n_steps):
        for e in scenario.events:
            if int(round(e.t / scenario.dt)) != k:
                continue
            if e.kind == "tap":
                s = dataclasses.replace(s, theta_dot=s.theta_dot + e.value)
            else:
                s = dataclasses.replace(s, tilt=e.value)
        if k % scenario.control_every == 0:
            if controller == "fc":
                inputs = control_inputs(*s.as_tuple(), scenario.x_target)
                f = _fc_reference(kb, inputs)
            else:
                f = sfc_output(gains, s)
            f = min(max(f, -p.f_max), p.f_max)
        rows.append((*s.as_tuple(), f, s.tilt))
        s = step(s, f, scenario.dt, p, method=scenario.integrator)
    rows.append((*s.as_tuple(), f, s.tilt))
    return np.array(rows)


@pytest.mark.parametrize("controller", ["fc", "sfc"])
def test_simulation_matches_manual_loop_with_events(kb, controller):
    """RK4, a tap between control instants, a tilt on one, and the force held
    over four steps: the simulation loop against plant.step, the event rule
    written out (a tap adds to theta_dot, a tilt sets the tilt) and
    fc_output or sfc_output, exactly."""
    scenario = dataclasses.replace(
        default_scenario(
            1, controller, duration=1.0, dt=0.005, control_period=0.02,
            events=(tap(0.31, 0.2), set_tilt(0.6, 0.05)),
        ),
        integrator="rk4",
    )
    traj = run(scenario)
    assert traj.termination == "completed"
    assert traj.data[:, 1:].tobytes() == _manual_loop(kb, scenario, controller).tobytes()


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
@pytest.mark.parametrize("controller", ["fc", "sfc"])
def test_simulation_matches_manual_loop_with_tilts_between_instants(kb, controller, integrator):
    """The slope force changes off a control instant: a tilt at step 121
    (the instants are every 4th step), a second one at step 150, and a tilt
    back to 0 at step 167, under both integrators, against plant.step
    exactly."""
    scenario = dataclasses.replace(
        default_scenario(
            1, controller, duration=1.0, dt=0.005, control_period=0.02,
            events=(set_tilt(0.605, 0.05), set_tilt(0.75, -0.03), set_tilt(0.835, 0.0)),
        ),
        integrator=integrator,
    )
    traj = run(scenario)
    assert [int(round(e.t / scenario.dt)) for e in scenario.events] == [121, 150, 167]
    assert traj.termination == "completed"
    assert traj.tilt[120] == 0.0 and traj.tilt[121] == 0.05 and traj.tilt[167] == 0.0
    assert traj.data[:, 1:].tobytes() == _manual_loop(kb, scenario, controller).tobytes()


def test_zero_order_hold(kb):
    scenario = default_scenario(
        1, "fc", duration=2.0, dt=0.005, control_period=0.02
    )
    traj = run(scenario)
    assert np.max(np.abs(traj.force)) <= scenario.params.f_max
    forces = traj.force[:-1]  # final row repeats the held value
    for start in range(0, len(forces) - 4, 4):
        window = forces[start:start + 4]
        assert np.all(window == window[0])


def test_early_termination_pole_fell():
    scenario = default_scenario(7, "sfc", nominal_pole=1)
    traj = run(scenario)
    assert traj.termination in ("pole_fell", "left_track")
    assert traj.t[-1] < scenario.duration
    final_theta = abs(math.degrees(traj.theta[-1]))
    final_err = abs(traj.x[-1] - scenario.x_target)
    assert final_theta > scenario.theta_limit_deg or final_err > scenario.track_bound


def test_events_applied_at_due_steps(backend):
    from fuzzpole.plant import tap, set_tilt

    scenario = default_scenario(
        1, "fc", duration=1.0, x_target=0.0,
        events=(tap(0.5, 0.3), set_tilt(0.8, 0.1)),
    )
    traj = run(scenario, backend=backend)
    i_tap = int(round(0.5 / scenario.dt))
    jump = traj.theta_dot[i_tap] - traj.theta_dot[i_tap - 1]
    assert jump == pytest.approx(0.3, abs=0.02)  # plus one step of dynamics
    i_tilt = int(round(0.8 / scenario.dt))
    assert traj.tilt[i_tilt - 1] == 0.0
    assert traj.tilt[i_tilt] == 0.1
    assert np.all(traj.tilt[i_tilt:] == 0.1)


def test_simulation_loop_runs_on_python_floats():
    """numpy scalars in the arguments (state, params, event values) must not
    reach the loop's arithmetic: every value the law sees is a float."""
    seen = []

    def law(*state):
        seen.append(state)
        return 0.5 * state[0] - 0.1 * state[3], True

    p = pole_params(1)
    params = np.array([p.g, p.m_c, p.m, p.l, p.mu_c, p.mu_p, p.f_max])
    data, status, norule = kernels._simulate(
        np.zeros(5), np.float64(0.2), params, np.float64(0.005), 200, 2, True,
        np.array([30, 60]), np.array([0, 1]), np.array([0.3, 0.05]),
        np.float64(1e9), np.float64(1e9), law,
    )
    assert status == "completed" and norule == 0
    assert len(seen) == 100
    assert all(type(v) is float for state in seen for v in state)
    assert data[59, 6] == 0.0 and data[60, 6] == 0.05  # the tilt took effect


def test_overflow_ends_the_run_as_non_finite():
    """Pole-7 under pole-1 SFC gains with open bounds and a 0.5 s Euler step:
    the state grows until it overflows and math.sin(inf) raises."""
    scenario = dataclasses.replace(
        default_scenario(7, "sfc", nominal_pole=1, dt=0.5, control_period=0.5),
        track_bound=math.inf, theta_limit_deg=math.inf,
    )
    traj = run(scenario)
    assert traj.termination == "non_finite"
    assert 1 < traj.data.shape[0] < scenario.n_steps
    assert np.all(np.isfinite(traj.data))
    # the row after the last one kept is not finite
    last = traj.data[-1]
    p = scenario.params
    with np.errstate(over="ignore", invalid="ignore"):
        following = plant.advance(
            *last[1:7], scenario.dt,
            p.g, p.m_c, p.m, p.l, p.mu_c, p.mu_p, p.f_max, False,
        )
    assert not np.all(np.isfinite(following))


def test_vanishing_pole_inertia_ends_the_run_as_non_finite():
    """m * l underflows to 0, so the hinge friction term divides by zero."""
    scenario = dataclasses.replace(
        default_scenario(1, "sfc", duration=1.0), params=PlantParams(m=1e-200, l=1e-200)
    )
    traj = run(scenario)
    assert traj.termination == "non_finite"
    assert traj.data.shape[0] == 1


def test_nan_force_ends_the_run_as_non_finite():
    """A law that returns NaN at step 40 leaves rows 0..39 and stops."""
    p = pole_params(1)
    params = (p.g, p.m_c, p.m, p.l, p.mu_c, p.mu_p, p.f_max)
    calls = []

    def law(theta, theta_dot, x, x_dot, x_target):
        calls.append(theta)
        return (math.nan if len(calls) > 40 else 1.0), True

    data, status, _ = kernels._simulate(
        (0.0, 0.0, 0.0, 0.0, 0.0), 0.0, params, 0.005, 100, 1, False,
        np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0),
        2.4, 0.8, law,
    )
    assert status == "non_finite"
    assert data.shape[0] == 40
    assert np.all(np.isfinite(data))


_EDGE_FORCES = (-0.0, 5e-324, 1e308, 11.0, -11.0, 3.0)  # pole-1 f_max is 10


def _edge_run(n_steps, state0=(0.0, 0.0, 0.0, 0.0, 0.0), track_bound=1e9,
              theta_limit=1e9, nan_at=None, dt=0.005):
    """``_simulate`` under a law that cycles through ``_EDGE_FORCES``, and
    NaN at call ``nan_at``; returns the run and the clamped forces the rows
    must hold, one per step."""
    p = pole_params(1)
    params = (p.g, p.m_c, p.m, p.l, p.mu_c, p.mu_p, p.f_max)
    laws = []

    def law(theta, theta_dot, x, x_dot, x_target):
        k = len(laws)
        laws.append(math.nan if k == nan_at else _EDGE_FORCES[k % len(_EDGE_FORCES)])
        return laws[-1], True

    data, status, _ = kernels._simulate(
        state0, 0.0, params, dt, n_steps, 1, True,
        np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0),
        track_bound, theta_limit, law,
    )
    clamped = [f if not abs(f) > p.f_max else math.copysign(p.f_max, f) for f in laws]
    return data, status, clamped


def _bits(values):
    return np.array(values, dtype=np.float64).view(np.uint64)


_EDGE_CASES = {
    "completed": {},
    "pole_fell": {"state0": (0.3, 0.0, 0.0, 0.0, 0.0), "theta_limit": 0.35},
    "left_track": {"state0": (0.0, 0.0, 0.0, 1.0, 0.0), "track_bound": 0.05},
    "non_finite": {"nan_at": 20},
}


@pytest.mark.parametrize("case", list(_EDGE_CASES))
def test_a_run_that_ends_early_owns_only_its_rows(case):
    """A run that ends before its last step copies its rows out of the
    preallocated buffer, so it keeps no unused rows alive; a completed run
    returns the buffer itself, with no copy."""
    copies = []

    def profile(frame, event, arg):
        if event == "c_call" and getattr(arg, "__name__", "") == "copy":
            copies.append(arg.__self__)

    sys.setprofile(profile)
    try:
        data, status, _ = _edge_run(60, **_EDGE_CASES[case])
    finally:
        sys.setprofile(None)
    assert status == case
    assert data.flags.owndata and data.base is None
    if case == "completed":
        assert copies == [] and data.shape == (61, 7)
    else:
        assert [view.shape for view in copies] == [data.shape] and data.shape[0] < 61


@pytest.mark.parametrize("case", list(_EDGE_CASES))
def test_row_writer_keeps_the_bits(case):
    """Every row the loop writes holds t = k * dt and the clamped force bit
    for bit: -0.0 stays -0.0, the subnormal 5e-324 and 1e308 survive, forces
    past f_max are clamped, and the final row of each termination, written
    after the step that ended the run, carries t = (k + 1) * dt and the force
    of that step."""
    data, status, clamped = _edge_run(60, **_EDGE_CASES[case])
    assert status == case
    rows = data.shape[0]
    assert data.flags.c_contiguous and data.dtype == np.float64
    assert 7 < rows <= 61
    assert np.array_equal(data[:, 0].view(np.uint64), _bits([k * 0.005 for k in range(rows)]))
    # row k holds the force applied over step k; the row after the last step
    # repeats the force of that step
    forces = clamped[:rows] if case == "non_finite" else (clamped + clamped[-1:])[:rows]
    assert np.array_equal(data[:, 5].view(np.uint64), _bits(forces))
    if case == "non_finite":
        assert rows == 20  # the NaN row and the ones after it are dropped
    else:
        assert len(clamped) == rows - 1
    assert data[0, 5].view(np.uint64) == np.float64(-0.0).view(np.uint64)
    assert np.all(np.isfinite(data))


def test_a_raising_step_ends_the_run_as_non_finite():
    """Open bounds and a 0.5 s RK4 step: the state grows until ``advance``
    raises (math.sin of an infinite angle) at some step k.  The run keeps
    rows 0..k, written before that step, each with t = k * dt and its
    clamped force bit for bit, and ends as non_finite."""
    data, status, clamped = _edge_run(
        400, (0.1, 0.0, 0.0, 0.0, 0.0), math.inf, math.inf, dt=0.5
    )
    assert status == "non_finite"
    rows = data.shape[0]
    assert 7 < rows < 400
    assert len(clamped) == rows  # no row follows the step that raised
    assert np.array_equal(data[:, 0].view(np.uint64), _bits([k * 0.5 for k in range(rows)]))
    assert np.array_equal(data[:, 5].view(np.uint64), _bits(clamped))
    assert np.all(np.isfinite(data))
    p = pole_params(1)
    with pytest.raises(ValueError, match="math domain error"):
        plant.advance(
            *data[-1, 1:7].tolist(), 0.5,
            p.g, p.m_c, p.m, p.l, p.mu_c, p.mu_p, p.f_max, True,
        )


def test_a_compiled_kb_and_a_fuzzy_scenario_pickle(kb, compiled_kb):
    """A CompiledKB holds no generated code, only data: it survives a
    pickle round trip, and the law of the copy gives the same forces, by
    repr, at the initial states of _EDGE_CASES and on every row of special
    values.  A Scenario with a FuzzyController survives one too and runs
    to the same trajectory."""
    copy = pickle.loads(pickle.dumps(compiled_kb))
    assert repr((copy.shape, copy.numbers)) == repr((compiled_kb.shape, compiled_kb.numbers))
    law, law_copy = kernels.fuzzy_law(compiled_kb), kernels.fuzzy_law(copy)
    states = [case.get("state0", (0.0,) * 5)[:4] for case in _EDGE_CASES.values()]
    rows = [control_inputs(*state, 0.0) for state in states]
    rows += list(itertools.product(_SPECIALS, repeat=4))
    assert [repr(law_copy(row)) for row in rows] == [repr(law(row)) for row in rows]
    scenario = default_scenario(1, "fc", duration=1.0)
    scenario_copy = pickle.loads(pickle.dumps(scenario))
    assert scenario_copy == scenario
    assert np.array_equal(_bits(run(scenario_copy).data), _bits(run(scenario).data))
