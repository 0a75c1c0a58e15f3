import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzpole import kernels, plant
from fuzzpole.fuzzy import (
    KnowledgeBase,
    LinguisticVariable,
    NoRuleFired,
    OutputUniverse,
    Precondition,
    Rule,
    fc_output,
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
    PlantParams, PlantState, apply_event, pole_params, set_tilt, step, tap,
)
from fuzzpole.rulelang import builtin_pole_kb
from fuzzpole.sfc import design_gains, linearize, sfc_output


def _conclusion_curves(kb, ck):
    """Each group's conclusion curve: its label sampled on the output grid."""
    points = kb.output_universe.points()
    labels = {}
    for rule, (_, g) in zip(kb.rules, ck.rule_table):
        labels.setdefault(g, rule.conclusion[1])
    return {g: kb.output.label(label).sample(points) for g, label in labels.items()}


def _curve_from_layers(ck, group):
    """A group's curve rebuilt from the coverage layers: its value where it
    takes a layer, 0.0 elsewhere."""
    taken = (ck.layer_group == group) & (ck.layer_curve != 0.0)
    assert np.all(taken.sum(axis=0) <= 1)  # at most one layer per grid point
    layers, columns = np.nonzero(taken)
    curve = np.zeros(ck.points.shape[0])
    curve[columns] = ck.layer_curve[layers, columns]
    return curve


def test_compiled_tables_shape(kb, compiled_kb):
    ck = compiled_kb
    n_labels = sum(len(v.labels) for v in kb.input_variables)
    assert n_labels == 14
    assert len(ck.label_table) == n_labels
    assert len(ck.rule_table) == 13
    # balance rules have 2 preconditions, position rules 4
    assert [len(rows) for rows, _ in ck.rule_table] == [2] * 9 + [4] * 4
    assert all(0 <= i < n_labels for rows, _ in ck.rule_table for i in rows)
    # one group per conclusion label
    assert sorted({g for _, g in ck.rule_table}) == list(range(7))
    assert ck.groups == 7
    n = kb.output_universe.n
    assert np.array_equal(ck.points, kb.output_universe.points())
    # at most two of the seven conclusion curves are nonzero at a grid point
    assert ck.layer_group.shape == ck.layer_curve.shape == (2, n)
    curves = _conclusion_curves(kb, ck)
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


def _same_bits(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _agrees_with_reference(kb, ck, inputs, slots=kernels.DEFAULT_SLOTS):
    """fuzzy_force equals fc_output, sign of zero included, and reports
    (0.0, False) exactly when fc_output finds no rule fired."""
    force, fired = fuzzy_force(ck, np.array(inputs, dtype=np.float64))
    try:
        reference = fc_output(kb, {name: inputs[i] for name, i in slots.items()})
    except NoRuleFired:
        return (force, fired) == (0.0, False) and _same_bits(force, 0.0)
    return fired and _same_bits(force, reference)


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
        kb = kb.with_rules(
            dataclasses.replace(r, conclusion=(kb.output_variable, only_label))
            for r in kb.rules
        )
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
_COMPOSED[("no rules", 201)] = builtin_pole_kb().with_rules([])


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
_COMPILED = {key: compile_kb(kb) for key, kb in _COMPOSED.items()}
_SCALES = (12.0, 45.0, 1.0, 0.5)


@st.composite
def _kb_and_inputs(draw):
    key = draw(st.sampled_from(sorted(_COMPOSED)))
    kb = _COMPOSED[key]
    inputs = []
    for name, scale in zip(("theta", "theta_dot", "x", "x_dot"), _SCALES):
        var = kb.variables[name]
        breakpoints = sorted({p for mf in var.labels.values() for p in mf.params})
        inputs.append(draw(st.one_of(
            st.floats(-scale, scale, allow_nan=False),
            st.sampled_from(breakpoints),
            st.floats(-scale / 100, scale / 100),
            st.just(math.nan),
        )))
    return key, inputs


@settings(max_examples=300, deadline=None)
@given(_kb_and_inputs())
def test_folded_kernel_matches_reference_on_composed_kbs(case):
    key, inputs = case
    assert _agrees_with_reference(_COMPOSED[key], _COMPILED[key], inputs)


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
    curves = _conclusion_curves(kb, ck)
    n = kb.output_universe.n
    assert ck.groups == len(curves)
    coverage = np.zeros(n, dtype=np.int64)
    for g, curve in curves.items():
        assert np.array_equal(_curve_from_layers(ck, g), curve)
        coverage += curve != 0.0
    assert ck.layer_group.shape == ck.layer_curve.shape == (coverage.max(initial=0), n)
    assert np.array_equal((ck.layer_curve != 0.0).sum(axis=0), coverage)


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
    gated = kb.with_rules([r for r in kb.rules if r.goal_index == 2])
    ck = compile_kb(gated)
    force, fired = fuzzy_force(
        ck, control_inputs(math.radians(10), 0.0, 0.0, 0.0, 0.0), backend=backend
    )
    assert not fired and force == 0.0


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


@pytest.mark.parametrize("controller", ["fc", "sfc"])
def test_simulation_matches_manual_loop_with_events(kb, controller):
    """RK4, a tap between control instants, a tilt on one, and the force held
    over four steps: the simulation loop against plant.step/apply_event plus
    fc_output or sfc_output, exactly."""
    scenario = dataclasses.replace(
        default_scenario(
            1, controller, duration=1.0, dt=0.005, control_period=0.02,
            events=(tap(0.31, 0.2), set_tilt(0.6, 0.05)),
        ),
        integrator="rk4",
    )
    traj = run(scenario)
    p = scenario.params
    gains = design_gains(
        linearize(p), reference=(0.0, 0.0, scenario.x_target, 0.0), f_max=p.f_max
    )

    s = PlantState()
    f = 0.0
    rows = []  # row k: the state after step k's events, the force over step k
    for k in range(scenario.n_steps):
        for e in scenario.events:
            if int(round(e.t / scenario.dt)) == k:
                s = apply_event(s, e)
        if k % scenario.control_every == 0:
            if controller == "fc":
                inputs = control_inputs(*s.as_tuple(), scenario.x_target)
                f = _fc_reference(kb, inputs)
            else:
                f = sfc_output(gains, s)
            f = min(max(f, -p.f_max), p.f_max)
        rows.append((*s.as_tuple(), f, s.tilt))
        s = step(s, f, scenario.dt, p, method="rk4")
    rows.append((*s.as_tuple(), f, s.tilt))

    assert traj.termination == "completed"
    assert np.array_equal(traj.data[:, 1:], np.array(rows))


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
