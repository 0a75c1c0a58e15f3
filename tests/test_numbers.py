"""One rule per kind of number: a real input (``plant._real``) is a real
number other than a bool, in its field's range, stored as a Python float; a
count or an index (``plant._integer``) is an integer other than a bool, in
its range, stored as a Python int; an array is checked entry by entry by
the real rule.  Anything else is the module's typed error naming the field."""

import functools
import math
import re
from operator import attrgetter

import numpy as np
import pytest

from fuzzpole.fuzzy import (
    KBError,
    MembershipFunction,
    OutputUniverse,
    Precondition,
    Rule,
    fc_output,
)
from fuzzpole.harness import (
    Scenario,
    ScenarioBundle,
    ScenarioError,
    SFCController,
    compute_metrics,
    default_scenario,
    run,
)
from fuzzpole.hierarchy import HierarchyError, Narrowed
from fuzzpole.plant import (
    DisturbanceEvent,
    PlantError,
    PlantParams,
    PlantState,
    derivatives,
    pole_params,
    set_tilt,
    step,
    tap,
)
from fuzzpole.rulelang import builtin_pole_kb
from fuzzpole.sfc import DesignError, GainVector, LinearModel, linearize

P1 = pole_params(1)
MODEL = linearize(P1)
POLE_KB = builtin_pole_kb()


@functools.cache
def _run():
    scenario = default_scenario(1, "sfc", duration=0.1)
    return run(scenario), scenario


def _scenario(name):
    return lambda v: default_scenario(1, "sfc", **{"duration": 1.0, name: v})


def _first(array, v):
    """``array`` as nested lists with ``v`` as its first entry."""
    entries = np.array(array, dtype=object)
    entries.flat[0] = v
    return entries.tolist()


# entry -> (the name its errors give, its error, a build from a value, the
# stored value of the build, an array's first entry, or None for a function
# that stores nothing)
FIELDS = {
    **{
        f"PlantState.{n}": (f"state {n}", PlantError, lambda v, n=n: PlantState(**{n: v}),
                            attrgetter(n))
        for n in ("theta", "theta_dot", "x", "x_dot", "tilt")
    },
    **{
        f"PlantParams.{n}": (
            f"friction coefficient {n}" if n.startswith("mu_") else n,
            PlantError, lambda v, n=n: PlantParams(**{n: v}), attrgetter(n),
        )
        for n in ("g", "m_c", "m", "l", "mu_c", "mu_p", "f_max")
    },
    "DisturbanceEvent.t": ("event time", PlantError, lambda v: tap(v, 0.1), attrgetter("t")),
    "DisturbanceEvent.value": (
        "event value", PlantError, lambda v: set_tilt(1.0, v), attrgetter("value")),
    "step.force": ("force", PlantError, lambda v: step(PlantState(), v, 0.01, P1), None),
    "step.dt": ("dt", PlantError, lambda v: step(PlantState(), 0.0, v, P1), None),
    "derivatives.force": ("force", PlantError, lambda v: derivatives(PlantState(), v, P1), None),
    **{
        f"Scenario.{n}": (n, ScenarioError, _scenario(n), attrgetter(n))
        for n in ("x_target", "duration", "dt", "control_period", "track_bound",
                  "theta_limit_deg")
    },
    **{
        f"compute_metrics.{n}": (
            n, ScenarioError, lambda v, n=n: compute_metrics(*_run(), **{n: v}), attrgetter(n))
        for n in ("theta_band_deg", "x_band_m")
    },
    **{
        f"ScenarioBundle.{n}": (
            n, ScenarioError,
            lambda v, n=n: ScenarioBundle(_run()[1], **{n: v}), attrgetter(n),
        )
        for n in ("theta_band_deg", "x_band_m")
    },
    "Narrowed.factor": ("narrowing factor", HierarchyError, Narrowed, attrgetter("factor")),
    "GainVector.f_max": (
        "f_max", DesignError, lambda v: GainVector((1.0, 2.0, 3.0, 4.0), f_max=v),
        attrgetter("f_max")),
    **{
        f"LinearModel.{n}": (
            n, DesignError,
            lambda v, n=n: LinearModel(
                **{"A": MODEL.A, "B": MODEL.B, n: _first(getattr(MODEL, n), v)}),
            lambda model, n=n: getattr(model, n).flat[0].item(),
        )
        for n in ("A", "B")
    },
    **{
        f"GainVector.{n}": (
            n, DesignError,
            lambda v, n=n: GainVector(**{"k": (1.0, 2.0, 3.0, 4.0), n: (v, 0, 0, 0)}),
            lambda gains, n=n: getattr(gains, n).flat[0].item(),
        )
        for n in ("k", "reference")
    },
    "MembershipFunction.power": (
        "power", KBError, lambda v: MembershipFunction("triangle", (0, 1, 2), v),
        attrgetter("power")),
    "OutputUniverse.n": (
        "universe n", KBError, lambda v: OutputUniverse(-1.0, 1.0, v), attrgetter("n")),
    "Rule.goal_index": (
        "rule 'r': goal index", KBError,
        lambda v: Rule("r", (Precondition("e", "ZE"),), ("u", "Z"), v), attrgetter("goal_index")),
    "fc_output.theta": (
        "input theta", KBError,
        lambda v: fc_output(POLE_KB, {"theta": v, "theta_dot": 0.0, "x": 0.0, "x_dot": 0.0}),
        None),
}
# An infinite bound ends no run, so an int past the float range is one, and
# a goal tier has no top.
OPEN_ABOVE = ("Scenario.track_bound", "Scenario.theta_limit_deg", "Rule.goal_index")
# An integer entry and a good value of it: a float, 2.0 too, is refused.
INTEGERS = {"MembershipFunction.power": 2, "OutputUniverse.n": 3, "Rule.goal_index": 2}
# A law input has no range: NaN and +-inf (an int past the float range too)
# are read, as the parity grid feeds them.
ANY_REAL = ("fc_output.theta",)


@pytest.mark.parametrize("value", [True, 10**400, math.nan, "1.0"],
                         ids=["bool", "huge-int", "nan", "string"])
@pytest.mark.parametrize("entry", FIELDS)
def test_a_bad_number_is_the_modules_typed_error_naming_the_field(entry, value):
    name, error, build, _ = FIELDS[entry]
    if entry in OPEN_ABOVE and value == 10**400:
        value = -(10**400)
    if entry in ANY_REAL and not isinstance(value, (bool, str)):
        assert type(build(value)) is float
        return
    with pytest.raises(error, match=f"^{re.escape(name)} must be "):
        build(value)


@pytest.mark.parametrize("entry, kind", [
    (entry, kind)
    for entry, (*_, read) in FIELDS.items() if read
    for kind in (float, np.float32, np.float64, int, np.int64)
    if not (entry == "Narrowed.factor" and kind in (int, np.int64))  # no int lies in (0, 1)
])
def test_a_field_stores_a_python_float(entry, kind):
    """A real entry stores a Python float, from an int too; an integer entry
    stores a Python int and refuses a float."""
    name, error, build, read = FIELDS[entry]
    good = INTEGERS.get(entry, 0.5 if entry == "Narrowed.factor" else 1.0)
    if entry in INTEGERS and kind not in (int, np.int64):
        with pytest.raises(error, match=f"^{re.escape(name)} must be an integer, got "):
            build(kind(good))
        return
    stored = read(build(kind(good)))
    assert type(stored) is type(good) and stored == good


def test_a_float_keeps_its_bits():
    """``float`` converts, so -0.0 stays -0.0, from a numpy scalar too, and an
    int past the float range is an infinite bound."""
    for zero in (-0.0, np.float64(-0.0), np.float32(-0.0)):
        theta = PlantState(theta=zero).theta
        assert type(theta) is float and math.copysign(1.0, theta) == -1.0
    assert default_scenario(1, "sfc", track_bound=10**400).track_bound == math.inf


def test_a_huge_int_fails_when_built_not_inside_run():
    with pytest.raises(PlantError, match="^g must be positive and finite, got inf"):
        PlantParams(g=10**400)
    with pytest.raises(PlantError, match=r"^event time must be finite and >= 0, got inf"):
        tap(10**400, 0.1)
    with pytest.raises(PlantError, match="^state x must be finite, got inf"):
        PlantState(x=10**400)
    with pytest.raises(ScenarioError, match="^x_target must be finite, got inf"):
        default_scenario(1, "fc", x_target=10**400)
    with pytest.raises(ScenarioError, match="^theta_band_deg must be positive and finite"):
        compute_metrics(*_run(), theta_band_deg=10**400)


def test_a_float32_step_runs_as_a_python_float():
    scenario = Scenario("f32", P1, SFCController(P1), duration=0.1, dt=np.float32(0.005))
    assert type(scenario.dt) is float and type(scenario.control_period) is float
    assert scenario.dt == float(np.float32(0.005))
    traj = run(scenario)
    assert traj.completed and traj.data.shape[0] == scenario.n_steps + 1
    assert DisturbanceEvent(np.float32(0.5), "tap", 1).t == 0.5
