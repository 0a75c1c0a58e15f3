"""The one rule for a numeric input (``plant._real``): a real number other
than a bool, in its field's range, stored as a Python float; anything else
is the module's typed error naming the field."""

import functools
import math
import re
from operator import attrgetter

import numpy as np
import pytest

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
from fuzzpole.sfc import DesignError, GainVector

P1 = pole_params(1)


@functools.cache
def _run():
    scenario = default_scenario(1, "sfc", duration=0.1)
    return run(scenario), scenario


def _scenario(name):
    return lambda v: default_scenario(1, "sfc", **{"duration": 1.0, name: v})


# entry -> (the name its errors give, its error, a build from a value, the
# stored value of the build or None for a function that stores nothing)
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
            f"metrics.{n}", ScenarioError,
            lambda v, n=n: ScenarioBundle(_run()[1], **{n: v}), attrgetter(n),
        )
        for n in ("theta_band_deg", "x_band_m")
    },
    "Narrowed.factor": ("narrowing factor", HierarchyError, Narrowed, attrgetter("factor")),
    "GainVector.f_max": (
        "f_max", DesignError, lambda v: GainVector((1.0, 2.0, 3.0, 4.0), f_max=v),
        attrgetter("f_max")),
}
# An infinite bound ends no run, so an int past the float range is one.
OPEN_ABOVE = ("Scenario.track_bound", "Scenario.theta_limit_deg")


@pytest.mark.parametrize("value", [True, 10**400, math.nan, "1.0"],
                         ids=["bool", "huge-int", "nan", "string"])
@pytest.mark.parametrize("entry", FIELDS)
def test_a_bad_number_is_the_modules_typed_error_naming_the_field(entry, value):
    name, error, build, _ = FIELDS[entry]
    if entry in OPEN_ABOVE and value == 10**400:
        value = -(10**400)
    with pytest.raises(error, match=f"^{re.escape(name)} must be "):
        build(value)


@pytest.mark.parametrize("entry, kind", [
    (entry, kind)
    for entry, (*_, read) in FIELDS.items() if read
    for kind in (np.float32, np.float64, int)
    if not (entry == "Narrowed.factor" and kind is int)  # no int lies in (0, 1)
])
def test_a_field_stores_a_python_float(entry, kind):
    _, _, build, read = FIELDS[entry]
    good = 0.5 if entry == "Narrowed.factor" else 1.0
    stored = read(build(kind(good)))
    assert type(stored) is float and stored == good


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
