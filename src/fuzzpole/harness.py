"""Closed-loop simulation runner, step-response metrics, side-by-side
controller comparisons, scenario configuration files, and CSV export.

A scenario pairs a plant with one controller and a scripted situation (target
position, duration, disturbance events).  Runs are deterministic: no
randomness anywhere (a test pins it), fixed CSV formatting, so identical
scenarios reproduce byte-identical output.
"""

from __future__ import annotations

import json
import logging
import math
import numbers
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import IO, Mapping, Sequence

import numpy as np

from . import kernels
from .fuzzy import KnowledgeBase
from .plant import (
    DisturbanceEvent,
    PlantError,
    PlantParams,
    PlantState,
    pole_params,
)
from .rulelang import RuleFileError, builtin_pole_kb, load_kb
from .sfc import DEFAULT_DESIRED_POLES, DesignError, GainVector, design_gains, linearize

__all__ = [
    "FuzzyController",
    "SFCController",
    "Scenario",
    "Trajectory",
    "SignalMetrics",
    "MetricsReport",
    "ScenarioError",
    "INPUT_ERRORS",
    "MAX_STEPS",
    "run",
    "compute_metrics",
    "compare",
    "Comparison",
    "emit_trajectory",
    "default_scenario",
    "scenario_from_config",
    "load_scenario",
    "ScenarioBundle",
]

log = logging.getLogger(__name__)

TRAJECTORY_HEADER = "t,theta_deg,theta_dot_deg_s,x_m,x_dot_m_s,force_N,tilt_deg"

# Longest run a scenario may ask for: 10M steps are ~560 MB of trajectory.
MAX_STEPS = 10_000_000

DEFAULT_THETA_BAND_DEG = 0.1
DEFAULT_X_BAND_M = 0.02


class ScenarioError(ValueError):
    pass


# Typed errors that reject an input: the CLI reports them and exits 1.
INPUT_ERRORS = (ScenarioError, RuleFileError, PlantError, kernels.KernelError, DesignError)


@dataclass(frozen=True)
class FuzzyController:
    """The rule base must read only variables the harness drives
    (``kernels.DEFAULT_SLOTS``); it is checked on construction
    (``KernelError``) and compiled by ``run``."""

    kb: KnowledgeBase

    kind = "fc"

    def __post_init__(self):
        kernels.check_input_slots(self.kb)


@dataclass(frozen=True)
class SFCController:
    """Gains are designed on construction, by pole placement on the declared
    nominal model (``DesignError`` when the poles cannot be placed), and
    never re-tuned for the plant actually simulated."""

    nominal: PlantParams
    desired_poles: tuple = DEFAULT_DESIRED_POLES
    gains: GainVector = field(init=False, compare=False, repr=False)

    kind = "sfc"

    def __post_init__(self):
        gains = design_gains(linearize(self.nominal), self.desired_poles)
        object.__setattr__(self, "gains", gains)


@dataclass(frozen=True)
class Scenario:
    name: str
    params: PlantParams
    controller: FuzzyController | SFCController
    initial: PlantState = PlantState()
    x_target: float = 0.0
    duration: float = 50.0
    dt: float = 0.005
    control_period: float | None = None  # None: every step, dt
    events: tuple[DisturbanceEvent, ...] = ()  # a list is stored as a tuple
    track_bound: float = 2.4
    theta_limit_deg: float = 45.0
    integrator: str = "euler"

    def __post_init__(self):
        if not isinstance(self.events, (tuple, list)):
            raise ScenarioError(f"events must be a tuple or list, got {type(self.events).__name__}")
        object.__setattr__(self, "events", tuple(self.events))
        if self.control_period is None:
            object.__setattr__(self, "control_period", self.dt)
        expected = {"name": str, "params": PlantParams, "initial": PlantState}
        numeric = ("x_target", "duration", "dt", "control_period", "track_bound", "theta_limit_deg")
        expected.update(dict.fromkeys(numeric, numbers.Real))  # a bool passes, as an int
        typed = [(key, getattr(self, key), kind) for key, kind in expected.items()]
        typed += [(f"events[{i}]", e, DisturbanceEvent) for i, e in enumerate(self.events)]
        for key, value, kind in typed:
            if not isinstance(value, kind):
                what = "real number" if kind is numbers.Real else kind.__name__
                raise ScenarioError(f"{key} must be a {what}, got {type(value).__name__}")
        if not isinstance(self.controller, (FuzzyController, SFCController)):
            raise ScenarioError(f"unknown controller {self.controller!r}")
        for name in ("dt", "duration", "control_period"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ScenarioError(f"{name} must be finite, got {value}")
        if self.dt <= 0:
            raise ScenarioError(f"dt must be positive, got {self.dt}")
        if self.duration < self.dt:
            raise ScenarioError(
                f"duration ({self.duration}) must be at least dt ({self.dt})"
            )
        steps = self.duration / self.dt  # may overflow to inf: test before rounding
        if steps > MAX_STEPS + 1 or self.n_steps > MAX_STEPS:
            raise ScenarioError(
                f"duration {self.duration} s at dt {self.dt} s is {steps:.6g} "
                f"steps, more than the cap of {MAX_STEPS}"
            )
        if not math.isfinite(self.x_target):
            raise ScenarioError(f"x_target must be finite, got {self.x_target}")
        ratio = self.control_period / self.dt
        if (
            self.control_period < self.dt
            or math.isinf(ratio)  # round(inf) would raise OverflowError
            or abs(ratio - round(ratio)) > 1e-9
        ):
            raise ScenarioError(
                f"control_period ({self.control_period}) must be an integer "
                f"multiple of dt ({self.dt})"
            )
        for name in ("track_bound", "theta_limit_deg"):
            value = getattr(self, name)
            if not value > 0:  # NaN fails too; inf means no bound
                raise ScenarioError(f"{name} must be positive, got {value}")
        if self.integrator not in ("euler", "rk4"):
            raise ScenarioError(f"unknown integrator '{self.integrator}'")

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))

    @property
    def control_every(self) -> int:
        return int(round(self.control_period / self.dt))


@dataclass(frozen=True)
class Trajectory:
    """Sampled run: rows of (t, theta, theta_dot, x, x_dot, F, tilt), SI units."""

    data: np.ndarray
    termination: str

    @property
    def t(self) -> np.ndarray:
        return self.data[:, 0]

    @property
    def theta(self) -> np.ndarray:
        return self.data[:, 1]

    @property
    def theta_dot(self) -> np.ndarray:
        return self.data[:, 2]

    @property
    def x(self) -> np.ndarray:
        return self.data[:, 3]

    @property
    def x_dot(self) -> np.ndarray:
        return self.data[:, 4]

    @property
    def force(self) -> np.ndarray:
        return self.data[:, 5]

    @property
    def tilt(self) -> np.ndarray:
        return self.data[:, 6]

    @property
    def completed(self) -> bool:
        return self.termination == "completed"


def _event_arrays(scenario: Scenario):
    events = sorted(scenario.events, key=lambda e: e.t)
    # a step at or past the end is never applied, so it is capped there and
    # a time of 1e300 s cannot overflow the step count
    steps = np.array(
        [int(round(min(e.t / scenario.dt, scenario.n_steps))) for e in events],
        dtype=np.int64,
    )
    kinds = np.array(
        [0 if e.kind == "tap" else 1 for e in events], dtype=np.int64
    )
    values = np.array([e.value for e in events], dtype=np.float64)
    return steps, kinds, values


def run(scenario: Scenario, backend: str | None = None) -> Trajectory:
    """Simulate the scenario to completion or early termination.

    The controller output is held between control instants (zero-order hold);
    events due at a step are applied before that step's control update.
    Control instants where no fuzzy rule fires are mapped to zero force and
    counted in a logged warning, as are events due at or after the end of
    the run, which are not applied.  A state or force that overflows or
    turns NaN ends the run with termination ``non_finite``, keeping the
    finite rows before it (none when the first force is not finite), and a
    logged warning.  ``backend`` may name the one kernel backend
    (``kernels.ACTIVE_BACKEND``); any other value raises ``KernelError``.

    Every check that can reject the controller ran when it was built: an
    SFC controller holds its designed gains, and a fuzzy controller's rule
    base, compiled here, was checked against the driven variables.
    """
    kernels.check_backend(backend)
    p = scenario.params
    params = (p.g, p.m_c, p.m, p.l, p.mu_c, p.mu_p, p.f_max)
    state0 = (
        scenario.initial.theta,
        scenario.initial.theta_dot,
        scenario.initial.x,
        scenario.initial.x_dot,
        scenario.initial.tilt,
    )
    ev_step, ev_kind, ev_value = _event_arrays(scenario)
    dropped = int(np.count_nonzero(ev_step >= scenario.n_steps))
    if dropped:
        log.warning(
            "scenario '%s': %d event(s) due at or after the end of the run "
            "(%g s) were not applied",
            scenario.name,
            dropped,
            scenario.n_steps * scenario.dt,
        )
    theta_limit = math.radians(scenario.theta_limit_deg)
    common = (
        state0,
        scenario.x_target,
        params,
        scenario.dt,
        scenario.n_steps,
        scenario.control_every,
        scenario.integrator == "rk4",
        ev_step,
        ev_kind,
        ev_value,
        scenario.track_bound,
        theta_limit,
    )
    ctrl = scenario.controller
    if isinstance(ctrl, FuzzyController):
        ck = kernels.compile_kb(ctrl.kb)
        data, termination, norule = kernels.simulate_fuzzy(*common, ck)
        if norule:
            log.warning(
                "scenario '%s': no rule fired at %d control instants; "
                "applied zero force there",
                scenario.name,
                norule,
            )
    else:
        data, termination, _ = kernels.simulate_sfc(*common, ctrl.gains.k)
    if termination == "non_finite":
        # rows 0 .. len(data) - 1 are finite; there may be none
        log.warning(
            "scenario '%s': the state or force stopped being finite at "
            "t=%g s; the run ends at the last finite row before it",
            scenario.name,
            data.shape[0] * scenario.dt,
        )
    return Trajectory(data, termination)


# ---------------------------------------------------------------------------
# Step-response metrics


@dataclass(frozen=True)
class SignalMetrics:
    overshoot: float
    undershoot: float
    settling_time: float | None  # None = never settled within the run


@dataclass(frozen=True)
class MetricsReport:
    """The six comparison metrics: per signal, peak excursions past the
    setpoint and the time after which the signal stays inside the band.

    theta metrics are in degrees, x metrics in meters.  The cart-position
    signal is labelled "x (z)" in rendered tables; this is the quantity some
    published tables call z.
    """

    theta: SignalMetrics
    x: SignalMetrics
    theta_band_deg: float
    x_band_m: float
    termination: str


def _signal_metrics(t: np.ndarray, y: np.ndarray, setpoint: float, band: float) -> SignalMetrics:
    """Overshoot/undershoot relative to the initial approach direction.

    The approach direction is the sign of (setpoint - y[0]); a signal that
    starts on the setpoint counts positive excursions as overshoot.
    Undershoot only counts after the signal first reaches the setpoint, so the
    initial offset itself is not an undershoot.
    """
    error = y - setpoint
    approach = -math.copysign(1.0, error[0]) if error[0] != 0.0 else 1.0
    directed = error * approach
    overshoot = max(0.0, float(np.max(directed)))
    crossed = np.nonzero(directed >= 0.0)[0]
    if crossed.size == 0:
        undershoot = 0.0
    else:
        undershoot = max(0.0, float(np.max(-directed[crossed[0]:])))
    outside = np.nonzero(np.abs(error) > band)[0]
    if outside.size == 0:
        settling: float | None = 0.0
    elif outside[-1] == len(y) - 1:
        settling = None
    else:
        settling = float(t[outside[-1] + 1])
    return SignalMetrics(overshoot, undershoot, settling)


def _check_band(name: str, band: float) -> None:
    if not (isinstance(band, numbers.Real) and 0.0 < band < math.inf):  # NaN fails too
        raise ScenarioError(f"{name} must be positive and finite, got {band!r}")


def compute_metrics(
    traj: Trajectory,
    scenario: Scenario,
    theta_band_deg: float = DEFAULT_THETA_BAND_DEG,
    x_band_m: float = DEFAULT_X_BAND_M,
) -> MetricsReport:
    """The step-response metrics of a run with at least one row.  A settling
    band must be positive and finite (``ScenarioError``)."""
    _check_band("theta_band_deg", theta_band_deg)
    _check_band("x_band_m", x_band_m)
    if traj.data.shape[0] == 0:
        raise ScenarioError("cannot compute metrics of an empty trajectory")
    theta_deg = np.degrees(traj.theta)
    return MetricsReport(
        theta=_signal_metrics(traj.t, theta_deg, 0.0, theta_band_deg),
        x=_signal_metrics(traj.t, traj.x, scenario.x_target, x_band_m),
        theta_band_deg=theta_band_deg,
        x_band_m=x_band_m,
        termination=traj.termination,
    )


# ---------------------------------------------------------------------------
# Side-by-side comparison


_METRIC_ROWS = (
    ("Max. theta overshoot (deg)", lambda r: r.theta.overshoot),
    ("Max. theta undershoot (deg)", lambda r: r.theta.undershoot),
    ("theta settling time (s)", lambda r: r.theta.settling_time),
    ("Max. x (z) overshoot (cm)", lambda r: r.x.overshoot * 100.0),
    ("Max. x (z) undershoot (cm)", lambda r: r.x.undershoot * 100.0),
    ("x (z) settling time (s)", lambda r: r.x.settling_time),
)


@dataclass
class Comparison:
    """Metric reports side by side, one column per scenario name.  The footer
    states the settling bands of the first column with a report, or the
    default bands when every column FAILED."""

    columns: list[str]
    reports: dict[str, MetricsReport | None] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)

    def _cell(self, name: str, extract) -> str:
        if name in self.failures:
            return f"FAILED({self.failures[name]})"
        value = extract(self.reports[name])
        if value is None:
            return "not-settled"
        return f"{value:.6g}"

    def rows(self) -> list[tuple[str, list[str]]]:
        out = []
        for label, extract in _METRIC_ROWS:
            out.append((label, [self._cell(c, extract) for c in self.columns]))
        out.append(
            (
                "termination",
                [
                    "FAILED" if c in self.failures else self.reports[c].termination
                    for c in self.columns
                ],
            )
        )
        return out

    def render_text(self) -> str:
        rows = self.rows()
        label_w = max(len(r[0]) for r in rows)
        col_ws = [
            max(len(c), max(len(row[1][i]) for row in rows))
            for i, c in enumerate(self.columns)
        ]
        lines = [
            " | ".join(
                ["metric".ljust(label_w)]
                + [c.rjust(w) for c, w in zip(self.columns, col_ws)]
            )
        ]
        lines.append("-+-".join(["-" * label_w] + ["-" * w for w in col_ws]))
        for label, cells in rows:
            lines.append(
                " | ".join(
                    [label.ljust(label_w)]
                    + [c.rjust(w) for c, w in zip(cells, col_ws)]
                )
            )
        first = next((self.reports[c] for c in self.columns if c not in self.failures), None)
        theta_band, x_band = (
            (first.theta_band_deg, first.x_band_m) if first
            else (DEFAULT_THETA_BAND_DEG, DEFAULT_X_BAND_M)
        )
        lines.append("")
        lines.append(
            f"settling bands: theta within +/-{theta_band:g} deg, "
            f"x within +/-{x_band * 100:g} cm of the setpoint, "
            "sustained to the end of the run"
        )
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["metric," + ",".join(map(_csv_field, self.columns))]
        for label, cells in self.rows():
            lines.append(",".join([f'"{label}"', *map(_csv_field, cells)]))
        return "\n".join(lines) + "\n"


def _csv_field(text: str) -> str:
    """``text`` as one CSV field (RFC 4180): quoted, its quotes doubled, when
    it holds a comma, a double quote or a line break; as it is otherwise."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def compare(scenarios: Sequence[Scenario]) -> Comparison:
    """Run every scenario and aggregate the metric reports side by side,
    with the default settling bands.  Scenario names must be unique: the
    columns are keyed by them.

    A run rejected with one of ``INPUT_ERRORS`` marks its own column
    FAILED(reason) and leaves the rest intact; any other error propagates.
    """
    if not scenarios:
        raise ScenarioError("compare needs at least one scenario")
    names = [s.name for s in scenarios]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ScenarioError(f"scenario names must be unique, repeated: {repeated}")
    result = Comparison(names)
    for scenario in scenarios:
        try:
            result.reports[scenario.name] = compute_metrics(run(scenario), scenario)
        except INPUT_ERRORS as exc:
            log.warning("scenario '%s' failed: %s", scenario.name, exc)
            result.reports[scenario.name] = None
            result.failures[scenario.name] = str(exc)
    return result


# ---------------------------------------------------------------------------
# Trajectory CSV export


_DEG = kernels.RAD2DEG
_DEGREE_COLUMNS = np.array([1.0, _DEG, _DEG, 1.0, 1.0, 1.0, _DEG])
_ROW_FORMAT = ",".join(["%.6g"] * 7) + "\n"
_EMIT_BLOCK_ROWS = 256
_BLOCK_FORMAT = _ROW_FORMAT * _EMIT_BLOCK_ROWS  # a full block's rows, one format


def emit_trajectory(traj: Trajectory, destination: str | Path | IO[str]) -> None:
    """Write the trajectory as CSV, angles in degrees, 6 significant digits.

    Rows are scaled to degrees, turned into Python floats, formatted by one
    ``%`` over the block and written a block at a time, so the transient
    memory is one block, not the whole text; ``"%.6g"`` formats a float
    exactly as ``f"{v:.6g}"`` does.
    """
    if hasattr(destination, "write"):
        _write_rows(traj.data, destination)
        return
    path = Path(destination)
    try:
        with path.open("w", encoding="utf-8", newline="\n") as out:
            _write_rows(traj.data, out)
    except OSError as exc:
        raise ScenarioError(f"cannot write trajectory to {path}: {exc}") from exc


def _write_rows(data, out):
    out.write(TRAJECTORY_HEADER + "\n")
    for start in range(0, data.shape[0], _EMIT_BLOCK_ROWS):
        block = data[start:start + _EMIT_BLOCK_ROWS] * _DEGREE_COLUMNS
        rows = block.shape[0]
        fmt = _BLOCK_FORMAT if rows == _EMIT_BLOCK_ROWS else _ROW_FORMAT * rows
        out.write(fmt % tuple(block.ravel().tolist()))


# ---------------------------------------------------------------------------
# Scenario construction and configuration files


def default_scenario(
    pole: str | int = "pole-1",
    controller: str = "fc",
    x_target: float = 0.5,
    nominal_pole: str | int | None = None,
    name: str | None = None,
    **overrides,
) -> Scenario:
    """The standard comparison setup: start at rest at the origin and command
    a step to x_target.  SFC gains are designed here, on nominal_pole
    (defaulting to the simulated pole).  Other keyword arguments set
    ``Scenario`` fields."""
    params = pole_params(pole)
    if controller == "fc":
        ctrl: FuzzyController | SFCController = FuzzyController(builtin_pole_kb())
    elif controller == "sfc":
        nominal = pole_params(nominal_pole if nominal_pole is not None else pole)
        ctrl = SFCController(nominal)
    else:
        raise ScenarioError(f"unknown controller '{controller}' (fc or sfc)")
    pole_name = f"pole-{pole}" if isinstance(pole, int) else str(pole)
    return Scenario(
        name or f"{pole_name} {controller}", params, ctrl, x_target=x_target, **overrides
    )


@dataclass(frozen=True)
class ScenarioBundle:
    """A scenario and the settling bands of its metrics section."""

    scenario: Scenario
    theta_band_deg: float = DEFAULT_THETA_BAND_DEG
    x_band_m: float = DEFAULT_X_BAND_M

    def __post_init__(self):
        _check_band("metrics.theta_band_deg", self.theta_band_deg)
        _check_band("metrics.x_band_m", self.x_band_m)


# One key table per config section: key -> conversion of its value.  Absent
# keys are not passed on, so the dataclass defaults apply.  A conversion
# raises TypeError or ValueError on a value of the wrong JSON type, which
# ``_section`` reports under the key.


def _as_is(value):
    return value


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"must be a number, got {type(value).__name__}")
    return float(value)


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"must be a string, got {type(value).__name__}")
    return value


def _list(value) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"must be a list, got {type(value).__name__}")
    return value


def _radians(value) -> float:
    return math.radians(_number(value))


def _pole(value) -> complex | float:
    if not isinstance(value, (list, tuple)):
        return _number(value)
    if len(value) != 2:
        raise ValueError(f"a complex pole is a [re, im] pair, got {list(value)}")
    return complex(_number(value[0]), _number(value[1]))


def _poles(values) -> tuple:
    return tuple(_pole(p) for p in _list(values))


def _mapping(name: str, cfg) -> Mapping:
    if not isinstance(cfg, Mapping):
        raise ScenarioError(f"{name} must be an object, got {type(cfg).__name__}")
    return cfg


def _section(name: str, cfg, schema: Mapping) -> dict:
    values = {}
    for key, value in _mapping(name, cfg).items():
        if key not in schema:
            raise ScenarioError(
                f"unknown key {key!r} in {name}; allowed: {', '.join(schema)}"
            )
        try:
            values[key] = schema[key](value)
        except ScenarioError:  # a nested section names its own key
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise ScenarioError(f"{name}.{key}: {exc}") from exc
    return values


# initial-state key -> (PlantState field, conversion to SI units)
_INITIAL_KEYS = {
    "theta_deg": ("theta", _radians),
    "theta_dot_deg_s": ("theta_dot", _radians),
    "x_m": ("x", _number),
    "x_dot_m_s": ("x_dot", _number),
    "tilt_deg": ("tilt", _radians),
}
# event kind -> key of its value, in degrees
_EVENT_VALUE_KEYS = {"tap": "delta_theta_dot_deg_s", "set_tilt": "angle_deg"}


def _initial(cfg) -> PlantState:
    schema = {key: convert for key, (_, convert) in _INITIAL_KEYS.items()}
    values = _section("scenario.initial", cfg, schema)
    return PlantState(**{_INITIAL_KEYS[k][0]: v for k, v in values.items()})


def _events(items) -> tuple[DisturbanceEvent, ...]:
    events = []
    for i, item in enumerate(_list(items)):
        name = f"scenario.events[{i}]"
        kind = _mapping(name, item).get("kind")
        if not isinstance(kind, str) or kind not in _EVENT_VALUE_KEYS:
            raise ScenarioError(f"unknown event kind {kind!r} in {name} (tap or set_tilt)")
        value_key = _EVENT_VALUE_KEYS[kind]
        e = _section(name, item, {"t": _number, "kind": _as_is, value_key: _radians})
        try:
            events.append(DisturbanceEvent(e["t"], kind, e[value_key]))
        except KeyError as exc:
            raise ScenarioError(f"{name}: missing key {exc}") from exc
        except PlantError as exc:
            raise ScenarioError(f"{name}: {exc}") from exc
    return tuple(events)


_TOP_KEYS = dict.fromkeys(("plant", "scenario", "controller", "metrics"), _as_is)
_PLANT_KEYS = {"preset": pole_params, **{f.name: _number for f in fields(PlantParams)}}
_SCENARIO_KEYS = {
    "name": _string,
    **dict.fromkeys(("x_target", "duration", "dt", "control_period"), _number),
    **dict.fromkeys(("track_bound", "theta_limit_deg"), _number),
    "integrator": _string,
    "initial": _initial,
    "events": _events,
}
_FC_KEYS = {"type": _as_is, "rules": _string}
_SFC_KEYS = {"type": _as_is, "nominal_pole": pole_params, "desired_poles": _poles}
_METRICS_KEYS = {"theta_band_deg": _number, "x_band_m": _number}


def _plant(cfg) -> PlantParams:
    values = _section("plant", cfg, _PLANT_KEYS)
    params = values.pop("preset", PlantParams())
    for key, value in values.items():  # one at a time, so an error names its key
        try:
            params = replace(params, **{key: value})
        except PlantError as exc:
            raise ScenarioError(f"plant.{key}: {exc}") from exc
    return params


def _controller(cfg, base_dir: Path) -> FuzzyController | SFCController:
    kind = _mapping("controller", cfg).get("type")
    if kind == "fc":
        c = _section("controller", cfg, _FC_KEYS)
        rules = c.get("rules", "builtin")
        if rules == "builtin":
            kb = builtin_pole_kb()
        else:  # a relative path is relative to base_dir
            path = base_dir / rules
            try:
                text = path.read_text(encoding="utf-8")
            except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or not UTF-8
                raise ScenarioError(f"cannot read controller.rules file {path}: {exc}") from exc
            try:
                kb = load_kb(text)
            except RuleFileError as exc:
                raise ScenarioError(f"controller.rules: {path}: {exc}") from exc
        try:
            return FuzzyController(kb)
        except kernels.KernelError as exc:  # an undriven variable
            raise ScenarioError(f"controller.rules: {exc}") from exc
    if kind == "sfc":
        c = _section("controller", cfg, _SFC_KEYS)
        del c["type"]
        nominal = c.pop("nominal_pole") if "nominal_pole" in c else pole_params("pole-1")
        try:
            return SFCController(nominal, **c)
        except DesignError as exc:  # the gains are designed on construction
            raise ScenarioError(f"controller.desired_poles: {exc}") from exc
    raise ScenarioError(f"unknown controller type {kind!r} (fc or sfc)")


def scenario_from_config(
    cfg: Mapping, base_dir: str | Path = ".", **scenario_keys
) -> ScenarioBundle:
    """Build a scenario from the parsed JSON configuration sections
    (plant / scenario / controller / metrics).  Unknown keys and sections
    that are not objects are rejected; absent keys take the defaults of
    ``Scenario``, ``PlantState`` and ``ScenarioBundle``.  Keyword arguments
    set keys of the scenario section over what ``cfg`` holds."""
    top = _section("the configuration", cfg, _TOP_KEYS)
    params = _plant(top.get("plant", {}))
    controller = _controller(top.get("controller", {"type": "fc"}), Path(base_dir))
    section = {**_mapping("scenario", top.get("scenario", {})), **scenario_keys}
    s = _section("scenario", section, _SCENARIO_KEYS)
    scenario = Scenario(params=params, controller=controller, **{"name": "scenario", **s})
    metrics = _section("metrics", top.get("metrics", {}), _METRICS_KEYS)
    return ScenarioBundle(scenario, **metrics)


def load_scenario(path: str | Path, **scenario_keys) -> ScenarioBundle:
    """Build the scenario of a JSON file, with ``scenario_keys`` set over the
    keys of its scenario section (see :func:`scenario_from_config`).  One
    leading byte-order mark is dropped."""
    path = Path(path)
    try:
        cfg = json.loads(path.read_text(encoding="utf-8-sig"))
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, or an integer too long to read
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return scenario_from_config(cfg, base_dir=path.parent, **scenario_keys)

