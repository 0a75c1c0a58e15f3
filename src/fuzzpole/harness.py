"""Closed-loop simulation runner, step-response metrics, side-by-side
controller comparisons, scenario configuration files, and CSV export.

A scenario pairs a plant with one controller and a scripted situation (target
position, duration, disturbance events).  Runs are deterministic: no
randomness anywhere, fixed CSV formatting, so identical scenarios reproduce
byte-identical output.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from . import kernels
from .fuzzy import KnowledgeBase
from .hierarchy import Achievement, Goal, GoalSpec
from .plant import (
    DisturbanceEvent,
    PlantParams,
    PlantState,
    pole_params,
)
from .rulelang import builtin_pole_kb, load_kb
from .sfc import DEFAULT_DESIRED_POLES, design_gains, linearize

__all__ = [
    "FuzzyController",
    "SFCController",
    "Scenario",
    "Trajectory",
    "SignalMetrics",
    "MetricsReport",
    "ScenarioError",
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
    "forbid_rng",
]

log = logging.getLogger(__name__)

TRAJECTORY_HEADER = "t,theta_deg,theta_dot_deg_s,x_m,x_dot_m_s,force_N,tilt_deg"

# Longest run a scenario may ask for: 10M steps are ~560 MB of trajectory.
MAX_STEPS = 10_000_000

DEFAULT_THETA_BAND_DEG = 0.1
DEFAULT_X_BAND_M = 0.02


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class FuzzyController:
    kb: KnowledgeBase

    kind = "fc"


@dataclass(frozen=True)
class SFCController:
    """Gains are designed once on the declared nominal model (pole placement)
    and never re-tuned for the plant actually simulated."""

    nominal: PlantParams
    desired_poles: tuple = DEFAULT_DESIRED_POLES

    kind = "sfc"


@dataclass(frozen=True)
class Scenario:
    name: str
    params: PlantParams
    controller: FuzzyController | SFCController
    initial: PlantState = PlantState()
    x_target: float = 0.0
    duration: float = 50.0
    dt: float = 0.005
    control_period: float = 0.005
    events: tuple[DisturbanceEvent, ...] = ()
    track_bound: float = 2.4
    theta_limit_deg: float = 45.0
    integrator: str = "euler"

    def __post_init__(self):
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
        for name in ("theta", "theta_dot", "x", "x_dot", "tilt"):
            value = getattr(self.initial, name)
            if not math.isfinite(value):
                raise ScenarioError(f"initial {name} must be finite, got {value}")
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
    steps = np.array(
        [int(round(e.t / scenario.dt)) for e in events], dtype=np.int64
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
    elif isinstance(ctrl, SFCController):
        gains = design_gains(
            linearize(ctrl.nominal),
            ctrl.desired_poles,
            reference=(0.0, 0.0, scenario.x_target, 0.0),
            f_max=p.f_max,
        )
        data, termination, _ = kernels.simulate_sfc(*common, gains.k, gains.reference)
    else:
        raise ScenarioError(f"unknown controller {ctrl!r}")
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


def compute_metrics(
    traj: Trajectory,
    scenario: Scenario,
    theta_band_deg: float = DEFAULT_THETA_BAND_DEG,
    x_band_m: float = DEFAULT_X_BAND_M,
) -> MetricsReport:
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
    columns: list[str]
    reports: dict[str, MetricsReport | None] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)
    theta_band_deg: float = DEFAULT_THETA_BAND_DEG
    x_band_m: float = DEFAULT_X_BAND_M

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
        lines.append("")
        lines.append(
            f"settling bands: theta within +/-{self.theta_band_deg:g} deg, "
            f"x within +/-{self.x_band_m * 100:g} cm of the setpoint, "
            "sustained to the end of the run"
        )
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["metric," + ",".join(self.columns)]
        for label, cells in self.rows():
            lines.append(",".join([f'"{label}"'] + cells))
        return "\n".join(lines) + "\n"


def compare(
    scenarios: Sequence[Scenario],
    theta_band_deg: float = DEFAULT_THETA_BAND_DEG,
    x_band_m: float = DEFAULT_X_BAND_M,
) -> Comparison:
    """Run every scenario and aggregate the metric reports side by side.

    A failing run marks its own column FAILED(reason) and leaves the rest
    intact.
    """
    if not scenarios:
        raise ScenarioError("compare needs at least one scenario")
    result = Comparison(
        [s.name for s in scenarios],
        theta_band_deg=theta_band_deg,
        x_band_m=x_band_m,
    )
    for scenario in scenarios:
        try:
            traj = run(scenario)
            result.reports[scenario.name] = compute_metrics(
                traj, scenario, theta_band_deg, x_band_m
            )
        except Exception as exc:  # noqa: BLE001 - isolate per-cell failures
            log.warning("scenario '%s' failed: %s", scenario.name, exc)
            result.reports[scenario.name] = None
            result.failures[scenario.name] = str(exc)
    return result


# ---------------------------------------------------------------------------
# Trajectory CSV export


_DEG = kernels.RAD2DEG
_DEGREE_COLUMNS = np.array([1.0, _DEG, _DEG, 1.0, 1.0, 1.0, _DEG])
_ROW_FORMAT = ",".join(["%.6g"] * 7) + "\n"
_EMIT_BLOCK_ROWS = 1024


def emit_trajectory(traj: Trajectory, destination: str | Path | IO[str]) -> None:
    """Write the trajectory as CSV, angles in degrees, 6 significant digits.

    Rows are scaled to degrees, turned into Python floats, formatted and
    written a block at a time, so the transient memory is one block, not
    the whole text; ``"%.6g"`` formats a float exactly as ``f"{v:.6g}"``
    does.
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
        block = (data[start:start + _EMIT_BLOCK_ROWS] * _DEGREE_COLUMNS).tolist()
        out.write("".join([_ROW_FORMAT % tuple(row) for row in block]))


# ---------------------------------------------------------------------------
# Scenario construction and configuration files


def default_scenario(
    pole: str | int = "pole-1",
    controller: str = "fc",
    x_target: float = 0.5,
    duration: float = 50.0,
    dt: float = 0.005,
    control_period: float = 0.005,
    events: Iterable[DisturbanceEvent] = (),
    nominal_pole: str | int | None = None,
    kb: KnowledgeBase | None = None,
    name: str | None = None,
) -> Scenario:
    """The standard comparison setup: start at rest at the origin and command
    a step to x_target.  SFC gains are designed on nominal_pole (defaulting to
    the simulated pole)."""
    params = pole_params(pole)
    if controller == "fc":
        ctrl: FuzzyController | SFCController = FuzzyController(
            kb if kb is not None else builtin_pole_kb()
        )
    elif controller == "sfc":
        nominal = pole_params(nominal_pole if nominal_pole is not None else pole)
        ctrl = SFCController(nominal)
    else:
        raise ScenarioError(f"unknown controller '{controller}' (fc or sfc)")
    pole_name = f"pole-{pole}" if isinstance(pole, int) else str(pole)
    return Scenario(
        name=name or f"{pole_name} {controller}",
        params=params,
        controller=ctrl,
        x_target=x_target,
        duration=duration,
        dt=dt,
        control_period=control_period,
        events=tuple(events),
    )


@dataclass(frozen=True)
class ScenarioBundle:
    scenario: Scenario
    theta_band_deg: float = DEFAULT_THETA_BAND_DEG
    x_band_m: float = DEFAULT_X_BAND_M
    goals: GoalSpec | None = None


def _plant_from_config(cfg: Mapping) -> PlantParams:
    cfg = dict(cfg)
    preset = cfg.pop("preset", None)
    if preset is not None:
        return pole_params(preset, **{k: float(v) for k, v in cfg.items()})
    return PlantParams(**{k: float(v) for k, v in cfg.items()})


def _initial_from_config(cfg: Mapping) -> PlantState:
    return PlantState(
        theta=math.radians(float(cfg.get("theta_deg", 0.0))),
        theta_dot=math.radians(float(cfg.get("theta_dot_deg_s", 0.0))),
        x=float(cfg.get("x_m", 0.0)),
        x_dot=float(cfg.get("x_dot_m_s", 0.0)),
        tilt=math.radians(float(cfg.get("tilt_deg", 0.0))),
    )


def _events_from_config(items: Sequence[Mapping]) -> tuple[DisturbanceEvent, ...]:
    events = []
    for item in items:
        kind = item.get("kind")
        t = float(item["t"])
        if kind == "tap":
            events.append(
                DisturbanceEvent(
                    t, "tap", math.radians(float(item["delta_theta_dot_deg_s"]))
                )
            )
        elif kind == "set_tilt":
            events.append(
                DisturbanceEvent(t, "set_tilt", math.radians(float(item["angle_deg"])))
            )
        else:
            raise ScenarioError(f"unknown event kind {kind!r} in {item!r}")
    return tuple(events)


def _controller_from_config(cfg: Mapping, base_dir: Path) -> FuzzyController | SFCController:
    kind = cfg.get("type")
    if kind == "fc":
        rules = cfg.get("rules", "builtin")
        if rules == "builtin":
            kb = builtin_pole_kb()
        else:
            path = Path(rules)
            if not path.is_absolute():
                path = base_dir / path
            kb = load_kb(path.read_text(encoding="utf-8"))
        n = cfg.get("quantization")
        if n is not None:
            kb = KnowledgeBase(
                kb.variables,
                kb.output_variable,
                kb.rules,
                replace(kb.output_universe, n=int(n)),
            )
        return FuzzyController(kb)
    if kind == "sfc":
        nominal = cfg.get("nominal_pole", "pole-1")
        poles = cfg.get("desired_poles")
        desired = (
            DEFAULT_DESIRED_POLES
            if poles is None
            else tuple(
                complex(p[0], p[1]) if isinstance(p, (list, tuple)) else float(p)
                for p in poles
            )
        )
        return SFCController(pole_params(nominal), desired)
    raise ScenarioError(f"unknown controller type {kind!r} (fc or sfc)")


def _goals_from_config(items: Sequence[Mapping]) -> GoalSpec:
    goals = []
    for item in items:
        achieve = tuple(
            Achievement(a["variable"], a["label"], a.get("very"))
            for a in item.get("achieve", [])
        )
        goals.append(Goal(item["name"], tuple(item["variables"]), achieve))
    return GoalSpec(tuple(goals))


def scenario_from_config(cfg: Mapping, base_dir: str | Path = ".") -> ScenarioBundle:
    """Build a scenario from the parsed JSON configuration sections
    (plant / scenario / controller / metrics, optional goals)."""
    base_dir = Path(base_dir)
    try:
        params = _plant_from_config(cfg.get("plant", {}))
        controller = _controller_from_config(cfg.get("controller", {"type": "fc"}), base_dir)
        s = cfg.get("scenario", {})
        scenario = Scenario(
            name=str(s.get("name", "scenario")),
            params=params,
            controller=controller,
            initial=_initial_from_config(s.get("initial", {})),
            x_target=float(s.get("x_target", 0.0)),
            duration=float(s.get("duration", 50.0)),
            dt=float(s.get("dt", 0.005)),
            control_period=float(s.get("control_period", s.get("dt", 0.005))),
            events=_events_from_config(s.get("events", [])),
            track_bound=float(s.get("track_bound", 2.4)),
            theta_limit_deg=float(s.get("theta_limit_deg", 45.0)),
            integrator=str(s.get("integrator", "euler")),
        )
        metrics = cfg.get("metrics", {})
        goals = cfg.get("goals")
        return ScenarioBundle(
            scenario,
            theta_band_deg=float(metrics.get("theta_band_deg", DEFAULT_THETA_BAND_DEG)),
            x_band_m=float(metrics.get("x_band_m", DEFAULT_X_BAND_M)),
            goals=_goals_from_config(goals) if goals else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"invalid scenario configuration: {exc}") from exc


def load_scenario(path: str | Path) -> ScenarioBundle:
    path = Path(path)
    try:
        cfg = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return scenario_from_config(cfg, base_dir=path.parent)


# ---------------------------------------------------------------------------
# RNG tripwire


@contextlib.contextmanager
def forbid_rng():
    """Fail loudly if anything draws random numbers inside the block.

    The toolkit itself never uses randomness; this backs the --seedless CLI
    flag so regressions surface as hard errors instead of silent jitter.
    """

    def trip(*_args, **_kwargs):
        raise RuntimeError("random number generation is forbidden (--seedless)")

    random_names = ("random", "uniform", "gauss", "randint", "choice", "seed")
    np_names = (
        "random", "rand", "randn", "uniform", "normal", "randint",
        "default_rng", "seed",
    )
    saved_random = {n: getattr(random, n) for n in random_names}
    saved_np = {n: getattr(np.random, n) for n in np_names}
    try:
        for n in random_names:
            setattr(random, n, trip)
        for n in np_names:
            setattr(np.random, n, trip)
        yield
    finally:
        for n, fn in saved_random.items():
            setattr(random, n, fn)
        for n, fn in saved_np.items():
            setattr(np.random, n, fn)
