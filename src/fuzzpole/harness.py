"""Closed-loop simulation runner, step-response metrics, side-by-side
controller comparisons, scenario configuration files, and CSV export.

A scenario pairs a plant with one controller and a scripted situation (target
position, duration, disturbance events).  Runs are deterministic: no
randomness anywhere (a test pins it), fixed CSV formatting, so identical
scenarios reproduce byte-identical output.
"""

from __future__ import annotations

import functools
import json
import logging
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from types import SimpleNamespace
from typing import IO, TYPE_CHECKING, Mapping, Sequence

from . import kernels
from .fuzzy import KnowledgeBase
from .plant import (
    DisturbanceEvent,
    PlantError,
    PlantParams,
    PlantState,
    _real,
    _store,
    pole_params,
)
from .rulelang import RuleFileError, builtin_pole_kb, load_kb
from .sfc import DEFAULT_DESIRED_POLES, DesignError, GainVector, design_gains, linearize

if TYPE_CHECKING:
    import numpy as np

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
    never re-tuned for the plant actually simulated.

    ``gains`` keeps ``design_gains``'s defaults, ``reference`` (0, 0, 0, 0)
    and ``f_max`` 10, but ``run`` reads only ``gains.k``: it measures the
    cart from the scenario's ``x_target`` and clamps at the simulated
    plant's ``f_max``.  The run's force at a state ``s`` is therefore
    ``sfc_output(GainVector(gains.k, (0, 0, x_target, 0), params.f_max), s)``,
    not ``sfc_output(gains, s)``."""

    nominal: PlantParams
    desired_poles: tuple = DEFAULT_DESIRED_POLES
    gains: GainVector = field(init=False, compare=False, repr=False)

    kind = "sfc"

    def __post_init__(self):
        gains = design_gains(linearize(self.nominal), self.desired_poles)
        object.__setattr__(self, "gains", gains)


@dataclass(frozen=True)
class Scenario:
    """One closed-loop run: a plant, a controller, the initial state, the
    target position, the run's length and step, the control period, the
    disturbance events and the bounds that end a run early.  Every field is
    checked on construction (``ScenarioError`` naming it).  A numeric field
    must be a real number other than a bool, and is stored as a Python float."""

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
        typed = [(key, getattr(self, key), kind) for key, kind in expected.items()]
        typed += [(f"events[{i}]", e, DisturbanceEvent) for i, e in enumerate(self.events)]
        for key, value, kind in typed:
            if not isinstance(value, kind):
                raise ScenarioError(f"{key} must be a {kind.__name__}, got {type(value).__name__}")
        if not isinstance(self.controller, (FuzzyController, SFCController)):
            raise ScenarioError(f"unknown controller {self.controller!r}")
        _store(self, ("dt",), "positive and finite", ScenarioError)  # first: it may be the period
        _store(self, ("x_target", "duration", "control_period"), "finite", ScenarioError)
        _store(self, ("track_bound", "theta_limit_deg"), "positive", ScenarioError)  # inf: no bound
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
    import numpy as np

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
    import numpy as np

    kernels.check_backend(backend)
    p = scenario.params
    params = (p.g, p.m_c, p.m, p.l, p.mu_c, p.mu_p, p.f_max)
    state0 = (*scenario.initial.as_tuple(), scenario.initial.tilt)
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
    """Step-response metrics of one signal, in its unit: the peak excursions
    past the setpoint and back, and when it settled in its band."""

    overshoot: float
    undershoot: float
    settling_time: float | None  # None = never settled within the run


@dataclass(frozen=True)
class MetricsReport:
    """The six comparison metrics: per signal, peak excursions past the
    setpoint and the time after which the signal stays inside the band.

    theta metrics are in degrees, x metrics in meters.  The cart-position
    signal is labelled "x (z)" in rendered tables; this is the quantity some
    published tables call z.  The bands are the Python floats
    ``compute_metrics`` checked.
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
    import numpy as np

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
    """The step-response metrics of a run with at least one row.  A settling
    band must be a positive, finite real number other than a bool
    (``ScenarioError``); the report holds it as a Python float."""
    import numpy as np

    theta_band_deg = _real("theta_band_deg", theta_band_deg, "positive and finite", ScenarioError)
    x_band_m = _real("x_band_m", x_band_m, "positive and finite", ScenarioError)
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
_DEGREE_COLUMNS = (1.0, _DEG, _DEG, 1.0, 1.0, 1.0, _DEG)  # numpy broadcasts it as float64
_ROW_FORMAT = ",".join(["%.6g"] * 7) + "\n"
_EMIT_BLOCK_ROWS = 1024  # long enough to spread numpy's call cost, short enough to stay in cache
_CELL_BYTES = 16  # a cell's text and separator, NULs in the gaps
# A cell is decided when 1e-300 <= |v| < 1e300.  log10 may round across a
# power of ten, so the tables span one more decimal exponent on each side.
_EXP_LO, _EXP_HI = -301, 300


def emit_trajectory(traj: Trajectory, destination: str | Path | IO[str]) -> None:
    """Write the trajectory as CSV, angles in degrees, 6 significant digits.

    Rows are scaled to degrees and written a block at a time, so the
    transient memory is one block, not the whole text.  Each cell reads as
    ``"%.6g" % v`` would (``_write_block``).
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
        _write_block(data[start:start + _EMIT_BLOCK_ROWS] * _DEGREE_COLUMNS, out)


def _write_block(block, out):
    """Write the rows of a (rows, 7) float64 block exactly as
    ``_ROW_FORMAT % row`` writes them: numpy lays out each row whose cells
    ``_layout_cells`` decides, and ``%`` formats the rest."""
    cells, undecided = _layout_cells(block)
    text = cells.tobytes()
    row_bytes = 7 * _CELL_BYTES
    start = 0
    for row in undecided:
        out.write(text[start * row_bytes:row * row_bytes].translate(None, b"\0").decode("ascii"))
        out.write(_ROW_FORMAT % tuple(block[row].tolist()))
        start = row + 1
    out.write(text[start * row_bytes:].translate(None, b"\0").decode("ascii"))


def _layout_cells(block):
    """Each cell's ``%.6g`` text with its separator, in ``_CELL_BYTES`` bytes
    padded with NULs, and the rows holding a cell it does not decide.

    ``%.6g`` rounds |v| correctly to a 6-digit mantissa m in [1e5, 1e6)
    and an exponent X, |v| ~ m * 10**(X - 5); its text follows from the
    sign, m and X alone.  Here X = floor(log10|v|) and y = |v| * 10**(5 - X)
    by a correctly rounded power of ten, so y is within 3e-10 of its exact
    value.  A cell with 1e-300 <= |v| < 1e300 is decided when
    1e5 <= y < 999999.5 and |y - rint(y)| < 0.5 - 1e-7: then m = rint(y)
    for certain.  Should log10 round across a power of ten, y is off
    tenfold and fails the range, unless it is within 3e-10 of 1e5, where
    both exponents round |v| to 10**X.  Left undecided: NaN, infinities,
    |v| out of that range, near-ties and a carry to 1e6.  Zeros print as
    ``0`` and ``-0``.

    The layout, as two little-endian words: byte 0 holds the sign; bytes
    1-7 the integer digits, the point and the fraction digits (fixed
    notation for -4 <= X <= 5, one integer digit otherwise), or ``0.`` and
    the zeros after it when X < 0; bytes 8-14 the exponent or, when X < 0
    in fixed notation, the digits; byte 15 the separator.  Trailing zeros
    of the fraction are dropped.
    """
    import numpy as np

    tables = _cell_tables()
    rows = block.shape[0]
    v = block.ravel()
    a = np.abs(v)
    decided = (a >= 1e-300) & (a < 1e300)  # False for NaN
    a = np.where(decided, a, 1.0)
    x = np.floor(np.log10(a)).astype(np.intp) - _EXP_LO
    y = a * tables.scale[x]
    m = np.rint(y)
    decided &= (y >= 1e5) & (y < 999999.5) & (np.abs(y - m) < 0.5 - 1e-7)
    zero = v == 0
    m = np.where(decided, m, 1e5)  # a carry or a misplaced y indexes no table
    high, low = np.divmod(m.astype(np.intp), 1000)
    digits = tables.digits[high] | tables.digits[low] << 24
    significant = digits & (tables.kept_high[high] | tables.kept_low[low])
    shift = tables.integer_bits[x]
    fraction = significant >> shift
    point = (fraction != 0) * (ord(".") << shift)
    body = digits & ((1 << shift) - 1) | point | fraction << (shift + 8)
    prefix = tables.prefix[x]
    below_one = prefix != 0
    body = np.where(zero, ord("0"), np.where(below_one, prefix, body))
    tail = np.where(below_one, significant, tables.exponent[x])
    cells = np.empty((rows, 7, 2), "<u8")
    cells[..., 0] = (np.signbit(v) * np.uint64(ord("-")) | body << 8).reshape(rows, 7)
    cells[..., 1] = tail.reshape(rows, 7) | tables.separator
    undecided = np.unique(np.flatnonzero(~(decided | zero)) // 7)
    return cells, undecided.tolist()


@functools.cache
def _cell_tables():
    """The lookup tables of ``_layout_cells``, indexed by X - _EXP_LO or by
    a 3-digit group; built on the first export, so importing fuzzpole loads
    no numpy."""
    import numpy as np

    def packed(texts):
        return np.array([int.from_bytes(t.encode("ascii"), "little") for t in texts], np.uint64)

    exponents = range(_EXP_LO, _EXP_HI + 1)
    groups = [f"{n:03d}" for n in range(1000)]
    kept = [(1 << 8 * len(g.rstrip("0"))) - 1 for g in groups]
    return SimpleNamespace(
        scale=np.array([float(f"1e{5 - e}") for e in exponents]),
        integer_bits=np.array([8 * (e + 1 if 0 <= e <= 5 else 1) for e in exponents], np.uint64),
        prefix=packed("0." + "0" * (-e - 1) if -4 <= e < 0 else "" for e in exponents),
        exponent=packed("" if -4 <= e <= 5 else f"e{e:+03d}" for e in exponents),
        digits=packed(groups),
        kept_high=np.array(kept, np.uint64),
        kept_low=np.array([k << 24 | (n and 0xFFFFFF) for n, k in enumerate(kept)], np.uint64),
        separator=np.array([ord(",") << 56] * 6 + [ord("\n") << 56], np.uint64),
    )


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
    """A scenario and the settling bands of its metrics section, checked and
    worded as ``compute_metrics`` checks a band and stored as Python floats."""

    scenario: Scenario
    theta_band_deg: float = DEFAULT_THETA_BAND_DEG
    x_band_m: float = DEFAULT_X_BAND_M

    def __post_init__(self):
        _store(self, ("theta_band_deg", "x_band_m"), "positive and finite", ScenarioError)


# One key table per config section: key -> reader ``(path, value)``, where
# ``path`` is the key's place in the file (``scenario.initial.theta_deg``).
# A reader converts units and structure only: each value is checked once,
# by the object built from its section (``_build``).  Absent keys are not
# passed on, so the dataclass defaults apply.


def _as_is(path: str, value):
    return value


def _object(path: str, value) -> Mapping:
    if not isinstance(value, Mapping):
        raise ScenarioError(f"{path} must be an object, got {type(value).__name__}")
    return value


def _list(path: str, value) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise ScenarioError(f"{path} must be a list, got {type(value).__name__}")
    return value


def _build(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its typed error reported as the
    ScenarioError ``<path>: <message>``."""
    try:
        return make(*args, **kwargs)
    except INPUT_ERRORS as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _radians(path: str, value) -> float:
    return math.radians(_real(path, value, "a real number", ScenarioError))


def _pole(path: str, value) -> complex | float:
    if not isinstance(value, (list, tuple)):
        return value
    if len(value) != 2:
        raise ScenarioError(f"{path}: a complex pole is a [re, im] pair, got {list(value)}")
    return complex(*(_real(path, part, "a real number", ScenarioError) for part in value))


def _poles(path: str, values) -> tuple:
    return tuple(_pole(path, p) for p in _list(path, values))


def _preset(path: str, value) -> PlantParams:
    return _build(path, pole_params, value)


def _period(path: str, value):
    # Scenario reads None as every step, which a file says by leaving the key out
    if value is None:
        raise ScenarioError(f"{path} must not be null; leave it out to control at every step")
    return value


def _section(path: str, cfg, schema: Mapping) -> dict:
    values = {}
    for key, value in _object(path, cfg).items():
        if key not in schema:
            raise ScenarioError(
                f"unknown key {key!r} in {path}; allowed: {', '.join(schema)}"
            )
        values[key] = schema[key](f"{path}.{key}", value)
    return values


# initial-state key -> (PlantState field, reader to SI units)
_INITIAL_KEYS = {
    "theta_deg": ("theta", _radians),
    "theta_dot_deg_s": ("theta_dot", _radians),
    "x_m": ("x", _as_is),
    "x_dot_m_s": ("x_dot", _as_is),
    "tilt_deg": ("tilt", _radians),
}
# event kind -> key of its value, in degrees
_EVENT_VALUE_KEYS = {"tap": "delta_theta_dot_deg_s", "set_tilt": "angle_deg"}


def _initial(path: str, cfg) -> PlantState:
    schema = {key: read for key, (_, read) in _INITIAL_KEYS.items()}
    values = _section(path, cfg, schema)
    return _build(path, PlantState, **{_INITIAL_KEYS[k][0]: v for k, v in values.items()})


def _events(path: str, items) -> tuple[DisturbanceEvent, ...]:
    events = []
    for i, item in enumerate(_list(path, items)):
        name = f"{path}[{i}]"
        kind = _object(name, item).get("kind")
        if not isinstance(kind, str) or kind not in _EVENT_VALUE_KEYS:
            raise ScenarioError(f"unknown event kind {kind!r} in {name} (tap or set_tilt)")
        value_key = _EVENT_VALUE_KEYS[kind]
        e = _section(name, item, {"t": _as_is, "kind": _as_is, value_key: _radians})
        try:
            t, value = e["t"], e[value_key]
        except KeyError as exc:
            raise ScenarioError(f"{name}: missing key {exc}") from exc
        events.append(_build(name, DisturbanceEvent, t, kind, value))
    return tuple(events)


_TOP_KEYS = dict.fromkeys(("plant", "scenario", "controller", "metrics"), _as_is)
_PLANT_KEYS = {"preset": _preset, **{f.name: _as_is for f in fields(PlantParams)}}
_SCENARIO_KEYS = {
    **{f.name: _as_is for f in fields(Scenario)
       if f.name not in ("params", "controller", "initial", "events")},
    "control_period": _period,
    "initial": _initial,
    "events": _events,
}
_FC_KEYS = dict.fromkeys(("type", "rules"), _as_is)
_SFC_KEYS = {"type": _as_is, "nominal_pole": _preset, "desired_poles": _poles}
_METRICS_KEYS = {f.name: _as_is for f in fields(ScenarioBundle) if f.name != "scenario"}


def _controller(cfg, base_dir: Path) -> FuzzyController | SFCController:
    kind = _object("controller", cfg).get("type")
    if kind == "fc":
        rules = _section("controller", cfg, _FC_KEYS).get("rules", "builtin")
        if not isinstance(rules, str):
            raise ScenarioError(f"controller.rules must be a string, got {type(rules).__name__}")
        if rules == "builtin":
            kb = builtin_pole_kb()
        else:  # a relative path is relative to base_dir
            path = base_dir / rules
            try:
                text = path.read_text(encoding="utf-8")
            except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or not UTF-8
                raise ScenarioError(f"cannot read controller.rules file {path}: {exc}") from exc
            kb = _build(f"controller.rules: {path}", load_kb, text)
        return _build("controller.rules", FuzzyController, kb)  # an undriven variable
    if kind == "sfc":
        c = _section("controller", cfg, _SFC_KEYS)
        del c["type"]
        nominal = c.pop("nominal_pole") if "nominal_pole" in c else pole_params("pole-1")
        # the gains are designed on construction
        return _build("controller.desired_poles", SFCController, nominal, **c)
    raise ScenarioError(f"unknown controller type {kind!r} (fc or sfc)")


def scenario_from_config(
    cfg: Mapping, base_dir: str | Path = ".", **scenario_keys
) -> ScenarioBundle:
    """Build a scenario from the parsed JSON configuration sections
    (plant / scenario / controller / metrics).  Unknown keys and sections
    that are not objects are rejected; absent keys take the defaults of
    ``Scenario``, ``PlantState`` and ``ScenarioBundle``.  Each value is
    checked by the object built from its section, whose error is reported
    under the section (``scenario: dt must be ...``).  Keyword arguments
    set keys of the scenario section over what ``cfg`` holds."""
    top = _section("the configuration", cfg, _TOP_KEYS)
    plant = _section("plant", top.get("plant", {}), _PLANT_KEYS)
    params = _build("plant", replace, plant.pop("preset", PlantParams()), **plant)
    controller = _controller(top.get("controller", {"type": "fc"}), Path(base_dir))
    section = {**_object("scenario", top.get("scenario", {})), **scenario_keys}
    s = {"name": "scenario", **_section("scenario", section, _SCENARIO_KEYS)}
    scenario = _build("scenario", Scenario, params=params, controller=controller, **s)
    metrics = _section("metrics", top.get("metrics", {}), _METRICS_KEYS)
    return _build("metrics", ScenarioBundle, scenario, **metrics)


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

