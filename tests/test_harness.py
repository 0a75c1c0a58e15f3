import ast
import csv
import io
import json
import logging
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzpole import harness
from fuzzpole.harness import (
    MAX_STEPS,
    TRAJECTORY_HEADER,
    Comparison,
    FuzzyController,
    SFCController,
    ScenarioBundle,
    ScenarioError,
    SignalMetrics,
    Trajectory,
    _signal_metrics,
    compare,
    compute_metrics,
    default_scenario,
    emit_trajectory,
    load_scenario,
    run,
    scenario_from_config,
)
from fuzzpole.cli import main
from fuzzpole.kernels import KernelError
from fuzzpole.plant import PlantError, PlantState, pole_params, set_tilt, tap
from fuzzpole.rulelang import builtin_pole_kb, load_kb
from fuzzpole.sfc import DEFAULT_DESIRED_POLES, DesignError, design_gains, linearize


def test_flat_trajectory_at_equilibrium_sfc():
    # u = -k*0 is exactly zero, so the state never leaves the origin
    scenario = default_scenario(1, "sfc", x_target=0.0, duration=2.0)
    traj = run(scenario)
    assert traj.termination == "completed"
    assert np.all(traj.theta == 0.0)
    assert np.all(traj.x == 0.0)
    assert np.all(traj.x_dot == 0.0)
    assert np.all(traj.force == 0.0)
    assert traj.t[0] == 0.0 and traj.t[-1] == pytest.approx(2.0)
    assert np.all(np.diff(traj.t) > 0)


def test_flat_trajectory_at_equilibrium_fc():
    """The quantized center-of-area leaves a ~4e-18 N residue at the exact
    origin, which the friction sign discontinuity amplifies into stick-slip
    hunting; the trajectory stays microscopic but is not bitwise zero."""
    scenario = default_scenario(1, "fc", x_target=0.0, duration=2.0)
    traj = run(scenario)
    assert traj.termination == "completed"
    assert np.max(np.abs(traj.theta)) < 2e-4  # rad; ~0.01 deg
    assert np.max(np.abs(traj.x)) < 1e-3  # m
    assert np.max(np.abs(traj.force)) < 0.05  # N


def test_scenario_validation():
    with pytest.raises(ScenarioError):
        default_scenario(1, "fc", duration=-1.0)
    with pytest.raises(ScenarioError):
        default_scenario(1, "fc", dt=0.005, control_period=0.007)
    with pytest.raises(ScenarioError):
        default_scenario(1, "fc", dt=0.005, control_period=0.004)
    with pytest.raises(ScenarioError):
        default_scenario(1, "bang-bang")
    for field in ("dt", "duration", "control_period"):
        for value in (math.nan, math.inf):
            with pytest.raises(ScenarioError, match=field):
                default_scenario(1, "fc", **{field: value})
    base = default_scenario(1, "fc", duration=1.0)
    for field in ("track_bound", "theta_limit_deg"):
        for value in (0.0, -1.0, math.nan):
            with pytest.raises(ScenarioError, match=field):
                replace(base, **{field: value})
        assert run(replace(base, **{field: math.inf})).completed
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ScenarioError, match="x_target"):
            replace(base, x_target=value)
        for field in ("theta", "theta_dot", "x", "x_dot", "tilt"):
            with pytest.raises(PlantError, match=f"state {field} must be finite"):
                replace(base, initial=PlantState(**{field: value}))
    for duration in (0.0, 0.004):
        with pytest.raises(ScenarioError, match="duration"):
            replace(base, duration=duration)
    one_step = run(replace(base, duration=base.dt))
    assert one_step.completed and one_step.data.shape[0] == 2
    # the row cap is checked when the scenario is built, before any allocation
    assert replace(base, duration=MAX_STEPS * base.dt).n_steps == MAX_STEPS
    for duration in ((MAX_STEPS + 1) * base.dt, 1e9):
        with pytest.raises(ScenarioError, match=f"cap of {MAX_STEPS}"):
            replace(base, duration=duration)
    with pytest.raises(ScenarioError, match="cap"):  # duration / dt overflows
        replace(base, dt=1e-300, control_period=1e-300, duration=1e300)
    with pytest.raises(ScenarioError, match="control_period"):  # so does this ratio
        replace(base, dt=1e-300, duration=1e-300, control_period=1e300)
    with pytest.raises(ScenarioError, match="unknown controller 'bang-bang'"):
        replace(base, controller="bang-bang")


@pytest.mark.parametrize(
    "fields, message",
    [
        pytest.param({"events": ((0.01, "tap", 0.1),)},
                     "events[0] must be a DisturbanceEvent, got tuple", id="event-as-tuple"),
        pytest.param({"events": tap(0.01, 0.1)},
                     "events must be a tuple or list, got DisturbanceEvent", id="bare-event"),
        pytest.param({"initial": (0.1, 0, 0, 0, 0)},
                     "initial must be a PlantState, got tuple", id="initial-as-tuple"),
        pytest.param({"params": {"m": 0.1}},
                     "params must be a PlantParams, got dict", id="params-as-dict"),
        pytest.param({"name": None}, "name must be a str, got NoneType", id="name-none"),
        pytest.param({"events": [tap(0.01, 0.1)]}, None, id="events-as-list"),
    ],
)
def test_scenario_fields_are_typed(fields, message):
    """A field of the wrong type is a ScenarioError naming it when the
    scenario is built, not an untyped error in ``run`` or ``compare``; a
    list of events is stored as a tuple, so the scenario stays hashable."""
    base = default_scenario(1, "sfc", duration=1.0)
    if message is not None:
        with pytest.raises(ScenarioError, match=re.escape(message)):
            replace(base, **fields)
        return
    scenario = replace(base, **fields)
    assert scenario.events == (tap(0.01, 0.1),)
    assert hash(scenario) == hash(replace(base, events=(tap(0.01, 0.1),)))


@pytest.mark.parametrize(
    "name", ["dt", "duration", "control_period", "x_target", "track_bound", "theta_limit_deg"]
)
def test_scenario_numeric_fields_are_real_numbers(name):
    """A numeric field that is not a real number is a ScenarioError naming
    it, not a bare TypeError from the range checks."""
    base = default_scenario(1, "sfc", duration=1.0)
    for value in ("0.005", None, 1j):
        if name == "control_period" and value is None:
            continue  # None means every step
        with pytest.raises(ScenarioError, match=f"{name} must be a real number"):
            replace(base, **{name: value})


def test_absent_control_period_is_dt():
    """Built in code or read from a file, a scenario without a control
    period updates the force at every step."""
    for scenario in (
        default_scenario(1, "fc", dt=0.01, duration=1.0),
        scenario_from_config({"scenario": {"dt": 0.01, "duration": 1.0}}).scenario,
    ):
        assert scenario.control_period == 0.01 and scenario.control_every == 1
        assert run(scenario).completed
    assert default_scenario(1, "fc").control_period == 0.005


# --- metrics -----------------------------------------------------------------


def test_metrics_constant_at_setpoint():
    t = np.linspace(0, 10, 101)
    m = _signal_metrics(t, np.full(101, 0.5), 0.5, 0.02)
    assert m == SignalMetrics(0.0, 0.0, 0.0)


def test_metrics_synthetic_damped_oscillation():
    """sp + e^-t cos(5t): peak sizes and band-exit computed analytically."""
    sp, band = 2.0, 0.05
    t = np.linspace(0, 12, 240001)
    y = sp + np.exp(-t) * np.cos(5 * t)
    m = _signal_metrics(t, y, sp, band)

    # extrema of e^-t cos 5t at tan(5t) = -5 ... derivative zero when
    # -cos(5t) - 5 sin(5t) = 0 => tan(5t) = -1/5
    base = math.pi - math.atan(0.2)
    extrema = [(base + k * math.pi) / 5 for k in range(4)]
    values = [math.exp(-tt) * math.cos(5 * tt) for tt in extrema]
    # signal starts above the setpoint: approach is downward, overshoot is the
    # deepest dip below, undershoot the tallest rebound above after crossing
    expected_overshoot = -min(v for v in values if v < 0)
    expected_undershoot = max(v for v in values if v > 0)
    assert m.overshoot == pytest.approx(expected_overshoot, rel=1e-6)
    assert m.undershoot == pytest.approx(expected_undershoot, rel=1e-6)

    # settling: last crossing of |e^-t cos 5t| = band, bisected on the
    # continuous function within the sampled bracket
    outside = np.nonzero(np.abs(y - sp) > band)[0]
    lo, hi = t[outside[-1]], t[outside[-1] + 1]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if abs(math.exp(-mid) * math.cos(5 * mid)) > band:
            lo = mid
        else:
            hi = mid
    assert m.settling_time == pytest.approx(hi, abs=t[1] - t[0])


def test_metrics_never_settled_marker():
    t = np.linspace(0, 10, 101)
    y = np.sin(t)  # keeps leaving the band
    m = _signal_metrics(t, y, 0.0, 0.1)
    assert m.settling_time is None


def test_metrics_initial_offset_not_undershoot():
    t = np.linspace(0, 10, 1001)
    y = 0.5 * (1 - np.exp(-t))  # monotone approach to 0.5, never beyond
    m = _signal_metrics(t, y, 0.5, 0.01)
    assert m.overshoot == 0.0
    assert m.undershoot == 0.0


def test_metrics_invariant_under_settled_padding():
    scenario = default_scenario(1, "fc", duration=20.0)
    traj = run(scenario)
    report = compute_metrics(traj, scenario)
    n_pad = 400
    last = traj.data[-1].copy()
    pad = np.tile(last, (n_pad, 1))
    pad[:, 0] = last[0] + scenario.dt * np.arange(1, n_pad + 1)
    padded = Trajectory(np.vstack([traj.data, pad]), traj.termination)
    padded_report = compute_metrics(padded, scenario)
    assert padded_report.theta.overshoot == report.theta.overshoot
    assert padded_report.theta.undershoot == report.theta.undershoot
    assert padded_report.x.overshoot == report.x.overshoot
    # settling values only move if the signal was still outside the band
    if report.x.settling_time is not None:
        assert padded_report.x.settling_time == report.x.settling_time


def test_report_has_six_metric_rows():
    scenario = default_scenario(1, "fc", duration=5.0)
    result = compare([scenario])
    rows = result.rows()
    assert [r[0] for r in rows[:6]] == [
        "Max. theta overshoot (deg)",
        "Max. theta undershoot (deg)",
        "theta settling time (s)",
        "Max. x (z) overshoot (cm)",
        "Max. x (z) undershoot (cm)",
        "x (z) settling time (s)",
    ]


# --- comparison --------------------------------------------------------------


def test_compare_single_column_degenerate():
    scenario = default_scenario(1, "fc", duration=5.0)
    result = compare([scenario])
    assert result.columns == [scenario.name]
    text = result.render_text()
    assert "settling bands" in text
    assert scenario.name in text


def test_compare_failed_cell_isolated(monkeypatch):
    """A failed run fills only its own column.  A name or a reason holding a
    comma or a quote is one quoted CSV field, so every row keeps the
    header's field count."""
    good = default_scenario(1, "fc", duration=2.0, name="pole-1, step")
    bad = default_scenario(2, "fc", duration=2.0, name="broken")
    import fuzzpole.harness as harness_mod

    original = harness_mod.run

    def flaky(scenario, backend=None):
        if scenario.name == "broken":
            raise ScenarioError('synthetic failure, "quoted"')
        return original(scenario, backend=backend)

    monkeypatch.setattr(harness_mod, "run", flaky)
    result = harness_mod.compare([good, bad])
    assert "broken" in result.failures
    assert result.reports[good.name] is not None
    text = result.to_csv()
    assert text.count("\n") == 8  # header + 6 metrics + termination
    header, *rows = csv.reader(io.StringIO(text))
    assert header == ["metric", "pole-1, step", "broken"]
    assert [len(row) for row in rows] == [3] * 7
    assert rows[0][2] == 'FAILED(synthetic failure, "quoted")'
    assert rows[-1] == ["termination", "completed", "FAILED"]


def test_footer_bands_come_from_the_reports(monkeypatch):
    """The footer prints the bands of the first column with a report; when
    every column FAILED there is none, and it prints the default bands."""
    import fuzzpole.harness as harness_mod

    def failing(scenario, backend=None):
        raise ScenarioError("synthetic failure")

    monkeypatch.setattr(harness_mod, "run", failing)
    scenarios = [default_scenario(1, "sfc", duration=1.0, name=n) for n in ("a", "b")]
    result = harness_mod.compare(scenarios)
    assert result.failures.keys() == {"a", "b"}
    assert result.render_text().endswith(
        "\nsettling bands: theta within +/-0.1 deg, x within +/-2 cm of the setpoint, "
        "sustained to the end of the run\n"
    )
    monkeypatch.undo()
    scenario = scenarios[1]
    report = compute_metrics(run(scenario), scenario, 0.2, 0.05)
    table = Comparison(["a", "b"], {"a": None, "b": report}, {"a": "synthetic failure"})
    assert "theta within +/-0.2 deg, x within +/-5 cm" in table.render_text()


def test_compare_lets_other_errors_propagate(monkeypatch):
    """Only the typed input errors become FAILED cells; a programming error
    in a kernel reaches the caller."""
    import fuzzpole.harness as harness_mod

    def broken(scenario, backend=None):
        raise RuntimeError("kernel bug")

    monkeypatch.setattr(harness_mod, "run", broken)
    with pytest.raises(RuntimeError, match="kernel bug"):
        harness_mod.compare([default_scenario(1, "fc", duration=1.0)])


def test_compare_rejects_repeated_names():
    """Columns are keyed by scenario name: two scenarios named alike would
    show one run's results in both columns, so compare refuses them."""
    fc = default_scenario(1, "fc", duration=1.0, name="x")
    sfc = default_scenario(7, "sfc", nominal_pole=1, duration=1.0, name="x")
    with pytest.raises(ScenarioError, match=r"unique, repeated: \['x'\]"):
        compare([fc, sfc])


def test_compare_grid_matches_published_layout():
    scenarios = [
        default_scenario(pole, ctrl, duration=2.0, name=f"pole-{pole} {ctrl.upper()}")
        for pole in (1, 2, 6)
        for ctrl in ("fc", "sfc")
    ]
    result = compare(scenarios)
    assert len(result.columns) == 6
    header = result.to_csv().splitlines()[0]
    assert header == "metric,pole-1 FC,pole-1 SFC,pole-2 FC,pole-2 SFC,pole-6 FC,pole-6 SFC"


# --- CSV export --------------------------------------------------------------


def make_tiny_trajectory():
    data = np.array(
        [
            [0.0, 0.0, 0.0, 0.0, 0.0, -1.6658, 0.0],
            [0.005, 0.001, 0.2, 0.0001, 0.01, -1.6658, 0.0],
            [0.01, 0.002, 0.3, 0.0005, 0.02, 0.4, 0.1222],
        ]
    )
    return Trajectory(data, "completed")


def test_emit_header_and_row_count(tmp_path):
    path = tmp_path / "traj.csv"
    emit_trajectory(make_tiny_trajectory(), path)
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0] == "t,theta_deg,theta_dot_deg_s,x_m,x_dot_m_s,force_N,tilt_deg"


def test_emit_angles_in_degrees(tmp_path):
    path = tmp_path / "traj.csv"
    emit_trajectory(make_tiny_trajectory(), path)
    last = path.read_text().splitlines()[-1].split(",")
    assert float(last[1]) == pytest.approx(math.degrees(0.002), rel=1e-5)
    assert float(last[6]) == pytest.approx(math.degrees(0.1222), rel=1e-5)


def test_emit_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_trajectory(make_tiny_trajectory(), a)
    emit_trajectory(make_tiny_trajectory(), b)
    assert a.read_bytes() == b.read_bytes()


def test_emit_round_trip_six_digits():
    traj = make_tiny_trajectory()
    buffer = io.StringIO()
    emit_trajectory(traj, buffer)
    lines = buffer.getvalue().splitlines()[1:]
    deg = 180.0 / math.pi
    scale = np.array([1.0, deg, deg, 1.0, 1.0, 1.0, deg])
    for line, row in zip(lines, traj.data):
        parsed = np.array([float(v) for v in line.split(",")])
        expected = row * scale
        mask = expected != 0
        assert np.allclose(parsed[mask], expected[mask], rtol=1e-5)


def _emit_reference(traj):
    """CSV text cell by cell: numpy rows, degrees by one multiply, f"{v:.6g}"."""
    deg = 180.0 / math.pi
    lines = ["t,theta_deg,theta_dot_deg_s,x_m,x_dot_m_s,force_N,tilt_deg"]
    for row in traj.data:
        cells = (row[0], row[1] * deg, row[2] * deg, row[3], row[4], row[5], row[6] * deg)
        lines.append(",".join(f"{v:.6g}" for v in cells))
    return "\n".join(lines) + "\n"


def test_emit_matches_per_cell_reference():
    """Byte for byte against the per-cell formatting on a 10k-row run, with
    signed zeros, infinities, NaN, a subnormal, a rounding tie and huge
    values in every column, and trajectories shorter and longer than one
    block of rows."""
    data = run(default_scenario(1, "sfc", duration=50.0, nominal_pole=1)).data.copy()
    assert data.shape[0] == 10001
    specials = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 999999.5, 1e300, -1e300]
    for i, value in enumerate(specials):
        data[1 + 1237 * i, :] = value
        data[2 + 1237 * i, i % 7] = value
    block = harness._EMIT_BLOCK_ROWS
    for rows in (data[:3], data[:block], data[:block + 1], data[:2 * block - 1], data):
        traj = Trajectory(rows, "completed")
        buffer = io.StringIO()
        emit_trajectory(traj, buffer)
        assert buffer.getvalue() == _emit_reference(traj)


class _CountingFormat(str):
    """``harness._ROW_FORMAT`` that counts the rows ``%`` formats."""

    rows = 0

    def __mod__(self, values):
        self.rows += 1
        return str.__mod__(self, values)


def _assert_block_matches_cells(values, monkeypatch=None):
    """``harness._write_block`` reads cell by cell as ``"%.6g" % v`` over
    one row per value, the value in column i % 7 of row i and 0.5 in the
    others, so that no other cell of its row sends it to ``%``.  Returns
    the number of rows ``%`` formatted."""
    block = np.full((len(values), 7), 0.5)
    block[np.arange(len(values)), np.arange(len(values)) % 7] = values
    counting = _CountingFormat(harness._ROW_FORMAT)
    if monkeypatch is not None:
        monkeypatch.setattr(harness, "_ROW_FORMAT", counting)
    out = io.StringIO()
    harness._write_block(block, out)
    got = [line.split(",") for line in out.getvalue().split("\n")]
    assert got.pop() == [""]
    assert got == [["%.6g" % v for v in row] for row in block.tolist()]
    return counting.rows


_TIE_MANTISSAS = list(range(100000, 1000000, 8123)) + [100000, 999999]


def _adversarial_cells():
    cells = []
    for k in range(-310, 309):  # 10**k and 1-4 ulps either side
        up = down = float(f"1e{k}")
        cells.append(up)
        for _ in range(4):
            up, down = math.nextafter(up, math.inf), math.nextafter(down, 0.0)
            cells += [up, down]
    for edge in (9.999995e-5, 1e-4, 99999.95, 999999.5, 999999.4999999999, 1e5, 1e6,
                 1e-300, 1e300, 123456.5 - 1e-7, 123456.5 + 1e-7, 123456.5 - 2e-7):
        cells += [edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)]
    for m in _TIE_MANTISSAS:  # exactly representable 6-digit ties and their kin
        cells += [(m + 0.5) * 2.0**-j for j in range(13)]
        cells += [float((10 * m + 5) * 10**k) for k in range(9)]
    cells += [-v for v in cells] + [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324]
    return cells


def test_block_formatter_matches_percent_on_adversarial_cells(monkeypatch):
    """Powers of ten and their neighbours, the fixed/exponent switch points,
    a carry to 1e6, exact ties and both edges of the decided range: numpy's
    text is ``%``'s, and ``%`` itself formats the rows numpy leaves."""
    cells = _adversarial_cells()
    fallback = _assert_block_matches_cells(cells, monkeypatch)
    assert 0 < fallback < len(cells)


_near_ties = st.builds(
    lambda m, e, sign: sign * (m + 0.5) * 10.0**e,
    st.integers(100000, 999999), st.integers(-310, 300), st.sampled_from((1.0, -1.0)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(width=64), _near_ties), min_size=1, max_size=49))
def test_block_formatter_matches_percent(values):
    """Any float64 cell, NaN, infinities, signed zeros and subnormals included,
    and cells a rounding error from a 6-digit tie."""
    _assert_block_matches_cells(values)


def test_emit_one_row_is_one_line():
    traj = Trajectory(np.array([[0.5, math.pi / 180, -1.0, 1e-5, 123456.5, -0.0, 0.0]]), "completed")
    buffer = io.StringIO()
    emit_trajectory(traj, buffer)
    assert buffer.getvalue() == TRAJECTORY_HEADER + "\n0.5,1,-57.2958,1e-05,123456,-0,0\n"


def test_emit_write_failure_names_path(tmp_path):
    target = tmp_path / "missing-dir" / "traj.csv"
    with pytest.raises(ScenarioError) as err:
        emit_trajectory(make_tiny_trajectory(), target)
    assert "traj.csv" in str(err.value)


# --- determinism and symmetry -------------------------------------------------


def test_repeated_runs_byte_identical(tmp_path):
    scenario = default_scenario(1, "fc", duration=10.0)
    paths = []
    for name in ("one.csv", "two.csv"):
        path = tmp_path / name
        emit_trajectory(run(scenario), path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_mirror_scenario_negates_trajectory():
    base = default_scenario(1, "fc", x_target=0.5, duration=20.0)
    mirrored = default_scenario(1, "fc", x_target=-0.5, duration=20.0)
    a = run(base)
    b = run(mirrored)
    assert a.termination == b.termination
    assert np.allclose(b.theta, -a.theta, atol=1e-9)
    assert np.allclose(b.x, -a.x, atol=1e-9)
    assert np.allclose(b.force, -a.force, atol=1e-9)


_RNG_MODULES = ("random", "secrets", "numpy.random")


def _rng_uses(source: str) -> list[tuple[int, str]]:
    """(line, what) of each import of a random-number module in ``source``,
    and of each ``np.random``/``numpy.random`` attribute."""

    def banned(module: str) -> bool:
        return any(module == m or module.startswith(m + ".") for m in _RNG_MODULES)

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if banned(a.name)]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found += [
                (node.lineno, f"{node.module}.{a.name}")
                for a in node.names
                if banned(node.module) or banned(f"{node.module}.{a.name}")
            ]
        elif (
            isinstance(node, ast.Attribute) and node.attr == "random"
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
        ):
            found.append((node.lineno, f"{node.value.id}.random"))
    return found


def test_no_module_draws_random_numbers():
    """Runs are deterministic: no module of the package imports a random
    number generator or reaches numpy's."""
    forms = [
        "import random", "import secrets as s", "from random import choice",
        "from secrets import token_hex", "import numpy.random",
        "from numpy import random", "from numpy.random import default_rng",
        "import numpy as np\nnp.random.default_rng(0)", "numpy.random.seed",
    ]
    assert [form for form in forms if not _rng_uses(form)] == []
    assert _rng_uses("import numpy as np\nfrom . import kernels\nnp.zeros(3)") == []
    src = Path(__file__).resolve().parent.parent / "src" / "fuzzpole"
    modules = sorted(src.glob("*.py"))
    assert modules
    found = {
        path.name: uses
        for path in modules
        if (uses := _rng_uses(path.read_text(encoding="utf-8")))
    }
    assert found == {}


# --- configuration files -------------------------------------------------------


def write_config(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


FULL_CONFIG = {
    "plant": {"preset": "pole-1"},
    "scenario": {
        "name": "tilt-experiment",
        "initial": {"theta_deg": 1.0},
        "x_target": 0.0,
        "duration": 50.0,
        "dt": 0.005,
        "control_period": 0.02,
        "track_bound": 6.0,
        "events": [
            {"t": 20.0, "kind": "set_tilt", "angle_deg": 7.0},
            {"t": 45.0, "kind": "set_tilt", "angle_deg": 0.0},
            {"t": 15.0, "kind": "tap", "delta_theta_dot_deg_s": 20.0},
        ],
    },
    "controller": {"type": "fc", "rules": "builtin"},
    "metrics": {"theta_band_deg": 0.2, "x_band_m": 0.05},
}


def test_load_full_config(tmp_path):
    bundle = load_scenario(write_config(tmp_path, FULL_CONFIG))
    s = bundle.scenario
    assert s.name == "tilt-experiment"
    assert s.params == pole_params(1)
    assert s.initial.theta == pytest.approx(math.radians(1.0))
    assert s.control_every == 4
    assert len(s.events) == 3
    assert bundle.theta_band_deg == 0.2


def test_config_sfc_controller(tmp_path):
    cfg = {
        "plant": {"preset": "pole-7"},
        "scenario": {"duration": 10.0, "track_bound": 10**400},  # past floats: no bound
        "controller": {
            "type": "sfc",
            "nominal_pole": "pole-1",
            "desired_poles": [-1.5, -1.6, -2.0, -2.2],
        },
    }
    bundle = load_scenario(write_config(tmp_path, cfg))
    assert bundle.scenario.params == pole_params(7)
    assert bundle.scenario.track_bound == math.inf
    assert bundle.scenario.controller.nominal == pole_params(1)


_FAR_POLES = [-1000.0, -1001.0, -1002.0, -1003.0]


@pytest.mark.parametrize(
    "poles, written, message",
    [
        ([-1, -2, -3], (-1, -2, -3), "need exactly 4 desired poles, got 3"),
        (
            [-1, -2, [-1, 1], [-1, 2]],
            (-1, -2, complex(-1, 1), complex(-1, 2)),
            "not closed under conjugation",
        ),
        ([math.nan, -1, -2, -3], (math.nan, -1, -2, -3), "desired poles must be finite"),
        (_FAR_POLES, tuple(_FAR_POLES), "placement verification failed"),
        ([[1]], None, re.escape("a complex pole is a [re, im] pair, got [1]")),
    ],
    ids=["three-poles", "unpaired-complex", "nan-pole", "far-poles", "malformed-pair"],
)
def test_config_rejects_poles_that_cannot_be_placed(tmp_path, capsys, poles, written, message):
    """A desired pole set that cannot be placed on the nominal model is
    rejected when the controller is built (``DesignError``), and when a
    scenario file is read, as a ScenarioError naming the key.  So is an
    entry that is neither a number nor a [re, im] pair, which has no
    Python form (``written`` is None)."""
    if written is not None:
        with pytest.raises(DesignError, match=message):
            SFCController(pole_params(1), written)
    cfg = {"controller": {"type": "sfc", "desired_poles": poles}}
    with pytest.raises(ScenarioError, match=f"controller.desired_poles: .*{message}"):
        scenario_from_config(cfg)
    assert main(["simulate", "--scenario", str(write_config(tmp_path, cfg))]) == 1
    err = capsys.readouterr().err
    assert "error: controller.desired_poles: " in err and "internal error" not in err


def test_sfc_gains_are_designed_when_the_controller_is_built():
    """The controller holds the gains of its nominal model and poles; they
    take no part in equality, so two controllers of one design compare
    equal."""
    ctrl = SFCController(pole_params(1))
    expected = design_gains(linearize(pole_params(1)), DEFAULT_DESIRED_POLES)
    assert np.array_equal(ctrl.gains.k, expected.k)
    assert ctrl == SFCController(pole_params(1)) and "gains" not in repr(ctrl)


@pytest.mark.parametrize("pole", [-2.0, -5.0])
def test_config_repeated_desired_poles_run(tmp_path, capsys, pole):
    cfg = {
        "scenario": {"x_target": 0.5, "duration": 10.0},
        "controller": {"type": "sfc", "desired_poles": [pole] * 4},
    }
    assert main(["simulate", "--scenario", str(write_config(tmp_path, cfg))]) == 0
    assert "termination: completed" in capsys.readouterr().out


_BOILER_RULES = """var pressure unit = Pa
  label LO triangle(0.0, 1.0, 2.0)
var F unit = N
  label ZE triangle(-1.0, 0.0, 1.0)
rule r1: IF pressure IS LO THEN F IS ZE
"""


def test_undriven_variable_fails_when_the_controller_is_built(tmp_path):
    """A rule base over a variable the harness does not drive is rejected
    by FuzzyController, and in a scenario file as a ScenarioError naming the
    key, before anything runs."""
    message = "variable 'pressure' has no input slot"
    with pytest.raises(KernelError, match=message):
        FuzzyController(load_kb(_BOILER_RULES))
    (tmp_path / "boiler.frl").write_text(_BOILER_RULES, encoding="utf-8")
    cfg = {"controller": {"type": "fc", "rules": "boiler.frl"}}
    with pytest.raises(ScenarioError, match=f"controller.rules: {message}"):
        scenario_from_config(cfg, base_dir=tmp_path)


def test_a_rules_file_that_is_not_utf8_is_a_scenario_error(tmp_path):
    (tmp_path / "utf16.frl").write_bytes("var \u03b8 unit = deg\n".encode("utf-16"))
    cfg = {"controller": {"type": "fc", "rules": "utf16.frl"}}
    with pytest.raises(ScenarioError, match="cannot read controller.rules file .*utf16.frl: "
                       "'utf-8' codec can't decode"):
        scenario_from_config(cfg, base_dir=tmp_path)


def test_config_rules_from_file(tmp_path):
    from fuzzpole.rulelang import builtin_pole_source

    rules = tmp_path / "my.frl"
    rules.write_text(builtin_pole_source(), encoding="utf-8")
    cfg = {
        "plant": {"preset": "pole-2"},
        "scenario": {"duration": 1.0},
        "controller": {"type": "fc", "rules": "my.frl"},
    }
    bundle = load_scenario(write_config(tmp_path, cfg))
    assert len(bundle.scenario.controller.kb.rules) == 13


def test_config_plant_overrides():
    bundle = scenario_from_config(
        {"plant": {"preset": "pole-1", "mu_c": 0.0, "mu_p": 0.0},
         "scenario": {"duration": 1.0},
         "controller": {"type": "fc"}}
    )
    assert bundle.scenario.params == pole_params(1, mu_c=0.0, mu_p=0.0)


def test_config_preset_mass_and_length_overrides():
    bundle = scenario_from_config(
        {"plant": {"preset": "pole-1", "m": 0.2, "l": 0.3, "g": 9.81},
         "controller": {"type": "fc"}}
    )
    assert bundle.scenario.params == replace(pole_params(1), m=0.2, l=0.3, g=9.81)
    assert pole_params(1, m=0.2).l == pole_params(1).l


def test_config_non_finite_values_are_scenario_errors():
    bad = (
        {"plant": {"preset": "pole-1", "g": math.inf}},
        {"plant": {"m": math.nan}},
        {"scenario": {"x_target": math.nan}},
        {"scenario": {"initial": {"theta_deg": math.nan}}},
        {"scenario": {"events": [{"t": math.nan, "kind": "tap",
                                  "delta_theta_dot_deg_s": 5.0}]}},
        {"scenario": {"events": [{"t": 1.0, "kind": "set_tilt",
                                  "angle_deg": math.inf}]}},
    )
    for cfg in bad:
        with pytest.raises(ScenarioError):
            scenario_from_config({**cfg, "controller": {"type": "fc"}})


def test_events_past_the_end_are_logged(caplog):
    kick = math.radians(20.0)
    scenario = default_scenario(
        1, "sfc", x_target=0.0, duration=20.0, name="short taps",
        events=(tap(15.0, kick), tap(35.0, kick), set_tilt(20.0, 0.1), tap(1e300, kick)),
    )
    with caplog.at_level(logging.WARNING, logger="fuzzpole.harness"):
        traj = run(scenario)
    assert traj.completed and np.all(traj.tilt == 0.0)
    warnings = [r.getMessage() for r in caplog.records]
    assert len(warnings) == 1
    assert "'short taps'" in warnings[0] and "3 event(s)" in warnings[0]

    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="fuzzpole.harness"):
        run(replace(scenario, duration=40.0, events=scenario.events[:2]))
    assert not caplog.records


def test_config_errors_are_scenario_errors(tmp_path):
    with pytest.raises(ScenarioError):
        scenario_from_config({"controller": {"type": "pid"}})
    with pytest.raises(ScenarioError):
        scenario_from_config(
            {"scenario": {"events": [{"t": 1.0, "kind": "earthquake"}]},
             "controller": {"type": "fc"}}
        )
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{not json", encoding="utf-8")
    with pytest.raises(ScenarioError):
        load_scenario(bad_json)
    long_number = tmp_path / "long.json"  # too many digits for json to read
    long_number.write_text('{"scenario": {"duration": %s}}' % ("1" * 5000), encoding="utf-8")
    with pytest.raises(ScenarioError, match="is not valid JSON"):
        load_scenario(long_number)
    with pytest.raises(ScenarioError):
        load_scenario(tmp_path / "does-not-exist.json")


def test_load_scenario_drops_a_byte_order_mark(tmp_path):
    step = Path(__file__).resolve().parent.parent / "scenarios" / "step.json"
    marked = tmp_path / "step.json"
    marked.write_bytes(b"\xef\xbb\xbf" + step.read_bytes())
    assert load_scenario(marked) == load_scenario(step)


_TAP = {"t": 1.0, "kind": "tap", "delta_theta_dot_deg_s": 5.0}


@pytest.mark.parametrize(
    "cfg, named",
    [
        ({"controler": {"type": "sfc"}}, "'controler'"),
        ({"goals": [{"name": "balance_pole", "variables": ["theta"]}]}, "'goals'"),
        ({"plant": {"preset": "pole-1", "mass": 0.2}}, "'mass'"),
        ({"scenario": {"duraton": 0.1, "integrater": "rk4"}}, "'duraton'"),
        ({"scenario": {"initial": {"theta": 1.0}}}, "'theta'"),
        ({"scenario": {"events": [{**_TAP, "angle_deg": 7.0}]}}, "'angle_deg'"),
        ({"controller": {"type": "fc", "quantisation": 51}}, "'quantisation'"),
        ({"controller": {"type": "fc", "quantization": 51}}, "'quantization'"),
        ({"controller": {"type": "fc", "nominal_pole": "pole-7"}}, "'nominal_pole'"),
        ({"controller": {"type": "sfc", "nominal": "pole-7"}}, "'nominal'"),
        ({"metrics": {"x_band": 0.05}}, "'x_band'"),
        ([{"plant": {"preset": "pole-1"}}], "the configuration must be an object"),
        ({"scenario": []}, "scenario must be an object"),
        ({"plant": "pole-1"}, "plant must be an object"),
        ({"controller": "fc"}, "controller must be an object"),
        ({"metrics": 0.1}, "metrics must be an object"),
        ({"scenario": {"initial": [1.0, 0.0]}}, "scenario.initial must be an object"),
        ({"scenario": {"events": [_TAP, ["tap", 2.0]]}}, "scenario.events[1] must be an object"),
    ],
    ids=[
        "top", "goals", "plant", "scenario", "initial", "event", "fc", "fc-quantization",
        "fc-sfc-key",
        "sfc", "metrics", "top-list", "scenario-list", "plant-string",
        "controller-string", "metrics-number", "initial-list", "event-list",
    ],
)
def test_config_schema_rejects_unknown_keys_and_non_objects(tmp_path, capsys, cfg, named):
    """A misspelt or extra key, a ``goals`` section, or a section or event
    that is not an object is a ScenarioError naming it, and exit 1."""
    with pytest.raises(ScenarioError, match=re.escape(named)):
        scenario_from_config(cfg)
    assert main(["simulate", "--scenario", str(write_config(tmp_path, cfg))]) == 1
    err = capsys.readouterr().err
    assert named in err and "internal error" not in err


@pytest.mark.parametrize(
    "cfg, named",
    [
        ({"scenario": {"initial": {"theta_deg": "abc"}}},
         "scenario.initial.theta_deg must be a real number, got str"),
        ({"scenario": {"initial": {"theta_deg": True}}},
         "scenario.initial.theta_deg must be a real number, got bool"),
        ({"scenario": {"initial": {"theta_deg": math.inf}}},
         "scenario.initial: state theta must be finite, got inf"),
        ({"scenario": {"initial": {"x_m": True}}},
         "scenario.initial: state x must be a real number, got bool"),
        ({"scenario": {"events": 5}}, "scenario.events must be a list, got int"),
        ({"scenario": {"events": _TAP}}, "scenario.events must be a list, got dict"),
        ({"controller": {"type": "fc", "rules": 5}}, "controller.rules must be a string, got int"),
        ({"scenario": {"duration": True}}, "scenario: duration must be a real number, got bool"),
        ({"scenario": {"dt": "2"}}, "scenario: dt must be a real number, got str"),
        ({"scenario": {"dt": -1}}, "scenario: dt must be positive and finite, got -1.0"),
        ({"scenario": {"duration": 10**400}}, "scenario: duration must be finite, got inf"),
        ({"scenario": {"x_target": [1]}}, "scenario: x_target must be a real number, got list"),
        ({"scenario": {"track_bound": None}},
         "scenario: track_bound must be a real number, got NoneType"),
        ({"scenario": {"control_period": None}}, "scenario.control_period must not be null"),
        ({"plant": {"m": 10**400}}, "plant: m must be positive and finite, got inf"),
        ({"scenario": {"events": [{**_TAP, "t": "1"}]}},
         "scenario.events[0]: event time must be a real number, got str"),
        ({"scenario": {"events": [{**_TAP, "kind": ["tap"]}]}},
         "unknown event kind ['tap'] in scenario.events[0]"),
        ({"scenario": {"name": 5}}, "scenario: name must be a str, got int"),
        ({"metrics": {"x_band_m": False}}, "metrics: x_band_m must be a real number, got bool"),
        ({"plant": {"preset": "pole-9"}}, "plant.preset: unknown pole preset 'pole-9'"),
        ({"controller": {"type": "sfc", "nominal_pole": "pole-9"}},
         "controller.nominal_pole: unknown pole preset 'pole-9'"),
        ({"plant": {"m": -1.0}}, "plant: m must be positive and finite, got -1.0"),
        ({"scenario": {"events": [{"kind": "tap", "delta_theta_dot_deg_s": 5.0}]}},
         "scenario.events[0]: missing key 't'"),
        ({"scenario": {"events": [_TAP, {"t": 1.0, "kind": "set_tilt"}]}},
         "scenario.events[1]: missing key 'angle_deg'"),
        ({"scenario": {"events": [{**_TAP, "t": -1.0}]}},
         "scenario.events[0]: event time must be finite and >= 0, got -1.0"),
        ({"scenario": {"events": [_TAP, {**_TAP, "delta_theta_dot_deg_s": math.inf}]}},
         "scenario.events[1]: event value must be finite, got inf"),
        ({"controller": {"type": "fc", "rules": "no\u0000such.frl"}},
         "cannot read controller.rules file"),
        ({"controller": {"type": "sfc", "desired_poles": [1e300, 1e300, -1e300, -1e300]}},
         "controller.desired_poles: gains are not finite for desired poles"),
        ({"controller": {"type": "sfc", "desired_poles": [[-1, True], -1, -2, -3]}},
         "controller.desired_poles must be a real number, got bool"),
        ({"controller": {"type": "sfc", "desired_poles": [10**400, -1, -2, -3]}},
         "controller.desired_poles: desired poles must be finite"),
    ],
    ids=[
        "initial-string", "angle-true", "angle-inf", "initial-true", "events-number",
        "events-object", "rules-number", "duration-true", "dt-string", "dt-negative",
        "huge-duration", "number-list", "number-null", "period-null", "huge-integer",
        "event-t-string",
        "event-kind-list", "name-number", "band-false", "unknown-preset",
        "unknown-nominal-pole", "plant-value", "event-no-t", "event-no-value",
        "event-t-negative", "event-value-inf", "rules-path-nul", "poles-overflow",
        "pole-pair-true", "huge-pole",
    ],
)
def test_config_values_of_the_wrong_type_name_their_key(tmp_path, capsys, cfg, named):
    """A value of the wrong JSON type or out of range is a ScenarioError,
    and exit 1.  A value read in degrees or as part of a [re, im] pole is
    checked by the number rule under its key; any other value by the
    object built from its section, whose message comes after the section's
    path.  Number keys take JSON numbers only (not true or "2"), an
    integer past the float range reads as +-inf, ``events`` and
    ``desired_poles`` take lists, and names and paths take strings."""
    with pytest.raises(ScenarioError, match=re.escape(named)):
        scenario_from_config(cfg)
    assert main(["simulate", "--scenario", str(write_config(tmp_path, cfg))]) == 1
    err = capsys.readouterr().err
    assert f"error: {named}" in err and "internal error" not in err


@pytest.mark.parametrize("band", [math.nan, 0.0, -0.02, math.inf])
@pytest.mark.parametrize("key", ["theta_band_deg", "x_band_m"])
def test_settling_bands_must_be_positive_and_finite(key, band):
    """A NaN band would read every signal as settled at t = 0, and a
    negative one as never settled: the metrics section and
    ``compute_metrics`` both reject a band outside (0, inf)."""
    message = f"{key} must be positive and finite, got {band}"
    with pytest.raises(ScenarioError, match=re.escape(f"metrics: {message}")):
        scenario_from_config({"metrics": {key: band}})
    scenario = default_scenario(1, "sfc", duration=0.1)
    traj = run(scenario)
    with pytest.raises(ScenarioError, match=re.escape(message)):
        compute_metrics(traj, scenario, **{key: band})


@pytest.mark.parametrize(
    "check, message",
    [
        (lambda t, s: compute_metrics(t, s, theta_band_deg="1"), "theta_band_deg"),
        (lambda t, s: compute_metrics(t, s, x_band_m=None), "x_band_m"),
        (lambda t, s: ScenarioBundle(s, theta_band_deg="1"), "theta_band_deg"),
        (lambda t, s: ScenarioBundle(s, x_band_m=None), "x_band_m"),
    ],
    ids=["metrics-string", "metrics-none", "bundle-string", "bundle-none"],
)
def test_a_settling_band_that_is_not_a_number_is_a_scenario_error(check, message):
    """A band that is not a real number is a ScenarioError naming it, not a
    TypeError from comparing it with zero; a bundle words it as
    ``compute_metrics`` does."""
    scenario = default_scenario(1, "sfc", duration=0.1)
    traj = run(scenario)
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)} must be a real number, got"):
        check(traj, scenario)


def test_readme_scenario_example_loads():
    """The JSON example in README's "Scenario files" section is a valid
    configuration, so the documented schema cannot drift from the key tables."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Scenario files", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    bundle = scenario_from_config(json.loads(example))
    assert bundle.scenario.events and bundle.x_band_m == 0.02


# --- scenario-config property ------------------------------------------------


def _mostly(valid, invalid):
    """Draw from ``invalid`` about one time in 24, else from ``valid``."""
    return st.integers(0, 23).flatmap(lambda i: invalid if i == 0 else valid)


_invalid = st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf])
# finite values, tiny and huge ones included: huge states and events are
# valid input and must end as pole_fell, left_track or non_finite
_state = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3),
    st.sampled_from([1e-300, 1e300, -1e300, 1e308]),
)
_positive = st.one_of(
    st.floats(min_value=1e-3, max_value=10.0), st.sampled_from([1e-200, 1e200])
)
_presets = _mostly(st.sampled_from(["pole-1", "pole-4", "pole-7", 6]), st.just("pole-9"))


_TYPO_SECTIONS = ["top", "plant", "scenario", "initial", "event", "controller", "metrics"]
_NOT_NUMBERS = st.sampled_from([True, "2", [1], None])
# (desired poles as written, whether they can be placed on every preset)
_POLE_SETS = [
    ([-1.5, -1.6, -2.0, -2.2], True),
    ([[-1.0, 1.0], [-1.0, -1.0], -2.0, -3.0], True),
    ([-1.0, -2.0, -3.0], False),
    ([-1.0, -2.0, [-1.0, 1.0], [-1.0, 2.0]], False),
    ([[1]], False),
    ([-1000.0, -1001.0, -1002.0, -1003.0], False),
]
_poles = _mostly(st.sampled_from(_POLE_SETS[:2]), st.sampled_from(_POLE_SETS[2:]))
_band = _mostly(
    st.floats(min_value=1e-3, max_value=10.0), st.sampled_from([math.nan, 0.0, -0.02, math.inf])
)


# controller.rules files over variables the harness does not drive, written
# once per session to the directory the property reads scenarios from
_UNDRIVEN_RULES = {
    "boiler.frl": _BOILER_RULES,
    "capital.frl": _BOILER_RULES.replace("pressure", "Theta"),
    "mixed.frl": "var theta unit = deg\n  label LO triangle(0.0, 1.0, 2.0)\n"
    + _BOILER_RULES.replace("IF pressure", "IF theta IS LO AND pressure"),
}


@pytest.fixture(scope="session")
def rules_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("rules")
    for name, text in _UNDRIVEN_RULES.items():
        (directory / name).write_text(text, encoding="utf-8")
    return directory


def test_undriven_rule_files_parse(rules_dir):
    """Each undriven rule file is a well-formed rule base, so the property
    below rejects it for its variables alone."""
    for name in _UNDRIVEN_RULES:
        kb = load_kb((rules_dir / name).read_text(encoding="utf-8"))
        with pytest.raises(KernelError, match="has no input slot"):
            FuzzyController(kb)


@st.composite
def scenario_configs(draw):
    """A configuration, and whether it must be rejected: about one draw in
    24 each has an unknown key or a number key that holds no number, an SFC
    pole set that cannot be placed, an FC rule file over a variable the
    harness does not drive, or a settling band outside (0, inf)."""
    must_reject = False
    plant_cfg = {"preset": draw(_presets)}
    overrides = st.lists(
        st.sampled_from(["g", "m", "l", "mu_c", "mu_p", "f_max"]), max_size=2, unique=True
    )
    for key in draw(overrides):
        plant_cfg[key] = draw(_mostly(_positive, _invalid))
    dt = draw(_mostly(st.sampled_from([0.001, 0.005, 0.02]), _invalid))
    initial = st.lists(
        st.sampled_from(["theta_deg", "theta_dot_deg_s", "x_m", "x_dot_m_s", "tilt_deg"]),
        max_size=3, unique=True,
    )
    kinds = st.lists(_mostly(st.sampled_from(["tap", "set_tilt"]), st.just("quake")),
                     max_size=3)
    scenario = {
        "duration": draw(_mostly(st.floats(min_value=0.02, max_value=0.2),
                                 st.one_of(_invalid, st.floats(0.0, 0.02)))),
        "dt": dt,
        "control_period": draw(_mostly(
            st.integers(min_value=1, max_value=4).map(lambda n: n * dt),
            st.one_of(_invalid, st.floats(min_value=1e-4, max_value=1e300)),
        )),
        "x_target": draw(_mostly(_state, _invalid)),
        "integrator": draw(_mostly(st.sampled_from(["euler", "rk4"]), st.just("midpoint"))),
        "initial": {key: draw(_mostly(_state, _invalid)) for key in draw(initial)},
        "events": [
            {"t": draw(_mostly(
                st.one_of(st.floats(min_value=0.0, max_value=0.25), st.just(1e300)), _invalid
            )),
             "kind": kind,
             "delta_theta_dot_deg_s" if kind == "tap" else "angle_deg":
                 draw(_mostly(_state, _invalid))}
            for kind in draw(kinds)
        ],
    }
    for key in ("track_bound", "theta_limit_deg"):
        if draw(st.booleans()):
            scenario[key] = draw(_mostly(
                st.one_of(st.floats(min_value=1e-3, max_value=90.0), st.just(math.inf)),
                _invalid,
            ))
    if draw(st.booleans()):
        controller = {"type": "fc"}
        rules = draw(_mostly(st.none(), st.sampled_from(sorted(_UNDRIVEN_RULES))))
        if rules is not None:
            controller["rules"] = rules
            must_reject = True
    else:
        controller = {"type": "sfc", "nominal_pole": draw(_presets)}
        if draw(st.booleans()):
            controller["desired_poles"], placeable = draw(_poles)
            must_reject |= not placeable
    metrics = {}
    for key in ("theta_band_deg", "x_band_m"):
        if draw(st.booleans()):
            metrics[key] = draw(_band)
            must_reject |= not 0.0 < metrics[key] < math.inf
    cfg = {"plant": plant_cfg, "scenario": scenario, "controller": controller,
           "metrics": metrics}
    number_keys = [
        (section, key)
        for section in (plant_cfg, scenario, scenario["initial"], metrics, *scenario["events"])
        for key, value in section.items()
        if isinstance(value, float)
    ]
    if draw(_mostly(st.just(False), st.just(True))):
        section, key = draw(st.sampled_from(number_keys))
        section[key] = draw(_NOT_NUMBERS)
        must_reject = True
    typo = {"typo": 1.0}
    where = draw(_mostly(st.none(), st.sampled_from(_TYPO_SECTIONS)))
    if where == "event":
        scenario["events"].append({"t": 0.1, "kind": "tap", "delta_theta_dot_deg_s": 1.0, **typo})
    elif where is not None:
        sections = {"top": cfg, "plant": plant_cfg, "scenario": scenario,
                    "initial": scenario["initial"], "controller": controller,
                    "metrics": metrics}
        sections[where].update(typo)
    return cfg, must_reject or where is not None, ""


@st.composite
def configs_with_an_event_missing_a_key(draw):
    """A configuration that is valid but for one event that lacks its time
    or its value key, and the start of the message that must reject it."""
    events = [_TAP] * draw(st.integers(0, 2))
    kind = draw(st.sampled_from(["tap", "set_tilt"]))
    value_key = "delta_theta_dot_deg_s" if kind == "tap" else "angle_deg"
    missing = draw(st.sampled_from(["t", value_key]))
    broken = {"t": 0.1, "kind": kind, value_key: 1.0}
    del broken[missing]
    i = draw(st.integers(0, len(events)))
    events.insert(i, broken)
    cfg = {"scenario": {"duration": 0.1, "events": events}}
    return cfg, True, f"scenario.events[{i}]: missing key '{missing}'"


@settings(max_examples=150, deadline=None)
@given(_mostly(scenario_configs(), configs_with_an_event_missing_a_key()))
def test_scenario_configs_are_rejected_or_run_finite(rules_dir, drawn):
    """Every configuration is either a ScenarioError or a run whose rows are
    all finite and whose termination is one of the four; a run with rows
    has metrics under the configured bands.  A configuration drawn to be
    rejected always is a ScenarioError, and one whose only fault is an event
    without its time or value key names that event.  Rule files are read
    from the session's ``rules_dir``."""
    cfg, must_reject, message_start = drawn
    try:
        bundle = scenario_from_config(cfg, base_dir=rules_dir)
    except ScenarioError as exc:
        assert str(exc).startswith(message_start)
        return
    assert not must_reject
    scenario = bundle.scenario
    assert scenario.duration <= 0.2
    traj = run(scenario)
    assert traj.termination in ("completed", "pole_fell", "left_track", "non_finite")
    assert np.all(np.isfinite(traj.data))
    if traj.termination == "completed":
        assert traj.data.shape[0] == scenario.n_steps + 1
    if traj.data.shape[0]:
        report = compute_metrics(traj, scenario, bundle.theta_band_deg, bundle.x_band_m)
        assert report.termination == traj.termination
        for signal in (report.theta, report.x):
            assert signal.settling_time is None or 0.0 <= signal.settling_time <= traj.t[-1]


_HOLED_KB = """var theta unit = deg
  label NE shoulder_down(-1.0, 0.0)
  label ZE triangle(-0.4, 0.0, 0.4)
  label PO shoulder_up(0.5, 1.0)
var F unit = N
  label N triangle(-2.0, -1.0, 0.0)
  label Z triangle(-1.0, 0.0, 1.0)
  label P triangle(0.0, 1.0, 2.0)
rule a: IF theta IS PO THEN F IS P
rule b: IF theta IS ZE THEN F IS Z
rule c: IF theta IS NE THEN F IS N
"""


def test_no_rule_fired_applies_zero_force(caplog):
    """No theta label covers 0.4-0.5 deg: started at 0.45 deg, the pole is
    still in that hole after 0.1 s, so no rule fires and every force is 0."""
    scenario = replace(
        default_scenario(
            1, "fc", x_target=0.0, duration=0.1, initial=PlantState(theta=math.radians(0.45)),
        ),
        controller=FuzzyController(load_kb(_HOLED_KB)),
    )
    with caplog.at_level(logging.WARNING, logger="fuzzpole.harness"):
        traj = run(scenario)
    assert traj.termination == "completed"
    assert np.all(np.degrees(traj.theta) < 0.5)
    assert np.all(traj.force == 0.0)
    (record,) = caplog.records
    assert f"no rule fired at {scenario.n_steps} control instants" in record.getMessage()


def test_rule_less_controller_counts_every_instant(caplog):
    """A rule base with no rules runs to the end with zero force, and every
    control instant counts as one where no rule fired."""
    scenario = replace(
        default_scenario(1, "fc", duration=1.0, dt=0.005, control_period=0.02),
        controller=FuzzyController(replace(builtin_pole_kb(), rules=())),
    )
    with caplog.at_level(logging.WARNING, logger="fuzzpole.harness"):
        traj = run(scenario)
    assert traj.completed
    assert np.all(traj.force == 0.0)
    instants = len(range(0, scenario.n_steps, scenario.control_every))
    assert instants == 50
    (record,) = caplog.records
    assert f"no rule fired at {instants} control instants" in record.getMessage()


def test_force_not_finite_at_the_first_step(caplog):
    """Huge initial state: the SFC sum overflows to inf - inf = NaN at t=0,
    so no row is finite.  The run still ends as non_finite."""
    cfg = {
        "plant": {"preset": "pole-7"},
        "scenario": {"duration": 0.1, "initial": {
            "theta_deg": -1e308, "theta_dot_deg_s": -1e308,
            "x_m": -1e308, "x_dot_m_s": 1e308,
        }},
        "controller": {"type": "sfc", "nominal_pole": "pole-7"},
    }
    scenario = scenario_from_config(cfg).scenario
    with caplog.at_level(logging.WARNING, logger="fuzzpole.harness"):
        traj = run(scenario)
    assert traj.termination == "non_finite"
    assert traj.data.shape == (0, 7)
    assert "at t=0 s" in caplog.records[0].getMessage()
    buffer = io.StringIO()
    emit_trajectory(traj, buffer)
    assert buffer.getvalue() == TRAJECTORY_HEADER + "\n"  # the header alone
    with pytest.raises(ScenarioError, match="empty trajectory"):
        compute_metrics(traj, scenario)
