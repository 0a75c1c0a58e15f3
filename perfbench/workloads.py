"""The benchmark's three workloads: their inputs, built from a seed, and one pass.

Every workload is a closed loop with one caller: each run starts only after
the previous one has returned, in one process on one thread.

* ``pole-sweep``: ``harness.compare`` over pole presets 1-7 x {FC, SFC} with
  the SFC gains designed on pole-1, exactly what ``fuzzpole batch
  --all-poles`` runs.  The seed only shuffles the column order, so the work
  per pass does not depend on it.  Latency is taken per preset (its FC and
  its SFC run, each with its metrics), because the FC and SFC runs of one
  preset differ tenfold in cost and a percentile over the mix would sit on
  the gap between them.
* ``sfc-rk4-export``: presets 1-7 under SFC (pole-1 gains) with the RK4
  integrator, a tap and a track tilt switched on and off, on an open track.
  Scenarios come from configuration dicts through
  ``harness.scenario_from_config`` and every trajectory is exported with
  ``harness.emit_trajectory`` to an in-memory CSV.  The seed picks the sign
  of the tap and of the tilt per preset and the run order.
* ``kb-authoring``: rule-base variants composed with
  ``hierarchy.compose_hierarchical`` from the built-in goal tiers.  A variant
  fixes the output quantization n, the "Very" mode and the widths of the
  theta and theta_dot labels.  Each goes through serialize, parse, validate,
  audit, a 1 s FC run, metrics and CSV export, as a rule author iterating
  with ``fuzzpole lint`` and a short simulation would.  Every pass covers
  each (n, mode) cell equally often; the seed draws which width pairs each
  cell gets and the run order.

A run's ``key`` names its inputs and indexes the reference outputs recorded in
``reference.json``.
"""

from __future__ import annotations

import io
import itertools
import random
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from fuzzpole import harness, hierarchy, kernels, plant, rulelang, sfc
from fuzzpole.fuzzy import (
    KnowledgeBase,
    LinguisticVariable,
    OutputUniverse,
    shoulder_down,
    shoulder_up,
    triangle,
)

# Sizes per scale: "full" is what the benchmark measures, "tiny" is for the
# self-test.
DURATION_S = {"full": 50.0, "tiny": 0.5}
AUTHORING_DURATION_S = {"full": 1.0, "tiny": 0.05}
AUTHORING_PER_CELL = {"full": 8, "tiny": 1}

PRESETS = tuple(range(1, 8))
X_TARGET = 0.5
NOMINAL_POLE = 1

# kb-authoring variant space: 4 quantizations x 4 Very modes x 16 width pairs.
QUANTIZATIONS = (51, 101, 201, 401)
VERY_MODES = {
    "sq": hierarchy.Concentration(),
    "n08": hierarchy.Narrowed(0.08),
    "n12": hierarchy.Narrowed(0.12),
    "n16": hierarchy.Narrowed(0.16),
}
WIDTH_SCALES = (0.92, 0.96, 1.04, 1.08)
THETA_HALF_WIDTH = 6.25
THETA_DOT_HALF_WIDTH = 25.0


@dataclass
class RunRecord:
    """One closed-loop run of a pass and everything the checks look at."""

    key: str
    group: str  # latency unit the run belongs to
    scenario: harness.Scenario | None = None
    traj: harness.Trajectory | None = None
    start: float = 0.0  # time.perf_counter() when the run began
    seconds: float = 0.0
    error: str | None = None
    kb: KnowledgeBase | None = None  # FC runs: the rule base that ran
    gains: sfc.GainVector | None = None  # SFC runs: the gains the kernel used
    report: harness.MetricsReport | None = None
    csv: str | None = None
    lint: dict[str, Any] = field(default_factory=dict)


@dataclass
class Inputs:
    workload: str
    scale: str
    items: list  # what one pass iterates over
    oracle_kb: KnowledgeBase | None = None
    compiled: kernels.CompiledKB | None = None
    nominal_gains: sfc.GainVector | None = None


def _pole1_gains(x_target: float) -> sfc.GainVector:
    p = plant.pole_params(NOMINAL_POLE)
    return sfc.design_gains(
        sfc.linearize(p),
        sfc.DEFAULT_DESIRED_POLES,
        reference=(0.0, 0.0, x_target, 0.0),
        f_max=p.f_max,
    )


# ---------------------------------------------------------------------------
# pole-sweep


def build_pole_sweep(seed: int, scale: str) -> Inputs:
    duration = DURATION_S[scale]
    scenarios = [
        harness.default_scenario(
            pole, ctrl, duration=duration, nominal_pole=NOMINAL_POLE,
            name=f"pole-{pole} {ctrl.upper()}",
        )
        for pole in PRESETS
        for ctrl in ("fc", "sfc")
    ]
    random.Random(seed).shuffle(scenarios)
    kb = rulelang.builtin_pole_kb()
    return Inputs(
        "pole-sweep", scale, scenarios,
        oracle_kb=kb,
        compiled=kernels.compile_kb(kb),
        nominal_gains=_pole1_gains(X_TARGET),
    )


def _nothing() -> None:
    pass


class _RunRecorder:
    """Passes ``harness.run`` through, noting when each call started and what
    it returned, so that a pass through ``harness.compare`` can be checked
    run by run.  ``between_runs`` is called before each run, outside its
    timing.  Costs two clock reads per 50 s run."""

    def __init__(self, between_runs):
        self.between_runs = between_runs
        # (before between_runs, run start, scenario, trajectory)
        self.calls: list[tuple[float, float, harness.Scenario, harness.Trajectory]] = []

    def __enter__(self):
        self._inner = harness.run

        def recording_run(scenario, backend=None):
            mark = time.perf_counter()
            self.between_runs()
            start = time.perf_counter()
            traj = self._inner(scenario, backend=backend)
            self.calls.append((mark, start, scenario, traj))
            return traj

        harness.run = recording_run
        return self

    def __exit__(self, *exc):
        harness.run = self._inner


def pass_pole_sweep(inputs: Inputs, between_runs=_nothing) -> list[RunRecord]:
    with _RunRecorder(between_runs) as recorder:
        comparison = harness.compare(inputs.items)
        end = time.perf_counter()
    calls = recorder.calls
    ends = [mark for mark, _, _, _ in calls[1:]] + [end]
    by_name = {s.name: (t, start, stop - start) for (_, start, s, t), stop in zip(calls, ends)}
    records = []
    for scenario in inputs.items:
        name = scenario.name
        rec = RunRecord(key=name, group=name.split()[0], scenario=scenario)
        if name in comparison.failures:
            rec.error = comparison.failures[name]
        elif name not in by_name:
            rec.error = "harness.compare did not run this scenario through harness.run"
        else:
            rec.traj, rec.start, rec.seconds = by_name[name]
            rec.report = comparison.reports[name]
            if scenario.controller.kind == "fc":
                rec.kb = inputs.oracle_kb
            else:
                rec.gains = inputs.nominal_gains
        records.append(rec)
    return records


# ---------------------------------------------------------------------------
# sfc-rk4-export


def _sfc_config(pole: int, tap_sign: int, tilt_sign: int, duration: float) -> dict:
    events = [
        {"t": 0.2 * duration, "kind": "tap", "delta_theta_dot_deg_s": 20.0 * tap_sign},
        {"t": 0.4 * duration, "kind": "set_tilt", "angle_deg": 7.0 * tilt_sign},
        {"t": 0.7 * duration, "kind": "set_tilt", "angle_deg": 0.0},
    ]
    return {
        "plant": {"preset": f"pole-{pole}"},
        "scenario": {
            "name": f"pole-{pole} SFC rk4 tap{tap_sign:+d} tilt{tilt_sign:+d}",
            "x_target": X_TARGET,
            "duration": duration,
            "dt": 0.005,
            "integrator": "rk4",
            "track_bound": 1.0e6,
            "events": events,
        },
        "controller": {"type": "sfc", "nominal_pole": f"pole-{NOMINAL_POLE}"},
    }


def build_sfc_rk4_export(seed: int, scale: str) -> Inputs:
    rng = random.Random(seed)
    configs = [
        _sfc_config(pole, rng.choice((1, -1)), rng.choice((1, -1)), DURATION_S[scale])
        for pole in PRESETS
    ]
    rng.shuffle(configs)
    return Inputs(
        "sfc-rk4-export", scale, configs, nominal_gains=_pole1_gains(X_TARGET)
    )


def pass_sfc_rk4_export(inputs: Inputs, between_runs=_nothing) -> list[RunRecord]:
    records = []
    for cfg in inputs.items:
        key = cfg["scenario"]["name"]
        rec = RunRecord(key=key, group=key, gains=inputs.nominal_gains)
        between_runs()
        rec.start = time.perf_counter()
        try:
            rec.scenario = harness.scenario_from_config(cfg).scenario
            rec.traj = harness.run(rec.scenario)
            buf = io.StringIO()
            harness.emit_trajectory(rec.traj, buf)
            rec.csv = buf.getvalue()
        except Exception as exc:  # noqa: BLE001 - a failing run is counted, not fatal
            rec.error = f"{type(exc).__name__}: {exc}"
        rec.seconds = time.perf_counter() - rec.start
        records.append(rec)
    return records


# ---------------------------------------------------------------------------
# kb-authoring


@dataclass(frozen=True)
class Variant:
    key: str
    mode: hierarchy.VeryMode
    base: KnowledgeBase


def _three_level(name: str, unit: str, half_width: float) -> LinguisticVariable:
    return LinguisticVariable(
        name,
        unit,
        {
            "NE": shoulder_down(-half_width, 0.0),
            "ZE": triangle(-half_width, 0.0, half_width),
            "PO": shoulder_up(0.0, half_width),
        },
    )


def _goal_rules(builtin: KnowledgeBase, goals: hierarchy.GoalSpec):
    """The built-in rules per goal tier, with the achievement gate taken off
    the lower tier so that composition puts it back."""
    gated = {a.variable for a in goals.goals[0].achieve}
    tier1 = [r for r in builtin.rules if r.goal_index == 1]
    tier2 = [
        replace(r, preconditions=tuple(p for p in r.preconditions if p.variable not in gated))
        for r in builtin.rules
        if r.goal_index == 2
    ]
    return tier1, tier2


def variant_key(n: int, mode: str, s_theta: float, s_theta_dot: float) -> str:
    return f"n{n} {mode} w{s_theta:g}/{s_theta_dot:g}"


def _variant(builtin, n, mode, s_theta, s_theta_dot) -> Variant:
    variables = dict(builtin.variables)
    variables["theta"] = _three_level("theta", "deg", THETA_HALF_WIDTH * s_theta)
    variables["theta_dot"] = _three_level(
        "theta_dot", "deg/s", THETA_DOT_HALF_WIDTH * s_theta_dot
    )
    universe = builtin.output_universe
    base = KnowledgeBase(
        variables, builtin.output_variable, (), OutputUniverse(universe.lo, universe.hi, n)
    )
    return Variant(variant_key(n, mode, s_theta, s_theta_dot), VERY_MODES[mode], base)


def build_kb_authoring(seed: int, scale: str) -> Inputs:
    rng = random.Random(seed)
    builtin = rulelang.builtin_pole_kb()
    goals = hierarchy.cart_pole_goals()
    widths = list(itertools.product(WIDTH_SCALES, WIDTH_SCALES))
    variants = []
    for n, mode in itertools.product(QUANTIZATIONS, VERY_MODES):
        for s_theta, s_theta_dot in rng.sample(widths, AUTHORING_PER_CELL[scale]):
            variants.append(_variant(builtin, n, mode, s_theta, s_theta_dot))
    rng.shuffle(variants)
    tier1, tier2 = _goal_rules(builtin, goals)
    return Inputs(
        "kb-authoring", scale, [(v, goals, (tier1, tier2)) for v in variants]
    )


def _author(variant: Variant, goals, tiers, duration: float, rec: RunRecord) -> None:
    kb = hierarchy.compose_hierarchical(goals, tiers, variant.mode, variant.base)
    text = rulelang.serialize_kb(kb)
    parsed = rulelang.parse_knowledge_base(text)
    rec.lint["parse_diagnostics"] = len(parsed.diagnostics)
    if parsed.kb is None:
        raise ValueError(f"serialized variant does not parse: {parsed.errors}")
    rec.lint["round_trip"] = parsed.kb == kb
    rec.lint["validate_diagnostics"] = len(rulelang.validate_kb(parsed.kb))
    rec.lint["audit_violations"] = len(hierarchy.audit_hierarchy(parsed.kb, goals).violations)
    rec.kb = parsed.kb
    rec.scenario = harness.Scenario(
        name=variant.key,
        params=plant.pole_params(1),
        controller=harness.FuzzyController(parsed.kb),
        x_target=X_TARGET,
        duration=duration,
    )
    rec.traj = harness.run(rec.scenario)
    rec.report = harness.compute_metrics(rec.traj, rec.scenario)
    buf = io.StringIO()
    harness.emit_trajectory(rec.traj, buf)
    rec.csv = buf.getvalue()


def pass_kb_authoring(inputs: Inputs, between_runs=_nothing) -> list[RunRecord]:
    duration = AUTHORING_DURATION_S[inputs.scale]
    records = []
    for variant, goals, tiers in inputs.items:
        rec = RunRecord(key=variant.key, group=variant.key)
        between_runs()
        rec.start = time.perf_counter()
        try:
            _author(variant, goals, tiers, duration, rec)
        except Exception as exc:  # noqa: BLE001 - a failing run is counted, not fatal
            rec.error = f"{type(exc).__name__}: {exc}"
        rec.seconds = time.perf_counter() - rec.start
        records.append(rec)
    return records


def reference_inputs(name: str, scale: str) -> Inputs:
    """Inputs covering every run key a seed can draw, for recording references."""
    if name == "pole-sweep":
        return build_pole_sweep(0, scale)
    if name == "sfc-rk4-export":
        inputs = build_sfc_rk4_export(0, scale)
        inputs.items = [
            _sfc_config(pole, tap, tilt, DURATION_S[scale])
            for pole in PRESETS
            for tap in (1, -1)
            for tilt in (1, -1)
        ]
        return inputs
    builtin = rulelang.builtin_pole_kb()
    inputs = build_kb_authoring(0, scale)
    _, goals, tiers = inputs.items[0]
    inputs.items = [
        (_variant(builtin, n, mode, s_theta, s_theta_dot), goals, tiers)
        for n, mode, s_theta, s_theta_dot in itertools.product(
            QUANTIZATIONS, VERY_MODES, WIDTH_SCALES, WIDTH_SCALES
        )
    ]
    return inputs


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, str], Inputs]
    run_pass: Callable[..., list[RunRecord]]  # (inputs, between_runs=no-op)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pole-sweep",
            "the paper's FC-vs-SFC preset sweep; ~90% fuzzy inference",
            build_pole_sweep,
            pass_pole_sweep,
        ),
        Workload(
            "sfc-rk4-export",
            "no fuzzy work: RK4 plant steps, SFC and CSV export",
            build_sfc_rk4_export,
            pass_sfc_rk4_export,
        ),
        Workload(
            "kb-authoring",
            "short compile-heavy runs through rulelang and hierarchy",
            build_kb_authoring,
            pass_kb_authoring,
        ),
    )
}
