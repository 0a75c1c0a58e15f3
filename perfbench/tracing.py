"""The traced run: per-layer time and work of one pass.

``Tracer`` wraps the public functions a pass reaches, in the module namespace
each caller looks them up in, and records a span per call: calls, inclusive
and self time, and whether the span was a root (called by the benchmark's
own pass code).  Nothing under ``src/`` changes.

The two hot layers inside ``harness.run`` are not called through public
names on the simulation loop's path, so they are measured by replay: as soon
as a simulation loop returns, ``kernels.fuzzy_force`` is called at every
control instant and ``plant.advance`` at every step on the recorded states,
and the cost of the same replay loop around a no-op is subtracted.  Replaying
right away keeps the replay and the loop it explains within a second of each
other on a host whose speed drifts; the replay's own time is paused out of
every span and of the traced pass.  ``kernels.loop.self_s`` is what the
simulation loops took beyond the replayed calls: row writes, the event
queue, input arrays and termination tests.

``trace.unattributed_s`` is the traced pass's time outside every span: the
benchmark's own glue.  ``trace.overhead_frac`` is the traced pass over the
untraced passes, less one, with runs rescaled for host speed as in the
end-to-end metrics; it rests on a single traced pass, so a few percent either
way is noise.

Nothing in this program waits on a queue, a lock or another process, so no
waiting time is reported.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from fuzzpole import harness, hierarchy, kernels, plant, rulelang

# (module, attribute, span name).  harness imports design_gains and linearize
# by name, so they are wrapped where harness.run looks them up.
TARGETS = (
    (harness, "compare", "harness.compare"),
    (harness, "run", "harness.run"),
    (harness, "compute_metrics", "harness.compute_metrics"),
    (harness, "scenario_from_config", "harness.scenario_from_config"),
    (harness, "emit_trajectory", "harness.emit_trajectory"),
    (harness, "design_gains", "sfc.design_gains"),
    (harness, "linearize", "sfc.linearize"),
    (kernels, "compile_kb", "kernels.compile_kb"),
    (kernels, "simulate_fuzzy", "kernels.simulate_fuzzy"),
    (kernels, "simulate_sfc", "kernels.simulate_sfc"),
    (rulelang, "serialize_kb", "rulelang.serialize_kb"),
    (rulelang, "parse_knowledge_base", "rulelang.parse_knowledge_base"),
    (rulelang, "validate_kb", "rulelang.validate_kb"),
    (hierarchy, "compose_hierarchical", "hierarchy.compose_hierarchical"),
    (hierarchy, "audit_hierarchy", "hierarchy.audit_hierarchy"),
)


class Tracer:
    """Context manager that wraps ``TARGETS`` and accumulates, per span name,
    calls and inclusive and self seconds, plus the replayed hot layers'
    totals."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.root_time = 0.0
        self.paused = 0.0  # replays and calibration, excluded from every span
        self.pauses: list[tuple[float, float]] = []  # (start, end) of each
        self.emitted_rows = 0
        self.totals: dict[str, float] = defaultdict(float)
        self.kb_of: dict[int, tuple] = {}  # id(CompiledKB) -> (KnowledgeBase, CompiledKB)
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for module, attr, name in TARGETS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def pausing(self, fn):
        """``fn`` with its time paused out of every span."""

        def paused(*args):
            start = time.perf_counter()
            fn(*args)
            self._pause(start)

        return paused

    def _pause(self, start: float) -> None:
        end = time.perf_counter()
        self.paused += end - start
        self.pauses.append((start, end))

    def paused_within(self, start: float, end: float) -> float:
        return sum(b - a for a, b in self.pauses if start <= a and b <= end)

    def _observe(self, name, args, result):
        if name == "harness.emit_trajectory":
            self.emitted_rows += args[0].data.shape[0]
        elif name == "kernels.compile_kb":
            self.kb_of[id(result)] = (args[0], result)
        elif name.startswith("kernels.simulate_"):
            start = time.perf_counter()
            replay(self, name, args, result)
            self._pause(start)

    def _wrap(self, name, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            paused = self.paused
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                self._observe(name, args, result)
            finally:
                duration = time.perf_counter() - start - (self.paused - paused)
                children = stack.pop()
                self.calls[name] += 1
                self.inclusive[name] += duration
                self.self_time[name] += duration - children
                if stack:
                    stack[-1] += duration
                else:
                    self.root_time += duration
            return result

        return traced


# ---------------------------------------------------------------------------
# Replay of the two hot layers


def _noop_force(ck, inputs, backend=None):
    return 0.0, False


def _noop_advance(*args):
    return args[:4]


def _replay_fuzzy(fn, ck, rows, instants, x_target):
    control_inputs = kernels.control_inputs
    out = []
    start = time.perf_counter()
    for k in instants:
        r = rows[k]
        out.append(fn(ck, control_inputs(r[1], r[2], r[3], r[4], x_target)))
    return time.perf_counter() - start, out


def _replay_advance(fn, rows, steps, dt, params, rk4):
    g, m_c, m, l, mu_c, mu_p, f_max = params
    start = time.perf_counter()
    for k in range(steps):
        r = rows[k]
        fn(r[1], r[2], r[3], r[4], r[5], r[6], dt, g, m_c, m, l, mu_c, mu_p, f_max, rk4)
    return time.perf_counter() - start


def _useful_work(kb, data, instants, x_target):
    """Rules with alpha > 0 and nonzero output-grid points, over the instants."""
    rows = data[list(instants)]
    deg = 180.0 / np.pi
    values = {
        "theta": rows[:, 1] * deg,
        "theta_dot": rows[:, 2] * deg,
        "x": rows[:, 3] - x_target,
        "x_dot": rows[:, 4],
    }
    points = kb.output_universe.points()
    alive = np.ones((rows.shape[0], len(kb.rules)), dtype=bool)
    support = np.empty((len(kb.rules), points.shape[0]), dtype=bool)
    for r, rule in enumerate(kb.rules):
        for pre in rule.preconditions:
            mf = kb.variables[pre.variable].label(pre.label)
            alive[:, r] &= mf.sample(values[pre.variable]) > 0.0
        support[r] = kb.output.label(rule.conclusion[1]).sample(points) > 0.0
    nonzero = (alive.astype(np.int64) @ support.astype(np.int64)) > 0
    return int(alive.sum()), alive.size, int(nonzero.sum()), nonzero.size


def replay(tracer: Tracer, name: str, args: tuple, result: tuple) -> None:
    """Replay one simulation's hot layers; add to the tracer's totals."""
    tot = tracer.totals
    x_target, params, dt, control_every, rk4 = args[1], args[2], args[3], args[5], args[6]
    data = result[0]
    rows = data.tolist()
    steps = len(rows) - 1
    real = _replay_advance(plant.advance, rows, steps, dt, params, rk4)
    base = _replay_advance(_noop_advance, rows, steps, dt, params, rk4)
    integrator = "rk4" if rk4 else "euler"
    tot[f"advance.{integrator}.calls"] += steps
    tot[f"advance.{integrator}.s"] += real - base
    if name != "kernels.simulate_fuzzy":
        return
    ck = args[12]
    kb, _ = tracer.kb_of[id(ck)]
    instants = range(0, steps, control_every)
    real, forces = _replay_fuzzy(kernels.fuzzy_force, ck, rows, instants, x_target)
    base, _ = _replay_fuzzy(_noop_force, ck, rows, instants, x_target)
    tot["fuzzy.calls"] += len(instants)
    tot["fuzzy.s"] += real - base
    tot["fuzzy.norule"] += sum(1 for _, fired in forces if not fired)
    f_max = params[6]
    tot["fuzzy.mismatch"] += sum(
        1 for k, (f, _) in zip(instants, forces)
        if min(max(f, -f_max), f_max) != rows[k][5]
    )
    active, evaluated, nonzero, points = _useful_work(kb, data, instants, x_target)
    tot["fuzzy.active"] += active
    tot["fuzzy.evaluated"] += evaluated
    tot["fuzzy.nonzero"] += nonzero
    tot["fuzzy.points"] += points


# name -> unit, in the order BENCHMARK.json lists them.  Times are per call
# unless the name says otherwise; a per-call time of a layer the workload
# never calls reads 0 next to its 0 calls.
UNITS = {
    "kernels.fuzzy_force.calls": "count",
    "kernels.fuzzy_force.us_per_call": "us",
    "kernels.fuzzy_force.share": "ratio",
    "kernels.compile_kb.calls": "count",
    "kernels.compile_kb.ms": "ms",
    "kernels.loop.self_s": "s",
    "fuzzy.rule_active_frac": "ratio",
    "fuzzy.mu_nonzero_frac": "ratio",
    "fuzzy.norule_frac": "ratio",
    "plant.advance.euler.calls": "count",
    "plant.advance.euler.us_per_call": "us",
    "plant.advance.rk4.calls": "count",
    "plant.advance.rk4.us_per_call": "us",
    "plant.advance.share": "ratio",
    "sfc.design_gains.calls": "count",
    "sfc.design_gains.ms": "ms",
    "harness.compare.calls": "count",
    "harness.compare.self_ms": "ms",
    "harness.run.calls": "count",
    "harness.run.ms": "ms",
    "harness.compute_metrics.calls": "count",
    "harness.compute_metrics.ms": "ms",
    "harness.scenario_from_config.calls": "count",
    "harness.scenario_from_config.ms": "ms",
    "harness.emit_trajectory.rows": "count",
    "harness.emit_trajectory.us_per_row": "us",
    "rulelang.serialize_kb.calls": "count",
    "rulelang.serialize_kb.ms": "ms",
    "rulelang.parse_knowledge_base.calls": "count",
    "rulelang.parse_knowledge_base.ms": "ms",
    "rulelang.validate_kb.calls": "count",
    "rulelang.validate_kb.ms": "ms",
    "rulelang.diagnostics": "count",
    "hierarchy.compose_hierarchical.calls": "count",
    "hierarchy.compose_hierarchical.ms": "ms",
    "hierarchy.audit_hierarchy.calls": "count",
    "hierarchy.audit_hierarchy.ms": "ms",
    "hierarchy.audit_violations": "count",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_wall: float, overhead: float,
                  records) -> dict[str, float]:
    calls, inclusive, tot = tracer.calls, tracer.inclusive, tracer.totals

    def ms_per_call(name):
        return _ratio(inclusive[name], calls[name]) * 1e3

    advance_s = tot["advance.euler.s"] + tot["advance.rk4.s"]
    loop_s = inclusive["kernels.simulate_fuzzy"] + inclusive["kernels.simulate_sfc"]
    lint = [r.lint for r in records if r.lint]
    values = {
        "kernels.fuzzy_force.calls": tot["fuzzy.calls"],
        "kernels.fuzzy_force.us_per_call": _ratio(tot["fuzzy.s"], tot["fuzzy.calls"]) * 1e6,
        "kernels.fuzzy_force.share": tot["fuzzy.s"] / traced_wall,
        "kernels.compile_kb.calls": calls["kernels.compile_kb"],
        "kernels.compile_kb.ms": ms_per_call("kernels.compile_kb"),
        "kernels.loop.self_s": loop_s - tot["fuzzy.s"] - advance_s,
        "fuzzy.rule_active_frac": _ratio(tot["fuzzy.active"], tot["fuzzy.evaluated"]),
        "fuzzy.mu_nonzero_frac": _ratio(tot["fuzzy.nonzero"], tot["fuzzy.points"]),
        "fuzzy.norule_frac": _ratio(tot["fuzzy.norule"], tot["fuzzy.calls"]),
        "plant.advance.euler.calls": tot["advance.euler.calls"],
        "plant.advance.euler.us_per_call":
            _ratio(tot["advance.euler.s"], tot["advance.euler.calls"]) * 1e6,
        "plant.advance.rk4.calls": tot["advance.rk4.calls"],
        "plant.advance.rk4.us_per_call":
            _ratio(tot["advance.rk4.s"], tot["advance.rk4.calls"]) * 1e6,
        "plant.advance.share": advance_s / traced_wall,
        "sfc.design_gains.calls": calls["sfc.design_gains"],
        "sfc.design_gains.ms": _ratio(
            inclusive["sfc.design_gains"] + inclusive["sfc.linearize"],
            calls["sfc.design_gains"],
        ) * 1e3,
        "harness.compare.calls": calls["harness.compare"],
        "harness.compare.self_ms": tracer.self_time["harness.compare"] * 1e3,
        "harness.run.calls": calls["harness.run"],
        "harness.run.ms": ms_per_call("harness.run"),
        "harness.compute_metrics.calls": calls["harness.compute_metrics"],
        "harness.compute_metrics.ms": ms_per_call("harness.compute_metrics"),
        "harness.scenario_from_config.calls": calls["harness.scenario_from_config"],
        "harness.scenario_from_config.ms": ms_per_call("harness.scenario_from_config"),
        "harness.emit_trajectory.rows": tracer.emitted_rows,
        "harness.emit_trajectory.us_per_row":
            _ratio(inclusive["harness.emit_trajectory"], tracer.emitted_rows) * 1e6,
        "rulelang.serialize_kb.calls": calls["rulelang.serialize_kb"],
        "rulelang.serialize_kb.ms": ms_per_call("rulelang.serialize_kb"),
        "rulelang.parse_knowledge_base.calls": calls["rulelang.parse_knowledge_base"],
        "rulelang.parse_knowledge_base.ms": ms_per_call("rulelang.parse_knowledge_base"),
        "rulelang.validate_kb.calls": calls["rulelang.validate_kb"],
        "rulelang.validate_kb.ms": ms_per_call("rulelang.validate_kb"),
        "rulelang.diagnostics": sum(
            x.get("parse_diagnostics", 0) + x.get("validate_diagnostics", 0) for x in lint
        ),
        "hierarchy.compose_hierarchical.calls": calls["hierarchy.compose_hierarchical"],
        "hierarchy.compose_hierarchical.ms": ms_per_call("hierarchy.compose_hierarchical"),
        "hierarchy.audit_hierarchy.calls": calls["hierarchy.audit_hierarchy"],
        "hierarchy.audit_hierarchy.ms": ms_per_call("hierarchy.audit_hierarchy"),
        "hierarchy.audit_violations": sum(x.get("audit_violations", 0) for x in lint),
        "trace.wall_s": traced_wall,
        "trace.overhead_frac": overhead,
        "trace.unattributed_s": traced_wall - tracer.root_time,
    }
    return {
        name: int(values[name]) if unit == "count" else values[name]
        for name, unit in UNITS.items()
    }
