"""Output checks for every run of a pass.

A run passes when all of these hold:

* termination kind and row count equal the reference recorded in
  ``reference.json``, the final state (and, where the workload computes them,
  the step-response metrics) lie within ``TOL`` of it.  Expected terminations,
  such as pole-7 falling under pole-1 SFC gains, are part of the reference;
* at sampled control instants the recorded force equals the scalar oracle bit
  for bit: ``fuzzy.fc_output`` (0 N when no rule fired) for FC runs,
  ``sfc.sfc_output`` for SFC runs.  For FC runs ``kernels.fuzzy_force`` of
  every backend in ``kernels.BACKENDS`` must give the same force;
* at sampled steps the next row equals ``plant.step`` from the recorded row;
* an exported CSV has the trajectory header and one line per row;
* an authored rule base round-trips through serialize/parse, parses without
  errors and passes the hierarchy audit.

``backend_agreement`` reruns one run on every backend ``kernels.BACKENDS``
lists and compares the trajectories.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

from fuzzpole import fuzzy, harness, kernels, plant, sfc

TOL = 1e-9
SAMPLED_INSTANTS = 4
SAMPLED_STEPS = 4
REFERENCE_PATH = Path(__file__).with_name("reference.json")
INPUT_NAMES = ("theta", "theta_dot", "x", "x_dot")


def load_reference(workload: str, scale: str) -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["runs"][scale][workload]


def _metric_values(report: harness.MetricsReport) -> list:
    return [
        report.theta.overshoot, report.theta.undershoot, report.theta.settling_time,
        report.x.overshoot, report.x.undershoot, report.x.settling_time,
    ]


def summarize(rec) -> dict:
    """What the reference keeps of a run."""
    out = {
        "termination": rec.traj.termination,
        "rows": int(rec.traj.data.shape[0]),
        "final": [float(v) for v in rec.traj.data[-1, 1:]],
    }
    if rec.report is not None:
        out["metrics"] = _metric_values(rec.report)
    return out


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= TOL


def _event_steps(scenario: harness.Scenario) -> set[int]:
    return {int(round(e.t / scenario.dt)) for e in scenario.events}


def _expected_force(rec, row: np.ndarray) -> float:
    s = rec.scenario
    if rec.kb is not None:
        inputs = kernels.control_inputs(row[1], row[2], row[3], row[4], s.x_target)
        try:
            f = fuzzy.fc_output(rec.kb, dict(zip(INPUT_NAMES, inputs)))
        except fuzzy.NoRuleFired:
            f = 0.0
        f_max = s.params.f_max
        return min(max(f, -f_max), f_max)
    state = plant.PlantState(row[1], row[2], row[3], row[4], row[6])
    return sfc.sfc_output(rec.gains, state)


def _kernel_forces(rec, row: np.ndarray, compiled: kernels.CompiledKB) -> list[str]:
    inputs = kernels.control_inputs(row[1], row[2], row[3], row[4], rec.scenario.x_target)
    f_max = rec.scenario.params.f_max
    problems = []
    for backend in kernels.BACKENDS:
        f, _ = kernels.fuzzy_force(compiled, inputs, backend=backend)
        f = min(max(f, -f_max), f_max)
        if f != row[5]:
            problems.append(f"{backend} fuzzy_force {f!r} != recorded {row[5]!r}")
    return problems


def check_run(rec, reference: dict, rng: random.Random, compiled=None) -> list[str]:
    """Problems found in one run; empty when it passes."""
    if rec.error is not None:
        return [f"raised: {rec.error}"]
    ref = reference.get(rec.key)
    if ref is None:
        return [f"no reference output recorded for '{rec.key}'"]
    got = summarize(rec)
    problems = []
    if got["termination"] != ref["termination"]:
        problems.append(f"termination {got['termination']} != {ref['termination']}")
    if got["rows"] != ref["rows"]:
        problems.append(f"rows {got['rows']} != {ref['rows']}")
    if not all(_close(a, b) for a, b in zip(got["final"], ref["final"])):
        problems.append(f"final state {got['final']} != {ref['final']}")
    if "metrics" in ref and not all(
        _close(a, b) for a, b in zip(got.get("metrics", []), ref["metrics"])
    ):
        problems.append(f"metrics {got.get('metrics')} != {ref['metrics']}")

    data = rec.traj.data
    s = rec.scenario
    steps = data.shape[0] - 1
    instants = range(0, steps, s.control_every)
    if rec.kb is not None and compiled is None:
        compiled = kernels.compile_kb(rec.kb)
    for k in rng.sample(instants, min(SAMPLED_INSTANTS, len(instants))):
        expected = _expected_force(rec, data[k])
        if data[k, 5] != expected:
            problems.append(f"force at step {k}: {data[k, 5]!r} != oracle {expected!r}")
        if rec.kb is not None:
            problems.extend(_kernel_forces(rec, data[k], compiled))

    events = _event_steps(s)
    candidates = [k for k in range(steps) if k + 1 not in events]
    method = s.integrator
    for k in rng.sample(candidates, min(SAMPLED_STEPS, len(candidates))):
        row = data[k]
        state = plant.PlantState(row[1], row[2], row[3], row[4], row[6])
        nxt = plant.step(state, row[5], s.dt, s.params, method)
        if nxt.as_tuple() != tuple(data[k + 1, 1:5]):
            problems.append(f"step {k}: plant.step gives {nxt.as_tuple()}, row has "
                            f"{tuple(data[k + 1, 1:5])}")

    if rec.csv is not None:
        lines = rec.csv.split("\n")
        if lines[0] != harness.TRAJECTORY_HEADER:
            problems.append(f"CSV header {lines[0]!r}")
        if len(lines) != data.shape[0] + 2 or lines[-1] != "":
            problems.append(f"CSV has {len(lines) - 2} data lines for {data.shape[0]} rows")

    if rec.lint:
        if rec.lint.get("round_trip") is not True:
            problems.append("parse(serialize(kb)) differs from the composed kb")
        if rec.lint.get("audit_violations"):
            problems.append(f"{rec.lint['audit_violations']} hierarchy audit violations")
    return problems


def backend_agreement(rec) -> list[str]:
    """Rerun one run on every available backend and compare trajectories."""
    if rec.error is not None or rec.traj is None:
        return []
    problems = []
    for backend in kernels.BACKENDS:
        other = harness.run(rec.scenario, backend=backend)
        if other.termination != rec.traj.termination:
            problems.append(f"{backend}: termination {other.termination}")
        elif other.data.shape != rec.traj.data.shape:
            problems.append(f"{backend}: {other.data.shape[0]} rows")
        else:
            diff = float(np.max(np.abs(other.data - rec.traj.data)))
            if not diff <= TOL:
                problems.append(f"{backend}: trajectories differ by {diff:.3e}")
    return problems
