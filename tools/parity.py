"""Parity grid: one SHA-256 per run of a fixed set of simulations and
fuzzy-law evaluations, recorded once and compared on every later change.

Run it from the root of a checkout:

    python tools/parity.py            # compare with tools/parity.json
    python tools/parity.py --record   # write tools/parity.json

The grid is fixed:

* presets 1-7 x FC/SFC x Euler/RK4 x control period 5/20 ms x x_target
  +-0.5 x events off/on, 50 s each (224 runs).  SFC uses the pole-1 gains
  on every preset, so some runs end early; the events are a tap of
  0.4 rad/s at 2.013 s and a tilt of 0.12 rad from 4.5 s;
* the scenario files ``scenarios/*.json``;
* 8,000 ``kernels.fuzzy_force`` inputs on each of 8 rule bases (uniform,
  near-zero, label-corner, NaN, +-0 and +-inf values), drawn by a seeded
  ``random.Random``.

A run's digest covers its trajectory bytes, its termination and its CSV
bytes; a rule base's digest covers the ``repr`` of every (force, fired)
pair.  The default mode names each run whose digest differs from the
record, or is missing from it, and exits 1 if there is any.  A change that
alters outputs on purpose records the grid again and says why.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import itertools
import json
import platform
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from fuzzpole import kernels  # noqa: E402
from fuzzpole.fuzzy import (  # noqa: E402
    KnowledgeBase, LinguisticVariable, OutputUniverse, triangle,
)
from fuzzpole.harness import (  # noqa: E402
    default_scenario, emit_trajectory, load_scenario, run,
)
from fuzzpole.hierarchy import (  # noqa: E402
    Concentration, Narrowed, cart_pole_goals, compose_hierarchical,
)
from fuzzpole.plant import set_tilt, tap  # noqa: E402
from fuzzpole.rulelang import builtin_pole_kb  # noqa: E402

RECORD = ROOT / "tools" / "parity.json"
EVENTS = (tap(2.013, 0.4), set_tilt(4.5, 0.12))
INPUTS_PER_KB = 8_000
SEED = 20131
_SCALES = (12.0, 45.0, 1.0, 0.5)  # theta, theta_dot, x, x_dot
_SPECIALS = (float("nan"), float("inf"), float("-inf"), 0.0, -0.0)


def _digest(traj) -> str:
    csv = io.StringIO()
    emit_trajectory(traj, csv)
    h = hashlib.sha256(traj.data.tobytes())
    h.update(traj.termination.encode())
    h.update(csv.getvalue().encode())
    return h.hexdigest()


def grid_runs():
    """(name, scenario) for every grid simulation, in a fixed order."""
    grid = itertools.product(
        range(1, 8), ("fc", "sfc"), ("euler", "rk4"), (0.005, 0.02), (0.5, -0.5), ((), EVENTS)
    )
    for pole, controller, integrator, period, x_target, events in grid:
        name = (
            f"pole-{pole} {controller} {integrator} cp{period * 1000:g}ms "
            f"x{x_target:+g} events-{'on' if events else 'off'}"
        )
        yield name, default_scenario(
            pole, controller, x_target=x_target,
            nominal_pole=1 if controller == "sfc" else None,
            control_period=period, events=events, integrator=integrator,
        )
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        yield f"scenarios/{path.name}", load_scenario(path).scenario


def _tiered_kb(mode, n):
    """The built-in rules rebuilt by ``compose_hierarchical``: goal-2 rules
    lose their VS gate, which the composition puts back as a Very label."""
    builtin = builtin_pole_kb()
    variables = {
        name: LinguisticVariable(
            var.name, var.unit, {k: v for k, v in var.labels.items() if k != "VS"}
        )
        for name, var in builtin.variables.items()
    }
    universe = OutputUniverse(builtin.output_universe.lo, builtin.output_universe.hi, n)
    base = KnowledgeBase(variables, builtin.output_variable, (), universe)
    tier2 = [
        dataclasses.replace(
            r, preconditions=tuple(p for p in r.preconditions if p.label != "VS")
        )
        for r in builtin.rules if r.goal_index == 2
    ]
    tier1 = [r for r in builtin.rules if r.goal_index == 1]
    return compose_hierarchical(cart_pole_goals(), [tier1, tier2], mode, base)


def _three_deep_kb():
    """Output labels 4 N apart and 12 N wide on a 1 N grid: up to three
    conclusion curves cover a grid point."""
    builtin = builtin_pole_kb()
    names = ("NL", "NM", "NS", "ZE", "PS", "PM", "PL")
    labels = {n: triangle(p - 6.0, p, p + 6.0) for n, p in zip(names, range(-12, 13, 4))}
    variables = {**builtin.variables, "F": LinguisticVariable("F", "N", labels)}
    return KnowledgeBase(variables, "F", builtin.rules, OutputUniverse(-12.0, 12.0, 25))


def law_kbs():
    """(name, rule base) for every fuzzy-law digest, in a fixed order."""
    builtin = builtin_pole_kb()
    u = builtin.output_universe
    yield "builtin", builtin
    yield "builtin n51", KnowledgeBase(
        builtin.variables, builtin.output_variable, builtin.rules,
        OutputUniverse(u.lo, u.hi, 51),
    )
    yield "no rules", builtin.with_rules([])
    yield "3 deep n25", _three_deep_kb()
    yield "very n201", _tiered_kb(Concentration(), 201)
    yield "very n3", _tiered_kb(Concentration(), 3)
    yield "narrowed 0.12 n401", _tiered_kb(Narrowed(0.12), 401)
    yield "narrowed 0.5 n51", _tiered_kb(Narrowed(0.5), 51)


def _law_inputs(kb, rng: random.Random):
    names = sorted(kernels.DEFAULT_SLOTS, key=kernels.DEFAULT_SLOTS.get)
    corners = [
        sorted({p for mf in kb.variables[name].labels.values() for p in mf.params})
        for name in names
    ]
    for _ in range(INPUTS_PER_KB):
        row = []
        for scale, breakpoints in zip(_SCALES, corners):
            kind = rng.random()
            if kind < 0.55:
                row.append(rng.uniform(-scale, scale))
            elif kind < 0.65:
                row.append(rng.uniform(-scale, scale) * 1e-3)
            elif kind < 0.85:
                row.append(rng.choice(breakpoints))
            else:
                row.append(rng.choice(_SPECIALS))
        yield row


def _law_digest(kb, rng: random.Random) -> str:
    ck = kernels.compile_kb(kb)
    h = hashlib.sha256()
    for row in _law_inputs(kb, rng):
        h.update(repr(kernels.fuzzy_force(ck, np.array(row))).encode() + b"\n")
    return h.hexdigest()


def digests() -> dict[str, str]:
    out = {name: _digest(run(scenario)) for name, scenario in grid_runs()}
    rng = random.Random(SEED)
    for name, kb in law_kbs():
        out[f"fuzzy_force {name}"] = _law_digest(kb, rng)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true", help=f"write {RECORD.name}")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    found = digests()
    elapsed = time.perf_counter() - start
    if args.record:
        record = {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "digests": found,
        }
        RECORD.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"recorded {len(found)} digests to {RECORD} in {elapsed:.1f} s")
        return 0
    recorded = json.loads(RECORD.read_text(encoding="utf-8"))["digests"]
    differing = [name for name in found if recorded.get(name) != found[name]]
    missing = [name for name in recorded if name not in found]
    for name in differing:
        print(f"DIFFERS: {name}")
    for name in missing:
        print(f"MISSING: {name}")
    same = len(found) - len(differing)
    print(f"{same} of {len(recorded)} recorded digests identical ({elapsed:.1f} s)")
    return 1 if differing or missing else 0


if __name__ == "__main__":
    sys.exit(main())
