#!/usr/bin/env python3
"""fuzzpole benchmark: one workload, measured end to end or traced per layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload pole-sweep --seed 1 --seconds 25 --trace 0

Workloads are described in ``workloads.py``.  The program is imported from
``src/`` of the checkout; the benchmark runs on whatever backend
``kernels.ACTIVE_BACKEND`` reports, in one process with one thread (BLAS
threads are capped at 1 below, before numpy loads).

``--trace 0`` repeats passes of the workload until ``--seconds`` have gone
by and reports the end-to-end metrics:

* ``setup_s``: median over five fresh interpreters of the time to import
  fuzzpole and build the workload's inputs;
* ``wall_s``: seconds of one pass, made of each run's median over the passes;
* ``sim_steps_per_s``: plant steps of one pass per ``wall_s``;
* ``run_ms_p50`` and ``run_ms_tail``: per-run latency, the median and the
  highest percentile (at most p90) that has at least 10 samples beyond it;
* ``peak_rss_mb``: peak resident memory of this process.

Times are rescaled to a reference host speed measured by ``calibrate.py``
between runs; the table prints the raw figures beside them, and the host's
speed.  The failed share of runs is printed too; it is ``failed`` over
``attempted`` in the JSON line, and not a metric, because it is 0.

``--trace 1`` runs untraced passes for half of ``--seconds``, then one traced
pass, and reports the per-layer metrics of ``tracing.py``.

Every run's output is checked (``checks.py``).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the environment.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
SETUP_CALIBRATIONS = 3
TAIL_BEYOND = 10
WORKLOAD_NAMES = ("pole-sweep", "sfc-rk4-export", "kb-authoring")

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_steps_per_s": "1/s",
    "run_ms_p50": "ms",
    "run_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import fuzzpole from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import fuzzpole
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import fuzzpole from {src}: {exc}")
    if not Path(fuzzpole.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: fuzzpole came from {fuzzpole.__file__}, not {src}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="fuzzpole benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs the self-test's small inputs")
    parser.add_argument("--setup-only", action="store_true",
                        help="time import and input building, print it, exit")
    return parser.parse_args(argv)


def build(args):
    start = time.perf_counter()
    import_program()
    import workloads

    inputs = workloads.WORKLOADS[args.workload].build(args.seed, args.scale)
    return inputs, time.perf_counter() - start


def setup_samples(args) -> list[tuple[float, float]]:
    """(set-up seconds, calibration loop seconds) of fresh interpreters."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0", "--scale", args.scale]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        samples.append(tuple(json.loads(out.stdout.strip().splitlines()[-1])))
    return samples


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def environment(args) -> dict:
    import numpy
    from fuzzpole import kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": kernels.ACTIVE_BACKEND,
        "backends": list(kernels.BACKENDS),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_revision": git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile up to p90 with at least
    TAIL_BEYOND samples beyond it, the median when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    q = min(0.9, (n - 1 - TAIL_BEYOND) / (n - 1)) if n > 1 else 0.5
    q = max(q, 0.5)
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return q, ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Tally:
    """Checks every run of every pass and counts what failed."""

    def __init__(self, inputs, seed: int):
        import checks

        self.checks = checks
        self.reference = checks.load_reference(inputs.workload, inputs.scale)
        self.compiled = inputs.compiled
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, records, across_backends: bool = False) -> None:
        """Check every run; with ``across_backends`` one of them, drawn from
        the seed, is also rerun on every backend."""
        agree = self.rng.choice(records) if across_backends else None
        for rec in records:
            found = self.checks.check_run(rec, self.reference, self.rng, self.compiled)
            if rec is agree:
                found += self.checks.backend_agreement(rec)
            self.attempted += 1
            if found:
                self.failed += 1
                self.problems.append(f"{rec.key}: {'; '.join(found)}")


def steps_of(records) -> int:
    return sum(r.traj.data.shape[0] - 1 for r in records if r.traj is not None)


def latencies_of(records, rescale) -> dict[str, float]:
    """Seconds per latency group (a run, or a preset's runs), each run's time
    multiplied by ``rescale(record)``."""
    groups: dict[str, float] = {}
    for r in records:
        if r.error is None:
            groups[r.group] = groups.get(r.group, 0.0) + r.seconds * rescale(r)
    return groups


@dataclass
class Passes:
    """Per pass: wall seconds, plant steps, and seconds per latency group,
    raw and rescaled to the reference host."""

    walls: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    scaled: list = field(default_factory=list)  # one {group: seconds} per pass

    def scaled_latencies(self) -> list[float]:
        return [t for groups in self.scaled for t in groups.values()]

    def scaled_wall(self) -> float:
        """A pass made of each group's median rescaled time: one slow spell
        of the host then spoils one run's sample, not the pass."""
        groups = {g for p in self.scaled for g in p}
        return sum(statistics.median(p[g] for p in self.scaled if g in p) for g in groups)


def measure(workload, inputs, tally: Tally, seconds: float, calibrator) -> Passes:
    """Passes until ``seconds`` have gone by.  The calibrator samples the
    host's speed before each run and after each pass; its own time is taken
    out of the pass."""
    passes = Passes()
    deadline = time.perf_counter() + seconds
    while True:
        spent = calibrator.spent
        start = time.perf_counter()
        records = workload.run_pass(inputs, calibrator.between_runs)
        wall = time.perf_counter() - start
        passes.walls.append(wall - (calibrator.spent - spent))
        calibrator.between_runs()
        passes.steps.append(steps_of(records))
        passes.latencies.extend(latencies_of(records, lambda r: 1.0).values())
        passes.scaled.append(latencies_of(
            records, lambda r: calibrator.factor(r.start, r.start + r.seconds)
        ))
        tally.add(records, across_backends=len(passes.walls) == 1)
        if time.perf_counter() >= deadline:
            return passes


def end_to_end(args, workload, inputs, setup_own):
    import calibrate

    setups = [(setup_own, calibrate.loop_seconds(SETUP_CALIBRATIONS))] + setup_samples(args)
    calibrator = calibrate.Calibrator()
    tally = Tally(inputs, args.seed)
    passes = measure(workload, inputs, tally, args.seconds, calibrator)
    n_passes, n_runs = len(passes.walls), len(passes.latencies)
    steps = statistics.median(passes.steps)
    scaled_wall = passes.scaled_wall()
    scaled_latencies = passes.scaled_latencies()
    q, tail_s = tail(scaled_latencies)
    values = {
        # name: (rescaled value, raw value, sample count)
        "setup_s": (
            statistics.median(t * calibrate.REFERENCE_S / c for t, c in setups),
            statistics.median(t for t, _ in setups),
            f"{len(setups)} interpreters",
        ),
        "wall_s": (scaled_wall, statistics.median(passes.walls), f"{n_passes} passes"),
        "sim_steps_per_s": (
            steps / scaled_wall,
            statistics.median(n / w for n, w in zip(passes.steps, passes.walls)),
            f"{n_passes} passes",
        ),
        "run_ms_p50": (statistics.median(scaled_latencies) * 1e3,
                       statistics.median(passes.latencies) * 1e3, f"{n_runs} runs"),
        "run_ms_tail": (tail_s * 1e3, tail(passes.latencies)[1] * 1e3,
                        f"p{q * 100:.0f} of {n_runs} runs"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, None, "1 process"
        ),
    }
    rows = [
        (name, value, E2E_UNITS[name],
         note if raw is None else f"{note}; raw {format_value(raw)} {E2E_UNITS[name]}")
        for name, (value, raw, note) in values.items()
    ]
    rows.append((
        "failed_frac", tally.failed / tally.attempted, "ratio",
        f"{tally.failed} of {tally.attempted} runs",
    ))
    rows.append((
        "host_speed", calibrator.median_factor(), "x",
        f"against the reference host, median of {len(calibrator.samples)} calibration loops",
    ))
    metrics = {name: values[name][0] for name in E2E_UNITS}
    return tally, rows, metrics, E2E_UNITS


def traced(args, workload, inputs):
    """Untraced passes for half of ``--seconds``, then one traced pass.  The
    tracing overhead compares the two, each run rescaled to the reference
    host as in ``end_to_end``; the per-layer times are raw, as is
    ``trace.wall_s`` that the shares are of."""
    import calibrate
    import tracing

    calibrator = calibrate.Calibrator()
    tally = Tally(inputs, args.seed)
    passes = measure(workload, inputs, tally, args.seconds / 2, calibrator)
    with tracing.Tracer() as tracer:
        start = time.perf_counter()
        records = workload.run_pass(inputs, tracer.pausing(calibrator.between_runs))
        end = time.perf_counter()
    calibrator.between_runs()
    traced_wall = end - start - tracer.paused

    def rescale(r):
        stop = r.start + r.seconds
        own = r.seconds - tracer.paused_within(r.start, stop)
        return own / r.seconds * calibrator.factor(r.start, stop)

    rescaled = sum(latencies_of(records, rescale).values())
    tally.add(records)
    mismatch = tracer.totals["fuzzy.mismatch"]
    if mismatch:
        tally.failed += 1
        tally.problems.append(
            f"replayed fuzzy_force differs from the run at {mismatch:.0f} instants"
        )
    metrics = tracing.layer_metrics(
        tracer, traced_wall, rescaled / passes.scaled_wall() - 1.0, records
    )
    no_fuzzy = metrics["kernels.fuzzy_force.calls"] == 0

    def note(name, value, unit):
        idle = unit in ("ms", "us") or (no_fuzzy and name.startswith(("fuzzy.", "kernels.fuzzy")))
        return "not called" if value == 0 and idle else ""

    rows = [
        (name, value, unit, note(name, value, unit))
        for (name, value), unit in zip(metrics.items(), tracing.UNITS.values())
    ]
    rows.append(("waiting", "none", "", "nothing waits on a queue, lock or process"))
    return tally, rows, metrics, tracing.UNITS


def format_value(value) -> str:
    if isinstance(value, str):
        return value
    if float(value).is_integer() and abs(value) < 1e15:
        return f"{int(value)}"
    return f"{value:.6g}"


def main(argv=None) -> int:
    args = parse_args(argv)
    inputs, setup_own = build(args)
    if args.setup_only:
        import calibrate

        print(json.dumps([setup_own, calibrate.loop_seconds(SETUP_CALIBRATIONS)]))
        return 0
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        tally, rows, metrics, units = traced(args, workload, inputs)
    else:
        tally, rows, metrics, units = end_to_end(args, workload, inputs, setup_own)

    print(f"# {workload.name}: {workload.why}")
    width = max(len(r[0]) for r in rows)
    for name, value, unit, note in rows:
        print(f"{name:<{width}}  {format_value(value):>14} {unit:<6} {note}")
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}")
    print(json.dumps({"environment": environment(args)}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
