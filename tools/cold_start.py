#!/usr/bin/env python3
"""Start-up time of one-shot calls, or the end-to-end metrics of a benchmark
workload, two checkouts side by side.

Run it from anywhere, naming the roots of two source checkouts:

    python tools/cold_start.py BASE HEAD --pairs 10
    python tools/cold_start.py BASE HEAD --workload kb-authoring --pairs 10 --seconds 25 --seed 1

Each command runs in a fresh interpreter, in its checkout, with
``PYTHONPATH`` set to the checkout's ``src/`` and its output discarded:

* ``import``: ``python -c "import fuzzpole"``;
* ``help``: ``python -m fuzzpole --help``;
* ``lint``: ``python -m fuzzpole lint --rules src/fuzzpole/kb/pole.frl``;
* ``simulate``: ``python -m fuzzpole simulate --scenario scenarios/step.json``.

One untimed call per side and command comes first, so that both sides start
from the same state of the file cache and of any ``.pyc`` files.  Then each
pair times every command once per side, BASE first in even pairs and HEAD
first in odd ones, so a drift of the host's speed weighs on both sides
alike.  The table gives each side's median wall time in seconds, the
change of HEAD against BASE, and in how many pairs HEAD was the faster.

With ``--workload W``, pair ``p`` runs ``perfbench/run.py --workload W --seed
S+p --seconds T --trace 0`` once per side, in its checkout, BASE first in even
pairs and HEAD first in odd ones.  The last line a run prints is its JSON
result; a run that is not ``correct`` or has ``failed`` runs stops the tool.
For each end-to-end metric of HEAD's ``BENCHMARK.json`` the table gives both
medians, the distance between the quartiles of the BASE runs, the change of
HEAD against BASE, and in how many pairs HEAD was better, "better" as the
metric's ``better`` says.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

COMMANDS = {
    "import": ["-c", "import fuzzpole"],
    "help": ["-m", "fuzzpole", "--help"],
    "lint": ["-m", "fuzzpole", "lint", "--rules", "src/fuzzpole/kb/pole.frl"],
    "simulate": ["-m", "fuzzpole", "simulate", "--scenario", "scenarios/step.json"],
}


def time_once(root: Path, args: list[str]) -> float:
    """Wall seconds of one fresh interpreter running ``args`` in ``root``."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *args], cwd=root, env=env, timeout=120,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    seconds = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"cold_start: {' '.join(args)} failed in {root}:\n"
                         f"{done.stderr.decode(errors='replace')}")
    return seconds


def measure(base: Path, head: Path, pairs: int, timer=time_once) -> dict:
    """command -> (BASE seconds, HEAD seconds), one of each per pair."""
    for root in (base, head):
        for args in COMMANDS.values():
            timer(root, args)  # untimed
    times = {name: ([], []) for name in COMMANDS}
    for pair in range(pairs):
        order = ((0, base), (1, head)) if pair % 2 == 0 else ((1, head), (0, base))
        for name, args in COMMANDS.items():
            for side, root in order:
                times[name][side].append(timer(root, args))
    return times


def table(times: dict) -> str:
    lines = [f"{'command':<10} {'base_s':>8} {'head_s':>8} {'change':>8}  head faster"]
    for name, (base, head) in times.items():
        b, h = statistics.median(base), statistics.median(head)
        wins = sum(x < y for x, y in zip(head, base))
        lines.append(f"{name:<10} {b:8.3f} {h:8.3f} {(h - b) / b:+8.1%}  {wins}/{len(base)}")
    return "\n".join(lines)


def run_workload(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result of one ``perfbench/run.py`` run of ``workload`` in ``root``."""
    args = ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run([sys.executable, *args], cwd=root, capture_output=True, text=True,
                          timeout=300 + 4 * seconds)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"cold_start: {' '.join(args)} failed in {root}:\n{done.stderr}")
    return json.loads(lines[-1])


def end_to_end_metrics(root: Path) -> dict[str, str]:
    """End-to-end metric -> "lower" or "higher", the better way, from
    ``BENCHMARK.json`` in ``root``."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["better"] for metric in spec["end_to_end"]}


def measure_workload(base: Path, head: Path, workload: str, pairs: int, seed: int,
                     seconds: float, metrics, runner=run_workload) -> dict:
    """metric -> (BASE values, HEAD values), one of each per pair; pair ``p``
    runs seed ``seed + p`` on both sides."""
    values = {name: ([], []) for name in metrics}
    for pair in range(pairs):
        order = ((0, base), (1, head)) if pair % 2 == 0 else ((1, head), (0, base))
        for side, root in order:
            result = runner(root, workload, seed + pair, seconds)
            if result.get("correct") is not True or result.get("failed", 0) > 0:
                raise SystemExit(
                    f"cold_start: {workload} seed {seed + pair} in {root} is refused: correct "
                    f"{result.get('correct')}, failed {result.get('failed')}"
                )
            for name in metrics:
                values[name][side].append(result["metrics"][name]["value"])
    return values


def workload_table(values: dict, better: dict[str, str]) -> str:
    """One row per metric of :func:`measure_workload`'s ``values``."""
    head_wins = {"lower": lambda h, b: h < b, "higher": lambda h, b: h > b}
    lines = [f"{'metric':<16} {'base':>11} {'head':>11} {'base_iqr':>11} {'change':>8}"
             "  head better"]
    for name, (base, head) in values.items():
        b, h = statistics.median(base), statistics.median(head)
        q1, _, q3 = statistics.quantiles(base, method="inclusive") if len(base) > 1 else [b] * 3
        wins = sum(map(head_wins[better[name]], head, base))
        change = f"{(h - b) / b:+8.1%}" if b else f"{'-':>8}"
        lines.append(f"{name:<16} {b:11.6g} {h:11.6g} {q3 - q1:11.6g} {change}  "
                     f"{wins}/{len(base)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="root of the checkout to compare against")
    parser.add_argument("head", type=Path, help="root of the checkout under test")
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs (default 10)")
    parser.add_argument("--workload", help="compare this perfbench workload, not start-up times")
    parser.add_argument("--seconds", type=float, help="--seconds of each workload run (default 25)")
    parser.add_argument("--seed", type=int, help="seed of the first pair (default 1)")
    args = parser.parse_args(argv)
    roots = [root.resolve() for root in (args.base, args.head)]
    for root in roots:
        if not (root / "src" / "fuzzpole" / "__init__.py").is_file():
            parser.error(f"{root} is not a fuzzpole checkout (no src/fuzzpole)")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.workload is None:
        if args.seconds is not None or args.seed is not None:
            parser.error("--seconds and --seed need --workload")
        print(table(measure(*roots, args.pairs)))
        return 0
    better = end_to_end_metrics(roots[1])
    seconds = 25.0 if args.seconds is None else args.seconds
    seed = 1 if args.seed is None else args.seed
    values = measure_workload(*roots, args.workload, args.pairs, seed, seconds, better)
    print(f"# {args.workload}: {args.pairs} pairs, seeds {seed}-{seed + args.pairs - 1}, "
          f"--seconds {seconds:g}")
    print(workload_table(values, better))
    return 0


if __name__ == "__main__":
    sys.exit(main())
