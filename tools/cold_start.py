#!/usr/bin/env python3
"""Start-up time of one-shot calls, two checkouts side by side.

Run it from anywhere, naming the roots of two source checkouts:

    python tools/cold_start.py BASE HEAD --pairs 10

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
"""

from __future__ import annotations

import argparse
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="root of the checkout to compare against")
    parser.add_argument("head", type=Path, help="root of the checkout under test")
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs (default 10)")
    args = parser.parse_args(argv)
    roots = [root.resolve() for root in (args.base, args.head)]
    for root in roots:
        if not (root / "src" / "fuzzpole" / "__init__.py").is_file():
            parser.error(f"{root} is not a fuzzpole checkout (no src/fuzzpole)")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    print(table(measure(*roots, args.pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
