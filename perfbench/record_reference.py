#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks every run against.

Runs every input each workload can draw, at both scales, and writes
termination, row count, final state and metrics per run key to
``reference.json``.  Rerun it only when a change is meant to alter
trajectories, and say so in that change:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.import_program()
    import checks
    import workloads
    from fuzzpole import kernels

    runs = {}
    for scale in ("full", "tiny"):
        runs[scale] = {}
        for name, workload in workloads.WORKLOADS.items():
            records = workload.run_pass(workloads.reference_inputs(name, scale))
            failed = [f"{r.key}: {r.error}" for r in records if r.error is not None]
            if failed:
                raise SystemExit("runs raised:\n" + "\n".join(failed))
            runs[scale][name] = {r.key: checks.summarize(r) for r in records}
            print(f"{scale} {name}: {len(records)} runs", file=sys.stderr)
    recorded_with = {"backend": kernels.ACTIVE_BACKEND, "git_revision": run.git_revision()}
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"recorded_with": recorded_with, "runs": runs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
