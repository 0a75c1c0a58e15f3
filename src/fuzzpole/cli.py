"""Command-line interface.

Subcommands: ``simulate`` a scenario file, ``compare`` controllers across
pole presets, ``batch`` the full preset sweep with gains pinned to the
nominal pole-1 model, and ``lint`` a rule file.

Runs draw no randomness anywhere (a test pins it), so a command run twice
writes byte-identical files.

Exit codes: 0 success, 1 diagnostics or invalid input (a scenario, plant,
rule-file, kernel or SFC design error), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .harness import (
    INPUT_ERRORS,
    Comparison,
    ScenarioError,
    compare,
    compute_metrics,
    default_scenario,
    emit_trajectory,
    load_scenario,
    run,
)
from .hierarchy import audit_hierarchy, cart_pole_goals
from .rulelang import Diagnostic, parse_knowledge_base, validate_kb

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_RUNTIME = 2


def _add_overrides(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dt", type=float, help="integration step override (s)")
    parser.add_argument("--duration", type=float, help="run length override (s)")
    parser.add_argument("--target", type=float, help="cart target position override (m)")


def _overrides(args) -> dict:
    """Scenario fields set on the command line.  They are applied when the
    scenario is built, so an absent control period resolves against the
    final ``dt``; a period written in a scenario file is kept."""
    values = {"dt": args.dt, "duration": args.duration, "x_target": args.target}
    return {key: value for key, value in values.items() if value is not None}


def cmd_simulate(args) -> int:
    bundle = load_scenario(args.scenario, **_overrides(args))
    scenario = bundle.scenario
    traj = run(scenario)
    empty = traj.data.shape[0] == 0  # the first force was not finite
    if not empty:
        report = compute_metrics(traj, scenario, bundle.theta_band_deg, bundle.x_band_m)
    print(f"termination: {traj.termination} at t={0.0 if empty else traj.t[-1]:.6g} s")
    if empty:
        print("no metrics: the run has no rows to compute them on")
    else:
        print(Comparison([scenario.name], {scenario.name: report}).render_text(), end="")
    if args.out:
        emit_trajectory(traj, args.out)
        print(f"trajectory written to {args.out}")
    return EXIT_OK


def _parse_poles(text: str) -> list[int]:
    try:
        poles = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ScenarioError(f"--poles expects a comma list of integers, got '{text}'")
    if not poles:
        raise ScenarioError("--poles is empty")
    return poles


def _run_comparison(args, poles, controllers, nominal_pole=None) -> int:
    """Run each controller on each pole preset.  SFC gains are designed as
    the scenarios are built, before any run, on ``nominal_pole``, or on the
    simulated pole when it is None."""
    scenarios = []
    for pole in poles:
        for controller in controllers:
            name = f"pole-{pole} {controller.upper()}"
            scenarios.append(default_scenario(
                pole, controller, nominal_pole=nominal_pole, name=name, **_overrides(args)
            ))
    result = compare(scenarios)
    print(result.render_text(), end="")
    if args.report:
        try:
            Path(args.report).write_text(result.to_csv(), encoding="utf-8", newline="\n")
        except OSError as exc:
            raise ScenarioError(f"cannot write report to {args.report}: {exc}") from exc
        print(f"report written to {args.report}")
    return EXIT_RUNTIME if result.failures else EXIT_OK


def cmd_compare(args) -> int:
    poles = _parse_poles(args.poles)
    controllers = [c.strip() for c in args.controllers.split(",") if c.strip()]
    return _run_comparison(args, poles, controllers)


def cmd_batch(args) -> int:
    poles = range(1, 8) if args.all_poles else _parse_poles(args.poles)
    return _run_comparison(args, poles, ("fc", "sfc"), nominal_pole=1)


def cmd_lint(args) -> int:
    try:
        text = Path(args.rules).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8
        print(f"error: cannot read {args.rules}: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    result = parse_knowledge_base(text)
    findings = list(result.diagnostics)
    exit_code = EXIT_OK
    if result.kb is None:
        exit_code = EXIT_DIAGNOSTICS
    else:
        findings.extend(validate_kb(result.kb))
        goals = cart_pole_goals()
        goal_vars = {a.variable for g in goals.goals for a in g.achieve}
        if goal_vars <= set(result.kb.variables):
            audit = audit_hierarchy(result.kb, goals)
            if not audit.ok:
                exit_code = EXIT_DIAGNOSTICS
            findings.extend(
                Diagnostic("error", 0, 0, f"audit: {v}", "hierarchy-audit")
                for v in audit.violations
            )
        else:
            print("audit: skipped (rule base does not use the cart-pole goal variables)")
    for diag in findings:
        print(diag)
    if exit_code == EXIT_OK:
        print(f"{args.rules}: ok ({len(findings)} warning(s))")
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzpole",
        description="Fuzzy cart-pole control toolkit: simulate, compare, lint.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scenario file")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--out", help="write the trajectory CSV here")
    _add_overrides(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="controllers side by side on pole presets")
    p.add_argument("--poles", default="1,2,6", help="comma list, e.g. 1,2,6")
    p.add_argument("--controllers", default="fc,sfc", help="comma list of fc,sfc")
    p.add_argument("--report", help="write the comparison CSV here")
    _add_overrides(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "batch",
        help="sweep pole presets with SFC gains fixed on the pole-1 nominal model",
    )
    p.add_argument("--all-poles", action="store_true", help="poles 1 through 7")
    p.add_argument("--poles", default="1,2,6", help="comma list when not --all-poles")
    p.add_argument("--report", help="write the comparison CSV here")
    _add_overrides(p)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("lint", help="check a rule file (parse, validate, audit)")
    p.add_argument("--rules", required=True, help="rule file (.frl)")
    p.set_defaults(func=cmd_lint)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
