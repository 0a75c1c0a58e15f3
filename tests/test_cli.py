import json
import math
from pathlib import Path

import pytest

from fuzzpole import cli
from fuzzpole.cli import main
from fuzzpole.rulelang import builtin_pole_source


@pytest.fixture()
def scenario_file(tmp_path):
    cfg = {
        "plant": {"preset": "pole-1"},
        "scenario": {"name": "smoke", "x_target": 0.2, "duration": 3.0},
        "controller": {"type": "fc"},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_simulate_writes_trajectory(scenario_file, tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main(["simulate", "--scenario", str(scenario_file), "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "termination: completed" in captured
    assert "settling bands" in captured
    lines = out.read_text().splitlines()
    assert lines[0].startswith("t,theta_deg")
    assert len(lines) == 602  # header + 601 samples of a 3 s run at 5 ms


def test_simulate_overrides(scenario_file, capsys):
    code = main(
        ["simulate", "--scenario", str(scenario_file),
         "--duration", "1.0", "--target", "0.0"]
    )
    assert code == 0
    assert "t=1 s" in capsys.readouterr().out


def test_simulate_prints_the_bands_of_the_metrics_section(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    cfg = {"scenario": {"duration": 1.0}, "metrics": {"theta_band_deg": 0.2, "x_band_m": 0.05}}
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["simulate", "--scenario", str(path)]) == 0
    assert "theta within +/-0.2 deg, x within +/-5 cm" in capsys.readouterr().out


def test_compare_dt_override_sets_an_unwritten_control_period(monkeypatch, capsys):
    """With no period written, the control period is the overriding dt,
    not the 5 ms of the default dt."""
    built = []

    def record(scenarios):
        built.extend(scenarios)
        return real_compare(scenarios)

    real_compare = cli.compare
    monkeypatch.setattr(cli, "compare", record)
    argv = ["compare", "--poles", "1", "--controllers", "fc", "--dt", "0.002",
            "--duration", "0.5"]
    assert main(argv) == 0
    assert [(s.dt, s.control_period, s.control_every) for s in built] == [(0.002, 0.002, 1)]


def _dt_override_file(tmp_path, scenario):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"scenario": scenario}), encoding="utf-8")
    return ["simulate", "--scenario", str(path), "--dt", "0.002"]


def test_simulate_dt_override_without_written_period(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    argv = _dt_override_file(tmp_path, {"duration": 0.5})
    assert main([*argv, "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 251  # header + 0.5 s at 2 ms


def test_simulate_dt_override_keeps_a_written_period(tmp_path, capsys):
    argv = _dt_override_file(tmp_path, {"duration": 0.5, "control_period": 0.005})
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "control_period (0.005) must be an integer multiple of dt (0.002)" in err


def test_simulate_missing_file(tmp_path, capsys):
    code = main(["simulate", "--scenario", str(tmp_path / "nope.json")])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--duration", "--dt", "--target"])
def test_simulate_rejects_nan_override(scenario_file, capsys, flag):
    code = main(["simulate", "--scenario", str(scenario_file), flag, "nan"])
    assert code == 1
    err = capsys.readouterr().err
    assert "error" in err and "internal error" not in err


def test_simulate_rejects_nan_event(tmp_path, capsys):
    cfg = {
        "scenario": {"duration": 1.0,
                     "events": [{"t": float("nan"), "kind": "tap",
                                 "delta_theta_dot_deg_s": 5.0}]},
        "controller": {"type": "fc"},
    }
    path = tmp_path / "nan_event.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["simulate", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert "event time" in err and "internal error" not in err


def test_simulate_reports_non_finite_state(tmp_path, capsys):
    """Open bounds and a coarse step let pole-7 under pole-1 gains overflow:
    the run ends as non_finite and the CSV holds only finite rows."""
    path = tmp_path / "overflow.json"
    path.write_text(
        '{"plant": {"preset": "pole-7"},'
        ' "scenario": {"x_target": 0.5, "track_bound": 1e400, "theta_limit_deg": 1e400},'
        ' "controller": {"type": "sfc", "nominal_pole": "pole-1"}}',
        encoding="utf-8",
    )
    out = tmp_path / "traj.csv"
    code = main(["simulate", "--scenario", str(path), "--dt", "0.5", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "termination: non_finite" in captured.out
    assert "internal error" not in captured.err
    cells = [c for line in out.read_text().splitlines()[1:] for c in line.split(",")]
    assert cells and all(math.isfinite(float(c)) for c in cells)


def test_simulate_run_without_rows(tmp_path, capsys):
    """The first force is not finite, so the run has no rows: simulate reports
    the termination, says there are no metrics, writes a header-only CSV and
    exits 0."""
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({
        "plant": {"preset": "pole-7"},
        "scenario": {"duration": 0.1, "initial": {
            "theta_deg": -1e308, "theta_dot_deg_s": -1e308,
            "x_m": -1e308, "x_dot_m_s": 1e308,
        }},
        "controller": {"type": "sfc", "nominal_pole": "pole-7"},
    }), encoding="utf-8")
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "termination: non_finite at t=0 s"
    assert lines[1] == "no metrics: the run has no rows to compute them on"
    assert out.read_text() == "t,theta_deg,theta_dot_deg_s,x_m,x_dot_m_s,force_N,tilt_deg\n"


def test_compare_report(tmp_path, capsys):
    report = tmp_path / "report.csv"
    code = main(
        ["compare", "--poles", "1", "--controllers", "fc,sfc",
         "--duration", "2.0", "--report", str(report)]
    )
    assert code == 0
    header = report.read_text().splitlines()[0]
    assert header == "metric,pole-1 FC,pole-1 SFC"
    assert "Max. theta overshoot (deg)" in capsys.readouterr().out


@pytest.mark.parametrize("command, what", [("simulate", "trajectory"), ("compare", "report")])
def test_unwritable_output_path_exits_1(scenario_file, tmp_path, capsys, command, what):
    """--out and --report fail alike on a path that cannot be written: a
    typed error naming the path, and exit 1."""
    path = tmp_path / "no-such-dir" / "out.csv"
    if command == "simulate":
        argv = ["simulate", "--scenario", str(scenario_file), "--out", str(path)]
    else:
        argv = ["compare", "--poles", "1", "--controllers", "sfc", "--report", str(path)]
    assert main([*argv, "--duration", "0.1"]) == 1
    err = capsys.readouterr().err
    assert f"error: cannot write {what} to {path}" in err and "internal error" not in err


def test_compare_rejects_bad_poles(capsys):
    assert main(["compare", "--poles", "1,zap"]) == 1
    for argv in (["compare", "--poles", "0"], ["batch", "--poles", "9"]):
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "unknown pole preset" in err and "internal error" not in err


_REJECTED_FILES = {
    "rk2.json": {"scenario": {"integrator": "rk2"}},
    "far-poles.json": {
        "scenario": {"duration": 1.0},
        "controller": {"type": "sfc", "desired_poles": [-1000, -1001, -1002, -1003]},
    },
}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["compare", "--controllers", ","], "compare needs at least one scenario"),
        (["compare", "--poles", ","], "--poles is empty"),
        (["compare", "--poles", "1", "--dt", "0"], "dt must be positive, got 0.0"),
        (["simulate", "--scenario", "rk2.json"], "unknown integrator 'rk2'"),
        (
            ["simulate", "--scenario", "far-poles.json"],
            "controller.desired_poles: placement verification failed",
        ),
    ],
    ids=["no-controllers", "no-poles", "zero-dt", "rk2-integrator", "unverified-poles"],
)
def test_rejected_inputs_exit_1(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    for name, cfg in _REJECTED_FILES.items():
        (tmp_path / name).write_text(json.dumps(cfg), encoding="utf-8")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "internal error" not in err


@pytest.mark.parametrize(
    "error, printed",
    [(OSError("disk gone"), "error: disk gone"), (RuntimeError("bug"), "internal error: bug")],
    ids=["os-error", "internal-error"],
)
def test_runtime_failures_exit_2(monkeypatch, capsys, error, printed):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_compare", fail)
    assert main(["compare"]) == 2
    assert capsys.readouterr().err == printed + "\n"


def test_batch_all_poles(tmp_path):
    report = tmp_path / "batch.csv"
    code = main(["batch", "--all-poles", "--duration", "1.0", "--report", str(report)])
    assert code == 0
    header = report.read_text().splitlines()[0]
    assert header.count("pole-") == 14  # 7 poles x 2 controllers


def test_lint_builtin_rules(tmp_path, capsys):
    rules = tmp_path / "pole.frl"
    rules.write_text(builtin_pole_source(), encoding="utf-8")
    code = main(["lint", "--rules", str(rules)])
    assert code == 0
    out = capsys.readouterr().out
    assert "label-alias" in out
    assert "ok (" in out


def test_lint_reports_the_builtin_alias_once(capsys):
    rules = Path(__file__).parents[1] / "src" / "fuzzpole" / "kb" / "pole.frl"
    code = main(["lint", "--rules", str(rules)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "label-alias" in line] == [
        "42:49: warning: label 'NL' is not defined on variable 'theta_dot'; "
        "reading it as 'NE' [label-alias]"
    ]
    assert lines[-1].endswith(": ok (1 warning(s))")


def test_lint_reports_errors(tmp_path, capsys):
    rules = tmp_path / "bad.frl"
    rules.write_text("rule r1: IF a IS b THEN c IS d\n", encoding="utf-8")
    code = main(["lint", "--rules", str(rules)])
    assert code == 1
    assert "unknown variable" in capsys.readouterr().out


def test_lint_flags_audit_violation(tmp_path, capsys):
    source = builtin_pole_source().replace(
        "rule r10 goal 2: IF theta IS VS AND theta_dot IS VS AND x IS PO "
        "AND x_dot IS PO THEN F IS PM",
        "rule r10 goal 2: IF theta_dot IS VS AND x IS PO AND x_dot IS PO THEN F IS PM",
    )
    rules = tmp_path / "broken.frl"
    rules.write_text(source, encoding="utf-8")
    code = main(["lint", "--rules", str(rules)])
    assert code == 1
    assert "audit" in capsys.readouterr().out


def test_lint_reports_a_missing_base_label_as_an_audit_violation(tmp_path, capsys):
    """theta_dot's ZE renamed ZZ, in its rules too: the goal-2 gates still
    sharpen theta_dot ZE, which the file no longer defines."""
    source = builtin_pole_source()
    source = source.replace("  label ZE triangle(-25.0,", "  label ZZ triangle(-25.0,")
    source = source.replace("theta_dot IS ZE", "theta_dot IS ZZ")
    assert source.count("ZZ") == 4
    rules = tmp_path / "renamed.frl"
    rules.write_text(source, encoding="utf-8")
    assert main(["lint", "--rules", str(rules)]) == 1
    audit = [line for line in capsys.readouterr().out.splitlines() if "audit:" in line]
    assert audit == [
        f"0:0: error: audit: rule '{name}', variable 'theta_dot': base label 'ZE' "
        "of the achievement gate is not defined [hierarchy-audit]"
        for name in ("r10", "r11", "r12", "r13")
    ]


def test_lint_skips_the_audit_without_the_goal_variables(tmp_path, capsys):
    rules = tmp_path / "boiler.frl"
    rules.write_text(_UNDRIVEN_RULES, encoding="utf-8")
    assert main(["lint", "--rules", str(rules)]) == 0
    out = capsys.readouterr().out
    assert "audit: skipped (rule base does not use the cart-pole goal variables)" in out


def test_unreadable_rules_file(tmp_path, capsys):
    code = main(["lint", "--rules", str(tmp_path / "ghost.frl")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_lint_rejects_a_rules_file_that_is_not_utf8(tmp_path, capsys):
    rules = tmp_path / "utf16.frl"
    rules.write_bytes("var x unit = m\n".encode("utf-16"))
    assert main(["lint", "--rules", str(rules)]) == 1
    err = capsys.readouterr().err
    assert f"error: cannot read {rules}: 'utf-8' codec can't decode" in err
    assert "internal error" not in err


_UNDRIVEN_RULES = """var pressure unit = Pa
  label LO triangle(0.0, 1.0, 2.0)
var F unit = N
  label ZE triangle(-1.0, 0.0, 1.0)
rule r1: IF pressure IS LO THEN F IS ZE
"""


@pytest.mark.parametrize(
    "controller, message",
    [
        ({"type": "fc", "rules": "boiler.frl"}, "variable 'pressure' has no input slot"),
        ({"type": "sfc", "desired_poles": [-1, -2, -3]}, "need exactly 4 desired poles"),
    ],
    ids=["undriven-variable", "three-poles"],
)
def test_simulate_typed_errors_exit_1(tmp_path, capsys, controller, message):
    (tmp_path / "boiler.frl").write_text(_UNDRIVEN_RULES, encoding="utf-8")
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps({"scenario": {"duration": 1.0}, "controller": controller}),
        encoding="utf-8",
    )
    assert main(["simulate", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert message in err and "internal error" not in err


def test_simulate_reports_rule_file_errors_located(tmp_path, capsys):
    bad = _UNDRIVEN_RULES.replace("IF pressure IS LO", "IF F IS ZE")
    (tmp_path / "bad.frl").write_text(bad, encoding="utf-8")
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps({"controller": {"type": "fc", "rules": "bad.frl"}}), encoding="utf-8"
    )
    assert main(["simulate", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"error: controller.rules: {tmp_path / 'bad.frl'}: rule file has errors:\n" in err
    assert (
        "5:13: error: rule 'r1' uses the output variable 'F' in a condition "
        "[output-in-condition]"
    ) in err


def test_simulate_missing_rules_file_exit_1(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps({"controller": {"type": "fc", "rules": "missing.frl"}}),
        encoding="utf-8",
    )
    code = main(["simulate", "--scenario", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "controller.rules" in err and "missing.frl" in err


def test_simulate_rejects_run_over_the_row_cap(scenario_file, capsys):
    """The cap is checked when the scenario is built: nothing is allocated."""
    code = main(["simulate", "--scenario", str(scenario_file), "--duration", "1e9"])
    assert code == 1
    err = capsys.readouterr().err
    assert "cap of 10000000" in err and "internal error" not in err
