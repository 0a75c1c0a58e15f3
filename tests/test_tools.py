"""The repository's tools, checked without running them in full."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_tool(name, monkeypatch):
    """Import ``tools/<name>.py``, registered while the test runs (a
    dataclass looks its module up)."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_snippet_occurs_once(monkeypatch):
    """What ``tools/mutate.py`` checks before it runs a mutant: a snippet
    that no longer occurs exactly once leaves its mutant stale."""
    mutate = _load_tool("mutate", monkeypatch)
    for mutant in mutate.MUTANTS:
        text = (ROOT / "src" / "fuzzpole" / mutant.path).read_text(encoding="utf-8")
        assert text.count(mutant.old) == 1, mutant.name


def test_cold_start_alternates_the_side_that_runs_first(monkeypatch):
    """Every command runs untimed once per side, then once per side in each
    pair, BASE first in even pairs and HEAD first in odd ones; the table
    counts the pairs HEAD won."""
    cold_start = _load_tool("cold_start", monkeypatch)
    base, head = Path("base"), Path("head")
    calls = []

    def timer(root, args):
        calls.append((root, args))
        return 1.0 if root == base else 0.5

    times = cold_start.measure(base, head, 3, timer)
    commands = list(cold_start.COMMANDS.values())
    warm = [(root, args) for root in (base, head) for args in commands]
    pairs = [
        (root, args) for order in ((base, head), (head, base), (base, head))
        for args in commands for root in order
    ]
    assert calls == warm + pairs
    assert times["lint"] == ([1.0] * 3, [0.5] * 3)
    row = cold_start.table(times).splitlines()[3]
    assert row.split() == ["lint", "1.000", "0.500", "-50.0%", "3/3"]


def test_cold_start_runs_a_command_in_a_checkout(monkeypatch, capsys):
    cold_start = _load_tool("cold_start", monkeypatch)
    assert cold_start.time_once(ROOT, cold_start.COMMANDS["help"]) > 0.0
    with pytest.raises(SystemExit):
        cold_start.main([str(ROOT / "tools"), str(ROOT), "--pairs", "1"])
    assert "is not a fuzzpole checkout" in capsys.readouterr().err


def test_workload_pairs_alternate_and_count_the_better_way(monkeypatch):
    """Pair p runs seed S + p on both sides, BASE first in even pairs; the
    table gives the medians, BASE's interquartile range, the change and the
    pairs HEAD won, a win being lower or higher as the metric says."""
    cold_start = _load_tool("cold_start", monkeypatch)
    base, head = Path("base"), Path("head")
    calls = []

    def runner(root, workload, seed, seconds):
        calls.append((root, workload, seed, seconds))
        slow = 1.0 + seed / 10 if root == base else 1.0
        return {"correct": True, "attempted": 4, "failed": 0, "metrics": {
            "wall_s": {"value": slow, "unit": "s"},
            "sim_steps_per_s": {"value": 100.0 / slow, "unit": "1/s"},
            "peak_rss_mb": {"value": 50.0, "unit": "MB"},
        }}

    better = {"wall_s": "lower", "sim_steps_per_s": "higher", "peak_rss_mb": "lower"}
    values = cold_start.measure_workload(base, head, "kb-authoring", 4, 7, 8.0, better, runner)
    sides = [(base, head), (head, base)] * 2
    assert calls == [(root, "kb-authoring", 7 + p, 8.0) for p in range(4) for root in sides[p]]
    assert values["wall_s"] == ([1.7, 1.8, 1.9, 2.0], [1.0] * 4)
    rows = [row.split() for row in cold_start.workload_table(values, better).splitlines()]
    assert rows[0] == ["metric", "base", "head", "base_iqr", "change", "head", "better"]
    assert rows[1] == ["wall_s", "1.85", "1", "0.15", "-45.9%", "4/4"]
    assert rows[2][0] == "sim_steps_per_s" and rows[2][-1] == "4/4"
    assert rows[3] == ["peak_rss_mb", "50", "50", "0", "+0.0%", "0/4"]


@pytest.mark.parametrize("result", [
    {"correct": False, "failed": 0}, {"correct": True, "failed": 2}, {"failed": 0},
], ids=["incorrect", "failed-runs", "no-verdict"])
def test_a_workload_run_that_is_not_correct_is_refused(monkeypatch, result):
    cold_start = _load_tool("cold_start", monkeypatch)
    with pytest.raises(SystemExit, match="seed 3 in base is refused"):
        cold_start.measure_workload(Path("base"), Path("head"), "pole-sweep", 2, 3, 1.0,
                                    {"wall_s": "lower"}, lambda *args: result)


def test_the_workload_metrics_are_the_benchmarks_end_to_end(monkeypatch, capsys):
    cold_start = _load_tool("cold_start", monkeypatch)
    better = cold_start.end_to_end_metrics(ROOT)
    assert better["wall_s"] == "lower" and better["sim_steps_per_s"] == "higher"
    assert set(better.values()) == {"lower", "higher"}
    with pytest.raises(SystemExit):
        cold_start.main([str(ROOT), str(ROOT), "--seed", "2"])
    assert "--seconds and --seed need --workload" in capsys.readouterr().err


def test_a_workload_run_is_read_from_its_last_line(monkeypatch, tmp_path):
    """``run_workload`` passes the pair's arguments to ``perfbench/run.py`` in
    the checkout and reads the JSON object on the last line it prints."""
    cold_start = _load_tool("cold_start", monkeypatch)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json, sys\n"
        "print('# table')\n"
        "print(json.dumps({'environment': {}}))\n"
        "print(json.dumps({'correct': True, 'failed': 0, 'argv': sys.argv[1:]}))\n"
    )
    result = cold_start.run_workload(tmp_path, "pole-sweep", 5, 2.5)
    assert result["argv"] == ["--workload", "pole-sweep", "--seed", "5", "--seconds", "2.5",
                              "--trace", "0"]
    (tmp_path / "perfbench" / "run.py").write_text("raise SystemExit('no such workload')\n")
    with pytest.raises(SystemExit, match="no such workload"):
        cold_start.run_workload(tmp_path, "pole-sweep", 5, 2.5)
