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
