"""The repository's tools, checked without running them in full."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_mutant_snippet_occurs_once(monkeypatch):
    """What ``tools/mutate.py`` checks before it runs a mutant: a snippet
    that no longer occurs exactly once leaves its mutant stale."""
    spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
    mutate = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "mutate", mutate)  # dataclass looks it up
    spec.loader.exec_module(mutate)
    for mutant in mutate.MUTANTS:
        text = (ROOT / "src" / "fuzzpole" / mutant.path).read_text(encoding="utf-8")
        assert text.count(mutant.old) == 1, mutant.name
