"""What importing fuzzpole costs: numpy loads on the first array work, not
with the package, so authoring a rule base never loads it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fuzzpole import harness, plant
from fuzzpole.rulelang import builtin_pole_kb

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_time_numpy(source: str) -> list[int]:
    """Lines of ``source`` that import numpy when the module is imported:
    every ``import numpy``/``from numpy`` outside a function body and
    outside the body of ``if TYPE_CHECKING:``."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return  # runs when called, not at import
        if isinstance(node, ast.If) and ast.unparse(node.test) in (
            "TYPE_CHECKING", "typing.TYPE_CHECKING"
        ):
            nodes = node.orelse
        else:
            if isinstance(node, ast.Import) and any(
                a.name == "numpy" or a.name.startswith("numpy.") for a in node.names
            ):
                found.append(node.lineno)
            elif isinstance(node, ast.ImportFrom) and not node.level and (
                node.module == "numpy" or node.module.startswith("numpy.")
            ):
                found.append(node.lineno)
            nodes = ast.iter_child_nodes(node)
        for child in nodes:
            visit(child)

    visit(ast.parse(source))
    return found


@pytest.mark.parametrize("source, lines", [
    ("import numpy as np", [1]),
    ("import os, numpy.linalg", [1]),
    ("from numpy import zeros", [1]),
    ("try:\n    import numpy\nexcept ImportError:\n    pass", [2]),
    ("class C:\n    import numpy as np", [2]),
    ("if TYPE_CHECKING:\n    import numpy as np\nelse:\n    import numpy as np", [4]),
    ("if TYPE_CHECKING:\n    import numpy as np", []),
    ("def f():\n    import numpy as np\n    return np", []),
    ("from . import numpy_helpers\nimport numpyx", []),
])
def test_the_import_scan_finds_import_time_numpy(source, lines):
    assert _import_time_numpy(source) == lines


def test_no_module_imports_numpy_when_it_is_imported():
    """Each function that builds or reads arrays imports numpy itself; type
    annotations import it under ``if TYPE_CHECKING:`` only."""
    modules = sorted((SRC / "fuzzpole").glob("*.py"))
    assert modules
    found = {
        path.name: lines
        for path in modules
        if (lines := _import_time_numpy(path.read_text(encoding="utf-8")))
    }
    assert found == {}


_AUTHORING = """\
import contextlib
import io
import sys
from dataclasses import replace
from pathlib import Path

import fuzzpole
from fuzzpole import cli, harness, hierarchy, plant, rulelang

kb = rulelang.builtin_pole_kb()
parsed = rulelang.parse_knowledge_base(rulelang.serialize_kb(kb))
assert parsed.kb == kb and rulelang.validate_kb(parsed.kb) == []
goals = hierarchy.cart_pole_goals()
tier1 = [r for r in kb.rules if r.goal_index == 1]
tier2 = [
    replace(r, preconditions=tuple(p for p in r.preconditions if p.label != "VS"))
    for r in kb.rules if r.goal_index == 2
]
assert hierarchy.compose_hierarchical(
    goals, (tier1, tier2), hierarchy.Narrowed(hierarchy.DEFAULT_VERY_FACTOR), kb) == kb
variables = {
    name: fuzzpole.LinguisticVariable(
        var.name, var.unit, {k: v for k, v in var.labels.items() if k != "VS"})
    for name, var in kb.variables.items()
}
base = fuzzpole.KnowledgeBase(variables, kb.output_variable, (), kb.output_universe)
squared = hierarchy.compose_hierarchical(goals, (tier1, tier2), hierarchy.Concentration(), base)
assert squared.variables["theta"].labels["VS"].power == 2
assert hierarchy.audit_hierarchy(squared, goals).ok
lint = io.StringIO()
with contextlib.redirect_stdout(lint):
    code = cli.main(["lint", "--rules", str(Path(rulelang.__file__).parent / "kb" / "pole.frl")])
out = lint.getvalue()
assert code == 0 and "pole.frl: ok" in out and "audit" not in out, out  # audited, clean
scenario = harness.Scenario(
    "cold", plant.pole_params(1), harness.FuzzyController(kb), x_target=0.5, duration=0.5)
cli.build_parser()
assert "numpy" not in sys.modules, "numpy loaded before any array work"
traj = harness.run(scenario)
assert "numpy" in sys.modules
print(traj.termination, traj.data.tobytes().hex())
"""


def test_authoring_a_rule_base_loads_no_numpy():
    """In a fresh interpreter, importing fuzzpole, the built-in rule base
    through serialize, parse and validate, composition under both Very
    modes, the hierarchy audit, ``lint`` of ``kb/pole.frl`` (which audits
    it), a fuzzy scenario and the CLI's parser load no numpy; the first run
    loads it and gives this process's trajectory bit for bit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _AUTHORING], capture_output=True, text=True, env=env,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    termination, data = out.stdout.split()
    scenario = harness.Scenario(
        "cold", plant.pole_params(1), harness.FuzzyController(builtin_pole_kb()),
        x_target=0.5, duration=0.5,
    )
    traj = harness.run(scenario)
    assert (termination, data) == (traj.termination, traj.data.tobytes().hex())


def test_every_dataclass_has_a_docstring():
    """A dataclass with no docstring gets one built by ``inspect.signature``
    when its module is imported; each of the package's states its own."""
    bare = []
    for path in sorted((SRC / "fuzzpole").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and ast.get_docstring(node) is None and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list
            ):
                bare.append(f"{path.name}:{node.name}")
    assert bare == []
