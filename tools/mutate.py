"""Mutation check: apply each of a fixed list of semantic mutants to a
temporary copy of ``src/`` and name each mutant the tests fail to catch.

Run it from the root of a checkout:

    python tools/mutate.py                                # against tests/
    python tools/mutate.py tests/test_kernels.py          # against these tests
    python tools/mutate.py tests/test_kernels.py::test_row_writer_keeps_the_bits

Each mutant replaces one exact snippet of one source file, so it breaks
one rule the code keeps: a -0.0 kept, an operation order that rounds as
the reference does, the RK4 half step, an RK4 stage's angle, the Euler
position update, the clamps, the count of instants where no rule fired, a
float64 row, the coverage depth, a trapezoid comparison, a shared prefix
of rule conditions, an event's step, the slope force after a tilt, the
fuzzy law's fold over its layers, its center-of-area arithmetic, the
state its generated law reads, the gate a composed goal carries from the
goal above, the SFC design's conjugation check, the SFC law's target, the
number rule's refusal of a bool, the integer rule's refusal of a bool, a
label's finite ramp widths, the stationary point of the hierarchy audit's
level-set gap, the guard on a universe too wide to sum, the number rule on
a scenario file's angles, a rule's preconditions stored as a tuple, and
the CSV writer's margin from a rounding tie and its refusal of a carry to
1e6.
For each mutant the tests run on the mutated copy (pytest ``-x``, stopping
at the first failure); a mutant is caught when they fail.  Before the mutants, the same tests run on the
unmutated copy and must pass.  The check prints
one line per mutant and exits 1 if any survives or its snippet no longer
occurs exactly once in the source (the mutant is stale and must be
rewritten with the code; ``tests/test_tools.py`` checks that too, without
running the mutants).
With every test it takes a few minutes; it is not part of the test suite.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/fuzzpole
    old: str  # must occur exactly once in the file
    new: str


MUTANTS = (
    Mutant(
        "lost -0.0",  # the loop writes a -0.0 force as +0.0
        "kernels.py",
        "\n        write_row(traj, row_size * k, k * dt, theta, theta_dot, x, x_dot, f, tilt)",
        "\n        write_row(traj, row_size * k, k * dt, theta, theta_dot, x, x_dot, f + 0.0, tilt)",
    ),
    Mutant(
        "reassociated product in the stage template",
        "plant.py",
        "(-net - ml * {p} * {p} * sin_t + friction)",
        "(-net - ml * ({p} * {p} * sin_t) + friction)",
    ),
    Mutant("RK4 half step bound as dt", "plant.py", "h = 0.5 * dt", "h = dt"),
    Mutant(
        "RK4 stage 3 angle from theta_dot",  # the third stage's angle skips p2
        "plant.py",
        "t3 = theta + h * p2",
        "t3 = theta + h * theta_dot",
    ),
    Mutant(
        "Euler position from the updated velocity",  # the shared step source
        "plant.py",
        "    x + x_dot * dt,\n",
        "    x + (x_dot + x_ddot * dt) * dt,\n",
    ),
    Mutant(
        "skipped clamp",  # the saturation source is empty: no force is clamped
        "plant.py",
        "if f > f_max:\n    f = f_max\nelif f < -f_max:\n    f = -f_max\n",
        "",
    ),
    Mutant(
        "loop clamp skipped",  # the run loop records and applies the law's force as is
        "kernels.py",
        'clamp=indent(plant._CLAMP, " " * 12).rstrip("\\n"),',
        'clamp="",',
    ),
    Mutant(
        "no-rule instant not counted",  # the law slot's fired flag is dropped
        "kernels.py",
        "            if not fired:\n                norule += 1\n",
        "",
    ),
    Mutant("7f row", "kernels.py", '_ROW = struct.Struct("7d")', '_ROW = struct.Struct("7f")'),
    Mutant(
        "layers capped at 2",
        "kernels.py",
        "depth = int((~zero).sum(axis=0).max(initial=0))",
        "depth = min(2, int((~zero).sum(axis=0).max(initial=0)))",
    ),
    Mutant(
        "< changed to <= in the trapezoid",  # the degree source __call__ and the law share
        "fuzzy.py",
        "if x{i} < b{k}:\n",
        "if x{i} <= b{k}:\n",
    ),
    Mutant(
        "trie child's min started from 1.0",  # a shared prefix's value is lost
        "kernels.py",
        'walk(child, f"s{n}", pad + "    ")',
        'walk(child, "1.0", pad + "    ")',
    ),
    Mutant(
        "event step off by one",
        "harness.py",
        "[int(round(min(e.t / scenario.dt, scenario.n_steps))) for e in events]",
        "[int(round(min(e.t / scenario.dt, scenario.n_steps))) + 1 for e in events]",
    ),
    Mutant(
        "slope not refreshed at a tilt event",  # the loop keeps the old slope force
        "kernels.py",
        "                tilt = ev_value[ev_i]\n                slope = slope_force(tilt, g, total)\n",
        "                tilt = ev_value[ev_i]\n",
    ),
    Mutant(
        "fold skipped past the second layer",  # depth 3 and up lose a layer
        "kernels.py",
        "for r in range(1, len(layers))]",
        "for r in range(1, 2)]",
    ),
    Mutant(
        "0.0 + dropped from the center of area",
        "kernels.py",
        '"    f, fired = (0.0 + coa.real) / den, True",',
        '"    f, fired = coa.real / den, True",',
    ),
    Mutant(
        "accumulate swapped for np.add.reduce",  # a pairwise sum, not in order
        "kernels.py",
        '"accumulate(terms, out=sums)",\n        "coa = sums.item(-1)",',
        '"coa = terms.sum().item()",',  # numpy's sum is np.add.reduce
    ),
    Mutant(
        "real and imaginary parts swapped",
        "kernels.py",
        "weighted, aggregate = terms.real, terms.imag",
        "weighted, aggregate = terms.imag, terms.real",
    ),
    Mutant(
        "goal gated on its own achievements",  # not on the gate of the goal above
        "hierarchy.py",
        "        allowed = set(goal.variables)\n",
        "        gate = tuple(Precondition(e.variable, _very_label(variables, e, mode))"
        " for e in goal.achieve)\n        allowed = set(goal.variables)\n",
    ),
    Mutant(
        "conjugation check dropped",  # an unpaired complex pole set is placed as its real part
        "sfc.py",
        "        if np.any(np.abs(coeffs.imag) > tol):\n"
        '            raise DesignError(f"desired poles {poles} are not closed under conjugation")\n',
        "",
    ),
    Mutant(
        "SFC law reads x, not x - x_target",  # the law source sfc_output and the loop share
        "sfc.py",
        "k2 * (x - x_target)",
        "k2 * x",
    ),
    Mutant(
        "theta_dot read through theta in the loop's fuzzy law slot",
        "kernels.py",
        '[f"x{i} = {_VIEW[i]}" for i in slots]',
        '[f"x{i} = {_VIEW[i]}".replace("theta_dot", "theta") for i in slots]',
    ),
    Mutant(
        "a bool read as a number",  # the one predicate of the number rule
        "plant.py",
        "isinstance(value, numbers.Real) or isinstance(value, bool)",
        "isinstance(value, numbers.Real)",
    ),
    Mutant(
        "a bool read as an integer",  # the one predicate of the integer rule
        "plant.py",
        "isinstance(value, numbers.Integral) or isinstance(value, bool)",
        "isinstance(value, numbers.Integral)",
    ),
    Mutant(
        "ramp width check dropped",  # a label whose degree divides by inf is kept
        "fuzzy.py",
        "        for q, r in zip(p, p[1:]):  # a ramp's degree divides by its width\n"
        '            _real(f"{self.kind} ramp width", r - q, "finite", KBError)\n',
        "",
    ),
    Mutant(
        "audit's stationary point unchecked",  # only the corners decide a gate
        "hierarchy.py",
        "u = (wb / (r * wv)) ** (1 / (r - 1)) if r > 1 else 1.0",
        "u = 1.0",
    ),
    Mutant(
        "universe overflow guard dropped",  # a universe too wide for its sums is kept
        "fuzzy.py",
        "if not math.isfinite(self.n * size):",
        "if False:",
    ),
    Mutant(
        "degrees read without the number rule",  # a file's "theta_deg": true loads
        "harness.py",
        'math.radians(_real(path, value, "a real number", ScenarioError))',
        "math.radians(value)",
    ),
    Mutant(
        "near-tie margin dropped",  # a y one rounding from a tie is decided in numpy
        "harness.py",
        "(np.abs(y - m) < 0.5 - 1e-7)",
        "(np.abs(y - m) < 0.5)",
    ),
    Mutant(
        "carry to 1e6 decided in numpy",  # a mantissa rounding up to 1e6 is laid out
        "harness.py",
        "(y < 999999.5)",
        "(y < 1e6)",
    ),
    Mutant(
        "a rule keeps a list of preconditions",  # it neither hashes nor composes
        "fuzzy.py",
        'object.__setattr__(self, "preconditions", tuple(self.preconditions))',
        'object.__setattr__(self, "preconditions", self.preconditions)',
    ),
)


def _pytest(src: Path, tests: list[str]) -> bool:
    """True when the tests pass with ``src`` as the package's source."""
    command = [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        "-o", f"pythonpath={src}", *tests,
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    return done.returncode == 0


def _apply(src: Path, mutant: Mutant) -> bool:
    """Write ``mutant`` into the copy under ``src``; False when its snippet
    does not occur exactly once."""
    path = src / "fuzzpole" / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return False
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tests", nargs="*", default=["tests"], help="test paths (default tests/)")
    args = parser.parse_args(argv)
    failed = 0
    with tempfile.TemporaryDirectory(prefix="fuzzpole-mutate-") as tmp:
        src = Path(tmp) / "src"
        ignore = shutil.ignore_patterns("__pycache__")
        shutil.copytree(ROOT / "src", src, ignore=ignore)
        if not _pytest(src, args.tests):
            print("the tests fail on the unmutated source; no mutant was run")
            return 2
        for mutant in MUTANTS:
            start = time.perf_counter()
            shutil.rmtree(src)
            shutil.copytree(ROOT / "src", src, ignore=ignore)
            if not _apply(src, mutant):
                verdict = "STALE (snippet not found exactly once)"
                failed += 1
            elif _pytest(src, args.tests):
                verdict = "SURVIVED"
                failed += 1
            else:
                verdict = "caught"
            print(f"{verdict:9s} {mutant.name} ({time.perf_counter() - start:.0f} s)", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants caught")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
