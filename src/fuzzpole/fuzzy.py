"""Rule-based fuzzy inference core: membership functions, min-rule strengths,
max-min aggregation and center-of-area defuzzification.

Everything here is immutable after construction and free of hidden state, so a
knowledge base can be evaluated from any number of threads concurrently.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "MembershipFunction",
    "triangle",
    "shoulder_up",
    "shoulder_down",
    "LinguisticVariable",
    "Precondition",
    "Rule",
    "OutputUniverse",
    "KnowledgeBase",
    "rule_problems",
    "KBError",
    "MissingInputError",
    "NoRuleFired",
    "rule_activation",
    "aggregate_output",
    "defuzzify_coa",
    "fc_output",
]

TRIANGLE = "triangle"
SHOULDER_UP = "shoulder_up"
SHOULDER_DOWN = "shoulder_down"
# shape -> (parameter names, trapezoid corners (a, b, c, d) of its parameters):
# the curve rises on [a, b], is 1 on [b, c] and falls on [c, d]
_SHAPES = {
    TRIANGLE: (("left", "peak", "right"), lambda left, peak, right: (left, peak, peak, right)),
    SHOULDER_UP: (("start", "full"), lambda start, full: (start, full, math.inf, math.inf)),
    SHOULDER_DOWN: (("full", "end"), lambda full, end: (-math.inf, -math.inf, full, end)),
}
SHAPES = tuple(_SHAPES)


class KBError(ValueError):
    """Raised when a knowledge-base component is structurally invalid."""


class MissingInputError(KeyError):
    """An input variable required by a rule was not supplied."""

    def __init__(self, variable: str):
        super().__init__(variable)
        self.variable = variable

    def __str__(self) -> str:
        return f"no input value supplied for variable '{self.variable}'"


class NoRuleFired(RuntimeError):
    """Every rule had zero strength, so center-of-area is undefined.

    The caller decides the fallback; the simulation harness maps this to a
    neutral zero force and logs a warning.
    """

    def __init__(self, inputs: Mapping[str, float] | None = None):
        self.inputs = dict(inputs) if inputs is not None else None
        detail = f" for inputs {self.inputs}" if self.inputs else ""
        super().__init__(f"aggregated output is zero everywhere{detail}")


def _is_int(value) -> bool:
    """True for an integer of any integral type except ``bool``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """True for a real number of any type except ``bool``."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _pow_int(value, power: int):
    """Integer power by repeated multiplication (works for scalars and arrays).

    Kept multiplicative so the scalar path, ``sample`` and the compiled kernel
    in :mod:`fuzzpole.kernels` produce bit-identical degrees.
    """
    result = value
    for _ in range(power - 1):
        result = result * value
    return result


@dataclass(frozen=True)
class MembershipFunction:
    """Piecewise-linear membership curve, optionally raised to an integer power.

    kind is one of ``triangle`` (left, peak, right), ``shoulder_up``
    (start, full) or ``shoulder_down`` (full, end); parameters are in the
    physical units of the owning variable.  ``power > 1`` squares (or further
    sharpens) the base curve; it is how concentrated ("Very") labels are
    represented without leaving the parametric world.

    Every shape is evaluated as the trapezoid ``corners`` (a, b, c, d) it maps
    to, with a shoulder's open side at infinity.
    """

    kind: str
    params: tuple[float, ...]
    power: int = 1
    corners: tuple[float, float, float, float] = field(
        init=False, compare=False, repr=False
    )

    # Six successive concentrations; beyond this the curve is numerically a
    # step function and evaluation cost would grow without bound.
    MAX_POWER = 64

    def __post_init__(self):
        if self.kind not in _SHAPES:
            raise KBError(f"unknown membership shape '{self.kind}'")
        names, corners = _SHAPES[self.kind]
        p = self.params
        if len(p) != len(names):
            raise KBError(
                f"{self.kind} takes {len(names)} parameters ({', '.join(names)}), "
                f"got {len(p)}"
            )
        # Parameters are stored as Python floats, a zero as +0.0: a numpy
        # scalar would reach the generated law and slow each of its steps.
        if not all(type(v) is float for v in p):
            if not all(_is_real(v) for v in p):
                raise KBError(f"membership parameters must be real numbers, got {p!r}")
            try:
                p = [float(v) for v in p]
            except OverflowError:  # an int past the float range
                raise KBError(f"membership parameters must be finite, got {p}") from None
        p = tuple([v + 0.0 for v in p])
        object.__setattr__(self, "params", p)
        if not (_is_int(self.power) and 1 <= self.power <= self.MAX_POWER):
            raise KBError(
                f"power must be an integer in [1, {self.MAX_POWER}], got {self.power!r}"
            )
        if not all(a < b for a, b in zip(p, p[1:])):
            raise KBError(f"{self.kind} needs {' < '.join(names)}, got {p}")
        if not (-math.inf < p[0] and p[-1] < math.inf):  # all finite, as they ascend
            raise KBError(f"membership parameters must be finite, got {p}")
        object.__setattr__(self, "corners", corners(*p))

    def __call__(self, v: float) -> float:
        # This comparison order keeps a degree's zeros +0.0 and a NaN input
        # NaN; fuzzpole.kernels evaluates the corners in the same order.
        a, b, c, d = self.corners
        if v < b:
            base = 0.0 if v <= a else (v - a) / (b - a)
        elif v <= c:
            base = 1.0
        elif v >= d:
            base = 0.0
        else:
            base = (d - v) / (d - c)
        return _pow_int(base, self.power)

    def sample(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized evaluation; same arithmetic as the scalar path."""
        xs = np.asarray(xs, dtype=np.float64)
        a, b, c, d = self.corners
        with np.errstate(invalid="ignore"):  # inf - inf on a shoulder's open side
            up = (xs - a) / (b - a)
            down = (d - xs) / (d - c)
        base = np.where(
            xs < b,
            np.where(xs <= a, 0.0, up),
            np.where(xs <= c, 1.0, np.where(xs >= d, 0.0, down)),
        )
        return _pow_int(base, self.power)

    def support_at(self, eps: float) -> tuple[float, float]:
        """Interval where mu(v) >= eps, accounting for the power."""
        level = eps ** (1.0 / self.power)
        a, b, c, d = self.corners
        lo = a + level * (b - a) if a > -math.inf else a
        hi = d - level * (d - c) if d < math.inf else d
        return lo, hi


def triangle(left: float, peak: float, right: float) -> MembershipFunction:
    return MembershipFunction(TRIANGLE, (left, peak, right))


def shoulder_up(start: float, full: float) -> MembershipFunction:
    return MembershipFunction(SHOULDER_UP, (start, full))


def shoulder_down(full: float, end: float) -> MembershipFunction:
    return MembershipFunction(SHOULDER_DOWN, (full, end))


@dataclass(frozen=True)
class LinguisticVariable:
    """A named physical quantity with labelled membership functions."""

    name: str
    unit: str
    labels: Mapping[str, MembershipFunction]

    def __post_init__(self):
        if not self.labels:
            raise KBError(f"variable '{self.name}' has no labels")
        object.__setattr__(self, "labels", dict(self.labels))
        for name, mf in self.labels.items():
            if not isinstance(mf, MembershipFunction):
                raise KBError(
                    f"label '{name}' of variable '{self.name}' is not a MembershipFunction, "
                    f"got {type(mf).__name__}"
                )

    def label(self, name: str) -> MembershipFunction:
        try:
            return self.labels[name]
        except KeyError:
            raise KBError(
                f"unknown label '{name}' on variable '{self.name}'"
            ) from None


@dataclass(frozen=True)
class Precondition:
    """One "<variable> IS <label>" clause.

    ``spelled`` keeps the label name as originally written when it was
    accepted through an alias (e.g. NL on a variable that only defines NE), so
    serialization can reproduce the source verbatim.
    """

    variable: str
    label: str
    spelled: str | None = None

    @property
    def written_label(self) -> str:
        return self.spelled if self.spelled is not None else self.label


@dataclass(frozen=True)
class Rule:
    name: str
    preconditions: tuple[Precondition, ...]
    conclusion: tuple[str, str]  # (output variable, label)
    goal_index: int = 1

    def __post_init__(self):
        if not self.preconditions:
            raise KBError(f"rule '{self.name}' has no preconditions")
        if not _is_int(self.goal_index):
            raise KBError(
                f"rule '{self.name}': goal index must be an integer, got {self.goal_index!r}"
            )
        if self.goal_index < 1:
            raise KBError(f"rule '{self.name}': goal index must be positive")


def rule_problems(
    rule: Rule, variables: Mapping[str, LinguisticVariable], output: str
) -> Iterator[tuple[int, int, str, str]]:
    """Yield ``(clause, part, message, code)`` for each reference of ``rule``
    that a KB over ``variables`` with output variable ``output`` cannot resolve.

    ``clause`` is the precondition index or -1 for the conclusion, ``part`` 0
    for the variable and 1 for the label.  This is the one definition of a
    well-formed rule: ``KnowledgeBase`` raises the first problem and the
    rule-file parser reports each at its token."""
    name, (out_var, out_label) = rule.name, rule.conclusion
    if out_var != output:
        message = f"rule '{name}' concludes on '{out_var}' but the output variable is '{output}'"
        yield -1, 0, message + "; exactly one output variable is allowed", "multiple-outputs"
    if out_var not in variables:
        yield -1, 0, f"unknown variable '{out_var}'", "unknown-variable"
    elif out_label not in variables[out_var].labels:
        yield -1, 1, f"unknown label '{out_label}' on variable '{out_var}'", "unknown-label"
    seen: set[str] = set()
    for i, pre in enumerate(rule.preconditions):  # at most one problem each
        var, label = pre.variable, pre.label
        if var not in variables:
            yield i, 0, f"unknown variable '{var}'", "unknown-variable"
        elif var in seen:
            message = f"rule '{name}' constrains variable '{var}' more than once"
            yield i, 0, message, "duplicate-precondition"
        elif label not in variables[var].labels:
            yield i, 1, f"unknown label '{label}' on variable '{var}'", "unknown-label"
        elif var == output:
            message = f"rule '{name}' uses the output variable '{var}' in a condition"
            yield i, 0, message, "output-in-condition"
        seen.add(var)


@dataclass(frozen=True)
class OutputUniverse:
    """Evenly spaced quantization of the output range."""

    lo: float
    hi: float
    n: int = 201

    MAX_POINTS = 100_001

    def __post_init__(self):
        if not (_is_real(self.lo) and _is_real(self.hi)):
            raise KBError(f"universe bounds must be real numbers, got [{self.lo!r}, {self.hi!r}]")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise KBError(f"universe bounds must be finite, got [{self.lo}, {self.hi}]")
        if not (self.lo < self.hi):
            raise KBError(f"universe needs min < max, got [{self.lo}, {self.hi}]")
        if not (_is_int(self.n) and 3 <= self.n <= self.MAX_POINTS):
            raise KBError(
                f"universe needs an integer 3 <= n <= {self.MAX_POINTS}, got {self.n!r}"
            )

    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)


# Aggregated conclusion curve, aligned with OutputUniverse.points().
FuzzyOutput = np.ndarray


@dataclass(frozen=True)
class KnowledgeBase:
    """Linguistic variables plus an ordered, goal-tiered rule list."""

    variables: Mapping[str, LinguisticVariable]
    output_variable: str
    rules: tuple[Rule, ...]
    output_universe: OutputUniverse

    def __post_init__(self):
        object.__setattr__(self, "variables", dict(self.variables))
        object.__setattr__(self, "rules", tuple(self.rules))
        for rule in self.rules:
            for _, _, message, _ in rule_problems(rule, self.variables, self.output_variable):
                raise KBError(message)  # the first problem
        if self.output_variable not in self.variables:
            raise KBError(f"output variable '{self.output_variable}' not defined")

    @property
    def input_variables(self) -> list[LinguisticVariable]:
        return [v for n, v in self.variables.items() if n != self.output_variable]

    @property
    def output(self) -> LinguisticVariable:
        return self.variables[self.output_variable]


def rule_activation(
    rule: Rule, inputs: Mapping[str, float], kb: KnowledgeBase
) -> float:
    """Rule strength: minimum of the precondition membership degrees."""
    alpha = 1.0
    for pre in rule.preconditions:
        if pre.variable not in inputs:
            raise MissingInputError(pre.variable)
        mf = kb.variables[pre.variable].label(pre.label)
        degree = mf(float(inputs[pre.variable]))
        if degree < alpha:
            alpha = degree
    return alpha


def aggregate_output(
    activations: Sequence[tuple[float, str]],
    kb: KnowledgeBase,
) -> FuzzyOutput:
    """Pointwise max over rules of the conclusion curves clipped at each rule
    strength (min), sampled on the rule base's quantized output universe."""
    universe = kb.output_universe
    points = universe.points()
    combined = np.zeros(universe.n)
    out_var = kb.output
    for alpha, label in activations:
        clipped = np.minimum(alpha, out_var.label(label).sample(points))
        combined = np.maximum(combined, clipped)
    return combined


def defuzzify_coa(
    out: FuzzyOutput, universe: OutputUniverse
) -> float:
    """Discrete center of area: sum(w_j * mu_j) / sum(mu_j).

    Sums run left to right on Python floats, so that this reference and the
    compiled kernel in :mod:`fuzzpole.kernels` round identically and both
    return a Python ``float``.
    """
    degrees = np.asarray(out, dtype=np.float64)
    if degrees.shape != (universe.n,):
        raise KBError(
            f"degrees shape {degrees.shape} does not match universe n={universe.n}"
        )
    num = 0.0
    den = 0.0
    for w, mu in zip(universe.points().tolist(), degrees.tolist()):
        num += w * mu
        den += mu
    if den == 0.0:
        raise NoRuleFired()
    return num / den


def fc_output(kb: KnowledgeBase, inputs: Mapping[str, float]) -> float:
    """Full pipeline: activate every rule, aggregate, defuzzify to one value."""
    activations = [
        (rule_activation(rule, inputs, kb), rule.conclusion[1]) for rule in kb.rules
    ]
    combined = aggregate_output(activations, kb)
    try:
        return defuzzify_coa(combined, kb.output_universe)
    except NoRuleFired:
        raise NoRuleFired(inputs) from None
