"""Rule-based fuzzy inference core: membership functions, min-rule strengths,
max-min aggregation and center-of-area defuzzification.

Everything here is immutable after construction and free of hidden state, so a
knowledge base can be evaluated from any number of threads concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "MembershipFunction",
    "triangle",
    "shoulder_up",
    "shoulder_down",
    "eval_membership",
    "LinguisticVariable",
    "Precondition",
    "Rule",
    "OutputUniverse",
    "KnowledgeBase",
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
    """

    kind: str
    params: tuple[float, ...]
    power: int = 1

    # Six successive concentrations; beyond this the curve is numerically a
    # step function and evaluation cost would grow without bound.
    MAX_POWER = 64

    def __post_init__(self):
        if not (1 <= self.power <= self.MAX_POWER):
            raise KBError(
                f"power must be in [1, {self.MAX_POWER}], got {self.power}"
            )
        p = self.params
        if self.kind == TRIANGLE:
            if len(p) != 3:
                raise KBError("triangle takes (left, peak, right)")
            left, peak, right = p
            if not (left < peak < right):
                raise KBError(
                    f"triangle needs left < peak < right, got {p}"
                )
        elif self.kind == SHOULDER_UP:
            if len(p) != 2:
                raise KBError("shoulder_up takes (start, full)")
            if not (p[0] < p[1]):
                raise KBError(f"shoulder_up needs start < full, got {p}")
        elif self.kind == SHOULDER_DOWN:
            if len(p) != 2:
                raise KBError("shoulder_down takes (full, end)")
            if not (p[0] < p[1]):
                raise KBError(f"shoulder_down needs full < end, got {p}")
        else:
            raise KBError(f"unknown membership shape '{self.kind}'")
        if not all(math.isfinite(v) for v in p):
            raise KBError(f"membership parameters must be finite, got {p}")

    def __call__(self, v: float) -> float:
        p = self.params
        if self.kind == TRIANGLE:
            left, peak, right = p
            if v <= left or v >= right:
                base = 0.0
            elif v < peak:
                base = (v - left) / (peak - left)
            elif v == peak:
                base = 1.0
            else:
                base = (right - v) / (right - peak)
        elif self.kind == SHOULDER_UP:
            start, full = p
            if v <= start:
                base = 0.0
            elif v >= full:
                base = 1.0
            else:
                base = (v - start) / (full - start)
        else:
            full, end = p
            if v <= full:
                base = 1.0
            elif v >= end:
                base = 0.0
            else:
                base = (end - v) / (end - full)
        return _pow_int(base, self.power)

    def sample(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized evaluation; same arithmetic as the scalar path."""
        xs = np.asarray(xs, dtype=np.float64)
        p = self.params
        if self.kind == TRIANGLE:
            left, peak, right = p
            with np.errstate(invalid="ignore"):
                up = (xs - left) / (peak - left)
                down = (right - xs) / (right - peak)
            base = np.where(
                (xs <= left) | (xs >= right),
                0.0,
                np.where(xs < peak, up, np.where(xs == peak, 1.0, down)),
            )
        elif self.kind == SHOULDER_UP:
            start, full = p
            base = np.where(
                xs <= start,
                0.0,
                np.where(xs >= full, 1.0, (xs - start) / (full - start)),
            )
        else:
            full, end = p
            base = np.where(
                xs <= full,
                1.0,
                np.where(xs >= end, 0.0, (end - xs) / (end - full)),
            )
        return _pow_int(base, self.power)

    def support_at(self, eps: float) -> tuple[float, float]:
        """Interval where mu(v) >= eps, accounting for the power."""
        level = eps ** (1.0 / self.power)
        p = self.params
        if self.kind == TRIANGLE:
            left, peak, right = p
            return left + level * (peak - left), right - level * (right - peak)
        if self.kind == SHOULDER_UP:
            start, full = p
            return start + level * (full - start), math.inf
        full, end = p
        return -math.inf, end - level * (end - full)

    def mirrored(self) -> "MembershipFunction":
        """Reflection about zero: mu'(v) = mu(-v)."""
        p = self.params
        if self.kind == TRIANGLE:
            return MembershipFunction(
                TRIANGLE, (-p[2] + 0.0, -p[1] + 0.0, -p[0] + 0.0), self.power
            )
        if self.kind == SHOULDER_UP:
            return MembershipFunction(
                SHOULDER_DOWN, (-p[1] + 0.0, -p[0] + 0.0), self.power
            )
        return MembershipFunction(
            SHOULDER_UP, (-p[1] + 0.0, -p[0] + 0.0), self.power
        )


def triangle(left: float, peak: float, right: float) -> MembershipFunction:
    return MembershipFunction(
        TRIANGLE, (float(left) + 0.0, float(peak) + 0.0, float(right) + 0.0)
    )


def shoulder_up(start: float, full: float) -> MembershipFunction:
    return MembershipFunction(SHOULDER_UP, (float(start) + 0.0, float(full) + 0.0))


def shoulder_down(full: float, end: float) -> MembershipFunction:
    return MembershipFunction(SHOULDER_DOWN, (float(full) + 0.0, float(end) + 0.0))


def eval_membership(mf: MembershipFunction, v: float) -> float:
    """Degree in [0, 1] to which value v fits the label; exact at breakpoints."""
    return mf(float(v))


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
        if self.goal_index < 1:
            raise KBError(f"rule '{self.name}': goal index must be positive")
        seen = set()
        for pre in self.preconditions:
            if pre.variable in seen:
                raise KBError(
                    f"rule '{self.name}': variable '{pre.variable}' appears "
                    "in more than one precondition"
                )
            seen.add(pre.variable)


@dataclass(frozen=True)
class OutputUniverse:
    """Evenly spaced quantization of the output range."""

    lo: float
    hi: float
    n: int = 201

    MAX_POINTS = 100_001

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise KBError(f"universe bounds must be finite, got [{self.lo}, {self.hi}]")
        if not (self.lo < self.hi):
            raise KBError(f"universe needs min < max, got [{self.lo}, {self.hi}]")
        if not (3 <= self.n <= self.MAX_POINTS):
            raise KBError(
                f"universe needs 3 <= n <= {self.MAX_POINTS}, got {self.n}"
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
        if self.output_variable not in self.variables:
            raise KBError(f"output variable '{self.output_variable}' not defined")
        for rule in self.rules:
            out_var, out_label = rule.conclusion
            if out_var != self.output_variable:
                raise KBError(
                    f"rule '{rule.name}' concludes on '{out_var}', expected "
                    f"output variable '{self.output_variable}'"
                )
            self.variables[out_var].label(out_label)
            for pre in rule.preconditions:
                if pre.variable not in self.variables:
                    raise KBError(
                        f"rule '{rule.name}' references undefined variable "
                        f"'{pre.variable}'"
                    )
                if pre.variable == self.output_variable:
                    raise KBError(
                        f"rule '{rule.name}' uses the output variable "
                        "in a precondition"
                    )
                self.variables[pre.variable].label(pre.label)

    @property
    def input_variables(self) -> list[LinguisticVariable]:
        return [v for n, v in self.variables.items() if n != self.output_variable]

    @property
    def output(self) -> LinguisticVariable:
        return self.variables[self.output_variable]

    def with_rules(self, rules: Iterable[Rule]) -> "KnowledgeBase":
        return KnowledgeBase(
            self.variables, self.output_variable, tuple(rules), self.output_universe
        )


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
    universe: OutputUniverse | None = None,
) -> FuzzyOutput:
    """Pointwise max over rules of the conclusion curves clipped at each rule
    strength (min), sampled on the quantized output universe."""
    universe = universe or kb.output_universe
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

    Sums run left to right so that this reference and the compiled kernel in
    :mod:`fuzzpole.kernels` round identically.
    """
    degrees = np.asarray(out, dtype=np.float64)
    if degrees.shape != (universe.n,):
        raise KBError(
            f"degrees shape {degrees.shape} does not match universe n={universe.n}"
        )
    points = universe.points()
    num = 0.0
    den = 0.0
    for j in range(universe.n):
        num += points[j] * degrees[j]
        den += degrees[j]
    if den == 0.0:
        raise NoRuleFired()
    return num / den


def fc_output(
    kb: KnowledgeBase,
    inputs: Mapping[str, float],
    universe: OutputUniverse | None = None,
) -> float:
    """Full pipeline: activate every rule, aggregate, defuzzify to one value."""
    universe = universe or kb.output_universe
    activations = [
        (rule_activation(rule, inputs, kb), rule.conclusion[1]) for rule in kb.rules
    ]
    combined = aggregate_output(activations, kb, universe)
    try:
        return defuzzify_coa(combined, universe)
    except NoRuleFired:
        raise NoRuleFired(inputs) from None
