"""Hierarchical controller construction: priority-ordered goals, derivation of
sharpened "Very" achievement labels, composition of lower-priority rule sets
behind those labels, and auditing an existing rule base against that contract.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .fuzzy import (
    KnowledgeBase,
    LinguisticVariable,
    MembershipFunction,
    Precondition,
    Rule,
    TRIANGLE,
)
from .plant import _store

__all__ = [
    "Concentration",
    "Narrowed",
    "VeryMode",
    "HierarchyError",
    "DEFAULT_VERY_FACTOR",
    "derive_very",
    "Achievement",
    "Goal",
    "GoalSpec",
    "cart_pole_goals",
    "compose_hierarchical",
    "Violation",
    "AuditReport",
    "audit_hierarchy",
]

SUPPORT_EPS = 1e-6

# Base-contraction ratio behind the built-in "Very Small" labels.  Narrow
# enough that position moves barely disturb the pole (sub-degree wobble),
# wide enough that the cart still converges within a 50 s run.
DEFAULT_VERY_FACTOR = 0.12


class HierarchyError(ValueError):
    pass


@dataclass(frozen=True)
class Concentration:
    """Sharpen by squaring the membership curve."""


@dataclass(frozen=True)
class Narrowed:
    """Sharpen by contracting the breakpoints toward the peak.

    factor is the ratio of the new half-base to the old one, a real number
    other than a bool strictly inside (0, 1), stored as a Python float.
    """

    factor: float

    def __post_init__(self):
        _store(self, ("factor",), "in (0, 1)", HierarchyError, "narrowing ")


VeryMode = Concentration | Narrowed


def derive_very(mf: MembershipFunction, mode: VeryMode) -> MembershipFunction:
    """Build the sharpened form of a label for achievement preconditions."""
    if isinstance(mode, Concentration):
        return replace(mf, power=mf.power * 2)
    if not isinstance(mode, Narrowed):
        raise HierarchyError(f"unknown Very mode {mode!r}")
    if mf.kind != TRIANGLE:
        raise HierarchyError(
            f"cannot narrow a {mf.kind} label: a shoulder has no finite base"
        )
    left, peak, right = mf.params
    f = mode.factor
    return replace(mf, params=(peak + f * (left - peak), peak, peak + f * (right - peak)))


@dataclass(frozen=True)
class Achievement:
    """One '<variable> is approximately <label>' clause of a goal.

    very_name overrides the default V<label> name given to the sharpened
    label when the goal is composed into rules.
    """

    variable: str
    label: str
    very_name: str | None = None

    @property
    def derived_name(self) -> str:
        return self.very_name if self.very_name is not None else f"V{self.label}"


@dataclass(frozen=True)
class Goal:
    """A named goal: the variables its rules may read, and the achievement
    predicate that gates the goal below it."""

    name: str
    variables: tuple[str, ...]
    achieve: tuple[Achievement, ...] = ()


@dataclass(frozen=True)
class GoalSpec:
    """Goals already ordered by priority, highest first."""

    goals: tuple[Goal, ...]

    def __post_init__(self):
        if not self.goals:
            raise HierarchyError("a goal spec needs at least one goal")
        names = [g.name for g in self.goals]
        if len(set(names)) != len(names):
            raise HierarchyError(f"goal names must be unique, got {names}")
        for goal in self.goals[:-1]:
            if not goal.achieve:
                raise HierarchyError(
                    f"goal '{goal.name}' precedes others and needs an "
                    "achievement predicate"
                )


def cart_pole_goals() -> GoalSpec:
    """Balance the pole first, then drive the cart to the target position."""
    return GoalSpec(
        (
            Goal(
                "balance_pole",
                ("theta", "theta_dot"),
                (
                    Achievement("theta", "ZE", "VS"),
                    Achievement("theta_dot", "ZE", "VS"),
                ),
            ),
            Goal("position_cart", ("x", "x_dot")),
        )
    )


def _very_label(
    variables: dict[str, LinguisticVariable], entry: Achievement, mode: VeryMode
) -> str:
    """Register the sharpened label of ``entry`` on its variable in
    ``variables``, unless an identical one is there, and return its name."""
    var = variables.get(entry.variable)
    if var is None:
        raise HierarchyError(f"achievement variable '{entry.variable}' is not defined")
    derived = derive_very(var.label(entry.label), mode)
    name = entry.derived_name
    existing = var.labels.get(name)
    if existing is None:
        labels = {**var.labels, name: derived}
        variables[entry.variable] = LinguisticVariable(var.name, var.unit, labels)
    elif existing != derived:
        raise HierarchyError(
            f"label '{name}' already exists on '{entry.variable}' with a different shape"
        )
    return name


def compose_hierarchical(
    goal_spec: GoalSpec,
    per_goal_rules: Sequence[Sequence[Rule]],
    mode: VeryMode,
    base: KnowledgeBase,
) -> KnowledgeBase:
    """Assemble a prioritized KB from per-goal rule sets, in one walk down
    the goals.

    Each goal's rules must read only the goal's variables, and gain the gate
    carried from the goal above: none for the highest-priority goal, whose
    rules pass through verbatim.  The goal's own achievement predicate then
    builds the gate of the next goal, one precondition per entry,
    referencing a sharpened label derived via :func:`derive_very` and
    registered on the owning variable; the last goal builds none.  ``base``
    supplies the variables and output universe; its rules are ignored.
    """
    goals = goal_spec.goals
    if len(per_goal_rules) != len(goals):
        raise HierarchyError(f"{len(goals)} goals but {len(per_goal_rules)} rule sets")
    variables: dict[str, LinguisticVariable] = dict(base.variables)
    out_rules: list[Rule] = []
    gate: tuple[Precondition, ...] = ()
    for i, (goal, rules) in enumerate(zip(goals, per_goal_rules), start=1):
        allowed = set(goal.variables)
        for rule in rules:
            extra = {p.variable for p in rule.preconditions} - allowed
            if extra:
                raise HierarchyError(
                    f"rule '{rule.name}' of goal '{goal.name}' references "
                    f"variables outside the goal's set: {sorted(extra)}"
                )
            out_rules.append(
                type(rule)(rule.name, gate + rule.preconditions, rule.conclusion, i)
            )
        if i < len(goals):
            gate = tuple(
                Precondition(entry.variable, _very_label(variables, entry, mode))
                for entry in goal.achieve
            )
    return KnowledgeBase(
        variables, base.output_variable, tuple(out_rules), base.output_universe
    )


@dataclass(frozen=True)
class Violation:
    """One rule that breaks the hierarchy contract, on one variable."""

    rule: str
    variable: str
    reason: str

    def __str__(self) -> str:
        return f"rule '{self.rule}', variable '{self.variable}': {self.reason}"


@dataclass(frozen=True)
class AuditReport:
    """What :func:`audit_hierarchy` found; ``ok`` when nothing."""

    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _is_narrower(very: MembershipFunction, base: MembershipFunction) -> str | None:
    """None when `very` is pointwise <= `base` with strictly smaller support,
    else a human-readable reason.  Support is taken at the 1e-6 level so that
    squared labels (whose exact support is unchanged) still qualify.

    Decided exactly on corners and powers: at level y a label is >= y on
    [a + s(b - a), d - s(d - c)], s = y**(1/power), and these must nest at
    every y.  Per side, in u = y**(1/base.power), the gap g0 + wv*u**r - wb*u
    (r = base.power / very.power, wv and wb the ramp widths) is concave for
    r <= 1, so the corners (u = 0, 1) decide, and convex for r > 1, so its
    stationary point decides too.  A base's open shoulder side holds any gate.
    """
    b_lo, b_hi = base.support_at(SUPPORT_EPS)
    v_lo, v_hi = very.support_at(SUPPORT_EPS)
    if not (v_lo > b_lo and v_hi < b_hi):
        return (
            f"support [{v_lo:g}, {v_hi:g}] is not strictly inside "
            f"[{b_lo:g}, {b_hi:g}]"
        )
    (av, bv, cv, dv), (ab, bb, cb, db) = very.corners, base.corners
    r = base.power / very.power
    sides = ((av - ab, bv - bb, bv - av, bb - ab), (db - dv, cb - cv, dv - cv, db - cb))
    for g0, g1, wv, wb in sides:
        u = (wb / (r * wv)) ** (1 / (r - 1)) if r > 1 else 1.0  # NaN on an open side
        if g0 < 0 or g1 < 0 or (u < 1 and g0 + wv * u**r - wb * u < 0):
            return "membership exceeds the base label somewhere"
    return None


def _gate_problem(var: LinguisticVariable, very: str, base: str) -> str | None:
    """None when label ``very`` of ``var`` gates its label ``base``
    correctly, else why it does not."""
    if base not in var.labels:
        return f"base label '{base}' of the achievement gate is not defined"
    reason = _is_narrower(var.label(very), var.labels[base])
    if reason is None:
        return None
    return f"label '{very}' is not narrower than '{base}': {reason}"


def audit_hierarchy(kb: KnowledgeBase, goal_spec: GoalSpec) -> AuditReport:
    """Check lower-priority rules for the achievement gates of the goal above.

    Every rule at goal index i >= 2 must carry one precondition per entry of
    goal i-1's achievement predicate, and each gating label must be strictly
    narrower than the base label it sharpens, which the variable must define.
    """
    goals = goal_spec.goals
    violations: list[Violation] = []
    reasons: dict[tuple[str, str, str], str | None] = {}  # one check per gate pair
    for rule in kb.rules:
        i = rule.goal_index
        if i < 2:
            continue
        if i > len(goals):
            violations.append(
                Violation(rule.name, "-", f"goal index {i} exceeds the {len(goals)} declared goals")
            )
            continue
        previous = goals[i - 2]
        by_var = {p.variable: p for p in rule.preconditions}
        for entry in previous.achieve:
            pre = by_var.get(entry.variable)
            if pre is None:
                violations.append(
                    Violation(
                        rule.name,
                        entry.variable,
                        f"missing achievement precondition for goal "
                        f"'{previous.name}'",
                    )
                )
                continue
            pair = (entry.variable, pre.label, entry.label)
            if pair not in reasons:
                var = kb.variables[entry.variable]
                reasons[pair] = _gate_problem(var, pre.label, entry.label)
            reason = reasons[pair]
            if reason is not None:
                violations.append(Violation(rule.name, entry.variable, reason))
    return AuditReport(tuple(violations))
