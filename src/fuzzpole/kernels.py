"""Hot numeric kernels for closed-loop simulation.

One loop, :func:`_simulate`, runs both controllers; they differ only in the
control law it calls at each control instant.  The fuzzy law evaluates a
knowledge base compiled once to tables (:func:`compile_kb`) in folded form:
scalar memberships, each read off a label's trapezoid corners with no
branch on its shape; scalar rule strengths, one strength per conclusion
label; then one clip/max over the coverage layers, which hold at each grid
point only the conclusion curves that are nonzero there, and one
left-to-right pass that sums both center-of-area rows over the full grid.
That is the arithmetic of :func:`fuzzpole.fuzzy.fc_output` bit for bit.
The SFC law is ``-(k0 theta + k1 theta_dot + k2 (x - x_target) + k3 x_dot)``.
The plant is stepped by :func:`fuzzpole.plant.advance`.

numpy is the only backend; ``ACTIVE_BACKEND`` and ``BACKENDS`` name it for
callers that record or select one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import plant
from .fuzzy import KnowledgeBase

__all__ = [
    "ACTIVE_BACKEND",
    "BACKENDS",
    "KernelError",
    "check_backend",
    "CompiledKB",
    "check_input_slots",
    "compile_kb",
    "DEFAULT_SLOTS",
    "control_inputs",
    "fuzzy_force",
    "simulate_fuzzy",
    "simulate_sfc",
]

RAD2DEG = 180.0 / math.pi

# Input slots the simulation harness drives, in fixed units:
# theta [deg], theta_dot [deg/s], x as the error x - x_target [m], x_dot [m/s].
DEFAULT_SLOTS: Mapping[str, int] = {"theta": 0, "theta_dot": 1, "x": 2, "x_dot": 3}

ACTIVE_BACKEND = "numpy"
BACKENDS = (ACTIVE_BACKEND,)


class KernelError(ValueError):
    pass


def check_backend(backend: str | None) -> None:
    """Accept ``None`` or the one backend there is; reject anything else."""
    if backend not in (None, ACTIVE_BACKEND):
        raise KernelError(f"unknown backend '{backend}'")


# ---------------------------------------------------------------------------
# Knowledge-base compilation to flat arrays


@dataclass(frozen=True)
class CompiledKB:
    """Table form of a knowledge base: what the fuzzy law reads at each
    control instant.

    Rules that conclude on the same output label form one group, whose
    conclusion curve is that label sampled on the output grid.  The curves
    are stored as coverage layers: column j of ``layer_group`` lists, in
    group order, the groups whose curve is nonzero at grid point j, and the
    same column of ``layer_curve`` holds their values there, then 0.0 where
    fewer groups cover the point than there are layers.
    """

    label_table: tuple  # per label: (corners a, b, c, d, power, input slot)
    rule_table: tuple  # per rule: (label rows of its preconditions, group)
    groups: int  # number of groups
    points: np.ndarray  # (N,) the output grid
    layer_group: np.ndarray  # (L, N) covering groups; L the largest coverage
    layer_curve: np.ndarray  # (L, N) their curves' values


def check_input_slots(kb: KnowledgeBase) -> None:
    """Raise KernelError for an input variable the harness does not drive."""
    for var in kb.input_variables:
        if var.name not in DEFAULT_SLOTS:
            raise KernelError(
                f"variable '{var.name}' has no input slot; the harness drives "
                f"{sorted(DEFAULT_SLOTS)}"
            )


def compile_kb(kb: KnowledgeBase) -> CompiledKB:
    """Compile ``kb`` to the tables of :class:`CompiledKB`.

    Input labels become rows of trapezoid corners, rules become their
    precondition rows and conclusion group, and the conclusion curves become
    coverage layers.  Raises KernelError for an input variable the harness
    does not drive.
    """
    check_input_slots(kb)
    labels: list[tuple[float, float, float, float, int, int]] = []
    row_index: dict[tuple[str, str], int] = {}
    for var in kb.input_variables:
        for label_name, mf in var.labels.items():
            row_index[(var.name, label_name)] = len(labels)
            labels.append((*mf.corners, mf.power, DEFAULT_SLOTS[var.name]))

    points = kb.output_universe.points()
    group_of: dict[str, int] = {}  # conclusion label -> group
    rule_table = []
    for rule in kb.rules:
        rows = tuple(row_index[(pre.variable, pre.label)] for pre in rule.preconditions)
        group = group_of.setdefault(rule.conclusion[1], len(group_of))
        rule_table.append((rows, group))
    curves = np.empty((len(group_of), points.shape[0]))
    for label, group in group_of.items():
        curves[group] = kb.output.label(label).sample(points)
    # Sorting each column on "is zero" moves the covering groups to the
    # top, in group order (a stable sort); the rows below the largest
    # coverage hold only zeros and are dropped.
    zero = curves == 0.0
    depth = int((~zero).sum(axis=0).max(initial=0))
    layer_group = np.argsort(zero, axis=0, kind="stable")[:depth]

    return CompiledKB(
        label_table=tuple(labels),
        rule_table=tuple(rule_table),
        groups=len(group_of),
        points=points,
        layer_group=layer_group,
        layer_curve=np.take_along_axis(curves, layer_group, axis=0),
    )


def control_inputs(
    theta: float, theta_dot: float, x: float, x_dot: float, x_target: float
) -> tuple[float, float, float, float]:
    """State as the fuzzy law reads it, in ``DEFAULT_SLOTS`` order: angles
    in degrees, the cart as its error from the target."""
    return (theta * RAD2DEG, theta_dot * RAD2DEG, x - x_target, x_dot)


# ---------------------------------------------------------------------------
# Control laws and the simulation loop


def _fuzzy_law(ck: CompiledKB) -> Callable[[Sequence[float]], tuple[float, bool]]:
    """The fuzzy law of ``ck``: ``force(inputs) -> (force, fired)`` on a
    sequence of Python floats in ``DEFAULT_SLOTS`` order.

    The law owns its center-of-area block and the block its sums accumulate
    into; both are allocated here, once, and overwritten at each call.

    Degrees and rule strengths are scalar, with the trapezoid comparisons
    of ``MembershipFunction.__call__`` and the ``<`` min of
    ``fuzzy.rule_activation``, so a NaN degree is skipped.  The rules of a
    group fold into one strength, exactly, since no strength is NaN:
    max_r min(a_r, c) == min(max_r a_r, c).  Clip/max runs once over the
    coverage layers.  A curve left out at a grid point is +0.0 there, and
    min(s, +0.0) is +0.0 for a strength s >= +0.0, which the max's initial
    +0.0 already is; so mu is fc_output's aggregate bit for bit.  Both
    center-of-area sums run left to right over the full grid in one
    accumulate, as in ``fuzzy.defuzzify_coa``; its sums start at +0.0,
    hence the ``0.0 + num``, which makes an all -0.0 sum +0.0.
    """
    label_table, rule_table, groups = ck.label_table, ck.rule_table, ck.groups
    points, layer_group, layer_curve = ck.points, ck.layer_group, ck.layer_curve
    # Row 0 of the center-of-area block is the grid points times the
    # aggregate, row 1 the aggregate.  Accumulate, unlike sum, adds in order.
    coa = np.empty((2, points.shape[0]))
    weighted, aggregate = coa
    sums = np.empty_like(coa)
    totals = sums[:, -1]

    def force(inputs: Sequence[float]) -> tuple[float, bool]:
        degrees = []
        for a, b, c, d, power, slot in label_table:
            v = inputs[slot]
            if v < b:
                mu = 0.0 if v <= a else (v - a) / (b - a)
            elif v <= c:
                mu = 1.0
            elif v >= d:
                mu = 0.0
            else:
                mu = (d - v) / (d - c)
            if power > 1:
                base = mu
                for _ in range(power - 1):
                    mu = mu * base
            degrees.append(mu)

        strength = [0.0] * groups
        for rows, group in rule_table:
            alpha = 1.0
            for i in rows:
                d = degrees[i]
                if d < alpha:
                    alpha = d
            if alpha > strength[group]:
                strength[group] = alpha

        # initial=0.0 is the all-zero aggregate of fc_output, and the result
        # of a rule base with no rules.
        np.maximum.reduce(
            np.minimum(np.array(strength)[layer_group], layer_curve),
            initial=0.0,
            out=aggregate,
        )
        np.multiply(points, aggregate, out=weighted)
        np.add.accumulate(coa, axis=1, out=sums)
        num, den = totals.tolist()
        if den == 0.0:
            return 0.0, False
        return (0.0 + num) / den, True

    return force


def _simulate(
    state0, x_target, params, dt, n_steps, control_every, rk4,
    ev_step, ev_kind, ev_value, track_bound, theta_limit, law,
):
    """Closed loop under
    ``law(theta, theta_dot, x, x_dot, x_target) -> (force, fired)``.

    Returns (trajectory rows [t, theta, theta_dot, x, x_dot, F, tilt],
    termination, count of control instants where the law did not fire).
    The termination is ``"completed"``, ``"pole_fell"``, ``"left_track"``
    or ``"non_finite"``.

    Every number in the loop is a Python float: a numpy scalar read from an
    argument would spread into the state and make each step's arithmetic
    several times slower, with the same IEEE results.  A state or force that
    stops being finite ends the run as ``"non_finite"``; only the finite
    rows before it are returned.
    """
    theta, theta_dot, x, x_dot, tilt = (float(v) for v in state0)
    x_target = float(x_target)
    g, m_c, m, l, mu_c, mu_p, f_max = (float(v) for v in params)
    dt = float(dt)
    track_bound = float(track_bound)
    theta_limit = float(theta_limit)
    ev_step = ev_step.tolist()
    ev_kind = ev_kind.tolist()
    ev_value = ev_value.tolist()
    advance = plant.advance
    traj = np.empty((n_steps + 1, 7))
    termination = "completed"
    rows = n_steps + 1
    norule = 0
    f = 0.0
    ev_i = 0
    n_ev = len(ev_step)
    for k in range(n_steps):
        while ev_i < n_ev and ev_step[ev_i] == k:
            if ev_kind[ev_i] == 0:
                theta_dot += ev_value[ev_i]
            else:
                tilt = ev_value[ev_i]
            ev_i += 1
        if k % control_every == 0:
            f, fired = law(theta, theta_dot, x, x_dot, x_target)
            if not fired:
                norule += 1
            if f > f_max:
                f = f_max
            elif f < -f_max:
                f = -f_max
        traj[k] = (k * dt, theta, theta_dot, x, x_dot, f, tilt)
        try:
            theta, theta_dot, x, x_dot = advance(
                theta, theta_dot, x, x_dot, f, tilt, dt,
                g, m_c, m, l, mu_c, mu_p, f_max, rk4,
            )
        except (ValueError, ZeroDivisionError):  # math.sin(inf); m * l underflow
            termination = "non_finite"
            rows = k + 1
            break
        # written with `not <=` so that a NaN angle or position stops the run
        if not abs(theta) <= theta_limit:
            termination = "pole_fell"
        elif not abs(x - x_target) <= track_bound:
            termination = "left_track"
        else:
            continue
        traj[k + 1] = ((k + 1) * dt, theta, theta_dot, x, x_dot, f, tilt)
        rows = k + 2
        break
    if termination == "completed":
        traj[n_steps] = (n_steps * dt, theta, theta_dot, x, x_dot, f, tilt)
    traj = traj[:rows]
    finite = np.isfinite(traj)
    if not finite.all():
        # rows are finite up to the first overflow or NaN; keep those
        rows = int(np.argmin(finite.all(axis=1)))
        traj = traj[:rows]
        termination = "non_finite"
    return traj, termination, norule


# ---------------------------------------------------------------------------
# Public entry points


def fuzzy_force(
    ck: CompiledKB, inputs: np.ndarray, backend: str | None = None
) -> tuple[float, bool]:
    """Single controller evaluation: crisp force and whether any rule fired."""
    check_backend(backend)
    return _fuzzy_law(ck)(np.asarray(inputs, dtype=np.float64).tolist())


def simulate_fuzzy(
    state0: tuple[float, float, float, float, float],
    x_target: float,
    params: tuple[float, float, float, float, float, float, float],
    dt: float,
    n_steps: int,
    control_every: int,
    rk4: bool,
    ev_step: np.ndarray,
    ev_kind: np.ndarray,
    ev_value: np.ndarray,
    track_bound: float,
    theta_limit: float,
    ck: CompiledKB,
):
    """Closed-loop run under the fuzzy controller.

    Returns (trajectory rows [t, theta, theta_dot, x, x_dot, F, tilt],
    termination, count of control instants where no rule fired).
    """

    force = _fuzzy_law(ck)

    def law(theta, theta_dot, x, x_dot, x_target):
        return force(control_inputs(theta, theta_dot, x, x_dot, x_target))

    return _simulate(
        state0, x_target, params, dt, n_steps, control_every, rk4,
        ev_step, ev_kind, ev_value, track_bound, theta_limit, law,
    )


def simulate_sfc(
    state0,
    x_target: float,
    params,
    dt: float,
    n_steps: int,
    control_every: int,
    rk4: bool,
    ev_step: np.ndarray,
    ev_kind: np.ndarray,
    ev_value: np.ndarray,
    track_bound: float,
    theta_limit: float,
    k_gains: np.ndarray,
):
    """Closed-loop run under the state-feedback controller."""
    k0, k1, k2, k3 = (float(v) for v in k_gains)

    def law(theta, theta_dot, x, x_dot, x_target):
        return -(k0 * theta + k1 * theta_dot + k2 * (x - x_target) + k3 * x_dot), True

    return _simulate(
        state0, x_target, params, dt, n_steps, control_every, rk4,
        ev_step, ev_kind, ev_value, track_bound, theta_limit, law,
    )
