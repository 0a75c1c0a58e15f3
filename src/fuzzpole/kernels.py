"""Hot numeric kernels for closed-loop simulation.

One loop, :func:`_simulate`, runs both controllers; they differ only in the
control law it calls at each control instant.  The fuzzy law evaluates a
knowledge base compiled once to tables (:func:`compile_kb`) in folded,
windowed form: scalar memberships and rule strengths, one strength per
conclusion label, and clip/max aggregation and left-to-right center-of-area
sums over only the grid points the active labels cover.  That is the
arithmetic of :func:`fuzzpole.fuzzy.fc_output` bit for bit.  The SFC law is
``-k (state - reference)``.  The plant is stepped by
:func:`fuzzpole.plant.advance`.

numpy is the only backend; ``ACTIVE_BACKEND`` and ``BACKENDS`` name it for
callers that record or select one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import plant
from .fuzzy import KnowledgeBase

__all__ = [
    "ACTIVE_BACKEND",
    "BACKENDS",
    "KernelError",
    "check_backend",
    "CompiledKB",
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

    Rules that conclude on the same output label form one group; its curve
    is that label sampled on ``omega``, and its window [lo, hi) spans the
    curve's nonzero grid points (lo == hi when it has none).
    """

    omega: np.ndarray  # (N,) float64 quantization points
    label_table: tuple  # per label: (kind, p0, p1, p2, power, input slot)
    rule_table: tuple  # per rule: (label rows of its preconditions, group)
    group_table: tuple  # per group: (curve, lo, hi)


_KINDS = {"triangle": 0, "shoulder_up": 1, "shoulder_down": 2}


def compile_kb(
    kb: KnowledgeBase, slots: Mapping[str, int] | None = None
) -> CompiledKB:
    slots = DEFAULT_SLOTS if slots is None else slots
    labels: list[tuple[int, float, float, float, int, int]] = []
    row_index: dict[tuple[str, str], int] = {}
    for var in kb.input_variables:
        if var.name not in slots:
            raise KernelError(
                f"variable '{var.name}' has no input slot; the harness drives "
                f"{sorted(slots)}"
            )
        for label_name, mf in var.labels.items():
            row_index[(var.name, label_name)] = len(labels)
            p = mf.params
            if mf.kind == "triangle":
                p0, p1, p2 = p
            else:
                p0, p1, p2 = p[0], p[1], p[1] + 1.0  # pad keeps divisions finite
            labels.append(
                (_KINDS[mf.kind], p0, p1, p2, mf.power, slots[var.name])
            )

    points = kb.output_universe.points()
    group_of: dict[str, int] = {}  # conclusion label -> group
    rule_table = []
    group_table = []
    for rule in kb.rules:
        rows = tuple(row_index[(pre.variable, pre.label)] for pre in rule.preconditions)
        label = rule.conclusion[1]
        if label not in group_of:
            group_of[label] = len(group_table)
            curve = kb.output.label(label).sample(points)
            nonzero = np.flatnonzero(curve > 0.0)
            lo, hi = (int(nonzero[0]), int(nonzero[-1]) + 1) if nonzero.size else (0, 0)
            group_table.append((curve, lo, hi))
        rule_table.append((rows, group_of[label]))

    return CompiledKB(
        omega=points,
        label_table=tuple(labels),
        rule_table=tuple(rule_table),
        group_table=tuple(group_table),
    )


def control_inputs(
    theta: float, theta_dot: float, x: float, x_dot: float, x_target: float
) -> np.ndarray:
    """State as the controller sees it (degrees, position error)."""
    return np.array(
        [theta * RAD2DEG, theta_dot * RAD2DEG, x - x_target, x_dot]
    )


# ---------------------------------------------------------------------------
# Control laws and the simulation loop


def _fuzzy_force(inputs, ck: CompiledKB) -> tuple[float, bool]:
    """Folded, windowed inference on a sequence of Python floats.

    Degrees and rule strengths are scalar, with the branches of
    ``MembershipFunction.__call__`` and the ``<`` min of
    ``fuzzy.rule_activation``, so a NaN degree is skipped.  The rules of a
    group fold into one strength, exactly, since no strength is NaN:
    max_r min(a_r, c) == min(max_r a_r, c).  Clip/max and the center-of-area
    sums run only over the union of the active groups' windows; every term
    outside it is +-0.0, so the left-to-right sums keep their bits.
    """
    degrees = []
    for kind, p0, p1, p2, power, slot in ck.label_table:
        v = inputs[slot]
        if kind == 0:
            if v <= p0 or v >= p2:
                d = 0.0
            elif v < p1:
                d = (v - p0) / (p1 - p0)
            elif v == p1:
                d = 1.0
            else:
                d = (p2 - v) / (p2 - p1)
        elif kind == 1:
            if v <= p0:
                d = 0.0
            elif v >= p1:
                d = 1.0
            else:
                d = (v - p0) / (p1 - p0)
        else:
            if v <= p0:
                d = 1.0
            elif v >= p1:
                d = 0.0
            else:
                d = (p1 - v) / (p1 - p0)
        if power > 1:
            base = d
            for _ in range(power - 1):
                d = d * base
        degrees.append(d)

    strength = [0.0] * len(ck.group_table)
    for rows, group in ck.rule_table:
        alpha = 1.0
        for i in rows:
            d = degrees[i]
            if d < alpha:
                alpha = d
        if alpha > strength[group]:
            strength[group] = alpha

    omega = ck.omega
    lo = omega.shape[0]
    hi = 0
    active = []
    for alpha, (curve, g_lo, g_hi) in zip(strength, ck.group_table):
        if alpha > 0.0 and g_lo < g_hi:
            active.append((alpha, curve))
            if g_lo < lo:
                lo = g_lo
            if g_hi > hi:
                hi = g_hi
    if not active:
        return 0.0, False
    alpha, curve = active[0]
    mu = np.minimum(alpha, curve[lo:hi])
    for alpha, curve in active[1:]:
        np.maximum(mu, np.minimum(alpha, curve[lo:hi]), out=mu)
    # np.add.accumulate is np.cumsum without its wrapper: left to right
    den = float(np.add.accumulate(mu)[-1])
    num = float(np.add.accumulate(omega[lo:hi] * mu)[-1])
    if num == 0.0:
        # A zero sum is -0.0 only if every term is: that takes the terms
        # outside the window too, so sum over the whole grid.
        full = np.zeros_like(omega)
        full[lo:hi] = mu
        num = float(np.add.accumulate(omega * full)[-1])
    return num / den, True


def _simulate(
    state0, x_target, params, dt, n_steps, control_every, rk4,
    ev_step, ev_kind, ev_value, track_bound, theta_limit, law,
):
    """Closed loop under ``law(theta, theta_dot, x, x_dot) -> (force, fired)``.

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
            f, fired = law(theta, theta_dot, x, x_dot)
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
    return _fuzzy_force(np.asarray(inputs, dtype=np.float64).tolist(), ck)


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

    def law(theta, theta_dot, x, x_dot):
        return _fuzzy_force(
            (theta * RAD2DEG, theta_dot * RAD2DEG, x - x_target, x_dot), ck
        )

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
    reference: np.ndarray,
):
    """Closed-loop run under the state-feedback controller."""
    k0, k1, k2, k3 = (float(v) for v in k_gains)
    r0, r1, r2, r3 = (float(v) for v in reference)

    def law(theta, theta_dot, x, x_dot):
        u = (k0 * (theta - r0) + k1 * (theta_dot - r1)
             + k2 * (x - r2) + k3 * (x_dot - r3))
        return -u, True

    return _simulate(
        state0, x_target, params, dt, n_steps, control_every, rk4,
        ev_step, ev_kind, ev_value, track_bound, theta_limit, law,
    )
