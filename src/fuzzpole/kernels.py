"""Hot numeric kernels for closed-loop simulation.

One loop, :func:`_simulate`, runs both controllers; they differ only in the
control law it calls at each control instant.  The fuzzy law evaluates a
knowledge base compiled to flat arrays (:func:`compile_kb`): vectorized
piecewise-linear memberships, min/max aggregation and left-to-right
center-of-area sums, the same arithmetic as :func:`fuzzpole.fuzzy.fc_output`
bit for bit.  The SFC law is ``-k (state - reference)``.  The plant is stepped
by :func:`fuzzpole.plant.advance`.

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

STATUS_COMPLETED = 0
STATUS_POLE_FELL = 1
STATUS_LEFT_TRACK = 2

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
    """Array form of a knowledge base, ready for the simulation kernels."""

    lab_kind: np.ndarray  # (L,) int64: 0 triangle, 1 shoulder_up, 2 shoulder_down
    lab_params: np.ndarray  # (L, 3) float64, unused third slot padded
    lab_power: np.ndarray  # (L,) int64
    lab_slot: np.ndarray  # (L,) int64 input slot of the owning variable
    rule_labels: np.ndarray  # (R, C) int64 label row per precondition, -1 pad
    conclusions: np.ndarray  # (R, N) float64 conclusion curve on the grid
    omega: np.ndarray  # (N,) float64 quantization points

    @property
    def n_rules(self) -> int:
        return self.rule_labels.shape[0]


_KINDS = {"triangle": 0, "shoulder_up": 1, "shoulder_down": 2}


def compile_kb(
    kb: KnowledgeBase, slots: Mapping[str, int] | None = None
) -> CompiledKB:
    slots = DEFAULT_SLOTS if slots is None else slots
    kinds: list[int] = []
    params: list[tuple[float, float, float]] = []
    powers: list[int] = []
    slot_of: list[int] = []
    row_index: dict[tuple[str, str], int] = {}
    for var in kb.input_variables:
        if var.name not in slots:
            raise KernelError(
                f"variable '{var.name}' has no input slot; the harness drives "
                f"{sorted(slots)}"
            )
        for label_name, mf in var.labels.items():
            row_index[(var.name, label_name)] = len(kinds)
            kinds.append(_KINDS[mf.kind])
            p = mf.params
            if mf.kind == "triangle":
                params.append((p[0], p[1], p[2]))
            else:
                params.append((p[0], p[1], p[1] + 1.0))  # pad keeps divisions finite
            powers.append(mf.power)
            slot_of.append(slots[var.name])

    width = max(len(r.preconditions) for r in kb.rules)
    rule_labels = np.full((len(kb.rules), width), -1, dtype=np.int64)
    points = kb.output_universe.points()
    conclusions = np.empty((len(kb.rules), points.shape[0]))
    for i, rule in enumerate(kb.rules):
        for j, pre in enumerate(rule.preconditions):
            rule_labels[i, j] = row_index[(pre.variable, pre.label)]
        conclusions[i] = kb.output.label(rule.conclusion[1]).sample(points)

    return CompiledKB(
        lab_kind=np.asarray(kinds, dtype=np.int64),
        lab_params=np.asarray(params, dtype=np.float64),
        lab_power=np.asarray(powers, dtype=np.int64),
        lab_slot=np.asarray(slot_of, dtype=np.int64),
        rule_labels=rule_labels,
        conclusions=conclusions,
        omega=points,
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


def _fuzzy_force(inputs: np.ndarray, ck: CompiledKB) -> tuple[float, bool]:
    v = inputs[ck.lab_slot]
    p0 = ck.lab_params[:, 0]
    p1 = ck.lab_params[:, 1]
    p2 = ck.lab_params[:, 2]
    with np.errstate(all="ignore"):
        rise = (v - p0) / (p1 - p0)
        tri = np.where(
            (v <= p0) | (v >= p2),
            0.0,
            np.where(v < p1, rise, np.where(v == p1, 1.0, (p2 - v) / (p2 - p1))),
        )
        up = np.where(v <= p0, 0.0, np.where(v >= p1, 1.0, rise))
        down = np.where(v <= p0, 1.0, np.where(v >= p1, 0.0, (p1 - v) / (p1 - p0)))
    base = np.where(ck.lab_kind == 0, tri, np.where(ck.lab_kind == 1, up, down))
    deg = base.copy()
    times = 1
    while np.any(ck.lab_power > times):
        deg = np.where(ck.lab_power > times, deg * base, deg)
        times += 1

    pre = np.where(ck.rule_labels >= 0, deg[ck.rule_labels], np.inf)
    # fmin skips a NaN degree, as the `<` in fuzzy.rule_activation does
    alphas = np.fmin(np.fmin.reduce(pre, axis=1), 1.0)
    mu = np.max(np.minimum(alphas[:, None], ck.conclusions), axis=0)
    den = float(np.cumsum(mu)[-1])
    if den == 0.0:
        return 0.0, False
    num = float(np.cumsum(ck.omega * mu)[-1])
    return num / den, True


def _simulate(
    state0, x_target, params, dt, n_steps, control_every, rk4,
    ev_step, ev_kind, ev_value, track_bound, theta_limit, law,
):
    """Closed loop under ``law(theta, theta_dot, x, x_dot) -> (force, fired)``.

    Returns (trajectory rows [t, theta, theta_dot, x, x_dot, F, tilt],
    status code, count of control instants where the law did not fire).
    """
    theta, theta_dot, x, x_dot, tilt = state0
    g, m_c, m, l, mu_c, mu_p, f_max = params
    traj = np.empty((n_steps + 1, 7))
    status = STATUS_COMPLETED
    rows = n_steps + 1
    norule = 0
    f = 0.0
    ev_i = 0
    n_ev = ev_step.shape[0]
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
        theta, theta_dot, x, x_dot = plant.advance(
            theta, theta_dot, x, x_dot, f, tilt, dt,
            g, m_c, m, l, mu_c, mu_p, f_max, rk4,
        )
        if abs(theta) > theta_limit:
            status = STATUS_POLE_FELL
        elif abs(x - x_target) > track_bound:
            status = STATUS_LEFT_TRACK
        if status != STATUS_COMPLETED:
            traj[k + 1] = ((k + 1) * dt, theta, theta_dot, x, x_dot, f, tilt)
            rows = k + 2
            break
    if status == STATUS_COMPLETED:
        traj[n_steps] = (n_steps * dt, theta, theta_dot, x, x_dot, f, tilt)
    return traj[:rows], status, norule


# ---------------------------------------------------------------------------
# Public entry points


def fuzzy_force(
    ck: CompiledKB, inputs: np.ndarray, backend: str | None = None
) -> tuple[float, bool]:
    """Single controller evaluation: crisp force and whether any rule fired."""
    check_backend(backend)
    return _fuzzy_force(np.asarray(inputs, dtype=np.float64), ck)


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
    status code, count of control instants where no rule fired).
    """

    def law(theta, theta_dot, x, x_dot):
        return _fuzzy_force(control_inputs(theta, theta_dot, x, x_dot, x_target), ck)

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
