"""Nonlinear cart-pole dynamics with fixed-step integration and scripted
disturbance events (pole taps, track tilt).

State is (theta, theta_dot, x, x_dot) plus the current track tilt.  The
accelerations follow the standard benchmark equations.  Track tilt enters as
the equivalent constant force -(m_c+m)*g*sin(tilt) applied at the cart, which
biases the cart acceleration by exactly -g*sin(tilt) and lets the pole react
to the slope through the force coupling; theta stays referenced to true
vertical.  sgn(0) is 0 so the upright origin is an exact equilibrium.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

__all__ = [
    "PlantState",
    "PlantParams",
    "PlantError",
    "DisturbanceEvent",
    "tap",
    "set_tilt",
    "POLE_PRESETS",
    "pole_params",
    "derivatives",
    "step",
    "apply_event",
]


class PlantError(ValueError):
    pass


@dataclass(frozen=True)
class PlantState:
    theta: float = 0.0  # rad, from vertical
    theta_dot: float = 0.0  # rad/s
    x: float = 0.0  # m
    x_dot: float = 0.0  # m/s
    tilt: float = 0.0  # rad, current track inclination

    def __post_init__(self):
        for name in ("theta", "theta_dot", "x", "x_dot", "tilt"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise PlantError(f"state {name} must be finite, got {value}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.theta, self.theta_dot, self.x, self.x_dot)


@dataclass(frozen=True)
class PlantParams:
    g: float = 9.8  # m/s^2
    m_c: float = 1.0  # kg, cart
    m: float = 0.1  # kg, pole
    l: float = 0.5  # m, half-pole length
    mu_c: float = 0.0005  # cart-track friction coefficient
    mu_p: float = 0.000002  # pole-hinge friction coefficient
    f_max: float = 10.0  # N, force saturation

    def __post_init__(self):
        for name in ("g", "m_c", "m", "l", "f_max"):
            value = getattr(self, name)
            if not 0 < value < math.inf:  # NaN fails too
                raise PlantError(f"{name} must be positive and finite, got {value}")
        for name in ("mu_c", "mu_p"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise PlantError(
                    f"friction coefficient {name} must be non-negative and "
                    f"finite, got {value}"
                )

    def frictionless(self) -> "PlantParams":
        return replace(self, mu_c=0.0, mu_p=0.0)


# (length m, mass kg) of the benchmark pole set; half-pole length is length/2.
POLE_PRESETS: dict[str, tuple[float, float]] = {
    "pole-1": (1.0, 0.1),
    "pole-2": (0.5, 0.05),
    "pole-3": (1.0, 0.05),
    "pole-4": (0.5, 0.025),
    "pole-5": (1.0, 0.5),
    "pole-6": (1.0, 1.0),
    "pole-7": (1.0, 2.0),
}


def pole_params(preset: str | int, **overrides) -> PlantParams:
    """Plant parameters for a named pole preset ('pole-3' or just 3).

    ``overrides`` set any other field and win over the preset's ``m`` and
    ``l`` (half-pole length)."""
    name = f"pole-{preset}" if isinstance(preset, int) else str(preset)
    if name not in POLE_PRESETS:
        raise PlantError(
            f"unknown pole preset '{preset}'; expected one of "
            f"{sorted(POLE_PRESETS)}"
        )
    length, mass = POLE_PRESETS[name]
    return PlantParams(**{"m": mass, "l": length / 2.0, **overrides})


def accelerations(
    theta: float,
    theta_dot: float,
    x_dot: float,
    f: float,
    tilt: float,
    g: float,
    m_c: float,
    m: float,
    l: float,
    mu_c: float,
    mu_p: float,
    f_max: float,
) -> tuple[float, float]:
    """Scalar core of the dynamics, shared by ``step`` and the simulation loop."""
    if f > f_max:
        f = f_max
    elif f < -f_max:
        f = -f_max
    total = m_c + m
    f = f - total * g * math.sin(tilt)  # slope as an equivalent cart force
    if x_dot > 0.0:
        sgn = 1.0
    elif x_dot < 0.0:
        sgn = -1.0
    else:
        sgn = 0.0
    sin_t = math.sin(theta)
    cos_t = math.cos(theta)
    theta_ddot = (
        g * sin_t
        + cos_t * ((-f - m * l * theta_dot * theta_dot * sin_t + mu_c * sgn) / total)
        - mu_p * theta_dot / (m * l)
    ) / (l * (4.0 / 3.0 - m * cos_t * cos_t / total))
    x_ddot = (
        f + m * l * (theta_dot * theta_dot * sin_t - theta_ddot * cos_t) - mu_c * sgn
    ) / total
    return theta_ddot, x_ddot


def advance(
    theta: float,
    theta_dot: float,
    x: float,
    x_dot: float,
    f: float,
    tilt: float,
    dt: float,
    g: float,
    m_c: float,
    m: float,
    l: float,
    mu_c: float,
    mu_p: float,
    f_max: float,
    rk4: bool,
) -> tuple[float, float, float, float]:
    """One fixed step; forward Euler by default, classic RK4 when asked.

    Euler advances velocities by the accelerations and positions by the old
    velocities (explicit Euler on the first-order system).  RK4 holds its
    stage values in locals: stage i has angular velocity p_i, cart velocity
    v_i and accelerations (a_i, b_i), and the step is the usual weighted sum
    dt/6 (k1 + 2 k2 + 2 k3 + k4)."""
    if not rk4:
        theta_ddot, x_ddot = accelerations(
            theta, theta_dot, x_dot, f, tilt, g, m_c, m, l, mu_c, mu_p, f_max
        )
        return (
            theta + theta_dot * dt,
            theta_dot + theta_ddot * dt,
            x + x_dot * dt,
            x_dot + x_ddot * dt,
        )
    a1, b1 = accelerations(theta, theta_dot, x_dot, f, tilt, g, m_c, m, l, mu_c, mu_p, f_max)
    h = 0.5 * dt
    p2 = theta_dot + h * a1
    v2 = x_dot + h * b1
    a2, b2 = accelerations(
        theta + h * theta_dot, p2, v2, f, tilt, g, m_c, m, l, mu_c, mu_p, f_max
    )
    p3 = theta_dot + h * a2
    v3 = x_dot + h * b2
    a3, b3 = accelerations(
        theta + h * p2, p3, v3, f, tilt, g, m_c, m, l, mu_c, mu_p, f_max
    )
    p4 = theta_dot + dt * a3
    v4 = x_dot + dt * b3
    a4, b4 = accelerations(
        theta + dt * p3, p4, v4, f, tilt, g, m_c, m, l, mu_c, mu_p, f_max
    )
    sixth = dt / 6.0
    return (
        theta + sixth * (theta_dot + 2.0 * p2 + 2.0 * p3 + p4),
        theta_dot + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
        x + sixth * (x_dot + 2.0 * v2 + 2.0 * v3 + v4),
        x_dot + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4),
    )


def _check_force(f: float) -> None:
    if not math.isfinite(f):
        raise PlantError(f"force must be finite, got {f}")


def derivatives(s: PlantState, f: float, p: PlantParams) -> tuple[float, float]:
    """(theta_ddot, x_ddot) at the given state under force f (clamped)."""
    _check_force(f)
    return accelerations(
        s.theta, s.theta_dot, s.x_dot, f, s.tilt,
        p.g, p.m_c, p.m, p.l, p.mu_c, p.mu_p, p.f_max,
    )


def step(
    s: PlantState, f: float, dt: float, p: PlantParams, method: str = "euler"
) -> PlantState:
    """Advance one fixed step of size dt; tilt is carried through unchanged."""
    if dt <= 0:
        raise PlantError(f"dt must be positive, got {dt}")
    if method not in ("euler", "rk4"):
        raise PlantError(f"unknown integrator '{method}'")
    _check_force(f)
    theta, theta_dot, x, x_dot = advance(
        s.theta, s.theta_dot, s.x, s.x_dot, f, s.tilt, dt,
        p.g, p.m_c, p.m, p.l, p.mu_c, p.mu_p, p.f_max,
        method == "rk4",
    )
    return PlantState(theta, theta_dot, x, x_dot, s.tilt)


@dataclass(frozen=True)
class DisturbanceEvent:
    """Timestamped scripted disturbance.

    kind 'tap' adds value (rad/s) to the pole's angular velocity at time t;
    kind 'set_tilt' sets the track inclination to value (rad), so un-tilting
    is set_tilt with value 0.
    """

    t: float
    kind: str  # "tap" | "set_tilt"
    value: float

    def __post_init__(self):
        if not 0 <= self.t < math.inf:  # NaN fails too
            raise PlantError(f"event time must be finite and >= 0, got {self.t}")
        if not math.isfinite(self.value):
            raise PlantError(f"event value must be finite, got {self.value}")
        if self.kind not in ("tap", "set_tilt"):
            raise PlantError(f"unknown event kind '{self.kind}'")


def tap(t: float, delta_theta_dot: float) -> DisturbanceEvent:
    return DisturbanceEvent(t, "tap", delta_theta_dot)


def set_tilt(t: float, angle: float) -> DisturbanceEvent:
    return DisturbanceEvent(t, "set_tilt", angle)


def apply_event(s: PlantState, e: DisturbanceEvent) -> PlantState:
    if e.kind == "tap":
        return replace(s, theta_dot=s.theta_dot + e.value)
    return replace(s, tilt=e.value)
