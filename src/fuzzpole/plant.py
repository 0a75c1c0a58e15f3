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
import numbers
from dataclasses import dataclass
from math import cos, sin
from textwrap import indent

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
]


class PlantError(ValueError):
    pass


def _check_real(name: str, value) -> None:
    """Raise PlantError unless ``value`` is a real number (bools pass, as
    ints do)."""
    if not isinstance(value, numbers.Real):
        raise PlantError(f"{name} must be a real number, got {type(value).__name__}")


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
            _check_real(f"state {name}", value)
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
            _check_real(name, value)
            if not 0 < value < math.inf:  # NaN fails too
                raise PlantError(f"{name} must be positive and finite, got {value}")
        for name in ("mu_c", "mu_p"):
            value = getattr(self, name)
            _check_real(f"friction coefficient {name}", value)
            if not 0 <= value < math.inf:
                raise PlantError(
                    f"friction coefficient {name} must be non-negative and "
                    f"finite, got {value}"
                )


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


def _slope_force(tilt: float, g: float, total: float) -> float:
    """The slope force ``(m_c + m) g sin(tilt)`` (``total`` is ``m_c + m``)."""
    return total * g * sin(tilt)


def _net_force(f: float, tilt: float, g: float, total: float, f_max: float) -> float:
    """Force on the cart: ``f`` clamped to +-f_max, less the slope force
    (``total`` is ``m_c + m``)."""
    if f > f_max:
        f = f_max
    elif f < -f_max:
        f = -f_max
    return f - _slope_force(tilt, g, total)


# The equations of motion, and the only place they are written: one stage
# over the stage's angle {t}, angular velocity {p} and cart velocity {v},
# which sets {a} to theta_ddot and {b} to x_ddot under the net cart force
# ``f``.  ``friction`` is ``mu_c * sgn(v)``, with the same bits for any mu_c
# that is not NaN; ``ml`` is ``m l`` and ``total`` is ``m_c + m``, which
# round as when written out.
_STAGE = """\
if {v} > 0.0:
    friction = mu_c
elif {v} < 0.0:
    friction = -mu_c
else:
    friction = mu_c * 0.0
sin_t = sin({t})
cos_t = cos({t})
{a} = (
    g * sin_t
    + cos_t * ((-f - ml * {p} * {p} * sin_t + friction) / total)
    - mu_p * {p} / ml
) / (l * (4.0 / 3.0 - m * cos_t * cos_t / total))
{b} = (f + ml * ({p} * {p} * sin_t - {a} * cos_t) - friction) / total
"""


# The binder ``_integrator(entry, g, m_c, m, l, mu_c, mu_p, dt)`` binds one
# entry to a plant's constants and returns it: "dynamics" gives
# ``dynamics(theta, theta_dot, x_dot, f) -> (theta_ddot, x_ddot)``, "euler"
# and "rk4" a fixed step ``step(theta, theta_dot, x, x_dot, f)`` of size
# ``dt`` under the net cart force ``f``, held over the step.  Forward Euler
# advances the velocities by the accelerations and the positions by the old
# velocities.  Classic RK4 keeps its stage values as locals: stage i has
# angle t_i, angular velocity p_i, cart velocity v_i and accelerations
# (a_i, b_i), and the step is the usual weighted sum dt/6 (k1 + 2 k2 + 2 k3
# + k4).  Each entry inlines its stages, so a step is one Python frame.
_stage = indent(_STAGE, " " * 12).format
_namespace = {"sin": sin, "cos": cos}
exec(compile(f"""\
def _integrator(entry, g, m_c, m, l, mu_c, mu_p, dt=None):
    total = m_c + m
    ml = m * l
    if entry == "dynamics":
        def dynamics(theta, theta_dot, x_dot, f):
{_stage(t="theta", p="theta_dot", v="x_dot", a="theta_ddot", b="x_ddot")}
            return theta_ddot, x_ddot
        return dynamics
    elif entry == "euler":
        def euler(theta, theta_dot, x, x_dot, f):
{_stage(t="theta", p="theta_dot", v="x_dot", a="theta_ddot", b="x_ddot")}
            return (
                theta + theta_dot * dt,
                theta_dot + theta_ddot * dt,
                x + x_dot * dt,
                x_dot + x_ddot * dt,
            )
        return euler
    else:
        h = 0.5 * dt
        sixth = dt / 6.0
        def rk4(theta, theta_dot, x, x_dot, f):
{_stage(t="theta", p="theta_dot", v="x_dot", a="a1", b="b1")}
            t2 = theta + h * theta_dot
            p2 = theta_dot + h * a1
            v2 = x_dot + h * b1
{_stage(t="t2", p="p2", v="v2", a="a2", b="b2")}
            t3 = theta + h * p2
            p3 = theta_dot + h * a2
            v3 = x_dot + h * b2
{_stage(t="t3", p="p3", v="v3", a="a3", b="b3")}
            t4 = theta + dt * p3
            p4 = theta_dot + dt * a3
            v4 = x_dot + dt * b3
{_stage(t="t4", p="p4", v="v4", a="a4", b="b4")}
            return (
                theta + sixth * (theta_dot + 2.0 * p2 + 2.0 * p3 + p4),
                theta_dot + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
                x + sixth * (x_dot + 2.0 * v2 + 2.0 * v3 + v4),
                x_dot + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4),
            )
        return rk4
""", "<fuzzpole.plant _integrator>", "exec"), _namespace)
_integrator = _namespace["_integrator"]


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

    Binds the one step it takes from the generated ``_integrator`` and takes
    it on the net cart force (``f`` clamped, less the slope force), fixed
    for the step.  The step inlines :data:`_STAGE`, the equations of motion
    that :func:`derivatives` runs too, so each stage gets the accelerations
    ``derivatives`` returns for the stage's state.  The simulation loop
    binds the step once per run and prepares the net force itself."""
    integrate = _integrator("rk4" if rk4 else "euler", g, m_c, m, l, mu_c, mu_p, dt)
    return integrate(theta, theta_dot, x, x_dot, _net_force(f, tilt, g, m_c + m, f_max))


def _check_force(f: float) -> None:
    if not math.isfinite(f):
        raise PlantError(f"force must be finite, got {f}")


def derivatives(s: PlantState, f: float, p: PlantParams) -> tuple[float, float]:
    """(theta_ddot, x_ddot) at the given state under force f (clamped).

    Binds the generated ``_integrator``'s "dynamics" entry, one
    :data:`_STAGE` and a return, and runs it on the net cart force."""
    _check_force(f)
    dynamics = _integrator("dynamics", p.g, p.m_c, p.m, p.l, p.mu_c, p.mu_p)
    return dynamics(
        s.theta, s.theta_dot, s.x_dot, _net_force(f, s.tilt, p.g, p.m_c + p.m, p.f_max)
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
    is set_tilt with value 0.  The simulation loop
    (:func:`fuzzpole.kernels._simulate`) is the one place that applies them.
    """

    t: float
    kind: str  # "tap" | "set_tilt"
    value: float

    def __post_init__(self):
        _check_real("event time", self.t)
        _check_real("event value", self.value)
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

