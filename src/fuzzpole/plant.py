"""Nonlinear cart-pole dynamics with fixed-step integration and scripted
disturbance events (pole taps, track tilt).

State is (theta, theta_dot, x, x_dot) plus the current track tilt.  The
accelerations follow the standard benchmark equations.  Track tilt enters as
the equivalent constant force -(m_c+m)*g*sin(tilt) applied at the cart, which
biases the cart acceleration by exactly -g*sin(tilt) and lets the pole react
to the slope through the force coupling; theta stays referenced to true
vertical.  sgn(0) is 0 so the upright origin is an exact equilibrium.

The physics is written once, as source: the equations of motion
(``_STAGE``), the Euler and RK4 steps (``_STEPS``) and saturation
(``_CLAMP``).  :func:`advance` and the accelerations that :func:`derivatives`
returns are generated from it at import, each one Python frame, and the
simulation loop in ``fuzzpole.kernels`` inlines the same source.
"""

from __future__ import annotations

import linecache
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


# The ranges of ``_real``: the words its error gives, and a test of a float,
# which NaN fails except in the first.
_RANGES = {
    "a real number": lambda v: True,  # NaN and +-inf pass
    "finite": math.isfinite,
    "positive": lambda v: v > 0.0,  # inf passes
    "positive and finite": lambda v: 0.0 < v < math.inf,
    "finite and >= 0": lambda v: 0.0 <= v < math.inf,
    "in (0, 1)": lambda v: 0.0 < v < 1.0,
}


def _real(name: str, value, want: str, error: type[Exception] = PlantError) -> float:
    """``value`` as a Python float in the range ``_RANGES[want]``, or
    ``error`` naming ``name``: the one rule for a numeric input.

    ``value`` must be a real number other than a bool.  ``float`` converts
    it, so a float keeps its bits (-0.0 too), a numpy scalar becomes a
    Python float and an int past the float range becomes +-inf."""
    if type(value) is not float:
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            raise error(f"{name} must be a real number, got {type(value).__name__}")
        try:
            value = float(value)
        except OverflowError:  # an int past the float range
            value = math.inf if value > 0 else -math.inf
    if not _RANGES[want](value):
        raise error(f"{name} must be {want}, got {value}")
    return value


def _integer(name: str, value, lo: int, hi: float, error: type[Exception] = PlantError) -> int:
    """``value`` as a Python int in ``[lo, hi]``, or ``error`` naming
    ``name``: the rule of :func:`_real` for a count or an index.  ``value``
    must be an integer other than a bool, so 2.0 is refused."""
    if type(value) is int and lo <= value <= hi:
        return value
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {type(value).__name__}")
    if not lo <= value <= hi:
        raise error(f"{name} must be an integer in [{lo}, {hi}], got {value}")
    return int(value)


def _store(obj, names: tuple[str, ...], want: str, error=PlantError, prefix="") -> None:
    """Check the frozen ``obj``'s fields ``names`` with :func:`_real` and
    store the floats; an error names the field after ``prefix``."""
    for name in names:
        object.__setattr__(obj, name, _real(prefix + name, getattr(obj, name), want, error))


@dataclass(frozen=True)
class PlantState:
    """Cart-pole state in SI units, and the track's inclination.  Each field
    is a finite real number other than a bool, stored as a Python float
    (``PlantError`` names a bad one)."""

    theta: float = 0.0  # rad, from vertical
    theta_dot: float = 0.0  # rad/s
    x: float = 0.0  # m
    x_dot: float = 0.0  # m/s
    tilt: float = 0.0  # rad, current track inclination

    def __post_init__(self):
        _store(self, ("theta", "theta_dot", "x", "x_dot", "tilt"), "finite", prefix="state ")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.theta, self.theta_dot, self.x, self.x_dot)


@dataclass(frozen=True)
class PlantParams:
    """Physical constants of the cart-pole and its force limit, SI units.
    Each is a real number other than a bool, stored as a Python float:
    the friction coefficients finite and >= 0, the rest positive and finite
    (``PlantError`` names a bad one)."""

    g: float = 9.8  # m/s^2
    m_c: float = 1.0  # kg, cart
    m: float = 0.1  # kg, pole
    l: float = 0.5  # m, half-pole length
    mu_c: float = 0.0005  # cart-track friction coefficient
    mu_p: float = 0.000002  # pole-hinge friction coefficient
    f_max: float = 10.0  # N, force saturation

    def __post_init__(self):
        _store(self, ("g", "m_c", "m", "l", "f_max"), "positive and finite")
        _store(self, ("mu_c", "mu_p"), "finite and >= 0", prefix="friction coefficient ")


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


# Saturation, and the only place it is written: the force ``f`` clamped to
# +-f_max in place (a NaN passes).  The simulation loop inlines it once per
# control instant; ``advance``, ``derivatives`` and ``sfc_output`` each call.
_CLAMP = """\
if f > f_max:
    f = f_max
elif f < -f_max:
    f = -f_max
"""

# The equations of motion, and the only place they are written: one stage
# over the stage's angle {t}, angular velocity {p} and cart velocity {v},
# which sets {a} to theta_ddot and {b} to x_ddot under the net cart force
# ``net``.  ``friction`` is ``mu_c * sgn(v)``, with the same bits for any
# mu_c that is not NaN; ``ml`` is ``m l`` and ``total`` is ``m_c + m``,
# which round as when written out.
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
    + cos_t * ((-net - ml * {p} * {p} * sin_t + friction) / total)
    - mu_p * {p} / ml
) / (l * (4.0 / 3.0 - m * cos_t * cos_t / total))
{b} = (net + ml * ({p} * {p} * sin_t - {a} * cos_t) - friction) / total
"""
_stage = _STAGE.format
_ACCELERATIONS = _stage(t="theta", p="theta_dot", v="x_dot", a="theta_ddot", b="x_ddot")
_CONSTANTS = "total = m_c + m\nml = m * l\n"

# A fixed step of size ``dt`` under the net cart force ``net``, held over
# the step, as source, the only place each is written: per integrator, the
# constants it adds to ``_CONSTANTS`` and the body, which advances theta,
# theta_dot, x and x_dot in place.  Forward Euler advances the velocities
# by the accelerations and the positions by the old velocities.  Classic
# RK4 keeps its stage values as locals: stage i has angle t_i, angular
# velocity p_i, cart velocity v_i and accelerations (dp_i, dv_i), and the
# step is the usual weighted sum dt/6 (k1 + 2 k2 + 2 k3 + k4).  Each body
# inlines its stages; ``advance`` below and the simulation loop
# (``kernels``) inline the bodies.
_STEPS = {
    "euler": ("", f"""\
{_ACCELERATIONS}\
theta, theta_dot, x, x_dot = (
    theta + theta_dot * dt,
    theta_dot + theta_ddot * dt,
    x + x_dot * dt,
    x_dot + x_ddot * dt,
)
"""),
    "rk4": ("h = 0.5 * dt\nsixth = dt / 6.0\n", f"""\
{_stage(t="theta", p="theta_dot", v="x_dot", a="dp1", b="dv1")}\
t2 = theta + h * theta_dot
p2 = theta_dot + h * dp1
v2 = x_dot + h * dv1
{_stage(t="t2", p="p2", v="v2", a="dp2", b="dv2")}\
t3 = theta + h * p2
p3 = theta_dot + h * dp2
v3 = x_dot + h * dv2
{_stage(t="t3", p="p3", v="v3", a="dp3", b="dv3")}\
t4 = theta + dt * p3
p4 = theta_dot + dt * dp3
v4 = x_dot + dt * dv3
{_stage(t="t4", p="p4", v="v4", a="dp4", b="dv4")}\
theta, theta_dot, x, x_dot = (
    theta + sixth * (theta_dot + 2.0 * p2 + 2.0 * p3 + p4),
    theta_dot + sixth * (dp1 + 2.0 * dp2 + 2.0 * dp3 + dp4),
    x + sixth * (x_dot + 2.0 * v2 + 2.0 * v3 + v4),
    x_dot + sixth * (dv1 + 2.0 * dv2 + 2.0 * dv3 + dv4),
)
"""),
}
_STEP_GLOBALS = {"sin": sin, "cos": cos}  # the globals the step source reads

# ``advance`` and ``_accelerations``, generated once at import, each one
# Python frame: the plant's constants, the clamp and the net cart force
# (``f`` clamped, less the slope force), then a step or one stage.
_PLANT = "g, m_c, m, l, mu_c, mu_p, f_max"
_NET = _CONSTANTS + _CLAMP + "net = f - slope_force(tilt, g, total)\n"
_SOURCE = f'''\
def advance(theta, theta_dot, x, x_dot, f, tilt, dt, {_PLANT}, rk4):
    """One fixed step of size ``dt``; forward Euler, or classic RK4 when
    ``rk4`` is true.  Returns the new (theta, theta_dot, x, x_dot).

    The step is taken on the net cart force, ``f`` clamped to +-f_max less
    the slope force, fixed for the step, and inlines the equations of
    motion that ``derivatives`` runs too, so each stage gets the
    accelerations ``derivatives`` returns for the stage's state.  The
    simulation loop inlines the same clamp and step bodies."""
{indent(_NET, "    ")}\
    if rk4:
{indent("".join(_STEPS["rk4"]), " " * 8)}\
    else:
{indent("".join(_STEPS["euler"]), " " * 8)}\
    return theta, theta_dot, x, x_dot


def _accelerations(theta, theta_dot, x_dot, f, tilt, {_PLANT}):
{indent(_NET + _ACCELERATIONS, "    ")}\
    return theta_ddot, x_ddot
'''


def _run_source(source: str, filename: str, namespace: dict) -> dict:
    """Run ``source`` in ``namespace`` as the file ``filename``, which
    ``linecache`` serves, so a traceback shows its lines; returns
    ``namespace``."""
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    exec(compile(source, filename, "exec"), namespace)
    return namespace


_namespace = _run_source(_SOURCE, "<fuzzpole.plant>", {
    "__name__": __name__, "slope_force": _slope_force, **_STEP_GLOBALS})
advance = _namespace["advance"]
_accelerations = _namespace["_accelerations"]


def derivatives(s: PlantState, f: float, p: PlantParams) -> tuple[float, float]:
    """(theta_ddot, x_ddot) at the given state under force f (clamped):
    one :data:`_STAGE` on the net cart force, as a step of ``advance``
    takes it."""
    f = _real("force", f, "finite")
    return _accelerations(
        s.theta, s.theta_dot, s.x_dot, f, s.tilt, p.g, p.m_c, p.m, p.l, p.mu_c, p.mu_p, p.f_max
    )


def step(
    s: PlantState, f: float, dt: float, p: PlantParams, method: str = "euler"
) -> PlantState:
    """Advance one fixed step of size dt; tilt is carried through unchanged."""
    dt = _real("dt", dt, "positive and finite")
    if method not in ("euler", "rk4"):
        raise PlantError(f"unknown integrator '{method}'")
    f = _real("force", f, "finite")
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
    is set_tilt with value 0.  The simulation loop, one source template in
    ``fuzzpole.kernels`` (``_LOOP``), is the one place that applies them.
    The time (finite and >= 0) and the value (finite) are real numbers other
    than a bool, stored as Python floats (``PlantError`` names a bad one).
    """

    t: float
    kind: str  # "tap" | "set_tilt"
    value: float

    def __post_init__(self):
        object.__setattr__(self, "t", _real("event time", self.t, "finite and >= 0"))
        object.__setattr__(self, "value", _real("event value", self.value, "finite"))
        if self.kind not in ("tap", "set_tilt"):
            raise PlantError(f"unknown event kind '{self.kind}'")


def tap(t: float, delta_theta_dot: float) -> DisturbanceEvent:
    return DisturbanceEvent(t, "tap", delta_theta_dot)


def set_tilt(t: float, angle: float) -> DisturbanceEvent:
    return DisturbanceEvent(t, "set_tilt", angle)

