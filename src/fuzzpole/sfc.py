"""State-feedback baseline: analytic linearization of the cart-pole about
upright, gain design by pole placement (Ackermann), and the control law
u = -k (state - reference), written once as the source ``_LAW``, which
:func:`sfc_output` runs under ``plant._CLAMP`` and the simulation loop in
``fuzzpole.kernels`` inlines.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from textwrap import indent
from typing import TYPE_CHECKING

from .plant import _CLAMP, PlantParams, PlantState, _real, _run_source, _store

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "LinearModel",
    "GainVector",
    "DesignError",
    "linearize",
    "design_gains",
    "sfc_output",
    "DEFAULT_DESIRED_POLES",
]

# Nominal continuous-time closed-loop pole set used throughout the comparison
# experiments; deliberately modest so gains stay tied to the nominal model.
DEFAULT_DESIRED_POLES = (-1.5, -1.6, -2.0, -2.2)


class DesignError(ValueError):
    pass


def _finite(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """``value`` as a float64 array of ``shape``, up to axes of length one,
    each entry checked by :func:`~fuzzpole.plant._real` as finite, or a DesignError."""
    import numpy as np

    dims = "x".join(map(str, shape)) if len(shape) > 1 else f"{shape[0]} long"
    try:
        array = np.asarray(value, dtype=object)
    except ValueError:  # arrays of unequal shapes
        raise DesignError(f"{name} must be {dims}, got a ragged nest") from None
    if array.squeeze().shape != tuple(n for n in shape if n != 1):
        raise DesignError(f"{name} must be {dims}, got {array.shape}")
    entries = [_real(name, v, "finite", DesignError) for v in array.flat]
    return np.array(entries).reshape(shape)


@dataclass(frozen=True)
class LinearModel:
    """Continuous-time (A, B) with state ordered (theta, theta_dot, x, x_dot)."""

    A: np.ndarray
    B: np.ndarray  # (4, 1)

    def __post_init__(self):
        object.__setattr__(self, "A", _finite("A", self.A, (4, 4)))
        object.__setattr__(self, "B", _finite("B", self.B, (4, 1)))


def linearize(p: PlantParams) -> LinearModel:
    """Analytic Jacobian of the frictionless dynamics at the upright origin.

    Friction terms are dropped (treated as a disturbance); the cart-position
    row and angle row are kinematic identities.
    """
    import numpy as np

    total = p.m_c + p.m
    denom = p.l * (4.0 / 3.0 - p.m / total)  # m_c, m > 0: the factor is > 1/3
    dth_acc_dtheta = p.g / denom
    dth_acc_df = -1.0 / (total * denom)
    dx_acc_dtheta = -p.m * p.l * dth_acc_dtheta / total
    dx_acc_df = (1.0 - p.m * p.l * dth_acc_df) / total
    A = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [dth_acc_dtheta, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [dx_acc_dtheta, 0.0, 0.0, 0.0],
        ]
    )
    B = np.array([[0.0], [dth_acc_df], [0.0], [dx_acc_df]])
    return LinearModel(A, B)


@dataclass(frozen=True)
class GainVector:
    """Feedback gain row and the target state the error is measured from."""

    k: np.ndarray  # (4,)
    reference: np.ndarray = (0.0, 0.0, 0.0, 0.0)  # (theta, theta_dot, x, x_dot)
    f_max: float = 10.0

    def __post_init__(self):
        object.__setattr__(self, "k", _finite("k", self.k, (4,)))
        object.__setattr__(self, "reference", _finite("reference", self.reference, (4,)))
        _store(self, ("f_max",), "positive and finite", DesignError)


def design_gains(
    model: LinearModel,
    desired_poles=DEFAULT_DESIRED_POLES,
    reference=(0.0, 0.0, 0.0, 0.0),
    f_max: float = 10.0,
) -> GainVector:
    """Pole placement via Ackermann's formula for the single-input pair.

    Raises DesignError unless ``desired_poles`` is a flat sequence of four
    finite numbers (a complex pole is one complex number) closed under
    conjugation, that is, with a real monic polynomial to the relative
    1e-9 of the final check; when the pair is uncontrollable (reporting the
    controllability-matrix rank); or when the placement overflows or cannot
    be verified.  The achieved closed-loop characteristic polynomial is
    verified against the requested one, coefficient by coefficient, so
    poles may repeat: the eigenvalues of a near-defective closed loop move
    by about eps**(1/4) and could not be compared at a useful tolerance.
    """
    import numpy as np

    entries = list(desired_poles) if np.iterable(desired_poles) else [desired_poles]
    if len(entries) != 4:
        raise DesignError(f"need exactly 4 desired poles, got {len(entries)}")
    if not all(isinstance(p, numbers.Number) and not isinstance(p, bool) for p in entries):
        raise DesignError(f"desired poles must be a flat sequence of numbers, got {entries!r}")
    try:
        poles = np.array(entries, dtype=np.complex128)
    except OverflowError:
        raise DesignError("desired poles must be finite, got an int past the float range") from None
    if not np.all(np.isfinite(poles)):
        raise DesignError(f"desired poles must be finite, got {poles}")
    A, B = model.A, model.B
    # Huge poles overflow the polynomial to inf, and inf * 0 is NaN; the
    # finiteness check of the gains rejects them, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = np.poly(poles)  # monic characteristic polynomial
        tol = 1e-9 * np.maximum(1.0, np.abs(coeffs))
        if np.any(np.abs(coeffs.imag) > tol):
            raise DesignError(f"desired poles {poles} are not closed under conjugation")
        coeffs = coeffs.real
        ctrb = np.hstack([B, A @ B, A @ A @ B, A @ A @ A @ B])
        rank = int(np.linalg.matrix_rank(ctrb))
        if rank < 4:
            raise DesignError(
                f"(A, B) pair is uncontrollable: controllability matrix rank {rank} < 4"
            )
        phi = np.zeros((4, 4))
        for c in coeffs:
            phi = phi @ A + c * np.eye(4)
        k = np.linalg.solve(ctrb.T, np.array([0.0, 0.0, 0.0, 1.0])) @ phi
    if not np.all(np.isfinite(k)):
        raise DesignError(f"gains are not finite for desired poles {poles}")
    achieved = np.poly(A - B @ k.reshape(1, 4))
    if np.any(np.abs(achieved - coeffs) > tol):
        raise DesignError(
            f"placement verification failed: wanted characteristic polynomial "
            f"{coeffs}, achieved {achieved}"
        )
    return GainVector(k, reference, f_max)


# The force ``f`` under the gains k0..k3 on theta, theta_dot, x - x_target and x_dot.
_LAW = "f = -(k0 * theta + k1 * theta_dot + k2 * (x - x_target) + k3 * x_dot)\n"

sfc_output = _run_source(f'''\
def sfc_output(gains, s):
    """u = -k (state - reference), clamped to the actuator limit."""
    k0, k1, k2, k3 = gains.k.tolist()
    r0, r1, x_target, r3 = gains.reference.tolist()
    f_max = gains.f_max
    theta, theta_dot, x, x_dot = s.theta - r0, s.theta_dot - r1, s.x, s.x_dot - r3
{indent(_LAW + _CLAMP, "    ")}\
    return float(f)
''', "<fuzzpole.sfc>", {"__name__": __name__})["sfc_output"]
