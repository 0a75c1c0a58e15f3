"""State-feedback baseline: analytic linearization of the cart-pole about
upright, gain design by pole placement (Ackermann), and the control law
u = -k (state - reference).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .plant import PlantParams, PlantState

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


@dataclass(frozen=True)
class LinearModel:
    """Continuous-time (A, B) with state ordered (theta, theta_dot, x, x_dot)."""

    A: np.ndarray
    B: np.ndarray  # (4, 1)

    def __post_init__(self):
        A = np.asarray(self.A, dtype=np.float64)
        B = np.asarray(self.B, dtype=np.float64).reshape(4, 1)
        if A.shape != (4, 4):
            raise DesignError(f"A must be 4x4, got {A.shape}")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
            raise DesignError("linear model entries must be finite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)


def linearize(p: PlantParams) -> LinearModel:
    """Analytic Jacobian of the frictionless dynamics at the upright origin.

    Friction terms are dropped (treated as a disturbance); the cart-position
    row and angle row are kinematic identities.
    """
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
    reference: np.ndarray = field(
        default_factory=lambda: np.zeros(4)
    )  # (theta, theta_dot, x, x_dot)
    f_max: float = 10.0

    def __post_init__(self):
        object.__setattr__(self, "k", np.asarray(self.k, dtype=np.float64).reshape(4))
        object.__setattr__(
            self, "reference", np.asarray(self.reference, dtype=np.float64).reshape(4)
        )


def _conjugate_closed(poles: np.ndarray, tol: float = 1e-9) -> bool:
    remaining = list(poles)
    while remaining:
        pole = remaining.pop()
        if abs(pole.imag) <= tol:
            continue
        match = next(
            (i for i, q in enumerate(remaining) if abs(q - pole.conjugate()) <= tol),
            None,
        )
        if match is None:
            return False
        remaining.pop(match)
    return True


def design_gains(
    model: LinearModel,
    desired_poles=DEFAULT_DESIRED_POLES,
    reference=(0.0, 0.0, 0.0, 0.0),
    f_max: float = 10.0,
) -> GainVector:
    """Pole placement via Ackermann's formula for the single-input pair.

    Raises DesignError when the desired poles are not four finite poles
    closed under conjugation, when the pair is uncontrollable (reporting the
    controllability-matrix rank), or when the placement overflows or cannot
    be verified.  The achieved closed-loop characteristic polynomial is
    verified against the requested one, coefficient by coefficient, so poles
    may repeat: the eigenvalues of a near-defective closed loop move by
    about eps**(1/4) and could not be compared at a useful tolerance.
    """
    poles = np.asarray(desired_poles, dtype=np.complex128).reshape(-1)
    if poles.shape != (4,):
        raise DesignError(f"need exactly 4 desired poles, got {poles.shape[0]}")
    if not np.all(np.isfinite(poles)):
        raise DesignError(f"desired poles must be finite, got {poles}")
    if not _conjugate_closed(poles):
        raise DesignError(f"desired poles {poles} are not closed under conjugation")
    A, B = model.A, model.B
    ctrb = np.hstack([B, A @ B, A @ A @ B, A @ A @ A @ B])
    rank = int(np.linalg.matrix_rank(ctrb))
    if rank < 4:
        raise DesignError(
            f"(A, B) pair is uncontrollable: controllability matrix rank {rank} < 4"
        )
    # Huge poles overflow the polynomial to inf, and inf * 0 is NaN; the
    # finiteness check below rejects such gains, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = np.poly(poles)  # monic characteristic polynomial
        coeffs = np.real_if_close(coeffs, tol=1e6)
        phi = np.zeros((4, 4))
        for c in coeffs:
            phi = phi @ A + float(np.real(c)) * np.eye(4)
        k = np.linalg.solve(ctrb.T, np.array([0.0, 0.0, 0.0, 1.0])) @ phi
    if not np.all(np.isfinite(k)):
        raise DesignError(f"gains are not finite for desired poles {poles}")

    achieved = np.poly(A - B @ k.reshape(1, 4))
    if np.any(np.abs(achieved - coeffs) > 1e-9 * np.maximum(1.0, np.abs(coeffs))):
        raise DesignError(
            f"placement verification failed: wanted characteristic polynomial "
            f"{coeffs}, achieved {achieved}"
        )
    return GainVector(k, np.asarray(reference, dtype=np.float64), f_max)


def sfc_output(gains: GainVector, s: PlantState) -> float:
    """u = -k (state - reference), clamped to the actuator limit."""
    u = 0.0
    state = s.as_tuple()
    for i in range(4):
        u -= gains.k[i] * (state[i] - gains.reference[i])
    if u > gains.f_max:
        return gains.f_max
    if u < -gains.f_max:
        return -gains.f_max
    return u
