import re
import warnings

import numpy as np
import pytest

from fuzzpole.harness import SFCController
from fuzzpole.plant import PlantParams, PlantState, derivatives, pole_params
from fuzzpole.sfc import (
    DEFAULT_DESIRED_POLES,
    DesignError,
    LinearModel,
    design_gains,
    linearize,
    sfc_output,
)

P1 = pole_params(1, mu_c=0.0, mu_p=0.0)


def finite_difference_model(p, h=1e-6):
    """Independent linearization oracle: central differences of the plant
    accelerations about the upright origin."""
    A = np.zeros((4, 4))
    B = np.zeros((4, 1))

    def accel(state, f):
        th_dd, x_dd = derivatives(PlantState(*state), f, p)
        return np.array([state[1], th_dd, state[3], x_dd])

    for j in range(4):
        plus = [0.0] * 4
        minus = [0.0] * 4
        plus[j] += h
        minus[j] -= h
        A[:, j] = (accel(plus, 0.0) - accel(minus, 0.0)) / (2 * h)
    B[:, 0] = (accel([0.0] * 4, h) - accel([0.0] * 4, -h)) / (2 * h)
    return A, B


def test_linearize_matches_finite_differences():
    model = linearize(P1)
    A_fd, B_fd = finite_difference_model(P1)
    assert np.allclose(model.A, A_fd, rtol=1e-4, atol=1e-8)
    assert np.allclose(model.B, B_fd, rtol=1e-4, atol=1e-8)


def test_linearize_pole1_values():
    model = linearize(P1)
    assert model.A[1, 0] == pytest.approx(15.7756, abs=1e-3)
    assert model.B[1, 0] == pytest.approx(-1.46341, abs=1e-4)
    assert model.A[3, 0] == pytest.approx(-0.71707, abs=1e-4)
    assert model.B[3, 0] == pytest.approx(0.97561, abs=1e-4)


def test_position_rows_are_kinematic():
    model = linearize(pole_params(4))
    assert np.array_equal(model.A[0], [0.0, 1.0, 0.0, 0.0])
    assert np.array_equal(model.A[2], [0.0, 0.0, 0.0, 1.0])
    assert model.B[0, 0] == 0.0 and model.B[2, 0] == 0.0


def test_gravity_scales_theta_coupling():
    base = linearize(P1)
    heavy = linearize(PlantParams(g=2 * P1.g, m_c=P1.m_c, m=P1.m, l=P1.l,
                                  mu_c=0.0, mu_p=0.0, f_max=P1.f_max))
    assert heavy.A[1, 0] == pytest.approx(2 * base.A[1, 0], rel=1e-12)


def test_linearize_uses_frictionless_dynamics():
    assert np.array_equal(linearize(pole_params(1)).A, linearize(P1).A)


def test_model_rejects_non_finite_entries():
    with pytest.raises(DesignError):
        LinearModel(np.full((4, 4), np.nan), np.zeros((4, 1)))
    with pytest.raises(DesignError, match=r"A must be 4x4, got \(3, 3\)"):
        LinearModel(np.eye(3), np.zeros((4, 1)))


def test_design_places_poles_exactly():
    """Independent eigen-decomposition oracle for Ackermann."""
    model = linearize(P1)
    gains = design_gains(model, DEFAULT_DESIRED_POLES)
    achieved = np.linalg.eigvals(model.A - model.B @ gains.k.reshape(1, 4))
    assert np.allclose(
        np.sort_complex(achieved),
        np.sort_complex(np.asarray(DEFAULT_DESIRED_POLES, dtype=complex)),
        atol=1e-6,
    )


def test_design_fixed_point():
    """Re-requesting the spectrum a gain set already achieves reproduces it."""
    model = linearize(P1)
    gains = design_gains(model, DEFAULT_DESIRED_POLES)
    achieved = np.linalg.eigvals(model.A - model.B @ gains.k.reshape(1, 4))
    again = design_gains(model, tuple(achieved))
    re_achieved = np.linalg.eigvals(model.A - model.B @ again.k.reshape(1, 4))
    assert np.allclose(
        np.sort_complex(re_achieved), np.sort_complex(achieved), atol=1e-6
    )


def test_design_accepts_conjugate_pairs():
    model = linearize(P1)
    poles = (-1.5 + 0.5j, -1.5 - 0.5j, -2.0, -2.5)
    gains = design_gains(model, poles)
    achieved = np.linalg.eigvals(model.A - model.B @ gains.k.reshape(1, 4))
    assert np.allclose(
        np.sort_complex(achieved), np.sort_complex(np.asarray(poles)), atol=1e-6
    )


@pytest.mark.parametrize("pole", [-2.0, -5.0])
def test_design_places_repeated_poles(pole):
    """A fourfold pole: the closed loop's characteristic polynomial is
    (s - p)^4, although its eigenvalues scatter by ~eps**(1/4) about p."""
    model = linearize(P1)
    gains = design_gains(model, (pole,) * 4)
    closed = np.poly(model.A - model.B @ gains.k.reshape(1, 4))
    binomial = [1.0, -4 * pole, 6 * pole**2, -4 * pole**3, pole**4]
    assert np.allclose(closed, binomial, rtol=1e-12, atol=0.0)


def test_design_rejects_a_placement_it_cannot_verify():
    """Poles near -1000 on pole-1 need gains so large that the achieved
    polynomial is off by ~3e-6 relative: the design is refused."""
    with pytest.raises(DesignError, match="placement verification failed"):
        design_gains(linearize(P1), (-1000.0, -1001.0, -1002.0, -1003.0))


def test_design_rejects_poles_whose_gains_overflow():
    """Poles of 1e300 overflow the characteristic polynomial, and four poles
    at -1e80 overflow it to inf and then NaN.  With warnings as errors both
    are still a DesignError, not a numpy RuntimeWarning."""
    for poles in ((1e300, 1e300, -1e300, -1e300), (-1e80,) * 4):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DesignError, match="gains are not finite for desired poles"):
                design_gains(linearize(P1), poles)


def test_design_rejects_unpaired_complex_poles():
    model = linearize(P1)
    with pytest.raises(DesignError):
        design_gains(model, (-1.5 + 0.5j, -1.5 + 0.5j, -2.0, -2.5))


def test_conjugate_pairs_keep_their_gains():
    """The gains of two pole sets with conjugate pairs, pinned bit for bit:
    checking conjugation on the characteristic polynomial leaves the real
    coefficients Ackermann's formula works on as they were."""
    model = linearize(pole_params(1))
    pair = design_gains(model, (-1.5 + 0.5j, -1.5 - 0.5j, -2.0, -2.5))
    assert [repr(v) for v in pair.k.tolist()] == [
        "-25.711065759637194", "-6.345238095238095", "-0.8715986394557822", "-1.8303571428571428",
    ]
    pairs = design_gains(model, (-1.0 + 1.0j, -1.0 - 1.0j, -2.0 + 0.7j, -2.0 - 0.7j))
    assert [repr(v) for v in pairs.k.tolist()] == [
        "-21.09893764172336", "-4.889319727891157", "-0.626156462585034", "-1.1839795918367346",
    ]


@pytest.mark.parametrize(
    "poles, message",
    [
        (((-1, 0.5), (-1, -0.5)), "need exactly 4 desired poles, got 2"),
        (((-1,), (-2,), (-3,), (-4,)), "must be a flat sequence of numbers"),
        (("a", "b", "c", "d"), "must be a flat sequence of numbers"),
        ((True, -1.0, -2.0, -3.0), "must be a flat sequence of numbers"),
        (-2.0, "need exactly 4 desired poles, got 1"),
    ],
    ids=["re-im-pairs", "nested", "strings", "bool", "scalar"],
)
def test_desired_poles_are_taken_as_given(poles, message):
    """Poles are a flat sequence of four numbers: the JSON [re, im] form
    written in Python is two entries, not four real poles, and an entry
    that is not a number or a scalar in place of the sequence is a
    DesignError too."""
    with pytest.raises(DesignError, match=re.escape(message)):
        design_gains(linearize(P1), poles)
    with pytest.raises(DesignError, match=re.escape(message)):
        SFCController(pole_params(1), desired_poles=poles)


def test_design_rejects_uncontrollable_pair():
    A = np.diag([1.0, 2.0, 3.0, 4.0])
    B = np.array([[1.0], [0.0], [0.0], [0.0]])  # only the first mode reachable
    with pytest.raises(DesignError) as err:
        design_gains(LinearModel(A, B), DEFAULT_DESIRED_POLES)
    assert "rank 1" in str(err.value)


@pytest.mark.parametrize("pole", [1, 2, 3, 4, 5, 6])
def test_default_design_stabilizes_every_nominal_preset(pole):
    model = linearize(pole_params(pole, mu_c=0.0, mu_p=0.0))
    gains = design_gains(model, DEFAULT_DESIRED_POLES)
    eig = np.linalg.eigvals(model.A - model.B @ gains.k.reshape(1, 4))
    assert np.max(eig.real) < 0.0


def test_sfc_output_zero_at_reference():
    gains = design_gains(linearize(P1), reference=(0.0, 0.0, 0.5, 0.0))
    assert sfc_output(gains, PlantState(x=0.5)) == 0.0


def test_sfc_output_linear_before_clamp():
    gains = design_gains(linearize(P1), reference=(0.0, 0.0, 0.0, 0.0), f_max=1e9)
    delta = PlantState(theta=0.01, theta_dot=0.02, x=-0.03, x_dot=0.04)
    double = PlantState(theta=0.02, theta_dot=0.04, x=-0.06, x_dot=0.08)
    assert sfc_output(gains, double) == pytest.approx(
        2 * sfc_output(gains, delta), rel=1e-12
    )


def test_sfc_output_odd_about_reference():
    gains = design_gains(linearize(P1), reference=(0.0, 0.0, 0.3, 0.0), f_max=1e9)
    s = PlantState(theta=0.02, theta_dot=-0.1, x=0.5, x_dot=0.05)
    mirror = PlantState(-0.02, 0.1, 0.3 - (0.5 - 0.3), -0.05)
    assert sfc_output(gains, mirror) == pytest.approx(-sfc_output(gains, s), rel=1e-12)


def test_sfc_output_clamps():
    gains = design_gains(linearize(P1), f_max=10.0)
    # the x gain is negative, so far from the target u takes the sign of x
    assert sfc_output(gains, PlantState(x=-50.0)) == -10.0
    assert sfc_output(gains, PlantState(x=50.0)) == 10.0
    assert abs(sfc_output(gains, PlantState(theta=0.3, x=-50.0))) == 10.0
