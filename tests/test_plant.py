import dataclasses
import math

import numpy as np
import pytest

from fuzzpole.harness import default_scenario, run
from fuzzpole.plant import (
    DisturbanceEvent,
    advance,
    PlantError,
    PlantParams,
    PlantState,
    POLE_PRESETS,
    derivatives,
    pole_params,
    set_tilt,
    step,
    tap,
)

# Frozen from an independent high-precision evaluation (mpmath, 30 digits) of
# the governing equations at theta = 0.1 rad, everything else zero, pole-1
# frictionless parameters.
THETA_DDOT_ORACLE = 1.5737853048016258
X_DDOT_ORACLE = -0.07117831516049841

P1 = pole_params(1, mu_c=0.0, mu_p=0.0)


def test_equilibrium_is_exact():
    assert derivatives(PlantState(), 0.0, P1) == (0.0, 0.0)
    assert derivatives(PlantState(), 0.0, pole_params(1)) == (0.0, 0.0)


def test_derivatives_match_independent_oracle():
    th_dd, x_dd = derivatives(PlantState(theta=0.1), 0.0, P1)
    assert th_dd == pytest.approx(THETA_DDOT_ORACLE, rel=1e-6)
    assert x_dd == pytest.approx(X_DDOT_ORACLE, rel=1e-6)


def test_odd_symmetry_frictionless():
    rng = np.random.default_rng(11)
    for _ in range(300):
        s = PlantState(
            theta=float(rng.uniform(-0.6, 0.6)),
            theta_dot=float(rng.uniform(-2, 2)),
            x=float(rng.uniform(-1, 1)),
            x_dot=float(rng.uniform(-1, 1)),
        )
        f = float(rng.uniform(-10, 10))
        mirrored = PlantState(-s.theta, -s.theta_dot, s.x, -s.x_dot)
        a = derivatives(s, f, P1)
        b = derivatives(mirrored, -f, P1)
        assert b[0] == pytest.approx(-a[0], abs=1e-12)
        assert b[1] == pytest.approx(-a[1], abs=1e-12)


def test_force_saturation():
    p = pole_params(1)
    s = PlantState(theta=0.05, x_dot=0.3)
    assert derivatives(s, 25.0, p) == derivatives(s, p.f_max, p)
    assert derivatives(s, -99.0, p) == derivatives(s, -p.f_max, p)


def test_friction_signs():
    p = pole_params(1)
    gliding = PlantState(x_dot=1.0)
    still = PlantState()
    # cart friction opposes motion: x_ddot is lower when moving forward
    assert derivatives(gliding, 0.0, p)[1] < derivatives(still, 0.0, p)[1]
    # sgn(0) = 0 keeps rest an equilibrium even with friction
    assert derivatives(still, 0.0, p) == (0.0, 0.0)


def test_tilt_enters_as_cart_bias():
    p = P1
    tilted = PlantState(tilt=math.radians(7.0))
    th_dd, x_dd = derivatives(tilted, 0.0, p)
    # the x equation carries exactly -g sin(tilt) plus the pole reaction
    bias = -p.g * math.sin(tilted.tilt)
    assert x_dd == pytest.approx(bias - p.m * p.l * th_dd / (p.m_c + p.m), rel=1e-12)
    # and the slope tips the pole uphill (positive theta)
    assert th_dd > 0.0
    # untilting restores the equilibrium exactly
    assert derivatives(dataclasses.replace(tilted, tilt=0.0), 0.0, p) == (0.0, 0.0)


def test_non_finite_input_rejected():
    with pytest.raises(PlantError):
        derivatives(PlantState(theta=math.nan), 0.0, P1)
    with pytest.raises(PlantError):
        derivatives(PlantState(), math.inf, P1)


@pytest.mark.parametrize("field", ["theta", "theta_dot", "x", "x_dot", "tilt"])
def test_state_must_be_finite(field):
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(PlantError, match=f"state {field} must be finite"):
            PlantState(**{field: value})


def test_step_that_overflows_raises():
    with pytest.raises(PlantError, match="state x must be finite"):
        step(PlantState(x=1e308, x_dot=1e308), 0.0, 10.0, P1)


def test_param_validation():
    with pytest.raises(PlantError):
        PlantParams(m=-1.0)
    with pytest.raises(PlantError):
        PlantParams(mu_c=-0.1)
    with pytest.raises(PlantError):
        pole_params("pole-99")
    for name in ("g", "m_c", "m", "l", "f_max", "mu_c", "mu_p"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(PlantError, match=name):
                PlantParams(**{name: value})
        floor = 0.0 if name.startswith("mu_") else 1e-300
        assert getattr(PlantParams(**{name: floor}), name) == floor


def test_presets_match_published_pole_table():
    assert POLE_PRESETS["pole-1"] == (1.0, 0.1)
    assert POLE_PRESETS["pole-7"] == (1.0, 2.0)
    assert len(POLE_PRESETS) == 7
    p3 = pole_params(3)
    assert p3.m == 0.05 and p3.l == 0.5
    p2 = pole_params("pole-2")
    assert p2.m == 0.05 and p2.l == 0.25


def test_step_fixed_point_at_equilibrium():
    s = PlantState()
    assert step(s, 0.0, 0.005, P1) == s


def test_step_advances_velocity_first_order():
    s = PlantState(theta=0.1)
    out = step(s, 0.0, 0.005, P1)
    assert out.theta == 0.1  # old theta_dot was zero
    assert out.theta_dot == pytest.approx(THETA_DDOT_ORACLE * 0.005, rel=1e-6)
    assert out.x == 0.0
    assert out.x_dot == pytest.approx(X_DDOT_ORACLE * 0.005, rel=1e-6)
    assert out.tilt == s.tilt


def _integrate(theta0, dt, t_end, method="euler"):
    s = PlantState(theta=theta0)
    for _ in range(int(round(t_end / dt))):
        s = step(s, 0.0, dt, P1, method=method)
    return s


def test_euler_first_order_convergence():
    """Richardson-style check against a fine-step reference: the error of the
    Euler trajectory shrinks linearly with dt."""
    reference = _integrate(0.05, 1e-4, 0.5)
    errors = []
    for dt in (0.01, 0.005, 0.0025):
        got = _integrate(0.05, dt, 0.5)
        errors.append(abs(got.theta - reference.theta))
    assert errors[0] > errors[1] > errors[2]
    ratio1 = errors[0] / errors[1]
    ratio2 = errors[1] / errors[2]
    assert 1.6 < ratio1 < 2.4
    assert 1.6 < ratio2 < 2.4


def test_rk4_beats_euler():
    reference = _integrate(0.05, 1e-5, 0.3, method="rk4")
    euler = _integrate(0.05, 0.005, 0.3, method="euler")
    rk4 = _integrate(0.05, 0.005, 0.3, method="rk4")
    assert abs(rk4.theta - reference.theta) < 1e-3 * abs(euler.theta - reference.theta)


def _total_energy(s: PlantState, p: PlantParams) -> float:
    # uniform rod about its center: I = m (2l)^2 / 12
    translational = 0.5 * (p.m_c + p.m) * s.x_dot**2
    coupling = p.m * p.l * s.x_dot * s.theta_dot * math.cos(s.theta)
    rotational = (2.0 / 3.0) * p.m * p.l**2 * s.theta_dot**2
    potential = p.m * p.g * p.l * math.cos(s.theta)
    return translational + coupling + rotational + potential


def test_energy_drift_shrinks_linearly_with_dt():
    """Unforced frictionless dynamics conserve energy; explicit Euler's drift
    over 1 s is bounded and roughly halves when dt halves."""
    drifts = []
    for dt in (0.005, 0.0025, 0.00125):
        s = PlantState(theta=0.3, theta_dot=0.2, x_dot=0.1)
        e0 = _total_energy(s, P1)
        for _ in range(int(round(1.0 / dt))):
            s = step(s, 0.0, dt, P1)
        drifts.append(abs(_total_energy(s, P1) - e0))
    assert drifts[0] < 0.05  # bounded at the benchmark step
    assert 1.6 < drifts[0] / drifts[1] < 2.4
    assert 1.6 < drifts[1] / drifts[2] < 2.4


def _run_at_rest(*events):
    """One second of pole-1 SFC holding the origin, where every force is
    zero: only the events move the state."""
    return run(default_scenario(1, "sfc", x_target=0.0, duration=1.0, events=events))


def test_tap_event():
    traj = _run_at_rest(tap(0.5, 0.35))
    k = 100  # 0.5 s at dt 5 ms
    assert np.all(traj.data[:k, 1:] == 0.0)
    # the tap is applied before step k: row k holds it, nothing else moved
    assert traj.data[k, 1:5].tolist() == [0.0, 0.35, 0.0, 0.0]


def test_set_tilt_event():
    e = set_tilt(0.2, math.radians(7.0))
    assert e.value == pytest.approx(0.1222, abs=1e-4)
    traj = _run_at_rest(e, set_tilt(0.45, 0.0))
    assert np.all(traj.tilt[:40] == 0.0)
    assert np.all(traj.tilt[40:90] == e.value)
    assert np.all(traj.tilt[90:] == 0.0)


def test_event_validation():
    with pytest.raises(PlantError):
        DisturbanceEvent(-1.0, "tap", 0.1)
    with pytest.raises(PlantError):
        DisturbanceEvent(1.0, "shove", 0.1)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(PlantError, match="time"):
            tap(bad, 0.1)
        with pytest.raises(PlantError, match="value"):
            tap(1.0, bad)
        with pytest.raises(PlantError, match="value"):
            set_tilt(1.0, bad)
    assert tap(0.0, -0.2).t == 0.0


def test_step_validation():
    with pytest.raises(PlantError):
        step(PlantState(), 0.0, 0.0, P1)
    with pytest.raises(PlantError):
        step(PlantState(), 0.0, 0.005, P1, method="verlet")


def _accelerations(theta, theta_dot, x_dot, f, tilt, g, m_c, m, l, mu_c, mu_p, f_max):
    """``derivatives`` on the flat arguments the references below pass."""
    return derivatives(
        PlantState(theta, theta_dot, 0.0, x_dot, tilt), f,
        PlantParams(g, m_c, m, l, mu_c, mu_p, f_max),
    )


def _rk4_k_tuples(theta, theta_dot, x, x_dot, f, tilt, dt, *p):
    """Classic RK4 written with k-tuples of (theta', theta_dot', x', x_dot')."""
    a1, b1 = _accelerations(theta, theta_dot, x_dot, f, tilt, *p)
    k1 = (theta_dot, a1, x_dot, b1)
    a2, b2 = _accelerations(
        theta + 0.5 * dt * k1[0], theta_dot + 0.5 * dt * k1[1],
        x_dot + 0.5 * dt * k1[3], f, tilt, *p,
    )
    k2 = (theta_dot + 0.5 * dt * k1[1], a2, x_dot + 0.5 * dt * k1[3], b2)
    a3, b3 = _accelerations(
        theta + 0.5 * dt * k2[0], theta_dot + 0.5 * dt * k2[1],
        x_dot + 0.5 * dt * k2[3], f, tilt, *p,
    )
    k3 = (theta_dot + 0.5 * dt * k2[1], a3, x_dot + 0.5 * dt * k2[3], b3)
    a4, b4 = _accelerations(
        theta + dt * k3[0], theta_dot + dt * k3[1], x_dot + dt * k3[3], f, tilt, *p,
    )
    k4 = (theta_dot + dt * k3[1], a4, x_dot + dt * k3[3], b4)
    sixth = dt / 6.0
    return tuple(
        s + sixth * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
        for i, s in enumerate((theta, theta_dot, x, x_dot))
    )


def _random_steps(rng, tilted):
    """(arguments of one step, plant parameters) over every preset: random
    states, forces past saturation, both frictions, 1-20 ms steps."""
    for preset in POLE_PRESETS:
        p = pole_params(preset)
        params = (p.g, p.m_c, p.m, p.l, p.mu_c, p.mu_p, p.f_max)
        for _ in range(300):
            theta, theta_dot, x, x_dot = rng.uniform(-2.0, 2.0, 4).tolist()
            f = float(rng.uniform(-15.0, 15.0))
            tilt = float(rng.uniform(-0.2, 0.2)) if tilted else 0.0
            dt = float(rng.choice([0.001, 0.005, 0.02]))
            yield (theta, theta_dot, x, x_dot, f, tilt, dt), params


@pytest.mark.parametrize("tilted", [False, True])
def test_rk4_matches_k_tuple_reference(tilted):
    """advance's RK4 keeps the bits of the k-tuple formula on random states,
    forces past saturation, both frictions and every preset."""
    rng = np.random.default_rng(7 if tilted else 3)
    for args, params in _random_steps(rng, tilted):
        assert advance(*args, *params, True) == _rk4_k_tuples(*args, *params)


def _euler_reference(theta, theta_dot, x, x_dot, f, tilt, dt, *p):
    """Explicit Euler on the first-order system, from ``derivatives``."""
    theta_ddot, x_ddot = _accelerations(theta, theta_dot, x_dot, f, tilt, *p)
    return (
        theta + theta_dot * dt,
        theta_dot + theta_ddot * dt,
        x + x_dot * dt,
        x_dot + x_ddot * dt,
    )


@pytest.mark.parametrize("tilted", [False, True])
def test_euler_matches_accelerations_reference(tilted):
    """advance's Euler step, which prepares the net force itself, keeps the
    bits of the update built from ``derivatives`` on random states,
    forces past saturation, both frictions and every preset."""
    rng = np.random.default_rng(11 if tilted else 5)
    for args, params in _random_steps(rng, tilted):
        assert advance(*args, *params, False) == _euler_reference(*args, *params)


def _accelerations_written_out(theta, theta_dot, x_dot, f, tilt, g, m_c, m, l, mu_c, mu_p, f_max):
    """The equations of motion written out in one piece, as in the
    benchmark papers: clamp, slope force, then the two accelerations."""
    f = min(max(f, -f_max), f_max)
    total = m_c + m
    f = f - total * g * math.sin(tilt)
    sgn = 1.0 if x_dot > 0.0 else -1.0 if x_dot < 0.0 else 0.0
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    theta_ddot = (
        g * sin_t
        + cos_t * ((-f - m * l * theta_dot * theta_dot * sin_t + mu_c * sgn) / total)
        - mu_p * theta_dot / (m * l)
    ) / (l * (4.0 / 3.0 - m * cos_t * cos_t / total))
    x_ddot = (
        f + m * l * (theta_dot * theta_dot * sin_t - theta_ddot * cos_t) - mu_c * sgn
    ) / total
    return theta_ddot, x_ddot


def test_accelerations_match_the_written_out_equations():
    """Splitting the force preparation from the equations of motion keeps
    every bit, cart at rest (sgn 0) and -0.0 velocity included."""
    rng = np.random.default_rng(13)
    for (theta, theta_dot, _, x_dot, f, tilt, _), params in _random_steps(rng, True):
        for v in (x_dot, 0.0, -0.0):
            args = (theta, theta_dot, v, f, tilt, *params)
            assert _accelerations(*args) == _accelerations_written_out(*args)
