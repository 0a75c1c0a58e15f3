"""Hot numeric kernels for closed-loop simulation.

One loop, :func:`_simulate`, runs both controllers; they differ only in the
control law it calls at each control instant.  The fuzzy law evaluates a
knowledge base compiled once (:func:`compile_kb`) in folded form.  Its
front end is a generated function: Python that reads each label's degree
off its trapezoid corners, with no branch on its shape, takes the rule
strengths over a trie of shared condition prefixes that skips every rule
below a zero prefix, and packs one strength per conclusion label into the
law's buffer.  Its source is built from indices only and cached by the rule
base's structure, so rule bases that differ only in their numbers share it;
the numbers are bound as arguments.  Then comes one clip over the coverage
layers, which hold at each grid point only the conclusion curves that are
nonzero there, padded with +0.0 rows to at least two, and one fold of
binary ``np.maximum`` calls over them (one call on the two layers of
``kb/pole.frl``).  Last, one left-to-right accumulate over a complex array,
the grid points times the aggregate as its real part and the aggregate as
its imaginary part, gives both center-of-area sums: a complex addition is
two independent IEEE additions, one per part.  Every scalar operation is
one :func:`fuzzpole.fuzzy.fc_output` performs, on the same values; where
the order differs (the strength max) or an operation is left out (below a
zero prefix) the bits are the same, so the force is its force bit for bit.
The SFC law is ``-(k0 theta + k1 theta_dot + k2 (x - x_target) + k3 x_dot)``.
The loop binds the plant's step once per run (``plant._integrator`` over
``plant._dynamics_of``) and takes it once per step on the net cart force it
prepares: the force it clamps once per control instant, less the slope
force it computes at the start of the run and at each tilt event.  That is
the net force :func:`fuzzpole.plant.advance` prepares at every step, so a
step is ``advance``'s step bit for bit.

numpy is the only backend; ``ACTIVE_BACKEND`` and ``BACKENDS`` name it for
callers that record or select one.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
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
    "fuzzy_law",
    "simulate_fuzzy",
    "simulate_sfc",
]

RAD2DEG = 180.0 / math.pi

# Input slots the simulation harness drives, in fixed units:
# theta [deg], theta_dot [deg/s], x as the error x - x_target [m], x_dot [m/s].
DEFAULT_SLOTS: Mapping[str, int] = {"theta": 0, "theta_dot": 1, "x": 2, "x_dot": 3}

ACTIVE_BACKEND = "numpy"
BACKENDS = (ACTIVE_BACKEND,)

# One trajectory row [t, theta, theta_dot, x, x_dot, F, tilt] as native
# float64s, the layout of a row of a C-contiguous (rows, 7) float64 array.
_ROW = struct.Struct("7d")


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
    """Compiled form of a knowledge base: what the fuzzy law reads at each
    control instant.

    Rules that conclude on the same output label form one group.
    ``strengths(inputs, out)`` maps the input values, in ``DEFAULT_SLOTS``
    order, to one strength per group, packed into ``out``, a float64 buffer
    of ``groups`` elements; it writes nothing else.  Each group's
    conclusion curve is its label sampled on the output grid.  The curves are stored as coverage
    layers: column j of ``layer_group`` lists, in group order, the groups
    whose curve is nonzero at grid point j, and the same column of
    ``layer_curve`` holds their values there, then 0.0 where fewer groups
    cover the point than there are layers.
    """

    strengths: Callable[[Sequence[float], np.ndarray], None]  # (inputs, out)
    groups: int  # conclusion labels, one strength each
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


def _front_end(kb: KnowledgeBase):
    """Split ``kb``'s memberships and rules into structure and numbers.

    Returns ``(structure, numbers, conclusions)``.  ``structure`` is
    ``(labels, rules, groups)``: per input label its ``(power, slot)``, per
    rule its ``(rows, group)`` (the label indices of its preconditions and
    its conclusion group), and the number of groups.  ``numbers`` holds, per
    label, its corners and widths ``a, b, b - a, c, d, d - c``, as the
    corners are stored.  ``conclusions`` lists the conclusion labels in
    group order.
    """
    labels: list[tuple[int, int]] = []
    numbers: list = []
    row_index: dict[tuple[str, str], int] = {}
    for var in kb.input_variables:
        for label_name, mf in var.labels.items():
            row_index[(var.name, label_name)] = len(labels)
            labels.append((mf.power, DEFAULT_SLOTS[var.name]))
            a, b, c, d = mf.corners
            numbers.extend((a, b, b - a, c, d, d - c))
    group_of: dict[str, int] = {}  # conclusion label -> group
    rules = tuple(
        (
            tuple(row_index[(pre.variable, pre.label)] for pre in rule.preconditions),
            group_of.setdefault(rule.conclusion[1], len(group_of)),
        )
        for rule in kb.rules
    )
    return (tuple(labels), rules, len(group_of)), numbers, list(group_of)


@functools.lru_cache(maxsize=64)
def _strengths_binder(structure) -> Callable[..., Callable[..., None]]:
    """Generate, once per ``structure`` of :func:`_front_end`, a binder
    ``bind(*numbers) -> strengths``; ``strengths(inputs, out)`` packs the
    group strengths into the float64 buffer ``out``.

    The source names labels, slots, groups and trie edges by index only, so
    rule bases that differ only in their numbers share one binder.  Label
    k's degree ``u{k}`` is the comparison chain of ``MembershipFunction``
    raised to its power as in ``fuzzy._pow_int``.  The rules' condition
    rows, as written, form a trie: an edge is the ``<`` min of its degree
    and its parent's value (1.0 at the root), as in ``rule_activation``, so
    a NaN degree is skipped; a rule's last edge takes the ``>`` max into its
    group from 0.0; a +0.0 edge skips its subtree.  This is exact: degrees
    are +0.0, positive or NaN, so no strength is NaN or -0.0, the max gives
    the same bits in any order, and a rule below a +0.0 edge is +0.0, which
    changes no group.
    """
    labels, rules, groups = structure
    params = ", ".join(
        f"a{k}, b{k}, w{k}, c{k}, d{k}, z{k}" for k in range(len(labels))
    )
    body = [f"def bind({params}):", "    def strengths(inputs, out):"]
    body += [f"        x{i} = inputs[{i}]" for i in sorted({i for _, i in labels})]
    for k, (power, i) in enumerate(labels):
        body += [
            f"        if x{i} < b{k}:",
            f"            u{k} = 0.0 if x{i} <= a{k} else (x{i} - a{k}) / w{k}",
            f"        elif x{i} <= c{k}:",
            f"            u{k} = 1.0",
            f"        elif x{i} >= d{k}:",
            f"            u{k} = 0.0",
            "        else:",
            f"            u{k} = (d{k} - x{i}) / z{k}",
        ]
        if power > 1:
            body.append(f"        u{k} = " + " * ".join([f"u{k}"] * power))
    body += [f"        g{g} = 0.0" for g in range(groups)]
    trie: dict = {}  # label row -> subtrie; None -> groups of the rules ending here
    for rows, g in rules:
        node = trie
        for k in rows:
            node = node.setdefault(k, {})
        node.setdefault(None, []).append(g)
    edges = itertools.count()

    def walk(node, s, pad):
        body.extend(f"{pad}if {s} > g{g}: g{g} = {s}" for g in node.pop(None, ()))
        for k, child in node.items():
            n = next(edges)
            body.extend((f"{pad}s{n} = u{k} if u{k} < {s} else {s}", f"{pad}if s{n}:"))
            walk(child, f"s{n}", pad + "    ")

    walk(trie, "1.0", "        ")
    body += [
        "        pack(" + ", ".join(["out", "0"] + [f"g{g}" for g in range(groups)]) + ")",
        "    return strengths",
    ]
    namespace: dict = {"pack": struct.Struct(f"{groups}d").pack_into}
    exec(compile("\n".join(body), "<fuzzpole.kernels strengths>", "exec"), namespace)
    return namespace["bind"]


def compile_kb(kb: KnowledgeBase) -> CompiledKB:
    """Compile ``kb`` to the :class:`CompiledKB` the fuzzy law reads.

    Memberships and rule strengths become one generated function,
    ``strengths``: the binder that :func:`_strengths_binder` generates for
    the rule base's structure, applied to its corners and widths.  The
    binder is cached by structure, so compiling a rule base whose labels
    and rules are shaped like one compiled before generates no code.  The
    conclusion curves become coverage layers.  Raises KernelError for an
    input variable the harness does not drive.
    """
    check_input_slots(kb)
    structure, numbers, conclusions = _front_end(kb)
    points = kb.output_universe.points()
    curves = np.empty((len(conclusions), points.shape[0]))
    for group, label in enumerate(conclusions):
        curves[group] = kb.output.label(label).sample(points)
    # Sorting each column on "is zero" moves the covering groups to the
    # top, in group order (a stable sort); the rows below the largest
    # coverage hold only zeros and are dropped.
    zero = curves == 0.0
    depth = int((~zero).sum(axis=0).max(initial=0))
    layer_group = np.argsort(zero, axis=0, kind="stable")[:depth]

    return CompiledKB(
        strengths=_strengths_binder(structure)(*numbers),
        groups=len(conclusions),
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


def fuzzy_law(ck: CompiledKB) -> Callable[[Sequence[float]], tuple[float, bool]]:
    """The fuzzy law of ``ck``: ``force(inputs) -> (force, fired)`` on a
    sequence of Python floats in ``DEFAULT_SLOTS`` order, with the force a
    Python float.

    The law owns its buffers, allocated here once and overwritten at each
    call, and binds the numpy callables it calls, so a call looks up no
    attribute of ``np``.  ``ck.strengths`` packs the group strengths
    straight into one of them, so no list or array is built per call.

    Degrees and rule strengths come from ``ck.strengths``, generated code
    that performs the scalar operations of ``MembershipFunction.__call__``
    and ``fuzzy.rule_activation`` once per shared prefix of conditions,
    skipping the rules below a +0.0 prefix; :func:`_strengths_binder` says
    why each strength is still the one ``fc_output`` computes, a NaN degree
    skipped.  The rules of a group fold into one strength, exactly, since
    no strength is NaN: max_r min(a_r, c) == min(max_r a_r, c).  Clip runs
    once over the coverage layers, into the first ``depth`` rows of a
    buffer of ``max(depth, 2)`` rows whose other rows stay +0.0.  Every
    clipped value is +0.0 or positive (strengths start at +0.0 and are
    never NaN; curves are sampled with +0.0 zeros), so +0.0, from a pad
    row or a curve left out at a grid point, changes no max, and the fold
    max(max(r0, r1), r2) is fc_output's max(max(max(+0.0, r0), r1), r2)
    bit for bit.

    Both center-of-area sums run left to right over the full grid in one
    accumulate, as in ``fuzzy.defuzzify_coa``: its terms are one complex
    array, the grid points times mu as the real part and mu as the
    imaginary part, and a complex addition adds the real parts and the
    imaginary parts apart, each with one IEEE addition, so each running sum
    is the one a real accumulate of its row gives.  fc_output's sums start
    at +0.0, hence the ``0.0 + num``, which makes an all -0.0 sum +0.0.
    """
    strengths = ck.strengths
    points, layer_group, layer_curve = ck.points, ck.layer_group, ck.layer_curve
    minimum, maximum, multiply = np.minimum, np.maximum, np.multiply
    accumulate = np.add.accumulate
    depth = len(layer_curve)
    clipped = np.zeros((max(depth, 2), points.shape[0]))
    covered = clipped[:depth]
    top, bottom, rest = clipped[0], clipped[1], tuple(clipped[2:])
    # Row 0 holds the center-of-area terms, row 1 their running sums:
    # accumulate, unlike sum, adds in order.  (Rows are taken by index:
    # unpacking a 2-D array costs more than the rest of the setup.)
    coa = np.empty((2, points.shape[0]), dtype=np.complex128)
    terms, sums = coa[0], coa[1]
    weighted, aggregate = terms.real, terms.imag
    strength = np.zeros(ck.groups)

    def force(inputs: Sequence[float]) -> tuple[float, bool]:
        strengths(inputs, strength)
        minimum(strength[layer_group], layer_curve, out=covered)
        maximum(top, bottom, out=aggregate)
        for layer in rest:
            maximum(aggregate, layer, out=aggregate)
        multiply(points, aggregate, out=weighted)
        accumulate(terms, out=sums)
        total = sums.item(-1)  # a Python complex: num + den * 1j
        den = total.imag
        if den == 0.0:
            return 0.0, False
        return (0.0 + total.real) / den, True

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
    several times slower, with the same IEEE results.  The plant's step is
    bound once per run, with the plant's constants, so a step passes it only
    the state and the net cart force.

    A run ends in one place.  The two bound tests after each step break
    the loop, and one row after it holds the state after the last step
    taken, so a termination and a completion write the same row.  A state
    or force that stops being finite ends the run as ``"non_finite"``, with
    only the finite rows before it kept; a step that raises counts as
    such a state, which fails the angle test.

    Rows are packed straight into the preallocated trajectory with
    ``struct``, which stores the same float64 bits as numpy's row
    assignment (-0.0, NaN and subnormals included) at a third of its cost.
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
    total = m_c + m
    slope_force = plant._slope_force
    slope = slope_force(tilt, g, total)
    integrate = plant._integrator(plant._dynamics_of(g, m_c, m, l, mu_c, mu_p), dt, rk4)
    traj = np.empty((n_steps + 1, 7))
    write_row = _ROW.pack_into
    row_size = _ROW.size
    termination = "completed"
    norule = 0
    f = 0.0
    k = -1  # no step taken yet; the loop takes none when n_steps is 0
    ev_i = 0
    n_ev = len(ev_step)
    for k in range(n_steps):
        while ev_i < n_ev and ev_step[ev_i] == k:
            if ev_kind[ev_i] == 0:
                theta_dot += ev_value[ev_i]
            else:
                tilt = ev_value[ev_i]
                slope = slope_force(tilt, g, total)
            ev_i += 1
        if k % control_every == 0:
            f, fired = law(theta, theta_dot, x, x_dot, x_target)
            if not fired:
                norule += 1
            if f > f_max:
                f = f_max
            elif f < -f_max:
                f = -f_max
        write_row(traj, row_size * k, k * dt, theta, theta_dot, x, x_dot, f, tilt)
        try:
            theta, theta_dot, x, x_dot = integrate(theta, theta_dot, x, x_dot, f - slope)
        except (ValueError, ZeroDivisionError):  # math.sin(inf); m * l underflow
            theta = theta_dot = x = x_dot = math.nan  # caught by the scan below
        # written with `not <=` so that a NaN angle or position stops the run
        if not abs(theta) <= theta_limit:
            termination = "pole_fell"
            break
        if not abs(x - x_target) <= track_bound:
            termination = "left_track"
            break
    k += 1  # row k holds the state after the last step taken
    write_row(traj, row_size * k, k * dt, theta, theta_dot, x, x_dot, f, tilt)
    traj = traj[: k + 1]
    finite = np.isfinite(traj)
    if not finite.all():
        # rows are finite up to the first overflow or NaN; keep those
        traj = traj[: int(np.argmin(finite.all(axis=1)))]
        termination = "non_finite"
    return traj, termination, norule


# ---------------------------------------------------------------------------
# Public entry points


def fuzzy_force(
    ck: CompiledKB, inputs: np.ndarray, backend: str | None = None
) -> tuple[float, bool]:
    """Single controller evaluation: crisp force and whether any rule fired."""
    check_backend(backend)
    return fuzzy_law(ck)(np.asarray(inputs, dtype=np.float64).tolist())


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

    force = fuzzy_law(ck)

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
