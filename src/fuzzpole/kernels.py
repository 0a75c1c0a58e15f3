"""Hot numeric kernels for closed-loop simulation.

A run is one generated Python frame.  The simulation loop is written once,
as the source template ``_LOOP`` with two slots, the control law and the
plant step; :func:`_loop` fills them on a run's first use of a law and an
integrator and caches the function, so the loop makes no Python call per
step.  The step slot is the Euler or RK4 body of ``plant._STEPS``, which
inline the equations of motion.  The law slot is ``sfc._LAW``, a call of a
law function (:func:`_simulate`), or the fuzzy law of a rule base.

The fuzzy law is generated source that names everything by index, so it
depends only on the rule base's structure and coverage depth, its shape.
:func:`_law` generates it once per shape, apart from any loop, as the slot
lines a loop inlines and as the slot entry (the same lines reading the
slots from a sequence), which a run or :func:`fuzzy_law` binds to the
rule base's numbers and buffers (:func:`_buffers`).  It computes each
label's degree by ``fuzzy._DEGREE`` and the rule strengths over a trie of
shared condition prefixes, then clips, folds and takes the center of area
over coverage layers; the docstrings of :func:`_law` and :func:`_buffers`
say why the force is :func:`fuzzpole.fuzzy.fc_output`'s bit for bit.
:func:`compile_kb` generates no code, so a :class:`CompiledKB` is plain
data and pickles.  Each step takes the force clamped once per control
instant by ``plant._CLAMP``, less the slope force, updated at each tilt
event, as :func:`fuzzpole.plant.advance` prepares it at every step, so a
step is ``advance``'s step bit for bit.

numpy is the only backend; ``ACTIVE_BACKEND`` and ``BACKENDS`` name it for
callers that record or select one.
"""

from __future__ import annotations

import functools
import itertools
import linecache
import math
import struct
import weakref
from dataclasses import dataclass
from textwrap import indent
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from . import plant, sfc
from .fuzzy import _DEGREE, KnowledgeBase, _curves

if TYPE_CHECKING:
    import numpy as np

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
# Each slot as an expression over the plant state the loop hands its law;
# control_inputs and the generated law's state prologue are written from it.
_STATE = "theta, theta_dot, x, x_dot, x_target"
_VIEW = ("theta * RAD2DEG", "theta_dot * RAD2DEG", "x - x_target", "x_dot")

ACTIVE_BACKEND = "numpy"
BACKENDS = (ACTIVE_BACKEND,)

# One trajectory row [t, theta, theta_dot, x, x_dot, F, tilt] as native
# float64s, the layout of a row of a C-contiguous (rows, 7) float64 array.
_ROW = struct.Struct("7d")
_compiles = itertools.count()  # gives each generated source a file name of its own


class KernelError(ValueError):
    pass


def check_backend(backend: str | None) -> None:
    """Accept ``None`` or the one backend there is; reject anything else."""
    if backend not in (None, ACTIVE_BACKEND):
        raise KernelError(f"unknown backend '{backend}'")


def _generated(lines: list[str], name: str, namespace: dict) -> Callable:
    """Compile ``lines`` in ``namespace``; return the function ``name``.
    ``linecache`` holds the source while the function lives, so a
    traceback through it shows its lines."""
    filename = f"<fuzzpole.kernels {name} {next(_compiles)}>"
    function = plant._run_source("\n".join(lines), filename, namespace)[name]
    weakref.finalize(function, linecache.cache.pop, filename, None)
    return function


control_inputs = _generated([
    f"def control_inputs({_STATE}):",
    '    """The state as the fuzzy law reads it, in ``DEFAULT_SLOTS`` order."""',
    f"    return ({', '.join(_VIEW)})",
], "control_inputs", {"RAD2DEG": RAD2DEG})


# ---------------------------------------------------------------------------
# Knowledge-base compilation to flat arrays


@dataclass(frozen=True)
class CompiledKB:
    """Compiled form of a knowledge base: what the fuzzy law reads at each
    control instant.

    Rules that conclude on the same output label form one group, and the
    law packs one strength per group into its ``strength`` buffer, the
    first of :func:`_buffers`.  Each group's
    conclusion curve is its label sampled on the output grid, stored as
    coverage layers: column j of ``layer_group`` lists, in group order, the
    groups whose curve is nonzero at grid point j, and the same column of
    ``layer_curve`` holds their values there, then 0.0 where fewer groups
    cover the point than there are layers.
    """

    shape: tuple  # (structure, depth): the key of the generated law and loop
    numbers: tuple  # the corners and widths the generated law reads
    reads: int  # input values the slot entry reads: one past the highest slot
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
def _law(shape):
    """The fuzzy law of one rule-base ``shape`` (``CompiledKB.shape``),
    generated on first use of the shape, apart from any loop.  Returns
    ``(setup, slot, namespace, force)``: the line that unpacks the tuple
    ``law`` (:func:`_buffers`); the law slot :func:`_loop` inlines, which
    computes the input slots from the state, the degrees and rule strengths
    into ``strength`` and the numpy part on it, the max unrolled to the
    coverage depth, to set the force ``f`` and ``fired``; the globals these
    lines read; and the slot entry ``force(law, inputs) -> (f, fired)``,
    compiled from the same lines with the slots read from ``inputs``.

    Label k's degree ``u{k}`` is ``fuzzy._DEGREE`` to its power, as ``fuzzy._pow_int``.
    The rules' condition rows, as written, form a trie: an edge is the
    ``<`` min of its degree and its parent's value (1.0 at the root), as in
    ``rule_activation``, so a NaN degree is skipped; a rule's last edge
    takes the ``>`` max into its group from 0.0; a +0.0 edge skips its
    subtree.  This is exact: degrees are +0.0, positive or NaN, so no
    strength is NaN or -0.0, the max gives the same bits in any order, and
    a rule below a +0.0 edge is +0.0, which changes no group.
    """
    import numpy as np

    (labels, rules, groups), depth = shape
    body: list[str] = []
    for k, (power, i) in enumerate(labels):
        body += _DEGREE.format(i=i, k=k).splitlines()
        if power > 1:
            body.append(f"u{k} = " + " * ".join([f"u{k}"] * power))
    body += [f"g{g} = 0.0" for g in range(groups)]
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

    walk(trie, "1.0", "")
    body.append("pack(" + ", ".join(["strength", "0"] + [f"g{g}" for g in range(groups)]) + ")")
    layers = [f"layer{r}" for r in range(max(depth, 2))]
    tail = [
        "minimum(strength[layer_group], layer_curve, out=covered)",
        *[f"maximum({'aggregate' if r > 1 else 'layer0'}, {layers[r]}, out=aggregate)"
          for r in range(1, len(layers))],
        "multiply(points, aggregate, out=weighted)",
        "accumulate(terms, out=sums)",
        "coa = sums.item(-1)",  # a Python complex: num + den * 1j
        "den = coa.imag",
        "if den == 0.0:",
        "    f, fired = 0.0, False",
        "else:",
        "    f, fired = (0.0 + coa.real) / den, True",
    ]
    setup = [", ".join([f"{n}{k}" for k in range(len(labels)) for n in "abwcdz"] + [
        "strength", "layer_group", "layer_curve", "covered", "points", "weighted", "aggregate",
        "terms", "sums", *layers]) + " = law"]
    namespace = {
        "pack": struct.Struct(f"{groups}d").pack_into, "RAD2DEG": RAD2DEG, "minimum": np.minimum,
        "maximum": np.maximum, "multiply": np.multiply, "accumulate": np.add.accumulate}
    slots = sorted({i for _, i in labels})
    read = [f"x{i} = inputs[{i}]" for i in slots]
    force = _generated(["def force(law, inputs):", *(
        f"    {line}" for line in setup + read + body + tail + ["return f, fired"])],
        "force", dict(namespace))
    return setup, [f"x{i} = {_VIEW[i]}" for i in slots] + body + tail, namespace, force


def compile_kb(kb: KnowledgeBase) -> CompiledKB:
    """Compile ``kb`` to the :class:`CompiledKB` the fuzzy law reads.

    The conclusion curves become coverage layers; the law's code is
    generated by :func:`_law`, on first use of the rule base's structure
    and coverage depth (its ``shape``), not here.  Raises KernelError for an
    input variable the harness does not drive.
    """
    import numpy as np

    check_input_slots(kb)
    structure, numbers, conclusions = _front_end(kb)
    points = kb.output_universe.points()
    curves = _curves([kb.output.label(label) for label in conclusions], points)
    # Sorting each column on "is zero" moves the covering groups to the
    # top, in group order (a stable sort); the rows below the largest
    # coverage hold only zeros and are dropped.
    zero = curves == 0.0
    depth = int((~zero).sum(axis=0).max(initial=0))
    layer_group = np.argsort(zero, axis=0, kind="stable")[:depth]
    return CompiledKB(
        shape=(structure, depth),
        numbers=tuple(numbers),
        reads=1 + max((i for _, i in structure[0]), default=-1),
        groups=len(conclusions),
        points=points,
        layer_group=layer_group,
        layer_curve=np.take_along_axis(curves, layer_group, axis=0),
    )


# ---------------------------------------------------------------------------
# Control laws and the simulation loop


def _buffers(ck: CompiledKB) -> tuple:
    """The tuple one fuzzy law of ``ck`` binds, in the order the setup line
    of :func:`_law` unpacks it: the rule base's numbers, then fresh buffers.

    A group's rules fold into one strength, exactly, as no strength is NaN:
    max_r min(a_r, c) == min(max_r a_r, c).  The clip fills the first
    ``depth`` rows of a buffer of ``max(depth, 2)`` rows whose other rows
    stay +0.0.  Every clipped value is +0.0 or positive (curves are sampled
    with +0.0 zeros), so +0.0, from a pad row or a curve left out at a grid
    point, changes no max: the fold max(max(r0, r1), r2) is fc_output's
    max(max(max(+0.0, r0), r1), r2) bit for bit.  A complex addition adds
    the real parts and the imaginary parts apart, one IEEE addition each,
    so each running sum of the accumulate is ``fuzzy.defuzzify_coa``'s.
    Its sums start at +0.0, hence the ``0.0 + num``: an all -0.0 sum is +0.0.
    """
    import numpy as np

    n = ck.points.shape[0]
    depth = len(ck.layer_curve)
    clipped = np.zeros((max(depth, 2), n))
    # Row 0 holds the center-of-area terms, row 1 their running sums:
    # accumulate, unlike sum, adds in order.
    coa = np.empty((2, n), dtype=np.complex128)
    terms, sums = coa[0], coa[1]
    weighted, aggregate = terms.real, terms.imag
    return ck.numbers + (np.zeros(ck.groups), ck.layer_group, ck.layer_curve, clipped[:depth],
                         ck.points, weighted, aggregate, terms, sums, *clipped)


def fuzzy_law(ck: CompiledKB) -> Callable[[Sequence[float]], tuple[float, bool]]:
    """The fuzzy law of ``ck`` over its own buffers, ``force(inputs) ->
    (force, fired)`` on Python floats in ``DEFAULT_SLOTS`` order: the slot
    entry :func:`_law` generates for ``ck.shape``, bound to :func:`_buffers`.
    One generated frame that builds no list or array and returns a Python
    float; a run's loop inlines the same lines, and none is generated here."""
    return functools.partial(_law(ck.shape)[3], _buffers(ck))


# The simulation loop, written once.  ``{setup}`` binds what the slots read
# once per run: the step's constants and the law's numbers.  ``{law}`` sets
# the force ``f`` and ``fired`` at each control instant, ``{clamp}`` is
# ``plant._CLAMP``, and ``{step}`` advances the state in place under the
# net force ``net``.  Every number in the loop is a Python float: a numpy
# scalar read from an argument would spread into the state and make each
# step's arithmetic several times slower, with the same IEEE results.  A run ends in one
# place.  The two bound tests after each step break the loop, and one row
# after it holds the state after the last step taken, so a termination and
# a completion write the same row.  A state or force that stops being
# finite ends the run as "non_finite", with only the finite rows before it
# kept; a step that raises counts as such a state, which fails the angle
# test.  A run that ends early copies its rows out of the preallocated
# buffer.  Rows are packed straight into the trajectory with ``struct``,
# which stores the same float64 bits as numpy's row assignment (-0.0, NaN
# and subnormals included) at a third of its cost.
_LOOP = """\
def simulate(state0, x_target, params, dt, n_steps, control_every,
             ev_step, ev_kind, ev_value, track_bound, theta_limit, law):
    theta, theta_dot, x, x_dot, tilt = map(float, state0)
    g, m_c, m, l, mu_c, mu_p, f_max = map(float, params)
    x_target, dt, track_bound, theta_limit = map(float, (x_target, dt, track_bound, theta_limit))
    ev_step, ev_kind, ev_value = ev_step.tolist(), ev_kind.tolist(), ev_value.tolist()
{setup}
    slope = slope_force(tilt, g, total)
    traj = empty((n_steps + 1, 7))
    write_row = ROW.pack_into
    row_size = ROW.size
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
{law}
            if not fired:
                norule += 1
{clamp}
        write_row(traj, row_size * k, k * dt, theta, theta_dot, x, x_dot, f, tilt)
        net = f - slope
        try:
{step}
        except (ValueError, ZeroDivisionError):  # math.sin(inf); m * l underflow
            theta = theta_dot = x = x_dot = nan  # caught by the scan below
        # written with `not <=` so that a NaN angle or position stops the run
        if not abs(theta) <= theta_limit:
            termination = "pole_fell"
            break
        if not abs(x - x_target) <= track_bound:
            termination = "left_track"
            break
    k += 1  # row k holds the state after the last step taken
    write_row(traj, row_size * k, k * dt, theta, theta_dot, x, x_dot, f, tilt)
    finite = isfinite(traj[: k + 1])
    if not finite.all():
        # rows are finite up to the first overflow or NaN; keep those
        k = int(finite.all(axis=1).argmin()) - 1
        termination = "non_finite"
    if k < n_steps:
        traj = traj[: k + 1].copy()
    return traj, termination, norule
"""


@functools.lru_cache(maxsize=64)
def _loop(law, rk4: bool) -> Callable:
    """The loop ``_LOOP`` for one law and integrator, generated on first
    use of them.  ``law`` is ``"call"`` (the argument ``law`` is a
    function), ``"sfc"`` (it is the gains) or a rule base's ``shape`` (it
    is :func:`_buffers`, and the slot is :func:`_law`'s).  The loop returns
    (trajectory rows [t, theta, theta_dot, x, x_dot, F, tilt], termination,
    count of control instants where the law did not fire); the termination
    is ``"completed"``, ``"pole_fell"``, ``"left_track"`` or
    ``"non_finite"``.
    """
    import numpy as np

    namespace = {"slope_force": plant._slope_force, "empty": np.empty, "isfinite": np.isfinite,
                 "nan": math.nan, "ROW": _ROW, **plant._STEP_GLOBALS}
    if law == "call":
        setup, slot = [], ["f, fired = law(theta, theta_dot, x, x_dot, x_target)"]
    elif law == "sfc":
        setup, slot = ["k0, k1, k2, k3 = law"], (sfc._LAW + "fired = True").splitlines()
    else:
        setup, slot, names, _ = _law(law)
        namespace.update(names)
    constants, step = plant._STEPS["rk4" if rk4 else "euler"]
    source = _LOOP.format(
        setup=indent(plant._CONSTANTS + constants + "\n".join(setup), " " * 4),
        law="\n".join(" " * 12 + line for line in slot),
        clamp=indent(plant._CLAMP, " " * 12).rstrip("\n"),
        step=indent(step, " " * 12).rstrip("\n"),
    )
    return _generated([source], "simulate", namespace)


def _simulate(
    state0, x_target, params, dt, n_steps, control_every, rk4,
    ev_step, ev_kind, ev_value, track_bound, theta_limit, law,
):
    """Closed loop under
    ``law(theta, theta_dot, x, x_dot, x_target) -> (force, fired)``: the
    loop :func:`_loop` generates with a law-call slot."""
    return _loop("call", rk4)(
        state0, x_target, params, dt, n_steps, control_every,
        ev_step, ev_kind, ev_value, track_bound, theta_limit, law,
    )


# ---------------------------------------------------------------------------
# Public entry points


def fuzzy_force(
    ck: CompiledKB, inputs: np.ndarray, backend: str | None = None
) -> tuple[float, bool]:
    """Crisp force, and whether any rule fired, on inputs in slot order."""
    import numpy as np

    check_backend(backend)
    values = np.asarray(inputs, dtype=np.float64)
    if values.ndim != 1 or values.shape[0] < ck.reads:
        raise KernelError(f"inputs must be one-dimensional with at least {ck.reads} values in "
                          f"DEFAULT_SLOTS order {dict(DEFAULT_SLOTS)}; got shape {values.shape}")
    return fuzzy_law(ck)(values.tolist())


def simulate_fuzzy(state0, x_target: float, params, dt: float, n_steps: int,
                   control_every: int, rk4: bool, ev_step: np.ndarray, ev_kind: np.ndarray,
                   ev_value: np.ndarray, track_bound: float, theta_limit: float,
                   ck: CompiledKB):
    """Closed-loop run under the fuzzy controller; returns what the
    :func:`_loop` of its rule base's shape returns.  ``state0`` is
    ``(theta, theta_dot, x, x_dot, tilt)``, ``params`` ``(g, m_c, m, l,
    mu_c, mu_p, f_max)``."""
    return _loop(ck.shape, rk4)(
        state0, x_target, params, dt, n_steps, control_every,
        ev_step, ev_kind, ev_value, track_bound, theta_limit, _buffers(ck),
    )


def simulate_sfc(state0, x_target: float, params, dt: float, n_steps: int,
                 control_every: int, rk4: bool, ev_step: np.ndarray, ev_kind: np.ndarray,
                 ev_value: np.ndarray, track_bound: float, theta_limit: float,
                 k_gains: np.ndarray):
    """Closed-loop run under the state-feedback controller, as
    :func:`simulate_fuzzy` under the gains ``k_gains``."""
    return _loop("sfc", rk4)(
        state0, x_target, params, dt, n_steps, control_every,
        ev_step, ev_kind, ev_value, track_bound, theta_limit, [float(v) for v in k_gains],
    )
