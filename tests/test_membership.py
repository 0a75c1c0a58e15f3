import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fuzzpole.fuzzy import (
    KBError,
    KnowledgeBase,
    LinguisticVariable,
    MembershipFunction,
    OutputUniverse,
    Precondition,
    Rule,
    SHAPES,
    _curves,
    fc_output,
    shoulder_down,
    shoulder_up,
    triangle,
)
from fuzzpole.hierarchy import Concentration, derive_very
from fuzzpole.kernels import compile_kb, fuzzy_force

ZE = triangle(-6.25, 0.0, 6.25)


def test_triangle_apex_is_one():
    assert ZE(0.0) == 1.0


def test_paper_anchor_point():
    # 5 degrees reads as Positive to 0.8 and Zero to 0.2 with the default scales
    po = shoulder_up(0.0, 6.25)
    assert po(5.0) == pytest.approx(0.8)
    assert ZE(5.0) == pytest.approx(0.2)


def test_support_edge_is_zero():
    assert ZE(6.25) == 0.0
    assert ZE(-6.25) == 0.0


def test_shoulders():
    up = shoulder_up(0.0, 6.25)
    assert up(-1.0) == 0.0
    assert up(0.0) == 0.0
    assert up(6.25) == 1.0
    assert up(100.0) == 1.0
    down = shoulder_down(-6.25, 0.0)
    assert down(-100.0) == 1.0
    assert down(-6.25) == 1.0
    assert down(0.0) == 0.0
    assert down(3.0) == 0.0


def test_concentrate_squares_pointwise():
    conc = derive_very(ZE, Concentration())
    assert conc(0.0) == 1.0  # fixed point of squaring
    v = 6.25 / 2  # membership exactly 0.5
    assert ZE(v) == 0.5
    assert conc(v) == 0.25
    assert conc(10.0) == 0.0
    # double concentration keeps composing
    assert derive_very(conc, Concentration())(v) == 0.0625


@pytest.mark.parametrize(
    "bad",
    [
        lambda: triangle(1.0, 0.0, 2.0),
        lambda: triangle(0.0, 0.0, 2.0),
        lambda: shoulder_up(2.0, 2.0),
        lambda: shoulder_down(5.0, 1.0),
        lambda: triangle(0.0, math.nan, 2.0),
        lambda: MembershipFunction("hexagon", (0.0, 1.0)),
        lambda: MembershipFunction("triangle", (0.0, 1.0, 2.0), 2.0),
        lambda: MembershipFunction("triangle", (0.0, 1.0, 2.0), True),
        # every parameter is finite, but the rising ramp's width is not
        lambda: triangle(-1.7e308, 1e308, 1.7e308),
        lambda: shoulder_up(-1e308, 1e308),
    ],
)
def test_malformed_shapes_rejected(bad):
    with pytest.raises(KBError):
        bad()


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_degree_always_in_unit_interval(v):
    for mf in (
        ZE, shoulder_up(0.0, 6.25), shoulder_down(-6.25, 0.0),
        derive_very(ZE, Concentration()),
    ):
        d = mf(v)
        assert 0.0 <= d <= 1.0


@given(st.floats(min_value=-50, max_value=50, allow_nan=False))
def test_concentration_never_exceeds_base(v):
    conc = derive_very(ZE, Concentration())
    assert conc(v) <= ZE(v)
    assert conc(v) == pytest.approx(ZE(v) ** 2)


def test_sample_matches_scalar_eval():
    xs = np.linspace(-8.0, 8.0, 1001)
    for mf in (
        ZE, shoulder_up(0.0, 6.25), shoulder_down(-6.25, 0.0),
        derive_very(ZE, Concentration()),
    ):
        sampled = mf.sample(xs)
        scalar = np.array([mf(v) for v in xs])
        assert np.array_equal(sampled, scalar)


def test_support_at_level_set():
    lo, hi = ZE.support_at(1e-6)
    assert lo == pytest.approx(-6.25 + 1e-6 * 6.25)
    assert hi == pytest.approx(6.25 - 1e-6 * 6.25)
    # squaring shrinks the epsilon-support even though the exact support is unchanged
    c_lo, c_hi = derive_very(ZE, Concentration()).support_at(1e-6)
    assert lo < c_lo < c_hi < hi
    # a shoulder's support is open on its flat side
    up = shoulder_up(0.0, 6.25)
    assert up.support_at(0.5) == (3.125, math.inf)
    down = shoulder_down(-6.25, 0.0)
    assert down.support_at(0.5) == (-math.inf, -3.125)
    # squared, the 0.25 level is the base curve's 0.5 level
    assert derive_very(up, Concentration()).support_at(0.25) == (3.125, math.inf)


def test_corners_are_derived_and_not_compared():
    """Each shape is one trapezoid (a, b, c, d); the corners follow kind and
    params and stay out of equality, hashing and repr."""
    tri = triangle(-1.0, 0.0, 2.0)
    assert tri.corners == (-1.0, 0.0, 0.0, 2.0)
    assert shoulder_up(0.0, 1.0).corners == (0.0, 1.0, math.inf, math.inf)
    assert shoulder_down(0.0, 1.0).corners == (-math.inf, -math.inf, 0.0, 1.0)
    assert repr(tri) == "MembershipFunction(kind='triangle', params=(-1.0, 0.0, 2.0), power=1)"
    assert hash(tri) == hash(MembershipFunction("triangle", (-1.0, 0.0, 2.0)))
    assert replace(tri, params=(0.0, 1.0, 2.0)).corners == (0.0, 1.0, 1.0, 2.0)


# Shapes with a breakpoint at 0, where -0.0 is an input, and their degrees
# at 0.0, -0.0, inf, -inf and NaN; "rising" and "falling" end at 0
_EDGE_SHAPES = [
    (triangle(-6.25, 0.0, 6.25), ["1.0", "1.0", "0.0", "0.0", "nan"]),
    (triangle(0.0, 0.5, 1.0), ["0.0", "0.0", "0.0", "0.0", "nan"]),
    (triangle(-1.0, -0.5, 0.0), ["0.0", "0.0", "0.0", "0.0", "nan"]),
    (shoulder_up(0.0, 6.25), ["0.0", "0.0", "1.0", "0.0", "nan"]),
    (shoulder_down(-6.25, 0.0), ["0.0", "0.0", "0.0", "1.0", "nan"]),
]


def _edge_inputs(mf):
    xs = [0.0, -0.0, math.inf, -math.inf, math.nan]
    for p in mf.params:
        xs += [p, p - 1e-12, p + 1e-12, math.nextafter(p, -math.inf), math.nextafter(p, math.inf)]
    return xs


def _probe_kb(mf):
    """theta carries ``mf``; a second rule always fires, so the force is
    mu / (1 + mu), strictly increasing in the degree mu of ``mf``."""
    variables = {
        "theta": LinguisticVariable("theta", "deg", {"L": mf}),
        "x": LinguisticVariable("x", "m", {"Z": triangle(-1.0, 0.0, 1.0)}),
        "F": LinguisticVariable("F", "N", {"Z": triangle(-1.0, 0.0, 1.0),
                                           "P": shoulder_up(0.0, 1.0)}),
    }
    rules = (
        Rule("probe", (Precondition("theta", "L"),), ("F", "P")),
        Rule("always", (Precondition("x", "Z"),), ("F", "Z")),
    )
    return KnowledgeBase(variables, "F", rules, OutputUniverse(-1.0, 1.0, 3))


@pytest.mark.parametrize("power", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "shape, at_specials", _EDGE_SHAPES, ids=["ZE", "rising", "falling", "PO", "NE"]
)
def test_membership_paths_agree_bit_for_bit(shape, at_specials, power):
    """__call__, sample and the compiled kernel give the same bits at the
    breakpoints, next to them, at +-0 and +-inf and for NaN, compared as
    repr so that the sign of a zero counts.  A zero degree is +0.0."""
    mf = replace(shape, power=power)
    xs = _edge_inputs(mf)
    scalar = [repr(mf(v)) for v in xs]
    assert scalar[:5] == at_specials
    assert "-0.0" not in scalar
    assert [repr(d) for d in mf.sample(np.array(xs)).tolist()] == scalar
    kb = _probe_kb(mf)
    ck = compile_kb(kb)
    for v in xs:
        force, fired = fuzzy_force(ck, np.array([v, 0.0, 0.0, 0.0]))
        assert fired and repr(force) == repr(float(fc_output(kb, {"theta": v, "x": 0.0})))


@pytest.mark.parametrize(
    "params",
    [("0", "1", "2"), (None, 1.0, 2.0), (False, 1.0, 2.0), (0, 1, 10**400)],
    ids=["strings", "none", "bool", "int-past-float"],
)
def test_a_parameter_that_is_not_a_real_number_is_a_kb_error(params):
    with pytest.raises(KBError, match="membership parameter (left|right) must be"):
        MembershipFunction("triangle", params)


def test_parameters_are_stored_as_floats_with_zeros_as_plus_zero():
    """A rule base written with int, numpy and -0.0 parameters compiles to
    the numbers of the same rule base written in floats, all of them Python
    floats, and its law gives the same forces."""
    from fuzzpole.rulelang import builtin_pole_kb

    kb = builtin_pole_kb()
    kinds = set()

    def cast(v):
        kind = "zero" if v == 0.0 else "int" if v == int(v) else "numpy"
        kinds.add(kind)
        return {"zero": -0.0, "int": int(v), "numpy": np.float64(v)}[kind]

    variables = {
        name: LinguisticVariable(var.name, var.unit, {
            label: MembershipFunction(mf.kind, tuple(map(cast, mf.params)), mf.power)
            for label, mf in var.labels.items()
        })
        for name, var in kb.variables.items()
    }
    mixed = replace(kb, variables=variables)
    assert kinds == {"zero", "int", "numpy"}
    floats, others = compile_kb(kb), compile_kb(mixed)
    assert all(type(v) is float for v in others.numbers)
    assert repr(others.numbers) == repr(floats.numbers)
    for values in ([0.0, 0.0, 0.0, 0.0], [3.0, -10.0, 0.4, 0.2], [-0.5, 20.0, -1.0, 0.0]):
        inputs = np.array(values)
        assert repr(fuzzy_force(others, inputs)) == repr(fuzzy_force(floats, inputs))


def _per_label_sample(mf, xs):
    """What ``MembershipFunction.sample`` computed before the curves of a
    rule base were sampled in one array evaluation: one label's degree by
    nested ``np.where``, then its power by repeated multiplication."""
    xs = np.asarray(xs, dtype=np.float64)
    a, b, c, d = mf.corners
    with np.errstate(invalid="ignore"):
        up = (xs - a) / (b - a)
        down = (d - xs) / (d - c)
    base = np.where(
        xs < b,
        np.where(xs <= a, 0.0, up),
        np.where(xs <= c, 1.0, np.where(xs >= d, 0.0, down)),
    )
    result = base
    for _ in range(mf.power - 1):
        result = result * base
    return result


@st.composite
def _labels(draw):
    """1-5 labels of any shape and power 1-6, with parameters in order."""
    mfs = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(SHAPES))
        count = 3 if kind == "triangle" else 2
        params = draw(st.lists(st.floats(-1e6, 1e6), min_size=count, max_size=count,
                               unique=True).map(sorted))
        mfs.append(MembershipFunction(kind, tuple(params), draw(st.integers(1, 6))))
    return mfs


_EVERY_SHAPE_AND_POWER = [
    MembershipFunction(kind, (-2.0, 0.0, 1.5)[:3 if kind == "triangle" else 2], power)
    for kind in SHAPES for power in range(1, 7)
]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # a branch not taken
@settings(max_examples=150, deadline=None)
@given(_labels(), st.lists(st.floats(), max_size=20))
@example(_EVERY_SHAPE_AND_POWER, [0.5, 1.0, -1.0, 0.75, 1e-300])
def test_curves_keep_the_bits_of_the_scalar_and_per_label_forms(mfs, drawn):
    """``fuzzy._curves`` gives each label's row the bits of ``__call__`` at
    each point and of the per-label form, compared as repr so that the sign
    of a zero counts: at every corner and its neighbours, +-0.0, +-inf, NaN
    and drawn points.  ``sample`` is its one-label case."""
    xs = [0.0, -0.0, math.inf, -math.inf, math.nan, *drawn]
    for mf in mfs:
        for corner in mf.corners:
            xs += [corner, math.nextafter(corner, -math.inf), math.nextafter(corner, math.inf)]
    curves = _curves(mfs, np.array(xs))
    assert curves.shape == (len(mfs), len(xs))
    for mf, row in zip(mfs, curves.tolist()):
        got = [repr(v) for v in row]
        assert got == [repr(mf(x)) for x in xs]
        assert got == [repr(v) for v in _per_label_sample(mf, xs).tolist()]
        assert [repr(v) for v in mf.sample(xs).tolist()] == got
