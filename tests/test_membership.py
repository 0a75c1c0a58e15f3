import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fuzzpole.fuzzy import (
    KBError,
    KnowledgeBase,
    LinguisticVariable,
    MembershipFunction,
    OutputUniverse,
    Precondition,
    Rule,
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
