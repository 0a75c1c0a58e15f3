import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fuzzpole.fuzzy import (
    KBError,
    eval_membership,
    shoulder_down,
    shoulder_up,
    triangle,
)
from fuzzpole.hierarchy import Concentration, derive_very

ZE = triangle(-6.25, 0.0, 6.25)


def test_triangle_apex_is_one():
    assert eval_membership(ZE, 0.0) == 1.0


def test_paper_anchor_point():
    # 5 degrees reads as Positive to 0.8 and Zero to 0.2 with the default scales
    po = shoulder_up(0.0, 6.25)
    assert eval_membership(po, 5.0) == pytest.approx(0.8)
    assert eval_membership(ZE, 5.0) == pytest.approx(0.2)


def test_support_edge_is_zero():
    assert eval_membership(ZE, 6.25) == 0.0
    assert eval_membership(ZE, -6.25) == 0.0


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
        d = eval_membership(mf, v)
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


def test_mirrored_reflects_about_zero():
    po = shoulder_up(1.0, 4.0)
    ne = po.mirrored()
    for v in (-5.0, -4.0, -2.5, -1.0, 0.0, 3.0):
        assert ne(v) == po(-v)
    tri = triangle(-1.0, 2.0, 7.0)
    for v in (-7.5, -2.0, 1.0, 2.0):
        assert tri.mirrored()(v) == tri(-v)


def test_support_at_level_set():
    lo, hi = ZE.support_at(1e-6)
    assert lo == pytest.approx(-6.25 + 1e-6 * 6.25)
    assert hi == pytest.approx(6.25 - 1e-6 * 6.25)
    # squaring shrinks the epsilon-support even though the exact support is unchanged
    c_lo, c_hi = derive_very(ZE, Concentration()).support_at(1e-6)
    assert lo < c_lo < c_hi < hi
