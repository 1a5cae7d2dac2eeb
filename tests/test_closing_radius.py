"""Property test of ``LevelAnalyzer._closing_radius``: the radius it picks
from the sign of f - k on the boundary circle equals the radius picked by
tracing the level curve, growing the disc by 1.8 while the traced curve
hits the boundary, up to the window."""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from vertexset.poly import PolyField  # noqa: E402
from vertexset.surface import make_canonical_family  # noqa: E402
from vertexset.tracer import trace_zero_set  # noqa: E402
from vertexset.vertices import LevelAnalyzer  # noqa: E402

WINDOW = 0.6

quarters = st.integers(-8, 8).map(lambda n: Fraction(n, 4))
generic_abc = st.tuples(quarters, quarters, quarters).filter(
    lambda abc: abs(abc[1] - abc[2]) >= Fraction(1, 2))
# polar angle at least 5 deg from every multiple of 60 deg
off_axis_tau = st.tuples(st.floats(1e-3, 0.06), st.integers(0, 5),
                         st.floats(5.0, 55.0)).map(
    lambda t: (t[0] * math.cos(math.radians(60 * t[1] + t[2])),
               t[0] * math.sin(math.radians(60 * t[1] + t[2]))))
levels = st.floats(math.log(2e-4), math.log(2e-2)).map(math.exp)


def traced_radius(la: LevelAnalyzer, k: float, resolution: int) -> float:
    """Trace f = k at r0 * 1.8^j until no traced curve hits the boundary,
    no curve is found, or the window is reached."""
    e_min = la.quad_eigs[0]
    r = min(WINDOW, 1.35 * math.sqrt(k / e_min)) if e_min > 0 else WINDOW
    level = PolyField(la.f - k)
    while True:
        curves = trace_zero_set(level, r, resolution).curves
        if r >= WINDOW or not any(c.boundary_hits for c in curves):
            return r
        r = min(WINDOW, 1.8 * r)


@settings(max_examples=100)
@given(generic_abc, off_axis_tau, levels, st.sampled_from([256, 384, 512]))
# about one draw in 1500 grows the disc; these two do, once and to the window
@example((Fraction(-2), Fraction(7, 4), Fraction(-1, 4)), (-0.0123, 0.0381), 0.0177, 512)
@example((Fraction(2), Fraction(-2), Fraction(0)), (-0.013, 0.0414), 0.0175, 384)
def test_closing_radius_matches_traced_rule(abc, tau, k, resolution):
    la = LevelAnalyzer(make_canonical_family(*abc).f_at(tau))
    assert la._closing_radius(k, resolution, WINDOW) == traced_radius(la, k, resolution)
