"""Property test of the jet law on canonical families: the part of V of
total degree 5 in (x, y, lam, mu) is exactly 192 jet4 + 192 (c - b) jet5,
and the six nodes of ``jet_nodes`` are the nodes of the jet model g_T.

The nodes and their directions carry cos and sin of multiples of 60 deg,
so the model is checked in Q[sqrt(3)]: sqrt(3) is a polynomial variable s
reduced by s^2 -> 3, as in the exact hexagonal test of test_vertexfn."""

import math
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from vertexset import (NVarPoly, ParamPoly, build_vertex_function,  # noqa: E402
                       jet_structure_check, make_canonical_family)
from vertexset.vertexfn import jet_nodes, vertex_jet4_model, vertex_jet5_model  # noqa: E402

quarters = st.integers(-8, 8).map(lambda n: Fraction(n, 4))
generic_abc = st.tuples(quarters, quarters, quarters).filter(
    lambda abc: abs(abc[1] - abc[2]) >= Fraction(1, 2))

ROOT3 = NVarPoly.variable(1, 0)
HALF = Fraction(1, 2)
# (cos, sin) of 60i deg in Q[sqrt(3)], i = 0..5
HEXAGON = [(1, 0), (HALF, HALF * ROOT3), (-HALF, HALF * ROOT3), (-1, 0),
           (-HALF, -HALF * ROOT3), (HALF, -HALF * ROOT3)]


def _reduce(p) -> NVarPoly:
    """p in Q[s] reduced by s^2 -> 3, to a + b s."""
    p = p * NVarPoly.constant(1, 1)
    out = {}
    for (m,), c in p.terms.items():
        out[(m % 2,)] = out.get((m % 2,), 0) + c * 3 ** (m // 2)
    return NVarPoly(1, out)


def _model(c4, c5, t, p):
    """g_T = c5 X (X^2 - 3 Y^2) + c4 (2 T_lam X Y + T_mu (Y^2 - X^2)) and
    its gradient at the point p."""
    (tl, tm), (x, y) = t, p
    g = c5 * x * (x * x - 3 * y * y) + c4 * (2 * tl * x * y + tm * (y * y - x * x))
    gx = 3 * c5 * (x * x - y * y) + 2 * c4 * (tl * y - tm * x)
    gy = -6 * c5 * x * y + 2 * c4 * (tl * x + tm * y)
    return g, gx, gy


@settings(max_examples=15)
@given(generic_abc)
def test_jet_law_and_its_nodes(abc):
    a, b, c = abc
    fam = make_canonical_family(a, b, c)
    js = jet_structure_check(fam)
    assert js.c4 == 192
    assert js.c5 == 192 * (c - b)
    assert js.defect4 == 0 and js.defect5 == 0
    # the whole part of V of total degree 5 in (x, y, lam, mu) is the model
    v = build_vertex_function(fam)
    total5 = ParamPoly(2, {k: c for k, c in v.terms.items() if sum(k) == 5})
    assert total5 == js.c4 * vertex_jet4_model() + js.c5 * ParamPoly.from_bivar(
        vertex_jet5_model(), 2)

    jets = jet_nodes(fam)
    assert (jets.c4, jets.c5) == (js.c4, js.c5)
    rho = Fraction(2 * js.c4, 3 * js.c5)
    assert tuple(jets.points[0]) == (0.0, float(rho))
    root3 = [math.sqrt(3.0)]
    for (cos, sin), u, p in zip(HEXAGON, jets.directions, jets.points):
        # the node of g_T at T = (cos, sin) is rho (sin, cos), exactly
        node = (rho * sin, rho * cos)
        assert all(_reduce(v).is_zero for v in _model(js.c4, js.c5, (cos, sin), node))
        # and the helper returns it, and T, to roundoff
        want_u = [float(_reduce(v).eval(root3)) for v in (cos, sin)]
        want_p = [float(_reduce(v).eval(root3)) for v in node]
        assert np.abs(u - want_u).max() <= 1e-15
        assert np.abs(p - want_p).max() <= 1e-15 * abs(rho)
