import math
from fractions import Fraction

import numpy as np
import pytest

from vertexset import (
    BivarPoly,
    InputError,
    JetFitError,
    NearCriticalPointError,
    NVarPoly,
    ParamPoly,
    SurfaceFamily,
    build_vertex_function,
    calibrate_vertex_scale,
    curvature,
    hexagonal_symmetry_defect,
    jet_structure_check,
    kappa_derivative_polys,
    make_canonical_family,
    make_fixed_surface,
    oracle_residuals,
    vertex_poly,
)
from vertexset.vertexfn import (CAL_CONST, GRAD_POWER, jet_nodes, vertex_jet4_model,
                                vertex_jet5_model)

X = BivarPoly.variable("x")
Y = BivarPoly.variable("y")


# -- calibration: the two independent constructions agree exactly ----------


def test_frozen_calibration_constants():
    cal = calibrate_vertex_scale()
    assert cal.grad_power == GRAD_POWER == 3
    assert cal.constant == CAL_CONST == 1
    assert cal.defect == 0.0


def test_calibration_holds_off_normal_form():
    f = X * X + Y * Y + X ** 3 + Fraction(1, 2) * X * Y * Y - 2 * (Y ** 3) \
        + Fraction(1, 3) * X * X * Y
    cal = calibrate_vertex_scale(f)
    assert cal.grad_power == 3
    assert cal.constant == 1
    assert cal.defect == 0.0


def test_oracle_residuals_tiny():
    f = X * X + Y * Y + X ** 3
    rng = np.random.default_rng(41)
    r = rng.uniform(0.05, 0.5, size=200)
    t = rng.uniform(0, 2 * math.pi, size=200)
    pts = np.column_stack([r * np.cos(t), r * np.sin(t)])
    res = oracle_residuals(f, pts)
    assert res.shape == (200,)
    assert res.max() < 1e-8


def test_oracle_residuals_validates_shape():
    with pytest.raises(InputError):
        oracle_residuals(X * X + Y * Y, np.zeros(4))


# -- curvature of level curves ---------------------------------------------


def test_circle_curvature():
    f = X * X + Y * Y
    for r in (0.25, 1.0, 3.0):
        s = curvature(f, (r, 0.0))
        assert abs(s.kappa - 1.0 / r) < 1e-12
        assert abs(s.dkappa_ds) < 1e-12
        s2 = curvature(f, (r / math.sqrt(2), r / math.sqrt(2)))
        assert abs(s2.kappa - 1.0 / r) < 1e-12


def test_ellipse_axis_curvatures():
    f = Fraction(1, 4) * X * X + Y * Y
    assert abs(curvature(f, (2.0, 0.0)).kappa - 2.0) < 1e-12
    assert abs(curvature(f, (0.0, 1.0)).kappa - 0.25) < 1e-12
    assert abs(curvature(f, (2.0, 0.0)).dkappa_ds) < 1e-12


def test_near_critical_point_rejected():
    f = X * X + Y * Y
    with pytest.raises(NearCriticalPointError):
        curvature(f, (1e-12, 0.0))


def test_tangential_derivative_matches_finite_difference():
    f = X * X + Y * Y + X ** 3 - Fraction(1, 2) * Y ** 3
    fx = f.diff("x")
    fy = f.diff("y")
    rng = np.random.default_rng(43)
    h = 1e-5
    for _ in range(30):
        r = rng.uniform(0.1, 0.4)
        t = rng.uniform(0, 2 * math.pi)
        p = np.array([r * math.cos(t), r * math.sin(t)])
        g = np.array([float(fx.eval(*p)), float(fy.eval(*p))])
        tang = np.array([-g[1], g[0]]) / np.linalg.norm(g)
        ka = curvature(f, p + h * tang).kappa
        kb = curvature(f, p - h * tang).kappa
        fd = (ka - kb) / (2 * h)
        exact = curvature(f, p).dkappa_ds
        assert abs(fd - exact) < 1e-5 * max(1.0, abs(exact))


def test_derivative_chain_exponents():
    f = X * X + Y * Y + X ** 3
    chain = kappa_derivative_polys(f, 3)
    assert [e for _, e in chain] == [3, 6, 9, 12]
    with pytest.raises(InputError):
        kappa_derivative_polys(f, -1)


def test_second_derivative_sign_at_ellipse_vertices():
    # curvature is maximal at the major-axis vertex, minimal at the minor
    f = Fraction(1, 4) * X * X + Y * Y
    p2 = kappa_derivative_polys(f, 2)[2][0]
    assert float(p2.eval(2, 0)) < 0
    assert float(p2.eval(0, 1)) > 0


# -- the vertex function itself --------------------------------------------


def test_vertex_function_vanishes_exactly_at_ellipse_axes():
    f = Fraction(1, 4) * X * X + Y * Y
    v = vertex_poly(f)
    for p in [(2, 0), (-2, 0), (0, 1), (0, -1), (1, 0), (0, 3)]:
        assert v.eval(*p) == 0
    assert v.eval(1, Fraction(1, 2)) != 0


def test_vertex_function_zero_for_surfaces_of_revolution():
    r2 = X * X + Y * Y
    for g in (r2, r2 + r2 * r2, 3 * r2 - Fraction(1, 5) * r2 ** 3):
        assert vertex_poly(g).is_zero


def test_vertex_function_cached_on_family():
    s = make_canonical_family(1, 0, 2)
    assert build_vertex_function(s) is build_vertex_function(s)


# -- leading jets ------------------------------------------------------------


@pytest.mark.parametrize("abc", [(1, 0, 2), (1, 2, 0),
                                 (Fraction(1, 3), Fraction(-1, 2), Fraction(3, 4))])
def test_jet_structure_exact(abc):
    a, b, c = abc
    js = jet_structure_check(make_canonical_family(a, b, c))
    assert js.quartic_at_zero_size == 0.0
    assert js.c4 == 192
    assert js.defect4 == 0.0
    assert js.c5 == 192 * (Fraction(c) - Fraction(b))
    assert js.defect5 == 0.0


def test_jet_models_shape():
    m4 = vertex_jet4_model()
    assert m4.total_degree() == 4
    m5 = vertex_jet5_model()
    assert m5.coeff(5, 0) == 1
    assert m5.coeff(1, 4) == -3


def test_jet_nodes_off_normal_form():
    # cubic x^3 - y^3 reaches the normal form after a 15 deg rotation, which
    # also turns the deformation parameters; the nodes leave at 30 + 60k deg
    lam, mu = NVarPoly.variable(2, 0), NVarPoly.variable(2, 1)
    one = NVarPoly.constant(2, 1)
    fam = SurfaceFamily(ParamPoly(2, {(2, 0): one + lam, (0, 2): one - lam,
                                      (1, 1): mu * 2, (3, 0): one, (0, 3): -one}))
    jets = jet_nodes(fam)
    assert jets.c4 == pytest.approx(192.0, rel=1e-12)
    assert jets.c5 == pytest.approx(-271.52900397563434, rel=1e-12)
    deg = np.degrees(np.arctan2(jets.directions[:, 1], jets.directions[:, 0])) % 360.0
    assert sorted(deg) == pytest.approx([30.0, 90.0, 150.0, 210.0, 270.0, 330.0], abs=1e-9)
    # V and its gradient vanish at r points[i] over tau = r directions[i] to
    # leading order: they shrink by one power of r more than their scale
    vp = build_vertex_function(fam)
    for r in (1e-3, 1e-4):
        for u, p in zip(jets.directions, r * jets.points):
            v = vp.substitute_params(tuple(r * u))
            assert abs(v.eval(*p)) < 1e-2 * r ** 5
            assert math.hypot(v.diff("x").eval(*p), v.diff("y").eval(*p)) < 1e-1 * r ** 4
    assert fam.cache["jet_nodes"] is jets


def test_jet_nodes_reject_jets_that_do_not_fit():
    # x^2 + 2 y^2 is no umbilic
    f = make_canonical_family(1, 0, 2).f + ParamPoly(2, {(0, 2): 1})
    with pytest.raises(JetFitError, match="relative defect"):
        jet_nodes(SurfaceFamily(f))
    with pytest.raises(InputError):
        jet_nodes(make_fixed_surface(X * X + Y * Y + X ** 3))


def test_jet_structure_requires_two_parameters():
    with pytest.raises(InputError):
        jet_structure_check(make_fixed_surface(X * X + Y * Y + X ** 3))


def test_hexagonal_symmetry_float():
    for abc in [(1, 0, 2), (2, -1, 5)]:
        assert hexagonal_symmetry_defect(make_canonical_family(*abc)) < 1e-8


# -- exact hexagonal invariance over Q[sqrt(3)] ------------------------------
# Encode sqrt(3) as a fifth variable s with the reduction s^2 -> 3; the
# rotation by 2 pi / 3 has entries in {±1/2, ±s/2}, so invariance of the
# leading jets becomes an identity between rational polynomials.


def _reduce_root3(p: NVarPoly) -> NVarPoly:
    out = {}
    for key, c in p.terms.items():
        m = key[-1]
        red = key[:-1] + (m % 2,)
        c = c * 3 ** (m // 2)
        out[red] = out.get(red, 0) + c
    return NVarPoly(p.nvars, out)


def _param_jet_to_5var(pp) -> NVarPoly:
    return NVarPoly(5, {k + (0,): c for k, c in pp.terms.items()})


def test_hexagonal_symmetry_exact():
    s = make_canonical_family(Fraction(1, 2), -3, Fraction(7, 5))
    v = build_vertex_function(s)
    jet4 = _param_jet_to_5var(v.param_degree_part(1).homogeneous_part(4))
    x, y, lam, mu, rt = (NVarPoly.variable(5, i) for i in range(5))
    half = Fraction(1, 2)
    # plane rotation by 2 pi/3: cos = -1/2, sin = rt/2
    # parameter rotation by 4 pi/3: cos = -1/2, sin = -rt/2
    image = jet4.substitute({
        0: -half * x + half * rt * y,
        1: -half * rt * x - half * y,
        2: -half * lam - half * rt * mu,
        3: half * rt * lam - half * mu,
    })
    assert _reduce_root3(image) == jet4

    jet5 = v.at_zero().homogeneous_part(5)
    lifted5 = NVarPoly(5, {(i, j, 0, 0, 0): c for (i, j), c in jet5.terms.items()})
    image5 = lifted5.substitute({
        0: -half * x + half * rt * y,
        1: -half * rt * x - half * y,
    })
    assert _reduce_root3(image5) == lifted5


# -- float substitution: no Fraction arithmetic on a float-parameter surface --


@pytest.mark.parametrize("abc, chain_bit_identical", [
    ((1, 0, 2), True),
    ((Fraction(3, 4), Fraction(-5, 4), Fraction(1, 2)), False),
])
def test_float_substitution_matches_mixed_route(abc, chain_bit_identical):
    fam = make_canonical_family(*abc)
    tau = (0.05, 0.02)
    f = fam.f_at(tau)
    assert all(type(c) is float for c in f.terms.values())
    # the mixed route keeps the parameter-free coefficients exact
    mixed = BivarPoly({k[:2]: fam.f.coeff(*k[:2]).eval(tau) for k in fam.f.terms})
    assert not all(type(c) is float for c in mixed.terms.values())
    assert f == mixed
    assert vertex_poly(f) == vertex_poly(mixed)
    chain = kappa_derivative_polys(f, 4)
    chain_mixed = kappa_derivative_polys(mixed, 4)
    if chain_bit_identical:
        assert chain == chain_mixed
    # P_4 of a quarter-integer cubic has exact rational terms wider than a
    # double, which the mixed route rounds once and the float route per step
    for (p, e), (q, eq) in zip(chain, chain_mixed):
        assert e == eq
        assert set(p.terms) == set(q.terms)
        for key, c in q.terms.items():
            assert abs(p.terms[key] - float(c)) <= 1e-15 * abs(float(c))
