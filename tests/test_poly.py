import math
from fractions import Fraction

import numpy as np
import pytest

from vertexset import (BivarPoly, InputError, NVarPoly, ParamPoly,
                       build_vertex_function, make_canonical_family)
from vertexset.poly import fit_scalar_ratio, max_coeff_diff


def random_bivar(rng, nterms=6, maxdeg=5, exact=True):
    terms = {}
    for _ in range(nterms):
        i = int(rng.integers(0, maxdeg + 1))
        j = int(rng.integers(0, maxdeg + 1 - i))
        if exact:
            c = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
        else:
            c = float(rng.normal())
        terms[(i, j)] = terms.get((i, j), 0) + c
    return BivarPoly(terms)


def test_zero_coefficients_never_stored():
    p = BivarPoly({(2, 0): 1, (0, 1): 0})
    assert (0, 1) not in p.terms
    q = p - p
    assert q.is_zero and q.terms == {}
    assert q.total_degree() == -1


def test_arithmetic_matches_eval():
    rng = np.random.default_rng(7)
    for _ in range(25):
        p = random_bivar(rng)
        q = random_bivar(rng)
        x = Fraction(int(rng.integers(-5, 6)), 3)
        y = Fraction(int(rng.integers(-5, 6)), 4)
        assert (p + q).eval(x, y) == p.eval(x, y) + q.eval(x, y)
        assert (p - q).eval(x, y) == p.eval(x, y) - q.eval(x, y)
        assert (p * q).eval(x, y) == p.eval(x, y) * q.eval(x, y)
        assert (p ** 3).eval(x, y) == p.eval(x, y) ** 3


def test_float_eval_close():
    rng = np.random.default_rng(11)
    p = random_bivar(rng, nterms=10)
    q = random_bivar(rng, nterms=10)
    pts = rng.uniform(-2, 2, size=(100, 2))
    for x, y in pts:
        lhs = (p * q).eval(float(x), float(y))
        rhs = p.eval(float(x), float(y)) * q.eval(float(x), float(y))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_product_rule_exact():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = random_bivar(rng)
        q = random_bivar(rng)
        for v in ("x", "y"):
            assert (p * q).diff(v) == p.diff(v) * q + p * q.diff(v)


def test_mixed_partials_commute():
    rng = np.random.default_rng(5)
    p = random_bivar(rng, nterms=12, maxdeg=7)
    assert p.diff("x").diff("y") == p.diff("y").diff("x")


def test_homogeneous_parts_sum():
    rng = np.random.default_rng(13)
    p = random_bivar(rng, nterms=12)
    total = BivarPoly.constant(0)
    for d in range(p.total_degree() + 1):
        total = total + p.homogeneous_part(d)
    assert total == p
    with pytest.raises(InputError):
        p.homogeneous_part(-1)


def test_rotation_convention():
    # rotate by +pi/2 sends the x coordinate function to y
    x = BivarPoly.variable("x")
    assert x.rotate(cos_sin=(0, 1)) == BivarPoly.variable("y")


def test_rotation_exact_rational_pair():
    rng = np.random.default_rng(17)
    p = random_bivar(rng)
    c, s = Fraction(3, 5), Fraction(4, 5)
    q = p.rotate(cos_sin=(c, s)).rotate(cos_sin=(c, -s))
    assert q == p
    assert q.is_exact()


def test_rotation_float_roundtrip():
    rng = np.random.default_rng(19)
    p = random_bivar(rng, exact=False)
    t = 0.7342
    q = p.rotate(t).rotate(-t)
    assert max_coeff_diff(p, q) < 1e-12


def test_rotation_preserves_values():
    rng = np.random.default_rng(23)
    p = random_bivar(rng)
    t = 1.1
    c, s = math.cos(t), math.sin(t)
    for x, y in rng.uniform(-1, 1, size=(20, 2)):
        xr = x * c + y * s
        yr = -x * s + y * c
        assert abs(p.rotate(t).eval(x, y) - p.eval(xr, yr)) < 1e-12


def test_eval_grid_matches_pointwise():
    rng = np.random.default_rng(29)
    p = random_bivar(rng, nterms=9)
    X, Y = np.meshgrid(np.linspace(-1, 1, 7), np.linspace(-1, 1, 5), indexing="ij")
    Z = p.eval_grid(X, Y)
    assert Z.shape == X.shape
    for i in range(X.shape[0]):
        for j in range(X.shape[1]):
            assert abs(Z[i, j] - float(p.eval(X[i, j], Y[i, j]))) < 1e-12


def test_nvar_product_rule_and_substitute():
    rng = np.random.default_rng(31)
    a = NVarPoly(3, {(1, 0, 2): Fraction(2, 3), (0, 1, 0): -1, (2, 2, 0): 5})
    b = NVarPoly(3, {(0, 0, 1): 7, (1, 1, 1): Fraction(-1, 2)})
    for i in range(3):
        assert (a * b).diff(i) == a.diff(i) * b + a * b.diff(i)
    # substituting p2 -> p0 + p1 commutes with evaluation
    sub = a.substitute({2: NVarPoly.variable(3, 0) + NVarPoly.variable(3, 1)})
    for _ in range(10):
        v = [Fraction(int(rng.integers(-4, 5)), 2) for _ in range(3)]
        assert sub.eval(v) == a.eval([v[0], v[1], v[0] + v[1]])


def test_nvar_eval_length_checked():
    a = NVarPoly(2, {(1, 1): 1})
    with pytest.raises(InputError):
        a.eval([1, 2, 3])


def test_param_poly_round_trip():
    x = ParamPoly.variable(2, "x")
    y = ParamPoly.variable(2, "y")
    lam = ParamPoly.parameter(2, 0)
    mu = ParamPoly.parameter(2, 1)
    f = x * x + y * y + lam * (x * x - y * y) + 2 * mu * x * y
    g = f.substitute_params([Fraction(1, 4), Fraction(-1, 8)])
    assert g.coeff(2, 0) == Fraction(5, 4)
    assert g.coeff(0, 2) == Fraction(3, 4)
    assert g.coeff(1, 1) == Fraction(-1, 4)
    assert f.at_zero() == BivarPoly({(2, 0): 1, (0, 2): 1})
    with pytest.raises(InputError):
        f.substitute_params([1])


def test_float_substitution_ignores_term_order():
    # V built with its terms in another order substitutes to the same bits
    v = build_vertex_function(make_canonical_family(1, 0, 2))
    items = list(v.terms.items())
    order = np.random.default_rng(0).permutation(len(items))
    shuffled = ParamPoly._raw(v.nvars, dict(items[i] for i in order))
    assert shuffled == v
    a = v.substitute_params((0.05, 0.02))
    b = shuffled.substitute_params((0.05, 0.02))
    assert a.terms.keys() == b.terms.keys()
    assert all(a.terms[k] == b.terms[k] for k in a.terms)


def test_param_degree_parts_sum():
    x = ParamPoly.variable(2, "x")
    lam = ParamPoly.parameter(2, 0)
    mu = ParamPoly.parameter(2, 1)
    f = (1 + lam + lam * mu) * x ** 3 + mu * x
    total = ParamPoly.constant(2, 0)
    for d in range(3):
        total = total + f.param_degree_part(d)
    assert max_coeff_diff(total, f) == 0.0


def test_param_poly_diff_interleaves():
    x = ParamPoly.variable(2, "x")
    y = ParamPoly.variable(2, "y")
    lam = ParamPoly.parameter(2, 0)
    f = lam * x ** 2 * y
    assert f.diff("x").substitute_params([3, 0]) == BivarPoly({(1, 1): 6})
    assert f.substitute_params([3, 0]).diff("x") == BivarPoly({(1, 1): 6})


def test_fit_scalar_ratio_exact():
    x = BivarPoly.variable("x")
    y = BivarPoly.variable("y")
    model = x * y * (x + y)
    ratio, defect = fit_scalar_ratio(192 * model, model)
    assert ratio == 192
    assert defect == 0.0
    ratio, defect = fit_scalar_ratio(Fraction(3, 2) * model, model)
    assert ratio == Fraction(3, 2)
    assert defect == 0.0


def test_fit_scalar_ratio_reports_defect():
    x = BivarPoly.variable("x")
    y = BivarPoly.variable("y")
    model = x * x + y
    bent = 2 * model + BivarPoly({(1, 0): 1e-6})
    _, defect = fit_scalar_ratio(bent, model)
    assert 1e-7 < defect < 1e-5


def test_negative_power_rejected():
    x = BivarPoly.variable("x")
    with pytest.raises(InputError):
        x ** -1


def test_diff_is_cached_and_unchanged():
    # the family's V: each derivative is built once and then returned as is
    vp = build_vertex_function(make_canonical_family(1, 0, 2))
    fresh = ParamPoly(2, dict(vp.terms))
    for var in ("x", "y"):
        assert vp.diff(var) is vp.diff(var)
        assert vp.diff(var).terms == fresh.diff(var).terms
    for k in range(2):
        assert NVarPoly.diff(vp, 2 + k) is NVarPoly.diff(vp, 2 + k)
        assert NVarPoly.diff(vp, 2 + k).terms == NVarPoly.diff(fresh, 2 + k).terms
    assert vp.diff("x").diff("y").terms == vp.diff("y").diff("x").terms
