"""Property tests of the dense ``eval_grid``, ``eval_lattice`` and
``PolyField.partials`` kernels.

Each must agree with exact rational evaluation to within
1e-12 * sum |c| |x|^i |y|^j, the size of the terms they add up, for
int, Fraction and float coefficients; ``eval_grid`` for every broadcast
shape, on surfaces (``BivarPoly``) and on families with one or two
parameters (``ParamPoly`` at (x, y, tau)), ``eval_lattice`` for axes of
any lengths, length 1 included, and ``partials``, the x, y derivatives of
order <= 2 of a surface and of family members fixed by
``ParamPoly.slices``, at orders 0, 1 and 2, with the parameter derivatives
of those members at order 1.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from vertexset.poly import BivarPoly, NVarPoly, ParamPoly, PolyField  # noqa: E402

MAX_DEGREE = 12

coefficients = st.one_of(
    st.integers(-1000, 1000),
    st.fractions(min_value=-100, max_value=100, max_denominator=1000),
    # no float small enough for its products to underflow
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
    .filter(lambda c: c == 0 or abs(c) >= 1e-6),
)
exponents = st.tuples(st.integers(0, MAX_DEGREE), st.integers(0, MAX_DEGREE)) \
    .filter(lambda e: e[0] + e[1] <= MAX_DEGREE)
polynomials = st.dictionaries(exponents, coefficients, max_size=14).map(BivarPoly)
sizes = st.integers(1, 4)
shape_pairs = st.one_of(
    st.just(((), ())),
    sizes.map(lambda n: ((n,), (n,))),
    st.tuples(sizes, sizes).map(lambda mn: (mn, mn)),
    st.tuples(sizes, sizes).map(lambda mn: ((mn[0], 1), (1, mn[1]))),
    sizes.map(lambda n: ((n,), ())),
    st.tuples(sizes, sizes).map(lambda mn: ((), mn)),
)


def exact_and_scale(p: BivarPoly, x: float, y: float):
    exact_p = BivarPoly({k: Fraction(c) for k, c in p.terms.items()})
    fx, fy = Fraction(x), Fraction(y)
    scale = sum(abs(Fraction(c)) * abs(fx) ** i * abs(fy) ** j
                for (i, j), c in p.terms.items())
    return exact_p.eval(fx, fy), scale


@settings(max_examples=200)
@given(polynomials, shape_pairs, st.integers(0, 2 ** 32 - 1))
def test_eval_grid_matches_exact(p, shapes, seed):
    rng = np.random.default_rng(seed)
    sx, sy = shapes
    X = rng.uniform(-1.5, 1.5, size=sx)
    Y = rng.uniform(-1.5, 1.5, size=sy)
    Z = p.eval_grid(X, Y)
    assert Z.shape == np.broadcast_shapes(X.shape, Y.shape)
    Xb, Yb = np.broadcast_arrays(X, Y)
    for idx in np.ndindex(Z.shape):
        exact, scale = exact_and_scale(p, float(Xb[idx]), float(Yb[idx]))
        assert abs(Fraction(float(Z[idx])) - exact) <= Fraction(1e-12) * scale


def param_polynomials(nparams: int):
    """Families with 1 or 2 parameters; every exponent at most
    MAX_DEGREE / (2 + nparams), so the total degree stays within MAX_DEGREE."""
    top = MAX_DEGREE // (2 + nparams)
    keys = st.tuples(*[st.integers(0, top)] * (2 + nparams))
    return st.dictionaries(keys, coefficients, max_size=14).map(
        lambda terms: ParamPoly(nparams, terms))


families = st.integers(1, 2).flatmap(param_polynomials)


@settings(max_examples=200)
@given(families, sizes, st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_param_eval_grid_matches_exact(p, n, scalar_tau, seed):
    rng = np.random.default_rng(seed)
    x, y = rng.uniform(-1.5, 1.5, size=(2, n))
    tau = rng.uniform(-1.5, 1.5, size=(p.nparams,) + (() if scalar_tau else (n,)))
    Z = p.eval_grid(x, y, *tau)
    assert Z.shape == (n,)
    exact_p = NVarPoly(p.nvars, {k: Fraction(c) for k, c in p.terms.items()})
    tau_rows = np.broadcast_to(tau.T, (n, p.nparams))
    for r in range(n):
        point = [Fraction(float(v)) for v in (x[r], y[r], *tau_rows[r])]
        scale = sum(abs(Fraction(c)) * math.prod(abs(v) ** e for v, e in zip(point, k))
                    for k, c in p.terms.items())
        assert abs(Fraction(float(Z[r])) - exact_p.eval(point)) <= Fraction(1e-12) * scale


@settings(max_examples=100)
@given(st.one_of(polynomials, families), sizes, sizes, st.integers(0, 2),
       st.integers(0, 2 ** 32 - 1))
def test_field_partials_match_exact(p, n_taus, n, order, seed):
    # a BivarPoly makes a field of one member; member m of p.slices(taus) is
    # p at taus[m], named by the third coordinate of each row; partials gives
    # the value, gradient and Hessian, every x, y derivative of order <= 2,
    # and at order 1 the partials in the parameters of a member after them
    rng = np.random.default_rng(seed)
    x, y = rng.uniform(-1.5, 1.5, size=(2, n))
    if isinstance(p, ParamPoly):
        taus = rng.uniform(-1.5, 1.5, size=(n_taus, p.nparams))
        members = rng.integers(0, n_taus, size=n)
        out = p.slices(taus).partials(np.column_stack([x, y, members]), order)
        params = taus[members]
    else:
        out = PolyField(p).partials(np.column_stack([x, y]), order)
        params = np.zeros((n, 0))
    columns = p.nvars if order == 1 else 2
    assert [a.shape for a in out] == [(n,), (n, columns), (n, 2, 2)][:order + 1]
    # each derivative is named by the variables it differentiates in
    got = {(): out[0]}
    if order >= 1:
        got.update(((v,), out[1][:, v]) for v in range(columns))
    if order == 2:
        got[0, 0], got[1, 1] = out[2][:, 0, 0], out[2][:, 1, 1]
        assert np.array_equal(out[2][:, 0, 1], out[2][:, 1, 0])
        got[0, 1] = out[2][:, 0, 1]
    exact_p = NVarPoly(p.nvars, {k: Fraction(c) for k, c in p.terms.items()})
    for variables, d in got.items():
        q = exact_p
        for index in variables:
            q = q.diff(index)
        for r in range(n):
            point = [Fraction(float(v)) for v in (x[r], y[r], *params[r])]
            scale = sum(abs(c) * math.prod(abs(v) ** e for v, e in zip(point, k))
                        for k, c in q.terms.items())
            assert abs(Fraction(float(d[r])) - q.eval(point)) <= Fraction(1e-12) * scale


@pytest.mark.parametrize("sx, sy", [((), ()), ((5,), (5,)), ((3, 4), (3, 4)),
                                    ((3, 1), (1, 4))])
def test_zero_polynomial(sx, sy):
    Z = BivarPoly({}).eval_grid(np.full(sx, 0.7), np.full(sy, -0.3))
    assert Z.shape == np.broadcast_shapes(sx, sy)
    assert not Z.any()


axis_lengths = st.integers(1, 6)


@settings(max_examples=200)
@given(polynomials, axis_lengths, axis_lengths, st.integers(0, 2 ** 32 - 1))
def test_eval_lattice_matches_exact(p, nx, ny, seed):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1.5, 1.5, size=nx)
    ys = rng.uniform(-1.5, 1.5, size=ny)
    Z = p.eval_lattice(xs, ys)
    assert Z.shape == (nx, ny)
    for i, j in np.ndindex(Z.shape):
        exact, scale = exact_and_scale(p, float(xs[i]), float(ys[j]))
        assert abs(Fraction(float(Z[i, j])) - exact) <= Fraction(1e-12) * scale


@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 4), (5, 1), (3, 7)])
def test_zero_polynomial_lattice(nx, ny):
    Z = BivarPoly({}).eval_lattice(np.full(nx, 0.7), np.full(ny, -0.3))
    assert Z.shape == (nx, ny)
    assert not Z.any()
