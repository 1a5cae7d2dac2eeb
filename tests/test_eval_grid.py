"""Property tests of the dense ``BivarPoly.eval_grid`` and ``eval_lattice``
kernels.

Both must agree with exact rational evaluation to within
1e-12 * sum |c| |x|^i |y|^j, the size of the terms they add up, for
int, Fraction and float coefficients; ``eval_grid`` for every broadcast
shape, ``eval_lattice`` for axes of any lengths, length 1 included.
"""

from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from vertexset.poly import BivarPoly  # noqa: E402

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

SETTINGS = settings(max_examples=200, deadline=None, database=None,
                    derandomize=True)


def exact_and_scale(p: BivarPoly, x: float, y: float):
    exact_p = BivarPoly({k: Fraction(c) for k, c in p.terms.items()})
    fx, fy = Fraction(x), Fraction(y)
    scale = sum(abs(Fraction(c)) * abs(fx) ** i * abs(fy) ** j
                for (i, j), c in p.terms.items())
    return exact_p.eval(fx, fy), scale


@SETTINGS
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


@pytest.mark.parametrize("sx, sy", [((), ()), ((5,), (5,)), ((3, 4), (3, 4)),
                                    ((3, 1), (1, 4))])
def test_zero_polynomial(sx, sy):
    Z = BivarPoly({}).eval_grid(np.full(sx, 0.7), np.full(sy, -0.3))
    assert Z.shape == np.broadcast_shapes(sx, sy)
    assert not Z.any()


axis_lengths = st.integers(1, 6)


@SETTINGS
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
