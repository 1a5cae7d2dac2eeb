"""Exact oracles for ``ParamPoly`` as a polynomial in 2 + n variables.

Substituting a rational parameter point must commute with every ring
operation and with the constructions built on them: the vertex function
and the curvature chain of a family, evaluated at tau, equal the same
constructions on the surface at tau, term for term.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from vertexset import (  # noqa: E402
    NVarPoly,
    ParamPoly,
    build_vertex_function,
    kappa_derivative_polys,
    make_canonical_family,
    vertex_poly,
)

quarter = st.integers(-8, 8).map(lambda n: Fraction(n, 4))
families = st.tuples(quarter, quarter, quarter).filter(lambda abc: abc[1] != abc[2])
rationals = st.fractions(min_value=-1, max_value=1, max_denominator=24)
taus = st.tuples(rationals, rationals)


@settings(max_examples=10)
@given(families, taus)
def test_vertex_function_commutes_with_substitution(abc, tau):
    fam = make_canonical_family(*abc)
    assert build_vertex_function(fam).substitute_params(tau) == vertex_poly(fam.f_at(tau))


@settings(max_examples=2)
@given(families, taus)
def test_kappa_chain_commutes_with_substitution(abc, tau):
    fam = make_canonical_family(*abc)
    chain = kappa_derivative_polys(fam.f, 3)
    at_tau = kappa_derivative_polys(fam.f_at(tau), 3)
    for (p, e), (q, eq) in zip(chain, at_tau):
        assert e == eq
        assert p.substitute_params(tau) == q


NPARAMS = 2
small_keys = st.tuples(*[st.integers(0, 3)] * (2 + NPARAMS))
small_polys = st.dictionaries(small_keys, rationals, max_size=5).map(
    lambda terms: ParamPoly(NPARAMS, terms))


@settings(max_examples=30)
@given(small_polys, small_polys, taus, rationals, rationals, st.integers(0, 3))
def test_ring_operations_commute_with_substitution(p, q, tau, x, y, n):
    def at(r):
        return r.substitute_params(tau).eval(x, y)

    assert at(p) == NVarPoly.eval(p, [x, y, *tau])
    assert at(p + q) == at(p) + at(q)
    assert at(p - q) == at(p) - at(q)
    assert at(p * q) == at(p) * at(q)
    assert at(p ** n) == at(p) ** n
    for var in ("x", "y"):
        assert at(p.diff(var)) == p.substitute_params(tau).diff(var).eval(x, y)
    for k in range(NPARAMS):
        for i, j in {key[:2] for key in p.terms}:
            assert NVarPoly.diff(p, 2 + k).coeff(i, j) == p.coeff(i, j).diff(k)
