import math
from fractions import Fraction

import pytest

from vertexset import (
    BivarPoly,
    GenericityError,
    InputError,
    ParamPoly,
    SurfaceFamily,
    deformation_projection,
    deformation_rank,
    genericity_check,
    make_canonical_family,
    make_fixed_surface,
    normal_form_rotation,
    umbilic_check,
)
from vertexset.poly import NVarPoly

X = BivarPoly.variable("x")
Y = BivarPoly.variable("y")


def test_rejects_constant_and_linear_terms():
    with pytest.raises(InputError):
        make_fixed_surface(X * X + Y * Y + X)
    with pytest.raises(InputError):
        make_fixed_surface(X * X + 1)


def test_umbilic_check_exact():
    s = make_canonical_family(1, 0, 2)
    chk = umbilic_check(s)
    assert chk.is_umbilic
    assert chk.defect == 0.0
    assert chk.factor == 1.0


def test_umbilic_check_rejects_anisotropic():
    s = make_fixed_surface(X * X + 2 * (Y * Y) + X ** 3)
    chk = umbilic_check(s)
    assert not chk.is_umbilic
    assert chk.defect == 1.0


def test_umbilic_check_zero_quadratic():
    with pytest.raises(InputError):
        umbilic_check(make_fixed_surface(X ** 3 + Y ** 3))


def test_genericity():
    assert genericity_check(X ** 3)
    assert genericity_check(X ** 3 + 2 * (Y ** 3))
    # multiples of x^2 + y^2 are exactly the non-generic cubics
    assert not genericity_check(X * (X * X + Y * Y))
    assert not genericity_check((3 * X - 5 * Y) * (X * X + Y * Y))
    assert not genericity_check(BivarPoly.constant(0))
    with pytest.raises(InputError):
        genericity_check(X * X)


def test_canonical_family_requires_genericity():
    with pytest.raises(GenericityError):
        make_canonical_family(1, 2, 2)


def test_normal_form_identity_when_already_normal():
    s = make_canonical_family(1, 0, 2)
    nf = normal_form_rotation(s)
    assert nf.theta == 0.0
    assert nf.family is s


@pytest.mark.parametrize("angle", [
    0.4, 1e-9, 0.9, math.pi / 6, 2.5, math.pi / 3 - 5e-10, math.pi / 3 + 5e-10,
])
def test_normal_form_recovers_rotated_family(angle):
    s = make_canonical_family(Fraction(1, 2), -1, 3)
    rotated = SurfaceFamily(s.f.rotate(angle), param_names=s.param_names)
    nf = normal_form_rotation(rotated)
    assert 0.0 <= nf.theta < math.pi / 3
    cubic = nf.family.cubic_part_at_zero()
    assert abs(float(cubic.coeff(3, 0) - cubic.coeff(1, 2))) < 1e-10
    # the recovered angle is -angle modulo the third-harmonic period
    residual = math.fmod(nf.theta + angle, math.pi / 3)
    assert min(abs(residual), abs(residual - math.pi / 3)) < 1e-8


def test_normal_form_needs_generic_cubic():
    f = X * X + Y * Y + X * (X * X + Y * Y)
    with pytest.raises(GenericityError):
        normal_form_rotation(make_fixed_surface(f))


def test_deformation_projection_is_identity_for_canonical():
    s = make_canonical_family(1, 0, 2)
    t = (Fraction(3, 7), Fraction(-2, 5))
    assert deformation_projection(s, t) == t
    assert deformation_projection(s, (0, 0)) == (0, 0)


def test_deformation_rank_full_for_canonical():
    dr = deformation_rank(make_canonical_family(1, 0, 2))
    assert dr.rank == 2
    assert dr.jacobian == [[1, 0], [0, 1]]


def test_deformation_rank_degenerate():
    # both parameters push along the same direction in the quadratic plane
    lam = NVarPoly.variable(2, 0)
    mu = NVarPoly.variable(2, 1)
    one = NVarPoly.constant(2, 1)
    f = ParamPoly(2, {
        (2, 0): one + lam + mu,
        (0, 2): one - lam - mu,
        (3, 0): one,
    })
    dr = deformation_rank(SurfaceFamily(f))
    assert dr.rank == 1

    g = ParamPoly(2, {(2, 0): one, (0, 2): one, (3, 0): one})
    assert deformation_rank(SurfaceFamily(g)).rank == 0


def test_family_evaluation():
    s = make_canonical_family(1, 0, 2)
    f = s.f_at((Fraction(1, 10), 0))
    assert f.coeff(2, 0) == Fraction(11, 10)
    assert f.coeff(0, 2) == Fraction(9, 10)
    assert f.coeff(1, 1) == 0
    assert s.f_origin().coeff(2, 0) == 1
