"""Surface families over a deformation parameter space.

A surface is the graph z = f(x, y) of a polynomial with no constant or
linear part, so the origin is a critical point of f and the tangent plane
there is horizontal.  A family bundles such an f for every value of an
n-dimensional parameter.  This module provides the structural checks used
before any vertex-set analysis: is the origin an umbilic, is the cubic
part generic, can the cubic be rotated into the symmetric normal form
a x^3 + b x^2 y + a x y^2 + c y^3, and does the family deform the
quadratic part with full rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import GenericityError, InputError, NumericError
from .poly import BivarPoly, NVarPoly, ParamPoly

UMBILIC_TOL = 1e-12
NORMAL_FORM_TOL = 1e-10
RANK_SV_TOL = 1e-10


class SurfaceFamily:
    """A polynomial surface family f(x, y; tau) over n parameters.

    The constant and linear parts of f must vanish identically in tau.
    Instances are immutable apart from a write-once cache used by the
    analysis modules (vertex function, sector anchors).
    """

    def __init__(self, f: ParamPoly, param_names: tuple[str, ...] | None = None):
        if not isinstance(f, ParamPoly):
            raise InputError("a surface family is built from a ParamPoly")
        if any(k[0] + k[1] < 2 for k in f.terms):
            raise InputError(
                "constant and linear terms of the height function must vanish "
                "identically over the parameter space"
            )
        if param_names is not None and len(param_names) != f.nparams:
            raise InputError("one name per parameter required")
        self.f = f
        self.nparams = f.nparams
        self.param_names = tuple(param_names) if param_names else tuple(
            f"p{i}" for i in range(f.nparams)
        )
        self.cache: dict = {}

    def f_at(self, tau) -> BivarPoly:
        """The surface at a concrete parameter value."""
        return self.f.substitute_params(tau)

    def f_origin(self) -> BivarPoly:
        """The surface at parameter zero."""
        return self.f.at_zero()

    def quadratic_part(self) -> ParamPoly:
        return self.f.homogeneous_part(2)

    def cubic_part_at_zero(self) -> BivarPoly:
        return self.f_origin().homogeneous_part(3)

    def __repr__(self):
        return (f"SurfaceFamily({len(self.f.terms)} terms, "
                f"params={'/'.join(self.param_names)})")


@dataclass(frozen=True)
class UmbilicCheck:
    is_umbilic: bool
    factor: float
    defect: float


@dataclass(frozen=True)
class NormalFormRotation:
    theta: float
    family: SurfaceFamily


@dataclass(frozen=True)
class DeformationRank:
    rank: int
    jacobian: list


def umbilic_check(s: SurfaceFamily, *, tol: float = UMBILIC_TOL) -> UmbilicCheck:
    """Decide whether the origin is umbilic at parameter zero.

    The quadratic part must be a nonzero multiple of x^2 + y^2: equal
    coefficients on x^2 and y^2 and no xy term, exactly for rational data
    and within ``tol`` otherwise.
    """
    q = s.f_origin().homogeneous_part(2)
    c20, c11, c02 = q.coeff(2, 0), q.coeff(1, 1), q.coeff(0, 2)
    if c20 == 0 and c11 == 0 and c02 == 0:
        raise InputError("degenerate surface: zero quadratic part, not an ordinary point")
    defect = max(abs(float(c20 - c02)), abs(float(c11)))
    scale = max(abs(float(c20)), abs(float(c02)), abs(float(c11)))
    ok = defect <= tol * max(1.0, scale)
    return UmbilicCheck(is_umbilic=ok, factor=float(c20), defect=defect)


def _cubic_coeff_list(cubic: BivarPoly) -> list:
    """Coefficients of cubic(x, 1) in descending degree [x^3, x^2, x, 1]."""
    for (i, j) in cubic.terms:
        if i + j != 3:
            raise InputError("genericity check expects a homogeneous cubic")
    return [cubic.coeff(3, 0), cubic.coeff(2, 1), cubic.coeff(1, 2), cubic.coeff(0, 3)]


def genericity_check(cubic: BivarPoly) -> bool:
    """True when x^2 + y^2 does not divide the cubic form.

    Dividing cubic(x, 1) by x^2 + 1 with exact univariate long division,
    the remainder is nonzero exactly for generic cubics.  The zero cubic is
    divisible by everything and therefore not generic.
    """
    coeffs = [Fraction(c) if isinstance(c, int) else c for c in _cubic_coeff_list(cubic)]
    # long division by x^2 + 1 (monic), remainder has degree <= 1
    rem = list(coeffs)
    for k in range(len(rem) - 2):
        q = rem[k]
        if q == 0:
            continue
        rem[k + 2] = rem[k + 2] - q
        rem[k] = 0
    return not (rem[2] == 0 and rem[3] == 0)


def _normal_form_gap(cubic: BivarPoly, theta: float) -> float:
    r = cubic.rotate(theta)
    return float(r.coeff(3, 0) - r.coeff(1, 2))


def normal_form_rotation(s: SurfaceFamily, *, tol: float = NORMAL_FORM_TOL) -> NormalFormRotation:
    """Rotate the family so the cubic carries equal x^3 and x y^2 coefficients.

    The gap coeff(x^3) - coeff(x y^2) varies with the rotation angle as a pure
    third harmonic, gap(t) = g0 cos 3t + g1 sin 3t with g0 = gap(0) and
    g1 = gap(pi/6), so its first root in [0, pi/3) is
    atan2(-g0, g1) / 3 mod pi/3.  Identity is returned when the cubic is
    already in normal form.
    """
    cubic = s.cubic_part_at_zero()
    if cubic.is_zero or not genericity_check(cubic):
        raise GenericityError("cubic part is not generic; no normal form rotation")
    g0 = _normal_form_gap(cubic, 0.0)
    if abs(g0) <= tol:
        return NormalFormRotation(theta=0.0, family=s)
    g1 = _normal_form_gap(cubic, math.pi / 6)
    theta = (math.atan2(-g0, g1) / 3) % (math.pi / 3)
    if abs(_normal_form_gap(cubic, theta)) > tol:
        raise NumericError("normal-form rotation did not converge within tolerance")
    rotated = SurfaceFamily(s.f.rotate(theta), param_names=s.param_names)
    return NormalFormRotation(theta=theta, family=rotated)


def deformation_projection(s: SurfaceFamily, tau) -> tuple:
    """Coordinates of the quadratic part on the (x^2 - y^2, 2xy) plane.

    Writing the quadratic part as A (x^2 + y^2) + B (x^2 - y^2) + C (2 x y),
    the projection is (B, C); the umbilic locus of the family is exactly its
    zero set.
    """
    q = s.f_at(tau).homogeneous_part(2)
    c20, c11, c02 = q.coeff(2, 0), q.coeff(1, 1), q.coeff(0, 2)
    two = Fraction(2) if isinstance(c20, (int, Fraction)) and isinstance(c02, (int, Fraction)) else 2.0
    return ((c20 - c02) / two, c11 / two)


def _projection_components(s: SurfaceFamily) -> tuple[NVarPoly, NVarPoly]:
    q = s.quadratic_part()
    c20 = q.coeff(2, 0)
    c11 = q.coeff(1, 1)
    c02 = q.coeff(0, 2)
    half = Fraction(1, 2)
    return ((c20 - c02) * half, c11 * half)


def _exact_rank(rows: list[list[Fraction]]) -> int:
    m = [list(map(Fraction, r)) for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    col = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(m)):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                factor = m[r][col] / pv
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def deformation_rank(s: SurfaceFamily) -> DeformationRank:
    """Rank at parameter zero of the map tau -> projected quadratic part.

    Rank 2 certifies that the family crosses the umbilic locus transversally,
    which is what every bifurcation scan in this package assumes.
    """
    f1, f2 = _projection_components(s)
    jac = [[f1.diff(k).constant_term() for k in range(s.nparams)],
           [f2.diff(k).constant_term() for k in range(s.nparams)]]
    exact = all(isinstance(v, (int, Fraction)) for row in jac for v in row)
    if exact:
        rank = _exact_rank(jac)
    else:
        a = np.array([[float(v) for v in row] for row in jac], dtype=float)
        sv = np.linalg.svd(a, compute_uv=False)
        rank = int(np.sum(sv > RANK_SV_TOL * max(1.0, sv[0] if sv.size else 0.0)))
    return DeformationRank(rank=rank, jacobian=jac)


def make_canonical_family(a, b, c) -> SurfaceFamily:
    """The two-parameter canonical family used throughout the test battery.

    f = x^2 + y^2 + a x^3 + b x^2 y + a x y^2 + c y^3
        + lambda (x^2 - y^2) + 2 mu x y

    with parameters (lambda, mu).  The cubic is the symmetric normal form;
    b == c fails the genericity requirement and is rejected.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if b == c:
        raise GenericityError("normal-form cubic with b == c is not generic")
    lam = NVarPoly.variable(2, 0)
    mu = NVarPoly.variable(2, 1)
    one = NVarPoly.constant(2, 1)
    f = ParamPoly(2, {
        (2, 0): one + lam,
        (0, 2): one - lam,
        (1, 1): mu * 2,
        (3, 0): one * a,
        (2, 1): one * b,
        (1, 2): one * a,
        (0, 3): one * c,
    })
    return SurfaceFamily(f, param_names=("lambda", "mu"))


def make_fixed_surface(p: BivarPoly) -> SurfaceFamily:
    """Wrap a single surface as a zero-parameter family."""
    return SurfaceFamily(ParamPoly.from_bivar(p, 0), param_names=())
