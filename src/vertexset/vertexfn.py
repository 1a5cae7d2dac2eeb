"""The vertex function of a level-curve family.

For a smooth f, the vertices of the level curves f = k (critical points of
planar curvature along the curve) form a single plane set across all levels:
the zero set of one polynomial expression V in the partial derivatives of f.
This module builds V exactly, builds the curvature of level curves and its
tangential derivatives exactly, and cross-checks the two constructions
against each other.  The two routes are independent: V comes from a closed
formula in the jets of f, while the curvature route differentiates
kappa = N / G^(3/2) along the level direction.  Their agreement, with the
calibration constants frozen below, is what the oracle tests certify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError, JetFitError, NearCriticalPointError
from .poly import BivarPoly, ParamPoly, fit_scalar_ratio, max_coeff_diff
from .surface import SurfaceFamily, deformation_rank, normal_form_rotation
from .tracer import GRAD_FLOOR

# Calibration of V against the curvature route, frozen from
# calibrate_vertex_scale() on the cusp surface x^2 + y^2 + x^3:
# V equals CAL_CONST * |grad f|^(2*GRAD_POWER) * d(kappa)/ds.
GRAD_POWER = 3
CAL_CONST = 1


def vertex_poly(f):
    """The vertex function V of f as a polynomial of the same kind as f.

    Works on BivarPoly and ParamPoly alike.  The zero set of V meets each
    regular level curve of f exactly in that curve's vertices.
    """
    fx = f.diff("x")
    fy = f.diff("y")
    fxx = fx.diff("x")
    fxy = fx.diff("y")
    fyy = fy.diff("y")
    fxxx = fxx.diff("x")
    fxxy = fxx.diff("y")
    fxyy = fxy.diff("y")
    fyyy = fyy.diff("y")
    g = fx * fx + fy * fy
    third = (fx ** 3) * fyyy - 3 * (fx ** 2) * fy * fxyy \
        + 3 * fx * (fy ** 2) * fxxy - (fy ** 3) * fxxx
    second = (fy ** 2) * (fxx ** 2) - (fx ** 2) * (fyy ** 2) \
        + (fx ** 2 - fy ** 2) * (fxx * fyy + 2 * (fxy ** 2))
    mixed = fxx * (fy ** 4) - 3 * (fx ** 2) * (fy ** 2) * (fxx - fyy) - fyy * (fx ** 4)
    return g * third + 3 * fx * fy * second + 3 * fxy * mixed


def build_vertex_function(s: SurfaceFamily) -> ParamPoly:
    """Vertex function of a family, cached on the family."""
    v = s.cache.get("vertex_poly")
    if v is None:
        v = vertex_poly(s.f)
        s.cache["vertex_poly"] = v
    return v


def kappa_derivative_polys(f: BivarPoly, order: int) -> list:
    """Numerator/exponent pairs for curvature and its arclength derivatives.

    Returns [(P_0, e_0), ..., (P_order, e_order)] such that the j-th
    tangential derivative of the level-curve curvature equals
    P_j / G^(e_j / 2) with G = fx^2 + fy^2, wherever grad f is nonzero.
    P_0 / G^(3/2) is the curvature itself, positive on circles traversed
    around a minimum of f.
    """
    if order < 0:
        raise InputError("derivative order must be nonnegative")
    fx = f.diff("x")
    fy = f.diff("y")
    fxx = fx.diff("x")
    fxy = fx.diff("y")
    fyy = fy.diff("y")
    g = fx * fx + fy * fy
    gx = g.diff("x")
    gy = g.diff("y")
    swirl = gy * fx - gx * fy
    p = (fy ** 2) * fxx - 2 * fx * fy * fxy + (fx ** 2) * fyy
    e = 3
    out = [(p, e)]
    for _ in range(order):
        p = (p.diff("y") * fx - p.diff("x") * fy) * g - Fraction(e, 2) * p * swirl
        e += 3
        out.append((p, e))
    return out


@dataclass(frozen=True)
class CurvatureSample:
    """Curvature data of the level curve of f through one point."""
    point: tuple
    kappa: float
    dkappa_ds: float
    grad_norm: float


def curvature(f: BivarPoly, point, *, grad_floor: float = GRAD_FLOOR) -> CurvatureSample:
    """Curvature and its arclength derivative for the level curve through point.

    The arclength direction is the gradient rotated a quarter turn
    counterclockwise, so the curve is traversed counterclockwise around a
    minimum.  Points where |grad f| < grad_floor are rejected: level curves
    through near-critical points have no stable curvature.
    """
    return _curvature_sampler(f, grad_floor)(point)


def _curvature_sampler(f: BivarPoly, grad_floor: float):
    """``curvature`` of f at a point, with P_0 and P_1 built once."""
    (p0, _), (p1, _) = kappa_derivative_polys(f, 1)

    def sample(point) -> CurvatureSample:
        x, y = float(point[0]), float(point[1])
        fx = float(f.diff("x").eval(x, y))
        fy = float(f.diff("y").eval(x, y))
        g = fx * fx + fy * fy
        gn = math.sqrt(g)
        if gn < grad_floor:
            raise NearCriticalPointError(
                f"gradient norm {gn:.3e} below floor {grad_floor:.3e} at ({x}, {y})"
            )
        kappa = float(p0.eval(x, y)) / g ** 1.5
        dk = float(p1.eval(x, y)) / g ** 3
        return CurvatureSample(point=(x, y), kappa=kappa, dkappa_ds=dk, grad_norm=gn)

    return sample


@dataclass(frozen=True)
class VertexScaleCalibration:
    grad_power: int
    constant: Fraction
    defect: float


def calibrate_vertex_scale(f: BivarPoly | None = None) -> VertexScaleCalibration:
    """Re-derive the frozen (GRAD_POWER, CAL_CONST) pair symbolically.

    Compares V * G^3 against P_1 * G^m for candidate powers m; exactly one
    candidate matches up to a scalar, identifying V = c * G^(m-3) * P_1,
    i.e. V = c * |grad f|^(2m) * dkappa/ds.  The default test surface is the
    cusp surface x^2 + y^2 + x^3, whose vertex function has full generic
    structure.
    """
    if f is None:
        x = BivarPoly.variable("x")
        y = BivarPoly.variable("y")
        f = x * x + y * y + x ** 3
    v = vertex_poly(f)
    (_, _), (p1, _) = kappa_derivative_polys(f, 1)
    fx = f.diff("x")
    fy = f.diff("y")
    g = fx * fx + fy * fy
    lhs = v * (g ** 3)
    best = None
    for m in (2, 3, 4):
        ratio, defect = fit_scalar_ratio(lhs, p1 * (g ** m))
        if best is None or defect < best.defect:
            best = VertexScaleCalibration(grad_power=m, constant=Fraction(ratio),
                                          defect=defect)
    return best


def oracle_residuals(f: BivarPoly, points: np.ndarray, *,
                     grad_floor: float = GRAD_FLOOR) -> np.ndarray:
    """Relative gap between V and the calibrated curvature route, pointwise.

    points is an (n, 2) array.  Each residual is
    |V - c G^m dkappa/ds| / max(|V|, |c G^m dkappa/ds|, tiny); points with
    gradient below the floor are rejected.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InputError("points must be an (n, 2) array")
    v = vertex_poly(f)
    curvature_at = _curvature_sampler(f, grad_floor)
    out = np.empty(len(pts))
    for i, (x, y) in enumerate(pts):
        sample = curvature_at((x, y))
        lhs = float(v.eval(float(x), float(y)))
        rhs = float(CAL_CONST) * sample.grad_norm ** (2 * GRAD_POWER) * sample.dkappa_ds
        out[i] = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return out


def vertex_jet4_model() -> ParamPoly:
    """Shape of the parameter-linear quartic jet of V for normalized families.

    (x^2 + y^2) * (2 lambda x y + mu (y^2 - x^2)), with (lambda, mu) the
    coordinates of the quadratic deformation.
    """
    x = ParamPoly.variable(2, "x")
    y = ParamPoly.variable(2, "y")
    lam = ParamPoly.parameter(2, 0)
    mu = ParamPoly.parameter(2, 1)
    return (x * x + y * y) * (2 * lam * x * y + mu * (y * y - x * x))


def vertex_jet5_model() -> BivarPoly:
    """Shape of the quintic jet of V at the central surface: x (x^2+y^2)(x^2-3y^2)."""
    x = BivarPoly.variable("x")
    y = BivarPoly.variable("y")
    return x * (x * x + y * y) * (x * x - 3 * y * y)


@dataclass(frozen=True)
class JetStructure:
    """Leading structure of V for a normalized two-parameter family.

    c4 scales the parameter-linear quartic model, c5 the quintic model at
    parameter zero; the defects are max absolute coefficient residuals of
    those fits.  quartic_at_zero_size records the largest coefficient of the
    quartic part at parameter zero, which vanishes for umbilic families.
    degree6_at_zero is kept for inspection and deliberately not constrained.
    """
    c4: Fraction | float
    defect4: float
    c5: Fraction | float
    defect5: float
    quartic_at_zero_size: float
    degree6_at_zero: BivarPoly


def jet_structure_check(s: SurfaceFamily) -> JetStructure:
    """Extract and fit the leading jets of the vertex function of a family."""
    if s.nparams != 2:
        raise InputError("jet structure is defined for two-parameter families")
    v = build_vertex_function(s)
    v0 = v.at_zero()
    q0 = v0.homogeneous_part(4)
    q0_size = max((abs(float(c)) for c in q0.terms.values()), default=0.0)
    jet4 = v.param_degree_part(1).homogeneous_part(4)
    c4, defect4 = fit_scalar_ratio(jet4, vertex_jet4_model())
    jet5 = v0.homogeneous_part(5)
    c5, defect5 = fit_scalar_ratio(jet5, vertex_jet5_model())
    return JetStructure(c4=c4, defect4=defect4, c5=c5, defect5=defect5,
                        quartic_at_zero_size=q0_size,
                        degree6_at_zero=v0.homogeneous_part(6))


@dataclass(frozen=True)
class JetNodes:
    """The six nodes of the jet model of V, one per discriminant ray.

    In normal-form coordinates (plane rotated by ``normal_form_rotation``,
    parameters tau' = A tau with A the ``deformation_rank`` Jacobian) the
    part of V of total degree 5 is c4 jet4 + c5 jet5.  At tau' = T, T =
    (cos 60i deg, sin 60i deg), the model has one node off the origin, at
    (2 c4 / (3 c5)) (T_mu, T_lam).  Row i of ``directions`` is the unit
    parameter direction u of that node in the family's own parameters, and
    row i of ``points`` its point at tau = u in the family's own plane, so
    the node of V at tau = r u lies near r points[i].
    """
    c4: Fraction | float
    c5: Fraction | float
    directions: np.ndarray
    points: np.ndarray


def jet_nodes(s: SurfaceFamily) -> JetNodes:
    """The nodes of the jet model of V of a two-parameter family, cached.

    The jets are fitted after the plane is rotated to the cubic normal
    form and the parameters are mapped by the deformation Jacobian; a fit
    whose defect exceeds 1e-10 of max(|c4|, |c5|) raises JetFitError.
    """
    if "jet_nodes" in s.cache:
        return s.cache["jet_nodes"]
    nf = normal_form_rotation(s)
    dr = deformation_rank(nf.family)
    if s.nparams != 2 or dr.rank != 2:
        raise JetFitError(f"jet nodes need a two-parameter family of deformation rank 2; "
                          f"this one has {s.nparams} parameters and rank {dr.rank}")
    v = build_vertex_function(s)
    jet4 = v.param_degree_part(1).homogeneous_part(4)
    jet5 = v.at_zero().homogeneous_part(5)
    if nf.theta:
        jet4, jet5 = jet4.rotate(nf.theta), jet5.rotate(nf.theta)
    (a, b), (c, d) = dr.jacobian
    lam, mu = ParamPoly.parameter(2, 0), ParamPoly.parameter(2, 1)
    c4, defect4 = fit_scalar_ratio(jet4, vertex_jet4_model().substitute(
        {2: lam * a + mu * b, 3: lam * c + mu * d}))
    c5, defect5 = fit_scalar_ratio(jet5, vertex_jet5_model())
    scale = max(abs(float(c4)), abs(float(c5)))
    defect = max(defect4, defect5) / max(scale, 1e-300)
    if not scale or defect > 1e-10:
        raise JetFitError(f"the jets of V do not fit the normal-form models: relative "
                          f"defect {defect:.3e} (quartic {defect4:.3e}, quintic "
                          f"{defect5:.3e}), tolerance 1e-10")
    phi = np.radians(np.arange(0.0, 360.0, 60.0))
    T = np.column_stack([np.cos(phi), np.sin(phi)])
    dirs = np.linalg.solve(np.array(dr.jacobian, dtype=float), T.T).T
    norm = np.hypot(dirs[:, 0], dirs[:, 1])
    # the node of the model at tau' = T, scaled to |tau| = 1, in the family's plane
    z = float(2 * c4 / (3 * c5)) * (T[:, 1] + 1j * T[:, 0]) / norm * np.exp(-1j * nf.theta)
    out = s.cache["jet_nodes"] = JetNodes(c4=c4, c5=c5, directions=dirs / norm[:, None],
                                          points=np.column_stack([z.real, z.imag]))
    return out


def hexagonal_symmetry_defect(s: SurfaceFamily, *, theta: float | None = None) -> float:
    """Invariance defect of the leading jets of V under the hexagonal action.

    The action rotates the plane by theta (default 2 pi / 3) while rotating
    the deformation parameters by 2 theta.  Both leading jets of V are
    invariant; the return value is the larger of the two relative
    coefficient defects, which is pure roundoff for the default angle.
    """
    if theta is None:
        theta = 2 * math.pi / 3
    v = build_vertex_function(s)
    jet4 = v.param_degree_part(1).homogeneous_part(4)
    jet5 = v.at_zero().homogeneous_part(5)
    c2, s2 = math.cos(2 * theta), math.sin(2 * theta)
    lam = ParamPoly.parameter(2, 0)
    mu = ParamPoly.parameter(2, 1)
    rot4 = jet4.rotate(theta).substitute({
        2: lam * c2 + mu * s2,
        3: -(lam * s2) + mu * c2,
    })
    rot5 = jet5.rotate(theta)
    scale4 = max((abs(float(c)) for c in jet4.terms.values()), default=1.0)
    scale5 = max((abs(float(c)) for c in jet5.terms.values()), default=1.0)
    d4 = max_coeff_diff(rot4, jet4) / max(scale4, 1e-300)
    d5 = max_coeff_diff(rot5, jet5) / max(scale5, 1e-300)
    return max(d4, d5)
