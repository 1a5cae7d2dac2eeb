"""Parameter-plane scans of vertex-set bifurcations near a generic umbilic.

The deformation parameter tau = (lam, mu) lives in a plane; as tau crosses
a discriminant consisting of three curves tangent to the lines mu = 0 and
mu = +-sqrt(3) lam, the pairing of the vertex-set branches changes.  This
module measures that picture: discriminant angles by bisection on the
pairing label, the transition-level field k*(tau), fixed-level sections of
the degenerate-vertex locus (closed curves with six cusps, solved ray by
ray for k*(r u) = k on the folds of f on the vertex set), the exact
reference parametrization those sections are compared against, and the
self-intersection point of a vertex set on the discriminant.

Angles in parameter space are degrees throughout.  Scan samples are
processed independently in index order, and every sample records the
tolerances it was produced with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateLevelError,
    InputError,
    NoTransitionError,
    NumericError,
    UnresolvedTopologyError,
)
from .surface import SurfaceFamily
from .tracer import analyze_vertex_set, boundary_crossings, classify_pairing, newton
from .util import wrap_angle
from .vertexfn import build_vertex_function, kappa_derivative_polys
from .vertices import LevelAnalyzer

WORK_RADIUS = 0.1
WORK_RESOLUTION = 384
# k* at |tau| = r is sought between these multiples of r^2
KSTAR_BRACKET = (0.02, 2.0)


# -- result containers ---------------------------------------------------------


@dataclass
class ScanSample:
    tau: tuple
    label: int | None = None
    kind: str | None = None
    kstar: float | None = None
    q_value: float | None = None
    merge_point: tuple | None = None
    degeneracy: int | str | None = None
    error: str | None = None
    tolerances: dict = field(default_factory=dict)


@dataclass
class ScanResult:
    samples: list
    metadata: dict


@dataclass
class DiscriminantScan:
    """Sorted label-change angles plus the coarse sweep they came from."""
    angles: list
    samples: list  # resolved coarse samples as (theta_deg, label)
    skipped: list  # (theta_deg, reason)
    metadata: dict


@dataclass
class PairingFlip:
    theta_deg: float
    t0: float
    label_minus: int
    label_plus: int


@dataclass
class CupSection:
    k: float
    locus: np.ndarray  # closed polyline, last point repeats the first
    cusp_angles: list  # polyline parameter angles of cusps, degrees
    fan_angles: np.ndarray
    radii: np.ndarray
    failed: list  # (theta_deg, reason)
    partial: bool
    metadata: dict


@dataclass
class SelfIntersection:
    point: tuple
    tau: tuple
    level: float
    record: object  # VertexRecord of the node vertex
    vertex_residual: float
    grad_residual: float
    iterations: int


@dataclass
class DegenerateVertexPoint:
    point: tuple
    tau: tuple
    level: float
    record: object  # VertexRecord at the doubly degenerate vertex
    residuals: tuple  # |kappa'|, |kappa''|, |kappa'''| numerator residuals
    iterations: int


# -- angle helpers -------------------------------------------------------------


def _dist_to_multiple(theta_deg: float, step: float = 60.0) -> float:
    m = theta_deg % step
    return min(m, step - m)


# -- sector anchors and pairing classification ---------------------------------


def sector_anchors(family: SurfaceFamily, *, radius: float = WORK_RADIUS,
                   resolution: int = WORK_RESOLUTION) -> tuple:
    """Boundary directions of the three undeformed vertex-set branches.

    The vertex set at tau = 0 consists of three lines through the origin;
    their six boundary crossings on the working circle anchor the sector
    indexing every pairing label refers to.  Cached on the family.
    """
    key = ("sector_anchors", radius, resolution)
    cached = family.cache.get(key)
    if cached is not None:
        return cached
    v0 = build_vertex_function(family).at_zero()
    analysis = analyze_vertex_set(v0, radius=radius, resolution=resolution)
    hits = boundary_crossings(analysis.trace.curves)
    if len(hits) != 6:
        raise UnresolvedTopologyError(
            f"undeformed vertex set crosses the working circle {len(hits)} "
            f"times, expected 6"
        )
    anchors = tuple(sorted(wrap_angle(h) for h in hits))
    family.cache[key] = anchors
    return anchors


def classify_at(family: SurfaceFamily, tau, *, radius: float = WORK_RADIUS,
                resolution: int = WORK_RESOLUTION, r_fit: float | None = None):
    """Pairing label of the deformed vertex set at one parameter value.

    Anchors and the sample are traced at the same working radius so the
    nearest-anchor matching stays consistent.
    """
    anchors = sector_anchors(family, radius=radius, resolution=resolution)
    v = build_vertex_function(family).substitute_params(tuple(tau))
    analysis = analyze_vertex_set(v, radius=radius, resolution=resolution,
                                  r_fit=r_fit)
    return classify_pairing(analysis.branches, anchors)


# -- discriminant angles --------------------------------------------------------


def discriminant_angles(family: SurfaceFamily, r_param: float = 0.03, *,
                        coarse_deg: float = 2.0, refine_deg: float = 0.1,
                        radius: float = WORK_RADIUS,
                        resolution: int = WORK_RESOLUTION) -> DiscriminantScan:
    """Angles where the pairing label changes on the circle |tau| = r_param.

    A 2 degree sweep classifies the pairing around the circle; each label
    change is bisected down to ``refine_deg``.  Samples whose topology does
    not resolve are skipped and reported in the result.
    """
    if r_param <= 0:
        raise InputError("r_param must be positive")
    if not 0 < refine_deg <= coarse_deg:
        raise InputError("need 0 < refine_deg <= coarse_deg")
    tolerances = {"r_param": r_param, "radius": radius,
                  "resolution": resolution, "refine_deg": refine_deg}

    def label_at(theta_deg: float):
        th = math.radians(theta_deg)
        tau = (r_param * math.cos(th), r_param * math.sin(th))
        lab = classify_at(family, tau, radius=radius, resolution=resolution)
        if lab.kind != "split":
            raise UnresolvedTopologyError(
                f"non-split configuration at theta={theta_deg:.2f} deg"
            )
        return lab.label

    skipped: list = []
    samples: list = []
    thetas = np.arange(0.0, 360.0, coarse_deg)
    for th in thetas:
        try:
            samples.append((float(th), label_at(float(th))))
        except UnresolvedTopologyError as e:
            skipped.append((float(th), str(e)))

    if len(samples) < 12:
        raise UnresolvedTopologyError("too few resolved samples to scan")

    angles = []
    n = len(samples)
    for i in range(n):
        th_a, la = samples[i]
        th_b, lb = samples[(i + 1) % n]
        if la == lb:
            continue
        if i + 1 == n:
            th_b += 360.0
        lo, hi = th_a, th_b
        lab_lo = la
        while hi - lo > refine_deg:
            mid = 0.5 * (lo + hi)
            try:
                lm = label_at(mid % 360.0)
            except UnresolvedTopologyError as e:
                skipped.append((mid % 360.0, str(e)))
                mid += (hi - lo) / 8.0
                try:
                    lm = label_at(mid % 360.0)
                except UnresolvedTopologyError as e2:
                    skipped.append((mid % 360.0, str(e2)))
                    break
            if lm == lab_lo:
                lo = mid
            else:
                hi = mid
        angles.append((0.5 * (lo + hi)) % 360.0)

    metadata = {"family": repr(family), "coarse_deg": coarse_deg,
                **tolerances}
    return DiscriminantScan(angles=sorted(angles), samples=samples,
                            skipped=skipped, metadata=metadata)


# -- one-parameter pairing flip ---------------------------------------------------


def pairing_flip_1param(family: SurfaceFamily, theta_deg: float,
                        t0: float = 0.03, *, min_sep_deg: float = 10.0,
                        radius: float = WORK_RADIUS,
                        resolution: int = WORK_RESOLUTION) -> PairingFlip:
    """Pairing labels at the two ends of the path tau = t*(cos, sin), |t| <= t0.

    The direction must keep at least ``min_sep_deg`` away from the
    discriminant tangent directions (multiples of 60 degrees); crossing the
    umbilic along such a path shifts the pairing label by exactly three
    sectors, and a violation raises.
    """
    if t0 <= 0:
        raise InputError("t0 must be positive")
    if _dist_to_multiple(theta_deg) < min_sep_deg:
        raise InputError(
            f"direction {theta_deg} deg is within {min_sep_deg} deg of a "
            f"discriminant tangent line"
        )
    th = math.radians(theta_deg)
    u = (math.cos(th), math.sin(th))
    lab_m = classify_at(family, (-t0 * u[0], -t0 * u[1]), radius=radius,
                        resolution=resolution)
    lab_p = classify_at(family, (t0 * u[0], t0 * u[1]), radius=radius,
                        resolution=resolution)
    if lab_m.kind != "split" or lab_p.kind != "split":
        raise UnresolvedTopologyError("endpoint classification is not split")
    if (lab_m.label + 3) % 6 != lab_p.label:
        raise UnresolvedTopologyError(
            f"labels {lab_m.label} -> {lab_p.label} do not differ by 3 sectors"
        )
    return PairingFlip(theta_deg=theta_deg, t0=t0, label_minus=lab_m.label,
                       label_plus=lab_p.label)


# -- the transition-level field ----------------------------------------------------


def kstar_field(family: SurfaceFamily, taus, *, resolution: int = 256,
                rel_tol: float = 1e-4, margin_deg: float = 5.0,
                bracket: tuple = KSTAR_BRACKET) -> ScanResult:
    """Transition level k* at each parameter sample, with k*/r^2 diagnostics.

    Samples must avoid the discriminant tangent directions by
    ``margin_deg`` and may not include the umbilic itself; those are
    precondition violations.  Per-sample numerical failures are recorded in
    the sample instead of raised.
    """
    taus = [tuple(float(v) for v in t) for t in taus]
    for t in taus:
        r = math.hypot(*t)
        if r == 0.0:
            raise InputError("the umbilic tau = (0, 0) has no transition level")
        theta = math.degrees(math.atan2(t[1], t[0]))
        if _dist_to_multiple(theta) < margin_deg:
            raise InputError(
                f"sample {t} lies within {margin_deg} deg of a discriminant "
                f"tangent direction"
            )
    samples = []
    q_by_angle: dict = {}
    for t in taus:
        r = math.hypot(*t)
        theta = math.degrees(math.atan2(t[1], t[0])) % 360.0
        k_range = (bracket[0] * r * r, bracket[1] * r * r)
        tol = {"resolution": resolution, "rel_tol": rel_tol, "bracket": k_range}
        try:
            res = LevelAnalyzer(family.f_at(t)).count_transition(
                *k_range, resolution=resolution, rel_tol=rel_tol)
            q = res.kstar / (r * r)
            samples.append(ScanSample(tau=t, kstar=res.kstar, q_value=q,
                                      merge_point=res.merge_point,
                                      degeneracy=res.degeneracy,
                                      tolerances=tol))
            q_by_angle.setdefault(round(theta, 6), []).append(q)
        except (NoTransitionError, NumericError, DegenerateLevelError) as e:
            samples.append(ScanSample(tau=t, error=f"{type(e).__name__}: {e}",
                                      tolerances=tol))
    metadata = {"family": repr(family), "resolution": resolution,
                "rel_tol": rel_tol, "margin_deg": margin_deg,
                "model": "kstar ~= Q(theta) * r^2",
                "q_by_angle": {a: (min(v), max(v)) for a, v in q_by_angle.items()}}
    return ScanResult(samples=samples, metadata=metadata)


# -- fixed-level section of the degenerate-vertex locus -----------------------------


def _section_radius(family: SurfaceFamily, u: tuple, k: float, r: float,
                    r_min: float, r_max: float, r_tol: float,
                    resolution: int) -> float:
    """The radius where k*(r u) = k, by secant steps in log r from r.

    k*(r u) is the lowest birth fold in the ``KSTAR_BRACKET`` of r; it
    grows like r^2, which sets the first step.  Stops at a step below r_tol.
    """
    def h(r):
        if not r_min <= r <= r_max:
            raise NoTransitionError(f"radius {r:.6g} outside [r_min, r_max]")
        lo, hi = (b * r * r for b in KSTAR_BRACKET)
        folds = LevelAnalyzer(family.f_at((r * u[0], r * u[1]))).folds(
            hi, resolution=resolution)
        births = [fd.level for fd in folds if fd.birth and fd.level > lo]
        if not births:
            raise NoTransitionError(f"no birth fold at r = {r:.6g}")
        return math.log(births[0] / k)

    s, hs = math.log(r), h(r)
    step = -hs / 2.0
    for _ in range(40):
        r_new = math.exp(s + step)
        if abs(r_new - math.exp(s)) < r_tol:
            return r_new
        h_new = h(r_new)
        if h_new == hs:
            raise NumericError(f"k* is flat along the ray at r = {r_new:.6g}")
        s, step, hs = s + step, -h_new * step / (h_new - hs), h_new
    raise NumericError("secant search for the section radius did not converge")


def cup_section(family: SurfaceFamily, k: float, r_max: float, *,
                fan: int = 96, r_min: float = 1e-3, resolution: int = 256,
                bisect_steps: int = 20, spike_factor: float = 6.0) -> CupSection:
    """Section of the degenerate-vertex locus at the fixed level k.

    On each direction u of the fan, k*(r u) = k (six vertices at level k
    inside, four outside) is solved for r in [r_min, r_max] from the
    previous direction's radius, to r_tol = r_max 2^-bisect_steps.  The
    closed polyline of radii is the section; its cusps are detected as
    turning spikes.  Failed directions are reported and flag it partial.
    """
    if k <= 0:
        raise InputError("level k must be positive")
    if not 0 < r_min < r_max:
        raise InputError("need 0 < r_min < r_max")
    if fan < 12:
        raise InputError("fan must have at least 12 directions")
    fan_angles = np.linspace(0.0, 360.0, fan, endpoint=False)
    radii = np.full(fan, np.nan)
    failed = []
    r_tol = r_max * 0.5 ** bisect_steps
    r0 = r_max
    for i, th_deg in enumerate(fan_angles):
        th = math.radians(th_deg)
        u = (math.cos(th), math.sin(th))
        try:
            radii[i] = r0 = _section_radius(family, u, k, r0, r_min, r_max,
                                            r_tol, resolution)
        except (NoTransitionError, NumericError, DegenerateLevelError) as e:
            failed.append((float(th_deg), f"{type(e).__name__}: {e}"))
    ok = ~np.isnan(radii)
    pts = np.column_stack([radii[ok] * np.cos(np.radians(fan_angles[ok])),
                           radii[ok] * np.sin(np.radians(fan_angles[ok]))])
    partial = bool(len(failed))
    locus = np.vstack([pts, pts[:1]])
    cusp_angles: list = []
    if not partial:
        idx = detect_polyline_cusps(pts, spike_factor=spike_factor)
        cusp_angles = [float(fan_angles[i]) for i in idx]
    metadata = {"family": repr(family), "k": k, "r_max": r_max, "fan": fan,
                "r_min": r_min, "resolution": resolution, "r_tol": r_tol,
                "spike_factor": spike_factor,
                "counts": "k*(r u) = k: 6 vertices inside, 4 outside"}
    return CupSection(k=k, locus=locus, cusp_angles=sorted(cusp_angles),
                      fan_angles=fan_angles, radii=radii, failed=failed,
                      partial=partial, metadata=metadata)


def detect_polyline_cusps(pts: np.ndarray, *, spike_factor: float = 6.0,
                          min_turn: float = 0.35) -> list:
    """Indices of turning-angle spikes of a cyclic polyline.

    The turning angle at each point compares the incoming and outgoing
    segment directions; spikes above ``spike_factor`` times the median and
    above ``min_turn`` radians mark cusps.  Adjacent spikes merge into one
    cusp at the largest turn.
    """
    pts = np.asarray(pts, dtype=float)
    if len(pts) >= 2 and np.allclose(pts[0], pts[-1]):
        pts = pts[:-1]
    n = len(pts)
    if n < 8:
        raise InputError("polyline too short for cusp detection")
    seg = np.roll(pts, -1, axis=0) - pts
    ang = np.arctan2(seg[:, 1], seg[:, 0])
    turn = np.abs(np.array([wrap_angle(a) for a in np.roll(ang, -1) - ang]))
    # turn[i] sits at vertex i+1
    med = float(np.median(turn))
    thresh = max(spike_factor * med, min_turn)
    hot = turn > thresh
    if not hot.any():
        return []
    idx = np.nonzero(hot)[0]
    clusters = [[idx[0]]]
    for i in idx[1:]:
        if i == clusters[-1][-1] + 1:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    if len(clusters) > 1 and clusters[0][0] == 0 and clusters[-1][-1] == n - 1:
        clusters[0] = clusters.pop() + clusters[0]
    out = []
    for cl in clusters:
        best = max(cl, key=lambda i: turn[i])
        out.append((best + 1) % n)
    return sorted(out)


def cup_reference(k: float, samples: int = 720) -> np.ndarray:
    """The reference section polyline z(phi) = -2 sqrt(k) (5 e^(-i phi) + e^(5 i phi)).

    A closed polyline over an even phi grid; the last point repeats the
    first.  It has six cusps at phi = n pi / 3 and exact pi/3 rotational
    symmetry.  k = 0 collapses to the single point at the origin.
    """
    if k < 0:
        raise InputError("level k must be nonnegative")
    if samples < 6:
        raise InputError("need at least 6 samples")
    phi = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    s = 2.0 * math.sqrt(k)
    x = -s * (5.0 * np.cos(phi) + np.cos(5.0 * phi))
    y = -s * (np.sin(5.0 * phi) - 5.0 * np.sin(phi))
    pts = np.column_stack([x, y])
    return np.vstack([pts, pts[:1]])


# -- vertex-set self-intersection on the discriminant -------------------------------


def _newton_xyt(polys: list, tau, free_param: int, seed, max_iter: int,
                what: str) -> tuple:
    """Newton on (p_1, p_2, p_3) = 0 over (x, y, t) for three ParamPolys.

    t replaces component ``free_param`` of tau and starts there, (x, y)
    start at ``seed``, by default at (0, lam/3) (see the public entry
    points).  A singular system or a step longer than
    0.5 max|tau| + 0.1 raises NumericError naming ``what``.  Returns x, y,
    the parameters at the solution and the number of steps taken.
    """
    tau = tuple(float(v) for v in tau)
    if not 0 <= free_param < polys[0].nparams:
        raise InputError("free_param out of range")
    if seed is None:
        if free_param != 1 or tau[0] == 0.0:
            raise InputError("no default seed for this configuration; pass one")
        seed = (0.0, tau[0] / 3.0)
    polys_t = [p.diff_param(free_param) for p in polys]

    def system(states):
        F = np.empty((len(states), 3))
        J = np.empty((len(states), 3, 3))
        for r, (x, y, t) in enumerate(states):
            params = list(tau)
            params[free_param] = t
            for i, (p, pt) in enumerate(zip(polys, polys_t)):
                q = p.substitute_params(params)
                F[r, i] = q.eval(x, y)
                J[r, i] = (q.diff("x").eval(x, y), q.diff("y").eval(x, y),
                           pt.substitute_params(params).eval(x, y))
        return F, J

    max_step = 0.5 * max(abs(tau[0]), abs(tau[1]), 1e-6) + 0.1
    state, converged, steps = newton(system, [[seed[0], seed[1], tau[free_param]]],
                                     tol=1e-15, max_iter=max_iter, max_step=max_step)
    if not converged[0] and steps[0] < max_iter:
        raise NumericError(f"{what} iteration stopped after {steps[0]} steps: "
                           f"singular system or a step longer than {max_step:.3g}")
    x, y, t = (float(c) for c in state[0])
    params = list(tau)
    params[free_param] = t
    return x, y, params, int(steps[0])


def _classify_on_level(family: SurfaceFamily, x: float, y: float, params) -> tuple:
    """The level of f through (x, y) at ``params`` and the vertex record there."""
    la = LevelAnalyzer(family.f_at(params))
    k = float(la.field_f.value(x, y))
    return k, la.classify_vertex((x, y), k)


def vertex_set_self_intersection(family: SurfaceFamily, tau, *,
                                 free_param: int = 1, seed=None,
                                 max_iter: int = 60) -> SelfIntersection:
    """Node of the vertex set, found by freeing one deformation parameter.

    Starting near ``tau``, Newton iteration on (V, V_x, V_y) over
    (x, y, t), with t replacing component ``free_param`` of tau, lands on
    the parameter value where V = 0 has a genuine self-intersection and on
    the node itself.  The node is then classified on its own level; it
    carries the doubly degenerate vertex of the transition.

    ``seed`` gives the starting (x, y); by default the node of the leading
    jet model at (0, lam/3) is used, which covers families normalized so
    the free parameter is the second one.
    """
    vp = build_vertex_function(family)
    x, y, params, iterations = _newton_xyt([vp, vp.diff("x"), vp.diff("y")], tau,
                                           free_param, seed, max_iter, "node")
    v = vp.substitute_params(params)
    vscale = v.bound_on_disc(2.0 * math.hypot(x, y))
    vres = abs(v.eval(x, y))
    gres = math.hypot(v.diff("x").eval(x, y), v.diff("y").eval(x, y))
    if vres > 1e-8 * max(vscale, 1e-300):
        raise NumericError(
            f"node iteration did not converge: |V| = {vres:.3e} "
            f"against scale {vscale:.3e}"
        )
    k_si, record = _classify_on_level(family, x, y, params)
    return SelfIntersection(point=(x, y), tau=tuple(params), level=k_si,
                            record=record, vertex_residual=float(vres),
                            grad_residual=float(gres), iterations=iterations)


def two_degenerate_vertex(family: SurfaceFamily, tau, *, free_param: int = 1,
                          seed=None, max_iter: int = 60) -> DegenerateVertexPoint:
    """Point and parameter where a level curve has an exactly 2-degenerate vertex.

    Newton iteration on the first three tangential curvature derivative
    numerators over (x, y, t), with t replacing component ``free_param`` of
    tau.  The solution is the cuspidal configuration at which three
    vertices of the transition collapse at once; it coincides with the
    vertex-set self-intersection up to corrections of higher order in tau,
    so the two solvers cross-validate each other.
    """
    key = "kappa_chain_3"
    chain = family.cache.get(key)
    if chain is None:
        chain = kappa_derivative_polys(family.f, 3)
        family.cache[key] = chain
    polys = [chain[1][0], chain[2][0], chain[3][0]]
    x, y, params, iterations = _newton_xyt(polys, tau, free_param, seed, max_iter,
                                           "degenerate-vertex")
    r2 = 2.0 * math.hypot(x, y)
    residuals = []
    for p in polys:
        q = p.substitute_params(params)
        residuals.append(abs(q.eval(x, y)) / max(q.bound_on_disc(r2), 1e-300))
    if max(residuals) > 1e-8:
        raise NumericError(
            f"degenerate-vertex iteration did not converge: relative "
            f"residuals {residuals}"
        )
    k_si, record = _classify_on_level(family, x, y, params)
    return DegenerateVertexPoint(point=(x, y), tau=tuple(params), level=k_si,
                                 record=record, residuals=tuple(residuals),
                                 iterations=iterations)
