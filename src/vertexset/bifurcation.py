"""Parameter-plane scans of vertex-set bifurcations near a generic umbilic.

The deformation parameter tau = (lam, mu) lives in a plane; as tau crosses
a discriminant consisting of three curves tangent to the lines mu = 0 and
mu = +-sqrt(3) lam, the pairing of the vertex-set branches changes.  This
module measures that picture: discriminant angles (the six nodes of the
vertex set, continued in |tau| from the nodes of the quintic jet of V),
the transition-level field k*(tau), fixed-level sections of the
degenerate-vertex locus (closed curves with six cusps, solved ray by ray
for k*(r u) = k on the folds of f on the vertex set), the exact reference
parametrization those sections are compared against, and the
self-intersection point of a vertex set on the discriminant.  Every
system over (x, y) and a parameter path goes through one Newton solver,
``_newton_xyt``, with one residual gate; both evaluate the family members
at the rows and their partials in x, y and the parameters through
``ParamPoly.slices``.

Angles in parameter space are degrees throughout.  Scan samples are
processed independently in index order, and every sample records the
tolerances it was produced with.
"""

from __future__ import annotations

import bisect
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
from .tracer import (
    analyze_vertex_set,
    boundary_crossings,
    classify_pairing,
    newton,
)
from .util import wrap_angle
from .vertexfn import build_vertex_function, jet_nodes, kappa_derivative_polys
from .vertices import LevelAnalyzer

WORK_RADIUS = 0.1
WORK_RESOLUTION = 384
# k* at |tau| = r is sought between these multiples of r^2
KSTAR_BRACKET = (0.02, 2.0)
# least angles, in degrees, from the discriminant tangent directions
# (multiples of 60 degrees): of a k* sample and of a pairing-flip path
KSTAR_MARGIN_DEG = 5.0
FLIP_MIN_SEP_DEG = 10.0
# a cusp turns by more than both of these: CUSP_SPIKE_FACTOR times the
# median turn, and CUSP_MIN_TURN radians
CUSP_SPIKE_FACTOR = 6.0
CUSP_MIN_TURN = 0.35


# -- result containers ---------------------------------------------------------


@dataclass
class ScanSample:
    tau: tuple
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
    """Sorted label-change angles and the coarse samples between them."""
    angles: list
    samples: list  # coarse samples as (theta_deg, label of their sector)
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


def sector_anchors(family: SurfaceFamily) -> tuple:
    """Boundary directions of the three undeformed vertex-set branches.

    The vertex set at tau = 0 consists of three lines through the origin;
    their six boundary crossings on the working circle (``WORK_RADIUS``,
    traced at ``WORK_RESOLUTION``) anchor the sector indexing every
    pairing label refers to.  Cached on the family.
    """
    key = ("sector_anchors", WORK_RADIUS, WORK_RESOLUTION)
    cached = family.cache.get(key)
    if cached is not None:
        return cached
    v0 = build_vertex_function(family).at_zero()
    analysis = analyze_vertex_set(v0, radius=WORK_RADIUS, resolution=WORK_RESOLUTION)
    hits = boundary_crossings(analysis.trace.curves)
    if len(hits) != 6:
        raise UnresolvedTopologyError(
            f"undeformed vertex set crosses the working circle {len(hits)} "
            f"times, expected 6"
        )
    anchors = tuple(sorted(wrap_angle(h) for h in hits))
    family.cache[key] = anchors
    return anchors


def classify_at(family: SurfaceFamily, tau):
    """Pairing label of the deformed vertex set at one parameter value.

    Anchors and the sample are traced at the same working radius so the
    nearest-anchor matching stays consistent.
    """
    anchors = sector_anchors(family)
    v = build_vertex_function(family).substitute_params(tuple(tau))
    analysis = analyze_vertex_set(v, radius=WORK_RADIUS, resolution=WORK_RESOLUTION)
    return classify_pairing(analysis.branches, anchors)


# -- discriminant angles --------------------------------------------------------


def discriminant_angles(family: SurfaceFamily, r_param: float = 0.03, *,
                        coarse_deg: float = 2.0, refine_deg: float = 0.1) -> DiscriminantScan:
    """Angles where the pairing label changes on the circle |tau| = r_param.

    The label changes where the vertex set through the umbilic has a node,
    (V, V_x, V_y) = 0.  Near the umbilic the six nodes leave along the rays
    of the jet model (``jet_nodes``); each is continued in r, all six in one
    ``_newton_xyt`` solve over (x, y, theta) with tau = r (cos theta,
    sin theta) per rung of the ladder r = r_param / 16 * 1.5^j, ended at
    r_param, each rung seeded by the previous solution scaled by the ratio
    of radii.  A rung with an unsolved row raises NumericError naming its
    radius and the Newton step counts; so do two nodes at one angle.

    ``classify_at`` labels each sector at its midpoint; a non-split sector,
    or a node between two sectors of one label, raises
    UnresolvedTopologyError.  ``samples`` holds every multiple of
    ``coarse_deg`` with its sector's label, except those within 1e-9 deg of
    an angle, which are skipped as lying on a label change.
    ``refine_deg`` has no effect on the result; it is validated and
    recorded for configs written for the earlier bisection.
    """
    if r_param <= 0:
        raise InputError("r_param must be positive")
    if not 0 < refine_deg <= coarse_deg:
        raise InputError("need 0 < refine_deg <= coarse_deg")

    def circle(r):
        return lambda t: ((r * math.cos(t), r * math.sin(t)), (-r * math.sin(t), r * math.cos(t)))

    vp = build_vertex_function(family)
    polys = [vp, vp.diff("x"), vp.diff("y")]
    jets = jet_nodes(family)
    r = r_param / 16.0
    state = np.column_stack([r * jets.points,
                             np.arctan2(jets.directions[:, 1], jets.directions[:, 0])])
    while True:
        state, solved, steps, _ = _newton_xyt(polys, circle(r), state, max_iter=30,
                                              max_step=0.5 * r + 0.1)
        if not solved.all():
            raise NumericError(f"node continuation failed on the circle |tau| = {r:.6g}: "
                               f"Newton steps {steps.tolist()}, solved {solved.tolist()}")
        if r == r_param:
            break
        grown = min(1.5 * r, r_param)
        state[:, :2] *= grown / r
        r = grown
    degs = (np.degrees(state[:, 2]) % 360.0).tolist()
    angles = sorted(0.0 if d == 360.0 else d for d in degs)
    if np.diff(angles + [angles[0] + 360.0]).min() <= 1e-9:
        raise NumericError(f"two node continuations end at one angle: {angles} deg")

    # sector i runs from angles[i - 1] to angles[i]
    mids = [0.5 * (angles[i - 1] + angles[i] + 360.0 * (i == 0)) % 360.0
            for i in range(len(angles))]
    labels = []
    for m in mids:
        lab = classify_at(family, circle(r_param)(math.radians(m))[0])
        if lab.kind != "split":
            raise UnresolvedTopologyError(
                f"non-split configuration at the sector midpoint theta = {m:.2f} deg")
        labels.append(lab.label)
    for i, a in enumerate(angles):
        if labels[i] == labels[(i + 1) % len(labels)]:
            raise UnresolvedTopologyError(
                f"label {labels[i]} on both sides of the node at theta = {a:.3f} deg")

    samples: list = []
    skipped: list = []
    for th in np.arange(0.0, 360.0, coarse_deg).tolist():
        if any(abs((th - a + 180.0) % 360.0 - 180.0) <= 1e-9 for a in angles):
            skipped.append((th, "on a label change"))
        else:
            samples.append((th, labels[bisect.bisect_right(angles, th) % len(labels)]))

    metadata = {"family": repr(family), "coarse_deg": coarse_deg, "r_param": r_param,
                "radius": WORK_RADIUS, "resolution": WORK_RESOLUTION,
                "refine_deg": refine_deg}
    return DiscriminantScan(angles=angles, samples=samples,
                            skipped=skipped, metadata=metadata)


# -- one-parameter pairing flip ---------------------------------------------------


def pairing_flip_1param(family: SurfaceFamily, theta_deg: float,
                        t0: float = 0.03) -> PairingFlip:
    """Pairing labels at the two ends of the path tau = t*(cos, sin), |t| <= t0.

    The direction must keep at least ``FLIP_MIN_SEP_DEG`` away from the
    discriminant tangent directions (multiples of 60 degrees); crossing the
    umbilic along such a path shifts the pairing label by exactly three
    sectors, and a violation raises.
    """
    if t0 <= 0:
        raise InputError("t0 must be positive")
    if _dist_to_multiple(theta_deg) < FLIP_MIN_SEP_DEG:
        raise InputError(
            f"direction {theta_deg} deg is within {FLIP_MIN_SEP_DEG} deg of a "
            f"discriminant tangent line"
        )
    th = math.radians(theta_deg)
    u = (math.cos(th), math.sin(th))
    lab_m = classify_at(family, (-t0 * u[0], -t0 * u[1]))
    lab_p = classify_at(family, (t0 * u[0], t0 * u[1]))
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
                rel_tol: float = 1e-4) -> ScanResult:
    """Transition level k* at each parameter sample, with k*/r^2 diagnostics.

    Samples must avoid the discriminant tangent directions by
    ``KSTAR_MARGIN_DEG`` and may not include the umbilic itself; those are
    precondition violations.  Per-sample numerical failures are recorded in
    the sample instead of raised.
    """
    taus = [tuple(float(v) for v in t) for t in taus]
    for t in taus:
        r = math.hypot(*t)
        if r == 0.0:
            raise InputError("the umbilic tau = (0, 0) has no transition level")
        theta = math.degrees(math.atan2(t[1], t[0]))
        if _dist_to_multiple(theta) < KSTAR_MARGIN_DEG:
            raise InputError(
                f"sample {t} lies within {KSTAR_MARGIN_DEG} deg of a discriminant "
                f"tangent direction"
            )
    samples = []
    q_by_angle: dict = {}
    for t in taus:
        r = math.hypot(*t)
        theta = math.degrees(math.atan2(t[1], t[0])) % 360.0
        k_range = (KSTAR_BRACKET[0] * r * r, KSTAR_BRACKET[1] * r * r)
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
                "rel_tol": rel_tol, "margin_deg": KSTAR_MARGIN_DEG,
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
        folds, i = LevelAnalyzer(family.f_at((r * u[0], r * u[1])))._transition_fold(
            *(b * r * r for b in KSTAR_BRACKET), resolution)
        return math.log(folds[i].level / k)

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
                bisect_steps: int = 20) -> CupSection:
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
        idx = detect_polyline_cusps(pts)
        cusp_angles = [float(fan_angles[i]) for i in idx]
    metadata = {"family": repr(family), "k": k, "r_max": r_max, "fan": fan,
                "r_min": r_min, "resolution": resolution, "r_tol": r_tol,
                "counts": "k*(r u) = k: 6 vertices inside, 4 outside"}
    return CupSection(k=k, locus=locus, cusp_angles=sorted(cusp_angles),
                      fan_angles=fan_angles, radii=radii, failed=failed,
                      partial=partial, metadata=metadata)


def detect_polyline_cusps(pts: np.ndarray) -> list:
    """Indices of turning-angle spikes of a cyclic polyline.

    The turning angle at each point compares the incoming and outgoing
    segment directions; spikes above ``CUSP_SPIKE_FACTOR`` times the median
    and above ``CUSP_MIN_TURN`` radians mark cusps.  Adjacent spikes merge
    into one cusp at the largest turn.
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
    thresh = max(CUSP_SPIKE_FACTOR * med, CUSP_MIN_TURN)
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


def _newton_xyt(polys: list, path, seeds, *, max_iter: int,
                max_step: float) -> tuple:
    """Newton on (p_1, p_2, p_3) = 0 over (x, y, t) along a parameter path.

    ``path(t)`` gives tau(t) and dtau/dt, so the Jacobian's t column is
    sum_k dtau_k/dt dp/dtau_k; a line in tau has a unit dtau/dt, a circle a
    tangent one.  ``seeds`` are rows (x, y, t), solved in one batch: each
    Newton step takes the members p(., ., tau(t)) of every p at the rows
    (``ParamPoly.slices``, row r naming member r) and their x, y and
    parameter partials from one ``partials`` call each.  A row is solved
    when Newton converged and every |p| at the solution is at most
    1e-8 bound_on_disc(2 |(x, y)|) of the member there.  Returns the
    states, the solved flags, the step counts and the relative residuals
    |p| / bound_on_disc, one row each.
    """
    def members(states):
        tau, dtau = np.reshape([path(t) for t in states[:, 2]],
                               (-1, 2, polys[0].nparams)).transpose(1, 0, 2)
        rows = np.column_stack([states[:, :2], np.arange(len(states))])
        return [p.slices(tau) for p in polys], rows, dtau

    def system(states):
        fields, rows, dtau = members(states)
        vals, grads = zip(*(f.partials(rows, 1) for f in fields))
        J = [np.column_stack([g[:, :2], np.einsum("rk,rk->r", g[:, 2:], dtau)]) for g in grads]
        return np.column_stack(vals), np.stack(J, axis=1)

    state, converged, steps = newton(system, np.reshape(seeds, (-1, 3)), tol=1e-15,
                                     max_iter=max_iter, max_step=max_step)
    fields, rows, _ = members(state)
    radius = 2.0 * np.hypot(state[:, 0], state[:, 1])
    rel = np.column_stack([np.abs(f.partials(rows, 0)[0])
                           / np.maximum(f.bound_on_disc(radius), 1e-300) for f in fields])
    return state, converged & (rel <= 1e-8).all(axis=1), steps, rel


def _solve_on_line(family: SurfaceFamily, polys: list, tau, free_param: int, seed,
                   max_iter: int, what: str) -> tuple:
    """``_newton_xyt`` on the line where component ``free_param`` of tau
    is free, from (x, y) = ``seed``, by default the node of the jet model
    at tau = (lam, 0), (0, 2 c4 lam / (3 c5)) (``jet_nodes``).  Returns x,
    y, the parameters, the steps and the relative residuals; a row that is
    not solved raises NumericError naming ``what``.
    """
    tau = tuple(float(v) for v in tau)
    if not 0 <= free_param < polys[0].nparams:
        raise InputError("free_param out of range")
    if seed is None:
        if free_param != 1 or tau[0] == 0.0:
            raise InputError("no default seed for this configuration; pass one")
        jets = jet_nodes(family)
        seed = (0.0, tau[0] / float(3 * jets.c5 / (2 * jets.c4)))
    unit = tuple(float(k == free_param) for k in range(len(tau)))

    def line(t):
        return tau[:free_param] + (t,) + tau[free_param + 1:], unit

    state, solved, steps, rel = _newton_xyt(
        polys, line, [(seed[0], seed[1], tau[free_param])], max_iter=max_iter,
        max_step=0.5 * max(abs(tau[0]), abs(tau[1]), 1e-6) + 0.1)
    if not solved[0]:
        raise NumericError(f"{what} iteration failed after {steps[0]} steps: "
                           f"relative residuals {rel[0].tolist()}")
    x, y, t = state[0].tolist()
    return x, y, line(t)[0], int(steps[0]), rel[0]


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
    jet model at tau = (lam, 0), (0, 2 c4 lam / (3 c5)), is used, which
    covers families normalized so the free parameter is the second one.
    """
    vp = build_vertex_function(family)
    x, y, params, iterations, _ = _solve_on_line(family, [vp, vp.diff("x"), vp.diff("y")],
                                                 tau, free_param, seed, max_iter, "node")
    v = vp.substitute_params(params)
    vres = abs(v.eval(x, y))
    gres = math.hypot(v.diff("x").eval(x, y), v.diff("y").eval(x, y))
    k_si, record = _classify_on_level(family, x, y, params)
    return SelfIntersection(point=(x, y), tau=tuple(params), level=k_si,
                            record=record, vertex_residual=float(vres),
                            grad_residual=float(gres), iterations=iterations)


def two_degenerate_vertex(family: SurfaceFamily, tau, *, free_param: int = 1,
                          seed=None, max_iter: int = 60) -> DegenerateVertexPoint:
    """Point and parameter where a level curve has an exactly 2-degenerate vertex.

    Newton iteration on the first three tangential curvature derivative
    numerators over (x, y, t), with t replacing component ``free_param`` of
    tau; the chain is built once per family, in floats from the family's
    coefficients.  The solution is the cuspidal configuration at which three
    vertices of the transition collapse at once; it coincides with the
    vertex-set self-intersection up to corrections of higher order in tau,
    so the two solvers cross-validate each other.
    """
    key = "kappa_chain_3"
    chain = family.cache.get(key)
    if chain is None:
        f = family.f._with({k: float(c) for k, c in family.f.terms.items()})
        chain = family.cache[key] = kappa_derivative_polys(f, 3)
    polys = [chain[1][0], chain[2][0], chain[3][0]]
    x, y, params, iterations, residuals = _solve_on_line(family, polys, tau, free_param,
                                                         seed, max_iter, "degenerate-vertex")
    k_si, record = _classify_on_level(family, x, y, params)
    return DegenerateVertexPoint(point=(x, y), tau=tuple(params), level=k_si,
                                 record=record, residuals=tuple(residuals.tolist()),
                                 iterations=iterations)
