"""Vertex censuses of individual level curves, and the levels where they change.

A vertex of a level curve of f is a point where the arclength derivative
of the curve's curvature vanishes, i.e. where the vertex function V of f
meets the curve.  For a fixed surface this module locates vertices level
by level: trace f = k, find sign changes of V along the traced curve,
sharpen all of them at once by a bracketed secant search along the level
and a joint Newton iteration on (f - k, V), and classify every vertex by
curvature value, extremum type, and degeneracy.  Degeneracy uses the exact
tangential derivative chain of the curvature by default, with an
independent finite-difference probe available for cross-checking.

The count changes at a fold of f on V = 0, where a level curve touches
the vertex set: a common zero of V and W = V_y f_x - V_x f_y, found by
the census's polishing step on the sign changes of W along V = 0.  The
transition level k* is the lowest birth fold, confirmed by two censuses.

An analyzer builds f and V when it is created.  The curvature numerator
P_0 (all a count needs), the order-4 derivative chain and W are built on
first use, by a census, by classification and by ``folds``.  Each level is
traced at most once, in a disc sized from the sign of f - k on its
boundary circle; classification takes its derivative scales from that
same trace, and ``folds`` traces only V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateLevelError,
    InputError,
    NoTransitionError,
    NumericError,
)
from .poly import BivarPoly
from .tracer import (GRAD_FLOOR, PolyField, critical_system,
                     distinct_rows, newton, polish_crossings,
                     project_to_zero_set, trace_zero_set)
from .vertexfn import kappa_derivative_polys, vertex_poly

DEG_TOL = 1e-4
FD_STEP_FACTOR = 1e-3
# vertex counts below and above the transition level k*
TRANSITION_COUNTS = (4, 6)


@dataclass(frozen=True)
class VertexRecord:
    """One vertex of one level curve.

    ``degeneracy`` is 0 for an ordinary vertex (second tangential curvature
    derivative nonzero), 1 when the second vanishes but the third does not,
    2 when the third also vanishes but the fourth does not, and
    "unresolved" when the first four derivatives all sit below threshold.
    ``extremum`` reads the first nonvanishing even derivative: "max", "min",
    or "none" for odd-order (inflection-like) vertices.
    """
    point: tuple
    level: float
    kappa: float
    degeneracy: int | str
    extremum: str


@dataclass
class LevelCensus:
    level: float
    vertex_count: int
    records: tuple
    closed: bool
    trace_radius: float
    residual_bound: float


@dataclass
class KStarResult:
    kstar: float
    merge_point: tuple
    bracket: tuple
    count_low: int
    count_high: int
    degeneracy: int | str


@dataclass(frozen=True)
class Fold:
    """A point where the level curve f = level touches {V = 0}; ``birth``
    marks a local minimum of f on V = 0, where two vertices are born."""
    point: tuple
    level: float
    birth: bool


@dataclass(frozen=True)
class CriticalPoint:
    point: tuple
    value: float
    kind: str  # "min" | "max" | "saddle"


class LevelAnalyzer:
    """Shared exact machinery for all level censuses of one surface.

    Built up front: f (``field_f``) and the vertex function V (``vpoly``,
    ``field_v``).  Built on first use and then kept: the curvature
    numerator P_0 (needed to count), the order-4 tangential derivative
    chain ``kappa_polys`` (needed to classify vertices) and the tangency
    polynomial W (``wpoly``, ``field_w``; needed to find folds).  A census
    with ``classify=False`` builds neither of the last two, and ``folds``
    builds no curvature polynomial.
    """

    def __init__(self, f: BivarPoly):
        if not isinstance(f, BivarPoly):
            raise InputError("LevelAnalyzer works on a single surface polynomial")
        self.f = f
        self.field_f = PolyField(f)
        self.vpoly = vertex_poly(f)
        self.field_v = PolyField(self.vpoly)
        q = f.homogeneous_part(2)
        qm = np.array([[float(q.coeff(2, 0)), float(q.coeff(1, 1)) / 2.0],
                       [float(q.coeff(1, 1)) / 2.0, float(q.coeff(0, 2))]])
        self.quad_eigs = tuple(np.linalg.eigvalsh(qm))

    @cached_property
    def _kappa0(self) -> list:
        """(P_0, e_0): the curvature alone, all a count needs."""
        return kappa_derivative_polys(self.f, 0)

    @cached_property
    def kappa_polys(self) -> list:
        """(P_j, e_j) for j = 0..4: see ``kappa_derivative_polys``."""
        return kappa_derivative_polys(self.f, 4)

    @cached_property
    def wpoly(self) -> BivarPoly:
        """W = V_y f_x - V_x f_y, the tangential derivative of V times |grad f|."""
        return (self.vpoly.diff("y") * self.f.diff("x")
                - self.vpoly.diff("x") * self.f.diff("y"))

    @cached_property
    def field_w(self) -> PolyField:
        return PolyField(self.wpoly)

    # -- curvature derivative evaluation -----------------------------------

    def kappa_derivatives(self, pts: np.ndarray, order: int = 4) -> np.ndarray:
        """kappa and tangential derivatives 1..order at points, columns j=0..order."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        g = self.field_f.grads(pts)
        g = np.maximum(np.einsum("ij,ij->i", g, g), GRAD_FLOOR ** 2)
        out = np.empty((len(pts), order + 1))
        chain = self._kappa0 if order == 0 else self.kappa_polys[:order + 1]
        for j, (p, e) in enumerate(chain):
            out[:, j] = p.eval_grid(pts[:, 0], pts[:, 1]) / g ** (e / 2.0)
        return out

    # -- tracing a level -----------------------------------------------------

    def _closing_radius(self, k: float, resolution: int, window: float) -> float:
        """Radius of the disc that closes the level curve f = k.

        Starts at 1.35 sqrt(k / e_min), or at the window where the quadratic
        part of f is not positive definite, and grows by 1.8, up to the
        window, while f - k changes sign on the boundary circle.  The circle
        is sampled at 4 * resolution points, finer than the lattice of a
        trace at that resolution.
        """
        e_min = self.quad_eigs[0]
        if e_min <= 0:
            return window
        if k <= 0:
            raise DegenerateLevelError(
                f"level {k} at or below the organizing minimum has no curve"
            )
        r = min(window, 1.35 * math.sqrt(k / e_min))
        theta = np.linspace(0.0, 2 * math.pi, 4 * resolution, endpoint=False)
        ring = np.column_stack([np.cos(theta), np.sin(theta)])
        while r < window:
            s = self.field_f.values(r * ring) >= k
            if s.all() or not s.any():
                break
            r = min(window, 1.8 * r)
        return r

    def trace_level(self, k: float, *, resolution: int = 384, window: float = 0.6):
        """Trace f = k once, in the disc ``_closing_radius`` picks."""
        return self._level_trace(float(k), resolution, window)[:2]

    def _level_trace(self, k: float, resolution: int, window: float) -> tuple:
        """``trace_level`` with the field of f - k it traced."""
        r = self._closing_radius(k, resolution, window)
        level = PolyField(self.f - k)
        tr = trace_zero_set(level, r, resolution)
        if not tr.curves:
            raise DegenerateLevelError(f"no level curve found for k={k} "
                                       f"within radius {r}")
        return tr, r, level

    # -- the census -----------------------------------------------------------

    def census(self, k: float, *, resolution: int = 384, window: float = 0.6,
               classify: bool = True) -> LevelCensus:
        """Count and classify the vertices of the level curve f = k."""
        return self._census_and_trace(k, resolution, window, classify)[0]

    def _census_and_trace(self, k: float, resolution: int, window: float,
                          classify: bool) -> tuple:
        """The census of f = k and the trace it counted on.  A census does
        not keep its trace: callers that hold many censuses would hold
        every traced point with them."""
        tr, radius, level = self._level_trace(float(k), resolution, window)
        vertices, _, vmax = _roots_along(tr.curves, level, self.field_v)
        if vmax < 1e-13 * max(self.field_v.bound_on_disc(radius)[0], 1e-300):
            raise DegenerateLevelError(
                "vertex function vanishes along the whole level curve; "
                "every point is a vertex"
            )
        records = self._records(vertices, k, tr.curves, classify)
        census = LevelCensus(level=k, vertex_count=len(records), records=records,
                             closed=all(c.closed for c in tr.curves),
                             trace_radius=radius,
                             residual_bound=max((c.residual_bound
                                                 for c in tr.curves), default=0.0))
        return census, tr

    def _records(self, pts: np.ndarray, k: float, curves: list, classify: bool) -> tuple:
        if not len(pts):
            return ()
        d = self.kappa_derivatives(pts, order=4 if classify else 0)
        if classify:
            scales = self._derivative_scales(curves)
            kinds = [_classify_from_derivatives(dp[1:], scales) for dp in d]
        else:
            kinds = [("unchecked", "none")] * len(pts)
        return tuple(VertexRecord(point=(float(p[0]), float(p[1])), level=k,
                                  kappa=float(dp[0]), degeneracy=deg, extremum=ext)
                     for p, dp, (deg, ext) in zip(pts, d, kinds))

    def _derivative_scales(self, curves: list) -> np.ndarray:
        """Typical magnitudes of derivatives 1..4 along a traced level curve:
        the medians of their absolute values over the traced points."""
        d = self.kappa_derivatives(np.vstack([c.points for c in curves]), order=4)
        return np.maximum(np.median(np.abs(d[:, 1:]), axis=0), 1e-300)

    # -- degeneracy classification -------------------------------------------

    def classify_vertex(self, point, level: float, *, method: str = "exact",
                        window: float = 0.6) -> VertexRecord:
        """Classify one vertex; ``method`` "exact" uses the derivative chain,
        "fd" differentiates the curvature along the curve numerically."""
        p = np.asarray(point, dtype=float)
        tr, radius = self.trace_level(level, window=window)
        scales = self._derivative_scales(tr.curves)
        if method == "exact":
            d = self.kappa_derivatives(p[None, :], order=4)[0]
            derivs = d[1:]
            kappa = float(d[0])
        elif method == "fd":
            kappa, derivs = self._fd_derivatives(p, level, radius)
        else:
            raise InputError(f"unknown classification method {method!r}")
        deg, extremum = _classify_from_derivatives(derivs, scales)
        return VertexRecord(point=(float(p[0]), float(p[1])), level=level,
                            kappa=kappa, degeneracy=deg, extremum=extremum)

    def _fd_derivatives(self, p: np.ndarray, k: float, radius: float):
        """Walk the level curve through p and fit curvature against arclength."""
        # the curve carries about three curvature oscillations, so one
        # oscillation spans roughly circumference / 3; step a small fraction
        circumference = 2 * math.pi * radius * 0.85
        h = FD_STEP_FACTOR * circumference / (6 * math.pi) * 40
        center = np.array(p, float)
        level = PolyField(self.f - k)
        sides = {}
        for direction in (1.0, -1.0):
            q = center.copy()
            walked = []
            for _ in range(4):
                g = self.field_f.grads(q[None, :])[0]
                t = np.array([-g[1], g[0]])
                t /= max(np.linalg.norm(t), 1e-300)
                q = project_to_zero_set(level, (q + direction * h * t)[None, :])[0][0]
                walked.append(q.copy())
            sides[direction] = walked
        ordered = list(reversed(sides[-1.0])) + [center] + sides[1.0]
        ss = [0.0]
        for a, b in zip(ordered[:-1], ordered[1:]):
            ss.append(ss[-1] + float(np.linalg.norm(b - a)))
        ss = np.array(ss) - ss[4]
        pts = np.array(ordered)
        kap = self.kappa_derivatives(pts, order=0)[:, 0]
        # degree-6 fit in arclength
        vmat = np.vander(ss, 7, increasing=True)
        coef, *_ = np.linalg.lstsq(vmat, kap, rcond=None)
        derivs = np.array([coef[j] * math.factorial(j) for j in range(1, 5)])
        return float(coef[0]), derivs

    # -- vertex count transitions -----------------------------------------------

    def folds(self, k_hi: float, *, resolution: int = 256,
              window: float = 0.6) -> list:
        """Folds of f on the vertex set {V = 0} below the level k_hi, by level.

        V = 0 is traced in the disc that closes the level curve f = k_hi
        (see ``_closing_radius``; the level itself is not traced), and the
        sign changes of W along it are polished on (V, W) = 0.  Rows that
        did not converge, or that sit on a critical point of f (where V and
        W vanish trivially), are dropped.
        """
        radius = self._closing_radius(float(k_hi), resolution, window)
        tr = trace_zero_set(self.field_v, radius, resolution)
        pts, ok, _ = _roots_along(tr.curves, self.field_v, self.field_w)
        levels, gf = self.field_f.partials(pts, 1)
        keep = ok & (np.einsum("ij,ij->i", gf, gf) > GRAD_FLOOR ** 2)
        pts, levels = pts[keep], levels[keep]
        gv, gw = self.field_v.grads(pts), self.field_w.grads(pts)
        births = gw[:, 0] * gv[:, 1] - gw[:, 1] * gv[:, 0] > 0
        return sorted((Fold(point=(float(p[0]), float(p[1])), level=float(lv),
                            birth=bool(b))
                       for p, lv, b in zip(pts, levels, births) if lv < k_hi),
                      key=lambda fd: fd.level)

    def _transition_fold(self, k_lo: float, k_hi: float, resolution: int,
                         window: float = 0.6) -> tuple:
        """The folds of f on V = 0 with levels in (k_lo, k_hi), by level, and
        the index among them of the lowest birth fold, the transition k*;
        NoTransitionError when there is none."""
        folds = [fd for fd in self.folds(k_hi, resolution=resolution,
                                         window=window) if fd.level > k_lo]
        i = next((i for i, fd in enumerate(folds) if fd.birth), None)
        if i is None:
            raise NoTransitionError(f"no birth fold of f on the vertex set in "
                                    f"[{k_lo:.3e}, {k_hi:.3e}]")
        return folds, i

    def count_transition(self, k_lo: float, k_hi: float, *, resolution: int = 256,
                         rel_tol: float = 1e-4, window: float = 0.6) -> KStarResult:
        """Find the level k* where the vertex count steps from 4 to 6.

        k* is the lowest birth fold of f on V = 0 in (k_lo, k_hi) (see
        ``folds``).  Two censuses confirm the counts, one at the geometric
        midpoint of k* and each neighbouring fold level (or k_lo, k_hi);
        they are the returned bracket.  A neighbouring fold within
        ``rel_tol`` relative of k* leaves no level between them a census
        can be trusted at, and raises DegenerateLevelError.
        """
        if not 0 < k_lo < k_hi:
            raise InputError("need 0 < k_lo < k_hi")
        folds, i = self._transition_fold(k_lo, k_hi, resolution, window)
        levels = [k_lo] + [fd.level for fd in folds] + [k_hi]
        lower, kstar, upper = levels[i:i + 3]
        if any(abs(fd.level / kstar - 1.0) < rel_tol
               for fd in folds[max(i - 1, 0):i + 2] if fd is not folds[i]):
            raise DegenerateLevelError(
                f"fold levels {lower:.9e}, {kstar:.9e}, {upper:.9e} are closer "
                f"than {rel_tol:g} relative")
        bracket = (math.sqrt(lower * kstar), math.sqrt(kstar * upper))
        seen = tuple(self.census(k, resolution=resolution, window=window,
                                 classify=False).vertex_count for k in bracket)
        if seen != TRANSITION_COUNTS:
            raise NoTransitionError(f"counts {seen} across the birth fold at "
                                    f"k = {kstar:.6e}, expected {TRANSITION_COUNTS}")
        rec = self.classify_vertex(folds[i].point, kstar, window=window)
        return KStarResult(kstar=kstar, merge_point=folds[i].point,
                           bracket=bracket, count_low=TRANSITION_COUNTS[0],
                           count_high=TRANSITION_COUNTS[1], degeneracy=rec.degeneracy)

    # -- critical points of the surface ------------------------------------------

    def critical_points(self, window: float = 0.6, *, seeds: int = 21) -> list:
        """Nondegenerate critical points of f inside the window square.

        Newton on grad f = 0 runs from every point of a seeds x seeds grid;
        a seed counts when its iteration converges inside the window with
        |grad f| < 1e-10, and the first seed (row-major) to land within
        1e-8 of a critical point names it.
        """
        xs = np.linspace(-window, window, seeds)
        grid = np.column_stack([np.repeat(xs, len(xs)), np.tile(xs, len(xs))])
        p, ok, _ = newton(critical_system(self.field_f), grid, tol=1e-15, max_iter=30,
                          max_step=0.5 * window)
        value, grad, hess = self.field_f.partials(p, 2)
        ok &= (np.linalg.norm(grad, axis=1) < 1e-10) & (np.abs(p).max(axis=1) <= window)
        p, value, hess = p[ok], value[ok], hess[ok]
        found: list[CriticalPoint] = []
        for i in distinct_rows(p, 1e-8):
            (x, y), h = p[i], hess[i]
            det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
            if det < 0:
                kind = "saddle"
            elif h[0, 0] + h[1, 1] > 0:
                kind = "min"
            else:
                kind = "max"
            found.append(CriticalPoint(point=(float(x), float(y)),
                                       value=float(value[i]), kind=kind))
        found.sort(key=lambda c: abs(c.value))
        return found


def _roots_along(curves: list, field_a: PolyField, field_b: PolyField) -> tuple:
    """Sign changes of B along the traced curves of A = 0, polished on
    (A, B) = 0 and deduped: the points, their convergence flags, and the
    largest |B| at the curve points."""
    bmax = 0.0
    starts, ends = [np.zeros((0, 2))], [np.zeros((0, 2))]
    for c in curves:
        pts = c.polyline()
        bb = field_b.values(pts)
        bmax = max(bmax, float(np.abs(bb).max()))
        s = np.where(bb >= 0.0, 1, -1)
        i = np.flatnonzero(s[:-1] * s[1:] < 0)
        starts.append(pts[i])
        ends.append(pts[i + 1])
    pts, ok = polish_crossings(field_a, field_b, np.vstack(starts),
                               np.vstack(ends), tol=1e-14, max_iter=12)
    keep = distinct_rows(pts, 1e-11)
    return pts[keep], ok[keep], bmax


def _classify_from_derivatives(derivs: np.ndarray, scales: np.ndarray) -> tuple:
    """Degeneracy and extremum type from tangential derivatives 1..4."""
    small = [abs(float(derivs[j])) < DEG_TOL * float(scales[j])
             for j in range(4)]
    if not small[1]:
        deg = 0
    elif not small[2]:
        deg = 1
    elif not small[3]:
        deg = 2
    else:
        return "unresolved", "none"
    if deg == 0:
        extremum = "max" if derivs[1] < 0 else "min"
    elif deg == 2:
        extremum = "max" if derivs[3] < 0 else "min"
    else:
        extremum = "none"
    return deg, extremum


@dataclass
class CensusSweep:
    censuses: list
    errors: list


def vertex_census_sweep(analyzer: LevelAnalyzer, levels, **kwargs) -> CensusSweep:
    """Census many levels, collecting per-level failures instead of raising."""
    out = []
    errors = []
    for k in levels:
        try:
            out.append(analyzer.census(float(k), **kwargs))
        except (DegenerateLevelError, NumericError) as e:
            errors.append((float(k), f"{type(e).__name__}: {e}"))
    return CensusSweep(censuses=out, errors=errors)
