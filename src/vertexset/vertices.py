"""Vertex censuses of individual level curves.

A vertex of a level curve of f is a point where the arclength derivative
of the curve's curvature vanishes, i.e. where the vertex function V of f
meets the curve.  For a fixed surface this module locates vertices level
by level: trace f = k, find sign changes of V along the traced curve,
sharpen all of them at once by a bracketed secant search along the level
and a joint Newton iteration on (f - k, V), and classify every vertex by
curvature value, extremum type, and degeneracy.  Degeneracy uses the exact
tangential derivative chain of the curvature by default, with an
independent finite-difference probe available for cross-checking.  A
transition search finds the level k* at which the vertex count changes,
polishing the merge point on the tangency system (V, dV/ds).

An analyzer builds f, V, G = |grad f|^2 and the curvature numerator P_0
when it is created, which is all a count needs.  The order-4 derivative
chain and the tangency polynomial W = dV/ds * |grad f| are built on first
use, by classification and by the transition search.
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
from .tracer import (GRAD_FLOOR, TRACE_TOL, PolyField, critical_system,
                     dedupe_points, field_system, newton, polish_crossings,
                     project_to_zero_set, trace_zero_set)
from .vertexfn import kappa_derivative_polys, vertex_poly

DEG_TOL = 1e-4
FD_STEP_FACTOR = 1e-3


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
    polished: bool


@dataclass(frozen=True)
class CriticalPoint:
    point: tuple
    value: float
    kind: str  # "min" | "max" | "saddle"


class LevelAnalyzer:
    """Shared exact machinery for all level censuses of one surface.

    Built up front: f, the vertex function V (``vpoly``, ``field_v``),
    G = |grad f|^2 (``g_poly``) and the curvature numerator P_0.  Built on
    first use and then kept: the order-4 tangential derivative chain
    ``kappa_polys`` (needed to classify vertices) and the tangency
    polynomial W (``wpoly``, ``field_w``; needed to polish k*).  A census
    with ``classify=False`` builds neither.
    """

    def __init__(self, f: BivarPoly, *, grad_floor: float = GRAD_FLOOR):
        if not isinstance(f, BivarPoly):
            raise InputError("LevelAnalyzer works on a single surface polynomial")
        self.f = f
        self.grad_floor = grad_floor
        self.field_f = PolyField(f)
        self.vpoly = vertex_poly(f)
        self.field_v = PolyField(self.vpoly)
        self._kappa0 = kappa_derivative_polys(f, 0)
        self.g_poly = f.diff("x") ** 2 + f.diff("y") ** 2
        q = f.homogeneous_part(2)
        qm = np.array([[float(q.coeff(2, 0)), float(q.coeff(1, 1)) / 2.0],
                       [float(q.coeff(1, 1)) / 2.0, float(q.coeff(0, 2))]])
        self.quad_eigs = tuple(np.linalg.eigvalsh(qm))
        self._vertex_scale_cache: dict = {}

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
        g = self.g_poly.eval_grid(pts[:, 0], pts[:, 1])
        g = np.maximum(g, self.grad_floor ** 2)
        out = np.empty((len(pts), order + 1))
        chain = self._kappa0 if order == 0 else self.kappa_polys[:order + 1]
        for j, (p, e) in enumerate(chain):
            out[:, j] = p.eval_grid(pts[:, 0], pts[:, 1]) / g ** (e / 2.0)
        return out

    def _vertex_scale(self, radius: float) -> float:
        s = self._vertex_scale_cache.get(radius)
        if s is None:
            s = sum(abs(float(c)) * radius ** (i + j)
                    for (i, j), c in self.vpoly.terms.items())
            self._vertex_scale_cache[radius] = s
        return s

    # -- tracing a level -----------------------------------------------------

    def trace_level(self, k: float, *, resolution: int = 384,
                    window: float = 0.6, trace_tol: float = TRACE_TOL):
        """Trace f = k adaptively: grow the disc until the curve closes."""
        k = float(k)
        e_min = self.quad_eigs[0]
        if e_min > 0:
            if k <= 0:
                raise DegenerateLevelError(
                    f"level {k} at or below the organizing minimum has no curve"
                )
            r = min(window, 1.35 * math.sqrt(k / e_min))
        else:
            r = window
        level_poly = self.f - k
        tr = None
        while True:
            tr = trace_zero_set(PolyField(level_poly), r, resolution,
                                trace_tol=trace_tol)
            if not any(c.boundary_hits for c in tr.curves) and tr.curves:
                break
            if r >= window or not tr.curves:
                break
            r = min(window, 1.8 * r)
        if not tr.curves:
            raise DegenerateLevelError(f"no level curve found for k={k} "
                                       f"within radius {r}")
        return tr, r

    # -- the census -----------------------------------------------------------

    def census(self, k: float, *, resolution: int = 384, window: float = 0.6,
               deg_tol: float = DEG_TOL, trace_tol: float = TRACE_TOL,
               classify: bool = True) -> LevelCensus:
        """Count and classify the vertices of the level curve f = k."""
        tr, radius = self.trace_level(k, resolution=resolution, window=window,
                                      trace_tol=trace_tol)
        vmax = 0.0
        starts, ends = [], []
        for c in tr.curves:
            pts = c.polyline()
            vv = self.field_v.values(pts)
            vmax = max(vmax, float(np.abs(vv).max()))
            s = np.where(vv >= 0.0, 1, -1)
            i = np.flatnonzero(s[:-1] * s[1:] < 0)
            starts.append(pts[i])
            ends.append(pts[i + 1])
        if vmax < 1e-13 * max(self._vertex_scale(radius), 1e-300):
            raise DegenerateLevelError(
                "vertex function vanishes along the whole level curve; "
                "every point is a vertex"
            )
        vertices = polish_crossings(PolyField(self.f - k), self.field_v,
                                    np.vstack(starts), np.vstack(ends),
                                    tol=1e-14, max_iter=12,
                                    grad_floor=self.grad_floor)
        vertices = dedupe_points(vertices, 1e-11)
        records = self._records(vertices, k, radius, deg_tol, classify)
        return LevelCensus(level=k, vertex_count=len(records), records=records,
                           closed=all(c.closed for c in tr.curves),
                           trace_radius=radius,
                           residual_bound=max((c.residual_bound
                                               for c in tr.curves), default=0.0))

    def _records(self, pts: np.ndarray, k: float, radius: float, deg_tol: float,
                 classify: bool) -> tuple:
        if not len(pts):
            return ()
        d = self.kappa_derivatives(pts, order=4 if classify else 0)
        if classify:
            scales = self._derivative_scales(k, radius)
            kinds = [_classify_from_derivatives(dp[1:], scales, deg_tol) for dp in d]
        else:
            kinds = [("unchecked", "none")] * len(pts)
        return tuple(VertexRecord(point=(float(p[0]), float(p[1])), level=k,
                                  kappa=float(dp[0]), degeneracy=deg, extremum=ext)
                     for p, dp, (deg, ext) in zip(pts, d, kinds))

    def _derivative_scales(self, k: float, radius: float) -> np.ndarray:
        """Typical magnitudes of derivatives 1..4 along the level curve."""
        key = ("scales", k, radius)
        s = self._vertex_scale_cache.get(key)
        if s is not None:
            return s
        ring = np.linspace(0, 2 * math.pi, 96, endpoint=False)
        seeds = radius * 0.7 * np.column_stack([np.cos(ring), np.sin(ring)])
        q, _ = project_to_zero_set(PolyField(self.f - k), seeds,
                                   grad_floor=self.grad_floor)
        on = np.abs(self.field_f.values(q) - k) < 1e-9 * max(abs(k), 1e-9)
        if on.sum() < 8:
            raise NumericError("could not sample the level curve for scaling")
        d = self.kappa_derivatives(q[on], order=4)
        s = np.median(np.abs(d[:, 1:]), axis=0)
        s = np.maximum(s, 1e-300)
        self._vertex_scale_cache[key] = s
        return s

    # -- degeneracy classification -------------------------------------------

    def classify_vertex(self, point, level: float, *, method: str = "exact",
                        h_factor: float = FD_STEP_FACTOR,
                        deg_tol: float = DEG_TOL,
                        window: float = 0.6) -> VertexRecord:
        """Classify one vertex; ``method`` "exact" uses the derivative chain,
        "fd" differentiates the curvature along the curve numerically."""
        p = np.asarray(point, dtype=float)
        tr, radius = self.trace_level(level, window=window)
        scales = self._derivative_scales(level, radius)
        if method == "exact":
            d = self.kappa_derivatives(p[None, :], order=4)[0]
            derivs = d[1:]
            kappa = float(d[0])
        elif method == "fd":
            kappa, derivs = self._fd_derivatives(p, level, radius, h_factor)
        else:
            raise InputError(f"unknown classification method {method!r}")
        deg, extremum = _classify_from_derivatives(derivs, scales, deg_tol)
        return VertexRecord(point=(float(p[0]), float(p[1])), level=level,
                            kappa=kappa, degeneracy=deg, extremum=extremum)

    def _fd_derivatives(self, p: np.ndarray, k: float, radius: float,
                        h_factor: float):
        """Walk the level curve through p and fit curvature against arclength."""
        # the curve carries about three curvature oscillations, so one
        # oscillation spans roughly circumference / 3; step a small fraction
        circumference = 2 * math.pi * radius * 0.85
        h = max(h_factor, 1e-6) * circumference / (6 * math.pi) * 40
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
                q = project_to_zero_set(level, (q + direction * h * t)[None, :],
                                        grad_floor=self.grad_floor)[0][0]
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

    def count_transition(self, k_lo: float, k_hi: float, *,
                         counts: tuple = (4, 6), ladder: int = 49,
                         resolution: int = 256, rel_tol: float = 1e-4,
                         window: float = 0.6, deg_tol: float = DEG_TOL) -> KStarResult:
        """Find the level k* where the vertex count steps from counts[0] to [1].

        A geometric ladder locates a bracket, bisection narrows it to
        ``rel_tol`` relative width, and the merge point is polished on the
        tangency system (V = 0, dV/ds = 0); k* is then f at the merge point
        when Newton converges there and lands inside the bracket, otherwise
        the bisection midpoint.
        """
        if not 0 < k_lo < k_hi:
            raise InputError("need 0 < k_lo < k_hi")
        lo_c, hi_c = counts

        def count(k):
            try:
                return self.census(k, resolution=resolution, window=window,
                                   classify=False).vertex_count
            except DegenerateLevelError:
                return -1

        ks = np.geomspace(k_lo, k_hi, ladder)
        cs = [count(k) for k in ks]
        lo = hi = None
        for a, b, ca, cb in zip(ks, ks[1:], cs, cs[1:]):
            if ca == lo_c and cb == hi_c:
                lo, hi = a, b
                break
        if lo is None:
            raise NoTransitionError(
                f"no {lo_c} -> {hi_c} vertex count transition in "
                f"[{k_lo:.3e}, {k_hi:.3e}]; counts seen: {sorted(set(cs))}"
            )
        while hi / lo - 1.0 > rel_tol:
            mid = math.sqrt(lo * hi)
            if count(mid) <= lo_c:
                lo = mid
            else:
                hi = mid
        # the two nearest vertices just above the transition are the merging pair
        above = self.census(hi, resolution=resolution, window=window,
                            classify=False)
        pts = np.array([r.point for r in above.records])
        if len(pts) < 2:
            raise NumericError("transition bracket lost the merging pair")
        dd = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        dd[np.diag_indices(len(pts))] = np.inf
        i, j = np.unravel_index(np.argmin(dd), dd.shape)
        seed = 0.5 * (pts[i] + pts[j])
        p, converged, _ = newton(field_system(self.field_v, self.field_w),
                                 seed[None, :], tol=1e-14, max_iter=20,
                                 max_step=0.5)
        merge = p[0] if converged[0] else seed
        polished = False
        kstar = math.sqrt(lo * hi)
        if converged[0]:
            k_cand = self.field_f.value(merge[0], merge[1])
            if lo * (1 - 5 * rel_tol) <= k_cand <= hi * (1 + 5 * rel_tol):
                kstar = k_cand
                polished = True
        rec = self.classify_vertex(merge, kstar, deg_tol=deg_tol)
        return KStarResult(kstar=float(kstar),
                           merge_point=(float(merge[0]), float(merge[1])),
                           bracket=(float(lo), float(hi)),
                           count_low=lo_c, count_high=hi_c,
                           degeneracy=rec.degeneracy, polished=polished)

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
        system = critical_system(self.field_f)
        p, ok, _ = newton(system, grid, tol=1e-15, max_iter=30,
                          max_step=0.5 * window)
        grad, hess = system(p)
        ok &= (np.linalg.norm(grad, axis=1) < 1e-10) & (np.abs(p).max(axis=1) <= window)
        found: list[CriticalPoint] = []
        for q, h, v in zip(p[ok], hess[ok], self.field_f.values(p[ok])):
            if any(np.linalg.norm(q - np.array(c.point)) < 1e-8 for c in found):
                continue
            det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
            if det < 0:
                kind = "saddle"
            elif h[0, 0] + h[1, 1] > 0:
                kind = "min"
            else:
                kind = "max"
            found.append(CriticalPoint(point=(float(q[0]), float(q[1])),
                                       value=float(v), kind=kind))
        found.sort(key=lambda c: abs(c.value))
        return found


def _classify_from_derivatives(derivs: np.ndarray, scales: np.ndarray,
                               deg_tol: float) -> tuple:
    """Degeneracy and extremum type from tangential derivatives 1..4."""
    small = [abs(float(derivs[j])) < deg_tol * float(scales[j])
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
