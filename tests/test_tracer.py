import math
from fractions import Fraction

import numpy as np
import pytest

from vertexset.errors import InputError, InsufficientSamplingError
from vertexset.poly import BivarPoly
from vertexset.surface import make_canonical_family
from vertexset import tracer
from vertexset.tracer import (
    PolyField,
    analyze_vertex_set,
    boundary_crossings,
    classify_pairing,
    intersect_curves,
    origin_branches,
    trace_zero_set,
)
from vertexset.vertexfn import vertex_poly


def bp(terms):
    return BivarPoly({k: Fraction(v) for k, v in terms.items()})


CIRCLE = bp({(2, 0): 1, (0, 2): 1, (0, 0): -1})
XY = bp({(1, 1): 1})


class TestTraceZeroSet:
    def test_circle_closed_curve(self):
        tr = trace_zero_set(PolyField(CIRCLE), 1.5, 256)
        assert len(tr.curves) == 1
        c = tr.curves[0]
        assert c.closed
        assert not c.boundary_hits
        r = np.linalg.norm(c.points, axis=1)
        assert np.abs(r - 1.0).max() < 1e-9
        assert c.residual_bound < 1e-9

    def test_circle_tangent_orientation(self):
        # frame convention: tangent is (-Fy, Fx)/|grad F|, counterclockwise here
        tr = trace_zero_set(PolyField(CIRCLE), 1.5, 256)
        c = tr.curves[0]
        expected = np.column_stack([-c.points[:, 1], c.points[:, 0]])
        dots = np.einsum("ij,ij->i", c.tangents, expected)
        assert dots.min() > 0.99

    def test_circle_polyline_spacing_scales_with_resolution(self):
        steps = {}
        for n in (128, 512):
            tr = trace_zero_set(PolyField(CIRCLE), 1.5, n)
            p = tr.curves[0].points
            steps[n] = np.linalg.norm(np.diff(p, axis=0), axis=1).max()
        assert steps[512] < steps[128]

    def test_cross_field_hits_and_singular_point(self):
        # odd resolution keeps the origin strictly inside a cell, so the
        # crossing at the origin is reported as a singular point and the
        # four rays stay separate
        tr = trace_zero_set(PolyField(XY), 0.5, 255)
        hits = boundary_crossings(tr.curves)
        assert len(hits) == 4
        want = np.array([0.0, 90.0, 180.0, 270.0])
        got = np.degrees(sorted(hits)) % 360.0
        assert np.abs(np.sort(got) - want).max() < 0.5
        assert len(tr.singular_points) == 1
        assert np.linalg.norm(tr.singular_points[0]) < 1e-8

    def test_cross_field_even_resolution_passes_through(self):
        # even resolution puts the origin on a lattice point where F = 0
        # exactly; chains then run straight through, hits unchanged
        tr = trace_zero_set(PolyField(XY), 0.5, 256)
        hits = boundary_crossings(tr.curves)
        assert len(hits) == 4
        assert len(tr.curves) == 2

    @pytest.mark.parametrize("tau", [(0.0, 0.0), (0.05, 0.02)])
    def test_boundary_hits_on_curve_and_circle(self, tau):
        v = vertex_poly(make_canonical_family(1, 0, 2).f_at(tau))
        an = analyze_vertex_set(v, radius=0.1, resolution=384)
        field = an.field
        ends = []
        for c in an.trace.curves:
            for h in c.boundary_hits:
                (p,) = [q for q in (c.points[0], c.points[-1])
                        if math.atan2(q[1], q[0]) == h]
                ends.append(p)
        assert len(ends) == 6
        ends = np.array(ends)
        dist = np.abs(field.values(ends)) / np.linalg.norm(field.grads(ends), axis=1)
        assert dist.max() <= 1e-15
        assert np.abs(np.hypot(ends[:, 0], ends[:, 1]) - 0.1).max() <= 1e-15

    def test_resolution_validation(self):
        with pytest.raises(InputError):
            trace_zero_set(PolyField(CIRCLE), 1.5, 4)

    def test_radius_validation(self):
        with pytest.raises(InputError):
            trace_zero_set(PolyField(CIRCLE), -1.0, 128)

    def test_no_curve_outside_zero_set(self):
        # positive-definite field has empty zero set in the disc
        tr = trace_zero_set(PolyField(bp({(2, 0): 1, (0, 2): 1, (0, 0): 1})), 1.0, 128)
        assert tr.curves == []

    def test_residuals_reported_per_point(self):
        tr = trace_zero_set(PolyField(CIRCLE), 1.5, 128)
        c = tr.curves[0]
        assert len(c.residuals) == len(c.points)
        assert c.residuals.max() == c.residual_bound


class TestOriginBranches:
    @pytest.mark.parametrize("resolution", [255, 256])
    def test_cross_gives_two_orthogonal_branches(self, resolution):
        # covers both assembly paths: ray matching (odd) and pass-through (even)
        tr = trace_zero_set(PolyField(XY), 0.5, resolution)
        bs = origin_branches(tr.curves, 0.4)
        assert len(bs.branches) == 2
        assert not bs.loose_curves
        angles = sorted(math.degrees(b.line_angle) for b in bs.branches)
        assert abs(angles[0] - 0.0) < 0.5
        assert abs(angles[1] - 90.0) < 0.5

    def test_umbilic_branch_angles(self):
        # vertex set of the undeformed cubic normal form: three branches
        # near 30, 90, 150 degrees at this working radius
        fam = make_canonical_family(1, 0, 2)
        v = vertex_poly(fam.f_at((0.0, 0.0)))
        an = analyze_vertex_set(v, radius=0.25, resolution=512)
        assert len(an.branches.branches) == 3
        got = sorted(math.degrees(b.line_angle) for b in an.branches.branches)
        for a, w in zip(got, (30.0, 90.0, 150.0)):
            assert abs(a - w) < 1.0, (a, w)

    def test_local_tangents_match_slope_formula(self):
        lam, mu = 0.03, 0.012
        fam = make_canonical_family(1, 0, 2)
        v = vertex_poly(fam.f_at((lam, mu)))
        rho = math.hypot(lam, mu)
        an = analyze_vertex_set(v, radius=rho / 12, resolution=512,
                                r_fit=rho / 16)
        assert len(an.branches.branches) == 2
        s = math.sqrt(lam * lam + mu * mu)
        want = sorted(math.degrees(math.atan2((-lam + sgn * s), mu)) % 180.0
                      for sgn in (1, -1))
        got = sorted(math.degrees(b.line_angle) for b in an.branches.branches)
        for g, w in zip(got, want):
            assert abs(g - w) < 0.5, (got, want)
        # the two tangents are orthogonal
        diff = abs(got[0] - got[1])
        assert abs(diff - 90.0) < 0.5

    def test_insufficient_fit_points(self):
        tr = trace_zero_set(PolyField(XY), 0.5, 256)
        with pytest.raises(InsufficientSamplingError):
            origin_branches(tr.curves, 0.4, fit_min=10 ** 6)


@pytest.fixture(scope="module")
def anchors():
    fam = make_canonical_family(1, 0, 2)
    v = vertex_poly(fam.f_at((0.0, 0.0)))
    an = analyze_vertex_set(v, radius=0.1, resolution=384)
    hits = boundary_crossings(an.trace.curves)
    assert len(hits) == 6
    return hits


class TestClassifyPairing:
    def _branchset(self, tau):
        fam = make_canonical_family(1, 0, 2)
        v = vertex_poly(fam.f_at(tau))
        an = analyze_vertex_set(v, radius=0.1, resolution=384)
        return an.branches

    def test_umbilic_kind(self, anchors):
        bs = self._branchset((0.0, 0.0))
        lab = classify_pairing(bs, anchors)
        assert lab.kind == "umbilic"
        assert lab.label is None

    def test_split_kind_off_discriminant(self, anchors):
        t = 0.03
        lab = classify_pairing(
            self._branchset((t * math.cos(math.radians(20)),
                             t * math.sin(math.radians(20)))), anchors)
        assert lab.kind == "split"
        assert lab.label in range(6)

    def test_antipodal_flip_by_three(self, anchors):
        t = 0.03
        labs = []
        for th in (20.0, 200.0):
            bs = self._branchset((t * math.cos(math.radians(th)),
                                  t * math.sin(math.radians(th))))
            labs.append(classify_pairing(bs, anchors).label)
        assert (labs[0] - labs[1]) % 6 == 3

    def test_wrong_anchor_count(self, anchors):
        bs = self._branchset((0.0, 0.0))
        with pytest.raises(InputError):
            classify_pairing(bs, anchors[:4])


class TestNewton:
    @staticmethod
    def _system(p):
        # (x^2 - 2, y^2 - 9): J is singular on x = 0 and the first step from
        # x near 0 is long
        F = np.column_stack([p[:, 0] ** 2 - 2.0, p[:, 1] ** 2 - 9.0])
        J = np.zeros((len(p), 2, 2))
        J[:, 0, 0] = 2.0 * p[:, 0]
        J[:, 1, 1] = 2.0 * p[:, 1]
        return F, J

    def test_rows_stop_on_their_own(self):
        seeds = np.array([[1.0, 2.0], [0.0, 2.0], [1e-3, 2.0], [-5.0, -1.0]])
        x, converged, steps = tracer.newton(self._system, seeds, tol=1e-14,
                                            max_iter=30, max_step=10.0)
        assert converged.tolist() == [True, False, False, True]
        assert x[0] == pytest.approx([math.sqrt(2.0), 3.0], abs=1e-15)
        assert x[3] == pytest.approx([-math.sqrt(2.0), -3.0], abs=1e-15)
        # singular and over-long rows stop where they are, without a step
        assert np.array_equal(x[1:3], seeds[1:3])
        assert steps[1] == steps[2] == 0
        assert 3 <= steps[0] < 30 and 3 <= steps[3] < 30

    def test_iteration_cap(self):
        x, converged, steps = tracer.newton(self._system, [[1.0, 2.0]], tol=1e-14,
                                            max_iter=2)
        assert not converged[0]
        assert steps[0] == 2
        assert abs(x[0, 0] - math.sqrt(2.0)) < 1e-2


class TestIntersectCurves:
    def test_circle_meets_line(self):
        line = bp({(1, 0): 1, (0, 1): -1})
        fa, fb = PolyField(CIRCLE), PolyField(line)
        ca = trace_zero_set(fa, 1.5, 256).curves
        cb = trace_zero_set(fb, 1.5, 256).curves
        pts = intersect_curves(ca, cb, fa, fb)
        assert len(pts) == 2
        s = math.sqrt(0.5)
        got = sorted(map(tuple, pts))
        want = sorted([(-s, -s), (s, s)])
        for g, w in zip(got, want):
            assert abs(g[0] - w[0]) < 1e-10
            assert abs(g[1] - w[1]) < 1e-10

    def test_disjoint_curves(self):
        far = bp({(2, 0): 1, (0, 2): 1, (1, 0): -8, (0, 0): 15})  # circle at (4,0)
        fa, fb = PolyField(CIRCLE), PolyField(far)
        ca = trace_zero_set(fa, 1.5, 128).curves
        cb = trace_zero_set(fb, 6.0, 256).curves
        assert len(intersect_curves(ca, cb, fa, fb)) == 0

    def test_closing_segment_counts(self):
        # a line through the midpoint of the segment that closes the traced
        # circle's polyline crosses the circle there and once more opposite
        circle = bp({(2, 0): 1, (0, 2): 1, (0, 0): Fraction(-1, 4)})
        fa = PolyField(circle)
        (ca,) = trace_zero_set(fa, 1.0, 64).curves
        assert ca.closed
        mx, my = 0.5 * (ca.points[0] + ca.points[-1])
        fb = PolyField(BivarPoly({(1, 0): -float(my), (0, 1): float(mx)}))
        cb = trace_zero_set(fb, 1.0, 64).curves
        pts = intersect_curves([ca], cb, fa, fb)
        assert len(pts) == 2
        assert np.abs(np.hypot(pts[:, 0], pts[:, 1]) - 0.5).max() < 1e-12

    def test_near_tangent_pair(self):
        # a level curve just above its count transition meets the vertex set
        # in two points 1.7e-4 apart, closer than the grid step; Newton from
        # the two polyline crossings alone lands both on one of them
        fam = make_canonical_family(Fraction(3, 4), -1, Fraction(-1, 4))
        f = fam.f_at((0.021432741375017928, 0.00355657242573939))
        k = 0.0006892054136430523
        fa, fb = PolyField(f - k), PolyField(vertex_poly(f))
        radius = 0.037624186098137224
        ca = trace_zero_set(fa, radius, 384).curves
        cb = trace_zero_set(fb, radius, 384).curves
        pts = intersect_curves(ca, cb, fa, fb)
        assert len(pts) == 6
        gaps = np.linalg.norm(pts[:, None] - pts[None], axis=2)
        gaps[np.diag_indices(6)] = np.inf
        assert 1e-4 < gaps.min() < 2e-4


class TestGridIndependence:
    def test_umbilic_angles_stable_across_resolution(self):
        fam = make_canonical_family(1, 0, 2)
        v = vertex_poly(fam.f_at((0.0, 0.0)))
        got = {}
        for n in (256, 512):
            an = analyze_vertex_set(v, radius=0.25, resolution=n)
            got[n] = sorted(math.degrees(b.line_angle)
                            for b in an.branches.branches)
        for a, b in zip(got[256], got[512]):
            assert abs(a - b) < 0.5



def _reference_links(field, S, cross_x, cross_y, active, centers):
    """The per-cell linker: adjacency lists filled one cell at a time."""
    nx = int(cross_x.sum())
    ex_id = np.full(cross_x.shape, -1)
    ex_id[cross_x] = np.arange(nx)
    ey_id = np.full(cross_y.shape, -1)
    ey_id[cross_y] = nx + np.arange(int(cross_y.sum()))
    adj = [[] for _ in range(nx + int(cross_y.sum()))]

    def link(a, b):
        adj[a].append(b)
        adj[b].append(a)

    for ci, cj in np.argwhere(active):
        bottom = ex_id[ci, cj] if cross_x[ci, cj] else -1
        top = ex_id[ci, cj + 1] if cross_x[ci, cj + 1] else -1
        left = ey_id[ci, cj] if cross_y[ci, cj] else -1
        right = ey_id[ci + 1, cj] if cross_y[ci + 1, cj] else -1
        edges = [e for e in (bottom, top, left, right) if e >= 0]
        if len(edges) == 2:
            link(edges[0], edges[1])
        elif len(edges) == 4:
            s_center = field.value(centers[ci], centers[cj]) >= 0
            if s_center == S[ci, cj]:
                link(bottom, right)
                link(top, left)
            else:
                link(bottom, left)
                link(top, right)
    return adj


def _sign_grid(field, radius, n, exclude_radius=0.0):
    half = radius * (1.0 + 8.0 / n)
    xs = np.linspace(-half, half, n + 1)
    S = field.p.eval_lattice(xs, xs) >= 0.0
    cross_x = S[:-1, :] != S[1:, :]
    cross_y = S[:, :-1] != S[:, 1:]
    cnt = (cross_x[:, :-1].astype(int) + cross_x[:, 1:]
           + cross_y[:-1, :] + cross_y[1:, :])
    centers = 0.5 * (xs[:-1] + xs[1:])
    active = cnt >= 2
    if exclude_radius > 0:
        active &= centers[:, None] ** 2 + centers[None, :] ** 2 > exclude_radius ** 2
    return S, cross_x, cross_y, active, centers, int((cnt[active] == 4).sum())


def _level_field(seed):
    rng = np.random.default_rng(seed)
    th = rng.uniform(0.0, 2 * math.pi)
    r = rng.uniform(0.02, 0.06)
    f = make_canonical_family(1, 0, 2).f_at((r * math.cos(th), r * math.sin(th)))
    k = float(np.exp(rng.uniform(np.log(2e-4), np.log(2e-3))))
    return PolyField(f - k), 0.08, 0.0


def _vertex_field(seed):
    rng = np.random.default_rng(seed)
    th = rng.uniform(0.0, 2 * math.pi)
    r = rng.uniform(0.0, 0.05)
    f = make_canonical_family(1, 0, 2).f_at((r * math.cos(th), r * math.sin(th)))
    return PolyField(vertex_poly(f)), 0.1, 0.004


class TestLinkCells:
    @pytest.mark.parametrize("make, seed", [(_level_field, s) for s in range(4)]
                             + [(_vertex_field, s) for s in range(4)])
    def test_matches_per_cell_reference(self, make, seed):
        field, radius, exclude = make(seed)
        grid = _sign_grid(field, radius, 255, exclude)
        nbr = tracer._link_cells(field, *grid[:5])
        got = [[v for v in row if v >= 0] for row in nbr.tolist()]
        assert got == _reference_links(field, *grid[:5])

    @pytest.mark.parametrize("c", [0, Fraction(1, 10 ** 6), Fraction(-1, 10 ** 6)])
    @pytest.mark.parametrize("resolution", [63, 255])
    def test_four_crossing_cells_of_cross_field(self, resolution, c):
        # xy = c: at odd resolution the saddle sits inside the center cell,
        # whose four corners alternate in sign; the sign of c decides which
        # way the center-sign rule pairs its crossings
        field = PolyField(bp({(1, 1): 1, (0, 0): -c}))
        grid = _sign_grid(field, 0.5, resolution)
        assert grid[5] >= 1
        nbr = tracer._link_cells(field, *grid[:5])
        got = [[v for v in row if v >= 0] for row in nbr.tolist()]
        assert got == _reference_links(field, *grid[:5])
