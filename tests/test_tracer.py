import math
from fractions import Fraction

import numpy as np
import pytest

from vertexset.errors import InputError, InsufficientSamplingError
from vertexset.poly import BivarPoly
from vertexset.surface import make_canonical_family
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

