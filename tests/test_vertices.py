import math
from fractions import Fraction

import numpy as np
import pytest

from vertexset.errors import (
    DegenerateLevelError,
    InputError,
    NoTransitionError,
)
from vertexset.poly import BivarPoly
from vertexset.surface import make_canonical_family
from vertexset.tracer import PolyField, intersect_curves, trace_zero_set
from vertexset import vertices
from vertexset.vertices import LevelAnalyzer, vertex_census_sweep

ELLIPSE = BivarPoly({(2, 0): Fraction(1, 4), (0, 2): Fraction(1)})
CIRCLE = BivarPoly({(2, 0): Fraction(1), (0, 2): Fraction(1)})

# transition level for the (1,0,2) family at (0.05, 0.02), polished on the
# tangency system; frozen from a converged run
KSTAR_05_02 = 6.81571725e-04
# saddle of the same family at (0.05, 0): nearest positive critical value
SADDLE_05_0 = (-0.046272, -0.301243, 0.02948599)


@pytest.fixture(scope="module")
def ellipse():
    return LevelAnalyzer(ELLIPSE)


@pytest.fixture(scope="module")
def deformed():
    return LevelAnalyzer(make_canonical_family(1, 0, 2).f_at((0.05, 0.02)))


class TestCensus:
    def test_ellipse_four_vertices(self, ellipse):
        c = ellipse.census(1.0, window=3.0)
        assert c.vertex_count == 4
        assert c.closed
        pts = sorted((round(x, 6), round(y, 6)) for x, y in
                     (r.point for r in c.records))
        assert pts == [(-2.0, 0.0), (0.0, -1.0), (0.0, 1.0), (2.0, 0.0)]
        for r in c.records:
            x, y = r.point
            if abs(x) > 1:
                assert abs(r.kappa - 2.0) < 1e-9
                assert r.extremum == "max"
            else:
                assert abs(r.kappa - 0.25) < 1e-9
                assert r.extremum == "min"
            assert r.degeneracy == 0

    def test_ellipse_vertex_residuals(self, ellipse):
        c = ellipse.census(1.0, window=3.0)
        for r in c.records:
            x, y = r.point
            assert abs(ellipse.field_f.value(x, y) - 1.0) < 1e-12
            assert abs(ellipse.field_v.value(x, y)) < 1e-9

    def test_circle_everywhere_vertex(self):
        with pytest.raises(DegenerateLevelError):
            LevelAnalyzer(CIRCLE).census(1.0, window=2.0)

    def test_nonpositive_level(self, ellipse):
        with pytest.raises(DegenerateLevelError):
            ellipse.census(0.0)
        with pytest.raises(DegenerateLevelError):
            ellipse.census(-0.5)

    def test_level_outside_window(self, ellipse):
        with pytest.raises(DegenerateLevelError):
            ellipse.census(1.0, window=0.6)

    def test_umbilic_level_has_six_vertices(self):
        la = LevelAnalyzer(make_canonical_family(1, 0, 2).f_at((0.0, 0.0)))
        c = la.census(1e-3)
        assert c.vertex_count == 6
        assert c.closed
        exts = [r.extremum for r in c.records]
        assert exts.count("max") == 3
        assert exts.count("min") == 3

    def test_counts_straddle_transition(self, deformed):
        assert deformed.census(KSTAR_05_02 * 0.5, classify=False).vertex_count == 4
        assert deformed.census(KSTAR_05_02 * 2.0, classify=False).vertex_count == 6

    def test_bracket_keeps_merging_pair_apart(self, deformed):
        # just above k* two vertices of the level curve are about to merge;
        # each sign change of V keeps its own root through the polish
        below = deformed.census(KSTAR_05_02 * (1 - 1e-3), classify=False)
        above = deformed.census(KSTAR_05_02 * (1 + 1e-3), classify=False)
        assert below.vertex_count == 4
        assert above.vertex_count == 6
        pts = np.array([r.point for r in above.records])
        gaps = np.linalg.norm(pts[:, None] - pts[None], axis=2)
        gaps[np.diag_indices(6)] = np.inf
        i, j = np.unravel_index(np.argmin(gaps), gaps.shape)
        assert gaps[i, j] > 1e-11
        assert gaps[i, j] < 0.1 * np.delete(gaps[i], [i, j]).min()
        # both are common zeros of f - k and V, to 1e-12 in distance
        pair = pts[[i, j]]
        for field, value in ((deformed.field_f, above.level), (deformed.field_v, 0.0)):
            dist = (np.abs(field.values(pair) - value)
                    / np.linalg.norm(field.grads(pair), axis=1))
            assert dist.max() < 1e-12

    def test_count_even_for_closed(self, deformed):
        for k in (2e-4, 1e-3, 4e-3):
            c = deformed.census(k, classify=False)
            assert c.closed
            assert c.vertex_count % 2 == 0

    def test_extrema_alternate_along_curve(self, deformed):
        c = deformed.census(2e-3)
        recs = sorted(c.records,
                      key=lambda r: math.atan2(r.point[1], r.point[0]))
        exts = [r.extremum for r in recs]
        assert all(e in ("max", "min") for e in exts)
        for a, b in zip(exts, exts[1:] + exts[:1]):
            assert a != b

    def test_rotation_invariant_count(self):
        f = make_canonical_family(1, 0, 2).f_at((0.05, 0.02))
        base = LevelAnalyzer(f).census(2e-3, classify=False).vertex_count
        rot = LevelAnalyzer(f.rotate(0.7)).census(2e-3, classify=False).vertex_count
        assert rot == base == 6

    def test_census_matches_curve_intersection(self, deformed):
        k = 2e-3
        c = deformed.census(k, classify=False)
        level = PolyField(deformed.f - k)
        lc = trace_zero_set(level, c.trace_radius * 1.05, 384)
        vc = trace_zero_set(deformed.field_v, c.trace_radius * 1.05, 384)
        pts = intersect_curves(lc.curves, vc.curves, level, deformed.field_v)
        assert len(pts) == c.vertex_count
        census_pts = np.array([r.point for r in c.records])
        for p in pts:
            d = np.linalg.norm(census_pts - p, axis=1).min()
            assert d < 1e-8


class TestClassify:
    def test_fd_matches_exact_on_ellipse(self, ellipse):
        for m in ("exact", "fd"):
            r = ellipse.classify_vertex((2.0, 0.0), 1.0, method=m, window=3.0)
            assert r.degeneracy == 0
            assert r.extremum == "max"
            assert abs(r.kappa - 2.0) < 1e-6

    def test_unknown_method(self, ellipse):
        with pytest.raises(InputError):
            ellipse.classify_vertex((2.0, 0.0), 1.0, method="magic", window=3.0)

    def test_merge_vertex_degeneracy_one_both_methods(self, deformed):
        res = deformed.count_transition(1e-4, 1e-2)
        for m in ("exact", "fd"):
            r = deformed.classify_vertex(res.merge_point, res.kstar, method=m)
            assert r.degeneracy == 1, m
            assert r.extremum == "none"


class TestCountTransition:
    def test_kstar_value_frozen(self, deformed):
        res = deformed.count_transition(1e-4, 1e-2)
        assert res.polished
        assert abs(res.kstar - KSTAR_05_02) / KSTAR_05_02 < 1e-6
        assert res.count_low == 4
        assert res.count_high == 6
        assert res.degeneracy == 1

    def test_kstar_independent_of_resolution(self, deformed):
        a = deformed.count_transition(1e-4, 1e-2, resolution=256)
        b = deformed.count_transition(1e-4, 1e-2, resolution=320)
        assert abs(a.kstar - b.kstar) / a.kstar < 1e-9

    def test_merge_point_on_both_loci(self, deformed):
        res = deformed.count_transition(1e-4, 1e-2)
        x, y = res.merge_point
        assert abs(deformed.field_v.value(x, y)) < 1e-15
        assert abs(deformed.field_w.value(x, y)) < 1e-12
        assert abs(deformed.field_f.value(x, y) - res.kstar) < 1e-15

    def test_no_transition_in_flat_range(self, deformed):
        with pytest.raises(NoTransitionError):
            deformed.count_transition(1e-4, 2e-4)

    def test_bad_bracket(self, deformed):
        with pytest.raises(InputError):
            deformed.count_transition(1e-2, 1e-4)
        with pytest.raises(InputError):
            deformed.count_transition(-1e-3, 1e-2)

    def test_scaling_along_ray(self):
        fam = make_canonical_family(1, 0, 2)
        u = np.array([0.05, 0.02])
        u /= np.linalg.norm(u)
        ratios = []
        for r in (0.04, 0.02):
            la = LevelAnalyzer(fam.f_at(tuple(r * u)))
            res = la.count_transition(0.02 * r * r, 2.0 * r * r,
                                      resolution=256)
            ratios.append(res.kstar / r ** 2)
        assert max(ratios) / min(ratios) < 2.0


def _critical_points_reference(la, window, seeds=21):
    """One seed at a time: Newton on grad f with the Hessian evaluated term
    by term; (point, kind) in seed order, duplicates within 1e-8 dropped."""
    fx, fy = la.f.diff("x"), la.f.diff("y")
    hxx, hxy, hyy = fx.diff("x"), fx.diff("y"), fy.diff("y")

    def grad(p):
        return np.array([float(fx.eval(p[0], p[1])), float(fy.eval(p[0], p[1]))])

    def hess(p):
        b = float(hxy.eval(p[0], p[1]))
        return np.array([[float(hxx.eval(p[0], p[1])), b],
                         [b, float(hyy.eval(p[0], p[1]))]])

    xs = np.linspace(-window, window, seeds)
    found = []
    for x0 in xs:
        for y0 in xs:
            p = np.array([x0, y0])
            ok = False
            for _ in range(30):
                g = grad(p)
                if np.linalg.norm(g) < 1e-13:
                    ok = True
                    break
                h = hess(p)
                if abs(h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]) < 1e-300:
                    break
                delta = np.linalg.solve(h, -g)
                if np.linalg.norm(delta) > 0.5 * window:
                    break
                p = p + delta
                if np.linalg.norm(delta) < 1e-15:
                    ok = np.linalg.norm(grad(p)) < 1e-10
                    break
            if not ok or np.abs(p).max() > window:
                continue
            if any(np.linalg.norm(p - q) < 1e-8 for q, _ in found):
                continue
            h = hess(p)
            if h[0, 0] * h[1, 1] - h[0, 1] ** 2 < 0:
                kind = "saddle"
            else:
                kind = "min" if h[0, 0] + h[1, 1] > 0 else "max"
            found.append((p, kind))
    return found


class TestCriticalPoints:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_seed_reference(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (Fraction(int(v), 4) for v in rng.integers(-16, 17, 3))
        if b == c:
            c += 1
        th = rng.uniform(0.0, 2 * math.pi)
        r = rng.uniform(0.02, 0.08)
        la = LevelAnalyzer(make_canonical_family(a, b, c).f_at(
            (r * math.cos(th), r * math.sin(th))))
        got = la.critical_points(window=0.6)
        want = _critical_points_reference(la, 0.6)
        assert len(got) == len(want) >= 1
        for q, kind in want:
            (match,) = [cp for cp in got
                        if np.linalg.norm(np.array(cp.point) - q) < 1e-8]
            assert match.kind == kind
            assert np.abs(np.array(match.point) - q).max() <= 1e-12

    def test_deformed_critical_points(self):
        la = LevelAnalyzer(make_canonical_family(1, 0, 2).f_at((0.05, 0.0)))
        cps = la.critical_points(window=0.6)
        assert cps[0].kind == "min"
        assert abs(cps[0].value) < 1e-12
        assert np.hypot(*cps[0].point) < 1e-10
        sx, sy, sv = SADDLE_05_0
        saddles = [c for c in cps if c.kind == "saddle" and c.value > 0]
        s = min(saddles, key=lambda c: c.value)
        assert abs(s.value - sv) / sv < 1e-4
        assert abs(s.point[0] - sx) < 1e-4
        assert abs(s.point[1] - sy) < 1e-4

    def test_pure_quadratic_min_only(self):
        la = LevelAnalyzer(BivarPoly({(2, 0): Fraction(1), (0, 2): Fraction(2)}))
        cps = la.critical_points(window=0.5)
        assert len(cps) == 1
        assert cps[0].kind == "min"


class TestSweep:
    def test_errors_collected(self, deformed):
        sw = vertex_census_sweep(deformed, [2e-4, -1.0, 3e-3], classify=False)
        assert len(sw.censuses) == 2
        assert len(sw.errors) == 1
        assert sw.errors[0][0] == -1.0
        assert [c.vertex_count for c in sw.censuses] == [4, 6]

    def test_empty(self, deformed):
        sw = vertex_census_sweep(deformed, [])
        assert sw.censuses == []
        assert sw.errors == []

    def test_single_transition_in_ladder(self, deformed):
        # endpoints chosen so no ladder point sits on the transition itself
        ks = np.geomspace(KSTAR_05_02 / 3, KSTAR_05_02 * 5, 13)
        sw = vertex_census_sweep(deformed, ks, classify=False)
        counts = [c.vertex_count for c in sw.censuses]
        jumps = sum(1 for a, b in zip(counts, counts[1:]) if a != b)
        assert jumps == 1
        assert counts[0] == 4
        assert counts[-1] == 6


class TestAnalyzerValidation:
    def test_requires_bivar(self):
        with pytest.raises(InputError):
            LevelAnalyzer(make_canonical_family(1, 0, 2).f)

    def test_chain_matches_vertex_poly(self, ellipse):
        # first chain element pair: P1 is the vertex function itself;
        # exact coefficients make the identity exact
        p1, e1 = ellipse.kappa_polys[1]
        assert p1 == ellipse.vpoly
        assert e1 == 6


class TestLazyConstruction:
    def test_count_builds_no_chain_and_no_w(self, monkeypatch):
        orders = []
        build = vertices.kappa_derivative_polys

        def spy(f, order):
            orders.append(order)
            return build(f, order)

        monkeypatch.setattr(vertices, "kappa_derivative_polys", spy)
        la = LevelAnalyzer(make_canonical_family(1, 0, 2).f_at((0.05, 0.02)))
        counted = la.census(2e-3, classify=False)
        assert orders == [0]
        assert not {"kappa_polys", "wpoly", "field_w"} & set(vars(la))
        classified = la.census(2e-3)
        assert orders == [0, 4]
        assert "wpoly" not in vars(la)
        assert ([r.kappa for r in counted.records]
                == [r.kappa for r in classified.records])


def _polish_vertex_reference(la, pa, pb, k):
    """One crossing at a time: bisect the sign change of V along the level
    arc, projecting each midpoint onto f = k, then Newton on (f - k, V)."""
    def project(p):
        for _ in range(8):
            fv = la.field_f.value(p[0], p[1]) - k
            g = la.field_f.grads(p[None, :])[0]
            g2 = float(g @ g)
            if g2 < la.grad_floor ** 2:
                break
            p = p - (fv / g2) * g
            if abs(fv) / math.sqrt(g2) < 1e-14:
                break
        return p

    va = la.field_v.value(pa[0], pa[1])
    lo, hi = np.array(pa, float), np.array(pb, float)
    for _ in range(30):
        mid = project(0.5 * (lo + hi))
        if va * la.field_v.value(mid[0], mid[1]) <= 0:
            hi = mid
        else:
            lo = mid
    p = 0.5 * (lo + hi)
    for _ in range(12):
        fv = la.field_f.value(p[0], p[1]) - k
        vv = la.field_v.value(p[0], p[1])
        gf = la.field_f.grads(p[None, :])[0]
        gv = la.field_v.grads(p[None, :])[0]
        if abs(gf[0] * gv[1] - gf[1] * gv[0]) < 1e-300:
            break
        delta = np.linalg.solve(np.array([gf, gv]), -np.array([fv, vv]))
        p = p + delta
        if np.linalg.norm(delta) < 1e-14:
            break
    return p


class TestBatchedPolish:
    def test_matches_scalar_reference(self):
        fam = make_canonical_family(1, 0, 2)
        rng = np.random.default_rng(41)
        for _ in range(20):
            th = rng.uniform(0.0, 360.0)
            if min(th % 60.0, 60.0 - th % 60.0) < 8.0:
                th += 30.0
            r = rng.uniform(0.02, 0.06)
            tau = (r * math.cos(math.radians(th)), r * math.sin(math.radians(th)))
            k = float(np.exp(rng.uniform(np.log(2e-4), np.log(2e-3))))
            la = LevelAnalyzer(fam.f_at(tau))
            got = np.array([rec.point for rec in
                            la.census(k, resolution=256, classify=False).records])
            tr, _ = la.trace_level(k, resolution=256)
            want = []
            for c in tr.curves:
                pts = c.polyline()
                s = np.sign(la.field_v.values(pts) + 0.0)
                s[s == 0] = 1
                for i in np.flatnonzero(s[:-1] * s[1:] < 0):
                    p = _polish_vertex_reference(la, pts[i], pts[i + 1], k)
                    if all(np.linalg.norm(p - q) > 1e-11 for q in want):
                        want.append(p)
            assert got.shape == (len(want), 2), (tau, k)
            assert np.abs(got - np.array(want)).max() <= 1e-12, (tau, k)
