"""Parameter-plane behavior: sector pairing, discriminant directions, the
transition-level field, cup sections, and the self-intersection solvers."""

import bisect
import math
from fractions import Fraction

import numpy as np
import pytest

from vertexset import (
    InputError,
    LevelAnalyzer,
    NumericError,
    UnresolvedTopologyError,
    analyze_vertex_set,
    build_vertex_function,
    classify_at,
    cup_reference,
    cup_section,
    detect_polyline_cusps,
    discriminant_angles,
    kappa_derivative_polys,
    kstar_field,
    make_canonical_family,
    pairing_flip_1param,
    sector_anchors,
    two_degenerate_vertex,
    vertex_set_self_intersection,
)
from vertexset import bifurcation, poly
from vertexset.poly import BivarPoly, NVarPoly, ParamPoly

# frozen against this build; anchors at the default working circle R=0.1
ANCHORS_DEG = [-146.666, -94.888, -40.713, 28.347, 96.756, 156.545]

# split label per 60-degree sector of the parameter circle, |tau| = 0.03
SECTOR_LABELS = {30.0: 3, 90.0: 2, 150.0: 1, 210.0: 0, 270.0: 5, 330.0: 4}

# discriminant directions at r_param = 0.03 (drift past 60k shrinks with r)
SCAN_ANGLES_003 = [60.969, 121.438, 180.594, 239.031, 298.469, 359.414]

# discriminant angles at coarse_deg 6, frozen from the per-sample label
# sweep that bracketed the node solves before the saddle was tracked
ABC_102 = (1, 0, 2)
ABC_AXIS = (0, Fraction(-1, 2), Fraction(3, 2))
ABC_QUARTER = (Fraction(3, 4), Fraction(-5, 4), Fraction(1, 2))
SWEEP_ANGLES = {
    (ABC_102, 0.015): [60.46301962084493, 120.74205285635385, 180.29135116541468,
                       239.5294550607059, 299.2353173730005, 359.71820266307986],
    (ABC_102, 0.03): [60.91916512399555, 121.46274751083286, 180.5928569859583,
                      239.0506618307742, 298.44662314972044, 359.4454128692586],
    (ABC_AXIS, 0.015): [0.0, 60.41583136038337, 120.41121356650746, 180.0,
                        239.58878643349254, 299.5841686396167],
    (ABC_AXIS, 0.03): [0.0, 60.83643780541517, 120.81796165549054, 180.0,
                       239.1820383445095, 299.1635621945848],
    (ABC_QUARTER, 0.015): [59.81485475178929, 120.17528550181949, 180.3663419700274,
                           240.18453196337566, 299.8199090586234, 359.6412850773953],
    (ABC_QUARTER, 0.03): [59.62903390068564, 120.34595765041581, 180.74058761750823,
                          240.36851322835392, 299.63480938834897, 359.2899341731923],
}

# transition levels on the theta = 20 deg ray
KSTAR_RAY20 = {
    0.04: 3.7196257842190975e-04,
    0.02: 9.376697452435223e-05,
    0.01: 2.3537995931018765e-05,
}

# node of V = 0 over (x, y, mu) near tau = (0.05, 0)
NODE_POINT = (-0.00012035081791489544, 0.016626948481164548)
NODE_MU = -0.0007900519113054434
NODE_LEVEL = 0.0002718109619671812

# doubly degenerate vertex over (x, y, mu) near the same tau
A3_POINT = (-0.00011915509479398403, 0.01662694830173534)
A3_MU = -0.0007900519113395374
A3_LEVEL = 0.0002718109545011272


@pytest.fixture(scope="module")
def fam():
    return make_canonical_family(1, 0, 2)


@pytest.fixture(scope="module")
def families():
    return {abc: make_canonical_family(*abc) for abc in (ABC_102, ABC_AXIS, ABC_QUARTER)}


@pytest.fixture(scope="module")
def scan03(fam):
    return discriminant_angles(fam, 0.03)


def _label_sweep(family, r_param, coarse_deg):
    """The pairing label at every coarse theta, one ``classify_at`` each,
    None where it is not split: the sweep that once bracketed the flips."""
    labels = {}
    for th in np.arange(0.0, 360.0, coarse_deg).tolist():
        try:
            lab = classify_at(family, _dir(th, r_param))
            labels[th] = lab.label if lab.kind == "split" else None
        except UnresolvedTopologyError:
            labels[th] = None
    return labels


def _fixed_vertex_function(terms):
    """A stand-in for ``build_vertex_function``: the ParamPoly of ``terms``
    over (x, y, lam, mu), whatever the family."""
    return lambda family: ParamPoly(2, terms)


def _circ_dist(a, b):
    d = abs(a - b) % 360.0
    return min(d, 360.0 - d)


def _dir(theta_deg, r):
    th = math.radians(theta_deg)
    return (r * math.cos(th), r * math.sin(th))


class TestSectorAnchors:
    def test_six_sorted_anchors(self, fam):
        anchors = sector_anchors(fam)
        assert len(anchors) == 6
        assert list(anchors) == sorted(anchors)
        assert all(-math.pi < a <= math.pi for a in anchors)
        got = [math.degrees(a) for a in anchors]
        assert got == pytest.approx(ANCHORS_DEG, abs=0.1)

    def test_cached_on_family(self, fam):
        assert sector_anchors(fam) is sector_anchors(fam)

    def test_spacing(self, fam):
        deg = sorted(math.degrees(a) for a in sector_anchors(fam))
        gaps = [b - a for a, b in zip(deg, deg[1:])]
        gaps.append(360.0 + deg[0] - deg[-1])
        assert all(40.0 < g < 80.0 for g in gaps)


class TestClassifyAt:
    def test_umbilic_kind(self, fam):
        lab = classify_at(fam, (0.0, 0.0))
        assert lab.kind == "umbilic"
        assert lab.label is None

    def test_sector_labels(self, fam):
        got = {th: classify_at(fam, _dir(th, 0.03)) for th in SECTOR_LABELS}
        for th, lab in got.items():
            assert lab.kind == "split"
            assert lab.label == SECTOR_LABELS[th]
        # rotating tau by 120 degrees relabels sectors by -2
        for th in (30.0, 90.0):
            assert got[th + 120.0].label == (got[th].label - 2) % 6
            assert got[th + 240.0].label == (got[th].label - 4) % 6


class TestPairingFlip:
    def test_flip_20(self, fam):
        flip = pairing_flip_1param(fam, 20.0)
        assert (flip.label_minus, flip.label_plus) == (0, 3)

    def test_flip_80(self, fam):
        flip = pairing_flip_1param(fam, 80.0)
        assert (flip.label_minus, flip.label_plus) == (5, 2)
        assert flip.label_plus == (flip.label_minus + 3) % 6

    def test_near_discriminant_rejected(self, fam):
        with pytest.raises(InputError):
            pairing_flip_1param(fam, 60.0)
        with pytest.raises(InputError):
            pairing_flip_1param(fam, 55.0)

    def test_bad_t0(self, fam):
        with pytest.raises(InputError):
            pairing_flip_1param(fam, 20.0, 0.0)


class TestDiscriminantScan:
    def test_six_angles_near_multiples(self, scan03):
        assert len(scan03.angles) == 6
        assert scan03.angles == sorted(scan03.angles)
        devs = [min(a % 60.0, 60.0 - a % 60.0) for a in scan03.angles]
        assert max(devs) < 2.0
        assert scan03.angles == pytest.approx(SCAN_ANGLES_003, abs=0.2)

    def test_sector_labels_constant(self, scan03):
        # label depends only on which pair of scan angles brackets theta
        expected = [3, 2, 1, 0, 5, 4]
        for th, label in scan03.samples:
            sector = bisect.bisect_left(scan03.angles, th) % 6
            assert label == expected[sector], th

    def test_antipodal_shift(self, scan03):
        labels = dict(scan03.samples)
        for th in (20.0, 80.0, 140.0):
            assert labels[(th + 180.0) % 360.0] == (labels[th] + 3) % 6

    def test_angle_set_threefold(self, scan03):
        # full-family symmetry is asymptotic; at r_param = 0.03 the rotated
        # angle set matches itself to a few times the angle drift
        rolled = sorted((a + 120.0) % 360.0 for a in scan03.angles)
        dev = max(min(_circ_dist(a, b) for b in scan03.angles) for a in rolled)
        assert dev < 3.0

    def test_skips_reported(self, scan03):
        assert isinstance(scan03.skipped, list)
        assert len(scan03.skipped) < 12
        for th, reason in scan03.skipped:
            assert 0.0 <= th < 360.0
            assert isinstance(reason, str)

    def test_metadata_records_tolerances(self, scan03):
        for key in ("r_param", "radius", "resolution", "refine_deg"):
            assert key in scan03.metadata

    def test_angles_do_not_depend_on_the_coarse_step(self, fam, scan03):
        # the angles are solved nodes, not bisected grid points
        coarse6 = discriminant_angles(fam, 0.03, coarse_deg=6.0)
        assert coarse6.angles == pytest.approx(scan03.angles, abs=1e-9)

    def test_nodes_on_the_axis_when_a_is_zero(self, families):
        # this family's nodes lie exactly on theta = 0 and 180 deg, which
        # are coarse samples, so each must be bracketed once and skipped
        for coarse_deg in (2.0, 3.0, 6.0):
            scan = discriminant_angles(families[ABC_AXIS], 0.02, coarse_deg=coarse_deg)
            angles = scan.angles
            assert len(angles) == 6
            assert len({round(a / 60.0) % 6 for a in angles}) == 6
            assert all(0.0 <= a < 360.0 for a in angles)
            for want in (0.0, 180.0):
                assert min(_circ_dist(a, want) for a in angles) < 1e-9
            assert {0.0, 180.0} <= {th for th, _ in scan.skipped}

    @pytest.mark.parametrize("abc,r_param", list(SWEEP_ANGLES))
    def test_labels_match_the_per_sample_sweep(self, families, abc, r_param):
        scan = discriminant_angles(families[abc], r_param, coarse_deg=6.0)
        assert scan.angles == pytest.approx(SWEEP_ANGLES[abc, r_param], abs=1e-9)
        assert all(reason == "on a label change" for _, reason in scan.skipped)
        on_node = {th for th, _ in scan.skipped}
        reference = _label_sweep(families[abc], r_param, 6.0)
        assert set(dict(scan.samples)) | on_node == set(reference)
        for th, label in scan.samples:
            assert label == reference[th], th

    def test_one_classification_per_sector(self, fam, monkeypatch):
        calls = []
        real = bifurcation.classify_at

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(bifurcation, "classify_at", counting)
        scan = discriminant_angles(fam, 0.03, coarse_deg=2.0)
        assert len(scan.samples) == 180
        assert len(calls) == 6

    def test_second_saddle_raises(self, fam, monkeypatch):
        # y^2 - (x^2 - a^2)^2 has saddles at (-a, 0) and (a, 0)
        a2 = 0.01 ** 2
        monkeypatch.setattr(bifurcation, "build_vertex_function", _fixed_vertex_function(
            {(0, 2): 1, (4, 0): -1, (2, 0): 2 * a2, (0, 0): -a2 * a2}))
        with pytest.raises(NumericError, match=r"2 saddles .* theta = 0\.000 deg"):
            discriminant_angles(fam, 0.03, coarse_deg=6.0)

    def test_failed_continuation_names_its_theta(self, fam, monkeypatch):
        # (x - lam/2)^2 - y^2: the one saddle, (lam/2, 0), reaches the
        # origin at theta = 90 deg
        monkeypatch.setattr(bifurcation, "build_vertex_function", _fixed_vertex_function(
            {(2, 0, 0, 0): 1, (1, 0, 1, 0): -1, (0, 0, 2, 0): 0.25, (0, 2, 0, 0): -1}))
        with pytest.raises(NumericError, match=r"continuation failed at theta = 90\.000 deg"):
            discriminant_angles(fam, 0.03, coarse_deg=6.0)

    def test_failed_node_raises_naming_its_bracket(self, fam, monkeypatch):
        monkeypatch.setattr(bifurcation, "_interpolated_seed",
                            lambda a, b: np.array([3.0, -3.0, a[2]]))
        with pytest.raises(NumericError,
                           match=r"label change in \[\d+\.\d+, \d+\.\d+\] deg"):
            discriminant_angles(fam, 0.03, coarse_deg=6.0)

    def test_bad_args(self, fam):
        with pytest.raises(InputError):
            discriminant_angles(fam, 0.0)
        with pytest.raises(InputError):
            discriminant_angles(fam, 0.03, refine_deg=0.0)
        with pytest.raises(InputError):
            discriminant_angles(fam, 0.03, coarse_deg=1.0, refine_deg=2.0)


class TestKstarField:
    def test_ray_quadratic_scaling(self, fam):
        radii = sorted(KSTAR_RAY20, reverse=True)
        res = kstar_field(fam, [_dir(20.0, r) for r in radii])
        assert all(s.error is None for s in res.samples)
        qs = []
        for r, s in zip(radii, res.samples):
            assert s.kstar == pytest.approx(KSTAR_RAY20[r], rel=1e-6)
            assert s.q_value == pytest.approx(s.kstar / r**2, rel=1e-12)
            assert s.degeneracy == 1
            qs.append(s.q_value)
        # k* ~= Q(theta) r^2: Q drifts by a few percent over this range
        assert max(qs) / min(qs) < 1.05

    def test_threefold_symmetry(self, fam):
        taus = [_dir(th, 0.02) for th in (20.0, 140.0, 260.0,
                                          80.0, 200.0, 320.0)]
        res = kstar_field(fam, taus)
        ks = [s.kstar for s in res.samples]
        assert all(k is not None for k in ks)
        for triple in (ks[:3], ks[3:]):
            assert max(triple) / min(triple) - 1.0 < 0.10

    def test_umbilic_rejected(self, fam):
        with pytest.raises(InputError):
            kstar_field(fam, [(0.0, 0.0)])

    def test_margin_rejected(self, fam):
        with pytest.raises(InputError):
            kstar_field(fam, [_dir(58.0, 0.02)])

    def test_tolerances_recorded(self, fam):
        res = kstar_field(fam, [_dir(20.0, 0.02)])
        tol = res.samples[0].tolerances
        assert tol["resolution"] == 256
        assert tol["rel_tol"] == 1e-4
        lo, hi = tol["bracket"]
        assert lo == pytest.approx(0.02 * 0.02**2)
        assert hi == pytest.approx(2.0 * 0.02**2)
        assert "q_by_angle" in res.metadata

    def test_failure_recorded_not_raised(self, fam):
        # far outside the local regime the lowest birth fold is no 4 -> 6 step
        res = kstar_field(fam, [_dir(20.0, 0.5)])
        s = res.samples[0]
        assert s.error is not None
        assert s.kstar is None


class TestCupReference:
    def test_anchor_point(self):
        ref = cup_reference(1.0)
        assert ref[0] == pytest.approx((-12.0, 0.0), abs=1e-12)
        assert ref.shape == (721, 2)
        assert ref[-1] == pytest.approx(ref[0], abs=0.0)

    def test_zero_level_collapses(self):
        ref = cup_reference(0.0, 64)
        assert np.all(ref == 0.0)

    def test_level_scaling(self):
        # the section scales like sqrt(k)
        a = cup_reference(4.0, 120)
        b = cup_reference(1.0, 120)
        assert np.allclose(a, 2.0 * b, atol=1e-12)

    def test_cusps_at_sixths(self):
        ref = cup_reference(1.0, 720)
        idx = detect_polyline_cusps(ref)
        assert idx == [0, 120, 240, 360, 480, 600]

    def test_exact_sixfold_rotation(self):
        pts = cup_reference(1.0, 720)[:-1]
        c, s = math.cos(math.pi / 3.0), math.sin(math.pi / 3.0)
        rot = pts @ np.array([[c, s], [-s, c]])
        assert np.allclose(rot, np.roll(pts, 120, axis=0), atol=1e-12)

    def test_bad_args(self):
        with pytest.raises(InputError):
            cup_reference(-1.0)
        with pytest.raises(InputError):
            cup_reference(1.0, 4)


class TestDetectCusps:
    def test_square_corners(self):
        t = np.linspace(0.0, 1.0, 24, endpoint=False)
        z, o = np.zeros_like(t), np.ones_like(t)
        square = np.vstack([
            np.column_stack([t, z]),
            np.column_stack([o, t]),
            np.column_stack([1.0 - t, o]),
            np.column_stack([z, 1.0 - t]),
        ])
        assert detect_polyline_cusps(square) == [0, 24, 48, 72]

    def test_rolled_start(self):
        pts = np.roll(cup_reference(1.0, 720)[:-1], 50, axis=0)
        idx = detect_polyline_cusps(pts)
        assert idx == [50, 170, 290, 410, 530, 650]

    def test_smooth_circle_has_none(self):
        th = np.linspace(0.0, 2.0 * math.pi, 200, endpoint=False)
        circle = np.column_stack([np.cos(th), np.sin(th)])
        assert detect_polyline_cusps(circle) == []

    def test_short_polyline_rejected(self):
        with pytest.raises(InputError):
            detect_polyline_cusps(np.zeros((5, 2)))


@pytest.fixture(scope="module")
def fan12(fam):
    return cup_section(fam, 6e-4, 0.095, fan=12, bisect_steps=20)


class TestCupSectionSmoke:
    def test_radii_settle_with_bisect_steps(self, fam, fan12):
        coarse = cup_section(fam, 6e-4, 0.095, fan=12, bisect_steps=12)
        assert np.abs(coarse.radii - fan12.radii).max() < 0.095 * 2.0 ** -16

    def test_birth_fold_at_the_level(self, fam, fan12):
        for th, r in zip(fan12.fan_angles, fan12.radii):
            la = LevelAnalyzer(fam.f_at(_dir(th, r)))
            births = [fd.level for fd in la.folds(2.0 * r * r)
                      if fd.birth and fd.level > 0.02 * r * r]
            assert births[0] == pytest.approx(6e-4, rel=1e-9)

    def test_coarse_fan(self, fam):
        cs = cup_section(fam, 6e-4, 0.095, fan=12, bisect_steps=10)
        assert not cs.partial
        assert cs.failed == []
        assert len(cs.fan_angles) == 12
        assert cs.locus.shape == (13, 2)
        assert np.allclose(cs.locus[0], cs.locus[-1])
        assert np.all(cs.radii > 0.03)
        assert np.all(cs.radii < 0.09)

    def test_bad_args(self, fam):
        with pytest.raises(InputError):
            cup_section(fam, 0.0, 0.1)
        with pytest.raises(InputError):
            cup_section(fam, 1e-4, 0.1, r_min=0.2)
        with pytest.raises(InputError):
            cup_section(fam, 1e-4, 0.1, fan=8)


def _per_row_system(polys, path, states):
    """The (x, y, t) system built row by row: substitute tau(t) into every
    polynomial and its parameter derivatives and evaluate pointwise."""
    dpolys = [[NVarPoly.diff(p, 2 + k) for k in range(p.nparams)] for p in polys]
    F = np.empty((len(states), 3))
    J = np.empty((len(states), 3, 3))
    for r, (x, y, t) in enumerate(states):
        tau, dtau = path(t)
        for i, (p, dp) in enumerate(zip(polys, dpolys)):
            q = p.substitute_params(tau)
            F[r, i] = q.eval(x, y)
            J[r, i] = (q.diff("x").eval(x, y), q.diff("y").eval(x, y),
                       sum(d * dpk.substitute_params(tau).eval(x, y)
                           for d, dpk in zip(dtau, dp) if d))
    return F, J


class TestNewtonXytSystem:
    """The batched system of ``_newton_xyt`` equals the per-row one to
    1e-12 of the largest magnitude of each entry over the rows."""

    @staticmethod
    def _system(monkeypatch, polys, path):
        seen = {}

        def capture(system, x0, **kwargs):
            seen["system"] = system
            return x0, np.zeros(len(x0), dtype=bool), np.zeros(len(x0), dtype=int)

        monkeypatch.setattr(bifurcation, "newton", capture)
        bifurcation._newton_xyt(polys, path, [(0.01, 0.01, 0.0)], max_iter=1,
                                max_step=1.0)
        return seen["system"]

    @staticmethod
    def _assert_close(polys, path, system, states):
        for new, ref in zip(system(states), _per_row_system(polys, path, states)):
            assert new.shape == ref.shape
            scale = np.abs(ref).max(axis=0)
            assert np.all(np.abs(new - ref) <= 1e-12 * scale)

    def test_circle_path_vertex_system(self, fam, monkeypatch):
        vp = build_vertex_function(fam)
        polys = [vp, vp.diff("x"), vp.diff("y")]

        def circle(t):
            return ((0.03 * math.cos(t), 0.03 * math.sin(t)),
                    (-0.03 * math.sin(t), 0.03 * math.cos(t)))

        rng = np.random.default_rng(7)
        states = np.column_stack([rng.uniform(-0.03, 0.03, (20, 2)),
                                  rng.uniform(0.0, 2.0 * math.pi, 20)])
        self._assert_close(polys, circle, self._system(monkeypatch, polys, circle),
                           states)

    def test_line_path_curvature_chain(self, fam, monkeypatch):
        f = fam.f._with({k: float(c) for k, c in fam.f.terms.items()})
        chain = kappa_derivative_polys(f, 3)
        polys = [chain[1][0], chain[2][0], chain[3][0]]

        def line(t):
            return (0.05, t), (0.0, 1.0)

        rng = np.random.default_rng(11)
        states = np.column_stack([rng.uniform(-0.03, 0.03, (6, 2)),
                                  rng.uniform(-0.01, 0.01, 6)])
        self._assert_close(polys, line, self._system(monkeypatch, polys, line), states)


def _per_row_gate(polys, path, states):
    """|p| / sum |c_ij| (2 |(x, y)|)^(i+j) at each row, the c_ij the
    coefficients of p at tau(t), each substituted and evaluated on its own."""
    rel = np.empty((len(states), len(polys)))
    for r, (x, y, t) in enumerate(states):
        for i, p in enumerate(polys):
            q = p.substitute_params(path(t)[0])
            bound = sum(abs(float(c)) * (2.0 * math.hypot(x, y)) ** (a + b)
                        for (a, b), c in q.terms.items())
            rel[r, i] = abs(q.eval(x, y)) / max(bound, 1e-300)
    return rel


def _node_line(t):
    return (0.05, t), (0.0, 1.0)


class TestNewtonXytGate:
    """The residual gate of ``_newton_xyt`` at the rows Newton returns."""

    def test_gate_matches_per_row_reference(self, fam, monkeypatch):
        def converged(system, x0, **kwargs):
            return x0, np.ones(len(x0), dtype=bool), np.zeros(len(x0), dtype=int)

        monkeypatch.setattr(bifurcation, "newton", converged)
        vp = build_vertex_function(fam)
        polys = [vp, vp.diff("x"), vp.diff("y")]
        rng = np.random.default_rng(5)
        off = np.column_stack([rng.uniform(-0.03, 0.03, (12, 2)),
                               rng.uniform(-0.01, 0.01, 12)])
        states = np.vstack([off, [(*NODE_POINT, NODE_MU)]])
        _, solved, _, rel = bifurcation._newton_xyt(polys, _node_line, states,
                                                    max_iter=1, max_step=1.0)
        ref = _per_row_gate(polys, _node_line, off)
        assert np.all(np.abs(rel[:-1] - ref) <= 1e-12 * ref)
        # off the zero set no row passes the gate; the node does
        assert not solved[:-1].any()
        assert solved[-1]

    def test_no_rebuild_or_substitution(self, fam, monkeypatch):
        vp = build_vertex_function(fam)
        polys = [vp, vp.diff("x"), vp.diff("y")]
        calls = []

        def spy(cls, name):
            inner = getattr(cls, name)

            def wrapped(*args, **kwargs):
                calls.append(name)
                return inner(*args, **kwargs)
            monkeypatch.setattr(cls, name, wrapped)

        for cls, name in ((NVarPoly, "diff"), (NVarPoly, "eval_grid"),
                          (BivarPoly, "eval_grid"), (ParamPoly, "substitute_params"),
                          (poly, "_partial_stack")):
            spy(cls, name)
        seed = [(NODE_POINT[0] + 1e-4, NODE_POINT[1] - 1e-4, NODE_MU * 1.01)]
        for _ in range(2):
            _, solved, steps, _ = bifurcation._newton_xyt(polys, _node_line, seed,
                                                          max_iter=30, max_step=1.0)
            assert solved[0] and steps[0] > 1
        # each polynomial's partials are stacked at most once, on first use
        assert calls.count("_partial_stack") <= len(polys)
        assert [c for c in calls if c != "_partial_stack"] == []


class TestSelfIntersection:
    def test_node_frozen(self, fam):
        si = vertex_set_self_intersection(fam, (0.05, 0.0))
        assert si.point == pytest.approx(NODE_POINT, abs=1e-9)
        assert si.tau[0] == 0.05
        assert si.tau[1] == pytest.approx(NODE_MU, rel=1e-6)
        assert si.level == pytest.approx(NODE_LEVEL, rel=1e-6)
        assert si.vertex_residual < 1e-18
        assert si.grad_residual < 1e-15
        assert si.iterations <= 12
        # the node vertex reads as singly degenerate this far from tau = 0:
        # grad V = 0 kills kappa'' exactly, but exact branch tangency is an
        # asymptotic statement and kappa''' stays just above the deg gate
        assert si.record.degeneracy == 1

    def test_two_degenerate_frozen(self, fam):
        td = two_degenerate_vertex(fam, (0.05, 0.0))
        assert td.point == pytest.approx(A3_POINT, abs=1e-9)
        assert td.tau[1] == pytest.approx(A3_MU, rel=1e-6)
        assert td.level == pytest.approx(A3_LEVEL, rel=1e-6)
        assert td.record.degeneracy == 2
        assert td.record.extremum == "max"
        assert max(td.residuals) < 1e-12
        assert td.iterations <= 12

    def test_node_and_degenerate_coincide(self, fam):
        si = vertex_set_self_intersection(fam, (0.05, 0.0))
        td = two_degenerate_vertex(fam, (0.05, 0.0))
        sep = math.hypot(si.point[0] - td.point[0], si.point[1] - td.point[1])
        assert sep < 5e-6
        assert abs(si.tau[1] - td.tau[1]) < 1e-10
        assert abs(si.level - td.level) / td.level < 1e-6

    def test_census_sees_one_doubly_degenerate(self, fam):
        td = two_degenerate_vertex(fam, (0.05, 0.0))
        census = LevelAnalyzer(fam.f_at(td.tau)).census(td.level)
        assert census.vertex_count == 4
        degs = [r.degeneracy for r in census.records if r.degeneracy > 0]
        assert degs == [2]

    def test_fd_agrees_at_degenerate_point(self, fam):
        td = two_degenerate_vertex(fam, (0.05, 0.0))
        la = LevelAnalyzer(fam.f_at(td.tau))
        rec = la.classify_vertex(td.point, td.level, method="fd")
        assert rec.degeneracy == 2
        assert rec.extremum == "max"

    def test_bad_free_param(self, fam):
        with pytest.raises(InputError):
            vertex_set_self_intersection(fam, (0.05, 0.0), free_param=2)
        with pytest.raises(InputError):
            two_degenerate_vertex(fam, (0.05, 0.0), free_param=-1)

    def test_far_seed_raises(self, fam):
        with pytest.raises(NumericError):
            vertex_set_self_intersection(fam, (0.05, 0.0), seed=(3.0, -3.0))
        with pytest.raises(NumericError):
            two_degenerate_vertex(fam, (0.05, 0.0), seed=(3.0, -3.0))

    def test_seed_required_off_axis(self, fam):
        with pytest.raises(InputError):
            vertex_set_self_intersection(fam, (0.0, 0.05))
        with pytest.raises(InputError):
            two_degenerate_vertex(fam, (0.0, 0.05))


def _branch_quadratic_fits(family, tau, resolution=512):
    # quadratic graph coefficients of the two split branches near the origin
    rho = math.hypot(*tau)
    v = build_vertex_function(family).substitute_params(tau)
    an = analyze_vertex_set(v, radius=rho / 12.0, resolution=resolution,
                            r_fit=rho / 16.0)
    fits = []
    for b in an.branches.branches:
        ang = (math.degrees(b.line_angle) + 90.0) % 180.0 - 90.0
        x, y = b.points[:, 0], b.points[:, 1]
        if abs(ang) <= 45.0:
            basis, target = np.column_stack([x, x * x]), y
        else:
            basis, target = np.column_stack([y, y * y]), x
        (slope, quad), *_ = np.linalg.lstsq(basis, target, rcond=None)
        fits.append((ang, float(slope), float(quad)))
    return sorted(fits)


class TestBranchConvexity:
    def test_quartic_identity_exact(self):
        # (a^2+6)^2 (a^2+1) - 4 (2a^2+3)^2 == a^4 (a^2 - 3)
        a = NVarPoly.variable(1, 0)
        one = NVarPoly.constant(1, Fraction(1))
        lhs = (a**2 + 6 * one) ** 2 * (a**2 + one) - 4 * (2 * a**2 + 3 * one) ** 2
        rhs = a**4 * (a**2 - 3 * one)
        assert lhs == rhs

    def test_on_axis_branch_shapes(self, fam):
        # mu = 0: one branch hugs the y axis, the other is a downward
        # parabola whose curvature scales like -1/lam
        fits = _branch_quadratic_fits(fam, (0.05, 0.0))
        assert len(fits) == 2
        (ang_v, _, quad_v), = [f for f in fits if abs(f[0]) > 45.0]
        (ang_h, slope_h, quad_h), = [f for f in fits if abs(f[0]) <= 45.0]
        assert abs(ang_h) < 0.1
        assert abs(abs(ang_v) - 90.0) < 0.1
        assert abs(slope_h) < 1e-2
        assert -30.0 < quad_h < -18.0
        assert abs(quad_v) < 0.15 * abs(quad_h)

    def test_diagonal_branch_signs(self, fam):
        # mu = lam: tangents at slopes -1 +/- sqrt(2), both branches bend
        # the same way as the closed-form coefficients (negative for lam > 0)
        fits = _branch_quadratic_fits(fam, (0.05, 0.05))
        assert len(fits) == 2
        steep = [f for f in fits if abs(f[0]) > 45.0]
        shallow = [f for f in fits if abs(f[0]) <= 45.0]
        assert len(steep) == 1 and len(shallow) == 1
        want_steep = math.degrees(math.atan(-1.0 - math.sqrt(2.0)))
        want_shallow = math.degrees(math.atan(-1.0 + math.sqrt(2.0)))
        assert steep[0][0] == pytest.approx(want_steep, abs=0.5)
        assert shallow[0][0] == pytest.approx(want_shallow, abs=0.5)
        assert steep[0][2] < 0.0
        assert shallow[0][2] < 0.0
