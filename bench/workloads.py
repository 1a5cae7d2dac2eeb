"""The benchmark workloads: seeded inputs, one op each, and their oracles.

Each workload is a scaled-down version of one of the slow acceptance
checks and puts most of its time in a different layer:

* ``cup-fan``: fan sections of the degenerate-vertex locus; every census
  builds a new ``LevelAnalyzer``, so exact construction dominates.
* ``kstar-rays``: the transition level k* on one parameter sample; one
  analyzer runs about 60 censuses, so pointwise Newton polishing dominates.
* ``disc-circle``: discriminant directions on one parameter circle; about
  100 tracings of the substituted vertex function, so grid evaluation and
  linking dominate.
* ``census-queries``: the ``level-census`` command on a new random generic
  family per query; no work is shared between ops, and it is the only
  workload that classifies vertices.

An op calls the library entry point the matching CLI command calls, with
the arguments the CLI passes.  Functions are looked up on their modules at
call time, so the traced run sees its wrappers.  Oracles run outside the
timed region and return None when the op's output is correct, otherwise
the reason it is not.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

# Arguments the CLI passes by default ([scan] and [trace] sections).
SCAN_RESOLUTION = 256
CENSUS_RESOLUTION = 512
CENSUS_WINDOW = 0.6
REL_TOL = 1e-4
R_MIN = 1e-3

# Workload sizes.
CUP_FAN = 12
CUP_BISECT_STEPS = 10
DISC_COARSE_DEG = 6.0
DISC_REFINE_DEG = 0.1

# Parameter directions keep this far from the discriminant tangents.
AXIS_MARGIN_DEG = 8.0
# Oracle margins.
KSTAR_DELTA = 10 * REL_TOL
DISC_TOL_DEG = 3.0
INTERSECT_RESOLUTION = 384


def even_points(seed: int, stream: int, dims: int) -> Iterator[list]:
    """Points of the R_d additive-recurrence sequence in [0, 1)^dims,
    started at a point drawn from (seed, stream).

    Any run of consecutive points covers the cube evenly, so the few ops of
    one run see about the same mix of inputs under every seed, and run to
    run differences come from the program and the host, not from the draw.
    """
    phi = 2.0
    for _ in range(60):     # the root of x^(dims+1) = x + 1
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    step = np.array([phi ** -(j + 1) for j in range(dims)]) % 1.0
    u = np.random.default_rng([seed, stream]).random(dims)
    while True:
        yield [float(v) for v in u]
        u = (u + step) % 1.0


def log_scale(u: float, lo: float, hi: float) -> float:
    """Map u in [0, 1) log-uniformly onto [lo, hi)."""
    return lo * (hi / lo) ** u


def pick(u: float, items: list):
    return items[min(int(u * len(items)), len(items) - 1)]


def off_axis_tau(u_r: float, u_theta: float, r_lo: float, r_hi: float) -> tuple:
    """tau with log-uniform radius and a polar angle at least
    ``AXIS_MARGIN_DEG`` from every multiple of 60 degrees."""
    r = log_scale(u_r, r_lo, r_hi)
    sector, frac = divmod(6.0 * u_theta, 1.0)
    theta = 60.0 * sector + AXIS_MARGIN_DEG + (60.0 - 2 * AXIS_MARGIN_DEG) * frac
    th = math.radians(theta)
    return (r * math.cos(th), r * math.sin(th))


def _count(vs, fam, tau, k: float, resolution: int = SCAN_RESOLUTION):
    """Vertex count of level k at tau, or the error it raised."""
    try:
        la = vs.vertices.LevelAnalyzer(fam.f_at(tau))
        return la.census(k, resolution=resolution,
                         classify=False).vertex_count
    except vs.errors.VertexSetError as e:
        return f"{type(e).__name__}: {e}"


# -- cup-fan ---------------------------------------------------------------


def cup_inputs(seed: int) -> Iterator[dict]:
    for (u,) in even_points(seed, 1, 1):
        k = log_scale(u, 1.5e-4, 6e-4)
        yield {"k": k, "r_max": 0.1 * math.sqrt(k / 6e-4)}


def cup_op(vs, fam, inp):
    return vs.bifurcation.cup_section(
        fam, inp["k"], inp["r_max"], fan=CUP_FAN, r_min=R_MIN,
        resolution=SCAN_RESOLUTION, bisect_steps=CUP_BISECT_STEPS)


def cup_check(vs, fam, inp, sec):
    if sec.partial or np.isnan(sec.radii).any():
        return f"partial section, failed rays {sec.failed[:3]}"
    # final bisection bracket width; the census one width inside the found
    # radius must see six vertices, one width outside four
    width = (inp["r_max"] - R_MIN) * 0.5 ** CUP_BISECT_STEPS
    for th, r in zip(sec.fan_angles, sec.radii):
        u = (math.cos(math.radians(th)), math.sin(math.radians(th)))
        inside = _count(vs, fam, ((r - width) * u[0], (r - width) * u[1]),
                        inp["k"])
        outside = _count(vs, fam, ((r + width) * u[0], (r + width) * u[1]),
                         inp["k"])
        if (inside, outside) != (6, 4):
            return (f"ray {th:.1f} deg: counts {inside!r} inside and "
                    f"{outside!r} outside r={r:.6g} +- {width:.2e}, "
                    f"expected 6 and 4")
    return None


# -- kstar-rays --------------------------------------------------------------


def kstar_inputs(seed: int) -> Iterator[dict]:
    for u_r, u_theta in even_points(seed, 2, 2):
        yield {"tau": off_axis_tau(u_r, u_theta, 0.01, 0.05)}


def kstar_op(vs, fam, inp):
    return vs.bifurcation.kstar_field(fam, [inp["tau"]],
                                      resolution=SCAN_RESOLUTION,
                                      rel_tol=REL_TOL)


def kstar_check(vs, fam, inp, res):
    s = res.samples[0]
    if s.error is not None:
        return f"sample error: {s.error}"
    if s.degeneracy != 1:
        return f"merge degeneracy {s.degeneracy!r}, expected 1"
    below = _count(vs, fam, inp["tau"], s.kstar * (1 - KSTAR_DELTA))
    above = _count(vs, fam, inp["tau"], s.kstar * (1 + KSTAR_DELTA))
    if (below, above) != (4, 6):
        return (f"counts {below!r} and {above!r} at k*(1 -+ {KSTAR_DELTA}), "
                f"expected 4 and 6")
    return None


# -- disc-circle ---------------------------------------------------------------


def disc_inputs(seed: int) -> Iterator[dict]:
    for (u,) in even_points(seed, 3, 1):
        yield {"r_param": 0.015 + 0.02 * u}


def disc_setup(vs, fam) -> None:
    vs.bifurcation.sector_anchors(fam)


def disc_op(vs, fam, inp):
    return vs.bifurcation.discriminant_angles(
        fam, inp["r_param"], coarse_deg=DISC_COARSE_DEG,
        refine_deg=DISC_REFINE_DEG)


def disc_check(vs, fam, inp, scan):
    if len(scan.angles) != 6:
        return f"{len(scan.angles)} angles, expected 6"
    nearest = {round(a / 60.0) % 6 for a in scan.angles}
    worst = max(min(a % 60.0, 60.0 - a % 60.0) for a in scan.angles)
    if len(nearest) != 6 or worst >= DISC_TOL_DEG:
        return (f"angles {[round(a, 2) for a in scan.angles]} are not within "
                f"{DISC_TOL_DEG} deg of six distinct multiples of 60")
    return None


# -- census-queries -------------------------------------------------------------

QUARTERS = [Fraction(n, 4) for n in range(-8, 9)]


def census_inputs(seed: int) -> Iterator[dict]:
    for u_a, u_b, u_c, u_r, u_theta, u_k in even_points(seed, 4, 6):
        b = pick(u_b, QUARTERS)
        # |b - c| >= 1/2 keeps the cubic away from the non-generic b == c
        c = pick(u_c, [c for c in QUARTERS if abs(b - c) >= Fraction(1, 2)])
        yield {"abc": (pick(u_a, QUARTERS), b, c),
               "tau": off_axis_tau(u_r, u_theta, 0.02, 0.06),
               "k": log_scale(u_k, 2e-4, 2e-3)}


def census_op(vs, fam, inp):
    fam = vs.surface.make_canonical_family(*inp["abc"])
    la = vs.vertices.LevelAnalyzer(fam.f_at(inp["tau"]))
    return la.census(inp["k"], resolution=CENSUS_RESOLUTION,
                     window=CENSUS_WINDOW)


def _with_closing_segment(curves) -> list:
    """Closed curves with their first point repeated at the end.

    ``intersect_curves`` only intersects consecutive point pairs, so it
    misses a vertex that lies on the segment closing a closed curve (about
    one census query in 300); the oracle checks the census, not that gap.
    """
    return [dataclasses.replace(c, points=np.vstack([c.points, c.points[:1]]))
            if c.closed else c for c in curves]


def census_check(vs, fam, inp, cen):
    """The cross-pipeline check: intersect independently traced level and
    vertex-set curves and match the points one to one with the census."""
    if not cen.closed:
        return "level curve not closed"
    tracer = vs.tracer
    f = vs.surface.make_canonical_family(*inp["abc"]).f_at(inp["tau"])
    level = tracer.PolyField(f - inp["k"])
    vfield = tracer.PolyField(vs.vertexfn.vertex_poly(f))
    radius = cen.trace_radius * 1.05
    lc = tracer.trace_zero_set(level, radius, INTERSECT_RESOLUTION)
    vc = tracer.trace_zero_set(vfield, radius, INTERSECT_RESOLUTION)
    pts = tracer.intersect_curves(_with_closing_segment(lc.curves),
                                  _with_closing_segment(vc.curves),
                                  level, vfield)
    if len(pts) != cen.vertex_count:
        return (f"census counts {cen.vertex_count}, curve intersection "
                f"{len(pts)}")
    if not len(pts):
        return None
    census_pts = np.array([r.point for r in cen.records])
    tol = 10.0 * tracer.TRACE_TOL
    used = set()
    for p in pts:
        d = np.linalg.norm(census_pts - p, axis=1)
        i = int(d.argmin())
        if i in used or d[i] >= tol:
            return (f"intersection {p} does not match a distinct census "
                    f"vertex within {tol:.0e}")
        used.add(i)
    return None


# -- registry ------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: Callable[[int], Iterator[dict]]
    op: Callable
    check: Callable
    setup_extra: Callable | None = None


WORKLOADS = {w.name: w for w in (
    Workload("cup-fan",
             "cup_section fans on one shared family; every census rebuilds "
             "LevelAnalyzer, so exact construction dominates",
             cup_inputs, cup_op, cup_check),
    Workload("kstar-rays",
             "kstar_field on one tau; one analyzer runs ~60 censuses, so "
             "pointwise Newton polishing dominates",
             kstar_inputs, kstar_op, kstar_check),
    Workload("disc-circle",
             "discriminant_angles on one circle; ~100 tracings of the exact "
             "V, so grid evaluation and linking dominate; no censuses",
             disc_inputs, disc_op, disc_check, disc_setup),
    Workload("census-queries",
             "level-census on a new random generic family per query; no "
             "shared work, many short ops, the only vertex classification",
             census_inputs, census_op, census_check),
)}
