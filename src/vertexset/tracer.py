"""Tracing zero sets of bivariate polynomials on a disc.

The tracer evaluates F on a square lattice as one product of power and
coefficient matrices (``BivarPoly.eval_lattice``), reads the sign grid
(marching squares, lattice zeros counted as positive so every cell has an
even crossing count), links the edge crossings of all cells at once into
a neighbour array, walks it into chains, sharpens every point with a
vectorized Newton projection onto the zero set (``project_to_zero_set``),
and clips the chains to the disc, solving (F, x^2 + y^2 - R^2) = 0 for
the points where the curves meet the boundary circle.

Common zeros of two traced fields are found by ``polish_crossings``: a
bracketed secant search along the arcs of one zero set, then a joint
Newton step on both.  Every square Newton solve of the package, here and
in ``vertices`` and ``bifurcation``, goes through one batched solver,
``newton``.

Near a point where several arcs of the zero set cross (the origin for a
vertex function, a node of a level curve) the sign grid cannot be linked
reliably, so cells there are either excluded up front (``exclude_radius``)
or detected as singular and dropped, with the crossing point itself
recovered by a Newton iteration on the gradient.  Excluded origin zones
are repaired afterwards by ``origin_branches``, which pairs the cut ends
into straight-through branches and fits each branch tangent by a
total-least-squares line through the origin, sampled symmetrically on
both sides so the leading curvature bias of the two sides cancels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, InsufficientSamplingError, UnresolvedTopologyError
from .poly import BivarPoly
from .util import wrap_angle

TRACE_TOL = 1e-10
GRAD_FLOOR = 1e-9
MIN_RESOLUTION = 16


class PolyField:
    """A polynomial with cached first derivatives and array evaluation."""

    def __init__(self, p: BivarPoly):
        self.p = p
        self.px = p.diff("x")
        self.py = p.diff("y")

    def value(self, x: float, y: float) -> float:
        return float(self.p.eval(float(x), float(y)))

    def values(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        return self.p.eval_grid(pts[..., 0], pts[..., 1])

    def grads(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        gx = self.px.eval_grid(pts[..., 0], pts[..., 1])
        gy = self.py.eval_grid(pts[..., 0], pts[..., 1])
        return np.stack([gx, gy], axis=-1)


@dataclass
class TracedCurve:
    """One connected arc of the zero set inside the disc.

    Points run along the curve so that steps align with the tangent frame
    (-Fy, Fx)/|grad F|.  ``boundary_hits`` holds the polar angles of the
    endpoints that lie on the disc boundary, in curve order; a closed curve
    has none.  ``residuals`` are first-order distances |F|/|grad F| to the
    true zero set, pointwise.
    """
    points: np.ndarray
    tangents: np.ndarray
    residuals: np.ndarray
    residual_bound: float
    closed: bool
    boundary_hits: tuple

    def polyline(self) -> np.ndarray:
        """The points, with the first repeated at the end if the curve is closed."""
        return np.vstack([self.points, self.points[:1]]) if self.closed else self.points


@dataclass
class TraceResult:
    curves: list
    singular_points: np.ndarray
    radius: float
    resolution: int


@dataclass
class Branch:
    """A branch of the zero set through the origin, stitched across the cut."""
    points: np.ndarray
    line_angle: float
    side_angles: tuple
    boundary_hits: tuple
    fit_points: int
    fit_rms: float


@dataclass
class BranchSet:
    branches: list
    loose_curves: list
    r_origin: float
    r_fit: float


@dataclass
class PairingLabel:
    """How the six sector directions are joined by the traced curves.

    ``kind`` is "umbilic" when three branches pass straight through the
    origin, "split" when two do and one curve avoids it; then ``label`` is
    the lower sector index of the adjacent pair joined by the avoiding
    curve.
    """
    kind: str
    label: int | None
    pairs: tuple
    hit_angles: tuple
    anchor_angles: tuple


# -- Newton's method -----------------------------------------------------------


def newton(system, x0: np.ndarray, *, tol: float, max_iter: int,
           max_step: float = math.inf) -> tuple:
    """Newton's method on many small square systems at once.

    ``x0`` is an (n, d) array of seeds; ``system(x)`` returns the residuals
    F (m, d) and the Jacobians J (m, d, d) at an (m, d) array of points.
    Every row iterates on its own.  It stops, converged, after its first
    step shorter than ``tol``, and it stops without stepping, not
    converged, where J is singular (|det J| < 1e-300) or the step would be
    longer than ``max_step``.  Returns the points, the convergence flags and
    the number of steps each row took.
    """
    x = np.array(x0, dtype=float)
    converged = np.zeros(len(x), dtype=bool)
    iterations = np.zeros(len(x), dtype=np.int64)
    active = np.ones(len(x), dtype=bool)
    for _ in range(max_iter):
        idx = np.flatnonzero(active)
        if not len(idx):
            break
        F, J = system(x[idx])
        ok = np.abs(np.linalg.det(J)) >= 1e-300
        delta = np.zeros_like(F)
        delta[ok] = np.linalg.solve(J[ok], -F[ok, :, None])[..., 0]
        length = np.linalg.norm(delta, axis=1)
        ok &= length <= max_step
        x[idx[ok]] += delta[ok]
        iterations[idx[ok]] += 1
        done = ok & (length < tol)
        converged[idx[done]] = True
        active[idx[~ok | done]] = False
    return x, converged, iterations


def field_system(field_a: PolyField, field_b: PolyField):
    """The system (F_a, F_b) = 0 with Jacobian rows grad F_a, grad F_b."""
    def system(p):
        F = np.column_stack([field_a.values(p), field_b.values(p)])
        return F, np.stack([field_a.grads(p), field_b.grads(p)], axis=1)
    return system


def critical_system(field: PolyField):
    """The system grad F = 0, whose Jacobian is the Hessian of F."""
    return field_system(PolyField(field.px), PolyField(field.py))


def project_to_zero_set(field: PolyField, pts: np.ndarray, *, tol: float = 1e-14,
                        step_cap: float = math.inf, grad_floor: float = GRAD_FLOOR,
                        iters: int = 8) -> tuple:
    """Newton-project an (n, 2) array of points onto F = 0 along grad F.

    Each point stops on its own: after the step taken from within ``tol``
    of the zero set, without stepping where its gradient is below
    ``grad_floor``, or after ``iters`` steps.  Steps longer than
    ``step_cap`` are shortened to it.  Returns the points and the residuals
    |F| / max(|grad F|, grad_floor) at them, each with the gradient norm of
    its last evaluation.
    """
    p = np.array(pts, dtype=float)
    gnorm = np.full(len(p), grad_floor)
    active = np.ones(len(p), dtype=bool)
    for _ in range(iters):
        idx = np.flatnonzero(active)
        if not len(idx):
            break
        q = p[idx]
        f = field.values(q)
        g = field.grads(q)
        g2 = np.einsum("ij,ij->i", g, g)
        gnorm[idx] = np.maximum(np.sqrt(g2), grad_floor)
        res = np.abs(f) / gnorm[idx]
        move = g2 >= grad_floor ** 2
        # the step is res long; rows that do not move get a zero step
        c = f / np.where(move, g2, np.inf)
        c *= np.minimum(1.0, step_cap / np.maximum(res, 1e-300))
        p[idx] = q - c[:, None] * g
        active[idx[~move | (res <= tol)]] = False
    return p, np.abs(field.values(p)) / gnorm


# -- marching squares -------------------------------------------------------


def trace_zero_set(field: PolyField, radius: float, resolution: int = 512, *,
                   trace_tol: float = TRACE_TOL, exclude_radius: float = 0.0,
                   grad_floor: float = GRAD_FLOOR) -> TraceResult:
    """Trace {F = 0} inside the disc of the given radius around the origin.

    ``exclude_radius`` drops all lattice cells within that distance of the
    origin before linking, leaving cut ends for ``origin_branches`` to
    stitch.  Cells where four crossings meet a vanishing gradient and a
    near-zero value are recorded in ``singular_points`` and not linked.
    """
    if not isinstance(field, PolyField):
        field = PolyField(field)
    if radius <= 0:
        raise InputError("trace radius must be positive")
    if resolution < MIN_RESOLUTION:
        raise InputError(f"resolution below {MIN_RESOLUTION} cannot resolve a disc")
    n = int(resolution)
    # lattice square slightly larger than the disc, so that curves reaching
    # the boundary circle cross it strictly inside the grid
    half = radius * (1.0 + 8.0 / n)
    xs = np.linspace(-half, half, n + 1)
    h = xs[1] - xs[0]
    Z = field.p.eval_lattice(xs, xs)
    S = Z >= 0.0

    cross_x = S[:-1, :] != S[1:, :]          # edge (i,j)-(i+1,j)
    cross_y = S[:, :-1] != S[:, 1:]          # edge (i,j)-(i,j+1)

    ix, jx = np.nonzero(cross_x)
    iy, jy = np.nonzero(cross_y)
    with np.errstate(divide="ignore", invalid="ignore"):
        tx = Z[ix, jx] / (Z[ix, jx] - Z[ix + 1, jx])
        ty = Z[iy, jy] / (Z[iy, jy] - Z[iy, jy + 1])
    px = np.column_stack([xs[ix] + tx * h, xs[jx]])
    py = np.column_stack([xs[iy], xs[jy] + ty * h])
    pos = np.vstack([px, py])

    cnt = (cross_x[:, :-1].astype(np.int8) + cross_x[:, 1:]
           + cross_y[:-1, :] + cross_y[1:, :])
    active = cnt >= 2
    centers = 0.5 * (xs[:-1] + xs[1:])
    cr2 = centers[:, None] ** 2 + centers[None, :] ** 2
    if exclude_radius > 0:
        active &= cr2 > exclude_radius * exclude_radius

    # decide which four-crossing cells sit on a crossing of the zero set;
    # those are not linked, and the crossing is solved for as a critical
    # point of F
    sing = np.zeros((0, 2))
    quad = np.argwhere((cnt == 4) & active)
    if len(quad):
        qc = np.column_stack([centers[quad[:, 0]], centers[quad[:, 1]]])
        fq = field.values(qc)
        gq = np.linalg.norm(field.grads(qc), axis=1)
        gmed = float(np.median(np.linalg.norm(field.grads(pos), axis=1))) if len(pos) else 1.0
        gmed = max(gmed, grad_floor)
        cells = (gq < 0.35 * gmed) & (np.abs(fq) < 0.5 * gmed * h)
        if exclude_radius > 0:
            cells &= cr2[quad[:, 0], quad[:, 1]] > (2 * exclude_radius) ** 2
        active[quad[cells, 0], quad[cells, 1]] = False
        if cells.any():
            p, ok, _ = newton(critical_system(field), qc[cells],
                              tol=grad_floor * 10, max_iter=15, max_step=1.0)
            sing = p[ok & (np.abs(field.values(p)) < gmed * h)]

    nbr = _link_cells(field, S, cross_x, cross_y, active, centers)
    pos, residuals = project_to_zero_set(field, pos, tol=trace_tol, step_cap=h,
                                         grad_floor=grad_floor)

    runs = []
    for node_ids, closed in _assemble_chains(nbr):
        pts = pos[node_ids]
        res = residuals[node_ids]
        keep = np.ones(len(pts), dtype=bool)
        if len(pts) > 1:
            d = np.linalg.norm(np.diff(pts, axis=0), axis=1)
            keep[1:] = d > h * 1e-6
        pts, res = pts[keep], res[keep]
        if len(pts) >= 2:
            runs.extend(_clip_to_disc(pts, res, radius, closed))
    _refine_boundary_ends(field, runs, radius, h, grad_floor)
    curves = [_finish_curve(field, pts, res, closed,
                            tuple(math.atan2(pts[i, 1], pts[i, 0]) for i in ends),
                            grad_floor)
              for pts, res, closed, ends in runs]
    curves = [c for c in curves
              if len(c.points) >= 3 or len(c.boundary_hits) == 2]
    if len(sing) > 1:
        sing = dedupe_points(sing, 2 * h)
    return TraceResult(curves=curves, singular_points=sing, radius=radius,
                       resolution=n)


def _link_cells(field: PolyField, S: np.ndarray, cross_x: np.ndarray,
                cross_y: np.ndarray, active: np.ndarray,
                centers: np.ndarray) -> np.ndarray:
    """Link the edge crossings of the active cells; (n, 2) neighbour ids.

    Crossing ids number the x-edges of ``cross_x`` and then the y-edges of
    ``cross_y``, each in row-major order.  A two-crossing cell links its
    two crossings; a four-crossing cell links them in two pairs chosen by
    the sign of F at its center.  Row k of the result holds the neighbours
    of crossing k in link order (cells row-major), -1 where absent; every
    crossing lies on two cells, so it has at most two.
    """
    nx = int(np.count_nonzero(cross_x))
    nnodes = nx + int(np.count_nonzero(cross_y))
    ex_id = np.full(cross_x.shape, -1, dtype=np.int64)
    ex_id[cross_x] = np.arange(nx)
    ey_id = np.full(cross_y.shape, -1, dtype=np.int64)
    ey_id[cross_y] = np.arange(nx, nnodes)

    ci, cj = np.nonzero(active)
    # (bottom, top, left, right) edge ids of every active cell
    edges = np.column_stack([ex_id[ci, cj], ex_id[ci, cj + 1],
                             ey_id[ci, cj], ey_id[ci + 1, cj]])
    present = edges >= 0
    two = np.flatnonzero(present.sum(axis=1) == 2)
    links = [edges[two][present[two]].reshape(-1, 2)]
    order = [2 * two]
    for k in np.flatnonzero(present.all(axis=1)):
        bottom, top, left, right = edges[k]
        if (field.value(centers[ci[k]], centers[cj[k]]) >= 0) == S[ci[k], cj[k]]:
            links.append([[bottom, right], [top, left]])
        else:
            links.append([[bottom, left], [top, right]])
        order.append([2 * k, 2 * k + 1])
    links = np.vstack(links)
    seq = np.concatenate(order)
    # each link is two directed half-edges; sort them by node, then by
    # link sequence, and the first and second neighbours fall out in order
    src = np.concatenate([links[:, 0], links[:, 1]])
    dst = np.concatenate([links[:, 1], links[:, 0]])
    perm = np.lexsort((np.concatenate([seq, seq]), src))
    src, dst = src[perm], dst[perm]
    first = np.ones(len(src), dtype=bool)
    first[1:] = src[1:] != src[:-1]
    nbr = np.full((nnodes, 2), -1, dtype=np.int64)
    nbr[src[first], 0] = dst[first]
    nbr[src[~first], 1] = dst[~first]
    return nbr


def _assemble_chains(nbr: np.ndarray) -> list:
    """Split the degree-at-most-two link graph into open chains and cycles.

    ``nbr`` holds each node's neighbours in link order, -1 where absent.
    """
    nb = nbr.tolist()
    deg = np.count_nonzero(nbr >= 0, axis=1).tolist()
    visited = [False] * len(nb)
    chains = []
    for start in range(len(nb)):
        if visited[start] or deg[start] != 1:
            continue
        chain = [start]
        visited[start] = True
        prev, cur = start, nb[start][0]
        while True:
            chain.append(cur)
            visited[cur] = True
            a, b = nb[cur]
            nxt = b if a == prev else a
            if nxt < 0 or visited[nxt]:
                break
            prev, cur = cur, nxt
        chains.append((chain, False))
    for start in range(len(nb)):
        if visited[start] or deg[start] != 2:
            continue
        chain = [start]
        visited[start] = True
        prev, cur = start, nb[start][0]
        while cur != start and not visited[cur]:
            chain.append(cur)
            visited[cur] = True
            a, b = nb[cur]
            nxt = b if a == prev else a
            if nxt < 0:
                break
            prev, cur = cur, nxt
        closed = cur == start and len(chain) > 2
        chains.append((chain, closed))
    return chains


def _circle_hit(p_in: np.ndarray, p_out: np.ndarray, radius: float) -> np.ndarray:
    d = p_out - p_in
    a = float(d @ d)
    b = 2.0 * float(p_in @ d)
    c = float(p_in @ p_in) - radius * radius
    disc = b * b - 4 * a * c
    if a == 0 or disc < 0:
        return p_out * (radius / max(np.linalg.norm(p_out), 1e-300))
    t = (-b + math.sqrt(disc)) / (2 * a)
    t = min(max(t, 0.0), 1.0)
    return p_in + t * d


def _clip_to_disc(pts: np.ndarray, res: np.ndarray, radius: float,
                  closed: bool) -> list:
    """The runs of a chain inside the disc, as (points, residuals, closed, ends).

    A run that leaves the disc ends on the crossing of its last chord with
    the boundary circle; ``ends`` holds the indices of those end points,
    in curve order, for ``_refine_boundary_ends`` to finish.
    """
    norms = np.linalg.norm(pts, axis=1)
    inside = norms <= radius
    if closed and inside.all():
        return [(pts, res, True, ())]
    if closed:
        k0 = int(np.argmin(inside))
        pts = np.roll(pts, -k0, axis=0)
        res = np.roll(res, -k0)
        inside = np.roll(inside, -k0)
        pts = np.vstack([pts, pts[:1]])
        res = np.append(res, res[0])
        inside = np.append(inside, inside[0])
    if not inside.any():
        return []
    out = []
    k = 0
    n = len(pts)
    while k < n:
        if not inside[k]:
            k += 1
            continue
        a = k
        while k + 1 < n and inside[k + 1]:
            k += 1
        b = k
        seg = pts[a:b + 1]
        sres = res[a:b + 1]
        ends = []
        if a > 0:
            seg = np.vstack([_circle_hit(pts[a], pts[a - 1], radius), seg])
            sres = np.append(np.inf, sres)
            ends.append(0)
        if b < n - 1:
            seg = np.vstack([seg, _circle_hit(pts[b], pts[b + 1], radius)])
            sres = np.append(sres, np.inf)
            ends.append(len(seg) - 1)
        if len(seg) >= 2:
            out.append((seg, sres, False, tuple(ends)))
        k += 1
    return out


def _refine_boundary_ends(field: PolyField, runs: list, radius: float,
                          h: float, grad_floor: float) -> None:
    """Solve (F, x^2 + y^2 - R^2) = 0 from every boundary end of the runs,
    all at once, and write the points and their residuals in place."""
    ends = [(seg, sres, i) for seg, sres, _, idx in runs for i in idx]
    if not ends:
        return
    circle = PolyField(BivarPoly({(2, 0): 1.0, (0, 2): 1.0, (0, 0): -radius * radius}))
    q, _, _ = newton(field_system(field, circle), [seg[i] for seg, _, i in ends],
                     tol=1e-14 * radius, max_iter=8, max_step=h)
    res = np.abs(field.values(q)) / np.maximum(np.linalg.norm(field.grads(q), axis=1),
                                               grad_floor)
    for (seg, sres, i), qi, ri in zip(ends, q, res):
        seg[i] = qi
        sres[i] = ri


def _finish_curve(field: PolyField, pts: np.ndarray, res: np.ndarray,
                  closed: bool, hits: tuple, grad_floor: float) -> TracedCurve:
    g = field.grads(pts)
    gn = np.maximum(np.linalg.norm(g, axis=1), grad_floor)
    tangents = np.column_stack([-g[:, 1], g[:, 0]]) / gn[:, None]
    if len(pts) > 1:
        d = np.diff(pts, axis=0)
        score = float(np.sum(np.sign(np.einsum("ij,ij->i", d,
                                               0.5 * (tangents[:-1] + tangents[1:])))))
        if score < 0:
            pts = pts[::-1].copy()
            res = res[::-1].copy()
            tangents = tangents[::-1].copy()
            hits = tuple(reversed(hits))
    return TracedCurve(points=pts, tangents=tangents, residuals=res,
                       residual_bound=float(res.max()) if len(res) else 0.0,
                       closed=closed, boundary_hits=hits)


def dedupe_points(pts, eps: float) -> np.ndarray:
    """Points farther than ``eps`` from every earlier kept point, in order."""
    kept: list[np.ndarray] = []
    for p in pts:
        if all(np.linalg.norm(p - q) > eps for q in kept):
            kept.append(p)
    return np.array(kept, dtype=float).reshape(-1, 2)


# -- origin branches ---------------------------------------------------------


def _min_cost_matching(cost: np.ndarray) -> list:
    n = cost.shape[0]
    best_pairs: list | None = None
    best_total = math.inf

    def rec(remaining: list, acc: list, total: float):
        nonlocal best_pairs, best_total
        if total >= best_total:
            return
        if not remaining:
            best_pairs, best_total = list(acc), total
            return
        a = remaining[0]
        for k in range(1, len(remaining)):
            b = remaining[k]
            rec(remaining[1:k] + remaining[k + 1:], acc + [(a, b)],
                total + cost[a, b])

    rec(list(range(n)), [], 0.0)
    return best_pairs if best_pairs is not None else []


def _mean_direction(pts: np.ndarray) -> float:
    u = pts / np.maximum(np.linalg.norm(pts, axis=1), 1e-300)[:, None]
    m = u.mean(axis=0)
    return math.atan2(m[1], m[0])


def _fit_line_through_origin(sides: list) -> tuple:
    """Total-least-squares line through the origin from per-side samples.

    Each side gets equal total weight so symmetric curvature bias cancels.
    Returns (line angle in [0, pi), angular rms, point count).
    """
    m = np.zeros((2, 2))
    npts = 0
    wtot = 0.0
    for pts in sides:
        if not len(pts):
            continue
        u = pts / np.linalg.norm(pts, axis=1)[:, None]
        w = 1.0 / len(pts)
        m += w * (u.T @ u)
        npts += len(pts)
        wtot += 1.0
    _, evecs = np.linalg.eigh(m)
    direction = evecs[:, 1]
    normal = evecs[:, 0]
    angle = math.atan2(direction[1], direction[0]) % math.pi
    # angular spread around the fitted line
    sq = 0.0
    for pts in sides:
        if not len(pts):
            continue
        u = pts / np.linalg.norm(pts, axis=1)[:, None]
        sq += (1.0 / len(pts)) * float(np.sum((u @ normal) ** 2))
    rms = math.sqrt(sq / max(wtot, 1e-300))
    return angle, rms, npts


def _split_end_hits(pts: np.ndarray, hits: tuple) -> tuple:
    """Assign each boundary-hit angle to the curve end it belongs to."""
    first, last = [], []
    a0 = math.atan2(pts[0][1], pts[0][0])
    a1 = math.atan2(pts[-1][1], pts[-1][0])
    for h in hits:
        if abs(wrap_angle(a0 - h)) <= abs(wrap_angle(a1 - h)):
            first.append(h)
        else:
            last.append(h)
    return tuple(first), tuple(last)


def origin_branches(curves: list, r_fit: float, *, fit_min: int = 8,
                    r_origin: float | None = None) -> BranchSet:
    """Stitch the cut ends around the origin into straight-through branches.

    Open curves with exactly one endpoint inside ``r_origin`` are rays; rays
    are paired into branches by minimizing the total mismatch between
    opposite directions over all perfect matchings.  A curve with both
    endpoints inside the origin zone, or one passing straight through it,
    already is a branch.  Tangents come from a through-origin
    total-least-squares fit over all branch points within ``r_fit``.
    """
    if r_origin is None:
        r_origin = r_fit / 10.0
    if not 0 < r_origin < r_fit:
        raise InputError("need 0 < r_origin < r_fit")
    rays = []        # (points ordered origin -> out, boundary hit angles)
    branches_raw = []  # (points, hits)
    loose = []
    for c in curves:
        if c.closed or not len(c.points):
            loose.append(c)
            continue
        d0 = float(np.linalg.norm(c.points[0]))
        d1 = float(np.linalg.norm(c.points[-1]))
        near0 = d0 <= 1.2 * r_origin
        near1 = d1 <= 1.2 * r_origin
        mind = float(np.min(np.linalg.norm(c.points, axis=1)))
        if near0 and near1:
            branches_raw.append((c.points, tuple(c.boundary_hits)))
        elif near0:
            rays.append((c.points, tuple(c.boundary_hits)))
        elif near1:
            rays.append((c.points[::-1], tuple(reversed(c.boundary_hits))))
        elif mind <= r_origin:
            # passes through the zone without being cut; split at the closest
            # approach so direction matching can re-pair the two halves (a
            # degenerate crossing may have been linked around the corner)
            m = int(np.argmin(np.linalg.norm(c.points, axis=1)))
            if m >= 3 and len(c.points) - m >= 4:
                ha, hb = _split_end_hits(c.points, c.boundary_hits)
                rays.append((c.points[m::-1], ha))
                rays.append((c.points[m:], hb))
            else:
                branches_raw.append((c.points, tuple(c.boundary_hits)))
        else:
            loose.append(c)
    if len(rays) % 2:
        raise UnresolvedTopologyError(
            f"odd number of cut ends ({len(rays)}) at the origin zone"
        )
    if len(rays) > 10:
        raise UnresolvedTopologyError(
            f"{len(rays)} cut ends at the origin zone; refine the grid"
        )
    if rays:
        phis = [_mean_direction(p[:max(3, len(p) // 4)]) for p, _ in rays]
        n = len(rays)
        cost = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                cost[i, j] = abs(wrap_angle(phis[i] + math.pi - phis[j]))
        for i, j in _min_cost_matching(cost):
            pi, hi = rays[i]
            pj, hj = rays[j]
            pts = np.vstack([pi[::-1], pj])
            branches_raw.append((pts, tuple(reversed(hi)) + hj))
    branches = []
    for pts, hits in branches_raw:
        norms = np.linalg.norm(pts, axis=1)
        gap = int(np.argmin(norms))
        side_a = pts[:gap + 1][norms[:gap + 1] <= r_fit]
        side_b = pts[gap + 1:][norms[gap + 1:] <= r_fit]
        if len(side_a) + len(side_b) < fit_min:
            raise InsufficientSamplingError(
                f"branch has {len(side_a) + len(side_b)} fit points, "
                f"needs {fit_min}; enlarge the fit radius or the grid"
            )
        angle, rms, npts = _fit_line_through_origin([side_a, side_b])
        sa = _mean_direction(side_a) if len(side_a) else angle
        sb = _mean_direction(side_b) if len(side_b) else angle + math.pi
        branches.append(Branch(points=pts, line_angle=angle,
                               side_angles=(sa, sb), boundary_hits=hits,
                               fit_points=npts, fit_rms=rms))
    return BranchSet(branches=branches, loose_curves=loose,
                     r_origin=r_origin, r_fit=r_fit)


def boundary_crossings(curves: list) -> list:
    """All boundary hit angles over a set of curves, sorted."""
    hits = []
    for c in curves:
        hits.extend(c.boundary_hits)
    return sorted(hits)


def classify_pairing(bs: BranchSet, anchor_angles) -> PairingLabel:
    """Match boundary hits to the six sector directions and read the pairing.

    Requires exactly six boundary hits matched one-to-one to the anchors.
    Three through-branches mean the configuration is the umbilic one; two
    through-branches plus one avoiding curve joining adjacent anchors give
    a split configuration labeled by the lower anchor index of that pair.
    """
    anchors = sorted(wrap_angle(a) for a in anchor_angles)
    if len(anchors) != 6:
        raise InputError("six anchor directions required")
    pair_sources = []
    for b in bs.branches:
        pair_sources.append(("branch", b.boundary_hits))
    for c in bs.loose_curves:
        if c.closed:
            continue
        pair_sources.append(("loose", c.boundary_hits))
    hits = []
    for _, hh in pair_sources:
        if len(hh) != 2:
            raise UnresolvedTopologyError(
                f"curve with {len(hh)} boundary hits cannot be paired"
            )
        hits.extend(hh)
    if len(hits) != 6:
        raise UnresolvedTopologyError(
            f"expected 6 boundary crossings, found {len(hits)}"
        )
    assignment = {}
    for h in hits:
        dists = [abs(wrap_angle(h - a)) for a in anchors]
        k = int(np.argmin(dists))
        if k in assignment.values():
            raise UnresolvedTopologyError(
                "two boundary crossings map to the same sector direction"
            )
        assignment[h] = k
    pairs = []
    avoiding = None
    for kind, (h1, h2) in pair_sources:
        i, j = sorted((assignment[h1], assignment[h2]))
        pairs.append((i, j))
        if kind == "loose":
            avoiding = (i, j)
    if len(bs.branches) == 3 and avoiding is None:
        return PairingLabel(kind="umbilic", label=None, pairs=tuple(pairs),
                            hit_angles=tuple(hits), anchor_angles=tuple(anchors))
    if len(bs.branches) == 2 and avoiding is not None:
        i, j = avoiding
        if (i + 1) % 6 == j:
            label = i
        elif (j + 1) % 6 == i:
            label = j
        else:
            raise UnresolvedTopologyError(
                f"avoiding curve joins non-adjacent sectors {avoiding}"
            )
        return PairingLabel(kind="split", label=label, pairs=tuple(pairs),
                            hit_angles=tuple(hits), anchor_angles=tuple(anchors))
    raise UnresolvedTopologyError(
        f"unexpected configuration: {len(bs.branches)} branches, "
        f"{len(pair_sources) - len(bs.branches)} avoiding curves"
    )


# -- curve intersections ------------------------------------------------------


def polish_crossings(field_a: PolyField, field_b: PolyField, pa: np.ndarray,
                     pb: np.ndarray, *, tol: float, max_iter: int,
                     grad_floor: float = GRAD_FLOOR) -> np.ndarray:
    """Common zeros of (F_a, F_b) on the arcs of F_a = 0 from pa[i] to pb[i].

    Where F_b changes sign from pa[i] to pb[i], a bracketed secant search
    (Illinois) isolates the root on that arc: each round projects the
    secant point of F_b onto F_a = 0 and keeps the sub-arc where F_b
    changes sign, halving the stored F_b of an endpoint kept twice in a
    row.  The root never leaves its own arc, so distinct arcs give
    distinct roots even where the two zero sets are nearly tangent.  A
    bracket stops at 2^-30 of its starting width, or on an exact zero of
    F_b, or after 30 rounds.  Joint Newton on (F_a, F_b) then polishes
    the last secant point of every bracket, and every other row from the
    end where |F_b| is smaller.
    """
    lo = np.array(pa, dtype=float).reshape(-1, 2)
    hi = np.array(pb, dtype=float).reshape(-1, 2)
    flo, fhi = field_b.values(lo), field_b.values(hi)
    root = np.where((np.abs(flo) <= np.abs(fhi))[:, None], lo, hi)
    stop = (2.0 ** -30 * np.hypot(*(hi - lo).T)) ** 2
    active = flo * fhi < 0
    # +1 where the last round replaced lo, -1 where it replaced hi
    moved = np.zeros(len(lo), dtype=np.int8)
    for _ in range(30):
        idx = np.flatnonzero(active)
        if not len(idx):
            break
        t = flo[idx] / (flo[idx] - fhi[idx])
        mid, _ = project_to_zero_set(field_a, lo[idx] + t[:, None] * (hi[idx] - lo[idx]),
                                     grad_floor=grad_floor)
        fm = field_b.values(mid)
        root[idx] = mid
        prod = flo[idx] * fm
        # F_b changes sign on [lo, mid]: mid replaces hi, lo is kept
        k = idx[prod < 0]
        hi[k], fhi[k] = mid[prod < 0], fm[prod < 0]
        flo[k[moved[k] == -1]] *= 0.5
        moved[k] = -1
        k = idx[prod > 0]
        lo[k], flo[k] = mid[prod > 0], fm[prod > 0]
        fhi[k[moved[k] == 1]] *= 0.5
        moved[k] = 1
        d = hi[idx] - lo[idx]
        active[idx] = (fm != 0) & (np.einsum("ij,ij->i", d, d) > stop[idx])
    return newton(field_system(field_a, field_b), root, tol=tol, max_iter=max_iter)[0]


def _segment_intersections(A: np.ndarray, B: np.ndarray) -> tuple:
    """Crossings of polylines A and B: A's segment indices and the points."""
    segs, pts = [np.zeros(0, dtype=np.int64)], [np.zeros((0, 2))]
    a0, a1 = A[:-1], A[1:]
    b0, b1 = B[:-1], B[1:]
    da = a1 - a0
    db = b1 - b0
    amin = np.minimum(a0, a1)
    amax = np.maximum(a0, a1)
    bmin = np.minimum(b0, b1)
    bmax = np.maximum(b0, b1)
    chunk = 2048
    for s in range(0, len(a0), chunk):
        e = min(s + chunk, len(a0))
        overlap = ((amin[s:e, None, 0] <= bmax[None, :, 0])
                   & (amax[s:e, None, 0] >= bmin[None, :, 0])
                   & (amin[s:e, None, 1] <= bmax[None, :, 1])
                   & (amax[s:e, None, 1] >= bmin[None, :, 1]))
        ii, jj = np.nonzero(overlap)
        if not len(ii):
            continue
        ii = ii + s
        d = da[ii]
        e2 = db[jj]
        det = d[:, 0] * e2[:, 1] - d[:, 1] * e2[:, 0]
        ok = np.abs(det) > 1e-300
        r = b0[jj] - a0[ii]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (r[:, 0] * e2[:, 1] - r[:, 1] * e2[:, 0]) / det
            u = (r[:, 0] * d[:, 1] - r[:, 1] * d[:, 0]) / det
        ok &= (t >= 0) & (t <= 1) & (u >= 0) & (u <= 1)
        segs.append(ii[ok])
        pts.append(a0[ii[ok]] + t[ok, None] * d[ok])
    return np.concatenate(segs), np.vstack(pts)


def intersect_curves(curves_a: list, curves_b: list, field_a: PolyField,
                     field_b: PolyField, *, tol: float = 1e-12,
                     max_iter: int = 12) -> np.ndarray:
    """Intersection points of two traced curve families, Newton-polished.

    Seeds come from exact polyline segment crossings, the segment that
    closes a closed curve included.  Where F_b changes sign along the
    crossed segment of curve a, ``polish_crossings`` isolates the root on
    that arc of curve a; elsewhere it starts from the crossing point.
    """
    starts, ends, seeds = [], [], []
    for ca in curves_a:
        if len(ca.points) < 2:
            continue
        pa = ca.polyline()
        alo = ca.points.min(axis=0)
        ahi = ca.points.max(axis=0)
        for cb in curves_b:
            if len(cb.points) < 2:
                continue
            blo = cb.points.min(axis=0)
            bhi = cb.points.max(axis=0)
            if (alo[0] > bhi[0] or blo[0] > ahi[0]
                    or alo[1] > bhi[1] or blo[1] > ahi[1]):
                continue
            seg, pts = _segment_intersections(pa, cb.polyline())
            starts.append(pa[seg])
            ends.append(pa[seg + 1])
            seeds.append(pts)
    if not seeds:
        return np.zeros((0, 2))
    seeds = np.vstack(seeds)
    lo, hi = np.vstack(starts), np.vstack(ends)
    no_change = ((field_b.values(lo) >= 0) == (field_b.values(hi) >= 0))[:, None]
    lo = np.where(no_change, seeds, lo)
    hi = np.where(no_change, seeds, hi)
    refined = polish_crossings(field_a, field_b, lo, hi, tol=tol, max_iter=max_iter)
    return dedupe_points(refined, 10 * tol)


# -- driver --------------------------------------------------------------------


@dataclass
class VertexSetAnalysis:
    trace: TraceResult
    branches: BranchSet
    field: PolyField
    exclude_radius: float


def analyze_vertex_set(vpoly: BivarPoly, *, radius: float = 0.25,
                       resolution: int = 512, r_fit: float | None = None,
                       fit_min: int = 8, trace_tol: float = TRACE_TOL) -> VertexSetAnalysis:
    """Trace the zero set of a vertex function and assemble origin branches."""
    if r_fit is None:
        r_fit = radius / 3.0
    if not 0 < r_fit <= radius:
        raise InputError("need 0 < r_fit <= radius")
    field = PolyField(vpoly)
    h = 2.0 * radius / resolution
    exclude = max(r_fit / 20.0, 4.0 * h)
    tr = trace_zero_set(field, radius, resolution, trace_tol=trace_tol,
                        exclude_radius=exclude)
    bs = origin_branches(tr.curves, r_fit, fit_min=fit_min,
                         r_origin=exclude + 3.0 * h)
    return VertexSetAnalysis(trace=tr, branches=bs, field=field,
                             exclude_radius=exclude)
