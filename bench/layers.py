"""What the traced run wraps, and the per-layer metrics it reports.

Layers are the package modules that do the measured work: ``poly``,
``surface``, ``vertexfn``, ``tracer``, ``vertices`` and ``bifurcation``.
``cli``, ``svg``, ``verify`` and ``util`` are not timed; none of them runs
in a measured op.  Every metric is per traced op.  Which end-to-end metric
each one should move, and on which workload, is in README.md.
"""

from __future__ import annotations

import numpy as np

LAYERS = ("poly", "surface", "vertexfn", "tracer", "vertices", "bifurcation")
OP_SPAN = "bench.op"


def _grid_points(rec, args, kwargs, result, exc):
    x = args[1] if len(args) > 1 else kwargs["X"]
    y = args[2] if len(args) > 2 else kwargs["Y"]
    rec.count("poly.eval_grid.points", np.broadcast(x, y).size)


def _trace_counts(rec, args, kwargs, result, exc):
    if exc is None:
        rec.count("tracer.trace_zero_set.grid_points",
                  (result.resolution + 1) ** 2)
        rec.count("tracer.trace_zero_set.curves", len(result.curves))


def _census_counts(rec, args, kwargs, result, exc):
    if exc is None:
        rec.count("vertices.census.vertices", result.vertex_count)
    else:
        rec.count("vertices.census.errors")


def _kappa_points(rec, args, kwargs, result, exc):
    if exc is None:
        rec.count("vertices.kappa_derivatives.points", len(result))


def _cup_counts(rec, args, kwargs, result, exc):
    if exc is None:
        rec.count("bifurcation.cup_section.rays", len(result.fan_angles))
        rec.count("bifurcation.cup_section.failed_rays", len(result.failed))


def _disc_counts(rec, args, kwargs, result, exc):
    if exc is None:
        rec.count("bifurcation.discriminant_angles.angles", len(result.angles))
        rec.count("bifurcation.discriminant_angles.skipped",
                  len(result.skipped))


def install(rec, vs) -> None:
    """Wrap the public functions of every layer on a fresh import ``vs``."""
    poly = vs.poly
    for cls in (poly.BivarPoly, poly.ParamPoly, poly.NVarPoly):
        rec.patch_method(cls, "__mul__", "poly.mul")
    rec.patch_method(poly.BivarPoly, "eval", "poly.eval")
    rec.patch_method(poly.BivarPoly, "eval_grid", "poly.eval_grid",
                     _grid_points)
    rec.patch_method(poly.ParamPoly, "substitute_params",
                     "poly.substitute_params")
    rec.patch_method(vs.surface.SurfaceFamily, "f_at", "surface.f_at")
    for attr in ("vertex_poly", "kappa_derivative_polys"):
        rec.patch_function("vertexset.vertexfn", attr,
                           f"vertexfn.{attr}")
    rec.patch_function("vertexset.tracer", "trace_zero_set",
                       "tracer.trace_zero_set", _trace_counts)
    for attr in ("analyze_vertex_set", "origin_branches"):
        rec.patch_function("vertexset.tracer", attr, f"tracer.{attr}")
    analyzer = vs.vertices.LevelAnalyzer
    rec.patch_method(analyzer, "__init__", "vertices.analyzer_init")
    rec.patch_method(analyzer, "census", "vertices.census", _census_counts)
    rec.patch_method(analyzer, "kappa_derivatives",
                     "vertices.kappa_derivatives", _kappa_points)
    rec.patch_method(analyzer, "count_transition", "vertices.count_transition")
    counters = {"cup_section": _cup_counts,
                "discriminant_angles": _disc_counts}
    for attr in ("cup_section", "discriminant_angles", "kstar_field",
                 "classify_at"):
        rec.patch_function("vertexset.bifurcation", attr,
                           f"bifurcation.{attr}", counters.get(attr))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_self_s(rec) -> dict:
    """Self seconds summed per layer; runner time outside any layer span
    (the op span's own self time) is reported as layer ``bench``."""
    out = {layer: 0.0 for layer in LAYERS + ("bench",)}
    for name, s in rec.self_s.items():
        out[name.split(".", 1)[0]] += s
    return out


def per_layer_metrics(rec, n_ops: int) -> dict:
    """Per-op layer metrics as {name: (value, unit)}; ``n_ops`` traced ops."""
    n = max(n_ops, 1)

    def calls(name):
        return rec.calls.get(name, 0) / n

    def incl(name):
        return rec.incl_s.get(name, 0.0) / n

    def self_(name):
        return rec.self_s.get(name, 0.0) / n

    def count(name):
        return rec.counts.get(name, 0) / n

    m: dict = {}
    for name in ("poly.mul", "poly.eval", "poly.eval_grid",
                 "poly.substitute_params", "surface.f_at",
                 "vertexfn.kappa_derivative_polys", "vertexfn.vertex_poly",
                 "vertices.kappa_derivatives", "tracer.origin_branches"):
        m[f"{name}.calls"] = (calls(name), "calls/op")
        m[f"{name}.s"] = (incl(name), "s/op")
    for name in ("vertices.analyzer_init", "vertices.census",
                 "tracer.trace_zero_set", "tracer.analyze_vertex_set",
                 "bifurcation.classify_at"):
        m[f"{name}.calls"] = (calls(name), "calls/op")
        m[f"{name}.self_s"] = (self_(name), "s/op")
    for name in ("bifurcation.cup_section", "bifurcation.discriminant_angles",
                 "bifurcation.kstar_field"):
        m[f"{name}.self_s"] = (self_(name), "s/op")
    m["poly.eval_grid.points"] = (count("poly.eval_grid.points"), "points/op")
    m["vertices.kappa_derivatives.points"] = (
        count("vertices.kappa_derivatives.points"), "points/op")
    m["vertices.census.vertices"] = (count("vertices.census.vertices"),
                                     "vertices/op")
    m["vertices.census.errors"] = (count("vertices.census.errors"),
                                   "errors/op")
    m["tracer.trace_zero_set.grid_points"] = (
        count("tracer.trace_zero_set.grid_points"), "points/op")
    m["tracer.trace_zero_set.curves"] = (
        count("tracer.trace_zero_set.curves"), "curves/op")

    # wasted-work ratios, each with its base count
    rays = rec.counts.get("bifurcation.cup_section.rays", 0)
    angles = rec.counts.get("bifurcation.discriminant_angles.angles", 0)
    classify = rec.calls.get("bifurcation.classify_at", 0)
    kstars = rec.calls.get("vertices.count_transition", 0)
    censuses = rec.calls.get("vertices.census", 0)
    m["bifurcation.cup_section.rays"] = (rays / n, "rays/op")
    m["bifurcation.censuses_per_ray"] = (_ratio(censuses, rays),
                                         "censuses/ray")
    m["bifurcation.failed_rays"] = (
        _ratio(rec.counts.get("bifurcation.cup_section.failed_rays", 0), rays),
        "failed/ray")
    m["bifurcation.discriminant_angles.angles"] = (angles / n, "angles/op")
    m["bifurcation.classify_per_angle"] = (_ratio(classify, angles),
                                           "calls/angle")
    m["bifurcation.skipped"] = (
        _ratio(rec.counts.get("bifurcation.discriminant_angles.skipped", 0),
               classify), "skipped/call")
    m["vertices.count_transition.calls"] = (kstars / n, "calls/op")
    m["vertices.censuses_per_kstar"] = (_ratio(censuses, kstars),
                                        "censuses/kstar")

    for layer, s in layer_self_s(rec).items():
        m[f"layer.{layer}.self_s"] = (s / n, "s/op")
    m["trace.spans"] = (len(rec.span_start) / n, "spans/op")
    return m
