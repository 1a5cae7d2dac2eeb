"""Command-line front end: INI configs in, CSV datasets and SVG plots out.

Usage:
    vertexset <command> <config.ini>
    vertexset verify <suite>

Commands: trace-vertex-set, level-census, kstar, discriminant,
cup-section, cup-reference, verify.  Suites for verify: oracle, jets,
branches, discriminant, cup, all.

Config schema (INI; unknown sections or keys are rejected):

    [family]
    # either the symmetric cubic normal form ...
    canonical = 1, 0, 2
    # ... or explicit monomial terms "x_exp y_exp coeff_expr", where the
    # coefficient is a polynomial expression in the declared parameters;
    # rational literals like 3/4 stay exact
    params = lambda, mu
    terms =
        2 0  1+lambda
        0 2  1-lambda
        1 1  2*mu
        3 0  1
        0 3  -1

    [trace]
    tau = 0.05, 0.02
    radius = 0.25
    resolution = 512
    r_fit = 0.08
    level = 1e-3
    window = 0.6

    [scan]
    r_param = 0.03
    coarse_deg = 2.0
    refine_deg = 0.1
    taus = 0.04 @ 20, 0.02 @ 20, 0.01 @ 20
    k = 6e-4
    r_max = 0.095
    r_min = 1e-3
    fan = 96
    bisect_steps = 20
    resolution = 256
    rel_tol = 1e-4
    samples = 720

    [output]
    csv = out.csv
    svg = out.svg

Exit codes: 0 success, 2 config error, 3 numeric failure,
4 verification failure.  Identical config gives byte-identical outputs.
"""

from __future__ import annotations

import argparse
import ast
import configparser
import json
import keyword
import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .bifurcation import (
    cup_reference,
    cup_section,
    detect_polyline_cusps,
    discriminant_angles,
    kstar_field,
)
from .errors import ConfigError, InputError, NumericError, VertexSetError
from .poly import NVarPoly, ParamPoly
from .surface import SurfaceFamily, make_canonical_family
from .svg import SvgPlot
from .tracer import analyze_vertex_set
from .vertexfn import build_vertex_function
from .verify import SUITES, run_suite
from .vertices import LevelAnalyzer

COMMANDS = ("trace-vertex-set", "level-census", "kstar", "discriminant",
            "cup-section", "cup-reference", "verify")

_PLOTTING = {"trace-vertex-set", "level-census", "cup-section",
             "cup-reference"}

_ALLOWED_KEYS = {
    "family": {"canonical", "params", "terms"},
    "trace": {"tau", "radius", "resolution", "r_fit", "level", "window"},
    "scan": {"r_param", "coarse_deg", "refine_deg", "taus", "k", "r_max",
             "r_min", "fan", "bisect_steps", "resolution", "rel_tol",
             "samples"},
    "output": {"csv", "svg"},
}


@dataclass
class RunConfig:
    command: str
    family: SurfaceFamily | None = None
    tau: tuple = (0.0, 0.0)
    radius: float = 0.25
    resolution: int = 512
    r_fit: float | None = None
    level: float = 1e-3
    window: float = 0.6
    r_param: float = 0.03
    coarse_deg: float = 2.0
    refine_deg: float = 0.1
    taus: list = field(default_factory=list)
    k: float = 6e-4
    r_max: float = 0.095
    r_min: float = 1e-3
    fan: int = 96
    bisect_steps: int = 20
    scan_resolution: int = 256
    rel_tol: float = 1e-4
    samples: int = 720
    csv_path: str | None = None
    svg_path: str | None = None


# -- config parsing ----------------------------------------------------------


def _scalar(text: str, where: str) -> float:
    text = text.strip()
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError):
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"{where}: cannot read number {text!r}") from None


def _int(text: str, where: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ConfigError(f"{where}: cannot read integer {text!r}") from None


def _coeff_expr(text: str, names: tuple, where: str) -> NVarPoly | Fraction:
    """A polynomial expression in the declared parameter names.

    Supports + - * ** and parentheses; / only between numeric literals, so
    rationals like 3/4 survive exactly.
    """
    # parameter names like "lambda" collide with Python keywords; swap in
    # placeholders before parsing
    aliases = {}
    src = text
    for i, nm in enumerate(names):
        if keyword.iskeyword(nm):
            ph = f"_kw{i}"
            while ph in names:
                ph += "_"
            aliases[ph] = nm
            src = re.sub(rf"\b{re.escape(nm)}\b", ph, src)
    try:
        node = ast.parse(src, mode="eval").body
    except SyntaxError as e:
        raise ConfigError(f"{where}: bad expression {text!r}: {e.msg}") from None

    def ev(n):
        if isinstance(n, ast.BinOp):
            a = ev(n.left)
            if isinstance(n.op, ast.Add):
                return a + ev(n.right)
            if isinstance(n.op, ast.Sub):
                return a + (-1) * ev(n.right)
            if isinstance(n.op, ast.Mult):
                return a * ev(n.right)
            if isinstance(n.op, ast.Div):
                b = ev(n.right)
                if isinstance(a, NVarPoly) or isinstance(b, NVarPoly):
                    raise ConfigError(f"{where}: division by or of a "
                                      f"parameter is not polynomial")
                return a / b
            if isinstance(n.op, ast.Pow):
                e = n.right
                if not (isinstance(e, ast.Constant)
                        and isinstance(e.value, int) and e.value >= 0):
                    raise ConfigError(f"{where}: exponent must be a "
                                      f"nonnegative integer literal")
                return a ** e.value
            raise ConfigError(f"{where}: unsupported operator in {text!r}")
        if isinstance(n, ast.UnaryOp) and isinstance(n.op, (ast.UAdd, ast.USub)):
            v = ev(n.operand)
            return v if isinstance(n.op, ast.UAdd) else (-1) * v
        if isinstance(n, ast.Constant):
            if isinstance(n.value, int):
                return Fraction(n.value)
            if isinstance(n.value, float):
                return Fraction(str(n.value))
            raise ConfigError(f"{where}: literal {n.value!r} is not numeric")
        if isinstance(n, ast.Name):
            ident = aliases.get(n.id, n.id)
            if ident not in names:
                raise ConfigError(f"{where}: unknown parameter {ident!r}; "
                                  f"declared: {', '.join(names) or 'none'}")
            return NVarPoly.variable(len(names), names.index(ident))
        raise ConfigError(f"{where}: unsupported syntax in {text!r}")

    return ev(node)


def _parse_family(cp: configparser.ConfigParser) -> SurfaceFamily:
    if not cp.has_section("family"):
        raise ConfigError("missing [family] section")
    sec = cp["family"]
    if "canonical" in sec:
        if "params" in sec or "terms" in sec:
            raise ConfigError("family: give either canonical or terms, not both")
        parts = [p.strip() for p in sec["canonical"].split(",")]
        if len(parts) != 3:
            raise ConfigError("family.canonical: need three values a, b, c")
        a, b, c = (Fraction(p) for p in parts)
        return make_canonical_family(a, b, c)
    if "terms" not in sec:
        raise ConfigError("family: need canonical = a, b, c or a terms block")
    names = tuple(p.strip() for p in sec.get("params", "").split(",") if p.strip())
    for nm in names:
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", nm):
            raise ConfigError(f"family.params: bad parameter name {nm!r}")
    terms: dict = {}
    for lineno, raw in enumerate(sec["terms"].splitlines(), start=1):
        raw = raw.strip()
        if not raw:
            continue
        where = f"family.terms line {lineno}"
        parts = raw.split(None, 2)
        if len(parts) != 3:
            raise ConfigError(f"{where}: need 'x_exp y_exp coeff_expr'")
        i, j = _int(parts[0], where), _int(parts[1], where)
        if i < 0 or j < 0:
            raise ConfigError(f"{where}: negative exponent")
        coeff = _coeff_expr(parts[2], names, where)
        key = (i, j)
        terms[key] = coeff if key not in terms else terms[key] + coeff
    if not terms:
        raise ConfigError("family.terms: no terms given")
    return SurfaceFamily(ParamPoly(len(names), terms), param_names=names)


def _parse_tau(text: str, where: str) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"{where}: need two comma-separated values")
    return (_scalar(parts[0], where), _scalar(parts[1], where))


def _parse_taus(text: str, where: str) -> list:
    """Samples as 'r @ theta_deg' entries, comma separated."""
    out = []
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            continue
        if "@" not in entry:
            raise ConfigError(f"{where}: entry {entry!r} is not 'r @ theta'")
        r_text, th_text = entry.split("@", 1)
        r = _scalar(r_text, where)
        th = math.radians(_scalar(th_text, where))
        out.append((r * math.cos(th), r * math.sin(th)))
    if not out:
        raise ConfigError(f"{where}: no samples given")
    return out


def parse_config(text: str, command: str) -> RunConfig:
    """Validate an INI config against the documented schema."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; have {COMMANDS}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                   interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"config syntax: {e}") from None

    for section in cp.sections():
        if section not in _ALLOWED_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in _ALLOWED_KEYS[section]:
                raise ConfigError(f"unknown key {section}.{key}")

    cfg = RunConfig(command=command)
    needs_family = command not in ("cup-reference", "verify")
    if needs_family:
        try:
            cfg.family = _parse_family(cp)
        except InputError as e:
            raise ConfigError(f"family: {e}") from None

    tr = cp["trace"] if cp.has_section("trace") else {}
    if "tau" in tr:
        cfg.tau = _parse_tau(tr["tau"], "trace.tau")
    if "radius" in tr:
        cfg.radius = _scalar(tr["radius"], "trace.radius")
    if "resolution" in tr:
        cfg.resolution = _int(tr["resolution"], "trace.resolution")
    if "r_fit" in tr:
        cfg.r_fit = _scalar(tr["r_fit"], "trace.r_fit")
    if "level" in tr:
        cfg.level = _scalar(tr["level"], "trace.level")
    if "window" in tr:
        cfg.window = _scalar(tr["window"], "trace.window")

    sc = cp["scan"] if cp.has_section("scan") else {}
    if "r_param" in sc:
        cfg.r_param = _scalar(sc["r_param"], "scan.r_param")
    if "coarse_deg" in sc:
        cfg.coarse_deg = _scalar(sc["coarse_deg"], "scan.coarse_deg")
    if "refine_deg" in sc:
        cfg.refine_deg = _scalar(sc["refine_deg"], "scan.refine_deg")
    if "taus" in sc:
        cfg.taus = _parse_taus(sc["taus"], "scan.taus")
    if "k" in sc:
        cfg.k = _scalar(sc["k"], "scan.k")
    if "r_max" in sc:
        cfg.r_max = _scalar(sc["r_max"], "scan.r_max")
    if "r_min" in sc:
        cfg.r_min = _scalar(sc["r_min"], "scan.r_min")
    if "fan" in sc:
        cfg.fan = _int(sc["fan"], "scan.fan")
    if "bisect_steps" in sc:
        cfg.bisect_steps = _int(sc["bisect_steps"], "scan.bisect_steps")
    if "resolution" in sc:
        cfg.scan_resolution = _int(sc["resolution"], "scan.resolution")
    if "rel_tol" in sc:
        cfg.rel_tol = _scalar(sc["rel_tol"], "scan.rel_tol")
    if "samples" in sc:
        cfg.samples = _int(sc["samples"], "scan.samples")

    out = cp["output"] if cp.has_section("output") else {}
    if command not in _PLOTTING and "svg" in out:
        raise ConfigError(f"{command} writes no svg; remove output.svg")
    cfg.csv_path = out.get("csv", f"{command}.csv")
    cfg.svg_path = out.get("svg",
                           f"{command}.svg" if command in _PLOTTING else None)

    for name in ("radius", "window", "r_param", "coarse_deg", "refine_deg",
                 "rel_tol"):
        if getattr(cfg, name) <= 0:
            raise ConfigError(f"{name} must be positive")
    if cfg.r_fit is not None and cfg.r_fit <= 0:
        raise ConfigError("r_fit must be positive")
    for name in ("resolution", "scan_resolution"):
        if getattr(cfg, name) < 16:
            raise ConfigError(f"{name} must be at least 16")
    if cfg.samples < 6:
        raise ConfigError("samples must be at least 6")
    return cfg


# -- output helpers ----------------------------------------------------------


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _write_csv(path: str, header: list, rows: list) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _curve_rows(polylines: list, vfield) -> list:
    """CSV rows (curve_id, seq, x, y, tx, ty, residual) for polylines on V = 0."""
    rows = []
    for ci, pts in enumerate(polylines):
        grads = vfield.grads(pts)
        vals = vfield.values(pts)
        norms = np.hypot(grads[:, 0], grads[:, 1])
        norms[norms == 0.0] = 1.0
        for s, (p, g, v, n) in enumerate(zip(pts, grads, vals, norms)):
            rows.append((ci, s, float(p[0]), float(p[1]),
                         float(-g[1] / n), float(g[0] / n),
                         float(abs(v) / n)))
    return rows


# -- commands ----------------------------------------------------------------


def _loose_curve_key(c) -> tuple:
    if c.boundary_hits:
        return (0, c.boundary_hits[0])
    cx, cy = c.points.mean(axis=0)
    return (1, math.atan2(cy, cx))


def _oriented(pts: np.ndarray) -> np.ndarray:
    """The points of a branch, starting from the end of smaller polar angle."""
    if math.atan2(pts[-1, 1], pts[-1, 0]) < math.atan2(pts[0, 1], pts[0, 0]):
        return pts[::-1]
    return pts


def _cmd_trace_vertex_set(cfg: RunConfig) -> int:
    v = build_vertex_function(cfg.family).substitute_params(cfg.tau)
    an = analyze_vertex_set(v, radius=cfg.radius, resolution=cfg.resolution,
                            r_fit=cfg.r_fit)
    # branches first (stitched through the origin) by line angle, each from
    # its end of smaller polar angle, then avoiding curves by the polar angle
    # of their first boundary hit, closed ones last by that of their
    # centroid: the rows then do not depend on the order the tracer found
    # or stitched the curves in
    polylines = [_oriented(b.points) for b in sorted(an.branches.branches,
                                                     key=lambda b: b.line_angle)]
    polylines.extend(c.points for c in sorted(an.branches.loose_curves,
                                              key=_loose_curve_key))
    _write_csv(cfg.csv_path,
               ["curve_id", "seq", "x", "y", "tx", "ty", "residual"],
               _curve_rows(polylines, an.field))
    plot = SvgPlot(cfg.radius)
    plot.circle(0.0, 0.0, cfg.radius)
    for c in an.trace.curves:
        plot.polyline(c.points)
    plot.dot(0.0, 0.0, "#222222", size_factor=0.7)
    plot.write(cfg.svg_path)
    angles = sorted(round(math.degrees(b.line_angle), 2)
                    for b in an.branches.branches)
    print(f"{len(an.branches.branches)} origin branches at {angles} deg, "
          f"{len(an.branches.loose_curves)} avoiding curves")
    print(f"csv: {cfg.csv_path}")
    print(f"svg: {cfg.svg_path}")
    return 0


def _cmd_level_census(cfg: RunConfig) -> int:
    la = LevelAnalyzer(cfg.family.f_at(cfg.tau))
    census = la.census(cfg.level, resolution=cfg.resolution, window=cfg.window)
    rows = [(cfg.level, census.vertex_count, r.point[0], r.point[1],
             r.kappa, r.degeneracy, r.extremum or "")
            for r in census.records]
    _write_csv(cfg.csv_path,
               ["k", "count", "x", "y", "kappa", "degeneracy", "extremum"],
               rows)
    tr, radius = la.trace_level(cfg.level, resolution=cfg.resolution,
                                window=cfg.window)
    plot = SvgPlot(radius * 1.1)
    plot.circle(0.0, 0.0, radius)
    for c in tr.curves:
        plot.polyline(c.points)
    colors = {"max": "#d62728", "min": "#2ca02c"}
    for r in census.records:
        plot.dot(r.point[0], r.point[1], colors.get(r.extremum, "#555555"))
    plot.write(cfg.svg_path)
    kinds = [f"{r.extremum or 'flat'}/deg{r.degeneracy}" for r in census.records]
    closed = "closed" if census.closed else "open (count is a lower bound)"
    print(f"k = {cfg.level:.17g}: {census.vertex_count} vertices "
          f"({', '.join(kinds)}), {closed}")
    print(f"csv: {cfg.csv_path}")
    print(f"svg: {cfg.svg_path}")
    return 0


def _cmd_kstar(cfg: RunConfig) -> int:
    if not cfg.taus:
        raise ConfigError("kstar needs scan.taus")
    res = kstar_field(cfg.family, cfg.taus, resolution=cfg.scan_resolution,
                      rel_tol=cfg.rel_tol)
    rows = []
    for s in res.samples:
        r = math.hypot(*s.tau)
        th = math.degrees(math.atan2(s.tau[1], s.tau[0])) % 360.0
        mp = s.merge_point or (None, None)
        rows.append((th, r, s.kstar, s.q_value, mp[0], mp[1],
                     s.degeneracy, s.error or ""))
        if s.error is None:
            print(f"theta {th:8.3f}  r {r:.5f}  kstar {s.kstar:.10e}  "
                  f"q {s.q_value:.6f}  degeneracy {s.degeneracy}")
        else:
            print(f"theta {th:8.3f}  r {r:.5f}  failed: {s.error}")
    _write_csv(cfg.csv_path,
               ["theta_deg", "r", "kstar", "q_value", "merge_x", "merge_y",
                "degeneracy", "error"],
               rows)
    print(f"csv: {cfg.csv_path}")
    return 0


def _cmd_discriminant(cfg: RunConfig) -> int:
    scan = discriminant_angles(cfg.family, cfg.r_param,
                               coarse_deg=cfg.coarse_deg,
                               refine_deg=cfg.refine_deg)
    print("label-change angles (deg): "
          + "  ".join(f"{a:.3f}" for a in scan.angles))
    if scan.skipped:
        print(f"skipped {len(scan.skipped)} unresolved samples")
    _write_csv(cfg.csv_path, ["theta_deg", "label"],
               [(th, lab) for th, lab in scan.samples])
    print(f"csv: {cfg.csv_path}")
    return 0


def _cmd_cup_section(cfg: RunConfig) -> int:
    sec = cup_section(cfg.family, cfg.k, cfg.r_max, fan=cfg.fan,
                      r_min=cfg.r_min, resolution=cfg.scan_resolution,
                      bisect_steps=cfg.bisect_steps)
    rows = []
    for th, r in zip(sec.fan_angles, sec.radii):
        if math.isnan(r):
            rows.append((float(th), None, None, None))
        else:
            rows.append((float(th), float(r),
                         float(r * math.cos(math.radians(th))),
                         float(r * math.sin(math.radians(th)))))
    _write_csv(cfg.csv_path, ["theta_deg", "radius", "x", "y"], rows)
    plot = SvgPlot(cfg.r_max)
    if len(sec.locus) >= 2:
        plot.polyline(sec.locus)
    plot.polyline(cup_reference(cfg.k), "#c44e52", dash="5 4")
    for a in sec.cusp_angles:
        i = int(round(a / (360.0 / cfg.fan))) % cfg.fan
        r = sec.radii[i]
        if not math.isnan(r):
            plot.dot(r * math.cos(math.radians(a)),
                     r * math.sin(math.radians(a)))
    plot.write(cfg.svg_path)
    if sec.partial:
        print(f"partial section: {len(sec.failed)} of {cfg.fan} directions "
              f"failed")
    elif sec.cusp_angles:
        print(f"closed section at k = {cfg.k:.17g}: cusps at "
              + "  ".join(f"{a:.2f}" for a in sec.cusp_angles))
    else:
        print(f"closed section at k = {cfg.k:.17g}: no cusps resolved "
              f"at fan={cfg.fan}")
    print(f"csv: {cfg.csv_path}")
    print(f"svg: {cfg.svg_path}")
    return 0


def _cmd_cup_reference(cfg: RunConfig) -> int:
    ref = cup_reference(cfg.k, cfg.samples)
    phis = np.linspace(0.0, 360.0, cfg.samples, endpoint=False)
    rows = [(float(p), float(x), float(y))
            for p, (x, y) in zip(phis, ref[:-1])]
    rows.append((360.0, float(ref[-1][0]), float(ref[-1][1])))
    _write_csv(cfg.csv_path, ["phi_deg", "x", "y"], rows)
    world = float(np.abs(ref).max()) if ref.size and np.abs(ref).max() > 0 \
        else 1.0
    plot = SvgPlot(world)
    if cfg.k > 0:
        plot.polyline(ref, "#c44e52")
        for i in detect_polyline_cusps(ref):
            plot.dot(ref[i][0], ref[i][1])
    else:
        plot.dot(0.0, 0.0)
    plot.write(cfg.svg_path)
    n_cusps = len(detect_polyline_cusps(ref)) if cfg.k > 0 else 0
    print(f"reference section at k = {cfg.k:.17g}: {cfg.samples} samples, "
          f"{n_cusps} cusps")
    print(f"csv: {cfg.csv_path}")
    print(f"svg: {cfg.svg_path}")
    return 0


def _cmd_verify(suite: str) -> int:
    results = run_suite(suite)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: {res.measured} ({res.seconds:.1f}s)")
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} checks passed")
    return 0 if n_pass == len(results) else 4


_DISPATCH = {
    "trace-vertex-set": _cmd_trace_vertex_set,
    "level-census": _cmd_level_census,
    "kstar": _cmd_kstar,
    "discriminant": _cmd_discriminant,
    "cup-section": _cmd_cup_section,
    "cup-reference": _cmd_cup_reference,
}


def run(cfg: RunConfig) -> int:
    """Dispatch a validated config; see module docstring for exit codes."""
    fn = _DISPATCH.get(cfg.command)
    if fn is None:
        raise ConfigError(f"command {cfg.command!r} does not take a config")
    return fn(cfg)


def _error_record(e: Exception) -> str:
    return json.dumps({"error": type(e).__name__, "message": str(e)})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vertexset",
        description="vertex sets of level curves near an umbilic point")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        if name == "verify":
            continue
        p = sub.add_parser(name)
        p.add_argument("config", help="INI config path")
    pv = sub.add_parser("verify")
    pv.add_argument("suite", choices=sorted(SUITES))
    args = parser.parse_args(argv)

    try:
        if args.command == "verify":
            return _cmd_verify(args.suite)
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}") from None
        cfg = parse_config(text, args.command)
        return run(cfg)
    except (ConfigError, InputError) as e:
        print(_error_record(e), file=sys.stderr)
        return 2
    except VertexSetError as e:
        print(_error_record(e), file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
