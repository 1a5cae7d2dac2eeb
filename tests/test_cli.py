import csv
import json
import math
import textwrap
from fractions import Fraction

import pytest

from vertexset import NVarPoly, ParamPoly, SvgPlot
from vertexset.cli import main, parse_config
from vertexset.errors import ConfigError, InputError
from vertexset.surface import make_canonical_family

KSTAR_04_20 = 3.7196257842190975e-4

CANONICAL = """
[family]
canonical = 1, 0, 2
"""

EXAMPLE_TERMS = """
[family]
params = lambda, mu
terms =
    2 0  1+lambda
    0 2  1-lambda
    1 1  2*mu
    3 0  1
    0 3  -1
"""


def _cfg(body: str) -> str:
    return textwrap.dedent(body)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# -- config parsing -----------------------------------------------------------


class TestParseFamily:
    def test_canonical(self):
        cfg = parse_config(_cfg(CANONICAL), "discriminant")
        assert cfg.family.nparams == 2
        assert cfg.family.param_names == ("lambda", "mu")

    def test_canonical_degenerate_cubic_rejected_at_parse(self):
        with pytest.raises(ConfigError, match="generic"):
            parse_config(_cfg("[family]\ncanonical = 1, 1, 1\n"),
                         "discriminant")

    def test_terms_match_manual_build(self):
        cfg = parse_config(_cfg(EXAMPLE_TERMS), "trace-vertex-set")
        lam = NVarPoly.variable(2, 0)
        mu = NVarPoly.variable(2, 1)
        one = NVarPoly.constant(2, Fraction(1))
        manual = ParamPoly(2, {
            (2, 0): one + lam,
            (0, 2): one + (-1) * lam,
            (1, 1): 2 * mu,
            (3, 0): one,
            (0, 3): (-1) * one,
        })
        assert cfg.family.f.terms == manual.terms
        assert cfg.family.param_names == ("lambda", "mu")

    def test_rational_coefficient_stays_exact(self):
        text = _cfg("""
        [family]
        terms =
            2 0  1
            0 2  1
            3 0  3/4
        """)
        cfg = parse_config(text, "trace-vertex-set")
        coeff = cfg.family.f.coeff(3, 0)
        assert coeff.terms == {(): Fraction(3, 4)}

    def test_repeated_monomial_accumulates(self):
        text = _cfg("""
        [family]
        terms =
            2 0  1
            0 2  1
            3 0  2
            3 0  -2
        """)
        cfg = parse_config(text, "trace-vertex-set")
        assert (3, 0) not in cfg.family.f.terms

    def test_negative_exponent_rejected(self):
        text = _cfg("[family]\nterms =\n    -1 2  1\n")
        with pytest.raises(ConfigError, match="exponent"):
            parse_config(text, "trace-vertex-set")

    def test_unknown_parameter_rejected(self):
        text = _cfg("""
        [family]
        params = lambda, mu
        terms =
            2 0  1+nu
        """)
        with pytest.raises(ConfigError, match="nu"):
            parse_config(text, "trace-vertex-set")

    def test_division_by_parameter_rejected(self):
        text = _cfg("""
        [family]
        params = lambda, mu
        terms =
            2 0  1/lambda
        """)
        with pytest.raises(ConfigError, match="polynomial"):
            parse_config(text, "trace-vertex-set")

    def test_negative_power_rejected(self):
        text = _cfg("""
        [family]
        params = lambda, mu
        terms =
            2 0  lambda ** -1
        """)
        with pytest.raises(ConfigError, match="exponent"):
            parse_config(text, "trace-vertex-set")

    def test_canonical_and_terms_together_rejected(self):
        text = _cfg("""
        [family]
        canonical = 1, 0, 2
        terms =
            2 0  1
        """)
        with pytest.raises(ConfigError, match="not both"):
            parse_config(text, "trace-vertex-set")

    def test_missing_family_rejected(self):
        with pytest.raises(ConfigError, match="family"):
            parse_config("[trace]\ntau = 0, 0\n", "trace-vertex-set")

    def test_family_not_needed_for_cup_reference(self):
        cfg = parse_config("[scan]\nk = 1\n", "cup-reference")
        assert cfg.family is None
        assert cfg.k == 1.0


class TestParseKeys:
    def test_unknown_key_rejected(self):
        text = _cfg(CANONICAL) + "[trace]\nwibble = 3\n"
        with pytest.raises(ConfigError, match="wibble"):
            parse_config(text, "level-census")

    def test_unknown_section_rejected(self):
        text = _cfg(CANONICAL) + "[plotting]\nk = 1\n"
        with pytest.raises(ConfigError, match="plotting"):
            parse_config(text, "level-census")

    def test_unknown_command_rejected(self):
        with pytest.raises(ConfigError, match="command"):
            parse_config(_cfg(CANONICAL), "frobnicate")

    def test_nonpositive_tolerance_rejected(self):
        text = _cfg(CANONICAL) + "[scan]\nrel_tol = 0\n"
        with pytest.raises(ConfigError, match="rel_tol"):
            parse_config(text, "kstar")

    def test_small_resolution_rejected(self):
        text = _cfg(CANONICAL) + "[trace]\nresolution = 8\n"
        with pytest.raises(ConfigError, match="resolution"):
            parse_config(text, "trace-vertex-set")

    def test_inline_comments_stripped(self):
        text = _cfg(CANONICAL) + "[trace]\nradius = 0.25  # working disc\n"
        cfg = parse_config(text, "trace-vertex-set")
        assert cfg.radius == 0.25

    def test_default_output_paths(self):
        cfg = parse_config(_cfg(CANONICAL), "discriminant")
        assert cfg.csv_path == "discriminant.csv"
        assert cfg.svg_path is None

    def test_taus_entries(self):
        text = _cfg(CANONICAL) + "[scan]\ntaus = 0.04 @ 20, 0.02 @ 90\n"
        cfg = parse_config(text, "kstar")
        assert len(cfg.taus) == 2
        assert cfg.taus[0][0] == pytest.approx(0.04 * math.cos(math.radians(20)))
        assert cfg.taus[1][0] == pytest.approx(0.0, abs=1e-17)
        assert cfg.taus[1][1] == pytest.approx(0.02)

    def test_malformed_taus_rejected(self):
        text = _cfg(CANONICAL) + "[scan]\ntaus = 0.04 : 20\n"
        with pytest.raises(ConfigError, match="taus"):
            parse_config(text, "kstar")

    def test_svg_output_rejected_for_csv_only_command(self):
        text = _cfg(CANONICAL) + "[scan]\ntaus = 0.04 @ 20\n" \
            "[output]\nsvg = k.svg\n"
        with pytest.raises(ConfigError, match="svg"):
            parse_config(text, "kstar")


# -- commands end to end ------------------------------------------------------


class TestTraceCommand:
    def test_three_origin_curves_at_organizing_point(self, tmp_path, capsys):
        ini = tmp_path / "t.ini"
        ini.write_text(_cfg(CANONICAL) + _cfg(f"""
        [trace]
        tau = 0, 0
        radius = 0.25
        resolution = 512

        [output]
        csv = {tmp_path / 'out.csv'}
        svg = {tmp_path / 'out.svg'}
        """))
        assert main(["trace-vertex-set", str(ini)]) == 0
        rows = _read_csv(tmp_path / "out.csv")
        assert rows[0].keys() == {"curve_id", "seq", "x", "y", "tx", "ty",
                                  "residual"}
        assert sorted({r["curve_id"] for r in rows}) == ["0", "1", "2"]
        for r in rows[:50]:
            assert math.hypot(float(r["tx"]), float(r["ty"])) == pytest.approx(1.0)
        assert "3 origin branches" in capsys.readouterr().out
        svg = (tmp_path / "out.svg").read_text()
        assert svg.startswith("<svg ")
        assert "href" not in svg


    def test_curve_order_ignores_tracer_order(self, tmp_path, monkeypatch):
        # two branches and one avoiding curve, plus a reversed copy of a
        # branch and of the curve; every permutation of the tracer's branch
        # and loose-curve lists must write the same rows
        import dataclasses
        import itertools

        import vertexset.cli as cli

        an = cli.analyze_vertex_set(
            cli.build_vertex_function(make_canonical_family(1, 0, 2))
            .substitute_params((0.03 * math.cos(math.radians(20)),
                                0.03 * math.sin(math.radians(20)))),
            radius=0.1, resolution=256)
        bs = an.branches
        extra = dataclasses.replace(bs.loose_curves[0],
                                    points=bs.loose_curves[0].points[::-1],
                                    boundary_hits=bs.loose_curves[0].boundary_hits[::-1])
        reversed_branch = dataclasses.replace(bs.branches[0],
                                              points=bs.branches[0].points[::-1],
                                              boundary_hits=bs.branches[0].boundary_hits[::-1])
        bs = dataclasses.replace(bs, branches=bs.branches + [reversed_branch],
                                 loose_curves=bs.loose_curves + [extra])
        assert len(bs.branches) == 3 and len(bs.loose_curves) == 2
        ini = tmp_path / "t.ini"
        ini.write_text(_cfg(CANONICAL) + _cfg(f"""
        [output]
        csv = {tmp_path / 'out.csv'}
        svg = {tmp_path / 'out.svg'}
        """))
        outs = set()
        for branches, loose in itertools.product(
                itertools.permutations(bs.branches),
                itertools.permutations(bs.loose_curves)):
            shuffled = dataclasses.replace(
                an, branches=dataclasses.replace(bs, branches=list(branches),
                                                 loose_curves=list(loose)))
            monkeypatch.setattr(cli, "analyze_vertex_set",
                                lambda *a, _an=shuffled, **k: _an)
            assert main(["trace-vertex-set", str(ini)]) == 0
            outs.add((tmp_path / "out.csv").read_bytes())
        assert len(outs) == 1


class TestCensusCommand:
    def test_six_vertices_and_byte_identical_reruns(self, tmp_path):
        def run(tag):
            ini = tmp_path / f"c{tag}.ini"
            ini.write_text(_cfg(CANONICAL) + _cfg(f"""
            [trace]
            tau = 0.05, 0.02
            level = 2e-3
            resolution = 384

            [output]
            csv = {tmp_path / f'c{tag}.csv'}
            svg = {tmp_path / f'c{tag}.svg'}
            """))
            assert main(["level-census", str(ini)]) == 0
            return ((tmp_path / f"c{tag}.csv").read_bytes(),
                    (tmp_path / f"c{tag}.svg").read_bytes())

        csv1, svg1 = run("a")
        csv2, svg2 = run("b")
        assert csv1 == csv2
        assert svg1 == svg2
        rows = _read_csv(tmp_path / "ca.csv")
        assert rows[0].keys() == {"k", "count", "x", "y", "kappa",
                                  "degeneracy", "extremum"}
        assert len(rows) == 6
        assert all(r["count"] == "6" for r in rows)
        assert sorted(r["extremum"] for r in rows) == ["max"] * 3 + ["min"] * 3
        # floats are written with 17 significant digits
        for r in rows:
            assert f"{float(r['x']):.17g}" == r["x"]


class TestKstarCommand:
    def test_frozen_ray_value(self, tmp_path):
        ini = tmp_path / "k.ini"
        ini.write_text(_cfg(CANONICAL) + _cfg(f"""
        [scan]
        taus = 0.04 @ 20
        resolution = 256
        rel_tol = 1e-4

        [output]
        csv = {tmp_path / 'k.csv'}
        """))
        assert main(["kstar", str(ini)]) == 0
        rows = _read_csv(tmp_path / "k.csv")
        assert len(rows) == 1
        assert rows[0]["error"] == ""
        assert float(rows[0]["kstar"]) == pytest.approx(KSTAR_04_20, rel=1e-9)
        assert float(rows[0]["q_value"]) == pytest.approx(
            KSTAR_04_20 / 0.04**2, rel=1e-9)

    def test_missing_taus_is_config_error(self, tmp_path, capsys):
        ini = tmp_path / "k.ini"
        ini.write_text(_cfg(CANONICAL))
        assert main(["kstar", str(ini)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"


class TestDiscriminantCommand:
    def test_six_angles_and_label_sweep(self, tmp_path, capsys):
        ini = tmp_path / "d.ini"
        ini.write_text(_cfg(CANONICAL) + _cfg(f"""
        [scan]
        r_param = 0.03
        coarse_deg = 2.0
        refine_deg = 0.1

        [output]
        csv = {tmp_path / 'd.csv'}
        """))
        assert main(["discriminant", str(ini)]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if "label-change" in l)
        angles = [float(t) for t in line.split(":")[1].split()]
        assert len(angles) == 6
        assert max(min(a % 60.0, 60.0 - a % 60.0) for a in angles) < 2.0
        rows = _read_csv(tmp_path / "d.csv")
        assert rows[0].keys() == {"theta_deg", "label"}
        assert len(rows) >= 170
        assert {r["label"] for r in rows} == {"0", "1", "2", "3", "4", "5"}


class TestCupCommands:
    def test_reference_anchor_and_closure(self, tmp_path):
        ini = tmp_path / "r.ini"
        ini.write_text(_cfg(f"""
        [scan]
        k = 1
        samples = 240

        [output]
        csv = {tmp_path / 'r.csv'}
        svg = {tmp_path / 'r.svg'}
        """))
        assert main(["cup-reference", str(ini)]) == 0
        rows = _read_csv(tmp_path / "r.csv")
        assert len(rows) == 241
        assert float(rows[0]["phi_deg"]) == 0.0
        assert float(rows[0]["x"]) == -12.0
        assert float(rows[0]["y"]) == 0.0
        assert float(rows[-1]["phi_deg"]) == 360.0
        assert float(rows[-1]["x"]) == float(rows[0]["x"])

    def test_section_coarse_fan_closes(self, tmp_path):
        ini = tmp_path / "s.ini"
        ini.write_text(_cfg(CANONICAL) + _cfg(f"""
        [scan]
        k = 6e-4
        r_max = 0.095
        fan = 12
        bisect_steps = 10

        [output]
        csv = {tmp_path / 's.csv'}
        svg = {tmp_path / 's.svg'}
        """))
        assert main(["cup-section", str(ini)]) == 0
        rows = _read_csv(tmp_path / "s.csv")
        assert len(rows) == 12
        radii = [float(r["radius"]) for r in rows]
        assert all(0.03 < r < 0.09 for r in radii)
        svg = (tmp_path / "s.svg").read_text()
        assert svg.count("<path") >= 2  # section plus reference overlay


# -- exit codes ---------------------------------------------------------------


class TestExitCodes:
    def test_config_error_is_2_with_json_record(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text(_cfg(CANONICAL) + "[trace]\nwibble = 3\n")
        assert main(["level-census", str(ini)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "wibble" in err["message"]

    def test_missing_config_file_is_2(self, tmp_path, capsys):
        assert main(["level-census", str(tmp_path / "nope.ini")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    def test_numeric_failure_is_3(self, tmp_path, capsys):
        ini = tmp_path / "n.ini"
        ini.write_text(_cfg(CANONICAL) + _cfg("""
        [trace]
        tau = 0, 0
        level = -0.5
        """))
        assert main(["level-census", str(ini)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DegenerateLevelError"

    def test_verify_failure_is_4(self, capsys, monkeypatch):
        import vertexset.verify as verify
        monkeypatch.setitem(verify._CHECKS, "jet-structure",
                            lambda: (False, "forced failure"))
        assert main(["verify", "jets"]) == 4
        out = capsys.readouterr().out
        assert "FAIL jet-structure: forced failure" in out

    def test_verify_pass_is_0(self, capsys, monkeypatch):
        import vertexset.verify as verify
        monkeypatch.setitem(verify._CHECKS, "jet-structure",
                            lambda: (True, "forced pass"))
        assert main(["verify", "jets"]) == 0
        assert "PASS jet-structure" in capsys.readouterr().out


# -- svg emitter --------------------------------------------------------------


class TestSvgPlot:
    def test_render_shape(self):
        plot = SvgPlot(1.0)
        plot.polyline([[0.0, 0.0], [1.0, 1.0]])
        plot.circle(0.0, 0.0, 1.0)
        plot.dot(0.5, -0.5)
        svg = plot.render()
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert 'viewBox="-1.06 -1.06 2.12 2.12"' in svg
        assert 'transform="scale(1,-1)"' in svg
        assert svg.count("xmlns") == 1
        assert "href" not in svg and "url(" not in svg

    def test_dash_scales_with_world_size(self):
        plot = SvgPlot(1.0)
        plot.circle(0.0, 0.0, 1.0, dash="4 3")
        svg = plot.render()
        w = 1.0 / 240.0
        assert f'stroke-dasharray="{4 * w:.8g} {3 * w:.8g}"' in svg

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            SvgPlot(0.0)
        plot = SvgPlot(1.0)
        with pytest.raises(InputError):
            plot.polyline([[0.0, 0.0]])

    def test_write_newline_discipline(self, tmp_path):
        plot = SvgPlot(2.0)
        plot.dot(0.0, 0.0)
        path = tmp_path / "p.svg"
        plot.write(str(path))
        data = path.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"</svg>\n")
