"""Tests of the benchmark's own helpers.

    python3 -m pytest bench
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import SpanRecorder  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _first(name: str, seed: int, n: int = 6) -> list:
    return list(itertools.islice(workloads.WORKLOADS[name].inputs(seed), n))


# -- inputs -------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_deterministic_per_seed(name):
    assert _first(name, 3) == _first(name, 3)
    assert _first(name, 3) != _first(name, 4)


def test_input_ranges():
    for inp in _first("cup-fan", 0, 50):
        assert 1.5e-4 <= inp["k"] <= 6e-4
        assert inp["r_max"] == pytest.approx(0.1 * math.sqrt(inp["k"] / 6e-4))
    for inp in _first("disc-circle", 0, 50):
        assert 0.015 <= inp["r_param"] <= 0.035
    for name, (r_lo, r_hi) in (("kstar-rays", (0.01, 0.05)),
                               ("census-queries", (0.02, 0.06))):
        for inp in _first(name, 0, 50):
            r = math.hypot(*inp["tau"])
            theta = math.degrees(math.atan2(inp["tau"][1], inp["tau"][0]))
            assert r_lo <= r <= r_hi
            assert min(theta % 60.0, 60.0 - theta % 60.0) >= 8.0 - 1e-9
    for inp in _first("census-queries", 0, 50):
        a, b, c = inp["abc"]
        assert all(isinstance(v, Fraction) and abs(v) <= 2 and (4 * v).denominator == 1
                   for v in (a, b, c))
        assert abs(b - c) >= Fraction(1, 2)
        assert 2e-4 <= inp["k"] <= 2e-3


# -- metric names and the percentile rule -----------------------------------


def _fake_traced_result(rec, n):
    return {"recorder": rec, "ops": n, "times": [1.0] * n,
            "traced_times": [1.1] * n}


def test_metric_names_match_spec():
    e2e = run.end_to_end_metrics({"times": [1.0, 2.0], "scales": [1.0, 1.0],
                                  "setup_times": [0.1], "setup_scales": [1.0],
                                  "peak_rss_mb": 50.0})
    per_layer = run.traced_metrics(_fake_traced_result(SpanRecorder(), 2))
    for metrics, key in ((e2e, "end_to_end"), (per_layer, "per_layer")):
        assert all(run.METRIC_NAME.fullmatch(k) for k in metrics)
        assert {k: u for k, (_, u) in metrics.items()} == {
            m["name"]: m["unit"] for m in SPEC[key]}
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_percentile_rule():
    xs = list(range(1, 101))
    assert run.percentile(xs, 50) == 50
    assert run.percentile(xs, 90) == 90
    assert run.percentile(reversed(xs), 90) == 90
    assert run.percentile(range(1, 11), 90) == 9
    assert run.percentile([7.0], 90) == 7.0
    assert run.samples_beyond(100, 90) == 10
    assert run.samples_beyond(109, 90) == 10
    assert run.samples_beyond(99, 90) == 9
    assert run.samples_beyond(1, 90) == 0
    with pytest.raises(ValueError):
        run.percentile([], 90)


def test_host_speed_samples_and_subtracts_its_own_time():
    ticking = run.HostSpeed(interval=0.01)
    with ticking:
        time.sleep(0.1)
    assert len(ticking.samples) >= 4

    speed = run.HostSpeed(interval=0)

    def op():
        speed._sample()
        time.sleep(0.05)
        return "done"

    with speed:
        out, dt, scale = speed.timed(op)
    assert out == "done"
    assert len(speed.samples) == 4          # entry, before, during, after
    assert 0.05 <= dt < 0.06
    assert scale == pytest.approx(1.0 / statistics.median(speed.samples[1:]))


def test_end_to_end_metrics_are_scaled():
    e2e = run.end_to_end_metrics({
        "times": [3.0, 1.0, 2.0], "scales": [0.5, 0.5, 0.5],
        "setup_times": [0.1, 0.3, 0.2], "setup_scales": [2.0, 1.0, 1.0],
        "peak_rss_mb": 50.0})
    assert e2e["op_p50_s"] == (1.0, "s")
    assert e2e["op_p90_s"] == (1.5, "s")
    assert e2e["setup_s"] == (pytest.approx(0.2), "s")
    assert e2e["peak_rss_mb"] == (50.0, "MB")


# -- span recorder ---------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_arithmetic():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    rec.enabled = True

    def at(t):
        clock.t = t

    rec.open("bench.op")            # 0 .. 10
    at(2.0)
    rec.open("tracer.a")            # 2 .. 5
    at(5.0)
    rec.close()
    at(6.0)
    rec.open("tracer.b")            # 6 .. 7
    at(6.2)
    rec.open("poly.c")              # 6.2 .. 6.8
    at(6.8)
    rec.close()
    at(7.0)
    rec.close()
    at(10.0)
    rec.close()
    assert rec.self_s["bench.op"] == pytest.approx(10 - 3 - 1)
    assert rec.self_s["tracer.a"] == pytest.approx(3)
    assert rec.self_s["tracer.b"] == pytest.approx(0.4)
    assert rec.self_s["poly.c"] == pytest.approx(0.6)
    assert rec.incl_s["tracer.b"] == pytest.approx(1.0)
    assert sum(layers.layer_self_s(rec).values()) == pytest.approx(10.0)
    assert list(rec.span_parent) == [-1, 0, 0, 2]


def test_reentrant_span_counted_once():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    rec.enabled = True

    def inner():
        clock.t += 1.0
        return 1

    def outer():
        clock.t += 2.0
        return wrapped_inner() + 1

    wrapped_inner = rec.wrap("poly.mul", inner)
    wrapped_outer = rec.wrap("poly.mul", outer)
    assert wrapped_outer() == 2
    assert rec.calls["poly.mul"] == 2
    assert rec.incl_s["poly.mul"] == pytest.approx(3.0)
    assert rec.self_s["poly.mul"] == pytest.approx(3.0)


def test_wrapper_records_errors_and_passes_through_when_disabled():
    rec = SpanRecorder()
    seen = []

    def boom():
        raise KeyError("x")

    wrapped = rec.wrap("vertices.census", boom,
                       lambda r, a, k, res, exc: seen.append(type(exc)))
    with pytest.raises(KeyError):
        wrapped()
    assert seen == [] and not rec.calls          # disabled: no span
    rec.enabled = True
    with pytest.raises(KeyError):
        wrapped()
    assert seen == [KeyError] and rec.calls["vertices.census"] == 1
    assert not rec._stack


def test_install_wraps_importing_names_and_restores():
    import vertexset as vs
    orig = vs.tracer.trace_zero_set
    rec = SpanRecorder()
    layers.install(rec, vs)
    try:
        assert vs.tracer.trace_zero_set is not orig
        assert vs.vertices.trace_zero_set is vs.tracer.trace_zero_set
        assert vs.trace_zero_set is vs.tracer.trace_zero_set
        assert (vs.bifurcation.analyze_vertex_set
                is vs.tracer.analyze_vertex_set)
        assert vs.poly.BivarPoly.__rmul__ is vs.poly.BivarPoly.__mul__
    finally:
        rec.restore()
    assert vs.tracer.trace_zero_set is orig
    assert vs.vertices.trace_zero_set is orig


# -- whole runs --------------------------------------------------------------------


def _run(args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run(trace, key):
    proc = _run(["--workload", "census-queries", "--seed", "0",
                 "--seconds", "0.3", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["attempted"] >= 1 and out["failed"] == 0
    assert set(out["metrics"]) == {m["name"] for m in SPEC[key]}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", "census-queries", "--seed", "0",
                 "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
