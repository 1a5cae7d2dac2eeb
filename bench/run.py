"""Benchmark runner for vertexset.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root.  One run imports the package from ``src/``,
times its set-up, then runs ops of one workload (see workloads.py) with
inputs drawn from ``--seed`` until the ops have taken ``--seconds`` of
measured time, and finally checks every op's output with the workload's
oracle.  Reported times are scaled to a nominal host speed (see
``HostSpeed``).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs every op twice, untraced and then traced, reports the
per-layer metrics and the tracing overhead, and writes the spans under
``.bench_out/``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The run uses one process and one thread: BLAS thread pools are capped at
``THREAD_CAP`` before numpy is imported.  ``--workload all`` runs every
workload in turn, each in its own process, and prints their summaries.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPS = 5
TAIL_Q = 90
# The two reference kernels take these times at nominal host speed, which
# is about what they take on a 2-core x86 sandbox with Python 3.11.
REF_LOOP = 20_000
REF_LOOP_NOMINAL_S = 0.0016
REF_ARRAY = 50_000
REF_ARRAY_ROUNDS = 12
REF_ARRAY_NOMINAL_S = 0.001
SAMPLE_INTERVAL_S = 0.1
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_p90_s": "s",
                    "peak_rss_mb": "MB"}


# -- statistics ------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q percent
    of the samples at or below it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(xs)))
    return xs[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie strictly above the nearest-rank q-th
    percentile's rank."""
    return n - max(1, math.ceil(q / 100.0 * n))


class HostSpeed:
    """Samples the CPU speed the host gives this thread, while active.

    On a shared host that speed shifts by up to 40% within seconds.  Op
    times follow the time of fixed reference kernels closely: over 15 s
    windows on a 2-core x86 sandbox a pure-Python loop had a correlation
    of 0.97 with census op times, and with both a loop and a numpy kernel
    the spread of repeated discriminant scans fell from 9% to 2%.  So a
    sample times both kernels, which touch nothing of vertexset, and
    records the host's slowness: the mean ratio of their times to their
    nominal times.  Samples are taken on entry, every ``interval`` seconds
    from a timer signal (never, if ``interval`` is 0), and right before and
    after every call to ``timed``.
    """

    def __init__(self, interval: float = SAMPLE_INTERVAL_S):
        import numpy as np
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0
        self._handler = None
        self._x = np.linspace(0.0, 1.0, REF_ARRAY)
        self._y = self._x[::-1].copy()
        self._out = np.zeros(REF_ARRAY)

    def _sample(self, *_):
        t0 = time.perf_counter()
        s = 0
        for i in range(REF_LOOP):
            s += i * i % 7
        t1 = time.perf_counter()
        self._out.fill(0.0)
        for c in range(REF_ARRAY_ROUNDS):
            self._out += c * self._x * self._y
        t2 = time.perf_counter()
        self.samples.append(0.5 * ((t1 - t0) / REF_LOOP_NOMINAL_S
                                   + (t2 - t1) / REF_ARRAY_NOMINAL_S))
        self.spent += t2 - t0

    def __enter__(self):
        self._sample()
        if self.interval > 0:
            self._handler = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        if self.interval > 0:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._handler)

    def timed(self, fn, *args):
        """Run ``fn(*args)``; return its result, its wall seconds less the
        samples it contained, and the factor that scales those seconds to
        nominal speed (one over the median slowness sampled right before,
        during and right after the call)."""
        self._sample()
        first = len(self.samples) - 1
        spent = self.spent
        t0 = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t0 - (self.spent - spent)
        self._sample()
        return out, dt, 1.0 / statistics.median(self.samples[first:])


# -- set-up ------------------------------------------------------------------


def import_fresh():
    """Import vertexset from src/ as a new process would."""
    for name in [m for m in sys.modules
                 if m == "vertexset" or m.startswith("vertexset.")]:
        del sys.modules[name]
    vs = importlib.import_module("vertexset")
    where = Path(vs.__file__).resolve().parent
    if where != (SRC / "vertexset").resolve():
        raise SystemExit(f"imported vertexset from {where}, not {SRC}")
    return vs


def setup_once(workload):
    """Import the package, build the family and its vertex function, plus
    the workload's own set-up."""
    vs = import_fresh()
    fam = vs.surface.make_canonical_family(1, 0, 2)
    vs.vertexfn.build_vertex_function(fam)
    if workload.setup_extra is not None:
        workload.setup_extra(vs, fam)
    return vs, fam


def timed_setup(workload, interval: float):
    """Set up SETUP_REPS times; returns the objects of the last repetition
    and the (seconds, scale factor) of every repetition."""
    reps = []
    with HostSpeed(interval) as speed:
        for _ in range(SETUP_REPS):
            gc.collect()
            (vs, fam), dt, scale = speed.timed(setup_once, workload)
            reps.append((dt, scale))
    return vs, fam, reps


# -- one run -------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    workload = workloads.WORKLOADS[name]
    # the traced run reports no scaled times, and a sample inside a span
    # would count as that layer's time, so it samples only between calls
    interval = 0.0 if trace else SAMPLE_INTERVAL_S
    vs, fam, setup_reps = timed_setup(workload, interval)
    rec = None
    if trace:
        import layers
        from spans import SpanRecorder
        rec = SpanRecorder()
        layers.install(rec, vs)
    errors = vs.errors.VertexSetError

    def call(inp):
        try:
            return workload.op(vs, fam, inp), None
        except errors as e:
            return None, f"{type(e).__name__}: {e}"

    inputs = workload.inputs(seed)
    # (input, output, error, seconds, scale factor, traced seconds)
    ops = []
    measured = 0.0
    with HostSpeed(interval) as speed:
        # start another op only while it is expected to end within the
        # budget, so a run of long ops does not overrun it by most of an op
        while not ops or measured * (len(ops) + 1) / len(ops) <= seconds:
            inp = next(inputs)
            gc.collect()
            (out, err), dt, scale = speed.timed(call, inp)
            traced_dt = None
            if rec is not None:
                rec.op = len(ops)
                rec.enabled = True
                t0 = time.perf_counter()
                rec.open(layers.OP_SPAN)
                call(inp)
                rec.close()
                traced_dt = time.perf_counter() - t0
                rec.enabled = False
            ops.append((inp, out, err, dt, scale, traced_dt))
            measured += dt + (traced_dt or 0.0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdicts = []
    for inp, out, err, *_ in ops:
        verdicts.append(err if err is not None
                        else workload.check(vs, fam, inp, out))
    result = {"workload": name, "seed": seed, "ops": len(ops),
              "verdicts": verdicts, "times": [op[3] for op in ops],
              "scales": [op[4] for op in ops],
              "setup_times": [dt for dt, _ in setup_reps],
              "setup_scales": [scale for _, scale in setup_reps],
              "peak_rss_mb": peak_rss_mb}
    if rec is not None:
        result["traced_times"] = [op[5] for op in ops]
        result["recorder"] = rec
        rec.restore()
    return result


def scaled(times: list, scales: list) -> list:
    return [t * f for t, f in zip(times, scales)]


def end_to_end_metrics(res: dict) -> dict:
    """Set-up and op times scaled to nominal host speed, and memory."""
    times = scaled(res["times"], res["scales"])
    values = {"setup_s": statistics.median(scaled(res["setup_times"],
                                                  res["setup_scales"])),
              "op_p50_s": statistics.median(times),
              "op_p90_s": percentile(times, TAIL_Q),
              "peak_rss_mb": res["peak_rss_mb"]}
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}


def traced_metrics(res: dict) -> dict:
    import layers
    rec = res["recorder"]
    n = res["ops"]
    m = layers.per_layer_metrics(rec, n)
    untraced = sum(res["times"])
    traced = sum(res["traced_times"])
    m["trace.op_s"] = (traced / n, "s/op")
    m["trace.untraced_op_s"] = (untraced / n, "s/op")
    m["trace.overhead_s"] = ((traced - untraced) / n, "s/op")
    m["trace.overhead_share"] = ((traced - untraced) / untraced, "ratio")
    return m


def environment() -> dict:
    import numpy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": THREAD_CAP}


def print_summary(res: dict, metrics: dict, env: dict) -> None:
    n = res["ops"]
    failed = sum(v is not None for v in res["verdicts"])
    print(f"workload {res['workload']}  seed {res['seed']}  ops {n}  "
          + "  ".join(f"{k} {v}" for k, v in env.items()))
    times = res["times"]
    print(f"  unscaled wall seconds: setup "
          f"{statistics.median(res['setup_times']):.6g}, op p50 "
          f"{statistics.median(times):.6g}, op p90 "
          f"{percentile(times, TAIL_Q):.6g}; median scale factor "
          f"{statistics.median(res['setup_scales']):.4f} (set-up), "
          f"{statistics.median(res['scales']):.4f} (ops)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(f"  {'fail_ratio':<44} {failed / n:>14.6g} ({failed} of {n} ops)")
    print(f"  op_p90_s has {samples_beyond(n, TAIL_Q)} samples beyond it"
          + ("" if samples_beyond(n, TAIL_Q) >= 10
             else " (fewer than 10: read it as a near-maximum)"))
    for i, v in enumerate(res["verdicts"]):
        if v is not None:
            print(f"  oracle op {i}: FAIL {v}")
    print(f"  oracle: {n - failed} of {n} ops correct")


def run_all(args) -> int:
    import workloads
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], check=False)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = str(THREAD_CAP)
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "vertexset" / "__init__.py").is_file():
        print(f"error: no vertexset package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    res = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    env = environment()
    if args.trace:
        metrics = traced_metrics(res)
        OUT_DIR.mkdir(exist_ok=True)
        res["recorder"].save(
            OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz",
            {**env, "workload": args.workload, "seed": args.seed})
    else:
        metrics = end_to_end_metrics(res)
    bad = [k for k in metrics if not METRIC_NAME.fullmatch(k)]
    if bad:
        raise SystemExit(f"invalid metric names {bad}")
    print_summary(res, metrics, env)
    failed = sum(v is not None for v in res["verdicts"])
    print(json.dumps({
        "correct": failed == 0, "attempted": res["ops"], "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
