"""The four benchmark ops (cup-fan, kstar-rays, disc-circle and
census-queries), run in-process with their oracles on the first input of
seed 0.

The benchmark harness under ``bench/`` is kept fixed, so the keyword
arguments it passes (``bisect_steps``, ``rel_tol``, ``resolution``,
``window``, ``coarse_deg``, ``refine_deg``) must keep working; this
catches a change that breaks them without a bench run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import vertexset as vs  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["cup-fan", "kstar-rays", "disc-circle",
                                  "census-queries"])
def test_op_passes_its_oracle(name):
    w = workloads.WORKLOADS[name]
    fam = vs.surface.make_canonical_family(1, 0, 2)
    inp = next(w.inputs(0))
    assert w.check(vs, fam, inp, w.op(vs, fam, inp)) is None
