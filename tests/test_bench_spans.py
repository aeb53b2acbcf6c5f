"""The benchmark's per-layer forward figures count every forward step.

Each workload runs one tiny traced pass through the benchmark's own
``run.measure``, shrunk as ``bench/test_smoke.py`` shrinks it. Every block
step, full-precision or quantized, calls gelu once, so the steps the
``harness.fp_forward`` and ``harness.q_forward`` spans count add up to the
gelu calls. A library forward that the benchmark does not wrap (a renamed
step, say) makes the sum fall short instead of reading a silent 0.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import run  # noqa: E402
from test_smoke import tiny  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_forward_spans_count_every_block_step(name, tmp_path):
    metrics = run.measure(tiny(WORKLOADS[name]), 0, 0.0, True, tmp_path)["metrics"]
    fp, q = metrics["harness.fp_forward.calls"], metrics["harness.q_forward.calls"]
    assert fp > 0 and q > 0
    assert fp + q == metrics["harness.gelu.calls"]
