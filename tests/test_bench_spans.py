"""The benchmark's per-layer figures see what the library runs.

Each workload runs one tiny pass, shrunk as ``bench/test_smoke.py`` shrinks
it. Every block step, full-precision or quantized, calls gelu once, so the
steps the ``harness.fp_forward`` and ``harness.q_forward`` spans count add
up to the gelu calls. A library forward that the benchmark does not wrap (a
renamed step, say) makes the sum fall short instead of reading a silent 0;
so does a fit whose solve the benchmark does not see.
And every site the benchmark wraps is called by some workload, so no layer
times a function that nothing runs.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import run  # noqa: E402
from spans import SITES  # noqa: E402
from test_smoke import tiny  # noqa: E402
from workloads import WORKLOADS, run_pass  # noqa: E402

# Wrapped, but only tests call it: the quantized list form stays a site
# until the benchmark's site list is rebuilt (ROADMAP item 3).
NEVER_CALLED_SITES = {"QuantizedToyModel.compensated_block_io"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_forward_spans_count_every_block_step(name, tmp_path):
    metrics = run.measure(tiny(WORKLOADS[name]), 0, 0.0, True, tmp_path)["metrics"]
    fp, q = metrics["harness.fp_forward.calls"], metrics["harness.q_forward.calls"]
    assert fp > 0 and q > 0
    assert fp + q == metrics["harness.gelu.calls"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_solve_spans_count_every_fit(name, tmp_path):
    # each block is solved once per search candidate and once per kept fit,
    # which every op of a mode but none makes
    wl = tiny(WORKLOADS[name])
    metrics = run.measure(wl, 0, 0.0, True, tmp_path)["metrics"]
    kept_fit_ops = wl.seeds_per_pass * sum(mode != "none" for mode in wl.modes)
    assert metrics["fls.candidates"] > 0
    assert metrics["numerics.solve.calls"] == wl.n_blocks * (metrics["fls.candidates"] + kept_fit_ops)


def test_every_wrapped_site_is_called(monkeypatch, tmp_path):
    calls = Counter()
    for owner, attr, _ in SITES:
        label = f"{getattr(owner, '__qualname__', owner.__name__)}.{attr}"
        calls[label] += 0

        def counted(*args, _label=label, _fn=vars(owner)[attr], **kwargs):
            calls[_label] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    for name in sorted(WORKLOADS):
        run_pass(tiny(WORKLOADS[name]), 0, tmp_path / f"{name}.nbcb")
    assert {label for label, n in calls.items() if n == 0} == NEVER_CALLED_SITES
