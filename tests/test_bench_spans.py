"""The benchmark's per-layer figures see what the library runs.

Each workload runs one tiny pass, shrunk as ``bench/test_smoke.py`` shrinks
it. Every block step, full-precision or quantized, calls gelu once per row
tile of its hidden layer, so in the spans a traced run writes, every
``harness.gelu`` span has a ``harness.fp_forward`` or ``harness.q_forward``
parent and every such step span has a gelu child. A library forward that
the benchmark does not wrap (a renamed step, say) leaves gelu spans without
a step parent instead of reading a silent 0. A shrunken mid-nbc pass whose
steps all take several tiles checks that each tile is seen. The solves
add up to the fits, so a fit whose solve the benchmark does not see fails.
And every site the benchmark wraps is called by some workload, so no layer
times a function that nothing runs.
"""

import json
import sys
from collections import Counter
from dataclasses import replace
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


STEP_SPANS = ("harness.fp_forward", "harness.q_forward")

# (workload, the fewest hidden tiles a step takes): the tiny shapes run every
# step as one tile; at h = 512 a tile has 128 rows, and the 256 hold-out
# rows, the 1024 calibration rows and every 1024-row eval chunk take 2 or more
SPAN_RUNS = {name: (tiny(wl), 1) for name, wl in WORKLOADS.items()}
SPAN_RUNS["mid-nbc-tiled"] = (replace(WORKLOADS["mid-nbc"], d=8, h=512, n_blocks=2, n_samples=1024), 2)


@pytest.mark.parametrize("name", sorted(SPAN_RUNS))
def test_forward_spans_count_every_block_step(name, tmp_path):
    wl, min_tiles = SPAN_RUNS[name]
    metrics = run.measure(wl, 0, 0.0, True, tmp_path)["metrics"]
    assert metrics["harness.fp_forward.calls"] > 0 and metrics["harness.q_forward.calls"] > 0
    passes = {}
    with open(tmp_path / f"{wl.name}-seed0-spans.jsonl") as f:
        for line in f:
            span = json.loads(line)
            passes.setdefault(span["pass"], {})[span["id"]] = span
    assert passes
    for spans in passes.values():
        gelu_parents = [spans[s["parent"]]["name"] if s["parent"] >= 0 else None
                        for s in spans.values() if s["name"] == "harness.gelu"]
        assert gelu_parents and set(gelu_parents) <= set(STEP_SPANS), Counter(gelu_parents)
        tiles = Counter(s["parent"] for s in spans.values() if s["name"] == "harness.gelu")
        steps = [i for i, s in spans.items() if s["name"] in STEP_SPANS]
        assert min(tiles[i] for i in steps) >= min_tiles


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
