"""Smoke test of the benchmark itself, at tiny sizes.

Runs every workload shrunk to a few rows, untraced and traced, and checks
that each metric declared in BENCHMARK.json is emitted with its unit, that
the tiny run is correct, and that no span wrapper stays installed.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

import run
from spans import LAYER_METRICS, SITES, leftover_wrappers, missing_sites
from workloads import WORKLOADS

DECLARED = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def tiny(wl):
    return replace(wl, d=8, h=16, n_blocks=2, n_samples=256, seeds_per_pass=min(wl.seeds_per_pass, 2))


def test_declared_metrics_match_the_code():
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == LAYER_METRICS
    assert sorted(w["name"] for w in DECLARED["workloads"]) == sorted(WORKLOADS)
    assert not missing_sites()


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run(name, trace, tmp_path):
    originals = [vars(owner)[attr] for owner, attr, _ in SITES]

    result = run.measure(tiny(WORKLOADS[name]), 0, 0.0, trace, tmp_path)

    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    expected = LAYER_METRICS if trace else run.END_TO_END
    assert list(result["metrics"]) == list(expected)
    assert all(isinstance(v, (int, float)) for v in result["metrics"].values())
    assert not leftover_wrappers()
    assert all(vars(o)[a] is orig for (o, a, _), orig in zip(SITES, originals))
    if trace:
        assert result["metrics"]["fls.candidates"] > 0
