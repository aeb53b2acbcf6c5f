"""The benchmark's result bits, pinned.

Each workload runs one pass at seed 0 through ``bench/workloads.run_pass``,
shrunk as ``bench/test_smoke.py`` shrinks it and at its full size, and the
pass digest (every op's bundle bytes and report values) is compared with
the value recorded here. The full-size digests are the ones ``bench/run.py
--seed 0`` prints. The bits depend on numpy's and the BLAS library's
arithmetic, so the test skips under other versions than those recorded,
as ``tests/test_cli_golden.py`` does.

Record a digest again only when a change is meant to move the benchmark's
bits, and say so in CHANGES.md; a change that keeps the bits leaves this
file as it is.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from test_cli_golden import library_versions  # noqa: E402
from test_smoke import tiny  # noqa: E402
from workloads import WORKLOADS, pass_digest, run_pass  # noqa: E402

VERSIONS = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0"}

# (workload, shrunk): the pass digest at seed 0
DIGESTS = {
    ("desk-sweep", True): "a16a63bef6043c6e9e46cfac655326ad4126b7e80018187fedf38b92cdf68c27",
    ("mid-nbc", True): "652b1fefe91eeae5fef308c9de3e1ccfe6e65f90a6962f669de1047977ab8fbc",
    ("desk-sweep", False): "4aa685f531e55be36ab6bc8c9364a48380ccf69ff1ce48a05314e1c61ba29706",
    ("mid-nbc", False): "f9a612e95d48ff3c4b7f63ab28b90977950d0b3cb8d65d6427350ebf87cd954c",
}


@pytest.mark.parametrize("shrunk", [True, False], ids=["tiny", "full"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pass_digest_is_the_recorded_one(name, shrunk, tmp_path):
    if (versions := library_versions()) != VERSIONS:
        pytest.skip(f"digests recorded under {VERSIONS}, this is {versions}")
    wl = tiny(WORKLOADS[name]) if shrunk else WORKLOADS[name]
    ops = run_pass(wl, 0, tmp_path / "bundle.nbcb")
    assert [op.problems for op in ops if op.failed] == []
    assert pass_digest(ops) == DIGESTS[name, shrunk]
