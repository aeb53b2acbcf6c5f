"""Golden bytes of the command line: every command on a few fixed configs.

Each run records the exit code, stdout, stderr (the run's temporary
directory masked as ``<tmp>``) and the sha256 of every file the command
wrote, and the test compares them with ``cli_golden.json``. The bytes
depend on numpy's and the BLAS library's arithmetic, so the file also
records their versions, and the test skips under any other versions.

To record the file again (only when a change is meant to move these
bytes), from the root of the repository:

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from nbcq.cli import main

GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"

# name -> config text; each run uses the defaults for every key not set
CONFIGS = {
    "nbc-f32": "mode = nbc\nstorage = f32\n",
    "nbc-i8-seed3": "mode = nbc\nstorage = i8_per_channel\nseed = 3\n",
    "linear-f16": "mode = linear\nstorage = f16\n",
    "error-transform-key": "transform = blt\n",
    "d8-3blocks-scale30": "d = 8\nn_blocks = 3\nn_samples = 256\noutlier_scale = 30\n",
    "error-n-min": "n_min = -11\n",
    "error-linear-overflow": "mode = linear\noutlier_scale = 1e200\n",
}


def _commands(cfg: str, work: str) -> dict[str, list[str]]:
    bundle = f"{work}/bundle.nbcb"
    return {
        "calibrate": ["calibrate", "--config", cfg, "--out", bundle],
        "search-n": ["search-n", "--config", cfg],
        "eval": ["eval", "--config", cfg, "--bundle", bundle],
        "analyze-outliers": ["analyze-outliers", "--config", cfg, "--out", f"{work}/outliers"],
        "export": ["export", "--config", cfg, "--bundle", bundle, "--out", f"{work}/export"],
    }


def library_versions() -> dict[str, str]:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def _file_digests(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def run_all(tmp: Path) -> dict[str, dict]:
    """Every command on every config, in order; each config in its own
    directory under ``tmp``, so a command's files are the ones that are new
    or changed in that directory after it ran."""
    runs = {}
    for name, text in CONFIGS.items():
        work = tmp / name
        work.mkdir()
        cfg = tmp / f"{name}.cfg"
        cfg.write_text(text)
        for command, argv in _commands(str(cfg), str(work)).items():
            before = _file_digests(work)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            after = _file_digests(work)
            runs[f"{name}/{command}"] = {
                "exit": code,
                "stdout": out.getvalue().replace(str(tmp), "<tmp>"),
                "stderr": err.getvalue().replace(str(tmp), "<tmp>"),
                "files": {k: v for k, v in after.items() if before.get(k) != v},
            }
    return runs


def test_cli_bytes_match_the_golden_file(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    versions = library_versions()
    if versions != golden["versions"]:
        pytest.skip(f"golden bytes recorded under {golden['versions']}, this is {versions}")
    runs = run_all(tmp_path)
    assert list(runs) == list(golden["runs"])
    for key, expected in golden["runs"].items():
        assert runs[key] == expected, key


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        record = {"versions": library_versions(), "runs": run_all(Path(tmp))}
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n")
    print(f"recorded {len(record['runs'])} runs to {GOLDEN}")
