import csv
import hashlib
import io
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import nbcq
from nbcq.cli import EVAL_CSV_COLUMNS, main, read_run_config
from nbcq.errors import FitError
from nbcq.formats import BUNDLE_MAGIC, read_bundle, read_tensor

from helpers import deep_tensor_record, one_block_bundle, oversized_bundle_bytes

SMALL_CFG = """
d = 8
h = 12
n_blocks = 2
n_samples = 80
seed = 3
bits_w = 4
bits_a = 4
mode = nbc
storage = f16
outlier_fraction = 0.1
outlier_scale = 12.0
"""


# the eval CSV columns in the order the README documents
README_EVAL_COLUMNS = [
    "mode", "transform", "bits_w", "bits_a", "seed", "storage", "chosen_n",
    "feature_loss", "mae_outlier", "mae_inlier", "slope_gap_before", "slope_gap_after",
    "block", "block_loss", "ridge_used", "residual_rms",
]


def small_cfg_with(extra: str) -> str:
    """SMALL_CFG with the keys that ``extra`` sets taken from ``extra``; a
    config may set each key once."""
    keys = {line.split("=")[0].strip() for line in extra.splitlines()}
    kept = [line for line in SMALL_CFG.splitlines() if line.split("=")[0].strip() not in keys]
    return "\n".join(kept + [extra]) + "\n"


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CFG)
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(args, cwd):
    """Run ``python -m nbcq`` in a child process, whose stderr is what a user
    sees, warnings included; returns (exit code, stdout, stderr)."""
    # The child runs outside the repository, where a relative PYTHONPATH entry
    # such as "src" names nothing, so put the root of the package this suite
    # imported in front.
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(nbcq.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "nbcq", *args], capture_output=True, text=True, cwd=str(cwd), env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


def assert_failed(code, err, exit_code, err_code):
    """A failing run exits with ``exit_code`` and prints exactly one stderr
    line, ``error<TAB>err_code<TAB>message``, with no traceback or warning."""
    assert code == exit_code, err
    assert err.startswith(f"error\t{err_code}\t"), err
    assert err.endswith("\n") and err.count("\n") == 1, err
    assert "Traceback" not in err and "Warning" not in err, err


class TestCalibrate:
    def test_writes_bundle_with_magic(self, cfg_path, tmp_path, capsys):
        bundle = str(tmp_path / "comp.nbcb")
        code, out, err = run_cli(["calibrate", "--config", cfg_path, "--out", bundle], capsys)
        assert code == 0, err
        assert open(bundle, "rb").read(4) == BUNDLE_MAGIC
        assert "ridge_used=" in out and "residual_rms=" in out
        modules = read_bundle(bundle)
        assert len(modules) == 2
        assert all(m.storage == "f16" for m in modules)

    def test_missing_config_exits_2_names_path(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.cfg")
        code, out, err = run_cli(
            ["calibrate", "--config", missing, "--out", str(tmp_path / "b.nbcb")], capsys
        )
        assert_failed(code, err, 2, "config")
        assert "nope.cfg" in err

    def test_missing_out_flag_exits_2(self, cfg_path, capsys):
        code, _, err = run_cli(["calibrate", "--config", cfg_path], capsys)
        assert_failed(code, err, 2, "config")
        assert "--out" in err

    def test_rerun_byte_identical(self, cfg_path, tmp_path, capsys):
        digests = []
        for name in ("a.nbcb", "b.nbcb"):
            bundle = str(tmp_path / name)
            code, out, _ = run_cli(["calibrate", "--config", cfg_path, "--out", bundle], capsys)
            assert code == 0
            fit_lines = [l for l in out.splitlines() if not l.startswith("bundle=")]
            payload = open(bundle, "rb").read() + "\n".join(fit_lines).encode()
            digests.append(hashlib.sha256(payload).hexdigest())
        assert digests[0] == digests[1]

    def test_seed_override_changes_output(self, cfg_path, tmp_path, capsys):
        b1, b2 = str(tmp_path / "s1.nbcb"), str(tmp_path / "s2.nbcb")
        run_cli(["calibrate", "--config", cfg_path, "--out", b1], capsys)
        run_cli(["calibrate", "--config", cfg_path, "--seed", "99", "--out", b2], capsys)
        assert open(b1, "rb").read() != open(b2, "rb").read()

    def test_mode_none_rejected(self, tmp_path, capsys):
        path = tmp_path / "none.cfg"
        path.write_text(SMALL_CFG.replace("mode = nbc", "mode = none"))
        code, _, err = run_cli(
            ["calibrate", "--config", str(path), "--out", str(tmp_path / "x.nbcb")], capsys
        )
        assert_failed(code, err, 2, "config")
        assert err == f"error\tconfig\t{path}: mode must be one of ('linear', 'nbc'), got 'none'\n"


class TestSearchN:
    def test_prints_sorted_map_and_chosen(self, cfg_path, capsys):
        code, out, err = run_cli(["search-n", "--config", cfg_path], capsys)
        assert code == 0, err
        lines = out.strip().splitlines()
        assert lines[-1].startswith("chosen\t")
        explored = [float(line.split("\t")[0]) for line in lines[:-1]]
        assert explored == sorted(explored)
        chosen = float(lines[-1].split("\t")[1])
        assert chosen in explored


    @pytest.mark.parametrize("command", ["search-n", "analyze-outliers"])
    def test_fits_no_kept_module(self, cfg_path, tmp_path, capsys, monkeypatch, command):
        # both commands read only the search: every fit is a candidate, given rows
        import nbcq.harness as harness_mod

        calls = {"kept": 0, "candidate": 0}
        original = harness_mod.fit_nbc

        def counting(rec, kind, rows=None):
            calls["kept" if rows is None else "candidate"] += 1
            return original(rec, kind, rows)

        monkeypatch.setattr(harness_mod, "fit_nbc", counting)
        out_args = [] if command == "search-n" else ["--out", str(tmp_path / "out")]
        code, _, err = run_cli([command, "--config", cfg_path, *out_args], capsys)
        assert code == 0, err
        assert calls["kept"] == 0 and calls["candidate"] > 0

    def test_out_rejected_before_setup_exit_2(self, cfg_path, tmp_path, capsys, monkeypatch):
        # search-n prints its map and writes no file, so an --out would be ignored
        import nbcq.cli as cli_mod

        def no_setup(*args, **kwargs):
            raise AssertionError("the run was set up")

        monkeypatch.setattr(cli_mod, "_build_setup", no_setup)
        out_path = tmp_path / "map.tsv"
        results = [run_cli(["search-n", "--config", cfg_path, "--out", str(out_path)], capsys) for _ in range(2)]
        assert results[0] == results[1]
        code, out, err = results[0]
        assert_failed(code, err, 2, "config")
        assert err == f"error\tconfig\tsearch-n writes no file, so it takes no --out: {out_path}\n"
        assert out == "" and not out_path.exists()


class TestEval:
    def test_csv_to_stdout(self, cfg_path, tmp_path, capsys):
        bundle = str(tmp_path / "comp.nbcb")
        run_cli(["calibrate", "--config", cfg_path, "--out", bundle], capsys)
        code, out, err = run_cli(["eval", "--config", cfg_path, "--bundle", bundle], capsys)
        assert code == 0, err
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(README_EVAL_COLUMNS)
        assert EVAL_CSV_COLUMNS == README_EVAL_COLUMNS
        assert len(lines) == 1 + 2  # header + one row per block

    def test_csv_to_file_deterministic(self, cfg_path, tmp_path, capsys):
        bundle = str(tmp_path / "comp.nbcb")
        run_cli(["calibrate", "--config", cfg_path, "--out", bundle], capsys)
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out_path = str(tmp_path / name)
            code, _, _ = run_cli(
                ["eval", "--config", cfg_path, "--bundle", bundle, "--out", out_path], capsys
            )
            assert code == 0
            outs.append(open(out_path, "rb").read())
        assert outs[0] == outs[1]

    def test_block_count_mismatch_exits_2(self, cfg_path, tmp_path, capsys):
        bundle = str(tmp_path / "comp.nbcb")
        run_cli(["calibrate", "--config", cfg_path, "--out", bundle], capsys)
        other = tmp_path / "other.cfg"
        other.write_text(SMALL_CFG.replace("n_blocks = 2", "n_blocks = 3"))
        code, _, err = run_cli(
            ["eval", "--config", str(other), "--bundle", bundle], capsys
        )
        assert_failed(code, err, 2, "config")
        assert "blocks" in err

    def test_block_width_mismatch_exits_2_naming_d(self, cfg_path, tmp_path, capsys):
        bundle = str(tmp_path / "comp.nbcb")
        code, _, err = run_cli(["calibrate", "--config", cfg_path, "--out", bundle], capsys)
        assert code == 0, err
        other = tmp_path / "wide.cfg"
        other.write_text(SMALL_CFG.replace("d = 8", "d = 12"))  # same block count
        code, out, err = run_cli(["eval", "--config", str(other), "--bundle", bundle], capsys)
        assert_failed(code, err, 2, "config")
        assert err == "error\tconfig\tbundle block 0 maps 8 to 8 channels but the configuration has d = 12\n"
        assert out == ""

    def test_bad_bundle_version_exits_1_writing_no_csv(self, cfg_path, tmp_path, capsys):
        bundle = tmp_path / "comp.nbcb"
        code, _, err = run_cli(["calibrate", "--config", cfg_path, "--out", str(bundle)], capsys)
        assert code == 0, err
        data = bytearray(bundle.read_bytes())
        data[4] = 2  # the version byte
        bundle.write_bytes(bytes(data))
        report = tmp_path / "report.csv"
        code, out, err = run_cli(
            ["eval", "--config", cfg_path, "--bundle", str(bundle), "--out", str(report)], capsys
        )
        assert code == 1
        assert err == f"error\tbad-version\t{bundle}: unsupported bundle version 2\n"
        assert out == "" and not report.exists()

    @pytest.mark.parametrize(
        "case, other_cfg, exit_code, line",
        [
            ("corrupt", SMALL_CFG, 1, "error\tbad-magic\t{bundle}: bad bundle magic b'NOPE'\n"),
            ("blocks", SMALL_CFG.replace("n_blocks = 2", "n_blocks = 3"), 2,
             "error\tconfig\tbundle has 2 blocks but the configuration expects 3\n"),
            ("width", SMALL_CFG.replace("d = 8", "d = 12"), 2,
             "error\tconfig\tbundle block 0 maps 8 to 8 channels but the configuration has d = 12\n"),
        ],
        ids=["corrupt", "blocks", "width"],
    )
    def test_bundle_checked_before_setup(self, cfg_path, tmp_path, capsys, monkeypatch,
                                         case, other_cfg, exit_code, line):
        import nbcq.cli as cli_mod

        bundle = tmp_path / "comp.nbcb"
        code, _, err = run_cli(["calibrate", "--config", cfg_path, "--out", str(bundle)], capsys)
        assert code == 0, err
        if case == "corrupt":
            bundle.write_bytes(b"NOPE" + bundle.read_bytes()[4:])

        def no_setup(*args, **kwargs):
            raise AssertionError("the run was set up")

        monkeypatch.setattr(cli_mod, "_build_setup", no_setup)
        other = tmp_path / "other.cfg"
        other.write_text(other_cfg)
        code, out, err = run_cli(["eval", "--config", str(other), "--bundle", str(bundle)], capsys)
        assert code == exit_code
        assert err == line.format(bundle=bundle)
        assert out == ""

    @pytest.mark.parametrize(
        "kinds, first_other",
        [((("blt", 1.0), ("blt", 1.0), ("identity",)), 2),
         ((("identity",), ("blt", 0.5), ("identity",)), 1)],
        ids=["nbc-then-identity", "linear-then-blt"],
    )
    def test_mixed_kind_bundle_is_a_format_error_before_setup(self, tmp_path, capsys, monkeypatch,
                                                              kinds, first_other):
        import nbcq.cli as cli_mod
        from nbcq.compensation import CompensationModule
        from nbcq.formats import write_bundle
        from nbcq.transform import TransformKind

        rng = np.random.default_rng(11)
        bundle = tmp_path / "mixed.nbcb"
        write_bundle(str(bundle), [
            CompensationModule(kind=TransformKind(*kind), weight=rng.standard_normal((8, 8)),
                               bias=rng.standard_normal(8))
            for kind in kinds
        ])

        def no_setup(*args, **kwargs):
            raise AssertionError("the run was set up")

        monkeypatch.setattr(cli_mod, "_build_setup", no_setup)
        path = tmp_path / "run.cfg"
        path.write_text(small_cfg_with("n_blocks = 3"))
        report = tmp_path / "report.csv"
        code, out, err = run_cli(
            ["eval", "--config", str(path), "--bundle", str(bundle), "--out", str(report)], capsys
        )
        assert code == 1
        other, first = kinds[first_other][0], kinds[0][0]
        assert err == (f"error\tformat\t{bundle}: block {first_other} is {other} but block 0 is "
                       f"{first}; every block applies one map\n")
        assert out == "" and not report.exists()

    def test_blocks_with_different_blt_exponents_evaluate(self, cfg_path, tmp_path, capsys):
        from dataclasses import replace

        from nbcq.formats import write_bundle
        from nbcq.transform import TransformKind

        bundle = str(tmp_path / "comp.nbcb")
        assert run_cli(["calibrate", "--config", cfg_path, "--out", bundle], capsys)[0] == 0
        first, last = read_bundle(bundle)

        def eval_rows(first_n):
            write_bundle(bundle, [replace(first, kind=TransformKind("blt", first_n)),
                                  replace(last, kind=TransformKind("blt", 2.0))])
            code, out, err = run_cli(["eval", "--config", cfg_path, "--bundle", bundle], capsys)
            assert code == 0, err
            return list(csv.DictReader(io.StringIO(out)))

        mixed, uniform = eval_rows(0.5), eval_rows(2.0)
        # no exponent was chosen for every block, so none is reported
        assert [(r["mode"], r["transform"], r["chosen_n"]) for r in mixed] == [("nbc", "blt", "")] * 2
        assert [r["chosen_n"] for r in uniform] == ["2.0"] * 2
        # the slope gap is still taken at the last block's exponent
        gap_cells = [(r["slope_gap_before"], r["slope_gap_after"]) for r in mixed]
        assert gap_cells == [(r["slope_gap_before"], r["slope_gap_after"]) for r in uniform]
        assert gap_cells[0][1] != ""

    @pytest.mark.parametrize("command", ["eval", "export"])
    def test_kind_byte_2_is_an_unknown_kind(self, cfg_path, tmp_path, capsys, command):
        bundle = tmp_path / "comp.nbcb"
        assert run_cli(["calibrate", "--config", cfg_path, "--out", str(bundle)], capsys)[0] == 0
        data = bytearray(bundle.read_bytes())
        data[9] = 2  # block 0's kind byte, once the code of asinh
        bundle.write_bytes(bytes(data))
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            [command, "--config", cfg_path, "--bundle", str(bundle), "--out", str(out_dir)], capsys
        )
        assert code == 1
        assert err == f"error\tformat\t{bundle}: unknown kind code 2\n"
        assert out == "" and not out_dir.exists()

    def test_fit_metadata_not_in_bundle_writes_empty_cells(self, cfg_path, tmp_path, capsys):
        bundle = str(tmp_path / "comp.nbcb")
        code, out, err = run_cli(["calibrate", "--config", cfg_path, "--out", bundle], capsys)
        assert code == 0, err
        # calibrate knows the fit it made and prints it
        fits = [line for line in out.splitlines() if line.startswith("block=")]
        assert len(fits) == 2
        assert all(float(line.rsplit("residual_rms=", 1)[1]) > 0.0 for line in fits)
        code, out, err = run_cli(["eval", "--config", cfg_path, "--bundle", bundle], capsys)
        assert code == 0, err
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2
        for row in rows:
            assert row["ridge_used"] == "" and row["residual_rms"] == ""
            assert row["block_loss"] != ""

    def test_absent_metrics_write_empty_cells(self, tmp_path, capsys):
        # no amplified rows: the outlier partition is empty and so is the slope gap
        path = tmp_path / "clean.cfg"
        path.write_text(SMALL_CFG.replace("outlier_fraction = 0.1", "outlier_fraction = 0.0"))
        bundle = str(tmp_path / "comp.nbcb")
        code, _, err = run_cli(["calibrate", "--config", str(path), "--out", bundle], capsys)
        assert code == 0, err
        code, out, err = run_cli(["eval", "--config", str(path), "--bundle", bundle], capsys)
        assert code == 0, err
        for row in csv.DictReader(io.StringIO(out)):
            assert row["mae_outlier"] == ""
            assert row["slope_gap_before"] == "" and row["slope_gap_after"] == ""
            assert row["mae_inlier"] != "" and row["feature_loss"] != ""

    def test_corrupt_bundle_exits_1(self, cfg_path, tmp_path, capsys):
        bundle = tmp_path / "corrupt.nbcb"
        bundle.write_bytes(b"NOPE" + bytes(32))
        code, _, err = run_cli(["eval", "--config", cfg_path, "--bundle", str(bundle)], capsys)
        assert_failed(code, err, 1, "bad-magic")

    @pytest.mark.parametrize("command", ["eval", "export"])
    def test_invalid_bundle_contents_exit_1_with_one_format_line(self, cfg_path, tmp_path, capsys, command):
        bundle = tmp_path / "comp.nbcb"
        code, _, err = run_cli(["calibrate", "--config", cfg_path, "--out", str(bundle)], capsys)
        assert code == 0, err
        data = bytearray(bundle.read_bytes())
        data[10:18] = struct.pack("<d", float("nan"))  # block 0's threshold exponent
        bundle.write_bytes(bytes(data))
        args = [command, "--config", cfg_path, "--bundle", str(bundle), "--out", str(tmp_path / "out")]
        code, out, err = run_cli(args, capsys)
        assert_failed(code, err, 1, "format")
        assert err.startswith(f"error\tformat\t{bundle}: block 0: ")
        assert out == ""

    @pytest.mark.parametrize("scale", [0.0, -0.5])
    @pytest.mark.parametrize("command", ["eval", "export"])
    def test_non_positive_i8_scale_exits_1_with_one_format_line(self, tmp_path, capsys, command, scale):
        path = tmp_path / "run.cfg"
        path.write_text(small_cfg_with("storage = i8_per_channel"))
        bundle = tmp_path / "comp.nbcb"
        code, _, err = run_cli(["calibrate", "--config", str(path), "--out", str(bundle)], capsys)
        assert code == 0, err
        data = bundle.read_bytes()
        # the file ends with the last block's d = 8 f32 scales; set its first
        bundle.write_bytes(data[:-32] + struct.pack("<f", scale) + data[-28:])
        args = [command, "--config", str(path), "--bundle", str(bundle), "--out", str(tmp_path / "out")]
        code, out, err = run_cli(args, capsys)
        assert_failed(code, err, 1, "format")
        assert err == f"error\tformat\t{bundle}: block 1: scales must be finite and > 0\n"
        assert out == ""

    @pytest.mark.parametrize("command", ["eval", "export"])
    def test_payload_beyond_the_file_exits_1_truncated(self, cfg_path, tmp_path, capsys, command):
        # the weight header declares 32 GiB; the file holds 17 payload bytes
        bundle = tmp_path / "huge.nbcb"
        bundle.write_bytes(oversized_bundle_bytes())
        args = [command, "--config", cfg_path, "--bundle", str(bundle), "--out", str(tmp_path / "out")]
        code, out, err = run_cli(args, capsys)
        assert_failed(code, err, 1, "truncated")
        assert "expected 34359738368 bytes, got 17" in err
        assert out == ""

    @pytest.mark.parametrize("command", ["eval", "export"])
    def test_weight_deeper_than_numpy_allows_exits_1_with_one_format_line(self, cfg_path, tmp_path, capsys, command):
        bundle = tmp_path / "deep.nbcb"
        bundle.write_bytes(one_block_bundle(deep_tensor_record()))
        out_dir = tmp_path / "out"
        args = [command, "--config", cfg_path, "--bundle", str(bundle), "--out", str(out_dir)]
        code, out, err = run_cli(args, capsys)
        assert_failed(code, err, 1, "format")
        assert err.startswith(f"error\tformat\t{bundle}: tensor of rank 65: ")
        assert out == "" and not out_dir.exists()


class TestAnalyzeOutliers:
    def test_writes_two_csvs(self, cfg_path, tmp_path, capsys):
        out_dir = str(tmp_path / "analysis")
        code, out, err = run_cli(
            ["analyze-outliers", "--config", cfg_path, "--out", out_dir], capsys
        )
        assert code == 0, err
        gap = open(os.path.join(out_dir, "slope_gap.csv")).read().splitlines()
        sweep = open(os.path.join(out_dir, "wstar_sweep.csv")).read().splitlines()
        assert gap[0] == "block,channel,n_exp,gap_before,gap_after"
        assert sweep[0] == "outlier_magnitude,slope"
        assert len(sweep) == 1 + 33
        # the sweep demonstrates slope decay as the outlier magnitude grows
        slopes = [abs(float(line.split(",")[1])) for line in sweep[1:]]
        assert slopes[-1] < slopes[0]

    def test_block_without_outliers_gets_no_row(self, tmp_path, capsys):
        # desk defaults with no amplified rows: no block's channel passes the threshold
        path = tmp_path / "run.cfg"
        path.write_text("outlier_fraction = 0\n")
        out_dir = tmp_path / "analysis"
        code, _, err = run_cli(["analyze-outliers", "--config", str(path), "--out", str(out_dir)], capsys)
        assert code == 0, err
        assert (out_dir / "slope_gap.csv").read_text() == "block,channel,n_exp,gap_before,gap_after\n"

    def test_undefined_slope_writes_empty_gap_cells(self, cfg_path, tmp_path, capsys, monkeypatch):
        import nbcq.harness as harness_mod
        from nbcq.errors import FitError

        def undefined(*args, **kwargs):
            raise FitError("x is constant; slope with bias is undefined")

        monkeypatch.setattr(harness_mod, "slope_gap_analysis", undefined)
        out_dir = str(tmp_path / "analysis")
        code, _, err = run_cli(["analyze-outliers", "--config", cfg_path, "--out", out_dir], capsys)
        assert code == 0, err
        gap = open(os.path.join(out_dir, "slope_gap.csv")).read().splitlines()
        assert len(gap) > 1
        for line in gap[1:]:
            assert line.endswith(",,"), line

    def test_last_block_gaps_equal_eval_gaps(self, cfg_path, tmp_path, capsys):
        bundle = str(tmp_path / "comp.nbcb")
        code, _, err = run_cli(["calibrate", "--config", cfg_path, "--out", bundle], capsys)
        assert code == 0, err
        code, out, err = run_cli(["eval", "--config", cfg_path, "--bundle", bundle], capsys)
        assert code == 0, err
        report = list(csv.DictReader(io.StringIO(out)))[0]
        out_dir = tmp_path / "analysis"
        code, _, err = run_cli(["analyze-outliers", "--config", cfg_path, "--out", str(out_dir)], capsys)
        assert code == 0, err
        last = list(csv.DictReader(io.StringIO((out_dir / "slope_gap.csv").read_text())))[-1]
        assert last["block"] == "1"  # the last of SMALL_CFG's two blocks
        assert last["n_exp"] == report["chosen_n"]
        assert last["gap_before"] != "" and last["gap_after"] != ""
        assert (last["gap_before"], last["gap_after"]) == (
            report["slope_gap_before"],
            report["slope_gap_after"],
        )


class TestSearchRowValidation:
    @pytest.mark.parametrize("extra", ["d = 16\nn_samples = 18\n"], ids=["n18-d16"])
    @pytest.mark.parametrize("command", ["calibrate", "search-n", "eval"])
    def test_too_few_fit_rows_exit_2_naming_keys(self, tmp_path, capsys, extra, command):
        path = tmp_path / "small.cfg"
        path.write_text(small_cfg_with(extra))
        args = [command, "--config", str(path), "--out", str(tmp_path / "b.nbcb")]
        if command == "eval":
            args += ["--bundle", str(tmp_path / "absent.nbcb")]
        code, out, err = run_cli(args, capsys)
        assert_failed(code, err, 2, "config")
        assert "n_samples = 18" in err and "d + 1 = 17" in err
        assert out == ""


# config lines that parse but that the run would reject, and the key each names
BAD_VALUES = [
    ("outlier_fraction = 0.5", "outlier_fraction"),
    ("outlier_scale = 0.5", "outlier_scale"),
    ("step = 0", "step"),
    ("n_init = 20", "n_init"),
    ("n_init = 15\nn_max = 20", "n_max"),
    ("bits_w = 0", "bits_w"),
    ("d = 0", "d"),
    ("seed = -1", "seed"),
    ("outlier_scale = inf", "outlier_scale"),
    ("step = inf", "step"),
    ("step = 1e-300", "step"),
    ("step = 1e-300\nn_init = 2\nn_min = 2\nn_max = 2", "step"),
]


# the stderr line, after "error<TAB>config<TAB><path>: ", of each bound that
# check_model_shape, check_bits, OutlierSpec and FlsConfig state and of the
# fit-row rule
LIBRARY_RULE_LINES = [
    ("d = 0", "d must be >= 1, got 0"),
    ("h = 0", "h must be >= 1, got 0"),
    ("bits_w = 1", "bits_w must be in [2, 8], got 1"),
    ("bits_a = 9", "bits_a must be in [2, 8], got 9"),
    ("outlier_fraction = 0.5", "outlier_fraction must be in [0, 0.2], got 0.5"),
    ("outlier_scale = 0.5", "outlier_scale must be >= 1, got 0.5"),
    ("n_min = -14", "n_min must be >= -10.0, got -14.0"),
    ("n_max = 10.5", "n_max must be <= 10.0, got 10.5"),
    ("n_init = 20", "n_init must be in [n_min, n_max], got 20.0"),
    ("step = 1e-300", "step must be >= 0.015625, got 1e-300"),
    (
        "d = 16\nn_samples = 18",
        "n_samples = 18 leaves 14 rows to fit on after the hold-out quarter; "
        "the search needs at least d + 1 = 17",
    ),
]


class TestConfigValues:
    @pytest.mark.parametrize(
        "extra, key", BAD_VALUES, ids=[e.replace("\n", ",").replace(" ", "") for e, _ in BAD_VALUES]
    )
    def test_rejected_before_setup_exit_2_naming_key(self, tmp_path, capsys, monkeypatch, extra, key):
        import nbcq.cli as cli_mod

        def no_setup(*args, **kwargs):
            raise AssertionError("the run was set up")

        monkeypatch.setattr(cli_mod, "_build_setup", no_setup)
        path = tmp_path / "bad.cfg"
        path.write_text(small_cfg_with(extra))
        code, out, err = run_cli(["search-n", "--config", str(path)], capsys)
        assert_failed(code, err, 2, "config")
        assert err.startswith(f"error\tconfig\t{path}: {key} must be ")
        assert out == ""

    @pytest.mark.parametrize(
        "extra, line",
        LIBRARY_RULE_LINES,
        ids=[e.replace("\n", ",").replace(" ", "") for e, _ in LIBRARY_RULE_LINES],
    )
    def test_library_rule_is_the_exact_line_before_setup(self, tmp_path, capsys, monkeypatch, extra, line):
        import nbcq.cli as cli_mod

        def no_setup(*args, **kwargs):
            raise AssertionError("the run was set up")

        monkeypatch.setattr(cli_mod, "_build_setup", no_setup)
        path = tmp_path / "bad.cfg"
        path.write_text(small_cfg_with(extra))
        code, out, err = run_cli(["search-n", "--config", str(path)], capsys)
        assert code == 2
        assert err == f"error\tconfig\t{path}: {line}\n"
        assert out == ""

    @pytest.mark.parametrize("command", ["calibrate", "search-n", "eval", "analyze-outliers", "export"])
    def test_mode_none_is_invalid_for_every_command(self, tmp_path, capsys, monkeypatch, cfg_path, command):
        # one config is valid or invalid for all five; eval and export get a
        # bundle they could read, so only the mode can fail them
        import nbcq.cli as cli_mod

        bundle = str(tmp_path / "comp.nbcb")
        assert run_cli(["calibrate", "--config", cfg_path, "--out", bundle], capsys)[0] == 0

        def no_setup(*args, **kwargs):
            raise AssertionError("the run was set up")

        monkeypatch.setattr(cli_mod, "_build_setup", no_setup)
        path = tmp_path / "none.cfg"
        path.write_text(small_cfg_with("mode = none"))
        args = [command, "--config", str(path)]
        if command != "search-n":
            args += ["--out", str(tmp_path / "out")]
        if command in ("eval", "export"):
            args += ["--bundle", bundle]
        code, out, err = run_cli(args, capsys)
        assert_failed(code, err, 2, "config")
        assert err == f"error\tconfig\t{path}: mode must be one of ('linear', 'nbc'), got 'none'\n"
        assert out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["calibrate", "search-n", "eval", "analyze-outliers", "export"])
    def test_transform_key_is_unknown_before_setup(self, tmp_path, capsys, monkeypatch, command):
        # the mode alone names the map, so no config sets one
        import nbcq.cli as cli_mod

        def no_setup(*args, **kwargs):
            raise AssertionError("the run was set up")

        monkeypatch.setattr(cli_mod, "_build_setup", no_setup)
        path = tmp_path / "run.cfg"
        path.write_text(SMALL_CFG + "transform = blt\n")
        args = [command, "--config", str(path), "--out", str(tmp_path / "out")]
        if command in ("eval", "export"):
            args += ["--bundle", str(tmp_path / "absent.nbcb")]
        code, out, err = run_cli(args, capsys)
        assert code == 2
        line = len(SMALL_CFG.splitlines()) + 1
        assert err == f"error\tconfig\t{path}:{line}: unknown configuration key 'transform'\n"
        assert out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("transform", ["blt", "asinh"])
    @pytest.mark.parametrize("mode", ["none", "linear", "nbc"])
    def test_transform_key_is_unknown_under_every_mode(self, tmp_path, capsys, monkeypatch, mode, transform):
        # the key is refused before its value or the mode is read: once
        # both values passed under nbc and failed as set under none and linear
        import nbcq.cli as cli_mod

        def no_setup(*args, **kwargs):
            raise AssertionError("the run was set up")

        monkeypatch.setattr(cli_mod, "_build_setup", no_setup)
        path = tmp_path / "run.cfg"
        text = small_cfg_with(f"mode = {mode}\ntransform = {transform}")
        path.write_text(text)
        code, out, err = run_cli(["search-n", "--config", str(path)], capsys)
        assert code == 2
        line = text.splitlines().index(f"transform = {transform}") + 1
        assert err == f"error\tconfig\t{path}:{line}: unknown configuration key 'transform'\n"
        assert out == ""

    @pytest.mark.parametrize(
        "line",
        [
            "heavy_channel = 0", "out_dir = .", "holdout_fraction = 0.25", "outlier_threshold = 10",
            "heavy_scale = nan", "heavy_input_scale = -inf",
        ],
    )
    @pytest.mark.parametrize("command", ["calibrate", "search-n", "eval", "analyze-outliers", "export"])
    def test_removed_key_is_unknown_before_setup(self, tmp_path, capsys, monkeypatch, command, line):
        # the heavy channel and its gains, the hold-out fraction and the
        # outlier threshold are fixed, and --out alone names an output path
        import nbcq.cli as cli_mod

        def no_run(*args, **kwargs):
            raise AssertionError("the run was set up")

        monkeypatch.setattr(cli_mod, "_build_setup", no_run)
        monkeypatch.setattr(cli_mod, "read_bundle", no_run)
        path = tmp_path / "run.cfg"
        path.write_text(line + "\n" + SMALL_CFG)
        args = [command, "--config", str(path), "--out", str(tmp_path / "out")]
        if command in ("eval", "export"):
            args += ["--bundle", str(tmp_path / "absent.nbcb")]
        code, out, err = run_cli(args, capsys)
        assert code == 2
        key = line.split(" = ")[0]
        assert err == f"error\tconfig\t{path}:1: unknown configuration key '{key}'\n"
        assert out == "" and os.listdir(tmp_path) == ["run.cfg"]

    def test_negative_seed_flag_rejected_before_setup(self, cfg_path, capsys, monkeypatch):
        import nbcq.cli as cli_mod

        def no_setup(*args, **kwargs):
            raise AssertionError("the run was set up")

        monkeypatch.setattr(cli_mod, "_build_setup", no_setup)
        code, out, err = run_cli(["search-n", "--config", cfg_path, "--seed", "-3"], capsys)
        assert_failed(code, err, 2, "config")
        assert err == "error\tconfig\t--seed must be >= 0, got -3\n"
        assert out == ""


class TestBundleBlockLimit:
    """A bundle counts its blocks in a u16, so a config with more blocks
    than a bundle holds is rejected before any setup, by every command."""

    # every other rule passes: one fit row more than d, a linear fit
    LIMIT_CFG = (
        "d = 1\nh = 1\nn_samples = 3\nmode = linear\noutlier_fraction = 0\n"
    )

    @pytest.mark.parametrize(
        "n_blocks, rule",
        [("65536", "n_blocks must be <= 65535, got 65536"), ("0", "n_blocks must be >= 1, got 0")],
    )
    @pytest.mark.parametrize("command", ["calibrate", "search-n", "eval", "analyze-outliers", "export"])
    def test_rejected_before_setup_exit_2_naming_n_blocks(
        self, tmp_path, capsys, monkeypatch, command, n_blocks, rule
    ):
        import nbcq.cli as cli_mod

        def no_run(*args, **kwargs):
            raise AssertionError("the run was set up")

        monkeypatch.setattr(cli_mod, "_build_setup", no_run)
        monkeypatch.setattr(cli_mod, "read_bundle", no_run)
        path = tmp_path / "run.cfg"
        path.write_text(self.LIMIT_CFG + f"n_blocks = {n_blocks}\n")
        args = [command, "--config", str(path), "--out", str(tmp_path / "out")]
        if command in ("eval", "export"):
            args += ["--bundle", str(tmp_path / "comp.nbcb")]
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert err == f"error\tconfig\t{path}: {rule}\n"
        assert out == "" and os.listdir(tmp_path) == ["run.cfg"]

    def test_the_limit_itself_accepted(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(self.LIMIT_CFG + "n_blocks = 65535\n")
        assert read_run_config(str(path)).n_blocks == 65535


class TestSeedFlag:
    """``--seed N`` runs the config with ``seed = N``: the same bytes as
    setting it in the file, from every command that reads the seed."""

    @pytest.mark.parametrize("command", ["calibrate", "search-n", "eval", "analyze-outliers"])
    def test_flag_gives_the_bytes_of_the_config_key(self, tmp_path, capsys, command):
        bundle = tmp_path / "comp.nbcb"
        out_dir = tmp_path / "analysis"
        flag_cfg = tmp_path / "flag.cfg"
        flag_cfg.write_text(SMALL_CFG)  # seed = 3
        key_cfg = tmp_path / "key.cfg"
        key_cfg.write_text(small_cfg_with("seed = 5"))
        if command == "eval":
            code, _, err = run_cli(["calibrate", "--config", str(key_cfg), "--out", str(bundle)], capsys)
            assert code == 0, err
        results = []
        for args in (["--config", str(flag_cfg), "--seed", "5"], ["--config", str(key_cfg)]):
            extra = {
                "calibrate": ["--out", str(bundle)],
                "search-n": [],
                "eval": ["--bundle", str(bundle)],
                "analyze-outliers": ["--out", str(out_dir)],
            }[command]
            code, out, err = run_cli([command, *args, *extra], capsys)
            assert code == 0, err
            files = {}
            if command == "calibrate":
                files["bundle"] = bundle.read_bytes()
            if command == "analyze-outliers":
                files = {name: (out_dir / name).read_bytes() for name in ("slope_gap.csv", "wstar_sweep.csv")}
            results.append((out, files))
        assert results[0] == results[1]


class TestEmptyOut:
    @pytest.mark.parametrize("command", ["calibrate", "search-n", "eval", "analyze-outliers", "export"])
    def test_rejected_before_config_exit_2(self, tmp_path, capsys, monkeypatch, command):
        import nbcq.cli as cli_mod

        def no_run(*args, **kwargs):
            raise AssertionError("the config was read")

        monkeypatch.setattr(cli_mod, "read_run_config", no_run)
        args = [command, "--config", str(tmp_path / "run.cfg"), "--out", ""]
        if command in ("eval", "export"):
            args += ["--bundle", str(tmp_path / "comp.nbcb")]
        code, out, err = run_cli(args, capsys)
        assert_failed(code, err, 2, "config")
        assert err == "error\tconfig\t--out must be a non-empty path, got ''\n"
        assert out == "" and os.listdir(tmp_path) == []


class TestOutPath:
    """A bad ``--out`` fails the same way on every run: the message names
    the path given, never a temporary file, and no temporary file is left."""

    def run_twice(self, tmp_path, capsys, args):
        results = [run_cli(args, capsys) for _ in range(2)]
        assert results[0] == results[1]
        leftovers = [name for _, _, names in os.walk(tmp_path) for name in names if name.startswith(".nbc-")]
        assert leftovers == []
        return results[0]

    @pytest.mark.parametrize("command", ["calibrate", "eval"])
    def test_directory_rejected_before_setup_exit_2(self, tmp_path, capsys, monkeypatch, cfg_path, command):
        import nbcq.cli as cli_mod

        def no_run(*args, **kwargs):
            raise AssertionError("the run was set up")

        monkeypatch.setattr(cli_mod, "_build_setup", no_run)
        monkeypatch.setattr(cli_mod, "read_bundle", no_run)
        out = tmp_path / "existing"
        out.mkdir()
        args = [command, "--config", cfg_path, "--out", str(out)]
        if command == "eval":
            args += ["--bundle", str(tmp_path / "comp.nbcb")]
        code, stdout, err = self.run_twice(tmp_path, capsys, args)
        assert_failed(code, err, 2, "config")
        assert err == f"error\tconfig\t--out names a directory, {command} writes a file: {out}\n"
        assert stdout == "" and os.listdir(out) == []

    def test_missing_parent_directory_exit_1_naming_the_path(self, tmp_path, capsys, cfg_path):
        out = str(tmp_path / "missing" / "b.nbcb")
        code, stdout, err = self.run_twice(tmp_path, capsys, ["calibrate", "--config", cfg_path, "--out", out])
        assert_failed(code, err, 1, "io")
        assert err == f"error\tio\t[Errno 2] No such file or directory: {out!r}\n"
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize(
        "command, out, message, named",
        [
            ("calibrate", "missing/b.nbcb", "[Errno 2] No such file or directory", "missing/b.nbcb"),
            ("eval", "missing/eval.csv", "[Errno 2] No such file or directory", "missing/eval.csv"),
            ("calibrate", "in_the_way/b.nbcb", "[Errno 20] Not a directory", "in_the_way/b.nbcb"),
            ("eval", "in_the_way/eval.csv", "[Errno 20] Not a directory", "in_the_way/eval.csv"),
            ("analyze-outliers", "in_the_way", "[Errno 17] File exists", "in_the_way"),
            ("export", "in_the_way", "[Errno 17] File exists", "in_the_way"),
            ("analyze-outliers", "in_the_way/sub", "[Errno 20] Not a directory", "in_the_way/sub"),
            ("export", "in_the_way/sub", "[Errno 20] Not a directory", "in_the_way/sub"),
            # the path os.makedirs names: the trailing separator kept, or
            # the missing directory right below the file
            ("export", "in_the_way/sub/", "[Errno 20] Not a directory", "in_the_way/sub/"),
            ("analyze-outliers", "in_the_way/sub/deeper", "[Errno 20] Not a directory", "in_the_way/sub"),
        ],
        ids=[
            "calibrate",
            "eval",
            "calibrate-parent-is-a-file",
            "eval-parent-is-a-file",
            "analyze-outliers",
            "export",
            "analyze-outliers-parent-is-a-file",
            "export-parent-is-a-file",
            "export-trailing-separator",
            "analyze-outliers-missing-parent-under-a-file",
        ],
    )
    def test_unwritable_out_rejected_before_setup_exit_1(
        self, tmp_path, capsys, monkeypatch, cfg_path, command, out, message, named
    ):
        # the error the write would raise, without the setup and search before it
        import nbcq.cli as cli_mod

        def no_run(*args, **kwargs):
            raise AssertionError("the run was set up")

        monkeypatch.setattr(cli_mod, "_build_setup", no_run)
        monkeypatch.setattr(cli_mod, "read_bundle", no_run)
        (tmp_path / "in_the_way").write_text("a file\n")
        # joined by parts, so a trailing separator stays
        out, named = (os.path.join(tmp_path, *path.split("/")) for path in (out, named))
        args = [command, "--config", cfg_path, "--out", out]
        if command in ("eval", "export"):
            args += ["--bundle", str(tmp_path / "comp.nbcb")]
        code, stdout, err = self.run_twice(tmp_path, capsys, args)
        assert_failed(code, err, 1, "io")
        assert err == f"error\tio\t{message}: {named!r}\n"
        assert stdout == "" and not (tmp_path / "missing").exists()
        assert (tmp_path / "in_the_way").read_text() == "a file\n"

    @pytest.mark.parametrize("config_line", ["d = x", "mode = none"], ids=["bad-value", "mode-none"])
    def test_config_error_reported_before_the_out_path(self, tmp_path, capsys, config_line):
        path = tmp_path / "run.cfg"
        path.write_text(config_line + "\n")
        out = str(tmp_path / "missing" / "b.nbcb")
        code, _, err = run_cli(["calibrate", "--config", str(path), "--out", out], capsys)
        assert_failed(code, err, 2, "config")


class TestConfigEncoding:
    def test_non_utf8_config_exits_2_naming_path(self, tmp_path, capsys, monkeypatch):
        import nbcq.cli as cli_mod

        def no_setup(*args, **kwargs):
            raise AssertionError("the run was set up")

        monkeypatch.setattr(cli_mod, "_build_setup", no_setup)
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"seed = 1\n# caf\xe9\nd = 8 \xff\n")
        code, out, err = run_cli(["search-n", "--config", str(path)], capsys)
        assert_failed(code, err, 2, "config")
        assert err == f"error\tconfig\t{path}: not UTF-8 text (byte 0xe9: invalid continuation byte)\n"
        assert out == ""


    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path, capsys):
        from nbcq.cli import read_run_config

        text = "seed = 0\n" + SMALL_CFG.replace("seed = 3\n", "")
        plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_text(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert read_run_config(str(marked)) == read_run_config(str(plain))
        outs = []
        for path in (plain, marked):
            code, out, err = run_cli(["search-n", "--config", str(path)], capsys)
            assert code == 0, err
            outs.append(out)
        assert outs[1] == outs[0]

    def test_directory_config_exits_2_naming_path(self, tmp_path, capsys):
        code, out, err = run_cli(["search-n", "--config", str(tmp_path)], capsys)
        assert_failed(code, err, 2, "config")
        assert err == f"error\tconfig\tconfiguration file not readable: {tmp_path} (Is a directory)\n"
        assert out == ""


class TestRepeatedKey:
    @pytest.mark.parametrize("first, second", [("seed = 0", "seed = 1"), ("mode = linear", "mode = nbc")])
    def test_rejected_naming_key_and_both_lines(self, tmp_path, capsys, monkeypatch, first, second):
        import nbcq.cli as cli_mod

        def no_setup(*args, **kwargs):
            raise AssertionError("the run was set up")

        monkeypatch.setattr(cli_mod, "_build_setup", no_setup)
        path = tmp_path / "twice.cfg"
        path.write_text(f"{first}\n# the same key again\n{second}\n")
        code, out, err = run_cli(["search-n", "--config", str(path)], capsys)
        key = first.split()[0]
        assert_failed(code, err, 2, "config")
        assert err == f"error\tconfig\t{path}:3: configuration key '{key}' repeats, first set on line 1\n"
        assert out == ""


# outlier scales that validation accepts but that overflow the calibration
# forward, each with the failed check's message
OVERFLOWING = {
    "outlier_scale = 1e308": "calibration tensor contains non-finite values",
    "outlier_scale = 8e307": "scale must be positive and finite, got inf",  # an activation range
    "d = 1\nh = 1\nn_blocks = 1\nseed = 1\noutlier_scale = 1e308": "y contains non-finite values",
    "outlier_scale = 1.7e308": "inputs contains non-finite values",  # the drawn inputs
}


class TestSetupOverflow:
    @pytest.mark.parametrize("extra", OVERFLOWING, ids=[e.replace("\n", ",").replace(" ", "") for e in OVERFLOWING])
    @pytest.mark.parametrize("command", ["calibrate", "search-n"])
    def test_exit_2_naming_the_scales_before_any_fit(self, tmp_path, capsys, monkeypatch, extra, command):
        import nbcq.cli as cli_mod

        fits = []
        monkeypatch.setattr(cli_mod, "fit_compensation", lambda *args, **kwargs: fits.append(args))
        path = tmp_path / "overflow.cfg"
        path.write_text(extra + "\n")
        bundle = tmp_path / "comp.nbcb"
        out_args = ["--out", str(bundle)] if command == "calibrate" else []
        code, out, err = run_cli([command, "--config", str(path), *out_args], capsys)
        assert_failed(code, err, 2, "config")
        scale = float(extra.rsplit(" = ", 1)[1])
        assert err.startswith(f"error\tconfig\tthe calibration forward overflows at outlier_scale = {scale!r} (")
        assert err.endswith(f" ({OVERFLOWING[extra]})\n")
        assert fits == [] and out == "" and not bundle.exists()


class TestSetupTooLargeForMemory:
    """A shape the config accepts but no array of it can be allocated fails
    before any fit with the one config line, naming the shape keys."""

    @pytest.mark.parametrize("line", ["n_samples = 1000000000000000", "h = 1000000000000000"])
    @pytest.mark.parametrize("command", ["calibrate", "search-n"])
    def test_exit_2_with_one_config_line(self, tmp_path, command, line):
        # a child process, so that a traceback would show on its stderr; each
        # array is larger than a 2^47-byte address space, so its allocation
        # fails at once and no memory is touched
        path = tmp_path / "run.cfg"
        path.write_text(line + "\n")
        bundle = tmp_path / "comp.nbcb"
        out_args = ["--out", str(bundle)] if command == "calibrate" else []
        results = [run_module([command, "--config", str(path), *out_args], tmp_path) for _ in range(2)]
        assert results[0] == results[1]
        code, out, err = results[0]
        assert_failed(code, err, 2, "config")
        assert all(f"{key} = " in err for key in ("d", "h", "n_blocks", "n_samples"))
        assert "do not fit in memory (Unable to allocate " in err
        assert out == "" and os.listdir(tmp_path) == ["run.cfg"]

    @pytest.mark.parametrize(
        "command, stage",
        [("calibrate", "fit_compensation"), ("search-n", "search_exponent"),
         ("eval", "evaluate_pipeline"), ("analyze-outliers", "search_exponent"),
         ("export", "read_bundle")],
    )
    def test_after_setup_the_same_config_line(self, tmp_path, capsys, monkeypatch, cfg_path, command, stage):
        # the stage raises as numpy does when an allocation fails, allocating nothing
        import nbcq.cli as cli_mod

        bundle = str(tmp_path / "comp.nbcb")
        assert main(["calibrate", "--config", cfg_path, "--out", bundle]) == 0
        capsys.readouterr()

        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 PiB for an array with shape (1024, 1000000000000000)")

        monkeypatch.setattr(cli_mod, stage, refuse)
        out_args = {"calibrate": ["--out", str(tmp_path / "new.nbcb")], "eval": ["--bundle", bundle],
                    "analyze-outliers": ["--out", str(tmp_path / "plots")],
                    "export": ["--bundle", bundle, "--out", str(tmp_path / "tensors")]}
        code, out, err = run_cli([command, "--config", cfg_path, *out_args.get(command, [])], capsys)
        assert_failed(code, err, 2, "config")
        assert err == (
            "error\tconfig\td = 8, h = 12, n_blocks = 2, n_samples = 80 do not fit in memory "
            "(Unable to allocate 7.28 PiB for an array with shape (1024, 1000000000000000))\n"
        )
        assert out == "" and sorted(os.listdir(tmp_path)) == ["comp.nbcb", "run.cfg"]


class TestOverflowBeyondCalibration:
    """Outliers far beyond the calibration range overflow the compensated
    forward (exp2 in the inverse map) or a loss. The run fails with the one
    error line and writes nothing."""

    @pytest.mark.parametrize(
        "calibration, scale, failure",
        [
            # the bundle's search picks n = 3 at scale 100, seed 1; 1e3
            # overflows block 2's loss, 1e5 the compensated forward itself
            ("outlier_scale = 100\nseed = 1\n", "1e3", "per_block_losses not finite"),
            ("outlier_scale = 100\nseed = 1\n", "1e5", "block 2: y_hat contains non-finite values"),
            # desk defaults (n = 3): the last block's loss and so the feature loss
            ("", "1e160", "feature_loss, per_block_losses not finite"),
        ],
        ids=["1e3", "1e5", "1e160"],
    )
    def test_eval_exits_1_naming_outlier_scale(self, tmp_path, capsys, calibration, scale, failure):
        calib_cfg = tmp_path / "calib.cfg"
        calib_cfg.write_text(calibration)
        bundle = str(tmp_path / "comp.nbcb")
        code, out, err = run_cli(["calibrate", "--config", str(calib_cfg), "--out", bundle], capsys)
        assert code == 0, err
        assert "chosen_n=3.0\t" in out
        eval_cfg = tmp_path / "eval.cfg"
        eval_cfg.write_text(f"outlier_scale = {scale}\n")
        csv_path = tmp_path / "report.csv"
        code, out, err = run_cli(
            ["eval", "--config", str(eval_cfg), "--bundle", bundle, "--out", str(csv_path)], capsys
        )
        assert_failed(code, err, 1, "evaluator")
        assert err == (
            f"error\tevaluator\tthe evaluation overflows at outlier_scale = {float(scale)!r} ({failure})\n"
        )
        assert out == "" and not csv_path.exists()

    @pytest.mark.parametrize("command", ["calibrate", "search-n"])
    def test_search_stderr_is_the_one_error_line(self, tmp_path, command):
        # a child process, so that numpy's warnings would show on its stderr
        path = tmp_path / "run.cfg"
        path.write_text("outlier_scale = 1e5\n")
        bundle = tmp_path / "comp.nbcb"
        out_args = ["--out", str(bundle)] if command == "calibrate" else []
        code, out, err = run_module([command, "--config", str(path), *out_args], tmp_path)
        assert_failed(code, err, 1, "evaluator")
        assert "non-finite" in err
        assert out == "" and not bundle.exists()

    def test_search_names_the_last_block_whose_output_is_not_finite(self, tmp_path):
        # desk defaults at scale 1e3, seed 4: at n = 9 the hold-out forward's
        # last output, the scored feature, overflows
        path = tmp_path / "run.cfg"
        path.write_text("outlier_scale = 1e3\n")
        code, out, err = run_module(["search-n", "--config", str(path), "--seed", "4"], tmp_path)
        assert_failed(code, err, 1, "evaluator")
        assert err == "error\tevaluator\tevaluator failed at n_exp=9.0: block 3: f_quant contains non-finite values\n"
        assert out == ""


class TestNoFiniteCandidate:
    @pytest.mark.parametrize("command", ["calibrate", "search-n"])
    def test_exit_1_with_one_evaluator_line_and_no_bundle(self, tmp_path, command):
        # desk defaults at scale 1e3, seed 2: the hold-out loss at n = 4
        # overflows to inf, the only candidate on this grid
        path = tmp_path / "run.cfg"
        path.write_text("outlier_scale = 1e3\nseed = 2\nn_init = 4\nn_min = 4\nn_max = 4\n")
        bundle = tmp_path / "comp.nbcb"
        out_args = ["--out", str(bundle)] if command == "calibrate" else []
        code, out, err = run_module([command, "--config", str(path), *out_args], tmp_path)
        assert_failed(code, err, 1, "evaluator")
        assert "no candidate scored a finite loss" in err
        assert out == "" and not bundle.exists()


class TestStorageOverflow:
    """Fitted parameters beyond the range of their storage type: calibrate
    fails with the one format line, naming the block and the storage, and
    writes no bundle."""

    @pytest.mark.parametrize(
        "storage, scale",
        [("f32", "1e60"), ("f16", "1e20"), ("i8_per_channel", "1e20")],  # f32 holds up to 3.4e38
    )
    def test_calibrate_exits_1_naming_block_and_storage(self, tmp_path, storage, scale):
        # a child process, so that a traceback or numpy's warnings would show
        path = tmp_path / "run.cfg"
        path.write_text(f"mode = linear\nstorage = {storage}\noutlier_scale = {scale}\n")
        bundle = tmp_path / "comp.nbcb"
        code, out, err = run_module(["calibrate", "--config", str(path), "--out", str(bundle)], tmp_path)
        assert_failed(code, err, 1, "format")
        assert "block 0: bias value " in err and f"{storage} storage" in err
        assert out == "" and not bundle.exists()
        assert os.listdir(tmp_path) == ["run.cfg"]  # no temporary file left either


    def test_weight_beyond_f16_is_the_one_format_line(self, tmp_path, capsys, monkeypatch):
        import dataclasses

        import nbcq.cli as cli_mod

        fit = cli_mod.fit_compensation

        def huge_first_weight(*args, **kwargs):
            modules, search = fit(*args, **kwargs)
            weight = modules[0].weight.copy()
            weight[0, 0] = 1e6  # beyond float16's 65504
            return [dataclasses.replace(modules[0], weight=weight), *modules[1:]], search

        monkeypatch.setattr(cli_mod, "fit_compensation", huge_first_weight)
        path = tmp_path / "run.cfg"
        path.write_text(small_cfg_with("mode = linear\nstorage = f16"))
        bundle = tmp_path / "comp.nbcb"
        code, out, err = run_cli(["calibrate", "--config", str(path), "--out", str(bundle)], capsys)
        assert code == 1
        assert err == (
            "error\tformat\tblock 0: weight value 1000000.0 at flat index 0 overflows f16 storage (float16)\n"
        )
        assert out == "" and os.listdir(tmp_path) == ["run.cfg"]


class TestKeptFitFailure:
    def test_linear_overflow_is_the_one_fit_line(self, tmp_path):
        # a child process, so that a traceback or numpy's warnings would show
        path = tmp_path / "run.cfg"
        path.write_text("mode = linear\noutlier_scale = 1e200\nstorage = f32\n")
        bundle = tmp_path / "comp.nbcb"
        code, out, err = run_module(["calibrate", "--config", str(path), "--out", str(bundle)], tmp_path)
        assert_failed(code, err, 1, "fit")
        assert err == "error\tfit\tblock 0: bias contains non-finite values\n"
        assert out == "" and os.listdir(tmp_path) == ["run.cfg"]


    def test_singular_solve_is_the_one_fit_line_naming_the_block(self, tmp_path, capsys, monkeypatch):
        import nbcq.compensation as compensation_mod

        def singular(design, targets):
            raise FitError("normal equations remain singular after the ridge fallback")

        monkeypatch.setattr(compensation_mod, "solve_least_squares", singular)
        path = tmp_path / "run.cfg"
        path.write_text("mode = linear\nstorage = f32\n")
        bundle = tmp_path / "comp.nbcb"
        code, out, err = run_cli(["calibrate", "--config", str(path), "--out", str(bundle)], capsys)
        assert_failed(code, err, 1, "fit")
        assert err == "error\tfit\tblock 0: normal equations remain singular after the ridge fallback\n"
        assert out == "" and os.listdir(tmp_path) == ["run.cfg"]


class TestExport:
    def test_exports_tensor_files_and_manifest(self, cfg_path, tmp_path, capsys):
        bundle = str(tmp_path / "comp.nbcb")
        run_cli(["calibrate", "--config", cfg_path, "--out", bundle], capsys)
        out_dir = str(tmp_path / "export")
        code, out, err = run_cli(
            ["export", "--config", cfg_path, "--bundle", bundle, "--out", out_dir], capsys
        )
        assert code == 0, err
        manifest = open(os.path.join(out_dir, "manifest.tsv")).read().splitlines()
        assert len(manifest) == 2
        weight = read_tensor(os.path.join(out_dir, "block000_weight.nbct"))
        assert weight.shape == (8, 8)
        modules = read_bundle(bundle)
        assert np.array_equal(weight.astype(np.float64), modules[0].weight)

    def test_manifest_exponent_column(self, cfg_path, tmp_path, capsys):
        # empty for a kind without an exponent; a blt exponent keeps the sign of zero
        from nbcq.compensation import CompensationModule
        from nbcq.formats import write_bundle
        from nbcq.transform import TransformKind

        rng = np.random.default_rng(5)
        weight, bias = rng.standard_normal((8, 8)), rng.standard_normal(8)
        bundle = str(tmp_path / "comp.nbcb")
        write_bundle(bundle, [CompensationModule(kind=TransformKind(*kind), weight=weight, bias=bias)
                              for kind in (("blt", -0.0), ("blt", 2.5), ("identity",))])
        out_dir = tmp_path / "export"
        code, _, err = run_cli(["export", "--config", cfg_path, "--bundle", bundle, "--out", str(out_dir)], capsys)
        assert code == 0, err
        rows = [line.split("\t")[:4] for line in (out_dir / "manifest.tsv").read_text().splitlines()]
        assert rows == [["0", "blt", "-0.0", "f32"], ["1", "blt", "2.5", "f32"], ["2", "identity", "", "f32"]]

    @pytest.mark.parametrize("storage", ["f32", "f16", "i8_per_channel"])
    def test_each_storage_exports_the_bundle_tensors(self, tmp_path, capsys, storage):
        path = tmp_path / f"{storage}.cfg"
        path.write_text(SMALL_CFG.replace("storage = f16", f"storage = {storage}"))
        bundle = str(tmp_path / "comp.nbcb")
        code, _, err = run_cli(["calibrate", "--config", str(path), "--out", bundle], capsys)
        assert code == 0, err
        out_dir = tmp_path / "export"
        code, _, err = run_cli(
            ["export", "--config", str(path), "--bundle", bundle, "--out", str(out_dir)], capsys
        )
        assert code == 0, err
        manifest = (out_dir / "manifest.tsv").read_text().splitlines()
        narrow = "<f4" if storage == "f32" else "<f2"
        for i, mod in enumerate(read_bundle(bundle)):
            roles = ["weight", "scales", "bias"] if storage == "i8_per_channel" else ["weight", "bias"]
            files = [f"block{i:03d}_{role}.nbct" for role in roles]
            assert manifest[i] == f"{i}\tblt\t{mod.kind.n_exp!r}\t{storage}\t{' '.join(files)}"
            got = {role: read_tensor(str(out_dir / name)) for role, name in zip(roles, files)}
            assert got["bias"].dtype == np.dtype(narrow)
            assert np.array_equal(got["bias"].astype(np.float64), mod.bias)
            if storage == "i8_per_channel":
                assert got["weight"].dtype == np.int8
                assert np.array_equal(got["weight"] * mod.scales[:, None], mod.weight)
                assert got["scales"].dtype == np.dtype("<f4")
                assert np.array_equal(got["scales"].astype(np.float64), mod.scales)
            else:
                assert got["weight"].dtype == np.dtype(narrow)
                assert np.array_equal(got["weight"].astype(np.float64), mod.weight)

    @pytest.mark.parametrize("storage", ["f32", "i8_per_channel"])
    def test_every_stored_role_is_exported(self, tmp_path, capsys, monkeypatch, storage):
        # a role the storage table gains goes between the weight and the bias
        import nbcq.cli as cli_mod

        stored = cli_mod.stored_tensors
        monkeypatch.setattr(
            cli_mod, "stored_tensors", lambda mod: {**stored(mod), "offsets": np.arange(3, dtype="<f4")}
        )
        path = tmp_path / "run.cfg"
        path.write_text(small_cfg_with(f"storage = {storage}"))
        bundle = str(tmp_path / "comp.nbcb")
        assert run_cli(["calibrate", "--config", str(path), "--out", bundle], capsys)[0] == 0
        out_dir = tmp_path / "export"
        code, _, err = run_cli(
            ["export", "--config", str(path), "--bundle", bundle, "--out", str(out_dir)], capsys
        )
        assert code == 0, err
        roles = ["weight", "offsets", "bias"]
        if storage == "i8_per_channel":
            roles.insert(1, "scales")
        manifest = (out_dir / "manifest.tsv").read_text().splitlines()
        assert len(manifest) == 2
        for i, line in enumerate(manifest):
            files = [f"block{i:03d}_{role}.nbct" for role in roles]
            assert line.split("\t")[-1] == " ".join(files)
            assert read_tensor(str(out_dir / files[-2])).tobytes() == np.arange(3, dtype="<f4").tobytes()


class TestGlobalFlags:
    @pytest.mark.parametrize("command", ["calibrate", "search-n", "eval", "analyze-outliers", "export"])
    def test_command_without_config_exits_2(self, tmp_path, capsys, command):
        args = [command, "--out", str(tmp_path / "out")]
        if command in ("eval", "export"):
            args += ["--bundle", str(tmp_path / "comp.nbcb")]
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert err == f"error\tconfig\tthe {command} command requires --config\n"
        assert out == "" and os.listdir(tmp_path) == []

    def test_flags_accepted_before_subcommand(self, cfg_path, tmp_path, capsys):
        bundle = str(tmp_path / "g.nbcb")
        code, _, err = run_cli(
            ["--config", cfg_path, "--out", bundle, "calibrate"], capsys
        )
        assert code == 0, err
        assert os.path.exists(bundle)


class TestEntryPoint:
    def test_module_entry_point(self, cfg_path, tmp_path, capsys):
        bundle = str(tmp_path / "m.nbcb")
        child_code, child_out, child_err = run_module(
            ["calibrate", "--config", cfg_path, "--out", bundle], tmp_path
        )
        assert child_code == 0, child_err
        # the child ran the same program: same bundle bytes, same stdout up to the path
        in_process = str(tmp_path / "in_process.nbcb")
        code, out, err = run_cli(["calibrate", "--config", cfg_path, "--out", in_process], capsys)
        assert code == 0, err
        assert open(bundle, "rb").read() == open(in_process, "rb").read()
        assert child_out == out.replace(in_process, bundle)
