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
from nbcq.cli import EVAL_CSV_COLUMNS, main
from nbcq.formats import BUNDLE_MAGIC, read_bundle, read_tensor

SMALL_CFG = """
d = 8
h = 12
n_blocks = 2
n_samples = 80
seed = 3
bits_w = 4
bits_a = 4
mode = nbc
transform = blt
storage = f16
outlier_fraction = 0.1
outlier_scale = 12.0
"""


@pytest.fixture(autouse=True)
def no_outer_nbc_log(monkeypatch):
    # main() reads NBC_LOG; a value set around the test run must not change the results
    monkeypatch.delenv("NBC_LOG", raising=False)


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CFG)
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert code == 2
        assert "nope.cfg" in err
        assert err.startswith("error\tconfig\t")

    def test_missing_out_flag_exits_2(self, cfg_path, capsys):
        code, _, err = run_cli(["calibrate", "--config", cfg_path], capsys)
        assert code == 2
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
        assert code == 2

    def test_asinh_transform_round_trips_through_bundle(self, tmp_path, capsys):
        path = tmp_path / "asinh.cfg"
        path.write_text(SMALL_CFG.replace("transform = blt", "transform = asinh"))
        bundle = str(tmp_path / "a.nbcb")
        code, _, err = run_cli(["calibrate", "--config", str(path), "--out", bundle], capsys)
        assert code == 0, err
        assert all(m.kind.name == "asinh" for m in read_bundle(bundle))
        code, out, err = run_cli(["eval", "--config", str(path), "--bundle", bundle], capsys)
        assert code == 0, err
        assert ",asinh," in out.splitlines()[1]


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


class TestEval:
    def test_csv_to_stdout(self, cfg_path, tmp_path, capsys):
        bundle = str(tmp_path / "comp.nbcb")
        run_cli(["calibrate", "--config", cfg_path, "--out", bundle], capsys)
        code, out, err = run_cli(["eval", "--config", cfg_path, "--bundle", bundle], capsys)
        assert code == 0, err
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(EVAL_CSV_COLUMNS)
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
        assert code == 2
        assert "blocks" in err

    def test_block_width_mismatch_exits_2_naming_d(self, cfg_path, tmp_path, capsys):
        bundle = str(tmp_path / "comp.nbcb")
        code, _, err = run_cli(["calibrate", "--config", cfg_path, "--out", bundle], capsys)
        assert code == 0, err
        other = tmp_path / "wide.cfg"
        other.write_text(SMALL_CFG.replace("d = 8", "d = 12"))  # same block count
        code, out, err = run_cli(["eval", "--config", str(other), "--bundle", bundle], capsys)
        assert code == 2
        assert err == "error\tconfig\tbundle block 0 maps 8 to 8 channels but the configuration has d = 12\n"
        assert out == ""

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
        assert code == 1
        assert err.startswith("error\tbad-magic\t")

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
        assert code == 1
        assert err.startswith(f"error\tformat\t{bundle}: block 0: ")
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert out == ""


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
    @pytest.mark.parametrize(
        "extra",
        ["d = 16\nn_samples = 18\n", "d = 16\nn_samples = 64\nholdout_fraction = 0.9\n"],
        ids=["n18-d16", "holdout0.9-n64"],
    )
    @pytest.mark.parametrize("command", ["calibrate", "search-n", "eval"])
    def test_too_few_fit_rows_exit_2_naming_keys(self, tmp_path, capsys, extra, command):
        path = tmp_path / "small.cfg"
        path.write_text(SMALL_CFG + extra)
        args = [command, "--config", str(path), "--out", str(tmp_path / "b.nbcb")]
        if command == "eval":
            args += ["--bundle", str(tmp_path / "absent.nbcb")]
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert err.startswith("error\tconfig\t")
        assert "n_samples" in err and "holdout_fraction" in err
        assert out == ""


# config lines that parse but that the run would reject, and the key each names
BAD_VALUES = [
    ("outlier_fraction = 0.5", "outlier_fraction"),
    ("outlier_scale = 0.5", "outlier_scale"),
    ("outlier_threshold = 0", "outlier_threshold"),
    ("holdout_fraction = 0.0", "holdout_fraction"),
    ("step = 0", "step"),
    ("n_init = 20", "n_init"),
    ("n_init = 15\nn_max = 20", "n_max"),
    ("heavy_channel = 99", "heavy_channel"),
    ("bits_w = 0", "bits_w"),
    ("d = 0", "d"),
    ("transform = tanh", "transform"),
    ("transform = sigmoid", "transform"),
    ("seed = -1", "seed"),
    ("heavy_scale = nan", "heavy_scale"),
    ("heavy_scale = inf", "heavy_scale"),
    ("heavy_input_scale = -inf", "heavy_input_scale"),
    ("outlier_scale = inf", "outlier_scale"),
    ("step = inf", "step"),
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
        path.write_text(SMALL_CFG + extra + "\n")
        code, out, err = run_cli(["search-n", "--config", str(path)], capsys)
        assert code == 2
        assert err.startswith(f"error\tconfig\t{path}: {key} must be ")
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert out == ""

    def test_negative_seed_flag_rejected_before_setup(self, cfg_path, capsys, monkeypatch):
        import nbcq.cli as cli_mod

        def no_setup(*args, **kwargs):
            raise AssertionError("the run was set up")

        monkeypatch.setattr(cli_mod, "_build_setup", no_setup)
        code, out, err = run_cli(["search-n", "--config", cfg_path, "--seed", "-3"], capsys)
        assert code == 2
        assert err == "error\tconfig\t--seed must be >= 0, got -3\n"
        assert out == ""


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
                assert np.array_equal(got["weight"], mod.weight_codes)
                assert got["scales"].dtype == np.dtype("<f4")
                assert np.array_equal(got["scales"].astype(np.float64), mod.weight_scales)
            else:
                assert got["weight"].dtype == np.dtype(narrow)
                assert np.array_equal(got["weight"].astype(np.float64), mod.weight)


class TestGlobalFlags:
    def test_flags_accepted_before_subcommand(self, cfg_path, tmp_path, capsys):
        bundle = str(tmp_path / "g.nbcb")
        code, _, err = run_cli(
            ["--config", cfg_path, "--out", bundle, "calibrate"], capsys
        )
        assert code == 0, err
        assert os.path.exists(bundle)


class TestLogging:
    def test_invalid_nbc_log_rejected(self, cfg_path, capsys, monkeypatch):
        monkeypatch.setenv("NBC_LOG", "verbose")
        code, _, err = run_cli(["search-n", "--config", cfg_path], capsys)
        assert code == 2
        assert "NBC_LOG" in err

    def test_module_entry_point(self, cfg_path, tmp_path, capsys):
        # The child runs outside the repository, where a relative PYTHONPATH entry
        # such as "src" names nothing, so put the root of the package this suite
        # imported in front. os.environ no longer holds NBC_LOG (autouse fixture).
        pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(nbcq.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
        bundle = str(tmp_path / "m.nbcb")
        proc = subprocess.run(
            [sys.executable, "-m", "nbcq", "calibrate", "--config", cfg_path, "--out", bundle],
            capture_output=True,
            text=True,
            cwd=str(tmp_path),
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        # the child ran the same program: same bundle bytes, same stdout up to the path
        in_process = str(tmp_path / "in_process.nbcb")
        code, out, err = run_cli(["calibrate", "--config", cfg_path, "--out", in_process], capsys)
        assert code == 0, err
        assert open(bundle, "rb").read() == open(in_process, "rb").read()
        assert proc.stdout == out.replace(in_process, bundle)
