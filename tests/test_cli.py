import hashlib
import os
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

    def test_corrupt_bundle_exits_1(self, cfg_path, tmp_path, capsys):
        bundle = tmp_path / "corrupt.nbcb"
        bundle.write_bytes(b"NOPE" + bytes(32))
        code, _, err = run_cli(["eval", "--config", cfg_path, "--bundle", str(bundle)], capsys)
        assert code == 1
        assert err.startswith("error\tbad-magic\t")


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
        import nbcq.cli as cli_mod
        from nbcq.errors import FitError

        def undefined(*args, **kwargs):
            raise FitError("x is constant; slope with bias is undefined")

        monkeypatch.setattr(cli_mod, "slope_gap_analysis", undefined)
        out_dir = str(tmp_path / "analysis")
        code, _, err = run_cli(["analyze-outliers", "--config", cfg_path, "--out", out_dir], capsys)
        assert code == 0, err
        gap = open(os.path.join(out_dir, "slope_gap.csv")).read().splitlines()
        assert len(gap) > 1
        for line in gap[1:]:
            assert line.endswith(",,"), line


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
