"""Command-line surface for reproducible batch runs.

Commands (all take ``--config``; ``--seed`` overrides the config seed):

    calibrate          fit compensation and write a bundle to --out
    search-n           print the explored exponent map and the chosen value
    eval               score a bundle on a fresh evaluation set (CSV)
    analyze-outliers   write slope-gap and slope-sweep CSVs for plotting
    export             unpack a bundle into individual tensor files

Exit status is 0 on success, 1 on computational failure and 2 on usage or
configuration errors; failures print one machine-parsable line to stderr,
``error<TAB>code<TAB>message``. The ``NBC_LOG`` environment variable
(error, info or debug) controls logging verbosity on stderr.

The eval CSV has one row per block with the summary metrics repeated, in
this fixed column order:

    mode, transform, bits_w, bits_a, seed, storage, chosen_n,
    fls_evaluations, feature_loss, mae_outlier, mae_inlier,
    slope_gap_before, slope_gap_after, block, block_loss, ridge_used,
    residual_rms

The seed column records the calibration draw seed (config seed + 1). The
fls_evaluations, ridge_used and residual_rms cells are empty: a bundle
does not store the search or the fit metadata (calibrate prints the
search's ``evaluations=`` and each block's fit metadata).

The analyze-outliers command writes ``slope_gap.csv`` (block, channel,
n_exp, gap_before, gap_after) and ``wstar_sweep.csv`` (outlier_magnitude,
slope) into the output directory. A block whose slope is undefined on its
analysis channel gets empty gap cells.
"""

from __future__ import annotations

import argparse
import csv
import io
import logging
import os
import sys

import numpy as np

from .compensation import STORAGE_F32, store_params
from .errors import ConfigError, NbcError
from .fls import FlsConfig
from .formats import (
    RunConfig,
    _atomic_write,
    _module_tensors,
    read_bundle,
    read_run_config,
    write_bundle,
    write_tensor,
)
from .harness import (
    CalibrationSet,
    OutlierSpec,
    ToyModel,
    build_toy_model,
    channel_slope_gap,
    evaluate_pipeline,
    fit_compensation,
    generate_calibration,
    ols_scalar_bias,
)

__all__ = ["main", "EVAL_CSV_COLUMNS"]

log = logging.getLogger("nbcq")

EVAL_CSV_COLUMNS = [
    "mode",
    "transform",
    "bits_w",
    "bits_a",
    "seed",
    "storage",
    "chosen_n",
    "fls_evaluations",
    "feature_loss",
    "mae_outlier",
    "mae_inlier",
    "slope_gap_before",
    "slope_gap_after",
    "block",
    "block_loss",
    "ridge_used",
    "residual_rms",
]

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    name = os.environ.get("NBC_LOG", "error").strip().lower()
    if name not in _LOG_LEVELS:
        raise ConfigError(f"NBC_LOG must be one of {sorted(_LOG_LEVELS)}, got '{name}'")
    logging.basicConfig(level=_LOG_LEVELS[name], stream=sys.stderr, format="%(levelname)s %(message)s")


def _build_setup(cfg: RunConfig, seed: int) -> tuple[ToyModel, CalibrationSet, FlsConfig]:
    spec = OutlierSpec(
        outlier_fraction=cfg.outlier_fraction,
        outlier_scale=cfg.outlier_scale,
        threshold=cfg.outlier_threshold,
    )
    model = build_toy_model(
        cfg.d,
        cfg.h,
        cfg.n_blocks,
        seed,
        heavy_channel=cfg.heavy_channel,
        heavy_scale=cfg.heavy_scale,
        heavy_input_scale=cfg.heavy_input_scale,
    )
    calib = generate_calibration(
        model, cfg.n_samples, spec, seed + 1, bits_w=cfg.bits_w, bits_a=cfg.bits_a
    )
    fls_cfg = FlsConfig(
        n_init=cfg.n_init,
        n_min=cfg.n_min,
        n_max=cfg.n_max,
        step=cfg.step,
        holdout_fraction=cfg.holdout_fraction,
        seed=seed + 2,
    )
    return model, calib, fls_cfg


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def cmd_calibrate(config_path: str, out_path: str, seed_override: int | None) -> int:
    cfg = read_run_config(config_path)
    seed = cfg.seed if seed_override is None else seed_override
    if cfg.mode == "none":
        raise ConfigError("mode=none has no compensation to calibrate")
    model, calib, fls_cfg = _build_setup(cfg, seed)
    log.info("fitting %s compensation for %d blocks", cfg.mode, cfg.n_blocks)
    modules, fls_result = fit_compensation(
        model, calib, cfg.mode, transform=cfg.transform, cfg=fls_cfg
    )
    if cfg.storage != STORAGE_F32:
        modules = [store_params(m, cfg.storage) for m in modules]
    write_bundle(out_path, modules)
    for i, mod in enumerate(modules):
        print(f"block={i}\tridge_used={_fmt(mod.ridge_used)}\tresidual_rms={_fmt(mod.residual_rms)}")
    if fls_result is not None:
        print(f"chosen_n={_fmt(fls_result.chosen_n)}\tevaluations={fls_result.evaluations}")
    print(f"bundle={out_path}\tbytes={os.path.getsize(out_path)}")
    return 0


def cmd_search_n(config_path: str, seed_override: int | None) -> int:
    cfg = read_run_config(config_path)
    seed = cfg.seed if seed_override is None else seed_override
    model, calib, fls_cfg = _build_setup(cfg, seed)
    _, fls_result = fit_compensation(model, calib, "nbc", transform="blt", cfg=fls_cfg)
    for n in sorted(fls_result.history):
        print(f"{_fmt(float(n))}\t{_fmt(fls_result.history[n])}")
    print(f"chosen\t{_fmt(float(fls_result.chosen_n))}")
    return 0


def _report_rows(report) -> list[dict]:
    shared = {
        "mode": report.mode,
        "transform": report.transform,
        "bits_w": report.bits_w,
        "bits_a": report.bits_a,
        "seed": report.seed,
        "storage": report.storage,
        "chosen_n": _fmt(report.chosen_n),
        "fls_evaluations": _fmt(report.fls_evaluations),
        "feature_loss": _fmt(report.feature_loss),
        "mae_outlier": _fmt(report.mae_outlier),
        "mae_inlier": _fmt(report.mae_inlier),
        "slope_gap_before": _fmt(report.slope_gap_before),
        "slope_gap_after": _fmt(report.slope_gap_after),
    }
    rows = []
    for i, loss in enumerate(report.per_block_losses):
        row = dict(shared)
        row["block"] = i
        row["block_loss"] = _fmt(loss)
        row["ridge_used"] = _fmt(report.ridge_used[i]) if report.ridge_used else ""
        row["residual_rms"] = _fmt(report.residual_rms[i]) if report.residual_rms else ""
        rows.append(row)
    return rows


def _write_csv(out_path: str | None, columns: list[str], rows: list[dict]) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    if out_path is None:
        sys.stdout.write(buf.getvalue())
    else:
        _atomic_write(out_path, buf.getvalue().encode("utf-8"))


def cmd_eval(config_path: str, bundle_path: str, out_path: str | None, seed_override: int | None) -> int:
    cfg = read_run_config(config_path)
    seed = cfg.seed if seed_override is None else seed_override
    model, calib, _ = _build_setup(cfg, seed)
    modules = read_bundle(bundle_path)
    if len(modules) != cfg.n_blocks:
        raise ConfigError(
            f"bundle has {len(modules)} blocks but the configuration expects {cfg.n_blocks}"
        )
    for block, mod in enumerate(modules):
        if mod.d_in != cfg.d or mod.d_out != cfg.d:
            raise ConfigError(
                f"bundle block {block} maps {mod.d_in} to {mod.d_out} channels "
                f"but the configuration has d = {cfg.d}"
            )
    mode = "linear" if all(m.kind.name == "identity" for m in modules) else "nbc"
    transform = modules[-1].kind.name
    report = evaluate_pipeline(
        model, calib, modules, mode=mode, transform=transform, gap_reference_n=cfg.n_init
    )
    _write_csv(out_path, EVAL_CSV_COLUMNS, _report_rows(report))
    return 0


def cmd_analyze_outliers(config_path: str, out_dir: str | None, seed_override: int | None) -> int:
    cfg = read_run_config(config_path)
    seed = cfg.seed if seed_override is None else seed_override
    model, calib, fls_cfg = _build_setup(cfg, seed)
    _, fls_result = fit_compensation(model, calib, "nbc", transform="blt", cfg=fls_cfg)
    n_exp = fls_result.chosen_n

    gap_rows = []
    for block, rec in enumerate(calib.records):
        gap = channel_slope_gap(rec, calib.spec.threshold, n_exp)
        if gap is None:
            continue
        channel, before, after = gap
        gap_rows.append(
            {
                "block": block,
                "channel": channel,
                "n_exp": _fmt(float(n_exp)),
                "gap_before": _fmt(before),
                "gap_after": _fmt(after),
            }
        )

    # Sweep the closed-form two-population slope over the outlier magnitude
    # to show the squared-magnitude denominator taking over the fit.
    sweep_rows = []
    for big_m in np.logspace(0.0, 4.0, 33):
        slope = ols_scalar_bias(1, 64, float(big_m), 1.0, 0.0, 1.0)
        sweep_rows.append({"outlier_magnitude": _fmt(float(big_m)), "slope": _fmt(slope)})

    directory = out_dir if out_dir is not None else cfg.out_dir
    os.makedirs(directory, exist_ok=True)
    gap_path = os.path.join(directory, "slope_gap.csv")
    sweep_path = os.path.join(directory, "wstar_sweep.csv")
    _write_csv(gap_path, ["block", "channel", "n_exp", "gap_before", "gap_after"], gap_rows)
    _write_csv(sweep_path, ["outlier_magnitude", "slope"], sweep_rows)
    print(gap_path)
    print(sweep_path)
    return 0


def cmd_export(config_path: str, bundle_path: str, out_dir: str | None) -> int:
    cfg = read_run_config(config_path)
    modules = read_bundle(bundle_path)
    directory = out_dir if out_dir is not None else cfg.out_dir
    os.makedirs(directory, exist_ok=True)
    manifest = []
    for i, mod in enumerate(modules):
        tensors = _module_tensors(mod)
        files = []
        for role in ("weight", "scales", "bias"):  # the manifest's file order
            if role in tensors:
                files.append(f"block{i:03d}_{role}.nbct")
                write_tensor(os.path.join(directory, files[-1]), tensors[role])
        n_exp = mod.kind.n_exp if mod.kind.name == "blt" else ""
        manifest.append(f"{i}\t{mod.kind.name}\t{n_exp}\t{mod.storage}\t{' '.join(files)}")
    manifest_path = os.path.join(directory, "manifest.tsv")
    _atomic_write(manifest_path, ("\n".join(manifest) + "\n").encode("utf-8"))
    print(manifest_path)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps a subcommand's unset flags from clobbering values the
    # top-level parser already collected, so flags work in either position
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", metavar="PATH", help="run configuration file")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--out", metavar="PATH", help="output path or directory")

    parser = argparse.ArgumentParser(prog="nbcq", description=__doc__, parents=[common],
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("calibrate", parents=[common])
    sub.add_parser("search-n", parents=[common])
    p_eval = sub.add_parser("eval", parents=[common])
    p_eval.add_argument("--bundle", metavar="PATH", required=True)
    sub.add_parser("analyze-outliers", parents=[common])
    p_export = sub.add_parser("export", parents=[common])
    p_export.add_argument("--bundle", metavar="PATH", required=True)
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    config = getattr(args, "config", None)
    seed = getattr(args, "seed", None)
    out = getattr(args, "out", None)
    if config is None:
        raise ConfigError(f"the {args.command} command requires --config")
    if seed is not None and seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    if args.command == "calibrate":
        if out is None:
            raise ConfigError("calibrate requires --out for the bundle path")
        return cmd_calibrate(config, out, seed)
    if args.command == "search-n":
        return cmd_search_n(config, seed)
    if args.command == "eval":
        return cmd_eval(config, args.bundle, out, seed)
    if args.command == "analyze-outliers":
        return cmd_analyze_outliers(config, out, seed)
    if args.command == "export":
        return cmd_export(config, args.bundle, out)
    raise ConfigError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    try:
        _setup_logging()
        args = _build_parser().parse_args(argv)
        return _dispatch(args)
    except ConfigError as exc:
        sys.stderr.write(f"error\t{exc.code}\t{exc}\n")
        return 2
    except NbcError as exc:
        sys.stderr.write(f"error\t{exc.code}\t{exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error\tio\t{exc}\n")
        return 1
