"""Command-line surface for reproducible batch runs.

Commands (all take ``--config``; ``--seed`` overrides the config seed):

    calibrate          fit compensation and write a bundle to --out
    search-n           print the explored exponent map and the chosen value
    eval               score a bundle on a fresh evaluation set (CSV)
    analyze-outliers   write slope-gap and slope-sweep CSVs for plotting
    export             unpack a bundle into one tensor file per stored role

Exit status is 0 on success, 1 on computational failure and 2 on usage or
configuration errors; failures print one machine-parsable line to stderr,
``error<TAB>code<TAB>message``; an overflow in a search or an eval is an
``evaluator`` error (eval writes no CSV); any failing kept fit is a
``fit`` error and a parameter beyond its stored dtype (``narrow``) a
``format`` error, both naming the block (calibrate writes no bundle).

The run configuration is line-oriented ``key = value`` UTF-8 text (a
leading byte order mark is skipped) with ``#`` comments, one key per
``RunConfig`` field; the hold-out quarter (``fls.HOLDOUT_FRACTION``), the
outlier threshold (``harness.OUTLIER_THRESHOLD``) and the toy model's
heavy-channel gains (``harness.build_toy_model``) are fixed. Every command
checks the whole config: unknown keys and every value the run would
reject once it starts or a bundle cannot hold are rejected by name, and
a shape too large to allocate is a ``config`` error naming the shape
keys, at whatever stage an allocation fails. The mode alone names
the map; eval takes it from the bundle, where a block of another kind
than block 0's is a ``format`` error naming the block. A config's mode is
one whose map fits a module (``_FIT_MODES``), so every command rejects
``mode = none`` (exit 2); the uncompensated baseline is
``harness.evaluate_pipeline(model, calib, None, mode="none")``.

The eval CSV has one row per block: the ``EvalReport`` fields in order,
each repeated on every row, then the block index and the block's entry of
each per-block field (``per_block_losses`` as block_loss), in this fixed
column order:

    mode, transform, bits_w, bits_a, seed, storage, chosen_n,
    feature_loss, mae_outlier, mae_inlier, slope_gap_before,
    slope_gap_after, block, block_loss, ridge_used, residual_rms

The seed column records the calibration draw seed (config seed + 1). The
ridge_used and residual_rms cells are empty: a bundle does not store the
fit metadata (calibrate prints the search's ``evaluations=`` and each
block's fit metadata).

The analyze-outliers command writes ``slope_gap.csv`` (block, channel,
n_exp, gap_before, gap_after) and ``wstar_sweep.csv`` (outlier_magnitude,
slope) into the ``--out`` directory; it and export write to the working
directory without ``--out``. A block whose slope is undefined on its
analysis channel gets empty gap cells, and a block with no outliers on it
no row. search-n writes no file and takes no ``--out``. A bad ``--out``
(a directory where a file goes, a parent directory that is missing or a
file, a file in the way) fails before setup.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .compensation import STORAGE_F32, STORAGE_NAMES, store_params, stored_tensors
from .errors import ConfigError, EvaluatorError, FormatError, NbcError
from .fls import FlsConfig, check_fit_rows
from .formats import MAX_BUNDLE_BLOCKS, atomic_write, check_writable, read_bundle, write_bundle, write_tensor
from .harness import (
    MODE_MAPS,
    CalibrationSet,
    EvalReport,
    OutlierSpec,
    ToyModel,
    build_toy_model,
    channel_slope_gap,
    check_model_shape,
    evaluate_pipeline,
    fit_compensation,
    generate_calibration,
    mode_of_modules,
    ols_scalar_bias,
    search_exponent,
)
from .quantizer import check_bits

__all__ = ["main", "EVAL_CSV_COLUMNS", "RunConfig", "read_run_config"]

# CSV column -> the EvalReport field that holds one value per block; every
# other field is one cell, repeated on each block's row
_PER_BLOCK = {"block_loss": "per_block_losses", "ridge_used": "ridge_used", "residual_rms": "residual_rms"}
_SHARED = [f.name for f in fields(EvalReport) if f.name not in _PER_BLOCK.values()]
EVAL_CSV_COLUMNS = [*_SHARED, "block", *_PER_BLOCK]


@dataclass(frozen=True)
class RunConfig:
    """Everything a batch run needs, parsed from a config file."""

    d: int = 16
    h: int = 32
    n_blocks: int = 4
    n_samples: int = 512
    seed: int = 0
    bits_w: int = 4
    bits_a: int = 4
    mode: str = "nbc"
    storage: str = STORAGE_F32
    n_init: float = FlsConfig.n_init
    n_min: float = FlsConfig.n_min
    n_max: float = FlsConfig.n_max
    step: float = FlsConfig.step
    outlier_fraction: float = OutlierSpec.outlier_fraction
    outlier_scale: float = OutlierSpec.outlier_scale

    def outlier_spec(self) -> OutlierSpec:
        """The calibration's outlier spec; ValueError names a key out of its bounds."""
        return OutlierSpec(**self._shared(OutlierSpec))

    def search_config(self) -> FlsConfig:
        """This run's search, split at seed + 2; ValueError names a key."""
        return FlsConfig(**{**self._shared(FlsConfig), "seed": self.seed + 2})

    def _shared(self, cls) -> dict:
        """This config's values of the fields of ``cls``, each a key by the same name."""
        return {f.name: getattr(self, f.name) for f in fields(cls)}


# the modes a config may name: those whose map fits a module
_FIT_MODES = tuple(mode for mode, name in MODE_MAPS.items() if name != "none")

# key -> parser of its value text, from the field's annotation
_PARSERS = {f.name: {"int": int, "float": float, "str": str}[f.type] for f in fields(RunConfig)}


def read_run_config(path: str) -> RunConfig:
    """Parse a ``key = value`` config file, rejecting unknown keys and
    out-of-range values by name. Every bound the library checks when the
    run is built is stated there; the choices, the seed and the block count
    a bundle holds are stated here. Output paths are not keys: ``--out``
    names them."""
    try:
        with open(path, "r", encoding="utf-8-sig") as f:
            raw_lines = f.readlines()
    except FileNotFoundError:
        raise ConfigError(f"configuration file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"configuration file not readable: {path} ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: {exc.reason})"
        ) from None
    values = {}
    first_line = {}
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if key not in _PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown configuration key '{key}'")
        if key in first_line:
            raise ConfigError(
                f"{path}:{lineno}: configuration key '{key}' repeats, first set on line {first_line[key]}"
            )
        first_line[key] = lineno
        try:
            values[key] = _PARSERS[key](text)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: invalid value {text!r} for key '{key}'") from None
    cfg = RunConfig(**values)
    for key, value in values.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{path}: {key} must be finite, got {value!r}")
    for key, names in (("mode", _FIT_MODES), ("storage", STORAGE_NAMES)):
        if getattr(cfg, key) not in names:
            raise ConfigError(f"{path}: {key} must be one of {names}, got '{getattr(cfg, key)}'")
    # Every command checks the whole config, the keys it does not read too,
    # so that the run fails before any setup or fit, naming the key.
    try:
        if cfg.seed < 0:
            raise ValueError(f"seed must be >= 0, got {cfg.seed!r}")
        check_model_shape(cfg.d, cfg.h, cfg.n_blocks)
        check_bits(cfg.bits_w, "bits_w")
        check_bits(cfg.bits_a, "bits_a")
        cfg.outlier_spec()
        cfg.search_config()
        check_fit_rows(cfg.n_samples, cfg.d)  # so n_samples >= d + 2
        if cfg.n_blocks > MAX_BUNDLE_BLOCKS:
            raise ValueError(f"n_blocks must be <= {MAX_BUNDLE_BLOCKS}, got {cfg.n_blocks!r}")
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return cfg


def _build_setup(cfg: RunConfig) -> tuple[ToyModel, CalibrationSet, FlsConfig]:
    """The run's model, built at ``seed``; its calibration set, drawn at
    ``seed + 1``; and its search, split at ``seed + 2`` (``search_config``)."""
    spec = cfg.outlier_spec()
    # A large outlier scale can overflow the calibration forward; the
    # finiteness checks turn that into the one ValueError an accepted config
    # can still raise here. Arrays too large to allocate are a config error
    # in every stage of a command (``_dispatch``).
    try:
        model = build_toy_model(cfg.d, cfg.h, cfg.n_blocks, cfg.seed)
        calib = generate_calibration(
            model, cfg.n_samples, spec, cfg.seed + 1, bits_w=cfg.bits_w, bits_a=cfg.bits_a
        )
    except ValueError as exc:
        raise ConfigError(
            f"the calibration forward overflows at outlier_scale = {cfg.outlier_scale!r} ({exc})"
        ) from None
    return model, calib, cfg.search_config()


def _fmt(value) -> str:
    return "" if value is None else str(value)  # str of a float is its repr


def cmd_calibrate(cfg: RunConfig, out_path: str) -> int:
    model, calib, fls_cfg = _build_setup(cfg)
    modules, fls_result = fit_compensation(model, calib, cfg.mode, cfg=fls_cfg)
    # A parameter beyond the range of its storage type fails here, naming
    # its block and the storage, and no bundle is written.
    for block, mod in enumerate(modules):
        try:
            modules[block] = store_params(mod, cfg.storage)
        except ValueError as exc:
            raise FormatError(f"block {block}: {exc}") from None
    write_bundle(out_path, modules)
    for i, mod in enumerate(modules):
        print(f"block={i}\tridge_used={_fmt(mod.ridge_used)}\tresidual_rms={_fmt(mod.residual_rms)}")
    if fls_result is not None:
        print(f"chosen_n={_fmt(fls_result.chosen_n)}\tevaluations={fls_result.evaluations}")
    print(f"bundle={out_path}\tbytes={os.path.getsize(out_path)}")
    return 0


def cmd_search_n(cfg: RunConfig) -> int:
    model, calib, fls_cfg = _build_setup(cfg)
    fls_result = search_exponent(model, calib, fls_cfg)
    for n in sorted(fls_result.history):
        print(f"{_fmt(n)}\t{_fmt(fls_result.history[n])}")
    print(f"chosen\t{_fmt(fls_result.chosen_n)}")
    return 0


def _report_rows(report: EvalReport) -> list[dict]:
    shared = {name: _fmt(getattr(report, name)) for name in _SHARED}
    per_block = {column: getattr(report, name) for column, name in _PER_BLOCK.items()}
    rows = []
    for i in range(len(report.per_block_losses)):
        row = {**shared, "block": i}
        for column, values in per_block.items():
            row[column] = _fmt(values[i]) if values else ""
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
        atomic_write(out_path, buf.getvalue().encode("utf-8"))


def cmd_eval(cfg: RunConfig, bundle_path: str, out_path: str | None) -> int:
    # the bundle is checked against the config before the calibration forwards
    modules = read_bundle(bundle_path)
    try:
        mode = mode_of_modules(modules)
    except ValueError as exc:
        raise FormatError(f"{bundle_path}: {exc}") from None
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
    model, calib, _ = _build_setup(cfg)
    # Inputs beyond the calibration range can overflow the compensated forward
    # or a loss; evaluate_pipeline raises ValueError for either.
    overflow = f"the evaluation overflows at outlier_scale = {cfg.outlier_scale!r}"
    try:
        report = evaluate_pipeline(model, calib, modules, mode=mode, gap_reference_n=cfg.n_init)
    except ValueError as exc:
        raise EvaluatorError(f"{overflow} ({exc})") from None
    _write_csv(out_path, EVAL_CSV_COLUMNS, _report_rows(report))
    return 0


def cmd_analyze_outliers(cfg: RunConfig, directory: str) -> int:
    model, calib, fls_cfg = _build_setup(cfg)
    n_exp = search_exponent(model, calib, fls_cfg).chosen_n

    gap_columns = ["block", "channel", "n_exp", "gap_before", "gap_after"]
    gap_rows = []
    for block, rec in enumerate(calib.records):
        gap = channel_slope_gap(rec, n_exp)
        if gap is None:  # no outliers on its channel: the block gets no row
            continue
        channel, before, after = gap
        values = [block, channel, _fmt(n_exp), _fmt(before), _fmt(after)]
        gap_rows.append(dict(zip(gap_columns, values)))

    # Sweep the closed-form two-population slope over the outlier magnitude
    # to show the squared-magnitude denominator taking over the fit.
    sweep_rows = []
    for big_m in np.logspace(0.0, 4.0, 33):
        slope = ols_scalar_bias(1, 64, float(big_m), 1.0, 0.0, 1.0)
        sweep_rows.append({"outlier_magnitude": _fmt(float(big_m)), "slope": _fmt(slope)})

    os.makedirs(directory, exist_ok=True)
    gap_path = os.path.join(directory, "slope_gap.csv")
    sweep_path = os.path.join(directory, "wstar_sweep.csv")
    _write_csv(gap_path, gap_columns, gap_rows)
    _write_csv(sweep_path, ["outlier_magnitude", "slope"], sweep_rows)
    print(gap_path)
    print(sweep_path)
    return 0


def cmd_export(bundle_path: str, directory: str) -> int:
    modules = read_bundle(bundle_path)
    os.makedirs(directory, exist_ok=True)
    manifest = []
    for i, mod in enumerate(modules):
        tensors = stored_tensors(mod)
        files = []
        # the manifest's file order: weight first, bias last, other roles in table order
        for role in sorted(tensors, key=lambda role: (role == "bias", role != "weight")):
            files.append(f"block{i:03d}_{role}.nbct")
            write_tensor(os.path.join(directory, files[-1]), tensors[role])
        manifest.append(f"{i}\t{mod.kind.name}\t{_fmt(mod.kind.n_exp)}\t{mod.storage}\t{' '.join(files)}")
    manifest_path = os.path.join(directory, "manifest.tsv")
    atomic_write(manifest_path, ("\n".join(manifest) + "\n").encode("utf-8"))
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


def _check_makedirs(path: str) -> None:
    """Raise the NotADirectoryError ``os.makedirs(path, exist_ok=True)``
    would raise when the nearest existing ancestor of ``path`` is not a
    directory, making nothing: the same errno, naming the same path. The
    walk up splits ``path`` as ``os.makedirs`` does."""
    head, tail = os.path.split(path)
    if not tail:
        head, tail = os.path.split(head)
    if head and tail and not os.path.exists(head):
        _check_makedirs(head)
    elif head and not os.path.isdir(head):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)


def _dispatch(args: argparse.Namespace) -> int:
    config = getattr(args, "config", None)
    seed = getattr(args, "seed", None)
    out = getattr(args, "out", None)
    if config is None:
        raise ConfigError(f"the {args.command} command requires --config")
    if seed is not None and seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    if args.command == "calibrate" and out is None:
        raise ConfigError("calibrate requires --out for the bundle path")
    if out == "":
        raise ConfigError("--out must be a non-empty path, got ''")
    if args.command in ("calibrate", "eval") and out is not None and os.path.isdir(out):
        raise ConfigError(f"--out names a directory, {args.command} writes a file: {out}")
    cfg = read_run_config(config)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    if args.command == "search-n" and out is not None:
        raise ConfigError(f"search-n writes no file, so it takes no --out: {out}")
    # An --out the write would fail on fails here, before setup, with the
    # OSError the write would raise.
    if out is not None and args.command in ("calibrate", "eval"):
        check_writable(out)
    elif out is not None and args.command in ("analyze-outliers", "export"):
        if os.path.exists(out) and not os.path.isdir(out):
            raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), out)
        _check_makedirs(out)
    # An array too large to allocate, in the setup, the search, the kept
    # fits or the evaluation, is the one config line naming the shape.
    try:
        return _run_command(args, cfg, out)
    except MemoryError as exc:
        raise ConfigError(
            f"d = {cfg.d!r}, h = {cfg.h!r}, n_blocks = {cfg.n_blocks!r}, "
            f"n_samples = {cfg.n_samples!r} do not fit in memory ({exc})"
        ) from None


def _run_command(args: argparse.Namespace, cfg: RunConfig, out: str | None) -> int:
    if args.command == "calibrate":
        return cmd_calibrate(cfg, out)
    if args.command == "search-n":
        return cmd_search_n(cfg)
    if args.command == "eval":
        return cmd_eval(cfg, args.bundle, out)
    directory = out or "."  # without --out, the working directory
    if args.command == "analyze-outliers":
        return cmd_analyze_outliers(cfg, directory)
    return cmd_export(args.bundle, directory)  # argparse admits no other command


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # An overflow or NaN is reported by the finiteness checks, as the one
        # error line; numpy's warnings would only precede it.
        with np.errstate(over="ignore", invalid="ignore"):
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
