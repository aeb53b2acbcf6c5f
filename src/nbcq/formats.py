"""Binary file formats and the run configuration file.

Tensor file (magic "NBCT"):

    offset  size        field
    0       4           magic "NBCT"
    4       1           version (1)
    5       1           dtype: 0=f32, 1=f64, 2=f16, 3=i8
    6       1           ndim
    7       1           pad (0)
    8       8*ndim      extents, little-endian u64
    ...     prod*size   payload, row-major, little-endian

Compensation bundle (magic "NBCB"): after the magic, a version byte and a
little-endian u16 block count, then per block

    u16 block index, kind byte (0=identity 1=blt 2=asinh; 3 and 4 are
    reserved and rejected on read), f64 LE threshold exponent (0.0 for
    kinds without one), storage byte
    (0=f32 1=f16 2=i8_per_channel), then embedded tensor records for the
    weight and bias, plus the per-row scales (f32) when storage is i8.

Weight/bias dtypes follow the storage mode (f32, f16, or i8 codes with an
f16 bias). Both formats round-trip bit-exactly and reject corrupt files
with distinct errors for bad magic, bad version and truncation; a bundle
block whose bytes decode to an invalid module (a non-finite value, an
exponent outside the operational range) is a FormatError naming the block.
All writes go through a temp file and an atomic rename.

The run configuration is line-oriented ``key = value`` text with ``#``
comments; unknown keys are rejected by name, and so is every value the
run would reject once it starts.
"""

from __future__ import annotations

import io
import math
import os
import struct
import tempfile
from dataclasses import dataclass, fields

import numpy as np

from .compensation import STORAGE_F16, STORAGE_F32, STORAGE_I8, STORAGE_NAMES, CompensationModule
from .errors import (
    BadMagicError,
    BadVersionError,
    ConfigError,
    FormatError,
    TruncatedFileError,
)
from .fls import holdout_count
from .harness import MODES
from .transform import KIND_NAMES, N_EXP_RANGE, TransformKind

__all__ = [
    "TENSOR_MAGIC",
    "BUNDLE_MAGIC",
    "FORMAT_VERSION",
    "write_tensor",
    "read_tensor",
    "write_bundle",
    "read_bundle",
    "RunConfig",
    "read_run_config",
]

TENSOR_MAGIC = b"NBCT"
BUNDLE_MAGIC = b"NBCB"
FORMAT_VERSION = 1

# 2^33 elements (64 GiB of f64) is far beyond anything this toolkit writes.
_MAX_PAYLOAD_ELEMENTS = 1 << 33

_DTYPE_BY_CODE = {
    0: np.dtype("<f4"),
    1: np.dtype("<f8"),
    2: np.dtype("<f2"),
    3: np.dtype("<i1"),
}
# Codes 3 and 4 stay unassigned: older bundles used them for tanh and sigmoid.
_CODE_BY_KIND = {"identity": 0, "blt": 1, "asinh": 2}
_KIND_BY_CODE = {v: k for k, v in _CODE_BY_KIND.items()}
_CODE_BY_STORAGE = {STORAGE_F32: 0, STORAGE_F16: 1, STORAGE_I8: 2}
_STORAGE_BY_CODE = {v: k for k, v in _CODE_BY_STORAGE.items()}


def _dtype_code(dtype: np.dtype) -> int:
    for code, dt in _DTYPE_BY_CODE.items():
        if dt == dtype.newbyteorder("<"):
            return code
    raise ValueError(f"unsupported tensor dtype {dtype}")


def _atomic_write(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".nbc-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _read_exact(f, count: int, path: str, what: str) -> bytes:
    data = f.read(count)
    if len(data) != count:
        raise TruncatedFileError(
            f"{path}: truncated while reading {what}; expected {count} bytes, got {len(data)}",
            expected=count,
            actual=len(data),
        )
    return data


def _write_tensor_stream(out: io.BytesIO, arr: np.ndarray) -> None:
    dtype = np.dtype(arr.dtype).newbyteorder("<")
    code = _dtype_code(dtype)
    if arr.ndim > 255:
        raise ValueError("tensor rank exceeds the format limit of 255")
    out.write(TENSOR_MAGIC)
    out.write(bytes([FORMAT_VERSION, code, arr.ndim, 0]))
    for extent in arr.shape:
        out.write(struct.pack("<Q", extent))
    out.write(np.ascontiguousarray(arr).astype(dtype, copy=False).tobytes(order="C"))


def _read_tensor_stream(f, path: str) -> np.ndarray:
    magic = _read_exact(f, 4, path, "tensor magic")
    if magic != TENSOR_MAGIC:
        raise BadMagicError(f"{path}: bad tensor magic {magic!r}")
    version, dcode, ndim, pad = _read_exact(f, 4, path, "tensor header")
    if version != FORMAT_VERSION:
        raise BadVersionError(f"{path}: unsupported tensor version {version}")
    if dcode not in _DTYPE_BY_CODE:
        raise FormatError(f"{path}: unknown dtype code {dcode}")
    if pad != 0:
        raise FormatError(f"{path}: nonzero pad byte {pad}")
    shape = tuple(
        struct.unpack("<Q", _read_exact(f, 8, path, f"extent {i}"))[0] for i in range(ndim)
    )
    dtype = _DTYPE_BY_CODE[dcode]
    count = 1
    for extent in shape:
        count *= extent
        # guards corrupt headers from triggering enormous allocations
        if count > _MAX_PAYLOAD_ELEMENTS:
            raise FormatError(f"{path}: tensor payload of {count} elements exceeds the format limit")
    payload = _read_exact(f, count * dtype.itemsize, path, "tensor payload")
    return np.frombuffer(payload, dtype=dtype).reshape(shape).copy()


def write_tensor(path: str, arr) -> None:
    """Write an array as a tensor file; dtype is taken from the array."""
    arr = np.asarray(arr)
    out = io.BytesIO()
    _write_tensor_stream(out, arr)
    _atomic_write(path, out.getvalue())


def read_tensor(path: str) -> np.ndarray:
    """Read a tensor file back in its stored dtype."""
    with open(path, "rb") as f:
        arr = _read_tensor_stream(f, path)
        trailing = f.read(1)
    if trailing:
        raise FormatError(f"{path}: trailing bytes after the tensor payload")
    return arr


def _module_tensors(mod: CompensationModule) -> dict[str, np.ndarray]:
    """A module's stored tensors by role, in bundle order, in their file dtypes."""
    if mod.storage == STORAGE_I8:
        return {
            "weight": mod.weight_codes.astype("<i1"),
            "bias": mod.bias.astype("<f2"),
            "scales": mod.weight_scales.astype("<f4"),
        }
    narrow = "<f2" if mod.storage == STORAGE_F16 else "<f4"
    return {"weight": mod.weight.astype(narrow), "bias": mod.bias.astype(narrow)}


def write_bundle(path: str, modules) -> None:
    """Write per-block compensation modules as one bundle file."""
    modules = list(modules)
    if len(modules) > 0xFFFF:
        raise ValueError("bundle supports at most 65535 blocks")
    out = io.BytesIO()
    out.write(BUNDLE_MAGIC)
    out.write(bytes([FORMAT_VERSION]))
    out.write(struct.pack("<H", len(modules)))
    for index, mod in enumerate(modules):
        out.write(struct.pack("<H", index))
        out.write(bytes([_CODE_BY_KIND[mod.kind.name]]))
        n_exp = mod.kind.n_exp if mod.kind.name == "blt" else 0.0
        out.write(struct.pack("<d", n_exp))
        out.write(bytes([_CODE_BY_STORAGE[mod.storage]]))
        for tensor in _module_tensors(mod).values():
            _write_tensor_stream(out, tensor)
    _atomic_write(path, out.getvalue())


def read_bundle(path: str) -> list[CompensationModule]:
    """Read a bundle back into per-block modules (values widened to f64)."""
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, path, "bundle magic")
        if magic != BUNDLE_MAGIC:
            raise BadMagicError(f"{path}: bad bundle magic {magic!r}")
        version = _read_exact(f, 1, path, "bundle version")[0]
        if version != FORMAT_VERSION:
            raise BadVersionError(f"{path}: unsupported bundle version {version}")
        count = struct.unpack("<H", _read_exact(f, 2, path, "block count"))[0]
        modules = []
        for position in range(count):
            index = struct.unpack("<H", _read_exact(f, 2, path, "block index"))[0]
            if index != position:
                raise FormatError(f"{path}: block index {index} out of order at {position}")
            kind_code = _read_exact(f, 1, path, "kind byte")[0]
            if kind_code not in _KIND_BY_CODE:
                raise FormatError(f"{path}: unknown kind code {kind_code}")
            n_exp = struct.unpack("<d", _read_exact(f, 8, path, "threshold exponent"))[0]
            storage_code = _read_exact(f, 1, path, "storage byte")[0]
            if storage_code not in _STORAGE_BY_CODE:
                raise FormatError(f"{path}: unknown storage code {storage_code}")
            storage = _STORAGE_BY_CODE[storage_code]
            kind_name = _KIND_BY_CODE[kind_code]

            weight = _read_tensor_stream(f, path)
            bias = _read_tensor_stream(f, path).astype(np.float64)
            if storage == STORAGE_I8:
                scales = _read_tensor_stream(f, path).astype(np.float64)
                stored = {"weight_codes": weight, "weight_scales": scales}
            else:
                stored = {"weight": weight.astype(np.float64)}
            try:  # the bytes decode, but the values must make a valid module
                kind = TransformKind(kind_name, n_exp) if kind_name == "blt" else TransformKind(kind_name)
                modules.append(CompensationModule(kind=kind, bias=bias, storage=storage, **stored))
            except ValueError as exc:
                raise FormatError(f"{path}: block {position}: {exc}") from None
        trailing = f.read(1)
    if trailing:
        raise FormatError(f"{path}: trailing bytes after the last block")
    return modules


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
    transform: str = "blt"
    storage: str = STORAGE_F32
    n_init: float = 2.0
    n_min: float = -10.0
    n_max: float = 10.0
    step: float = 1.0
    holdout_fraction: float = 0.25
    outlier_fraction: float = 0.1
    outlier_scale: float = 12.0
    outlier_threshold: float = 10.0
    heavy_channel: int = 0
    heavy_scale: float = 1.3
    heavy_input_scale: float = 3.0
    out_dir: str = "."


# key -> parser of its value text, from the field's annotation
_PARSERS = {f.name: {"int": int, "float": float, "str": str}[f.type] for f in fields(RunConfig)}


def read_run_config(path: str) -> RunConfig:
    """Parse a ``key = value`` config file, rejecting unknown keys and
    out-of-range values by name."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw_lines = f.readlines()
    except FileNotFoundError:
        raise ConfigError(f"configuration file not found: {path}") from None
    values = {}
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
        try:
            values[key] = _PARSERS[key](text)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: invalid value {text!r} for key '{key}'") from None
    cfg = RunConfig(**values)
    for key, value in values.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{path}: {key} must be finite, got {value!r}")
    for key, names in (("mode", MODES), ("transform", KIND_NAMES), ("storage", STORAGE_NAMES)):
        if getattr(cfg, key) not in names:
            raise ConfigError(f"{path}: {key} must be one of {names}, got '{getattr(cfg, key)}'")
    # The bounds the model, the outlier spec, the quantizer and the search
    # check when the run is built, checked here so the run fails before any
    # setup or fit, naming the key.
    lo, hi = N_EXP_RANGE
    for key, ok, rule in (
        ("seed", cfg.seed >= 0, ">= 0"),
        ("d", cfg.d >= 1, ">= 1"),
        ("h", cfg.h >= 1, ">= 1"),
        ("n_blocks", cfg.n_blocks >= 1, ">= 1"),
        ("heavy_channel", 0 <= cfg.heavy_channel < cfg.d, f"in [0, d = {cfg.d})"),
        ("bits_w", 2 <= cfg.bits_w <= 8, "in [2, 8]"),
        ("bits_a", 2 <= cfg.bits_a <= 8, "in [2, 8]"),
        ("outlier_fraction", 0.0 <= cfg.outlier_fraction <= 0.2, "in [0, 0.2]"),
        ("outlier_scale", cfg.outlier_scale >= 1.0, ">= 1"),
        ("outlier_threshold", cfg.outlier_threshold > 0.0, "> 0"),
        ("n_min", lo <= cfg.n_min, f">= {lo}"),
        ("n_max", cfg.n_max <= hi, f"<= {hi}"),
        ("n_init", cfg.n_min <= cfg.n_init <= cfg.n_max, "in [n_min, n_max]"),
        ("step", cfg.step > 0.0, "> 0"),
        ("holdout_fraction", 0.0 < cfg.holdout_fraction < 1.0, "in (0, 1)"),
    ):
        if not ok:
            raise ConfigError(f"{path}: {key} must be {rule}, got {getattr(cfg, key)!r}")
    # Every command but export may run the exponent search, whose fits see
    # only the rows left after the hold-out split (this also implies the
    # n_samples >= d + 2 that calibration needs).
    fit_rows = cfg.n_samples - holdout_count(cfg.n_samples, cfg.holdout_fraction)
    if fit_rows < cfg.d + 1:
        raise ConfigError(
            f"{path}: n_samples = {cfg.n_samples} with holdout_fraction = {cfg.holdout_fraction} "
            f"leaves {fit_rows} rows to fit on; the search needs at least d + 1 = {cfg.d + 1}"
        )
    return cfg
