"""Uniform affine quantization.

Calibration takes one min/max pass over the tensor, no percentile clipping:

    scale      s = (max - min) / (2^b - 1), floored at 1e-12
    zero point z = clip(round(-min / s), 0, 2^b - 1)
    code       q = clip(round(x / s) + z, 0, 2^b - 1)
    value      x_hat = s * (q - z)

Rounding is half away from zero everywhere, which is deterministic and the
convention most integer-quantization code bases use. Activations quantize
per tensor (``fake_quantize``); weight matrices quantize per output row
(``quantize_per_channel``). Both compute ``x_hat`` straight from ``x`` in
float64, without materializing the integer codes ``q``. A per-tensor
``x_hat`` takes one of 2^b values: ``level_table`` lists them by code and
``level_codes`` recovers the code of each entry as one byte (b <= 8), so
that ``x_hat`` can be held in an eighth of its float64 size and a map
applied elementwise to it can run on the 2^b levels instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import as_tensor, map_tiles

__all__ = [
    "SCALE_FLOOR",
    "QuantParams",
    "check_bits",
    "round_half_away",
    "calibrate_params",
    "fake_quantize",
    "level_table",
    "level_codes",
    "quantize_per_channel",
]

# Lower bound on the scale so constant tensors (max == min) stay encodable.
SCALE_FLOOR = 1e-12


def round_half_away(x) -> np.ndarray:
    """Round to nearest integer with halves away from zero."""
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


@dataclass(frozen=True)
class QuantParams:
    """Bit width, scale and zero point of one tensor."""

    bits: int
    scale: float
    zero_point: int

    def __post_init__(self):
        check_bits(self.bits)
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if not 0 <= self.zero_point <= 2**self.bits - 1:
            raise ValueError(
                f"zero_point {self.zero_point} outside [0, {2**self.bits - 1}]"
            )

    @property
    def n_levels(self) -> int:
        return 2**self.bits


def check_bits(bits, key: str = "bits") -> int:
    """``bits`` as an int; ValueError names ``key`` unless it is an integer in [2, 8]."""
    if not isinstance(bits, (int, np.integer)) or not 2 <= bits <= 8:
        raise ValueError(f"{key} must be in [2, 8], got {bits!r}")
    return int(bits)


def _scale_zero(lo, hi, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Scale and zero point of the ranges [lo, hi], elementwise."""
    top = 2**bits - 1
    scale = np.maximum((hi - lo) / top, SCALE_FLOOR)
    return scale, np.clip(round_half_away(-lo / scale), 0, top)


def _fake_quant(src, dst, scale, zero, top: int) -> None:
    """Write ``scale * (clip(round(src / scale) + zero, 0, top) - zero)`` to
    ``dst``, which may be ``src``; ``scale`` and ``zero`` broadcast."""
    t = src / scale  # keeps the sign of src (the scale is positive)
    # round half away from zero: |t| rounded up from .5, then the sign put
    # back from t, as dst may be src
    np.abs(t, out=dst)
    dst += 0.5
    np.floor(dst, out=dst)
    np.copysign(dst, t, out=dst)
    dst += zero  # a negative zero becomes +0 here, as in integer codes
    np.maximum(dst, 0, out=dst)  # clip to [0, top] without np.clip's wrapper
    np.minimum(dst, top, out=dst)
    dst -= zero
    dst *= scale


def calibrate_params(x, bits: int) -> QuantParams:
    """Derive scale and zero point from the min/max of a calibration tensor."""
    bits = check_bits(bits)
    arr = as_tensor(x, "calibration tensor")
    if arr.size == 0:
        raise ValueError("calibration tensor is empty")
    scale, zero = _scale_zero(arr.min(), arr.max(), bits)
    return QuantParams(bits=bits, scale=float(scale), zero_point=int(zero))


def fake_quantize(x, p: QuantParams, out: np.ndarray | None = None) -> np.ndarray:
    """Quantize ``x`` per tensor and map it back to real values in one
    float64 pass.

    Applies the rounding, clip and affine map of the module docstring tile
    by tile. Rejects non-finite input before anything is written. The
    result goes to ``out`` if given, which may be ``x`` itself (see
    ``numerics.map_tiles``).
    """
    arr = as_tensor(x, "tensor")
    top = p.n_levels - 1
    return map_tiles(lambda src, dst: _fake_quant(src, dst, p.scale, p.zero_point, top), arr, out)


def level_table(p: QuantParams) -> np.ndarray:
    """The 2^bits values ``fake_quantize`` maps to under ``p``, indexed by
    code: ``(code - zero_point) * scale``, with the float64 operations
    ``fake_quantize`` applies to a code, so each level has its bits."""
    return _levels_of(np.arange(p.n_levels, dtype=np.float64), p)


def _levels_of(codes: np.ndarray, p: QuantParams) -> np.ndarray:
    """The levels of float64 ``codes`` under ``p``, written over them."""
    codes -= p.zero_point
    codes *= p.scale
    return codes


def level_codes(x_q, p: QuantParams) -> np.ndarray:
    """The integer codes (``uint8``; ``check_bits`` bounds the bit width to
    8) of a tensor that ``fake_quantize`` made under ``p``:
    ``level_table(p)[codes]`` has the bits of ``x_q``.

    Raises ValueError if an entry of ``x_q`` is not bit for bit a level of
    ``p``, such as a value quantized under other parameters.
    """
    arr = as_tensor(x_q, "x_q")
    # a level divided by the scale lies within a few ulps of its integer
    # code - zero_point, far closer than the 0.5 that rounding needs
    t = arr / p.scale
    np.rint(t, out=t)
    t += p.zero_point
    np.maximum(t, 0, out=t)  # clip to the codes without np.clip's wrapper
    np.minimum(t, p.n_levels - 1, out=t)
    codes = t.astype(np.uint8)
    # t holds the codes, exactly: their levels are level_table's entries
    if not np.array_equal(_levels_of(t, p).view(np.int64), arr.view(np.int64)):
        raise ValueError(f"x_q holds values that are not levels of {p}")
    return codes


def quantize_per_channel(w, bits: int) -> np.ndarray:
    """Quantize a rank-2 tensor row by row over the output-channel axis and
    map it back to real values.

    Each row comes out as ``fake_quantize(row, calibrate_params(row, bits))``
    would give it, bit for bit; all rows are computed at once.
    """
    bits = check_bits(bits)
    arr = as_tensor(w, "weight", ndim=2)
    if arr.shape[1] == 0:
        raise ValueError("calibration tensor is empty")
    scale, zero = _scale_zero(arr.min(axis=1), arr.max(axis=1), bits)
    if not np.isfinite(scale).all():
        raise ValueError("scale must be positive and finite: a row's range overflows float64")
    out = np.empty_like(arr)
    _fake_quant(arr, out, scale[:, None], zero[:, None], 2**bits - 1)
    return out
