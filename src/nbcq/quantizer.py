"""Uniform affine quantization.

Calibration takes one min/max pass over the tensor, no percentile clipping,
over the range widened to hold zero, [min(x, 0), max(x, 0)], so that every
value of a one-sided tensor lies inside it:

    scale      s = (max(x, 0) - min(x, 0)) / (2^b - 1), floored at 1e-12
    zero point z = round(-min(x, 0) / s)
    code       q = clip(round(x / s) + z, 0, 2^b - 1)
    value      x_hat = s * (q - z)

A scale whose top level (2^b - 1) * s overflows float64 is a ValueError.

Rounding is to the nearest integer, halves away from zero, exact for every
finite input, and one function does it: ``grid_round(x, s, lo, hi)`` is
``clip(round(x / s), lo, hi)``. Fake-quant (bounds [-z, 2^b - 1 - z]), the
zero point, ``level_codes`` and the int8 codes of ``compensation.store_params``
call it. Activations quantize per tensor (``fake_quantize``); weight matrices
quantize per output row (``quantize_per_channel``). Both compute ``x_hat``
straight from ``x`` in float64, without materializing ``q``, and never return
-0.0. A per-tensor ``x_hat`` takes one of 2^b values: ``level_table`` lists
them by code and ``level_codes`` recovers the code of each entry as one byte
(b <= 8), so that ``x_hat`` can be held in an eighth of its float64 size and
a map applied elementwise to it can run on the 2^b levels instead.
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
    "grid_round",
    "calibrate_params",
    "fake_quantize",
    "level_table",
    "level_codes",
    "quantize_per_channel",
]

# Lower bound on the scale; only an all-zero tensor, whose range holds zero
# alone, reaches it.
SCALE_FLOOR = 1e-12


def grid_round(x, scale, lo, hi, out: np.ndarray | None = None) -> np.ndarray:
    """``clip(round(x / scale), lo, hi)`` in float64, halves rounded away from
    zero; the arguments broadcast, ``scale > 0``, and ``out`` may be ``x``."""
    t = np.asarray(np.divide(x, scale))  # a new array, with the sign of x
    sign, out = (x, t) if out is None else (t, out)  # out may be x: then t keeps the sign
    np.abs(t, out=out)
    out += 0.49999999999999994  # + 0.5 rounds up 0.5 - 2^-54 and odd n in [2^52, 2^53)
    np.floor(out, out=out)
    np.copysign(out, sign, out=out)
    np.maximum(out, lo, out=out)  # clip without np.clip's wrapper
    return np.minimum(out, hi, out=out)


@dataclass(frozen=True)
class QuantParams:
    """Bit width, scale and zero point of one tensor."""

    bits: int
    scale: float
    zero_point: int

    def __post_init__(self):
        check_bits(self.bits)
        # the top level (2^bits - 1) * scale is inf where a finite scale is too wide
        if not (self.scale > 0 and math.isfinite((2**self.bits - 1) * self.scale)):
            also = ", and so must (2^bits - 1) * scale" if 0 < self.scale < math.inf else ""
            raise ValueError(f"scale must be positive and finite{also}, got {self.scale}")
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
    """Scale and zero point of the ranges [min(lo, 0), max(hi, 0)], elementwise."""
    top = 2**bits - 1
    lo, hi = np.minimum(lo, 0.0), np.maximum(hi, 0.0)
    scale = np.maximum((hi - lo) / top, SCALE_FLOOR)
    return scale, grid_round(-lo, scale, 0, top)


def _fake_quant(src, dst, scale, zero, top: int) -> None:
    """Write ``scale * clip(round(src / scale), -zero, top - zero)`` to
    ``dst``, which may be ``src``; ``scale`` and ``zero`` broadcast."""
    grid_round(src, scale, -zero, top - zero, out=dst)
    dst *= scale
    dst += 0.0  # -0.0 becomes +0.0, the level of the zero point


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
    result goes to a new array; ``out``, if given, is ``x``, which is
    written over (see ``numerics.map_tiles``).
    """
    arr = as_tensor(x, "input")
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
    t = grid_round(arr, p.scale, -p.zero_point, p.n_levels - 1 - p.zero_point)
    t += p.zero_point
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
    with np.errstate(over="ignore"):  # an overflow is the ValueError below
        scale, zero = _scale_zero(arr.min(axis=1), arr.max(axis=1), bits)
        top_levels = (2**bits - 1) * scale
    if not np.isfinite(top_levels).all():
        raise ValueError("scale must be positive and finite: a row's range overflows float64")
    out = np.empty_like(arr)
    _fake_quant(arr, out, scale[:, None], zero[:, None], 2**bits - 1)
    return out
