"""Uniform affine quantization.

Calibration takes one min/max pass over the tensor, no percentile clipping:

    scale      s = (max - min) / (2^b - 1), floored at 1e-12
    zero point z = clip(round(-min / s), 0, 2^b - 1)
    code       q = clip(round(x / s) + z, 0, 2^b - 1)
    value      x_hat = s * (q - z)

Rounding is half away from zero everywhere, which is deterministic and the
convention most integer-quantization code bases use. Activations quantize
per tensor; weight matrices quantize per output row. ``fake_quantize``
computes ``x_hat`` straight from ``x`` in float64, bit for bit equal to
``dequantize(quantize(x, p))``, without materializing the integer codes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import as_tensor, map_tiles

__all__ = [
    "SCALE_FLOOR",
    "QuantParams",
    "QuantizedTensor",
    "round_half_away",
    "calibrate_params",
    "quantize",
    "dequantize",
    "fake_quantize",
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
    """Bit width, scale and zero point for one tensor or one channel."""

    bits: int
    scale: float
    zero_point: int

    def __post_init__(self):
        if not 2 <= self.bits <= 8:
            raise ValueError(f"bits must be in [2, 8], got {self.bits}")
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if not 0 <= self.zero_point <= 2**self.bits - 1:
            raise ValueError(
                f"zero_point {self.zero_point} outside [0, {2**self.bits - 1}]"
            )

    @property
    def n_levels(self) -> int:
        return 2**self.bits


@dataclass(frozen=True)
class QuantizedTensor:
    """Integer codes plus the parameters that produced them.

    ``params`` is a single :class:`QuantParams` for per-tensor quantization
    or a list with one entry per output row for per-channel quantization.
    """

    codes: np.ndarray
    params: QuantParams | list[QuantParams] = field(repr=False)

    def __post_init__(self):
        codes = np.asarray(self.codes, dtype=np.int64)
        object.__setattr__(self, "codes", codes)
        if self.per_channel:
            if codes.ndim != 2:
                raise ValueError("per-channel codes must be rank 2")
            if len(self.params) != codes.shape[0]:
                raise ValueError(
                    f"{len(self.params)} channel params for {codes.shape[0]} rows"
                )
            plist = self.params
        else:
            plist = [self.params]
        if codes.size:
            lo, top = codes.min(), codes.max()
            for p in plist:
                hi = p.n_levels - 1
                if lo < 0 or top > hi:
                    raise ValueError(f"codes outside [0, {hi}]")

    @property
    def per_channel(self) -> bool:
        return isinstance(self.params, list)


def _check_bits(bits) -> int:
    if not isinstance(bits, (int, np.integer)) or not 2 <= int(bits) <= 8:
        raise ValueError(f"bits must be an integer in [2, 8], got {bits!r}")
    return int(bits)


def calibrate_params(x, bits: int) -> QuantParams:
    """Derive scale and zero point from the min/max of a calibration tensor."""
    _check_bits(bits)
    arr = as_tensor(x, "calibration tensor")
    if arr.size == 0:
        raise ValueError("calibration tensor is empty")
    lo = float(arr.min())
    hi = float(arr.max())
    scale = max((hi - lo) / (2**bits - 1), SCALE_FLOOR)
    zero = int(np.clip(round_half_away(-lo / scale), 0, 2**bits - 1))
    return QuantParams(bits=int(bits), scale=scale, zero_point=zero)


def quantize(x, p: QuantParams) -> QuantizedTensor:
    """Quantize ``x`` per tensor with the given parameters."""
    arr = as_tensor(x, "tensor")
    codes = round_half_away(arr / p.scale) + p.zero_point
    codes = np.clip(codes, 0, p.n_levels - 1).astype(np.int64)
    return QuantizedTensor(codes=codes, params=p)


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """Map codes back to real values, x_hat = s * (code - z)."""
    codes = q.codes.astype(np.float64)
    if not q.per_channel:
        return q.params.scale * (codes - q.params.zero_point)
    scales = np.array([p.scale for p in q.params])
    zeros = np.array([float(p.zero_point) for p in q.params])
    return scales[:, None] * (codes - zeros[:, None])


def fake_quantize(x, p: QuantParams, out: np.ndarray | None = None) -> np.ndarray:
    """Quantize and dequantize ``x`` per tensor in one float64 pass.

    Equal bit for bit to ``dequantize(quantize(x, p))``: the same rounding,
    clip and affine map, applied tile by tile. Rejects non-finite input as
    :func:`quantize` does, before anything is written. The result goes to
    ``out`` if given, which may be ``x`` itself (see ``numerics.map_tiles``).
    """
    arr = as_tensor(x, "tensor")
    top = p.n_levels - 1

    def kernel(src, dst):
        t = src / p.scale  # keeps the sign of src (the scale is positive)
        # round half away from zero: |t| rounded up from .5, then the sign
        # put back from t, as dst may be src
        np.abs(t, out=dst)
        dst += 0.5
        np.floor(dst, out=dst)
        np.copysign(dst, t, out=dst)
        dst += p.zero_point  # a negative zero becomes +0 here, as in the int64 codes
        np.clip(dst, 0, top, out=dst)
        dst -= p.zero_point
        dst *= p.scale

    return map_tiles(kernel, arr, out)


def quantize_per_channel(w, bits: int) -> QuantizedTensor:
    """Quantize a rank-2 tensor row by row over the output-channel axis.

    Each row gets the parameters :func:`calibrate_params` would derive from
    it and the codes :func:`quantize` would give it; all rows are computed
    at once.
    """
    arr = as_tensor(w, "weight", ndim=2)
    if arr.shape[0] == 0:
        return QuantizedTensor(codes=np.empty(arr.shape, dtype=np.int64), params=[])
    bits = _check_bits(bits)
    if arr.shape[1] == 0:
        raise ValueError("calibration tensor is empty")
    top = 2**bits - 1
    lo = arr.min(axis=1)
    scale = np.maximum((arr.max(axis=1) - lo) / top, SCALE_FLOOR)
    zero = np.clip(round_half_away(-lo / scale), 0, top)
    codes = np.clip(round_half_away(arr / scale[:, None]) + zero[:, None], 0, top)
    params = [
        QuantParams(bits=bits, scale=float(s), zero_point=int(z)) for s, z in zip(scale, zero)
    ]
    return QuantizedTensor(codes=codes.astype(np.int64), params=params)
