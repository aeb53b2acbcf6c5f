"""Bipolar logarithmic range compression and the alternate maps.

The core map is odd and piecewise around a threshold 2^-n:

    f(x) = log2(x) + n + 1        for x >  2^-n
    f(x) = 2^n * x                for |x| <= 2^-n
    f(x) = -log2(-x) - n - 1      for x < -2^-n

The central region maps onto [-1, 1]; the positive and negative tails map
onto (1, inf) and (-inf, -1), so large magnitudes of either sign are
compressed logarithmically while the scale stays invertible. The inverse
mirrors the branches:

    f_inv(v) = 2^(v - n - 1)      for v > 1
    f_inv(v) = 2^-n * v           for |v| <= 1
    f_inv(v) = -2^(-v - n - 1)    for v < -1

Implementation notes: both directions compute the magnitude map once and
mirror it with the sign, so odd symmetry holds bit-exactly, and the linear
branch divides/multiplies by the threshold itself so the seam values land
exactly on +-1 and +-2^-n. The map is continuous but not differentiable at
the seams. log2/exp2 use the platform's native base-2 primitives. Each map
runs in cache-sized tiles: the forward takes log2 of max(|x|, 2^-n), so it
never sees zero, then overwrites the linear region with |x| / 2^-n.

One table maps each kind name to its (forward, inverse) pair: ``blt``,
``asinh`` (total and invertible on all reals) and ``identity`` (which turns
the transformed compensation into the plain linear one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import map_tiles

__all__ = [
    "TransformKind",
    "IDENTITY",
    "blt_forward",
    "blt_inverse",
    "apply_kind_forward",
    "apply_kind_inverse",
    "KIND_NAMES",
    "N_EXP_RANGE",
]

# Operational range for the threshold exponent, matching the search bounds.
N_EXP_RANGE = (-10.0, 10.0)


def _mirrored(x, magnitude_map):
    """Odd extension ``sign(x) * m(|x|)`` of a map on magnitudes.

    ``magnitude_map(mag, out)`` writes m(mag) into ``out`` and may overwrite
    ``mag``; it runs on one tile at a time (see ``numerics.map_tiles``).
    """

    def kernel(src, dst):
        magnitude_map(np.abs(src), dst)
        dst *= np.sign(src)

    out = map_tiles(kernel, x)
    return float(out) if out.ndim == 0 else out


def blt_forward(x, kind: TransformKind):
    """Apply the bipolar logarithmic map of a ``blt`` kind elementwise."""
    thr = kind.threshold
    offset = kind.n_exp + 1.0

    def fwd(mag, out):
        np.maximum(mag, thr, out=out)
        np.log2(out, out=out)
        out += offset
        linear = mag <= thr
        mag /= thr
        np.copyto(out, mag, where=linear)

    return _mirrored(x, fwd)


def blt_inverse(v, kind: TransformKind):
    """Invert the bipolar logarithmic map of a ``blt`` kind elementwise."""
    thr = kind.threshold
    offset = kind.n_exp + 1.0

    def inv(mag, out):
        np.subtract(mag, offset, out=out)
        np.exp2(out, out=out)
        linear = mag <= 1.0
        mag *= thr
        np.copyto(out, mag, where=linear)

    return _mirrored(v, inv)


def _copy(x, kind: TransformKind):
    """A float64 copy with bit-identical values."""
    arr = np.array(x, dtype=np.float64)
    return float(arr) if arr.ndim == 0 else arr


# name -> (forward, inverse), each called as map(x, kind)
_MAPS = {
    "blt": (blt_forward, blt_inverse),
    "asinh": (lambda x, kind: _mirrored(x, np.arcsinh), lambda v, kind: _mirrored(v, np.sinh)),
    "identity": (_copy, _copy),
}
KIND_NAMES = tuple(_MAPS)


@dataclass(frozen=True)
class TransformKind:
    """A named map usable as the compensation transform.

    ``n_exp``, the threshold exponent, is required for the ``blt`` kind and
    must be absent for the others. It is real-valued; fractional thresholds
    are legitimate search points, not rounding artifacts.
    """

    name: str
    n_exp: float | None = None

    def __post_init__(self):
        if self.name not in _MAPS:
            raise ValueError(f"unknown transform kind {self.name!r}")
        if self.name != "blt":
            if self.n_exp is not None:
                raise ValueError(f"{self.name} kind does not take n_exp")
            return
        if self.n_exp is None:
            raise ValueError("blt kind requires n_exp")
        n = float(self.n_exp)
        if not math.isfinite(n):
            raise ValueError("n_exp must be finite")
        if not N_EXP_RANGE[0] <= n <= N_EXP_RANGE[1]:
            raise ValueError(f"n_exp {n} outside operational range {N_EXP_RANGE}")
        object.__setattr__(self, "n_exp", n)

    @property
    def threshold(self) -> float:
        """The seam 2^-n of a ``blt`` kind."""
        return 2.0 ** (-self.n_exp)


IDENTITY = TransformKind("identity")


def apply_kind_forward(x, kind: TransformKind):
    """Apply the forward transform of ``kind`` elementwise."""
    return _MAPS[kind.name][0](x, kind)


def apply_kind_inverse(v, kind: TransformKind):
    """Apply the inverse transform of ``kind`` elementwise."""
    return _MAPS[kind.name][1](v, kind)
