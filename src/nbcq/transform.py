"""Bipolar logarithmic range compression and the identity map.

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
runs in cache-sized tiles (see ``numerics.map_tiles``).

Both branches are computed for every element and blended without a branch
or a masked copy: the log branch is multiplied by the 0/1 "outside the
seam" mask, the linear branch by its complement, and the two are added.
Real inputs are fake-quantized to a few levels on both sides of the seam,
so the mask flips unpredictably from one element to the next; a masked
copy (``np.copyto(..., where=mask)``) then mispredicts so often that the
forward ran twice as long on such a block as on the same values sorted
(8.4 ms against 3.8 ms on 8192 x 64, numpy 2.4, Intel Xeon). The blend
costs the same whatever the order (4-5 ms on that block), so it only
loses on long runs of one branch, which block inputs do not have. It gives
the same bits as a select: x*1 = x, x*0 = +0 for finite x >= 0, and
x + 0 = x. That needs both branches finite where their factor is 0. The
forward takes log2 of max(|x|, 2^-n), so it never sees zero, and clamps
the linear branch to min(|x|, 2^-n) / 2^-n <= 1 so it cannot overflow; the
inverse clamps it to min(|v|, 1) * 2^-n, and an exp2 that overflows to
+inf only ever meets the factor 1. The sign stays a multiply by sign(x),
not ``copysign``: sign(-0.0) is 0, so -0.0 maps to +0.0, where
``copysign`` would give -0.0.

One table maps each kind name to its (forward, inverse) pair: ``blt``, and
``identity``, which returns its argument itself, not a copy, and makes the
compensation plain linear. A run's mode names its kind
(``harness.MODE_MAPS``).
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


def _blend(out, lin, linear):
    """Set ``out`` to ``lin`` where ``linear`` holds, without a branch.

    Each must be finite where its factor is 0 (see the module notes).
    Overwrites ``lin`` and ``linear``.
    """
    lin *= linear
    np.logical_not(linear, out=linear)
    out *= linear
    out += lin


def blt_forward(x, kind: TransformKind):
    """Apply the bipolar logarithmic map of a ``blt`` kind elementwise."""
    thr = kind.threshold
    offset = kind.n_exp + 1.0

    def fwd(mag, out):
        np.maximum(mag, thr, out=out)
        np.log2(out, out=out)
        out += offset
        linear = mag <= thr
        np.minimum(mag, thr, out=mag)
        mag /= thr
        _blend(out, mag, linear)

    return _mirrored(x, fwd)


def blt_inverse(v, kind: TransformKind):
    """Invert the bipolar logarithmic map of a ``blt`` kind elementwise."""
    thr = kind.threshold
    offset = kind.n_exp + 1.0

    def inv(mag, out):
        np.subtract(mag, offset, out=out)
        np.exp2(out, out=out)
        linear = mag <= 1.0
        np.minimum(mag, 1.0, out=mag)
        mag *= thr
        _blend(out, mag, linear)

    return _mirrored(v, inv)


def _unchanged(x, kind: TransformKind):
    """``x`` itself: no caller writes into a map's result."""
    return x


# name -> (forward, inverse), each called as map(x, kind)
_MAPS = {
    "blt": (blt_forward, blt_inverse),
    "identity": (_unchanged, _unchanged),
}


@dataclass(frozen=True)
class TransformKind:
    """A named map usable as the compensation transform.

    ``n_exp``, the threshold exponent, is required for the ``blt`` kind and
    must be absent for ``identity``. It is real-valued; fractional thresholds
    are legitimate search points, not rounding artifacts.
    """

    name: str
    n_exp: float | None = None

    def __post_init__(self):
        if self.name not in _MAPS:
            raise ValueError(f"unknown transform kind {self.name!r}")
        if self.name != "blt":
            if self.n_exp is not None:
                raise ValueError(f"{self.name} kind does not take n_exp, got {self.n_exp!r}")
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
        """The seam 2^-n of a ``blt`` kind; ValueError for a kind without one."""
        if self.n_exp is None:
            raise ValueError(f"{self.name} kind has no threshold")
        return 2.0 ** (-self.n_exp)


IDENTITY = TransformKind("identity")


def apply_kind_forward(x, kind: TransformKind):
    """Apply the forward transform of ``kind`` elementwise."""
    return _MAPS[kind.name][0](x, kind)


def apply_kind_inverse(v, kind: TransformKind):
    """Apply the inverse transform of ``kind`` elementwise."""
    return _MAPS[kind.name][1](v, kind)
