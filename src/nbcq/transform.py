"""Bipolar logarithmic range compression and the alternate nonlinearities.

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

Alternate kinds: asinh (total and invertible on all reals), identity (for
testing equivalence with plain linear compensation), and tanh / sigmoid,
which are experimental because their bounded range makes the inverse
partial. Their inverses accept overshoot up to ``CLAMP_MARGIN`` past the
open-range boundary and pull it back to the boundary margin; anything
further out raises :class:`DomainError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import map_tiles

__all__ = [
    "BltTransform",
    "TransformKind",
    "blt_forward",
    "blt_inverse",
    "apply_kind_forward",
    "apply_kind_inverse",
    "CLAMP_MARGIN",
    "KIND_NAMES",
    "EXPERIMENTAL_KINDS",
    "N_EXP_RANGE",
]

# Tolerated overshoot past the open-range boundary of tanh/sigmoid inverses.
CLAMP_MARGIN = 1e-7

# Operational range for the threshold exponent, matching the search bounds.
N_EXP_RANGE = (-10.0, 10.0)

KIND_NAMES = ("blt", "asinh", "tanh", "sigmoid", "identity")
EXPERIMENTAL_KINDS = frozenset({"tanh", "sigmoid"})


@dataclass(frozen=True)
class BltTransform:
    """Threshold exponent of the bipolar logarithmic map.

    ``n_exp`` is real-valued; fractional thresholds are legitimate search
    points, not rounding artifacts.
    """

    n_exp: float

    def __post_init__(self):
        n = float(self.n_exp)
        if not math.isfinite(n):
            raise ValueError("n_exp must be finite")
        if not N_EXP_RANGE[0] <= n <= N_EXP_RANGE[1]:
            raise ValueError(f"n_exp {n} outside operational range {N_EXP_RANGE}")
        object.__setattr__(self, "n_exp", n)

    @property
    def threshold(self) -> float:
        return 2.0 ** (-self.n_exp)


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


def blt_forward(x, t: BltTransform):
    """Apply the bipolar logarithmic map elementwise."""
    thr = t.threshold
    offset = t.n_exp + 1.0

    def fwd(mag, out):
        np.maximum(mag, thr, out=out)
        np.log2(out, out=out)
        out += offset
        linear = mag <= thr
        mag /= thr
        np.copyto(out, mag, where=linear)

    return _mirrored(x, fwd)


def blt_inverse(v, t: BltTransform):
    """Invert the bipolar logarithmic map elementwise."""
    thr = t.threshold
    offset = t.n_exp + 1.0

    def inv(mag, out):
        np.subtract(mag, offset, out=out)
        np.exp2(out, out=out)
        linear = mag <= 1.0
        mag *= thr
        np.copyto(out, mag, where=linear)

    return _mirrored(v, inv)


@dataclass(frozen=True)
class TransformKind:
    """A named nonlinearity usable as the compensation transform.

    ``n_exp`` is required for the ``blt`` kind and must be absent for the
    others. ``identity`` turns the transformed compensation into the plain
    linear one.
    """

    name: str
    n_exp: float | None = None

    def __post_init__(self):
        if self.name not in KIND_NAMES:
            raise ValueError(f"unknown transform kind {self.name!r}")
        if self.name == "blt":
            if self.n_exp is None:
                raise ValueError("blt kind requires n_exp")
            object.__setattr__(self, "n_exp", BltTransform(self.n_exp).n_exp)
        elif self.n_exp is not None:
            raise ValueError(f"{self.name} kind does not take n_exp")

    @property
    def experimental(self) -> bool:
        return self.name in EXPERIMENTAL_KINDS

    def blt(self) -> BltTransform:
        if self.name != "blt":
            raise ValueError(f"{self.name} kind has no threshold exponent")
        return BltTransform(self.n_exp)


IDENTITY = TransformKind("identity")
ASINH = TransformKind("asinh")


def blt_kind(n_exp: float) -> TransformKind:
    return TransformKind("blt", float(n_exp))


def apply_kind_forward(x, kind: TransformKind):
    """Apply the forward transform of ``kind`` elementwise."""
    if kind.name == "blt":
        return blt_forward(x, kind.blt())
    if kind.name == "asinh":
        return _mirrored(x, np.arcsinh)
    if kind.name == "tanh":
        return _mirrored(x, np.tanh)
    if kind.name == "sigmoid":
        arr = np.asarray(x, dtype=np.float64)
        with np.errstate(over="ignore"):
            out = 1.0 / (1.0 + np.exp(-arr))
        return float(out) if np.ndim(x) == 0 else out
    # identity: a float64 copy with bit-identical values
    arr = np.array(x, dtype=np.float64)
    return float(arr) if arr.ndim == 0 else arr


def apply_kind_inverse(v, kind: TransformKind):
    """Apply the inverse transform of ``kind`` elementwise."""
    if kind.name == "blt":
        return blt_inverse(v, kind.blt())
    if kind.name == "asinh":
        return _mirrored(v, np.sinh)
    if kind.name == "tanh":
        arr = np.asarray(v, dtype=np.float64)
        if np.any(np.abs(arr) >= 1.0 + CLAMP_MARGIN):
            worst = float(arr.ravel()[np.argmax(np.abs(arr.ravel()))])
            raise DomainError(f"value {worst!r} is beyond the invertible range of tanh")
        out = np.arctanh(np.clip(arr, -1.0 + CLAMP_MARGIN, 1.0 - CLAMP_MARGIN))
        return float(out) if np.ndim(v) == 0 else out
    if kind.name == "sigmoid":
        arr = np.asarray(v, dtype=np.float64)
        if np.any(arr <= -CLAMP_MARGIN) or np.any(arr >= 1.0 + CLAMP_MARGIN):
            worst = float(arr.ravel()[np.argmax(np.abs(arr.ravel() - 0.5))])
            raise DomainError(f"value {worst!r} is beyond the invertible range of sigmoid")
        clamped = np.clip(arr, CLAMP_MARGIN, 1.0 - CLAMP_MARGIN)
        out = np.log(clamped / (1.0 - clamped))
        return float(out) if np.ndim(v) == 0 else out
    arr = np.array(v, dtype=np.float64)
    return float(arr) if arr.ndim == 0 else arr
