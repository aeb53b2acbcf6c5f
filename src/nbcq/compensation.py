"""Blockwise compensation of quantization error.

For a block with dequantized input x_q, full-precision output y and
quantized-path output y_q, the linear module corrects

    y_lin = y_q + W x_q + b

and the transformed module corrects

    y_nbc = y_q + f_inv(W f(x_q) + b)

with (W, b) fitted in closed form by least squares, on (x_q, y - y_q)
directly for the linear case and on (f(x_q), f(y - y_q)) for the
transformed case. x_q here is the dequantized real-valued block input, so
the residual and the design live on the same scale. A fit reads only these
two, so a ``CalibrationRecord`` holds the residual y - y_q, computed once,
and x_q as integer codes into a table of its levels: a per-tensor
quantized x_q takes one of 2^bits values. Every fit builds its design as
``f(levels)[codes]``, so the map runs on the levels, not on rows x d
inputs; it is elementwise, so that has the bits of ``f(x_q)``. The design
is gathered a row chunk at a time into the first columns of one array
whose last column is ones, which the solver takes whole
(``numerics.solve_least_squares``), so a fit holds that array and its
targets and no other rows x d copy. One function fits, ``fit_nbc``: a kept
fit reads every row, a search candidate only the rows it is given. The
targets are the residual mapped in place in the fit's own copy (a
candidate's is its rows' slice), so no fit writes over a record. A kept
fit's residual pass subtracts the prediction from its targets in row
chunks of at least ``numerics.MIN_TILE_ROWS`` rows, which keep the bits of
the whole product, and ``apply`` inverts its prediction in place.

Fitted parameters are narrowed for storage (``STORED_DTYPES``): f32 and
f16 round W and b; i8_per_channel stores W as symmetric int8 codes with
one f32 scale per output row (zero point 0, range +-max|row|) and the bias
in f16, since a d_out-sized vector is negligible storage. ``narrow`` is
the one cast to a stored dtype and the one check that a value survives
it, and ``stored_module`` the one builder of a module from stored
tensors; the bundle reader and writer and ``nbcq export`` use them too.
A module holds one float64 weight under every storage; i8 adds its scales.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import MIN_TILE_ROWS, TILE_ELEMENTS, as_tensor, row_chunks, solve_least_squares
from .quantizer import grid_round
from .transform import IDENTITY, TransformKind, apply_kind_forward, apply_kind_inverse

__all__ = [
    "STORAGE_F32",
    "STORAGE_F16",
    "STORAGE_I8",
    "STORAGE_NAMES",
    "STORED_DTYPES",
    "I8_SCALE_FLOOR",
    "CalibrationRecord",
    "CompensationModule",
    "fit_linear",
    "fit_nbc",
    "apply",
    "narrow",
    "stored_module",
    "stored_tensors",
    "store_params",
]

STORAGE_F32 = "f32"
STORAGE_F16 = "f16"
STORAGE_I8 = "i8_per_channel"
# storage -> {role: file dtype}, in bundle order
STORED_DTYPES = {
    STORAGE_F32: {"weight": "<f4", "bias": "<f4"},
    STORAGE_F16: {"weight": "<f2", "bias": "<f2"},
    STORAGE_I8: {"weight": "<i1", "bias": "<f2", "scales": "<f4"},
}
STORAGE_NAMES = tuple(STORED_DTYPES)

# Keeps all-zero weight rows encodable under symmetric int8 storage. Pinned
# to an f32-exact value so stored scales survive serialization unchanged.
I8_SCALE_FLOOR = float(np.float32(1e-12))


@dataclass(frozen=True)
class CalibrationRecord:
    """Per-block calibration data: rows are samples, aligned across fields.

    The dequantized block input ``x_q`` seen by the quantized forward is
    held only as ``codes``, integers into ``levels``, from which a reader
    gathers the rows or column it needs; calibration stores the codes as
    ``uint8``, since a per-tensor quantized input has at most 2^8 levels.
    ``residual`` is the quantization error ``y - y_q`` of the block outputs,
    full-precision minus quantized-path, on identical input samples. The
    outputs themselves are not kept.
    """

    codes: np.ndarray  # (T, d_in), integers in [0, len(levels))
    levels: np.ndarray  # (L,)
    residual: np.ndarray  # (T, d_out)

    def __post_init__(self):
        codes = np.ascontiguousarray(self.codes)
        if codes.ndim != 2 or codes.dtype.kind not in "iu":
            raise ValueError(
                f"codes must be a 2-dimensional integer array, got {codes.ndim}-d {codes.dtype}"
            )
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "levels", as_tensor(self.levels, "levels", ndim=1))
        object.__setattr__(self, "residual", as_tensor(self.residual, "residual", ndim=2))
        if codes.size and (codes.min() < 0 or codes.max() >= self.levels.size):
            raise ValueError(f"codes must be in [0, {self.levels.size}), the indices of the levels")
        if codes.shape[0] != self.residual.shape[0]:
            raise ValueError("codes and residual must have equal row counts")

    @property
    def n_rows(self) -> int:
        return self.codes.shape[0]


@dataclass(frozen=True)
class CompensationModule:
    """One block's fitted compensation. Immutable; apply never mutates it.

    ``weight`` is the float64 matrix ``apply`` multiplies by, under every
    storage; under int8 storage it is decoded once and ``scales`` holds the
    stored per-row scales, so the codes are ``weight / scales[:, None]``
    exactly. ``ridge_used`` and ``residual_rms`` carry the fit metadata
    forward. Every fit sets ``ridge_used``; only a kept fit (``fit_nbc``
    without ``rows``, ``fit_linear``) takes the residual pass that sets
    ``residual_rms``, so it is None after a candidate fit. A bundle stores
    neither, so modules read from one hold None for both.
    """

    kind: TransformKind
    weight: np.ndarray
    bias: np.ndarray
    storage: str = STORAGE_F32
    scales: np.ndarray | None = None
    ridge_used: float | None = None
    residual_rms: float | None = None

    def __post_init__(self):
        if self.storage not in STORAGE_NAMES:
            raise ValueError(f"unknown storage {self.storage!r}")
        object.__setattr__(self, "bias", as_tensor(self.bias, "bias", ndim=1))
        object.__setattr__(self, "weight", as_tensor(self.weight, "weight", ndim=2))
        if self.weight.shape[0] != self.bias.shape[0]:
            raise ValueError("weight rows must match bias length")
        if self.storage == STORAGE_I8:
            scales = np.asarray(self.scales, dtype=np.float64)
            if scales.shape != self.bias.shape:
                raise ValueError("per-row scales must match the weight row count")
            if not np.all((scales > 0) & np.isfinite(scales)):
                raise ValueError("scales must be finite and > 0")
            object.__setattr__(self, "scales", scales)
            narrow(self.weight / scales[:, None], STORAGE_I8, "weight")  # each an int8 code times its row's scale
        elif self.scales is not None:
            raise ValueError(f"{self.storage} storage stores no scales")

    @property
    def d_out(self) -> int:
        return self.bias.shape[0]

    @property
    def d_in(self) -> int:
        return self.weight.shape[1]


def fit_nbc(
    rec: CalibrationRecord, kind: TransformKind, rows: np.ndarray | None = None
) -> CompensationModule:
    """Fit compensation in the transformed space of ``kind``, on the design
    ``f(levels)[codes]`` with a last column of ones, the map run on the
    levels only; it is elementwise, so this has the bits of
    ``f(levels[codes])``. The solve rejects fewer than d_in + 1 rows
    (FitError). The record is left as it is: the fit maps a copy of its
    residual into the targets.

    Without ``rows`` this is a kept fit: the module's ``residual_rms`` is
    the RMS of ``f(residual) - (design @ W^T + b)``, the prediction
    ``apply`` makes before the inverse. With ``rows``, a sorted index array,
    it is a search candidate, fitted on those rows only, which is scored
    and dropped: it skips the residual pass, so ``residual_rms`` is None.
    Weight, bias and ``ridge_used`` on every row are those of the kept fit
    bit for bit.
    """
    if rows is None:
        codes, residual = rec.codes, rec.residual.copy()
    else:
        codes, residual = rec.codes[rows], rec.residual[rows]
    targets = apply_kind_forward(residual, kind, out=residual)
    n, d = codes.shape
    chunks = row_chunks(n, max(MIN_TILE_ROWS, TILE_ELEMENTS // max(d, 1)))
    design = _augmented_design(apply_kind_forward(rec.levels, kind), codes, chunks)
    sol = solve_least_squares(design, targets)
    residual_rms = None
    if rows is None:
        # targets - (design @ W^T + b), a row chunk at a time, each chunk of
        # the product with the bits of its rows of the whole one
        inputs = design[:, :-1]
        for r0, r1 in chunks:
            pred = inputs[r0:r1] @ sol.weight.T
            pred += sol.bias
            np.subtract(targets[r0:r1], pred, out=targets[r0:r1])
        targets *= targets  # the bits of resid**2
        residual_rms = float(np.sqrt(np.mean(targets)))
    return CompensationModule(kind=kind, weight=sol.weight, bias=sol.bias, storage=STORAGE_F32,
                              ridge_used=sol.ridge_used, residual_rms=residual_rms)


def _augmented_design(mapped_levels: np.ndarray, codes: np.ndarray, chunks) -> np.ndarray:
    """``mapped_levels[codes]`` in the first columns of one new array whose
    last column is ones, gathered a row chunk at a time; each chunk's codes
    are cast to ``intp``, which numpy gathers faster than narrower indices,
    so no rows x d index array is made."""
    n, d = codes.shape
    design = np.empty((n, d + 1))
    design[:, d] = 1.0
    for r0, r1 in chunks:
        design[r0:r1, :d] = mapped_levels[codes[r0:r1].astype(np.intp)]
    return design


def fit_linear(rec: CalibrationRecord) -> CompensationModule:
    """Fit plain linear compensation on (x_q, residual), with x_q gathered
    from the levels as every fit's design is."""
    return fit_nbc(rec, IDENTITY)


def apply(mod: CompensationModule, x_q, y_q) -> np.ndarray:
    """Return ``y_q + f_inv(W f(x_q) + b)`` for the module's transform."""
    x = as_tensor(x_q, "x_q", ndim=2)
    yq = as_tensor(y_q, "y_q", ndim=2)
    if x.shape[1] != mod.d_in:
        raise ValueError(f"x_q has {x.shape[1]} columns, module expects {mod.d_in}")
    if yq.shape[1] != mod.d_out:
        raise ValueError(f"y_q has {yq.shape[1]} columns, module expects {mod.d_out}")
    if x.shape[0] != yq.shape[0]:
        raise ValueError("x_q and y_q must have equal row counts")
    pred = apply_kind_forward(x, mod.kind) @ mod.weight.T
    pred += mod.bias
    out = apply_kind_inverse(pred, mod.kind, out=pred)
    out += yq  # IEEE addition commutes: the bits of yq + out
    return out


def narrow(values: np.ndarray, storage: str, role: str) -> np.ndarray:
    """``values`` cast to the file dtype of ``role`` under ``storage``; a
    value that dtype cannot hold raises ValueError naming the role, the
    storage and its flat index. A float dtype rounds, so only a value
    beyond its range fails; an integer dtype holds only the integers in
    its range, which the cast must keep exactly."""
    dtype = np.dtype(STORED_DTYPES[storage][role])
    with np.errstate(over="ignore", invalid="ignore"):
        out = values.astype(dtype)
        bad = ~np.isfinite(out) if dtype.kind == "f" else out != values
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        fails = "overflows" if dtype.kind == "f" else "does not fit"
        raise ValueError(
            f"{role} value {float(values.flat[i])!r} at flat index {i} {fails} "
            f"{storage} storage ({dtype.name})"
        )
    return out


def stored_module(kind: TransformKind, storage: str, tensors: dict, **fit_metadata) -> CompensationModule:
    """The module whose stored tensors, by role, are ``tensors`` (an int8
    weight decoded); ``fit_metadata`` sets ``ridge_used`` and ``residual_rms``."""
    weight, scales = tensors["weight"], None
    if storage == STORAGE_I8:  # shapes checked before the decode can broadcast them
        scales = tensors["scales"].astype(np.float64)
        if weight.ndim != 2 or scales.shape != weight.shape[:1]:
            raise ValueError("per-row scales must match the weight row count")
        weight = weight.astype(np.float64) * scales[:, None]
    return CompensationModule(kind=kind, weight=weight, bias=tensors["bias"], storage=storage,
                              scales=scales, **fit_metadata)


def stored_tensors(mod: CompensationModule) -> dict[str, np.ndarray]:
    """The module's tensors by role, in bundle order, narrowed to their
    file dtypes; an int8 weight is encoded back to its codes."""
    wide = {"weight": mod.weight, "bias": mod.bias, "scales": mod.scales}
    if mod.storage == STORAGE_I8:
        wide["weight"] = mod.weight / mod.scales[:, None]
    return {role: narrow(wide[role], mod.storage, role) for role in STORED_DTYPES[mod.storage]}


def store_params(mod: CompensationModule, storage: str) -> CompensationModule:
    """Narrow a working-precision module's parameters to ``storage``; a
    value beyond the range of its stored dtype raises ValueError."""
    if mod.storage != STORAGE_F32:
        raise ValueError(f"module is already stored as {mod.storage}")
    if storage not in STORAGE_NAMES:
        raise ValueError(f"unknown storage precision {storage!r}")
    wide = {"weight": mod.weight, "bias": mod.bias}
    if storage == STORAGE_I8:
        # codes quantize against the scales storage will reproduce
        scales = narrow(np.abs(mod.weight).max(axis=1) / 127.0, storage, "scales")
        scales = np.maximum(scales.astype(np.float64), I8_SCALE_FLOOR)
        wide["weight"] = grid_round(mod.weight, scales[:, None], -127, 127)
        wide["scales"] = scales
    tensors = {role: narrow(wide[role], storage, role) for role in STORED_DTYPES[storage]}
    return stored_module(mod.kind, storage, tensors, ridge_used=mod.ridge_used,
                         residual_rms=mod.residual_rms)
