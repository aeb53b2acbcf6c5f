"""Blockwise compensation of quantization error.

For a block with dequantized input x_q, full-precision output y and
quantized-path output y_q, the linear module corrects

    y_lin = y_q + W x_q + b

and the transformed module corrects

    y_nbc = y_q + f_inv(W f(x_q) + b)

with (W, b) fitted in closed form by least squares, on (x_q, y - y_q)
directly for the linear case and on (f(x_q), f(y - y_q)) for the
transformed case. x_q here is the dequantized real-valued block input, not
the integer codes, so the residual and the design live on the same scale.

Fitted parameters are narrowed for storage (``STORED_DTYPES``): f32 and
f16 round W and b; i8_per_channel stores W as symmetric int8 codes with
one f32 scale per output row (zero point 0, range +-max|row|) and the bias
in f16, since a d_out-sized vector is negligible storage. ``narrow`` is
the one cast to a stored dtype and the one check that a value survives
it, and ``stored_module`` the one builder of a module from stored
tensors; the bundle reader and writer and ``nbcq export`` use them too.
Narrowed modules decode their weights lazily on apply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitError
from .numerics import as_tensor, solve_coefficients, solve_least_squares
from .quantizer import round_half_away
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
    "fit_nbc_levels",
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

    ``x_q`` holds the dequantized block inputs seen by the quantized
    forward, ``y`` the full-precision block outputs and ``y_q`` the
    quantized-path block outputs, all on identical input samples.
    """

    x_q: np.ndarray  # (T, d_in)
    y: np.ndarray  # (T, d_out)
    y_q: np.ndarray  # (T, d_out)

    def __post_init__(self):
        object.__setattr__(self, "x_q", as_tensor(self.x_q, "x_q", ndim=2))
        object.__setattr__(self, "y", as_tensor(self.y, "y", ndim=2))
        object.__setattr__(self, "y_q", as_tensor(self.y_q, "y_q", ndim=2))
        if not (self.x_q.shape[0] == self.y.shape[0] == self.y_q.shape[0]):
            raise ValueError("x_q, y and y_q must have equal row counts")
        if self.y.shape != self.y_q.shape:
            raise ValueError("y and y_q must have equal shapes")

    @property
    def n_rows(self) -> int:
        return self.x_q.shape[0]

    @property
    def d_in(self) -> int:
        return self.x_q.shape[1]

    @property
    def residual(self) -> np.ndarray:
        return self.y - self.y_q


@dataclass(frozen=True)
class CompensationModule:
    """One block's fitted compensation. Immutable; apply never mutates it.

    Working-precision modules hold ``weight`` directly. Under int8 storage
    ``weight`` is None and the codes/scales pair reconstructs it on demand.
    ``ridge_used`` and ``residual_rms`` carry the fit metadata forward;
    a bundle does not store them, so modules read from one hold None.
    """

    kind: TransformKind
    bias: np.ndarray
    storage: str = STORAGE_F32
    weight: np.ndarray | None = None
    weight_codes: np.ndarray | None = None
    weight_scales: np.ndarray | None = None
    ridge_used: float | None = None
    residual_rms: float | None = None

    def __post_init__(self):
        if self.storage not in STORAGE_NAMES:
            raise ValueError(f"unknown storage {self.storage!r}")
        object.__setattr__(self, "bias", as_tensor(self.bias, "bias", ndim=1))
        if self.storage == STORAGE_I8:
            if self.weight_codes is None or self.weight_scales is None:
                raise ValueError("i8 storage requires weight codes and scales")
            codes = narrow(np.asarray(self.weight_codes), STORAGE_I8, "weight")
            scales = as_tensor(self.weight_scales, "weight_scales", ndim=1)
            if codes.ndim != 2 or scales.shape[0] != codes.shape[0]:
                raise ValueError("per-row scales must match the weight row count")
            if codes.shape[0] != self.bias.shape[0]:
                raise ValueError("weight rows must match bias length")
            object.__setattr__(self, "weight_codes", codes)
            object.__setattr__(self, "weight_scales", scales)
        else:
            if self.weight is None:
                raise ValueError(f"{self.storage} storage requires a weight matrix")
            w = as_tensor(self.weight, "weight", ndim=2)
            if w.shape[0] != self.bias.shape[0]:
                raise ValueError("weight rows must match bias length")
            object.__setattr__(self, "weight", w)

    @property
    def d_out(self) -> int:
        return self.bias.shape[0]

    @property
    def d_in(self) -> int:
        if self.storage == STORAGE_I8:
            return self.weight_codes.shape[1]
        return self.weight.shape[1]

    def effective_weight(self) -> np.ndarray:
        """Weight matrix in working precision, dequantized if stored as i8."""
        if self.storage == STORAGE_I8:
            return self.weight_codes.astype(np.float64) * self.weight_scales[:, None]
        return self.weight


def fit_nbc(rec: CalibrationRecord, kind: TransformKind) -> CompensationModule:
    """Fit compensation in the transformed space of ``kind``."""
    if rec.n_rows < rec.d_in + 1:
        raise FitError(
            f"calibration record has {rec.n_rows} rows; need at least {rec.d_in + 1}"
        )
    design = apply_kind_forward(rec.x_q, kind)
    targets = apply_kind_forward(rec.residual, kind)
    sol = solve_least_squares(design, targets)
    return CompensationModule(
        kind=kind,
        weight=sol.weight,
        bias=sol.bias,
        storage=STORAGE_F32,
        ridge_used=sol.ridge_used,
        residual_rms=sol.residual_rms,
    )


def fit_nbc_levels(
    levels: np.ndarray, codes: np.ndarray, residual: np.ndarray, kind: TransformKind
) -> CompensationModule:
    """``fit_nbc`` for a block input held as ``codes`` into a table of its
    ``levels``, without the residual pass; for candidate fits, which are
    scored and dropped.

    The map runs on the levels only and is gathered by the codes: it is
    elementwise, so ``f(levels)[codes]`` has the bits of
    ``f(levels[codes])``. Weight, bias and ``ridge_used`` are those of
    ``fit_nbc`` on the record with ``x_q = levels[codes]``, bit for bit;
    ``residual_rms`` is None.
    """
    n_rows, d_in = np.shape(codes)
    if n_rows < d_in + 1:
        raise FitError(f"calibration record has {n_rows} rows; need at least {d_in + 1}")
    design = apply_kind_forward(levels, kind)[codes]
    targets = apply_kind_forward(residual, kind)
    sol = solve_coefficients(design, targets)
    return CompensationModule(
        kind=kind, weight=sol.weight, bias=sol.bias, storage=STORAGE_F32, ridge_used=sol.ridge_used
    )


def fit_linear(rec: CalibrationRecord) -> CompensationModule:
    """Fit plain linear compensation on (x_q, y - y_q)."""
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
    w = mod.effective_weight()
    pred = apply_kind_forward(x, mod.kind) @ w.T
    pred += mod.bias
    out = apply_kind_inverse(pred, mod.kind)
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
    """The module whose stored tensors, by role, are ``tensors``;
    ``fit_metadata`` sets ``ridge_used`` and ``residual_rms``."""
    weight = {"weight": tensors["weight"]}
    if storage == STORAGE_I8:
        weight = {"weight_codes": tensors["weight"], "weight_scales": tensors["scales"]}
    return CompensationModule(kind=kind, bias=tensors["bias"], storage=storage, **weight, **fit_metadata)


def stored_tensors(mod: CompensationModule) -> dict[str, np.ndarray]:
    """The module's tensors by role, in bundle order, narrowed to their
    file dtypes."""
    wide = {"weight": mod.weight, "bias": mod.bias}
    if mod.storage == STORAGE_I8:
        wide = {"weight": mod.weight_codes, "bias": mod.bias, "scales": mod.weight_scales}
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
        wide["weight"] = np.clip(round_half_away(mod.weight / scales[:, None]), -127, 127)
        wide["scales"] = scales
    tensors = {role: narrow(wide[role], storage, role) for role in STORED_DTYPES[storage]}
    return stored_module(mod.kind, storage, tensors, ridge_used=mod.ridge_used,
                         residual_rms=mod.residual_rms)
