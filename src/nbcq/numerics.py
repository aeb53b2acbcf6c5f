"""Dense float64 tensor helpers and the closed-form least-squares solver.

Everything downstream (quantization, compensation fitting, the synthetic
harness) funnels through these few primitives. Arrays are numpy float64 in
row-major order; reduced precision appears only at storage boundaries, which
keeps precision out of the picture when comparing fits against independent
oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitError

__all__ = [
    "LstsqSolution",
    "TILE_ELEMENTS",
    "as_tensor",
    "map_tiles",
    "solve_least_squares",
    "encode_f16_roundtrip",
    "RIDGE_FALLBACK_FACTOR",
]

# Factor for the automatic ridge retry when the normal equations are
# singular; scaled by trace(A^T A) / n_cols of the augmented design so it is
# invariant to the number of columns and the data magnitude.
RIDGE_FALLBACK_FACTOR = 1e-10

# Elements per tile of the elementwise kernels: 128 KiB of float64, so the
# few tile-sized temporaries of a kernel stay in the core's L2 cache
# instead of making full-size passes through memory.
TILE_ELEMENTS = 16384


def as_tensor(x, name: str = "tensor", ndim: int | None = None) -> np.ndarray:
    """Coerce to a finite, C-contiguous float64 array."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must have {ndim} dimension(s), got {arr.ndim}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


def map_tiles(kernel, x, out: np.ndarray | None = None) -> np.ndarray:
    """Apply an elementwise kernel to ``x`` in flat tiles; return ``out``.

    ``kernel(src, dst)`` is called on matching flat tiles of ``x`` (as a
    C-contiguous float64 array) and ``out``, and fills ``dst``. ``out``
    defaults to a new array; a given one must be a C-contiguous float64
    array of the shape of ``x``. It may be ``x`` itself, so a kernel reads
    all of ``src`` that it needs before it writes ``dst``, but must not
    overlap ``x`` otherwise. An elementwise kernel gives the same bits tile
    by tile as on the whole array.
    """
    arr = np.asarray(x, dtype=np.float64, order="C")
    if out is None:
        out = np.empty_like(arr)
    elif not (
        isinstance(out, np.ndarray)
        and out.dtype == np.float64
        and out.flags.c_contiguous
        and out.shape == arr.shape
    ):
        raise ValueError(f"out must be a C-contiguous float64 array of shape {arr.shape}")
    src = arr.reshape(-1)
    dst = out.reshape(-1)
    for start in range(0, src.size, TILE_ELEMENTS):
        stop = start + TILE_ELEMENTS
        kernel(src[start:stop], dst[start:stop])
    return out


@dataclass(frozen=True)
class LstsqSolution:
    """Affine least-squares fit ``targets ~ design @ weight.T + bias``.

    ``ridge_used`` records the effective penalty, which differs from the
    requested one only when the automatic singularity fallback engaged.
    """

    weight: np.ndarray  # (d_out, d_in)
    bias: np.ndarray  # (d_out,)
    residual_rms: float
    ridge_used: float


def solve_least_squares(design, targets, ridge: float = 0.0) -> LstsqSolution:
    """Minimize ``sum_i ||t_i - W d_i - b||^2 + ridge * ||W||_F^2``.

    The design matrix is augmented with a constant-1 column so the bias
    falls out of the same normal-equations solve; the ridge penalty skips
    that column. The system is solved by Cholesky factorization of the
    normal matrix. If factorization fails (rank-deficient design, e.g.
    duplicated channels), the solve is retried once with a small
    trace-scaled ridge added, and the effective value is recorded in
    ``ridge_used``.
    """
    d = as_tensor(design, "design", ndim=2)
    t = as_tensor(targets, "targets", ndim=2)
    n, p = d.shape
    if t.shape[0] != n:
        raise ValueError(f"design has {n} rows but targets has {t.shape[0]}")
    if ridge < 0:
        raise ValueError("ridge must be >= 0")
    if n < p + 1:
        raise FitError(f"need at least {p + 1} rows to fit {p} weights plus a bias, got {n}")

    aug = np.hstack([d, np.ones((n, 1))])
    gram = aug.T @ aug
    rhs = aug.T @ t
    penalty = np.ones(p + 1)
    penalty[p] = 0.0  # bias column is never penalized

    def attempt(lam: float) -> np.ndarray:
        chol = np.linalg.cholesky(gram + lam * np.diag(penalty))
        return np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))

    ridge_used = float(ridge)
    try:
        coef = attempt(ridge_used)
    except np.linalg.LinAlgError:
        ridge_used = float(ridge) + RIDGE_FALLBACK_FACTOR * float(np.trace(gram)) / (p + 1)
        try:
            coef = attempt(ridge_used)
        except np.linalg.LinAlgError:
            raise FitError("normal equations remain singular after the ridge fallback") from None

    weight = coef[:p].T.copy()
    bias = coef[p].copy()
    resid = t - aug @ coef
    return LstsqSolution(
        weight=weight,
        bias=bias,
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        ridge_used=ridge_used,
    )


def encode_f16_roundtrip(t) -> np.ndarray:
    """Round every value to its nearest IEEE binary16 value and widen back.

    Rounding is ties-to-even (the IEEE default). Values whose magnitude
    exceeds the largest finite binary16 value overflow; the first offending
    flat index is reported in the error.
    """
    arr = as_tensor(t, "tensor")
    with np.errstate(over="ignore"):
        narrowed = arr.astype(np.float16)
    overflow = ~np.isfinite(narrowed.astype(np.float64))
    if np.any(overflow):
        idx = int(np.flatnonzero(overflow.ravel())[0])
        raise ValueError(
            f"value {arr.ravel()[idx]!r} at flat index {idx} overflows binary16 storage"
        )
    return narrowed.astype(np.float64)
