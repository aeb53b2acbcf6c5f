"""Dense float64 tensor helpers and the one closed-form least-squares solver.

Everything downstream (quantization, compensation fitting, the synthetic
harness) funnels through these few primitives. ``solve_least_squares`` is
the one solver: every compensation fit, a search candidate's or a kept
one, calls it. Arrays are numpy float64 in row-major order; reduced
precision appears only at storage boundaries, which keeps precision out of
the picture when comparing fits against independent oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitError

__all__ = [
    "LstsqSolution",
    "TILE_ELEMENTS",
    "MIN_TILE_ROWS",
    "as_tensor",
    "map_tiles",
    "row_chunks",
    "solve_least_squares",
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

# OpenBLAS gives a row slice of a product other bits than the whole product
# at some small row counts (up to 100 rows at the shapes measured, none from
# 128 on), so no row chunk or tile of a product is smaller than this.
MIN_TILE_ROWS = 128


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
    C-contiguous float64 array) and ``out``, and fills ``dst``. ``out`` is
    None, for a new array, or ``x`` itself, a C-contiguous float64 array,
    to write over it; so a kernel reads all of ``src`` that it needs before
    it writes ``dst``. Any other ``out`` raises ValueError before a tile
    runs. An elementwise kernel gives the same bits tile by tile as on the
    whole array.
    """
    arr = np.asarray(x, dtype=np.float64, order="C")
    if out is None:
        out = np.empty_like(arr)
    elif out is not x or arr is not x:
        raise ValueError("out must be None or x itself, a C-contiguous float64 array")
    src = arr.reshape(-1)
    dst = out.reshape(-1)
    for start in range(0, src.size, TILE_ELEMENTS):
        stop = start + TILE_ELEMENTS
        kernel(src[start:stop], dst[start:stop])
    return out


def row_chunks(n_rows: int, size: int) -> list[tuple[int, int]]:
    """``[r0, r1)`` bounds of ``size`` rows each, in order; the remainder
    joins the last chunk, and fewer rows make one chunk."""
    starts = list(range(0, n_rows - size + 1, size)) or [0]
    return list(zip(starts, starts[1:] + [n_rows]))


@dataclass(frozen=True)
class LstsqSolution:
    """Affine least-squares fit ``targets ~ design @ weight.T + bias``.

    ``ridge_used`` records the effective penalty, which differs from the
    requested one only when the automatic singularity fallback engaged.
    """

    weight: np.ndarray  # (d_out, d_in)
    bias: np.ndarray  # (d_out,)
    ridge_used: float


def solve_least_squares(design, targets, ridge: float = 0.0) -> LstsqSolution:
    """Minimize ``sum_i ||t_i - W d_i - b||^2 + ridge * ||W||_F^2``.

    ``design`` is the augmented design: the p inputs of each row in its
    first p columns and a last column of ones, so the bias falls out of the
    same normal-equations solve; the ridge penalty skips that column. A
    last column that is not all ones raises ValueError. The caller builds
    the augmented array once (``compensation.fit_nbc`` gathers its inputs
    into it), so the solve copies no rows x p array. The system is solved
    by Cholesky factorization of the normal matrix. If factorization fails
    (rank-deficient design, e.g. duplicated channels), the solve is retried
    once with a small trace-scaled ridge added, and the effective value is
    recorded in ``ridge_used``.

    The solve makes no residual pass: it would cost about as much as the
    solve itself, and the search's candidate fits, which are scored and
    dropped, do not need one. The kept fits take their own
    (``compensation.fit_nbc``).
    """
    aug = as_tensor(design, "design", ndim=2)
    t = as_tensor(targets, "targets", ndim=2)
    n, p = aug.shape[0], aug.shape[1] - 1
    if t.shape[0] != n:
        raise ValueError(f"design has {n} rows but targets has {t.shape[0]}")
    if p < 0 or not (aug[:, p] == 1.0).all():
        raise ValueError("design must end in a column of ones, the bias column")
    if ridge < 0:
        raise ValueError("ridge must be >= 0")
    if n < p + 1:
        raise FitError(f"need at least {p + 1} rows to fit {p} weights plus a bias, got {n}")

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
    return LstsqSolution(weight=coef[:p].T.copy(), bias=coef[p].copy(), ridge_used=ridge_used)
