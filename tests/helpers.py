"""Independent oracles the tests check the library against, and the
desk-scale setup the tests run.

Each oracle deliberately takes a different computational route than the
code under test: the affine solver gets an SVD pseudo-inverse on the
augmented system, binary16 rounding goes through struct's half-precision
codec, the scalar no-intercept slope gets a grid scan refined by an exact
three-point parabola vertex, and the exponent search gets an exhaustive
walk of its grid.

The desk setup is the one ``nbcq`` builds from a run configuration, so the
tests run the steps the command runs: setup, fit, evaluate.
"""

from __future__ import annotations

import struct
from dataclasses import replace

import numpy as np

from nbcq.cli import _build_setup
from nbcq.compensation import STORAGE_F32, store_params
from nbcq.formats import RunConfig
from nbcq.harness import evaluate_pipeline, fit_compensation


def desk_setup(seed: int, **overrides):
    """``(model, calib, search_cfg)`` of ``nbcq`` run at ``seed`` on the
    default configuration (d=16, h=32, 4 blocks, 512 samples, W4A4) with
    the given ``RunConfig`` fields replaced."""
    return _build_setup(replace(RunConfig(), **overrides), seed)


def fit_and_evaluate(model, calib, mode, cfg, *, transform="blt", storage=STORAGE_F32):
    """Fit ``mode`` and score it as ``nbcq calibrate`` + ``eval`` do, with
    the modules narrowed to ``storage`` in memory. Returns the report and
    the search result (None when no search ran)."""
    modules, search = fit_compensation(model, calib, mode, transform=transform, cfg=cfg)
    if modules is not None and storage != STORAGE_F32:
        modules = [store_params(m, storage) for m in modules]
    report = evaluate_pipeline(
        model, calib, modules, mode=mode, transform=transform, gap_reference_n=cfg.n_init
    )
    return report, search


def pinv_affine_fit(design: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares (W, b) via SVD pseudo-inverse of the augmented design."""
    n = design.shape[0]
    aug = np.hstack([design, np.ones((n, 1))])
    coef = np.linalg.pinv(aug) @ targets
    return coef[:-1].T, coef[-1]


def f16_roundtrip_struct(value: float) -> float:
    """Round one float to binary16 and back using struct's half codec."""
    return struct.unpack("<e", struct.pack("<e", value))[0]


def brute_force_slope(x: np.ndarray, r: np.ndarray, grid_points: int = 4001) -> float:
    """Minimize sum (r_i - w x_i)^2 over w by grid scan plus parabola vertex.

    The objective is exactly quadratic in w, so the vertex of the parabola
    through the best grid point and its neighbors is the exact minimizer.
    """

    def sse(w: float) -> float:
        return float(np.sum((r - w * x) ** 2))

    bound = 1.0 + float(np.sum(np.abs(x * r)) / np.sum(x**2))
    grid = np.linspace(-bound, bound, grid_points)
    values = np.array([sse(w) for w in grid])
    i = int(np.clip(np.argmin(values), 1, grid_points - 2))
    w0, w1, w2 = grid[i - 1], grid[i], grid[i + 1]
    y0, y1, y2 = values[i - 1], values[i], values[i + 1]
    denom = (w1 - w0) * (y1 - y2) - (w1 - w2) * (y1 - y0)
    if denom == 0.0:
        return float(w1)
    vertex = w1 - 0.5 * ((w1 - w0) ** 2 * (y1 - y2) - (w1 - w2) ** 2 * (y1 - y0)) / denom
    return float(vertex)


def _grid(cfg) -> list[float]:
    """Every reachable grid point n_init + k * step inside [n_min, n_max]."""
    k = 0
    while cfg.n_init + k * cfg.step >= cfg.n_min:
        k -= 1
    lo = k + 1
    k = 0
    while cfg.n_init + k * cfg.step <= cfg.n_max:
        k += 1
    hi = k - 1
    return [cfg.n_init + k * cfg.step for k in range(lo, hi + 1)]


def grid_points(cfg) -> int:
    """How many grid points the search can reach: an upper bound on its evaluations."""
    return len(_grid(cfg))


def exhaustive_grid_minimum(cfg, loss) -> float:
    """Evaluate the loss on every reachable grid point and return the argmin."""
    best_n, best = None, np.inf
    for n in _grid(cfg):
        value = loss(n)
        if value < best:
            best, best_n = value, n
    return best_n
