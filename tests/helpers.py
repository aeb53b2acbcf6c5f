"""Independent oracles the tests check the library against, the
desk-scale setup the tests run, and corrupt files for the readers.

Each oracle deliberately takes a different computational route than the
code under test: the affine solver gets an SVD pseudo-inverse on the
augmented system, fake quantization goes through int64 codes and a
separate dequantize step, binary16 and binary32 rounding go through
struct's codecs, the scalar no-intercept slope gets a grid scan
refined by an exact three-point parabola vertex, and the exponent search
gets an exhaustive walk of its grid and, for its visit order and stop
rule, a walk driven by a FIFO queue. The blockwise training loss scores
each block's module on its own calibration record, apart from the
forward that deploys the modules. The reference search runs each exponent
candidate the direct way: ``fit_nbc`` on every block's sliced record, and
the whole compensated forward of the hold-out inputs, drawn again, each
block a whole-array step (``whole_q_step``), not the library's, on
weights quantized a row at a time from the full-precision ones
(``row_by_row_quantized``), not from the model's weight codes. The
streamed input draw and the row-tiled block steps get whole-array twins:
one draw of every row, and one step over every row that makes the whole
hidden activation.

The desk setup is the one ``nbcq`` builds from a run configuration, so the
tests run the steps the command runs: setup, fit, evaluate.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import replace

import numpy as np

from nbcq.cli import RunConfig, _build_setup
from nbcq.compensation import STORAGE_F32, CalibrationRecord, apply, fit_nbc, store_params
from nbcq.errors import EvaluatorError, FitError
from nbcq.fls import compute_feature_loss, search_n_for_pipeline
from nbcq.harness import HEAVY_CHANNEL, evaluate_pipeline, fit_compensation, gelu
from nbcq.quantizer import fake_quantize, range_params, value_range
from nbcq.transform import TransformKind


def desk_setup(seed: int, **overrides):
    """``(model, calib, search_cfg)`` of ``nbcq`` run at ``seed`` on the
    default configuration (d=16, h=32, 4 blocks, 512 samples, W4A4) with
    the given ``RunConfig`` fields replaced."""
    return _build_setup(replace(RunConfig(), seed=seed, **overrides))


def fit_and_evaluate(model, calib, mode, cfg, *, storage=STORAGE_F32):
    """Fit ``mode`` and score it as ``nbcq calibrate`` + ``eval`` do, with
    the modules narrowed to ``storage`` in memory. Returns the report and
    the search result (None when no search ran)."""
    modules, search = fit_compensation(model, calib, mode, cfg=cfg)
    if modules is not None and storage != STORAGE_F32:
        modules = [store_params(m, storage) for m in modules]
    report = evaluate_pipeline(model, calib, modules, mode=mode, gap_reference_n=cfg.n_init)
    return report, search


def fp_block_io(model, x) -> list[tuple[np.ndarray, np.ndarray]]:
    """The full-precision forward of ``x`` as per block (input, output),
    one ``ToyModel.block_io`` step per block."""
    pairs, z = [], np.asarray(x, dtype=np.float64)
    for k in range(model.n_blocks):
        pairs.append((z, model.block_io(k, z)))
        z = pairs[-1][1]
    return pairs


def whole_draw(model, n_samples, spec, seed) -> np.ndarray:
    """``harness.draw_inputs`` as one array of every row, drawn in the
    stream's order: all normals, then the amplified rows and their jitter."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_samples, model.d))
    n_out = int(np.floor(spec.outlier_fraction * n_samples))
    if n_out > 0:
        rows = rng.choice(n_samples, size=n_out, replace=False)
        x[rows, HEAVY_CHANNEL] = spec.outlier_scale * (1.0 + 0.1 * rng.standard_normal(n_out))
    return x


def whole_hidden(w1, z, hidden=gelu) -> np.ndarray:
    """The hidden activation ``hidden(z @ W1^T)`` of every row, one array."""
    return hidden(z @ w1.T)


def whole_fp_step(model, k, z) -> np.ndarray:
    """``ToyModel.block_io`` over every row at once: ``z + W2 @ gelu(W1 @ z)``."""
    return z + whole_hidden(model.w1[k], z) @ model.w2[k].T


def row_by_row_quantized(w, bits) -> np.ndarray:
    """``w`` quantized per output row by a loop over its rows, each
    ``fake_quantize(row, range_params(*value_range(row), bits))``."""
    w = np.asarray(w, dtype=np.float64)
    rows = [fake_quantize(row, range_params(*value_range(row), bits)) for row in w]
    return np.array(rows).reshape(w.shape)


def whole_q_step(model, qmodel, k, z, module=None) -> tuple[np.ndarray, np.ndarray]:
    """``QuantizedToyModel.block_io`` over every row at once, leaving ``z``
    as it is: the dequantized input and the output, compensated by
    ``module``. The weights are ``model``'s, quantized row by row
    (``row_by_row_quantized``) at ``qmodel.bits_w``."""
    w1q, w2q = (row_by_row_quantized(w[k], qmodel.bits_w) for w in (model.w1, model.w2))
    zq = fake_quantize(z, qmodel.p_in[k])
    a = whole_hidden(w1q, zq, lambda t: fake_quantize(gelu(t), qmodel.p_hid[k]))
    out = zq + a @ w2q.T
    return zq, out if module is None else apply(module, zq, out)


def record_of(x_q, residual) -> CalibrationRecord:
    """The record of a block input ``x_q`` of any values and its
    ``residual``: the codes index the distinct bit patterns of ``x_q``
    (``np.unique``), so ``levels[codes]`` is ``x_q`` bit for bit, which is
    asserted."""
    x_q = np.ascontiguousarray(x_q, dtype=np.float64)
    bits, codes = np.unique(x_q.view(np.int64), return_inverse=True)
    rec = CalibrationRecord(codes.reshape(x_q.shape), bits.view(np.float64), residual)
    assert rec.levels[rec.codes].tobytes() == x_q.tobytes()
    return rec


def training_fit_loss(records, modules) -> float:
    """Blockwise feature loss of compensated outputs on the fitting records,
    scored as ``(residual - correction)^2``.

    With ``modules`` None this is the uncompensated loss; since the zero
    module is always feasible, a fitted linear module can never exceed it.
    """
    total = 0.0
    for i, rec in enumerate(records):
        # the correction alone: the module's output over a zero y_q
        zero = np.zeros_like(rec.residual)
        correction = zero if modules is None else apply(modules[i], rec.levels[rec.codes], zero)
        total += compute_feature_loss(rec.residual, correction)
    return total / len(records)


class _ReferenceRowSearch:
    """Search pipeline over calibration rows that fits and scores each
    candidate in full (see :func:`reference_search`)."""

    def __init__(self, model, calib, inputs):
        self.model = model
        self.calib = calib
        self.inputs = inputs

    def fit(self, rows, n_exp):
        kind = TransformKind("blt", n_exp)
        return [
            fit_nbc(record_of(rec.levels[rec.codes[rows]], rec.residual[rows]), kind)
            for rec in self.calib.records
        ]

    def holdout_loss(self, fitted, rows):
        z = self.inputs[rows]
        for k, module in enumerate(fitted):
            _, z = whole_q_step(self.model, self.calib.qmodel, k, z, module)
        return compute_feature_loss(self.calib.y_last[rows], z)


def reference_search(model, calib, cfg):
    """``(modules, result)`` of the blt exponent search on ``calib`` with
    every candidate run in full: each block fitted by ``fit_nbc`` on its
    record sliced to the fit rows, the hold-out rows of the calibration
    inputs of ``model`` run through every block's ``whole_q_step`` with its
    module and scored against the recorded targets, then ``fit_nbc`` on
    every row at the chosen exponent."""
    inputs = whole_draw(model, calib.n_samples, calib.spec, calib.seed)
    result = search_n_for_pipeline(calib.n_samples, cfg, _ReferenceRowSearch(model, calib, inputs))
    kind = TransformKind("blt", result.chosen_n)
    return [fit_nbc(rec, kind) for rec in calib.records], result


def oversized_tensor_header() -> bytes:
    """A tensor record header whose extents declare far more payload than
    any test file holds: 2^16 x 2^17 f32 elements, 32 GiB."""
    return b"NBCT" + bytes([1, 0, 2, 0]) + struct.pack("<QQ", 1 << 16, 1 << 17)


def one_block_bundle(weight_record: bytes) -> bytes:
    """The bytes of a one-block bundle (identity kind, f32 storage) up to
    and including its weight record, ``weight_record``."""
    block = struct.pack("<H", 0) + bytes([0]) + struct.pack("<d", 0.0) + bytes([0])
    return b"NBCB" + bytes([1]) + struct.pack("<H", 1) + block + weight_record


def oversized_bundle_bytes() -> bytes:
    """A 60-byte one-block bundle whose weight header declares an
    ``oversized_tensor_header`` payload."""
    data = one_block_bundle(oversized_tensor_header())
    return data + bytes(60 - len(data))


def deep_tensor_record() -> bytes:
    """An f32 tensor record of rank 65, every extent 1, with its 4-byte
    payload: deeper than numpy builds an array (64 under numpy 2, 32 under 1)."""
    return b"NBCT" + bytes([1, 0, 65, 0]) + struct.pack("<Q", 1) * 65 + bytes(4)


def pinv_affine_fit(design: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares (W, b) via SVD pseudo-inverse of the augmented design."""
    n = design.shape[0]
    aug = np.hstack([design, np.ones((n, 1))])
    coef = np.linalg.pinv(aug) @ targets
    return coef[:-1].T, coef[-1]


def integer_codes(x, p) -> np.ndarray:
    """Quantize ``x`` to int64 codes with the parameters ``p``, rounding
    halves away from zero and clipping to ``[0, 2^bits - 1]``."""
    t = np.asarray(x, dtype=np.float64) / p.scale
    rounded = np.where(t >= 0, np.floor(t + 0.5), np.ceil(t - 0.5))
    return np.clip(rounded + p.zero_point, 0, 2**p.bits - 1).astype(np.int64)


def integer_round_trip(x, p) -> np.ndarray:
    """``integer_codes`` of ``x`` mapped back to ``scale * (code - zero_point)``."""
    return p.scale * (integer_codes(x, p) - p.zero_point).astype(np.float64)


def f16_roundtrip_struct(value: float) -> float:
    """Round one float to binary16 and back using struct's half codec."""
    return struct.unpack("<e", struct.pack("<e", value))[0]


def f32_roundtrip_struct(value: float) -> float:
    """Round one float to binary32 and back using struct's single codec."""
    return struct.unpack("<f", struct.pack("<f", value))[0]


def brute_force_slope(x: np.ndarray, r: np.ndarray, grid_points: int = 4001) -> float:
    """Minimize sum (r_i - w x_i)^2 over w by grid scan plus parabola vertex.

    The objective is exactly quadratic in w, so the vertex of the parabola
    through the best grid point and its neighbors is the exact minimizer.
    """
    bound = 1.0 + float(np.sum(np.abs(x * r)) / np.sum(x**2))
    grid = np.linspace(-bound, bound, grid_points)
    # one row of residuals per grid point, summed along the row
    values = np.sum((r[None, :] - grid[:, None] * x[None, :]) ** 2, axis=1)
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


def queue_walk_search(cfg, evaluator) -> tuple[float, dict[float, float]]:
    """``(chosen_n, history)`` of the exponent search run as a FIFO queue
    walk, the oracle of ``fls.fls_search``'s visit order and stop rule.

    The queue is seeded with offsets 0, +1 and -1 (those inside the
    bounds); dequeuing k > 0 enqueues k + 1 and dequeuing k < 0 enqueues
    k - 1, while inside the bounds and until a local minimum is certified.
    After each evaluation the point one step back toward 0 is checked
    (from k > 1 and from k < 0); once one is certified, nothing more is
    enqueued but what is queued is still evaluated. Failures and the
    choice follow ``fls_search``'s contract.
    """
    def n_of(k: int) -> float:
        return cfg.n_init + k * cfg.step

    losses: dict[int, float] = {}
    history: dict[float, float] = {}
    queue: deque[int] = deque()
    found_local_min = False

    queue.append(0)
    if n_of(1) <= cfg.n_max:
        queue.append(1)
    if n_of(-1) >= cfg.n_min:
        queue.append(-1)

    def is_local_min(k: int) -> bool:
        return (
            k in losses
            and k - 1 in losses
            and k + 1 in losses
            and losses[k] < losses[k - 1]
            and losses[k] < losses[k + 1]
        )

    while queue:
        k = queue.popleft()
        n = n_of(k)
        try:
            loss = float(evaluator(n))
        except (ValueError, FitError) as exc:
            raise EvaluatorError(f"evaluator failed at n_exp={n!r}: {exc}") from exc
        losses[k] = loss
        history[n] = loss

        if k > 1 and is_local_min(k - 1):
            found_local_min = True
        if k < 0 and is_local_min(k + 1):
            found_local_min = True

        if not found_local_min:
            if k > 0 and n_of(k + 1) <= cfg.n_max:
                queue.append(k + 1)
            elif k < 0 and n_of(k - 1) >= cfg.n_min:
                queue.append(k - 1)

    chosen = None
    best = np.inf
    for n, loss in history.items():
        if loss < best:
            best = loss
            chosen = n
    if chosen is None:
        raise EvaluatorError(
            f"no candidate scored a finite loss: {len(history)} scored, "
            f"n_exp in [{min(history)!r}, {max(history)!r}]"
        )
    return chosen, history
