"""Desk-scale synthetic experiments.

A small stack of residual blocks stands in for a real network: each block
computes ``x + W2 @ gelu(W1 @ x)`` with no biases, so zero input gives zero
output. One designated channel of every block's W2 is scaled up, which
gives the residual stream a structurally heavy-tailed channel; calibration
inputs additionally amplify that channel's coordinate on a seeded fraction
of rows. Outliers therefore arise from a genuine forward pass rather than
post-hoc edits, and the full-precision and quantized paths stay consistent.

The quantized forward fake-quantizes weights per output channel and the
activation stream per tensor at two sites per block (block input, hidden
activation), with activation ranges calibrated on the calibration inputs
of the same run. Pipelines fit one compensation module per block on the
uncompensated quantized stream and deploy it feeding forward.

Memory: each model has one per-block step, ``block_io``, which every
forward runs: calibration, the hold-out search, evaluation and the
quantized list form (``compensated_block_io``). A step runs its hidden
layer in row tiles of ``HIDDEN_TILE_ELEMENTS // h`` rows, at least
``MIN_TILE_ROWS`` (``_residual_step``): each tile's hidden activation is
computed in place in its ``z @ W1^T`` product, and its ``W2`` product goes
straight into its rows of the step's one output array, to which the
residual is then added in place. So no step holds a ``rows x h`` array,
whatever its row count. A quantized step writes its quantized input over
its input ``z``, so a caller that still reads ``z`` passes a copy, as the
list form does. Calibration runs each product once: one full-precision
loop calibrates the activation ranges, the hidden one from the extremes
of its tiles (``quantizer.range_params``), and keeps every block's
output; then the quantized steps run over all rows, each writing over its
input. Each block's quantized input is coded (``level_codes``) right after
its step and the float array let go, and its residual ``y - y_q`` is
written over its output. The calibration set keeps what the fits and the
search read, not the inputs: per block the residual and ``x_q`` as
``uint8`` codes into its level table, plus the last block's ``y`` (the
hold-out target, so the search runs no full-precision forward):
n_blocks + 1 float64 arrays of the stream's shape and n_blocks byte
arrays of it. A hold-out candidate runs every quantized step from block
0's input, gathered from its codes. The search caches nothing: each fit
slices its block's codes and residual to the fit rows and drops the
slices, and every fit, kept ones too, transforms the 2^bits_a levels and
gathers them by the codes, so no float ``x_q`` of the stream's shape is
made outside the hold-out forward's block 0 input and the slope-gap
channel pick; a kept fit's residual pass works in its prediction's one
array. Evaluation draws its inputs a chunk of ``EVAL_CHUNK_ROWS`` rows at
a time (``draw_input_chunks``) and runs each chunk through every block of
both forwards before it draws the next, so the streams and the
temporaries of a module's apply are chunk-sized and a step's hidden tile
is at most chunk-sized; the quantized input is written over the
compensated stream's input, in block 0 the chunk's inputs. Each block of
a chunk is scored at once by ``split_error_metrics``, which writes
``|y - y_hat|`` over the quantized input once its outlier flags are taken
and leaves only sums, so at its peak evaluation holds one chunk's arrays
and a hidden tile, never the whole evaluation set.

Conventions fixed here and relied on by the analyses:

* gelu is the tanh approximation 0.5*x*(1 + tanh(0.7978845608028654 *
  (x + 0.044715*x^3))); the two constants are frozen. The cube is
  computed as the product x*x*x (numpy's power is far slower), and the
  rest of the expression in that order on one tile-sized scratch array.
* seed derivation: the evaluation set (4x the calibration size, disjoint
  by construction) is drawn at the calibration seed + ``EVAL_SEED_OFFSET``.
  The other seeds are the caller's: a command-line run builds the model
  at its seed s, draws the calibration inputs at s + 1
  (``cli._build_setup``) and splits the hold-out at s + 2
  (``RunConfig.search_config``).
* the channel-pair for slope-gap analysis is the column of the last
  block's quantized input with maximal excess kurtosis, paired with the
  same output column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .compensation import (
    CalibrationRecord,
    CompensationModule,
    apply,
    fit_linear,
    fit_nbc,
    fit_nbc_levels,
)
from .errors import FitError
from .fls import FlsConfig, FlsResult, check_fit_rows, compute_feature_loss, search_n_for_pipeline
from .numerics import as_tensor, map_tiles
from .quantizer import (
    QuantParams,
    calibrate_params,
    fake_quantize,
    level_codes,
    level_table,
    quantize_per_channel,
    range_params,
    value_range,
)
from .transform import TransformKind, blt_forward

__all__ = [
    "GELU_TANH_COEFF",
    "GELU_TANH_CUBIC",
    "EVAL_SEED_OFFSET",
    "EVAL_SET_MULTIPLIER",
    "EVAL_CHUNK_ROWS",
    "MIN_TILE_ROWS",
    "HIDDEN_TILE_ELEMENTS",
    "MODES",
    "MODE_MAPS",
    "HEAVY_CHANNEL",
    "OUTLIER_THRESHOLD",
    "OutlierSpec",
    "ToyModel",
    "QuantizedToyModel",
    "CalibrationSet",
    "EvalReport",
    "gelu",
    "check_model_shape",
    "build_toy_model",
    "draw_inputs",
    "draw_input_chunks",
    "generate_calibration",
    "fit_compensation",
    "mode_of_modules",
    "search_exponent",
    "evaluate_pipeline",
    "scalar_slope",
    "slope_gap_analysis",
    "channel_slope_gap",
    "ols_scalar_bias",
    "split_error_metrics",
    "excess_kurtosis",
]

GELU_TANH_COEFF = 0.7978845608028654  # sqrt(2/pi)
GELU_TANH_CUBIC = 0.044715

# Gain on each block's update path; damped so the default stream stays
# comfortably inside the outlier threshold when no rows are amplified.
BLOCK_UPDATE_GAIN = 0.45

EVAL_SEED_OFFSET = 104729
EVAL_SET_MULTIPLIER = 4

# OpenBLAS gives a row slice of a product other bits than the whole product
# at some small row counts (up to 100 rows at the shapes measured, none from
# 128 on), so no row chunk or tile of a product is smaller than this.
MIN_TILE_ROWS = 128

# Rows per chunk of the evaluation forward, so that its streams and a
# module's temporaries are chunk-sized. The chunks fix the metrics' bits:
# each is a sum of per-chunk sums.
EVAL_CHUNK_ROWS = 1024

# Elements per row tile of a block step's hidden layer: 512 KiB of float64,
# a quarter of the core's 2 MiB L2 cache. A tile has HIDDEN_TILE_ELEMENTS // h
# rows, but never fewer than MIN_TILE_ROWS.
HIDDEN_TILE_ELEMENTS = 65_536

# mode -> the map its modules apply (none: no module), as the eval report names it
MODE_MAPS = {"none": "none", "linear": "identity", "nbc": "blt"}
MODES = tuple(MODE_MAPS)
_MODE_BY_MAP = {name: mode for mode, name in MODE_MAPS.items()}

# The structurally heavy channel. Another index would give a model equal in
# distribution up to a channel permutation, which per-tensor activation and
# per-row weight quantization do not see, so the seed covers what it varies.
HEAVY_CHANNEL = 0

# |activation| past which a position is an outlier: error metrics and slope gaps
OUTLIER_THRESHOLD = 10.0


def gelu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Smooth asymmetric activation (tanh-form gelu, constants frozen).

    Computed tile by tile into a new array; ``out``, if given, is ``x``,
    which is written over (see ``numerics.map_tiles``). The cube overflows
    for |x| > 5.6e102; tanh then saturates and gelu gives its limit, ``x``
    or -0.0, as it does from |x| of about 10 on, so the overflow is not
    reported.
    """
    with np.errstate(over="ignore"):
        return map_tiles(_gelu_tile, x, out)


def _gelu_tile(x: np.ndarray, out: np.ndarray) -> None:
    t = x * x
    t *= x
    t *= GELU_TANH_CUBIC
    t += x
    t *= GELU_TANH_COEFF
    np.tanh(t, out=t)
    t += 1.0
    np.multiply(0.5, x, out=out)  # x is read for the last time here
    out *= t


@dataclass(frozen=True)
class OutlierSpec:
    """How calibration data manufactures activation outliers.

    ``outlier_fraction`` of input rows get the heavy channel's coordinate
    multiplied by ``outlier_scale``; fraction 0 yields pure inlier data.
    The bounds of both are stated here only, for the run configuration too.
    Which positions count as outliers is ``OUTLIER_THRESHOLD``."""

    outlier_fraction: float = 0.1
    outlier_scale: float = 12.0

    def __post_init__(self):
        for key, ok, rule in (
            ("outlier_fraction", 0.0 <= self.outlier_fraction <= 0.2, "in [0, 0.2]"),
            ("outlier_scale", self.outlier_scale >= 1.0, ">= 1"),
        ):
            if not ok:
                raise ValueError(f"{key} must be {rule}, got {getattr(self, key)!r}")


@dataclass(frozen=True)
class ToyModel:
    """Stack of residual blocks with a structurally heavy channel; its one
    forward is the per-block step ``block_io``."""

    d: int
    h: int
    n_blocks: int
    w1: tuple[np.ndarray, ...]  # (h, d) per block
    w2: tuple[np.ndarray, ...]  # (d, h) per block

    def block_io(self, k: int, z: np.ndarray, on_hidden=None) -> np.ndarray:
        """Block ``k`` on its input ``z``: ``z + W2 @ gelu(W1 @ z)``.

        The hidden layer runs in row tiles (``_residual_step``), so the
        step holds no ``rows x h`` array; ``on_hidden`` sees the gelu output
        of each tile, in row order, and calibration takes the hidden range
        from their extremes.
        """

        def hidden(a):
            gelu(a, out=a)
            if on_hidden is not None:
                on_hidden(a)

        return _residual_step(z, self.w1[k], self.w2[k], hidden)


def _residual_step(z: np.ndarray, w1: np.ndarray, w2: np.ndarray, hidden) -> np.ndarray:
    """``z + W2 @ hidden(W1 @ z)``, the one residual step of both models,
    with ``hidden`` acting in place on its argument.

    The hidden layer runs in row tiles of ``HIDDEN_TILE_ELEMENTS // h`` rows,
    at least ``MIN_TILE_ROWS``, the remainder folded into the last tile
    (``_row_chunks``). Each tile's ``z @ W1^T`` product is the hidden
    activation, computed in place, and its ``W2`` product goes straight into
    its rows of the step's one output array, to which ``z`` is then added in
    place: no ``rows x h`` array is made. A row tile of a product has the
    bits of those rows of the whole product from ``MIN_TILE_ROWS`` on, so a
    step has the bits of the whole-array one.
    """
    h = w1.shape[0]
    out = np.empty((z.shape[0], w2.shape[0]))
    for r0, r1 in _row_chunks(z.shape[0], max(MIN_TILE_ROWS, HIDDEN_TILE_ELEMENTS // h)):
        a = z[r0:r1] @ w1.T
        hidden(a)
        np.matmul(a, w2.T, out=out[r0:r1])
    out += z  # the bits of z + out: IEEE addition commutes
    return out


def check_model_shape(d: int, h: int, n_blocks: int) -> None:
    """Raise ValueError naming the first argument out of its bounds; the
    bounds are stated here only, for the run configuration too."""
    for key, value in (("d", d), ("h", h), ("n_blocks", n_blocks)):
        if value < 1:
            raise ValueError(f"{key} must be >= 1, got {value!r}")


def build_toy_model(
    d: int,
    h: int,
    n_blocks: int,
    seed: int,
    *,
    heavy_scale: float = 1.3,
    heavy_input_scale: float = 3.0,
) -> ToyModel:
    """Draw block weights from a seeded zero-mean normal distribution.

    The weights of channel ``HEAVY_CHANNEL`` are scaled up on both sides of
    every block: its W2 row (fan-out) by ``heavy_scale`` and its W1 column
    (fan-in) by ``heavy_input_scale``. The first gives the residual stream a
    heavy-tailed channel; the second makes the hidden layer's response, and
    with it the weight-quantization error, grow with that channel's value.
    The two gains are the toy model's fixed values: no run configuration
    key sets them.
    """
    check_model_shape(d, h, n_blocks)
    rng = np.random.default_rng(seed)
    w1, w2 = [], []
    for _ in range(n_blocks):
        a = rng.normal(0.0, 1.0 / np.sqrt(d), size=(h, d))
        a[:, HEAVY_CHANNEL] *= heavy_input_scale
        b = rng.normal(0.0, BLOCK_UPDATE_GAIN / np.sqrt(h), size=(d, h))
        b[HEAVY_CHANNEL, :] *= heavy_scale
        w1.append(a)
        w2.append(b)
    return ToyModel(d=d, h=h, n_blocks=n_blocks, w1=tuple(w1), w2=tuple(w2))


@dataclass(frozen=True)
class QuantizedToyModel:
    """Fake-quantized twin of a ToyModel with frozen activation ranges;
    every forward runs its per-block step ``block_io``."""

    bits_w: int
    bits_a: int
    w1q: tuple[np.ndarray, ...]
    w2q: tuple[np.ndarray, ...]
    p_in: tuple[QuantParams, ...]
    p_hid: tuple[QuantParams, ...]

    def fake_quant(
        self, x: np.ndarray, p: QuantParams, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``x`` quantized to ``p``'s integer grid and mapped back, in one
        float64 pass (``quantizer.fake_quantize``); ``out``, if given, is ``x``."""
        return fake_quantize(x, p, out)

    def compensated_block_io(
        self, x, modules: Sequence[CompensationModule] | None = None
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Quantized forward, per block (dequantized input, output); with
        ``modules``, one per block, each block's compensation feeds forward.
        A module count other than the block count raises ValueError before
        any step runs."""
        _check_module_count(modules, len(self.w1q))
        z = as_tensor(x, "inputs", ndim=2)
        pairs = []
        for k in range(len(self.w1q)):
            # a copy: the step writes over it, and the caller's array or the
            # previous pair's output is still read
            zq, z = self.block_io(k, z.copy(), None if modules is None else modules[k])
            pairs.append((zq, z))
        return pairs

    def block_io(
        self, k: int, z: np.ndarray, module: CompensationModule | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Block ``k`` on its input ``z``; returns the dequantized input and
        the output, compensated by ``module`` if one is given.

        The dequantized input is written over ``z`` and returned as the
        first array, so a caller that still reads ``z`` passes a copy. A
        ``z`` that is not finite raises ValueError naming the block. The
        hidden layer runs in row tiles (``_residual_step``), each tile's gelu
        output fake-quantized in place; both maps are elementwise, so the
        tiles have the bits of the whole activation.
        """
        try:
            zq = self.fake_quant(z, self.p_in[k], out=z)
        except ValueError as exc:
            raise ValueError(f"block {k}: {exc}") from None
        out = _residual_step(
            zq, self.w1q[k], self.w2q[k],
            lambda a: self.fake_quant(gelu(a, out=a), self.p_hid[k], out=a),
        )
        if module is not None:
            out = apply(module, zq, out)
        return zq, out


def _check_module_count(modules: Sequence[CompensationModule] | None, n_blocks: int) -> None:
    """ValueError unless ``modules`` is None or holds one module per block."""
    if modules is not None and len(modules) != n_blocks:
        raise ValueError(f"got {len(modules)} modules for {n_blocks} blocks; each block takes one")


def draw_inputs(model: ToyModel, n_samples: int, spec: OutlierSpec, seed: int) -> np.ndarray:
    """Seeded standard-normal inputs with amplified heavy-channel rows.

    Amplified rows pin the heavy coordinate near the outlier magnitude
    (one-sided positive, 10% relative jitter), mirroring the two-population
    picture of channel outliers that cluster at a characteristic magnitude
    well above the inlier scale. The one-chunk case of ``draw_input_chunks``.
    """
    return next(draw_input_chunks(model, n_samples, spec, seed, [(0, n_samples)]))


def draw_input_chunks(
    model: ToyModel, n_samples: int, spec: OutlierSpec, seed: int, bounds: Sequence[tuple[int, int]]
) -> Iterator[np.ndarray]:
    """The rows ``[r0, r1)`` of ``draw_inputs(model, n_samples, spec, seed)``
    for each of ``bounds``, which tile ``[0, n_samples)`` in order, bit for
    bit, each a new array; no array of all rows is made.

    The seeded stream gives the normals of every row first, then the
    amplified rows and their jitter. So the rows and jitter are drawn by
    taking the stream past the normals a chunk at a time, and the stream is
    then rewound to generate each chunk's normals again and set its
    amplified rows; the first chunk is kept from the first pass. Without
    amplified rows the stream is not taken past the normals.
    """
    rng = np.random.default_rng(seed)
    # handed over by pop, so that nothing here holds a chunk it gave away
    first = [rng.standard_normal((bounds[0][1] - bounds[0][0], model.d))]
    rewind = rng.bit_generator.state
    rows, values = np.empty(0, dtype=np.intp), np.empty(0)
    n_out = int(np.floor(spec.outlier_fraction * n_samples))
    if n_out > 0:
        for r0, r1 in bounds[1:]:
            rng.standard_normal((r1 - r0, model.d))
        rows = rng.choice(n_samples, size=n_out, replace=False)
        values = spec.outlier_scale * (1.0 + 0.1 * rng.standard_normal(n_out))
        rng.bit_generator.state = rewind

    def chunk(i: int, r0: int, r1: int) -> np.ndarray:
        x = first.pop() if i == 0 else rng.standard_normal((r1 - r0, model.d))
        hit = (rows >= r0) & (rows < r1)
        x[rows[hit] - r0, HEAVY_CHANNEL] = values[hit]
        return x

    return (chunk(i, r0, r1) for i, (r0, r1) in enumerate(bounds))


@dataclass(frozen=True)
class CalibrationSet:
    """Everything one pass derives from the calibration inputs, which it does not keep.

    Each block's record holds its quantized input as ``uint8`` codes into
    its level table, and its residual. Besides the records, the set keeps
    ``y_last``, the last block's full-precision output for every row: the
    hold-out search's target.
    """

    records: tuple[CalibrationRecord, ...]  # one per block
    qmodel: QuantizedToyModel
    spec: OutlierSpec
    seed: int
    y_last: np.ndarray  # (T, d)

    @property
    def n_samples(self) -> int:
        return self.records[0].n_rows


def generate_calibration(
    model: ToyModel,
    n_samples: int,
    spec: OutlierSpec,
    seed: int,
    *,
    bits_w: int = 4,
    bits_a: int = 4,
) -> CalibrationSet:
    """Calibrate the quantized twin on seeded inputs and record per-block
    (x_q, y - y_q), with x_q as codes into its level table.

    Weights are quantized per output channel. One full-precision loop over
    ``ToyModel.block_io`` calibrates each block's input and hidden
    activation ranges per tensor and keeps each block's output ``y``. The
    step makes the hidden activation a row tile at a time, so its range is
    the least and greatest of its tiles' exact extremes, given to the one
    range rule (``quantizer.range_params``) that ``calibrate_params`` also
    applies: the parameters of the whole activation, with no ``rows x h``
    array made. A tile that is not finite raises ValueError, as the whole
    activation did. The ranges are then frozen, which is how deployment
    reuses calibration statistics on unseen data, and the quantized forward
    runs block by block (``QuantizedToyModel.block_io``) on all rows, giving
    ``x_q`` and ``y_q``. Each ``x_q`` is coded (``level_codes``, ``uint8``)
    as soon as its step returns, and only the codes and
    ``level_table(p_in[k])`` are kept. Each step writes its quantized input
    over its input. Each residual is written over its block's ``y``, except
    the last block's, whose ``y`` the set keeps as the hold-out target. Each
    forward runs once, and the set holds n_blocks + 1 float64 arrays and
    n_blocks byte arrays of the stream's shape.
    """
    w1q = tuple(quantize_per_channel(w, bits_w) for w in model.w1)
    w2q = tuple(quantize_per_channel(w, bits_w) for w in model.w2)
    p_in, p_hid, targets = [], [], []
    z = inputs = as_tensor(draw_inputs(model, n_samples, spec, seed), "inputs", ndim=2)
    for k in range(model.n_blocks):
        p_in.append(calibrate_params(z, bits_a))
        ranges = []  # (min, max) of each hidden tile
        z = model.block_io(k, z, lambda a: ranges.append(value_range(a)))
        lows, highs = zip(*ranges)
        p_hid.append(range_params(min(lows), max(highs), bits_a))
        targets.append(z)
    qmodel = QuantizedToyModel(
        bits_w=bits_w, bits_a=bits_a, w1q=w1q, w2q=w2q, p_in=tuple(p_in), p_hid=tuple(p_hid)
    )
    codes, residuals, z = [], [], inputs
    del inputs  # block 0 writes its quantized input over them, which is coded and let go
    for k, y in enumerate(targets):
        x_q, z = qmodel.block_io(k, z)
        codes.append(level_codes(x_q, qmodel.p_in[k]))
        del x_q  # held as its codes from here on
        if k < model.n_blocks - 1:
            residuals.append(np.subtract(y, z, out=y))  # z is checked as block k+1's input
    # the last block's outputs are no step's input: checked here, before any record
    y_last = as_tensor(targets[-1], "y")
    residuals.append(y_last - as_tensor(z, "y_q"))
    return CalibrationSet(
        records=tuple(
            CalibrationRecord(c, level_table(p), r) for c, p, r in zip(codes, p_in, residuals)
        ),
        qmodel=qmodel,
        spec=spec,
        seed=seed,
        y_last=y_last,
    )


class _RowSearchPipeline:
    """Adapts blockwise fitting to the hold-out search over sample rows.

    The search's rows are sorted ``intp`` index arrays into the calibration
    set (``fls.holdout_split``); it fits on the fit rows only and keeps no
    module, since ``fit_compensation`` fits the kept ones on every row. A
    candidate does only the work that depends on its exponent:

    * Fit: each block input is held as codes into its level table, so the
      fit transforms the levels only and gathers them by the fit rows'
      codes (``fit_nbc_levels``). Each fit slices its block's codes and
      residual to the fit rows and drops the slices, so the search keeps
      nothing of its own. A candidate's modules are scored and dropped, so
      its fits skip the residual pass. The fits run through ``_fit_blocks``,
      as the kept ones do, so a failing fit names its block.
    * Hold-out: the plain quantized forward of the hold-out rows. Block 0's
      quantized input is gathered from its codes (fake-quantizing a level
      gives the level back, so block 0's step sees what calibration's
      did); every block runs through ``block_io`` with the candidate's
      module, and the last output is scored against the last block's
      full-precision output, which the set holds for every row.
    """

    def __init__(self, calib: CalibrationSet):
        self.calib = calib

    def fit(self, rows: np.ndarray, n_exp: float) -> list[CompensationModule]:
        kind = TransformKind("blt", n_exp)
        return _fit_blocks(
            self.calib.records,
            lambda rec: fit_nbc_levels(rec.levels, rec.codes[rows], rec.residual[rows], kind),
        )

    def holdout_loss(self, fitted: list[CompensationModule], rows: np.ndarray) -> float:
        first = self.calib.records[0]
        z = first.levels[first.codes[rows]]
        for k, module in enumerate(fitted):
            _, z = self.calib.qmodel.block_io(k, z, module)
        return compute_feature_loss(self.calib.y_last[rows], z)


def _fit_blocks(records: Sequence[CalibrationRecord], fit) -> list[CompensationModule]:
    """``fit`` of every block's record; a failing fit raises a FitError naming the block."""
    modules = []
    for block, rec in enumerate(records):
        try:
            modules.append(fit(rec))
        except (ValueError, FitError) as exc:
            raise FitError(f"block {block}: {exc}") from None
    return modules


def _mode_map(mode: str, transform: str) -> str:
    """``MODE_MAPS[mode]``; ValueError names a bad mode, or a ``transform`` but blt."""
    if transform != "blt":  # bench/workloads.py still passes it
        raise ValueError(f"transform must be 'blt', got {transform!r}: the mode names the map")
    if mode not in MODE_MAPS:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return MODE_MAPS[mode]


def mode_of_modules(modules: Sequence[CompensationModule] | None) -> str:
    """The mode whose map ``modules`` apply: none without modules, else block
    0's. ValueError names the first block whose kind is not block 0's."""
    names = [mod.kind.name for mod in modules or ()] or ["none"]
    for block, name in enumerate(names):
        if name != names[0]:
            raise ValueError(f"block {block} is {name} but block 0 is {names[0]}; every block applies one map")
    return _MODE_BY_MAP[names[0]]


def fit_compensation(
    model: ToyModel,
    calib: CalibrationSet,
    mode: str,
    *,
    transform: str = "blt",
    cfg: FlsConfig,
) -> tuple[list[CompensationModule] | None, FlsResult | None]:
    """Fit per-block modules of the map ``mode`` names (``MODE_MAPS``).

    Returns ``(modules, search_result)``: None/None under none, and no
    search result under linear. ``cfg`` is required in every mode, so a
    run states its search, and its split seed, in one place
    (``RunConfig.search_config``). Under nbc ``search_exponent`` only
    scores candidates; the kept modules are fitted on every
    block's whole record at its chosen exponent. A kept fit that fails a
    check raises FitError naming the block.
    """
    name = _mode_map(mode, transform)
    if name == "none":
        return None, None
    if name == "identity":
        return _fit_blocks(calib.records, fit_linear), None
    result = search_exponent(model, calib, cfg)
    kind = TransformKind(name, result.chosen_n)
    return _fit_blocks(calib.records, lambda rec: fit_nbc(rec, kind)), result


def search_exponent(model: ToyModel, calib: CalibrationSet, cfg: FlsConfig) -> FlsResult:
    """The hold-out search for the ``blt`` exponent over the calibration
    rows, which fits no kept module. Too few fit rows raise ValueError
    before any fit (``fls.check_fit_rows``)."""
    check_fit_rows(calib.n_samples, model.d)
    return search_n_for_pipeline(calib.n_samples, cfg, _RowSearchPipeline(calib))


@dataclass(frozen=True)
class EvalReport:
    """Evaluation-set metrics of one pipeline run.

    The losses (mean squared errors, per block) and the two mean absolute
    errors are each their per-chunk sums (``split_error_metrics``) added
    exactly rounded, then divided by the count (``_mean_of_partials``).
    ``mae_outlier`` and ``mae_inlier`` are None when the respective
    partition is empty, ``chosen_n`` unless all modules carry one exponent;
    the slope gaps are None when the analysis channel has no outliers to
    compare against, or when a slope on it is undefined (a constant one).
    No value is inf or NaN: ``evaluate_pipeline`` raises ValueError naming such fields.
    """

    mode: str
    transform: str
    bits_w: int
    bits_a: int
    seed: int
    storage: str
    chosen_n: float | None
    feature_loss: float
    mae_outlier: float | None
    mae_inlier: float | None
    slope_gap_before: float | None
    slope_gap_after: float | None
    per_block_losses: tuple[float, ...]
    ridge_used: tuple[float | None, ...]
    residual_rms: tuple[float | None, ...]


def excess_kurtosis(x: np.ndarray) -> np.ndarray:
    """Columnwise excess kurtosis, m4 / m2^2 - 3.

    A column without spread (m2^2 is zero in float64, as for a constant
    column) has no kurtosis; it gets -inf, so it is never the maximal column.
    """
    arr = as_tensor(x, "x", ndim=2)
    squares = arr - arr.mean(axis=0)
    squares *= squares  # the bits of centered**2; squared again, not libm pow, for m4
    m2 = np.mean(squares, axis=0)
    squares *= squares
    m4 = np.mean(squares, axis=0)
    kurt = np.full(m2.shape, -np.inf)
    spread = m2 * m2 > 0.0
    kurt[spread] = m4[spread] / m2[spread] ** 2 - 3.0
    return kurt


def scalar_slope(x, r) -> float:
    """Scalar OLS slope of r on x, with an intercept."""
    xv = as_tensor(x, "x", ndim=1)
    rv = as_tensor(r, "r", ndim=1)
    if xv.shape != rv.shape:
        raise ValueError("x and r must have equal length")
    xc = xv - xv.mean()
    denom = float(np.sum(xc**2))
    if denom == 0.0:
        raise FitError("x is constant; slope with bias is undefined")
    return float(np.sum(xc * (rv - rv.mean())) / denom)


def slope_gap_analysis(x, r, n_exp: float) -> tuple[float, float] | None:
    """Outlier drag on one channel pair, before and after the transform.

    ``gap_before`` is |slope(all) - slope(inliers)| in the original space,
    ``gap_after`` the same computed on the pair mapped through the ``blt``
    map at exponent ``n_exp``; the partition uses |x| > ``OUTLIER_THRESHOLD``
    in the original space in both cases. None when one side of the
    partition is empty.
    """
    xv = as_tensor(x, "x", ndim=1)
    rv = as_tensor(r, "r", ndim=1)
    inlier = np.abs(xv) <= OUTLIER_THRESHOLD
    if inlier.all() or not inlier.any():
        return None
    kind = TransformKind("blt", n_exp)
    gap_before = abs(scalar_slope(xv, rv) - scalar_slope(xv[inlier], rv[inlier]))
    xf = blt_forward(xv, kind)
    rf = blt_forward(rv, kind)
    gap_after = abs(scalar_slope(xf, rf) - scalar_slope(xf[inlier], rf[inlier]))
    return gap_before, gap_after


def channel_slope_gap(
    rec: CalibrationRecord, n_exp: float
) -> tuple[int, float | None, float | None] | None:
    """``slope_gap_analysis`` of one block on its maximal-kurtosis channel.

    The pair is the column of ``rec.x_q`` with maximal excess kurtosis and
    the same column of the residual. Returns ``(channel, gap_before,
    gap_after)`` at the ``blt`` exponent ``n_exp``, with both gaps None when
    a slope on the channel is undefined (a constant partition), or None when
    the channel has no outliers or no inliers.
    """
    x_q = rec.x_q
    channel = int(np.argmax(excess_kurtosis(x_q)))
    try:
        gaps = slope_gap_analysis(x_q[:, channel], rec.residual[:, channel], n_exp)
    except FitError:  # a slope is undefined on this channel: report absent
        return channel, None, None
    return None if gaps is None else (channel, *gaps)


def ols_scalar_bias(
    k: int, n: int, big_m: float, small_m: float, r_out: float, r_in: float
) -> float:
    """Closed-form no-intercept OLS slope for a two-population channel.

    k samples sit at magnitude big_m with mean error r_out and n - k at
    magnitude small_m with mean error r_in; the returned slope

        (k*M*r_out + (n-k)*m*r_in) / (k*M^2 + (n-k)*m^2)

    shows how the squared-magnitude denominator lets the outlier group
    dominate the fit as M grows.
    """
    if not (n > k >= 0):
        raise ValueError(f"need n > k >= 0, got k={k}, n={n}")
    if not (big_m >= small_m > 0):
        raise ValueError(f"need big_m >= small_m > 0, got {big_m}, {small_m}")
    num = k * big_m * r_out + (n - k) * small_m * r_in
    den = k * big_m**2 + (n - k) * small_m**2
    return float(num / den)


def split_error_metrics(y, y_hat, x_q) -> tuple[float, float, float, int]:
    """(sum of e^2, sum of |e| over the outlier positions, sum of |e| over
    the inlier ones, outlier count) of the errors e = y - y_hat, where a
    position is an outlier when |x_q| exceeds ``OUTLIER_THRESHOLD``.

    The arrays must be finite and of one shape, or ValueError names the
    first that is not. |e| is written over ``x_q`` if it is a C-contiguous
    float64 array, as a quantized step's input is.
    """
    yv = as_tensor(y, "y")
    hv = as_tensor(y_hat, "y_hat")
    xv = as_tensor(x_q, "x_q")
    if yv.shape != hv.shape or yv.shape != xv.shape:
        raise ValueError("y, y_hat and x_q must share one shape")
    outlier = np.abs(xv, out=xv) > OUTLIER_THRESHOLD
    e = np.abs(np.subtract(yv, hv, out=xv), out=xv)
    square_sum = float(np.sum(e * e))  # |e| * |e| has the bits of (y - y_hat) ** 2
    n_outliers = int(np.count_nonzero(outlier))
    outlier_sum = float(np.sum(e[outlier]))
    inlier_sum = float(np.sum(e[np.logical_not(outlier, out=outlier)]))
    return square_sum, outlier_sum, inlier_sum, n_outliers


def _mean_of_partials(partials: Sequence[float], count: int) -> float | None:
    """Exactly rounded sum of nonnegative ``partials`` over ``count`` (None
    for none); a sum past the float maximum is inf, where fsum raises."""
    if not count:
        return None
    try:
        return math.fsum(partials) / count
    except OverflowError:
        return math.inf


def _row_chunks(n_rows: int, size: int) -> list[tuple[int, int]]:
    """``[r0, r1)`` bounds of ``size`` rows each, in order; the remainder
    joins the last chunk, and fewer rows make one chunk."""
    starts = list(range(0, n_rows - size + 1, size)) or [0]
    return list(zip(starts, starts[1:] + [n_rows]))


def evaluate_pipeline(
    model: ToyModel,
    calib: CalibrationSet,
    modules: Sequence[CompensationModule] | None,
    *,
    mode: str,
    transform: str = "blt",
    gap_reference_n: float = 2.0,
) -> EvalReport:
    """Score fitted modules on a fresh evaluation set.

    The evaluation set is four times the calibration size, drawn with an
    independent seed and the same outlier mechanism. It is drawn and run in
    row chunks (``_row_chunks``, ``draw_input_chunks``), with the bits of
    the whole draw: each chunk goes through every block of both forwards
    (the two models' ``block_io``) before the next one is drawn, and each
    block of a chunk leaves only the sums of ``split_error_metrics``. So
    the whole set is never held. The means are deterministic for a fixed
    ``EVAL_CHUNK_ROWS``, not whole-array means.

    Slope gaps use the calibration records of the last block (see
    ``channel_slope_gap``), at the last module's exponent, or
    ``gap_reference_n`` if it has none. ``chosen_n`` is the exponent all
    modules carry, None if they differ. The report's ``transform`` is the
    map ``mode`` names (``MODE_MAPS``); modules of another map, or a module
    count other than the block count, raise ValueError before the set is
    drawn. A chunk of inputs that is not finite raises ValueError naming
    the inputs, an output of either forward that is not finite raises
    ValueError naming its block, and a report value that is not (a loss
    whose sum overflows) raises ValueError naming its fields.
    """
    label = _mode_map(mode, transform)
    if (found := mode_of_modules(modules)) != mode:
        raise ValueError(f"mode {mode!r} applies {label}, the modules apply {MODE_MAPS[found]}")
    _check_module_count(modules, model.n_blocks)
    last_n = modules[-1].kind.n_exp if modules else None
    chosen_n = last_n if all(m.kind.n_exp == last_n for m in modules or ()) else None
    # before the inputs are drawn, so its temporaries do not add to theirs
    gap = channel_slope_gap(calib.records[-1], last_n if last_n is not None else gap_reference_n)
    gap_before, gap_after = gap[1:] if gap is not None else (None, None)

    n_rows = EVAL_SET_MULTIPLIER * calib.n_samples
    chunks = draw_input_chunks(model, n_rows, calib.spec, calib.seed + EVAL_SEED_OFFSET,
                               _row_chunks(n_rows, EVAL_CHUNK_ROWS))
    sums = []  # split_error_metrics of each chunk's blocks, chunk after chunk
    for z in chunks:
        z = zc = as_tensor(z, "inputs", ndim=2)  # no other name holds the chunk
        for k in range(model.n_blocks):
            z = model.block_io(k, z)
            # zc may be overwritten: in block 0 it is the chunk's inputs,
            # which the full-precision step has read by now
            zq, zc = calib.qmodel.block_io(k, zc, None if modules is None else modules[k])
            try:
                sums.append(split_error_metrics(z, zc, zq))
            except ValueError as exc:
                raise ValueError(f"block {k}: {exc}") from None
            del zq  # |y - y_hat| now; not held while the next block runs
    squares, outlier_sums, inlier_sums, counts = zip(*sums)
    # block k's chunk sums are every n_blocks-th entry from k on
    per_block = [_mean_of_partials(squares[k :: model.n_blocks], n_rows * model.d)
                 for k in range(model.n_blocks)]
    feature_loss = per_block[-1]  # the last block's output is the pre-head feature
    n_outliers = sum(counts)
    mae_out = _mean_of_partials(outlier_sums, n_outliers)
    mae_in = _mean_of_partials(inlier_sums, model.n_blocks * n_rows * model.d - n_outliers)

    report = EvalReport(
        mode=mode,
        transform=label,
        bits_w=calib.qmodel.bits_w,
        bits_a=calib.qmodel.bits_a,
        seed=calib.seed,
        storage=modules[0].storage if modules else "none",
        chosen_n=chosen_n,
        feature_loss=feature_loss,
        mae_outlier=mae_out,
        mae_inlier=mae_in,
        slope_gap_before=gap_before,
        slope_gap_after=gap_after,
        per_block_losses=tuple(per_block),
        ridge_used=tuple(m.ridge_used for m in modules) if modules else (),
        residual_rms=tuple(m.residual_rms for m in modules) if modules else (),
    )
    bad = [key for key, value in vars(report).items()
           if any(isinstance(v, float) and not math.isfinite(v) for v in np.ravel(value))]
    if bad:
        raise ValueError(f"{', '.join(bad)} not finite")
    return report
