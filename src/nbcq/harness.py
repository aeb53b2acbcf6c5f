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

Memory: both forwards yield one block at a time. Evaluation runs the
full-precision and the compensated forward in lockstep and keeps only the
current block's arrays, its loss, and its errors (the inlier errors in one
buffer, in the order a concatenation of all blocks would give). gelu and
fake-quant take an ``out=`` array, which may be their input itself; each
forward computes the hidden activation in place in the fresh ``z @ W1^T``
product. Any other ``out=`` must not overlap the input, since the kernels
run tile by tile.

Conventions fixed here and relied on by the analyses:

* gelu is the tanh approximation 0.5*x*(1 + tanh(0.7978845608028654 *
  (x + 0.044715*x^3))); the two constants are frozen. The cube is
  computed as the product x*x*x (numpy's power is far slower), and the
  rest of the expression in that order on one tile-sized scratch array.
* seed derivation: a pipeline seed s builds the model at s, draws
  calibration inputs at s + 1, splits the hold-out at s + 2 and draws the
  evaluation set (4x the calibration size, disjoint by construction) at
  calibration seed + 104729.
* the channel-pair for slope-gap analysis is the column of the last
  block's quantized input with maximal excess kurtosis, paired with the
  same output column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .compensation import (
    CalibrationRecord,
    CompensationModule,
    apply,
    fit_linear,
    fit_nbc,
)
from .errors import FitError
from .fls import (
    FlsConfig,
    FlsResult,
    compute_feature_loss,
    holdout_count,
    search_n_for_pipeline,
)
from .numerics import as_tensor, map_tiles
from .quantizer import QuantParams, calibrate_params, dequantize, fake_quantize, quantize_per_channel
from .transform import TransformKind, blt_forward

__all__ = [
    "GELU_TANH_COEFF",
    "GELU_TANH_CUBIC",
    "EVAL_SEED_OFFSET",
    "EVAL_SET_MULTIPLIER",
    "MODES",
    "OutlierSpec",
    "ToyModel",
    "QuantizedToyModel",
    "CalibrationSet",
    "EvalReport",
    "gelu",
    "build_toy_model",
    "draw_inputs",
    "generate_calibration",
    "fit_compensation",
    "evaluate_pipeline",
    "training_fit_loss",
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

MODES = ("none", "linear", "nbc")


def gelu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Smooth asymmetric activation (tanh-form gelu, constants frozen).

    Computed tile by tile; the result goes to ``out`` if given, which may
    be ``x`` itself (see ``numerics.map_tiles``).
    """
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
    ``threshold`` is the absolute activation value past which a position
    counts as an outlier in the error metrics.
    """

    outlier_fraction: float = 0.1
    outlier_scale: float = 12.0
    threshold: float = 10.0

    def __post_init__(self):
        if not 0.0 <= self.outlier_fraction <= 0.2:
            raise ValueError("outlier_fraction must be in [0, 0.2]")
        if not self.outlier_scale >= 1.0:
            raise ValueError("outlier_scale must be >= 1")
        if not self.threshold > 0:
            raise ValueError("threshold must be > 0")


@dataclass(frozen=True)
class ToyModel:
    """Stack of residual blocks with a structurally heavy channel."""

    d: int
    h: int
    n_blocks: int
    seed: int
    heavy_channel: int
    heavy_scale: float
    heavy_input_scale: float
    w1: tuple[np.ndarray, ...]  # (h, d) per block
    w2: tuple[np.ndarray, ...]  # (d, h) per block

    def block_io(self, x) -> list[tuple[np.ndarray, np.ndarray]]:
        """Full-precision forward; per block (input, output) of the stream."""
        return list(self._block_io(x))

    def _block_io(self, x, on_hidden=None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield the pairs of ``block_io`` one block at a time; ``on_hidden``
        sees each gelu output."""
        z = as_tensor(x, "inputs", ndim=2)
        for w1, w2 in zip(self.w1, self.w2):
            a = z @ w1.T
            gelu(a, out=a)
            if on_hidden is not None:
                on_hidden(a)
            out = z + a @ w2.T
            del a  # not kept while the generator waits
            yield z, out
            z = out

    def forward(self, x) -> np.ndarray:
        """Pre-head features: the output of the last block."""
        return self.block_io(x)[-1][1]


def build_toy_model(
    d: int,
    h: int,
    n_blocks: int,
    seed: int,
    *,
    heavy_channel: int = 0,
    heavy_scale: float = 1.0,
    heavy_input_scale: float = 1.0,
) -> ToyModel:
    """Draw block weights from a seeded zero-mean normal distribution.

    The heavy channel's weights are scaled up on both sides of every block:
    its W2 row (fan-out) by ``heavy_scale`` and its W1 column (fan-in) by
    ``heavy_input_scale``. The first gives the residual stream a
    heavy-tailed channel; the second makes the hidden layer's response, and
    with it the weight-quantization error, grow with that channel's value.
    """
    if min(d, h, n_blocks) < 1:
        raise ValueError("d, h and n_blocks must all be >= 1")
    if not 0 <= heavy_channel < d:
        raise ValueError(f"heavy_channel {heavy_channel} outside [0, {d})")
    rng = np.random.default_rng(seed)
    w1, w2 = [], []
    for _ in range(n_blocks):
        a = rng.normal(0.0, 1.0 / np.sqrt(d), size=(h, d))
        a[:, heavy_channel] *= heavy_input_scale
        b = rng.normal(0.0, BLOCK_UPDATE_GAIN / np.sqrt(h), size=(d, h))
        b[heavy_channel, :] *= heavy_scale
        w1.append(a)
        w2.append(b)
    return ToyModel(
        d=d,
        h=h,
        n_blocks=n_blocks,
        seed=seed,
        heavy_channel=heavy_channel,
        heavy_scale=float(heavy_scale),
        heavy_input_scale=float(heavy_input_scale),
        w1=tuple(w1),
        w2=tuple(w2),
    )


@dataclass(frozen=True)
class QuantizedToyModel:
    """Fake-quantized twin of a ToyModel with frozen activation ranges."""

    bits_w: int
    bits_a: int
    w1q: tuple[np.ndarray, ...]
    w2q: tuple[np.ndarray, ...]
    p_in: tuple[QuantParams, ...]
    p_hid: tuple[QuantParams, ...]

    def fake_quant(
        self, x: np.ndarray, p: QuantParams, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``dequantize(quantize(x, p))``, fused into one float64 pass."""
        return fake_quantize(x, p, out)

    def block_io(self, x) -> list[tuple[np.ndarray, np.ndarray]]:
        """Quantized forward; per block (dequantized input, output)."""
        return list(self._block_io(x, None))

    def compensated_block_io(
        self, x, modules: Sequence[CompensationModule] | None
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Quantized forward with per-block compensation feeding forward."""
        return list(self._block_io(x, modules))

    def _block_io(
        self, x, modules: Sequence[CompensationModule] | None
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield the pairs of ``compensated_block_io`` one block at a time."""
        z = as_tensor(x, "inputs", ndim=2)
        for k in range(len(self.w1q)):
            zq = self.fake_quant(z, self.p_in[k])
            a = zq @ self.w1q[k].T
            self.fake_quant(gelu(a, out=a), self.p_hid[k], out=a)
            out = zq + a @ self.w2q[k].T
            del a  # not kept while the generator waits
            if modules is not None:
                out = apply(modules[k], zq, out)
            yield zq, out
            z = out

    def forward(self, x, modules: Sequence[CompensationModule] | None = None) -> np.ndarray:
        return self.compensated_block_io(x, modules)[-1][1]


def _quantize_model(
    model: ToyModel, bits_w: int, bits_a: int, x: np.ndarray
) -> tuple[QuantizedToyModel, list[tuple[np.ndarray, np.ndarray]]]:
    """Quantize weights per channel and calibrate activation params per
    tensor on the full-precision stream of ``x``, then freeze them, which is
    how deployment reuses calibration statistics on unseen data. Also
    returns the ``block_io`` pairs of that calibration forward."""
    w1q = tuple(dequantize(quantize_per_channel(w, bits_w)) for w in model.w1)
    w2q = tuple(dequantize(quantize_per_channel(w, bits_w)) for w in model.w2)
    p_hid = []
    fp_io = list(model._block_io(x, lambda a: p_hid.append(calibrate_params(a, bits_a))))
    qmodel = QuantizedToyModel(
        bits_w=bits_w,
        bits_a=bits_a,
        w1q=w1q,
        w2q=w2q,
        p_in=tuple(calibrate_params(z, bits_a) for z, _ in fp_io),
        p_hid=tuple(p_hid),
    )
    return qmodel, fp_io


def draw_inputs(model: ToyModel, n_samples: int, spec: OutlierSpec, seed: int) -> np.ndarray:
    """Seeded standard-normal inputs with amplified heavy-channel rows.

    Amplified rows pin the heavy coordinate near the outlier magnitude
    (one-sided positive, 10% relative jitter), mirroring the two-population
    picture of channel outliers that cluster at a characteristic magnitude
    well above the inlier scale.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_samples, model.d))
    n_out = int(np.floor(spec.outlier_fraction * n_samples))
    if n_out > 0:
        rows = rng.choice(n_samples, size=n_out, replace=False)
        x[rows, model.heavy_channel] = spec.outlier_scale * (
            1.0 + 0.1 * rng.standard_normal(n_out)
        )
    return x


@dataclass(frozen=True)
class CalibrationSet:
    """Calibration inputs plus everything derived from them in one pass."""

    inputs: np.ndarray
    records: tuple[CalibrationRecord, ...]  # one per block
    qmodel: QuantizedToyModel
    spec: OutlierSpec
    seed: int

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]


def generate_calibration(
    model: ToyModel,
    n_samples: int,
    spec: OutlierSpec,
    seed: int,
    *,
    bits_w: int = 4,
    bits_a: int = 4,
) -> CalibrationSet:
    """Run both forwards on seeded inputs and record per-block (x_q, y, y_q).

    The full-precision outputs come from the forward that calibrates the
    activation ranges; each forward runs once.
    """
    if n_samples < model.d + 2:
        raise ValueError(f"need at least d + 2 = {model.d + 2} samples, got {n_samples}")
    inputs = draw_inputs(model, n_samples, spec, seed)
    qmodel, fp_io = _quantize_model(model, bits_w, bits_a, inputs)
    q_io = qmodel.block_io(inputs)
    records = tuple(
        CalibrationRecord(x_q=q_in, y=fp_out, y_q=q_out)
        for (_, fp_out), (q_in, q_out) in zip(fp_io, q_io)
    )
    return CalibrationSet(inputs=inputs, records=records, qmodel=qmodel, spec=spec, seed=seed)


class _RowSearchPipeline:
    """Adapts blockwise fitting to the hold-out search over sample rows.

    The search's record units are row indices into the calibration set;
    fitting slices every block's record to those rows, and the hold-out
    loss runs the compensated forward on the matching input rows. Neither
    the sliced records nor the full-precision features of the hold-out
    rows depend on the candidate, so each is computed once and kept for
    the rows it was computed on.
    """

    def __init__(self, model: ToyModel, calib: CalibrationSet, ridge: float):
        self.model = model
        self.calib = calib
        self.ridge = ridge
        self._fit_rows: np.ndarray | None = None
        self._fit_records: list[CalibrationRecord] | None = None
        self._holdout_rows: np.ndarray | None = None
        self._holdout_full: np.ndarray | None = None

    def fit(self, records: Sequence[int], n_exp: float) -> list[CompensationModule]:
        rows = np.asarray(list(records), dtype=np.intp)
        if self._fit_rows is None or not np.array_equal(rows, self._fit_rows):
            self._fit_records = None  # let the old slices go before the new ones are made
            self._fit_rows = rows
            if np.array_equal(rows, np.arange(self.calib.n_samples)):
                self._fit_records = list(self.calib.records)
            else:
                self._fit_records = [rec.rows(rows) for rec in self.calib.records]
        kind = TransformKind("blt", n_exp)
        return [fit_nbc(rec, kind, self.ridge) for rec in self._fit_records]

    def holdout_loss(self, fitted: list[CompensationModule], records: Sequence[int]) -> float:
        rows = np.asarray(list(records), dtype=np.intp)
        x = self.calib.inputs[rows]
        if self._holdout_rows is None or not np.array_equal(rows, self._holdout_rows):
            self._holdout_rows = rows
            self._holdout_full = self.model.forward(x)
        comp = self.calib.qmodel.forward(x, fitted)
        return compute_feature_loss(self._holdout_full, comp)


def fit_compensation(
    model: ToyModel,
    calib: CalibrationSet,
    mode: str,
    *,
    transform: str = "blt",
    cfg: FlsConfig | None = None,
    ridge: float = 0.0,
) -> tuple[list[CompensationModule] | None, FlsResult | None]:
    """Fit per-block modules for ``mode``; search the exponent for blt.

    Returns ``(modules, search_result)``; both are None/None for mode
    "none" and the search result is None whenever no search ran.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "none":
        return None, None
    if mode == "linear":
        return [fit_linear(rec, ridge) for rec in calib.records], None
    if transform == "blt":
        cfg = cfg if cfg is not None else FlsConfig(seed=calib.seed + 1)
        n = calib.n_samples
        fit_rows = n - holdout_count(n, cfg.holdout_fraction)
        if fit_rows < model.d + 1:
            raise ValueError(
                f"the search fits on {fit_rows} of n_samples={n} rows at "
                f"holdout_fraction={cfg.holdout_fraction}; it needs at least d + 1 = {model.d + 1}"
            )
        pipeline = _RowSearchPipeline(model, calib, ridge)
        return search_n_for_pipeline(list(range(calib.n_samples)), cfg, pipeline)
    kind = TransformKind(transform)
    return [fit_nbc(rec, kind, ridge) for rec in calib.records], None


@dataclass(frozen=True)
class EvalReport:
    """Evaluation-set metrics of one pipeline run.

    ``mae_outlier`` and ``mae_inlier`` are None when the respective
    partition is empty; the slope gaps are None when the analysis channel
    has no outliers to compare against, or when a slope on it is undefined
    (a constant partition).
    """

    mode: str
    transform: str
    bits_w: int
    bits_a: int
    seed: int
    storage: str
    chosen_n: float | None
    fls_evaluations: int | None
    feature_loss: float
    mae_outlier: float | None
    mae_inlier: float | None
    slope_gap_before: float | None
    slope_gap_after: float | None
    per_block_losses: tuple[float, ...]
    ridge_used: tuple[float | None, ...] = field(default=())
    residual_rms: tuple[float | None, ...] = field(default=())


def excess_kurtosis(x: np.ndarray) -> np.ndarray:
    """Columnwise excess kurtosis, m4 / m2^2 - 3.

    A column without spread (m2^2 is zero in float64, as for a constant
    column) has no kurtosis; it gets -inf, so it is never the maximal column.
    """
    arr = as_tensor(x, "x", ndim=2)
    centered = arr - arr.mean(axis=0)
    m2 = np.mean(centered**2, axis=0)
    m4 = np.mean(centered**4, axis=0)
    kurt = np.full(m2.shape, -np.inf)
    spread = m2 * m2 > 0.0
    kurt[spread] = m4[spread] / m2[spread] ** 2 - 3.0
    return kurt


def scalar_slope(x, r, *, fit_bias: bool = True) -> float:
    """Scalar OLS slope of r on x, with or without an intercept."""
    xv = as_tensor(x, "x", ndim=1)
    rv = as_tensor(r, "r", ndim=1)
    if xv.shape != rv.shape:
        raise ValueError("x and r must have equal length")
    if fit_bias:
        xc = xv - xv.mean()
        denom = float(np.sum(xc**2))
        if denom == 0.0:
            raise FitError("x is constant; slope with bias is undefined")
        return float(np.sum(xc * (rv - rv.mean())) / denom)
    denom = float(np.sum(xv**2))
    if denom == 0.0:
        raise FitError("x is identically zero; slope is undefined")
    return float(np.sum(xv * rv) / denom)


def slope_gap_analysis(
    x, r, threshold: float, kind: TransformKind, *, fit_bias: bool = True
) -> tuple[float, float]:
    """Outlier drag on one channel pair, before and after the transform.

    ``gap_before`` is |slope(all) - slope(inliers)| in the original space,
    ``gap_after`` the same computed on the pair mapped through the ``blt``
    kind; the partition uses |x| > threshold in the original space in both
    cases.
    """
    xv = as_tensor(x, "x", ndim=1)
    rv = as_tensor(r, "r", ndim=1)
    inlier = np.abs(xv) <= threshold
    if not inlier.any():
        raise ValueError("no inliers under the threshold")
    if inlier.all():
        raise ValueError("no outliers above the threshold")
    gap_before = abs(
        scalar_slope(xv, rv, fit_bias=fit_bias)
        - scalar_slope(xv[inlier], rv[inlier], fit_bias=fit_bias)
    )
    xf = blt_forward(xv, kind)
    rf = blt_forward(rv, kind)
    gap_after = abs(
        scalar_slope(xf, rf, fit_bias=fit_bias)
        - scalar_slope(xf[inlier], rf[inlier], fit_bias=fit_bias)
    )
    return gap_before, gap_after


def channel_slope_gap(
    rec: CalibrationRecord, threshold: float, n_exp: float
) -> tuple[int, float | None, float | None] | None:
    """``slope_gap_analysis`` of one block on its maximal-kurtosis channel.

    The pair is the column of ``rec.x_q`` with maximal excess kurtosis and
    the same column of the residual. Returns ``(channel, gap_before,
    gap_after)`` at the ``blt`` exponent ``n_exp``, with both gaps None when
    a slope on the channel is undefined (a constant partition), or None when
    the channel has no outliers or no inliers under ``threshold``.
    """
    channel = int(np.argmax(excess_kurtosis(rec.x_q)))
    xs = rec.x_q[:, channel]
    outliers = np.abs(xs) > threshold
    if not outliers.any() or outliers.all():
        return None
    kind = TransformKind("blt", n_exp)
    try:
        return (channel, *slope_gap_analysis(xs, rec.residual[:, channel], threshold, kind))
    except FitError:  # a slope is undefined on this channel: report absent
        return channel, None, None


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


def split_error_metrics(
    y, y_hat, x_q, threshold: float
) -> tuple[float | None, float | None]:
    """Mean |y - y_hat| over outlier and inlier positions of x_q.

    A position is an outlier when |x_q| exceeds the threshold. An empty
    partition reports None for its metric rather than zero.
    """
    errors = _SplitErrors(threshold, np.size(y))
    errors.add(y, y_hat, x_q)
    return errors.means()


class _SplitErrors:
    """``split_error_metrics`` over blocks that arrive one at a time.

    The blocks are scored as their concatenation along the first axis would
    be: the inlier errors go into one buffer of ``capacity`` elements in
    flat order, so their mean sums the same values in the same order; the
    few outlier errors are joined at the end.
    """

    def __init__(self, threshold: float, capacity: int):
        self.threshold = threshold
        self._inliers = np.empty(capacity)
        self._n_inliers = 0
        self._outliers: list[np.ndarray] = []

    def add(self, y, y_hat, x_q) -> None:
        yv = as_tensor(y, "y")
        hv = as_tensor(y_hat, "y_hat")
        xv = as_tensor(x_q, "x_q")
        if yv.shape != hv.shape or yv.shape != xv.shape:
            raise ValueError("y, y_hat and x_q must share one shape")
        err = np.subtract(yv, hv)
        np.abs(err, out=err)
        outlier = np.abs(xv) > self.threshold
        self._outliers.append(err[outlier])
        inliers = err[~outlier]
        stop = self._n_inliers + inliers.size
        self._inliers[self._n_inliers:stop] = inliers
        self._n_inliers = stop

    def means(self) -> tuple[float | None, float | None]:
        outliers = np.concatenate(self._outliers)
        mae_out = float(outliers.mean()) if outliers.size else None
        mae_in = float(self._inliers[: self._n_inliers].mean()) if self._n_inliers else None
        return mae_out, mae_in


def training_fit_loss(
    records: Sequence[CalibrationRecord],
    modules: Sequence[CompensationModule] | None,
) -> float:
    """Blockwise feature loss of compensated outputs on the fitting records.

    With ``modules`` None this is the uncompensated loss; since the zero
    module is always feasible, a fitted linear module can never exceed it.
    """
    total = 0.0
    for i, rec in enumerate(records):
        out = rec.y_q if modules is None else apply(modules[i], rec.x_q, rec.y_q)
        total += compute_feature_loss(rec.y, out)
    return total / len(records)


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
    independent seed and the same outlier mechanism; it is scored one block
    at a time, with the same bits as scoring all blocks at once. Slope gaps use the
    calibration records of the last block (see ``channel_slope_gap``), at
    the last module's exponent, or ``gap_reference_n`` if it has none.
    ``chosen_n`` is the last module's exponent; ``fls_evaluations`` is None,
    since modules do not record the search that chose them.
    """
    chosen_n = modules[-1].kind.n_exp if modules else None

    eval_inputs = draw_inputs(
        model, EVAL_SET_MULTIPLIER * calib.n_samples, calib.spec, calib.seed + EVAL_SEED_OFFSET
    )
    # Both forwards advance one block at a time, and each block's arrays
    # are dropped once its loss and errors are taken.
    errors = _SplitErrors(calib.spec.threshold, model.n_blocks * eval_inputs.shape[0] * model.d)
    per_block = []
    for (_, fp_out), (zq, c_out) in zip(
        model._block_io(eval_inputs), calib.qmodel._block_io(eval_inputs, modules)
    ):
        per_block.append(compute_feature_loss(fp_out, c_out))
        errors.add(fp_out, c_out, zq)
    feature_loss = per_block[-1]  # the last block's output is the pre-head feature
    mae_out, mae_in = errors.means()

    gap = channel_slope_gap(
        calib.records[-1],
        calib.spec.threshold,
        chosen_n if chosen_n is not None else gap_reference_n,
    )
    gap_before, gap_after = gap[1:] if gap is not None else (None, None)

    return EvalReport(
        mode=mode,
        transform=transform if mode == "nbc" else "identity" if mode == "linear" else "none",
        bits_w=calib.qmodel.bits_w,
        bits_a=calib.qmodel.bits_a,
        seed=calib.seed,
        storage=modules[0].storage if modules else "none",
        chosen_n=chosen_n,
        fls_evaluations=None,
        feature_loss=feature_loss,
        mae_outlier=mae_out,
        mae_inlier=mae_in,
        slope_gap_before=gap_before,
        slope_gap_after=gap_after,
        per_block_losses=tuple(per_block),
        ridge_used=tuple(m.ridge_used for m in modules) if modules else (),
        residual_rms=tuple(m.residual_rms for m in modules) if modules else (),
    )
