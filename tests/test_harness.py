import dataclasses
import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from nbcq.errors import EvaluatorError, FitError
from nbcq.fls import FlsConfig, fls_search, holdout_count, holdout_split
from nbcq.harness import (
    EVAL_CHUNK_ROWS,
    EVAL_SEED_OFFSET,
    EVAL_SET_MULTIPLIER,
    GELU_TANH_COEFF,
    GELU_TANH_CUBIC,
    HEAVY_CHANNEL,
    MODE_MAPS,
    MODES,
    OUTLIER_THRESHOLD,
    OutlierSpec,
    QuantizedToyModel,
    ToyModel,
    HIDDEN_TILE_ELEMENTS,
    MIN_TILE_ROWS,
    build_toy_model,
    draw_input_chunks,
    draw_inputs,
    evaluate_pipeline,
    excess_kurtosis,
    fit_compensation,
    generate_calibration,
    gelu,
    mode_of_modules,
    ols_scalar_bias,
    scalar_slope,
    search_exponent,
    slope_gap_analysis,
    split_error_metrics,
)
from nbcq.harness import _mean_of_partials
from nbcq.numerics import TILE_ELEMENTS
from nbcq.quantizer import QuantParams, calibrate_params
from nbcq.transform import TransformKind

from helpers import (
    brute_force_slope,
    desk_setup,
    fit_and_evaluate,
    fp_block_io,
    grid_points,
    integer_round_trip,
    reference_search,
    training_fit_loss,
    whole_draw,
    whole_fp_step,
    whole_hidden,
    whole_q_step,
)

# Frozen regression envelope: W8A8 feature losses on the default desk
# configuration at seed 0, measured once. A regression that degrades the
# quantized pipeline by an order of magnitude trips these.
FROZEN_W8A8_FEATURE_LOSS = {
    "none": 0.006972827991826198,
    "linear": 0.008406705377214335,
    "nbc": 0.008132155329805131,
}


class TestBuildToyModel:
    def test_same_seed_bit_identical(self):
        a = build_toy_model(8, 16, 3, seed=5, heavy_scale=1.3, heavy_input_scale=2.0)
        b = build_toy_model(8, 16, 3, seed=5, heavy_scale=1.3, heavy_input_scale=2.0)
        for wa, wb in zip(a.w1 + a.w2, b.w1 + b.w2):
            assert wa.tobytes() == wb.tobytes()

    def test_zeros_map_to_zeros(self):
        model = build_toy_model(8, 16, 2, seed=1)
        out = fp_block_io(model, np.zeros((4, 8)))[-1][1]
        assert np.array_equal(out, np.zeros((4, 8)))

    def test_heavy_channel_percentile_dominance(self):
        scale = 8.0
        model = build_toy_model(16, 32, 4, seed=3, heavy_scale=scale)
        x = np.random.default_rng(30).standard_normal((2048, 16))
        acts = np.abs(fp_block_io(model, x)[-1][1])
        p99 = np.percentile(acts, 99, axis=0)
        others = np.delete(p99, HEAVY_CHANNEL)
        assert p99[HEAVY_CHANNEL] - np.median(others) >= scale / 2

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="^d must be >= 1, got 0$"):
            build_toy_model(0, 4, 2, seed=0)

    def test_gelu_shape(self):
        assert gelu(np.array([0.0]))[0] == 0.0
        assert abs(gelu(np.array([10.0]))[0] - 10.0) < 1e-6
        assert abs(gelu(np.array([-10.0]))[0]) < 1e-6

    def test_gelu_matches_scalar_tanh_oracle(self):
        def oracle(v: float) -> float:
            return 0.5 * v * (1.0 + math.tanh(GELU_TANH_COEFF * (v + GELU_TANH_CUBIC * v**3)))

        rng = np.random.default_rng(60)
        x = np.concatenate([
            np.linspace(-12.0, 12.0, 481),
            rng.standard_normal(500) * 4.0,
            [0.0, 1e-300, -1e-300, 1e-8, -1e-8, 40.0, -40.0],
        ]).reshape(-1, 4)
        got = gelu(x)
        assert got.shape == x.shape
        for v, g in zip(x.ravel(), got.ravel()):
            o = oracle(float(v))
            # for x < 0, 1 + tanh cancels; the error there is measured
            # against |x|, the scale of the terms that cancelled
            scale = abs(o) if v >= 0 else abs(v)
            assert abs(g - o) <= 1e-15 * scale, (v, g, o)

    def test_gelu_gives_its_limit_where_the_cube_overflows(self):
        # under the project's error::RuntimeWarning filter: no warning either
        got = gelu(np.array([1e200, -1e200]))
        assert got[0] == 1e200
        assert got[1] == 0.0 and math.copysign(1.0, got[1]) == -1.0

    def test_setup_whose_gelu_overflows_warns_nothing(self):
        # the block inputs reach 1e160 and stay finite, but past |x| = 5.6e102
        # the cube in gelu's tanh argument overflows, which gelu handles
        _, calib, _ = desk_setup(0, outlier_scale=1e160)
        assert max(np.abs(rec.levels).max() for rec in calib.records) > 1e150


class TestOutlierSpec:
    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"outlier_fraction": 0.5}, "outlier_fraction must be in [0, 0.2], got 0.5"),
            ({"outlier_fraction": -0.1}, "outlier_fraction must be in [0, 0.2], got -0.1"),
            ({"outlier_fraction": math.nan}, "outlier_fraction must be in [0, 0.2], got nan"),
            ({"outlier_scale": 0.5}, "outlier_scale must be >= 1, got 0.5"),
        ],
        ids=["fraction-high", "fraction-negative", "fraction-nan", "scale"],
    )
    def test_names_key_bound_and_value(self, overrides, message):
        # the words the command line prints after the config path
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            OutlierSpec(**overrides)

    def test_bounds_themselves_accepted(self):
        spec = OutlierSpec(outlier_fraction=0.2, outlier_scale=1.0)
        assert (spec.outlier_fraction, spec.outlier_scale) == (0.2, 1.0)
        assert OutlierSpec(outlier_fraction=0.0).outlier_fraction == 0.0

    def test_the_outlier_threshold_is_fixed(self):
        # the spec says how calibration data is made; which positions count as outliers is fixed
        assert [f.name for f in dataclasses.fields(OutlierSpec)] == ["outlier_fraction", "outlier_scale"]
        assert OUTLIER_THRESHOLD == 10.0


class TestGenerateCalibration:
    def test_no_outliers_when_fraction_zero(self):
        for seed in range(5):
            model, calib, _ = desk_setup(seed, outlier_fraction=0.0)
            assert calib.spec.outlier_fraction == 0.0
            peak = max(float(np.abs(rec.x_q).max()) for rec in calib.records)
            assert peak < OUTLIER_THRESHOLD

    def test_row_counts(self):
        model, calib, _ = desk_setup(0)
        assert all(rec.n_rows == 512 for rec in calib.records)
        assert len(calib.records) == 4

    def test_determinism(self):
        _, a, _ = desk_setup(7)
        _, b, _ = desk_setup(7)
        for ra, rb in zip(a.records, b.records):
            assert ra.x_q.tobytes() == rb.x_q.tobytes()
            assert ra.residual.tobytes() == rb.residual.tobytes()
        assert a.y_last.tobytes() == b.y_last.tobytes()

    def test_outliers_present_under_default_spec(self):
        model, calib, _ = desk_setup(0)
        last = calib.records[-1]
        assert (np.abs(last.x_q) > OUTLIER_THRESHOLD).any()

    def test_minimum_samples(self):
        # calibration records any row count; the fit rejects fewer than d + 1 rows
        model = build_toy_model(16, 8, 2, seed=0)
        calib = generate_calibration(model, 10, OutlierSpec(), seed=1)
        with pytest.raises(FitError, match="^block 0: need at least 17 rows to fit 16 weights plus a bias, got 10$"):
            fit_compensation(model, calib, "linear", cfg=FlsConfig())

    def test_fp_records_equal_block_io(self):
        # the records against both list forms: x_q and y - y_q per block,
        # and the last y whole
        model, calib, _ = desk_setup(2)
        inputs = draw_inputs(model, calib.n_samples, calib.spec, calib.seed)
        fp_io = fp_block_io(model, inputs)
        q_io = calib.qmodel.compensated_block_io(inputs)
        assert len(fp_io) == len(q_io) == len(calib.records)
        for rec, (_, y), (x_q, y_q) in zip(calib.records, fp_io, q_io):
            assert rec.x_q.tobytes() == x_q.tobytes()
            assert rec.residual.tobytes() == (y - y_q).tobytes()
        assert calib.y_last.tobytes() == fp_io[-1][1].tobytes()

    @pytest.mark.parametrize("bits_a", [2, 8])
    def test_records_at_the_ends_of_the_bit_range_equal_block_io(self, bits_a):
        model, calib, _ = desk_setup(2, bits_a=bits_a)
        q_io = calib.qmodel.compensated_block_io(draw_inputs(model, calib.n_samples, calib.spec, calib.seed))
        for rec, (x_q, _) in zip(calib.records, q_io, strict=True):
            assert rec.codes.dtype == np.uint8
            assert rec.x_q.tobytes() == x_q.tobytes()
        # the lowest and the highest code both occur and survive uint8
        codes = np.concatenate([rec.codes.ravel() for rec in calib.records])
        assert (codes.min(), codes.max()) == (0, 2**bits_a - 1)

    def test_fake_quant_equals_integer_round_trip(self):
        model, calib, _ = desk_setup(0)
        x = draw_inputs(model, calib.n_samples, calib.spec, calib.seed) * 3.0
        for p in calib.qmodel.p_in + calib.qmodel.p_hid + (QuantParams(4, 0.5, 0),):
            fused = calib.qmodel.fake_quant(x, p)
            assert fused.tobytes() == integer_round_trip(x, p).tobytes()
        with pytest.raises(ValueError, match="non-finite"):
            calib.qmodel.fake_quant(np.array([[1.0, np.nan]]), calib.qmodel.p_in[0])

    def test_eval_inputs_disjoint_seed(self):
        model, calib, _ = desk_setup(0)
        ev = draw_inputs(model, 512, calib.spec, calib.seed + EVAL_SEED_OFFSET)
        assert not np.array_equal(ev, draw_inputs(model, calib.n_samples, calib.spec, calib.seed))

    @pytest.mark.parametrize(
        "d, gains, array",
        [
            (16, {"heavy_input_scale": 1e300}, "calibration tensor"),
            (16, {"heavy_scale": 1e150}, "calibration tensor"),
            (16, {"heavy_scale": 1e100}, "y"),  # only the last block's output
            (1, {"heavy_input_scale": 1.7e308}, "weight"),  # the model's weights
        ],
    )
    def test_overflowing_gains_fail_a_finiteness_check(self, d, gains, array):
        # desk shape and draws; the gains are not run configuration keys
        with np.errstate(over="ignore", invalid="ignore"):
            model = build_toy_model(d, 32, 4, seed=0, **gains)
            with pytest.raises(ValueError, match=f"^{array} contains non-finite values$"):
                generate_calibration(model, 512, OutlierSpec(), seed=1, bits_w=4, bits_a=4)


class TestCalibrationMemory:
    """What calibration keeps and what the search adds to it, in bytes, so
    that a kept block output or a search cache that comes back fails here."""

    @pytest.mark.parametrize("bits_a", [2, 4, 8])
    @pytest.mark.parametrize("n_blocks", [1, 4])
    def test_set_holds_codes_levels_and_residual_per_block_and_the_holdout_target(
        self, n_blocks, bits_a
    ):
        d, n_samples = 16, 512
        model = build_toy_model(d, 32, n_blocks, seed=0)
        calib = generate_calibration(model, n_samples, OutlierSpec(), seed=1, bits_a=bits_a)
        held = [getattr(calib, f.name) for f in dataclasses.fields(calib)]
        held += [getattr(rec, f.name) for rec in calib.records for f in dataclasses.fields(rec)]
        arrays = [a for a in held if isinstance(a, np.ndarray)]
        assert len(arrays) == 3 * n_blocks + 1
        assert sum(a.nbytes for a in arrays) == (
            (n_blocks + 1) * n_samples * d * 8  # the residuals and y_last
            + n_blocks * n_samples * d  # the uint8 codes of the block inputs
            + n_blocks * 2**bits_a * 8  # the level tables
        )
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])

    def test_calibration_peak_above_its_set_is_below_one_whole_hidden_activation(self):
        # h >> d: the hidden activation of all rows (2048 x 512 float64,
        # 8 MiB) outweighs the stream (2048 x 8 float64, 128 KiB) 64 times;
        # each step makes it one row tile at a time (128 rows, 512 KiB)
        d, h, n_samples = 8, 512, 2048
        model = build_toy_model(d, h, 2, seed=71)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            calib = generate_calibration(model, n_samples, OutlierSpec(), seed=72)
            held, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert calib.n_samples == n_samples
        hidden_bytes = n_samples * h * 8
        assert peak - held < hidden_bytes, (peak - held, hidden_bytes)

    def test_search_peak_above_the_set_is_the_codes_and_a_few_arrays(self):
        d, h, n_blocks, n_samples = 16, 32, 8, 512
        model = build_toy_model(d, h, n_blocks, seed=0)
        calib = generate_calibration(model, n_samples, OutlierSpec(), seed=1)
        cfg = FlsConfig(seed=3)
        search_exponent(model, calib, cfg)  # one-off set-up stays out of the measurement
        fit_rows = n_samples - holdout_count(n_samples)
        codes = n_blocks * fit_rows * d  # the fit rows' codes as uint8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            search_exponent(model, calib, cfg)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # a candidate's transients, block by block: the codes and residual
        # slices, the design and targets of one fit, and the hold-out stream
        # with its hidden activation. A cache of the fit rows' codes as intp
        # would add 8 blocks x 384 rows x 8 bytes, another 6 arrays; one of
        # their residuals another 6.
        assert peak <= codes + 6 * n_samples * d * 8, (peak, codes)


@pytest.fixture(scope="module")
def runs():
    """(report, search result) per seed and mode of the default desk run."""
    out = {}
    for seed in range(5):
        model, calib, cfg = desk_setup(seed)
        out[seed] = {mode: fit_and_evaluate(model, calib, mode, cfg) for mode in ("none", "linear", "nbc")}
    return out


@pytest.fixture(scope="module")
def reports(runs):
    return {seed: {mode: rep for mode, (rep, _) in per_mode.items()} for seed, per_mode in runs.items()}


class TestForwardCounts:
    @staticmethod
    def count_steps(monkeypatch):
        """The input shape of every block step, per stream ("fp", "q"):
        ``block_io`` of each model, the attribute the benchmark times, runs
        every forward of the library."""
        calls = {"fp": [], "q": []}

        def counting(stream, original):
            def step(self, k, z, *args, **kwargs):
                calls[stream].append(np.shape(z))
                return original(self, k, z, *args, **kwargs)

            return step

        monkeypatch.setattr(ToyModel, "block_io", counting("fp", ToyModel.block_io))
        monkeypatch.setattr(QuantizedToyModel, "block_io", counting("q", QuantizedToyModel.block_io))
        return calls

    def test_generate_calibration_reuses_the_calibrating_forward(self, monkeypatch):
        calls = self.count_steps(monkeypatch)
        desk_setup(0)
        assert calls == {"fp": [(512, 16)] * 4, "q": [(512, 16)] * 4}

    def test_nbc_search_runs_no_fp_forward(self, monkeypatch):
        # the hold-out rows are scored against the targets calibration
        # recorded, and run every quantized step from block 0's codes
        model, calib, cfg = desk_setup(1)
        calls = self.count_steps(monkeypatch)
        modules, result = fit_compensation(model, calib, "nbc", cfg=cfg)
        assert result.evaluations >= 3 and len(modules) == len(calib.records)
        holdout_rows = holdout_count(calib.n_samples)
        assert calls == {"fp": [], "q": [(holdout_rows, 16)] * (result.evaluations * model.n_blocks)}

    def test_evaluation_runs_one_step_per_block_and_chunk_of_each_model(self, monkeypatch):
        # 4 x 512 = 2048 evaluation rows run as two chunks
        model, calib, cfg = desk_setup(0)
        modules, _ = fit_compensation(model, calib, "linear", cfg=cfg)
        calls = self.count_steps(monkeypatch)
        evaluate_pipeline(model, calib, modules, mode="linear")
        steps = [(EVAL_CHUNK_ROWS, 16)] * (2 * model.n_blocks)
        assert calls == {"fp": steps, "q": steps}

    @pytest.mark.parametrize(
        "d, h, n_blocks, n_samples", [(16, 32, 4, 512), (64, 256, 8, 2048)], ids=["desk", "mid"]
    )
    def test_holdout_targets_equal_a_fresh_fp_forward(self, d, h, n_blocks, n_samples):
        # what the search relies on when it takes the recorded targets of
        # the hold-out rows: the forward of those rows alone has the same bits
        model = build_toy_model(d, h, n_blocks, seed=5)
        calib = generate_calibration(model, n_samples, OutlierSpec(), seed=6)
        _, rows = holdout_split(n_samples, FlsConfig(seed=7))
        inputs = draw_inputs(model, n_samples, calib.spec, calib.seed)
        fresh = fp_block_io(model, inputs[rows])[-1][1]
        assert fresh.tobytes() == calib.y_last[rows].tobytes()


class TestQuantizedBlockStep:
    """A quantized step writes its quantized input over its input; the list
    form passes each step a copy, so what it returns and what the caller
    passed stay intact."""

    def test_step_writes_the_quantized_input_over_z(self):
        model, calib, cfg = desk_setup(0)
        modules, _ = fit_compensation(model, calib, "linear", cfg=cfg)
        z = draw_inputs(model, 64, calib.spec, seed=9)
        for k, module in enumerate((None, *modules[1:])):
            expected = calib.qmodel.fake_quant(z, calib.qmodel.p_in[k])
            zq, out = calib.qmodel.block_io(k, z, module)
            assert zq is z
            assert z.tobytes() == expected.tobytes()
            assert not np.shares_memory(out, z)
            z = out

    def test_non_finite_input_raises_naming_the_block(self):
        model, calib, _ = desk_setup(0)
        z = draw_inputs(model, 64, calib.spec, seed=9)
        z[5, 3] = np.inf
        with pytest.raises(ValueError, match="^block 2: input contains non-finite values$"):
            calib.qmodel.block_io(2, z)

    def test_list_form_leaves_the_callers_array_and_its_outputs_unchanged(self, monkeypatch):
        model, calib, cfg = desk_setup(0)
        qmodel = calib.qmodel
        modules, _ = fit_compensation(model, calib, "linear", cfg=cfg)
        x = draw_inputs(model, 64, calib.spec, seed=9)
        before = x.copy()
        pairs = qmodel.compensated_block_io(x, modules)
        assert x.tobytes() == before.tobytes()
        # each block's output is still its own array, the next input unquantized
        for k in range(1, len(pairs)):
            out = pairs[k - 1][1]
            assert not np.shares_memory(out, pairs[k][0])
            assert pairs[k][0].tobytes() == qmodel.fake_quant(out, qmodel.p_in[k]).tobytes()
        # one module per block, checked before any step runs
        monkeypatch.setattr(QuantizedToyModel, "block_io", lambda *args: pytest.fail("a step ran"))
        for wrong in (modules + modules[:1], modules[:2]):
            message = f"^got {len(wrong)} modules for 4 blocks; each block takes one$"
            with pytest.raises(ValueError, match=message):
                qmodel.compensated_block_io(x, wrong)


class TestStreamedDraw:
    """``draw_input_chunks`` gives the rows of the whole-array draw, byte for
    byte, whether or not an amplified row sits on a chunk's edge."""

    # each seed puts an amplified row on the first and the last row of every
    # chunk at fraction 0.2, which the test checks on the whole draw
    @pytest.mark.parametrize(
        "bounds, seed",
        [([(0, 1024), (1024, 2120)], 1052), ([(0, 1024), (1024, 2048)], 1007), ([(0, 400)], 3)],
        ids=["2120-rows", "2048-rows", "400-rows"],
    )
    @pytest.mark.parametrize("fraction", [0.0, 0.2])
    def test_chunks_equal_the_whole_draw(self, bounds, seed, fraction):
        model = build_toy_model(8, 16, 1, seed=0)
        spec = OutlierSpec(outlier_fraction=fraction)
        n_rows = bounds[-1][1]
        whole = whole_draw(model, n_rows, spec, seed)
        edges = [row for r0, r1 in bounds for row in (r0, r1 - 1)]
        amplified = whole[edges, HEAVY_CHANNEL] > 0.5 * spec.outlier_scale
        assert amplified.all() if fraction else not amplified.any()
        chunks = list(draw_input_chunks(model, n_rows, spec, seed, bounds))
        assert [len(c) for c in chunks] == [r1 - r0 for r0, r1 in bounds]
        assert np.concatenate(chunks).tobytes() == whole.tobytes()
        assert draw_inputs(model, n_rows, spec, seed).tobytes() == whole.tobytes()


class TestTiledSteps:
    """Both models' steps run the hidden layer in row tiles of
    ``HIDDEN_TILE_ELEMENTS // h`` rows, at least ``MIN_TILE_ROWS``, and give
    the bits of the whole-array steps."""

    @staticmethod
    def wide_setup():
        # h = 512 makes tiles of 128 rows: 2120 rows run as 15 tiles of 128
        # and a last one of 200, which takes the remainder
        model = build_toy_model(16, 512, 2, seed=81)
        calib = generate_calibration(model, 530, OutlierSpec(), seed=82)
        assert max(MIN_TILE_ROWS, HIDDEN_TILE_ELEMENTS // 512) == 128
        return model, calib, whole_draw(model, 2120, calib.spec, seed=83)

    TILES = [(128, 512)] * 15 + [(200, 512)]

    def test_fp_step_equals_the_whole_array_step(self):
        model, _, z = self.wide_setup()
        for k in range(model.n_blocks):
            tiles = []
            out = model.block_io(k, z, lambda a: tiles.append(a.copy()))
            assert [t.shape for t in tiles] == self.TILES
            assert np.concatenate(tiles).tobytes() == whole_hidden(model.w1[k], z).tobytes()
            assert out.tobytes() == whole_fp_step(model, k, z).tobytes()
            z = out

    @pytest.mark.parametrize("mode", MODES)
    def test_q_step_equals_the_whole_array_step(self, monkeypatch, mode):
        import nbcq.harness as harness_mod

        model, calib, z = self.wide_setup()
        cfg = FlsConfig(n_init=1.0, n_min=0.0, n_max=2.0, seed=84)
        modules, _ = fit_compensation(model, calib, mode, cfg=cfg)
        shapes = []
        original = harness_mod.gelu
        monkeypatch.setattr(harness_mod, "gelu", lambda a, out=None: shapes.append(a.shape) or original(a, out))
        for k in range(model.n_blocks):
            module = None if modules is None else modules[k]
            zq_whole, out_whole = whole_q_step(calib.qmodel, k, z, module)
            zq, out = calib.qmodel.block_io(k, z.copy(), module)
            assert shapes == self.TILES
            assert zq.tobytes() == zq_whole.tobytes()
            assert out.tobytes() == out_whole.tobytes()
            shapes.clear()
            z = out

    def test_hidden_ranges_equal_calibrate_params_of_the_whole_activation(self):
        # 530 calibration rows run as tiles of 128, 128, 128 and 146 rows
        model, calib, _ = self.wide_setup()
        z = whole_draw(model, calib.n_samples, calib.spec, calib.seed)
        for k in range(model.n_blocks):
            assert calib.qmodel.p_in[k] == calibrate_params(z, calib.qmodel.bits_a)
            whole = whole_hidden(model.w1[k], z)
            assert calib.qmodel.p_hid[k] == calibrate_params(whole, calib.qmodel.bits_a)
            z = whole_fp_step(model, k, z)

    def test_a_hidden_tile_that_is_not_finite_is_named(self):
        # one block, so the hidden tiles are the only calibration tensors
        # but the finite inputs: at this gain z @ W1^T overflows, and the
        # first of the four tiles of 128 rows fails its range
        with np.errstate(over="ignore", invalid="ignore"):
            model = build_toy_model(16, 512, 1, seed=0, heavy_input_scale=1e308)
            assert np.isfinite(model.w1[0]).all()
            with pytest.raises(ValueError, match="^calibration tensor contains non-finite values$"):
                generate_calibration(model, 512, OutlierSpec(), seed=1)


class TestFitCompensationConfig:
    @pytest.mark.parametrize("mode", MODES)
    def test_a_call_without_cfg_raises_type_error_in_every_mode(self, mode):
        # the search and its split seed are stated once, by the caller's
        # config: no mode falls back to a default
        model, calib, _ = desk_setup(0)
        with pytest.raises(TypeError, match="'cfg'"):
            fit_compensation(model, calib, mode)


class TestRunPipeline:

    def test_compensation_reduces_median_feature_loss(self, reports):
        fl = {m: np.median([reports[s][m].feature_loss for s in reports]) for m in ("none", "linear", "nbc")}
        assert fl["linear"] <= fl["none"]
        assert fl["nbc"] <= fl["none"]

    def test_training_records_never_worsen(self):
        for seed in range(5):
            model, calib, cfg = desk_setup(seed)
            base = training_fit_loss(calib.records, None)
            lin, _ = fit_compensation(model, calib, "linear", cfg=cfg)
            nbc, _ = fit_compensation(model, calib, "nbc", cfg=cfg)
            assert training_fit_loss(calib.records, lin) <= base + 1e-12
            assert training_fit_loss(calib.records, nbc) <= base + 1e-12

    def test_outlier_mae_direction_across_seeds(self, reports):
        med = {
            m: float(np.median([reports[s][m].mae_outlier for s in reports]))
            for m in ("none", "linear", "nbc")
        }
        assert med["nbc"] <= med["linear"]
        assert med["linear"] <= med["none"]

    def test_chosen_exponent_interior(self, runs):
        for seed in runs:
            rep, search = runs[seed]["nbc"]
            assert rep.chosen_n == search.chosen_n  # read back from the fitted modules
            assert -10.0 < rep.chosen_n < 10.0

    def test_search_budget_respected(self, runs):
        cfg = FlsConfig()
        for seed in runs:
            _, search = runs[seed]["nbc"]
            assert search.evaluations <= grid_points(cfg)

    def test_w8a8_within_frozen_envelope(self):
        model, calib, cfg = desk_setup(0, bits_w=8, bits_a=8)
        for mode, frozen in FROZEN_W8A8_FEATURE_LOSS.items():
            rep, _ = fit_and_evaluate(model, calib, mode, cfg)
            assert (rep.bits_w, rep.bits_a) == (8, 8)
            assert rep.feature_loss <= 10.0 * frozen

    def test_determinism_bit_identical_reports(self):
        model, calib, cfg = desk_setup(3)
        a, _ = fit_and_evaluate(model, calib, "nbc", cfg)
        model2, calib2, cfg2 = desk_setup(3)
        b, _ = fit_and_evaluate(model2, calib2, "nbc", cfg2)
        assert a == b

    def test_undefined_slope_reports_absent_gaps(self):
        # the fit succeeds, but a slope on the analysis channel is undefined
        model, calib, cfg = desk_setup(0, outlier_scale=1e5)
        rep, _ = fit_and_evaluate(model, calib, "linear", cfg)
        assert rep.slope_gap_before is None
        assert rep.slope_gap_after is None
        assert math.isfinite(rep.feature_loss)
        assert rep.mae_outlier is not None

    def test_linear_region_pipeline_equivalence(self, monkeypatch):
        # shrink all inputs so every activation and residual sits far inside
        # the linear region of every exponent on the search grid; the two
        # modes then reduce to the same affine fit end to end
        import nbcq.harness as harness_mod

        original = harness_mod.draw_input_chunks
        draws = []  # row counts of every draw: calibration's and evaluation's run through it

        def tiny_chunks(model, n_samples, spec, seed, bounds):
            draws.append(n_samples)
            return (1e-5 * chunk for chunk in original(model, n_samples, spec, seed, bounds))

        def tiny_inputs(model, n_samples, spec, seed):
            return next(tiny_chunks(model, n_samples, spec, seed, [(0, n_samples)]))

        monkeypatch.setattr(harness_mod, "draw_input_chunks", tiny_chunks)
        model = build_toy_model(6, 8, 2, seed=11)
        spec = OutlierSpec(outlier_fraction=0.0)
        calib = generate_calibration(model, 64, spec, seed=12, bits_w=8, bits_a=8)
        peak = max(float(np.abs(rec.x_q).max()) for rec in calib.records)
        assert peak < 2.0**-10  # inside the smallest grid region

        cfg = FlsConfig(seed=13)
        rep_lin, _ = fit_and_evaluate(model, calib, "linear", cfg)
        rep_nbc, _ = fit_and_evaluate(model, calib, "nbc", cfg)
        assert draws == [64, EVAL_SET_MULTIPLIER * 64, EVAL_SET_MULTIPLIER * 64]
        assert abs(rep_nbc.feature_loss - rep_lin.feature_loss) <= 1e-9
        for a, b in zip(rep_nbc.per_block_losses, rep_lin.per_block_losses):
            assert abs(a - b) <= 1e-9

        # array-level equivalence of the deployed forward passes
        lin_mods, _ = fit_compensation(model, calib, "linear", cfg=cfg)
        nbc_mods, _ = fit_compensation(model, calib, "nbc", cfg=cfg)
        ev = tiny_inputs(model, 64, spec, 99)
        out_lin = calib.qmodel.compensated_block_io(ev, lin_mods)[-1][1]
        out_nbc = calib.qmodel.compensated_block_io(ev, nbc_mods)[-1][1]
        assert np.max(np.abs(out_lin - out_nbc)) <= 1e-9


def report_from_whole_forwards(model, calib, modules, report):
    """``report`` with every streamed field recomputed from whole forwards.

    The oracle keeps all blocks of both forwards (``fp_block_io`` and
    ``compensated_block_io``) and scores them as evaluation defines its
    metrics: every block's rows are cut into chunks of ``EVAL_CHUNK_ROWS``
    (the remainder joins the last chunk), each chunk gives a sum, and a
    mean is the exactly rounded sum of its chunk sums over its count.
    """
    n_rows = EVAL_SET_MULTIPLIER * calib.n_samples
    ev = whole_draw(model, n_rows, calib.spec, calib.seed + EVAL_SEED_OFFSET)
    fp_io = fp_block_io(model, ev)
    comp_io = calib.qmodel.compensated_block_io(ev, modules)
    bounds = [i * EVAL_CHUNK_ROWS for i in range(max(1, n_rows // EVAL_CHUNK_ROWS))] + [n_rows]
    chunks = [slice(r0, r1) for r0, r1 in zip(bounds, bounds[1:])]
    losses, outlier_sums, inlier_sums, n_outliers = [], [], [], 0
    for (_, y), (x_q, y_hat) in zip(fp_io, comp_io):
        err = np.abs(y - y_hat)
        outlier = np.abs(x_q) > OUTLIER_THRESHOLD
        losses.append(math.fsum(np.sum((y[c] - y_hat[c]) ** 2) for c in chunks) / y.size)
        outlier_sums += [np.sum(err[c][outlier[c]]) for c in chunks]
        inlier_sums += [np.sum(err[c][~outlier[c]]) for c in chunks]
        n_outliers += int(outlier.sum())
    n_inliers = len(fp_io) * n_rows * model.d - n_outliers
    return dataclasses.replace(
        report,
        feature_loss=losses[-1],
        per_block_losses=tuple(losses),
        mae_outlier=math.fsum(outlier_sums) / n_outliers if n_outliers else None,
        mae_inlier=math.fsum(inlier_sums) / n_inliers if n_inliers else None,
    )


class TestStreamedEvaluation:
    @pytest.mark.parametrize("mode", ["none", "linear", "nbc"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_desk_report_equals_whole_forward_report(self, seed, mode):
        model, calib, cfg = desk_setup(seed)
        modules, _ = fit_compensation(model, calib, mode, cfg=cfg)
        report = evaluate_pipeline(model, calib, modules, mode=mode)
        assert report == report_from_whole_forwards(model, calib, modules, report)
        assert report.mae_outlier is not None and report.mae_inlier is not None

    def test_eight_block_report_equals_whole_forward_report(self):
        model = build_toy_model(12, 40, 8, seed=21)
        calib = generate_calibration(model, 96, OutlierSpec(), seed=22)
        cfg = FlsConfig(n_init=1.0, n_min=0.0, n_max=3.0, seed=23)
        modules, _ = fit_compensation(model, calib, "nbc", cfg=cfg)
        report = evaluate_pipeline(model, calib, modules, mode="nbc")
        assert len(report.per_block_losses) == 8
        assert report == report_from_whole_forwards(model, calib, modules, report)

    @staticmethod
    def chunk_setup(n_samples: int):
        model = build_toy_model(12, 40, 4, seed=51)
        calib = generate_calibration(model, n_samples, OutlierSpec(), seed=52)
        return model, calib, FlsConfig(n_init=1.0, n_min=0.0, n_max=3.0, seed=53)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n_samples", [530, 100], ids=["two-chunks", "one-chunk"])
    def test_chunked_report_equals_whole_forward_report(self, n_samples, mode):
        # 4 x 530 = 2120 rows run as 1024 + 1096 rows; 4 x 100 = 400 as one chunk
        model, calib, cfg = self.chunk_setup(n_samples)
        modules, _ = fit_compensation(model, calib, mode, cfg=cfg)
        report = evaluate_pipeline(model, calib, modules, mode=mode)
        assert report == report_from_whole_forwards(model, calib, modules, report)

    @pytest.mark.parametrize(
        "n_samples, chunk_rows",
        [(530, [1024, 1096]), (512, [1024, 1024]), (100, [400])],
        ids=["2120-rows", "2048-rows", "400-rows"],
    )
    def test_block_steps_run_whole_chunks_in_row_order(self, monkeypatch, n_samples, chunk_rows):
        model, calib, cfg = self.chunk_setup(n_samples)
        modules, _ = fit_compensation(model, calib, "linear", cfg=cfg)
        calls, first_inputs = [], []

        def spy(stream, original):
            def step(self, k, z, *args, **kwargs):
                calls.append((stream, k, len(z)))
                if (stream, k) == ("fp", 0):
                    first_inputs.append(np.array(z))  # before the quantized step overwrites it
                return original(self, k, z, *args, **kwargs)

            return step

        monkeypatch.setattr(ToyModel, "block_io", spy("fp", ToyModel.block_io))
        monkeypatch.setattr(QuantizedToyModel, "block_io", spy("q", QuantizedToyModel.block_io))
        evaluate_pipeline(model, calib, modules, mode="linear")
        n_rows = EVAL_SET_MULTIPLIER * n_samples
        assert all(rows >= min(EVAL_CHUNK_ROWS, n_rows) for _, _, rows in calls)
        # each chunk runs every block of both streams before the next one starts
        assert calls == [
            (stream, k, rows)
            for rows in chunk_rows
            for k in range(model.n_blocks)
            for stream in ("fp", "q")
        ]
        # and the chunks tile the evaluation set in row order
        ev = whole_draw(model, n_rows, calib.spec, calib.seed + EVAL_SEED_OFFSET)
        assert np.concatenate(first_inputs).tobytes() == ev.tobytes()

    def test_each_chunk_and_block_is_scored_by_split_error_metrics(self, monkeypatch):
        import nbcq.harness as harness_mod

        model, calib, cfg = desk_setup(0)
        modules, _ = fit_compensation(model, calib, "linear", cfg=cfg)
        shapes = []
        original = harness_mod.split_error_metrics

        def spy(y, y_hat, x_q):
            shapes.append((y.shape, y_hat.shape, x_q.shape))
            return original(y, y_hat, x_q)

        monkeypatch.setattr(harness_mod, "split_error_metrics", spy)
        report = evaluate_pipeline(model, calib, modules, mode="linear")
        # 4 x 512 evaluation rows run as 2 chunks through 4 blocks
        assert shapes == [((EVAL_CHUNK_ROWS, model.d),) * 3] * 8
        assert report == report_from_whole_forwards(model, calib, modules, report)

    @staticmethod
    def eval_peak_bytes(n_blocks: int) -> int:
        model = build_toy_model(8, 128, n_blocks, seed=31)
        calib = generate_calibration(model, 256, OutlierSpec(), seed=32)
        modules, _ = fit_compensation(model, calib, "linear", cfg=FlsConfig())
        return traced_eval_peak(model, calib, modules, "linear")

    def test_peak_memory_holds_one_block(self):
        # eval rows are fixed (4 x 256, one chunk). Six more blocks add only
        # their partial sums, a few floats each, so eval's peak grows by
        # less than one chunk's d-wide array (1024 x 8 float64); keeping
        # every block's errors and outlier flags would add six of those
        # arrays and their bools.
        chunk_bytes = EVAL_CHUNK_ROWS * 8 * 8
        growth = self.eval_peak_bytes(8) - self.eval_peak_bytes(2)
        assert growth < chunk_bytes, (growth, chunk_bytes)

    def test_peak_memory_below_one_whole_hidden_activation(self):
        # h >> d: the hidden activation of all rows (8192 x 512 float64,
        # 32 MiB) outweighs the evaluation inputs (8192 x 8 float64,
        # 0.5 MiB) many times; a chunk's is an eighth of it
        d, h, n_samples = 8, 512, 2048
        model = build_toy_model(d, h, 2, seed=61)
        calib = generate_calibration(model, n_samples, OutlierSpec(), seed=62)
        modules, _ = fit_compensation(model, calib, "linear", cfg=FlsConfig())
        hidden_bytes = EVAL_SET_MULTIPLIER * n_samples * h * 8
        peak = traced_eval_peak(model, calib, modules, "linear")
        assert peak < hidden_bytes, (peak, hidden_bytes)

    @pytest.mark.parametrize("mode, arrays", [("none", 4), ("linear", 5), ("nbc", 5)])
    def test_peak_memory_bounded_by_block_arrays(self, mode, arrays):
        # Eval draws the evaluation inputs a chunk at a time, and block 0
        # overwrites each chunk's; beside the partial sums of its metrics it
        # holds one chunk's arrays: a hidden tile (here the whole chunk's
        # hidden activation, since h is small) and four d-wide arrays (the
        # chunk's inputs or the full-precision stream, the quantized input
        # written over the compensated stream, the step's output and one
        # temporary, or the squares when the chunk is scored), and the
        # chunk's outlier flags; a module's apply adds one more, since it
        # holds its product with the weight and the inverse beside the
        # step's output. The elementwise kernels add tile-sized
        # temporaries. No rows x d array is made: the whole evaluation set
        # would cost eight chunk arrays.
        d, h, n_blocks, n_samples = 64, 32, 4, 2048
        model = build_toy_model(d, h, n_blocks, seed=41)
        calib = generate_calibration(model, n_samples, OutlierSpec(), seed=42)
        cfg = FlsConfig(n_init=1.0, n_min=0.0, n_max=2.0, seed=43)
        modules, _ = fit_compensation(model, calib, mode, cfg=cfg)
        assert EVAL_SET_MULTIPLIER * n_samples == 8 * EVAL_CHUNK_ROWS
        chunk_bytes = EVAL_CHUNK_ROWS * d * 8
        bound = (
            EVAL_CHUNK_ROWS * h * 8
            + arrays * chunk_bytes
            + EVAL_CHUNK_ROWS * d
            + 2 * TILE_ELEMENTS * 8
        )
        peak = traced_eval_peak(model, calib, modules, mode)
        assert peak <= bound, (peak, bound)


def traced_eval_peak(model, calib, modules, mode) -> int:
    """Bytes ``evaluate_pipeline`` allocates at its peak, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        evaluate_pipeline(model, calib, modules, mode=mode)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestNonFiniteForward:
    """A forward that overflows raises ValueError naming the block."""

    def test_holdout_forward_names_the_block_whose_input_is_not_finite(self):
        # desk defaults at outlier scale 1e10: in the first candidate's
        # hold-out forward, block 2's compensated output, block 3's input,
        # overflows
        model, calib, cfg = desk_setup(0, outlier_scale=1e10)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(EvaluatorError) as info:
                search_exponent(model, calib, cfg)
        assert str(info.value) == "evaluator failed at n_exp=2.0: block 3: input contains non-finite values"

    def test_evaluation_names_the_block_whose_output_is_not_finite(self):
        # modules calibrated at outlier scale 100 (seed 1, n = 3) on an
        # evaluation set at 1e5: block 2's compensated output overflows
        model, calib, cfg = desk_setup(1, outlier_scale=100.0)
        modules, _ = fit_compensation(model, calib, "nbc", cfg=cfg)
        model, calib, _ = desk_setup(0, outlier_scale=1e5)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="^block 2: y_hat contains non-finite values$"):
                evaluate_pipeline(model, calib, modules, mode="nbc")

    def test_evaluation_refuses_a_report_that_is_not_finite(self):
        # modules fitted at desk defaults on an evaluation set at 1e160:
        # every forward stays finite, but the squared errors of the last
        # block sum past float64, so its loss, the feature loss, is inf
        model, calib, cfg = desk_setup(0)
        modules, _ = fit_compensation(model, calib, "nbc", cfg=cfg)
        with np.errstate(over="ignore", invalid="ignore"):
            model, calib, _ = desk_setup(0, outlier_scale=1e160)
            with pytest.raises(ValueError, match="^feature_loss, per_block_losses not finite$"):
                evaluate_pipeline(model, calib, modules, mode="nbc")


class TestSearchRowValidation:
    @staticmethod
    def count_calls(monkeypatch, *names):
        """Names of the ``nbcq.harness`` functions in ``names`` in call order."""
        import nbcq.harness as harness_mod

        calls = []
        for name in names:
            original = getattr(harness_mod, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(harness_mod, name, counting)
        return calls

    @pytest.mark.parametrize("n_samples", [18], ids=["n18-d16"])
    def test_too_few_fit_rows_rejected_before_any_fit(self, monkeypatch, n_samples):
        model = build_toy_model(16, 32, 2, seed=0)
        calib = generate_calibration(model, n_samples, OutlierSpec(), seed=1)
        calls = self.count_calls(monkeypatch, "fit_nbc", "fit_nbc_levels", "level_codes")
        with pytest.raises(ValueError, match=r"^n_samples = 18 leaves 14 rows .* d \+ 1 = 17$"):
            fit_compensation(model, calib, "nbc", cfg=FlsConfig(seed=2))
        assert calls == []

    def test_smallest_accepted_split_fits(self, monkeypatch):
        # 24 rows at 0.25 hold out 6 and fit on 18 >= d + 1 = 17
        model = build_toy_model(16, 32, 2, seed=0)
        calib = generate_calibration(model, 24, OutlierSpec(), seed=1)
        calls = self.count_calls(monkeypatch, "fit_nbc", "fit_nbc_levels", "level_codes")
        modules, result = fit_compensation(model, calib, "nbc", cfg=FlsConfig(n_min=0.0, n_max=3.0, seed=2))
        assert len(modules) == 2 and result.evaluations >= 2
        # every candidate fits each block on the fit rows, and the final
        # refit fits each block on every row; the codes come from calibration
        assert calls == ["fit_nbc_levels"] * 2 * result.evaluations + ["fit_nbc"] * 2

    def test_search_exponent_fits_no_kept_module(self, monkeypatch):
        model = build_toy_model(16, 32, 2, seed=0)
        calib = generate_calibration(model, 24, OutlierSpec(), seed=1)
        cfg = FlsConfig(n_min=0.0, n_max=3.0, seed=2)
        calls = self.count_calls(monkeypatch, "fit_nbc", "fit_nbc_levels", "level_codes")
        result = search_exponent(model, calib, cfg)
        assert calls == ["fit_nbc_levels"] * 2 * result.evaluations
        # the search fit_compensation runs before its kept fits
        _, searched = fit_compensation(model, calib, "nbc", cfg=cfg)
        assert searched == result

    def test_calibration_codes_each_block_input_once(self, monkeypatch):
        import nbcq.harness as harness_mod

        coded = []
        original_codes = harness_mod.level_codes

        def counting_codes(x_q, p):
            coded.append(np.shape(x_q))
            return original_codes(x_q, p)

        monkeypatch.setattr(harness_mod, "level_codes", counting_codes)
        model, calib, cfg = desk_setup(0)
        # one pass per block, over every row, right after its quantized step
        assert coded == [(512, 16)] * 4
        _, result = fit_compensation(model, calib, "nbc", cfg=cfg)
        assert result.evaluations >= 3
        # neither the search nor the kept fits code anything again
        assert coded == [(512, 16)] * 4


class TestKeptFitFailure:
    """A kept fit that fails its checks raises FitError naming the block:
    the linear fits and the blt fits at the searched exponent."""

    def test_linear_bias_overflow_names_the_block(self):
        # numpy's overflow warnings are ignored, as the command does: the
        # finiteness checks report the overflow
        with np.errstate(over="ignore", invalid="ignore"):
            model, calib, cfg = desk_setup(0, mode="linear", outlier_scale=1e200)
            with pytest.raises(FitError) as info:
                fit_compensation(model, calib, "linear", cfg=cfg)
        assert str(info.value) == "block 0: bias contains non-finite values"

    def test_failing_block_named(self, monkeypatch):
        import nbcq.harness as harness_mod

        model, calib, cfg = desk_setup(0)
        original = harness_mod.fit_nbc

        def failing_on_block_2(rec, kind):
            if rec is calib.records[2]:  # the calibration record, so only a kept fit
                raise ValueError("bias contains non-finite values")
            return original(rec, kind)

        monkeypatch.setattr(harness_mod, "fit_nbc", failing_on_block_2)
        with pytest.raises(FitError, match="^block 2: bias contains non-finite values$"):
            fit_compensation(model, calib, "nbc", cfg=cfg)


class TestCandidateFitFailure:
    def test_failing_block_named(self, monkeypatch):
        import nbcq.compensation as comp_mod

        model, calib, cfg = desk_setup(0)
        original = comp_mod.solve_least_squares
        solves = []

        def failing_on_second_solve(design, targets, ridge=0.0):
            solves.append(design.shape[0])
            if len(solves) == 2:  # block 1 of the first candidate
                raise FitError("normal equations remain singular after the ridge fallback")
            return original(design, targets, ridge)

        monkeypatch.setattr(comp_mod, "solve_least_squares", failing_on_second_solve)
        with pytest.raises(EvaluatorError) as info:
            search_exponent(model, calib, cfg)
        assert str(info.value) == (
            "evaluator failed at n_exp=2.0: block 1: "
            "normal equations remain singular after the ridge fallback"
        )
        assert solves == [384, 384]  # the fit rows of blocks 0 and 1


class TestModeMaps:
    """The mode alone names the map its modules apply."""

    def test_each_mode_fits_and_reports_its_map(self, reports):
        assert MODE_MAPS == {"none": "none", "linear": "identity", "nbc": "blt"}
        assert MODES == ("none", "linear", "nbc")
        for per_mode in reports.values():
            assert {mode: rep.transform for mode, rep in per_mode.items()} == MODE_MAPS

    @pytest.mark.parametrize("transform", ["asinh", "identity", "none"])
    def test_transform_other_than_blt_raises_before_any_work(self, monkeypatch, transform):
        import nbcq.harness as harness_mod

        model, calib, cfg = desk_setup(0)
        modules, _ = fit_compensation(model, calib, "nbc", cfg=cfg)

        def no_work(*args, **kwargs):
            raise AssertionError("the call did work")

        monkeypatch.setattr(harness_mod, "search_exponent", no_work)
        monkeypatch.setattr(harness_mod, "draw_input_chunks", no_work)
        line = f"transform must be 'blt', got {transform!r}: the mode names the map"
        with pytest.raises(ValueError, match=re.escape(line)):
            fit_compensation(model, calib, "nbc", transform=transform, cfg=cfg)
        with pytest.raises(ValueError, match=re.escape(line)):
            evaluate_pipeline(model, calib, modules, mode="nbc", transform=transform)
        # the patched functions are the ones the calls run
        with pytest.raises(AssertionError, match="^the call did work$"):
            fit_compensation(model, calib, "nbc", cfg=cfg)
        with pytest.raises(AssertionError, match="^the call did work$"):
            evaluate_pipeline(model, calib, modules, mode="nbc")

    def test_unknown_mode_raises(self):
        model, calib, cfg = desk_setup(0)
        line = "mode must be one of ('none', 'linear', 'nbc'), got 'asinh'"
        with pytest.raises(ValueError, match=re.escape(line)):
            fit_compensation(model, calib, "asinh", cfg=cfg)
        with pytest.raises(ValueError, match=re.escape(line)):
            evaluate_pipeline(model, calib, None, mode="asinh")

    def test_modules_of_another_map_raise_before_the_forward(self, monkeypatch):
        import nbcq.harness as harness_mod

        model, calib, cfg = desk_setup(0)
        nbc, _ = fit_compensation(model, calib, "nbc", cfg=cfg)
        linear, _ = fit_compensation(model, calib, "linear", cfg=cfg)

        def no_forward(*args, **kwargs):
            raise AssertionError("the evaluation set was drawn")

        monkeypatch.setattr(harness_mod, "draw_input_chunks", no_forward)
        for modules, mode, found in [(linear, "nbc", "identity"), (nbc, "linear", "blt"),
                                     (None, "nbc", "none"), (nbc, "none", "blt")]:
            line = f"mode {mode!r} applies {MODE_MAPS[mode]}, the modules apply {found}"
            with pytest.raises(ValueError, match=f"^{re.escape(line)}$"):
                evaluate_pipeline(model, calib, modules, mode=mode)
        mixed = [*nbc[:-1], linear[-1]]
        with pytest.raises(ValueError, match="^block 3 is identity but block 0 is blt; "):
            evaluate_pipeline(model, calib, mixed, mode="nbc")
        # the patched draw is the one evaluation runs
        with pytest.raises(AssertionError, match="^the evaluation set was drawn$"):
            evaluate_pipeline(model, calib, nbc, mode="nbc")

    def test_module_count_other_than_the_block_count_raises_before_the_draw(self, monkeypatch):
        import nbcq.harness as harness_mod

        model, calib, cfg = desk_setup(0)
        nbc, _ = fit_compensation(model, calib, "nbc", cfg=cfg)
        linear, _ = fit_compensation(model, calib, "linear", cfg=cfg)

        def no_draw(*args, **kwargs):
            raise AssertionError("the evaluation set was drawn")

        monkeypatch.setattr(harness_mod, "draw_input_chunks", no_draw)
        # short lists (an IndexError in the forward) and a long one (its
        # extra module's exponent reported as chosen_n)
        extra = dataclasses.replace(nbc[0], kind=TransformKind("blt", -7.0))
        for modules, mode in [([], "none"), (linear[:2], "linear"), (nbc[:3], "nbc"), ([*nbc, extra], "nbc")]:
            line = f"got {len(modules)} modules for 4 blocks; each block takes one"
            with pytest.raises(ValueError, match=f"^{re.escape(line)}$"):
                evaluate_pipeline(model, calib, modules, mode=mode)
        # the patched draw is the one evaluation runs
        with pytest.raises(AssertionError, match="^the evaluation set was drawn$"):
            evaluate_pipeline(model, calib, linear, mode="linear")

    def test_mode_of_modules(self):
        model, calib, cfg = desk_setup(0)
        nbc, _ = fit_compensation(model, calib, "nbc", cfg=cfg)
        linear, _ = fit_compensation(model, calib, "linear", cfg=cfg)
        assert mode_of_modules(None) == mode_of_modules([]) == "none"
        assert mode_of_modules(linear) == "linear"
        assert mode_of_modules(nbc) == "nbc"
        # one map, not one exponent: each block may keep its own n
        per_block = [dataclasses.replace(m, kind=TransformKind("blt", float(k))) for k, m in enumerate(nbc)]
        assert mode_of_modules(per_block) == "nbc"
        with pytest.raises(ValueError, match="^block 1 is blt but block 0 is identity; every block applies one map$"):
            mode_of_modules([linear[0], *nbc[1:]])


class TestSearchCost:
    """Guards the fits' cost by counting their work: every fit transforms
    the 2^bits_a input levels, not rows x d inputs, and solves once."""

    @pytest.mark.parametrize("bits_a", [3, 4])
    def test_design_transform_sees_the_levels_and_every_fit_solves_once(
        self, monkeypatch, bits_a
    ):
        import nbcq.compensation as comp_mod

        model, calib, cfg = desk_setup(0, bits_a=bits_a)
        sizes, solves = [], []
        forward = comp_mod.apply_kind_forward

        def counting_forward(x, kind):
            sizes.append(np.size(x))
            return forward(x, kind)

        def counting(name):
            original = getattr(comp_mod, name)

            def wrapper(*args, **kwargs):
                solves.append(name)
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(comp_mod, "apply_kind_forward", counting_forward)
        monkeypatch.setattr(comp_mod, "solve_least_squares", counting("solve_least_squares"))
        _, result = fit_compensation(model, calib, "nbc", cfg=cfg)
        per_block = result.evaluations * len(calib.records)
        d, levels = 16, 2**bits_a
        assert Counter(sizes) == {
            levels: per_block + len(calib.records),  # the design of every fit, kept ones too
            384 * d: per_block,  # a candidate fit's targets, the residuals of the fit rows
            128 * d: per_block,  # the hold-out apply
            512 * d: len(calib.records),  # the targets of the final refit
        }
        assert Counter(solves) == {"solve_least_squares": per_block + len(calib.records)}


class TestSearchOracle:
    """The search keeps the bits of the reference search in ``helpers``,
    which fits each candidate with ``fit_nbc`` on sliced records and scores
    the whole compensated forward of the hold-out inputs, a whole-array
    step per block."""

    @pytest.mark.parametrize("bits_a", [2, 4, 8])
    @pytest.mark.parametrize(
        "d, h, n_blocks, n_samples, cfg",
        [
            (16, 32, 4, 512, FlsConfig(seed=3)),
            (64, 256, 8, 2048, FlsConfig(n_init=0.0, n_min=0.0, n_max=3.0, seed=3)),
        ],
        ids=["desk", "mid"],
    )
    def test_search_equals_reference_bit_for_bit(self, d, h, n_blocks, n_samples, cfg, bits_a):
        model = build_toy_model(d, h, n_blocks, seed=0)
        calib = generate_calibration(model, n_samples, OutlierSpec(), seed=1, bits_a=bits_a)
        modules, result = fit_compensation(model, calib, "nbc", cfg=cfg)
        ref_modules, ref = reference_search(model, calib, cfg)

        assert result.evaluations >= 3
        assert list(result.history.items()) == list(ref.history.items())
        assert (result.chosen_n, result.evaluations) == (ref.chosen_n, ref.evaluations)
        for mod, want in zip(modules, ref_modules, strict=True):
            assert mod.kind == want.kind
            assert mod.weight.tobytes() == want.weight.tobytes()
            assert mod.bias.tobytes() == want.bias.tobytes()
            assert (mod.ridge_used, mod.residual_rms) == (want.ridge_used, want.residual_rms)
            assert mod.residual_rms is not None


class TestSlopeGapAnalysis:
    def test_clean_linear_relation_no_outliers(self):
        rng = np.random.default_rng(80)
        x = np.concatenate([rng.uniform(-3, 3, 100), [20.0, -20.0]])
        r = 0.5 * x
        before, after = slope_gap_analysis(x, r, 2.0)
        assert before <= 1e-9
        # multiplicative trends are offset-exact in transformed space too
        assert after <= 0.2

    def test_two_population_no_bias_worked_example(self):
        x = np.array([10.0, 1.0, 1.0, 1.0])
        r = np.array([0.0, 1.0, 1.0, 1.0])
        all_slope = float(np.sum(x * r) / np.sum(x * x))  # the no-intercept OLS slope
        inlier_slope = float(np.sum(x[1:] * r[1:]) / np.sum(x[1:] * x[1:]))
        assert abs(all_slope - 3.0 / 103.0) <= 1e-15
        assert abs(all_slope - ols_scalar_bias(1, 4, 10.0, 1.0, 0.0, 1.0)) <= 1e-15
        assert abs(inlier_slope - 1.0) <= 1e-15
        assert abs(abs(all_slope - inlier_slope) - 100.0 / 103.0) <= 1e-12

    # one point past OUTLIER_THRESHOLD (10) and three inliers on r = x
    X_WORKED = np.array([20.0, 2.0, 4.0, 6.0])
    R_WORKED = np.array([0.0, 2.0, 4.0, 6.0])

    def test_intercept_worked_example(self):
        # centred, x is [12, -6, -4, -2] and r is [-3, -1, 1, 3]: the slope
        # of all rows is -40 / 200, and the inliers lie on r = x
        before, _ = slope_gap_analysis(self.X_WORKED, self.R_WORKED, 2.0)
        assert abs(before - 1.2) <= 1e-12

    def test_transform_shrinks_gap_with_searched_exponent(self):
        def gap_after_of(n):
            return slope_gap_analysis(self.X_WORKED, self.R_WORKED, n)[1]

        res = fls_search(FlsConfig(), gap_after_of)
        before, after = slope_gap_analysis(self.X_WORKED, self.R_WORKED, res.chosen_n)
        assert after < before

    def test_scalar_slope_of_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="^x and r must have equal length$"):
            scalar_slope([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_one_sided_partition_reports_none(self):
        assert slope_gap_analysis([1.0, 2.0], [0.1, 0.2], 2.0) is None  # no outliers
        assert slope_gap_analysis([20.0, -30.0], [0.1, 0.2], 2.0) is None  # no inliers


class TestOlsScalarBias:
    def test_no_outliers_degenerates_to_inlier_slope(self):
        assert abs(ols_scalar_bias(0, 8, 10.0, 2.0, 0.0, 1.5) - 1.5 / 2.0) <= 1e-15

    def test_worked_instance(self):
        assert abs(ols_scalar_bias(1, 4, 10.0, 1.0, 0.0, 1.0) - 3.0 / 103.0) <= 1e-15

    def test_worked_instance_against_brute_force(self):
        x = np.array([10.0, 1.0, 1.0, 1.0])
        r = np.array([0.0, 1.0, 1.0, 1.0])
        assert abs(brute_force_slope(x, r) - ols_scalar_bias(1, 4, 10.0, 1.0, 0.0, 1.0)) <= 1e-10

    def test_denominator_domination_limit(self):
        w = ols_scalar_bias(1, 100, 1e9, 1.0, 0.5, 1.0)
        assert abs(w) <= 1e-8

    def test_matches_brute_force_on_random_draws(self):
        rng = np.random.default_rng(90)
        for _ in range(100):
            k = int(rng.integers(1, 5))
            n = int(rng.integers(k + 1, 30))
            big_m = float(rng.uniform(2.0, 50.0))
            small_m = float(rng.uniform(0.1, 2.0))
            r_out = float(rng.uniform(-2.0, 2.0))
            r_in = float(rng.uniform(-2.0, 2.0))
            x = np.concatenate([np.full(k, big_m), np.full(n - k, small_m)])
            r = np.concatenate([np.full(k, r_out), np.full(n - k, r_in)])
            formula = ols_scalar_bias(k, n, big_m, small_m, r_out, r_in)
            assert abs(formula - brute_force_slope(x, r)) <= 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            ols_scalar_bias(4, 4, 10.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            ols_scalar_bias(1, 4, 1.0, 2.0, 0.0, 1.0)


class TestSplitErrorMetrics:
    """``(sum e^2, sum |e| over outliers, sum |e| over inliers, outlier count)``."""

    def test_equal_arrays(self):
        y = np.array([[1.0, 20.0]])
        assert split_error_metrics(y, y.copy(), y.copy()) == (0.0, 0.0, 0.0, 1)

    def test_no_outliers(self):
        y = np.array([[1.0, -2.0]])
        assert split_error_metrics(y, y + 1.0, y.copy()) == (2.0, 0.0, 2.0, 0)

    def test_constructed_partition_sums(self):
        # |x_q| > 10 in column 0 only, the negative entry too
        x_q = np.array([[20.0, 1.0], [-30.0, 10.0]])
        y = np.zeros((2, 2))
        y_hat = np.array([[2.0, 0.5], [-3.0, -0.25]])
        assert split_error_metrics(y, y_hat, x_q) == (4.0 + 0.25 + 9.0 + 0.0625, 5.0, 0.75, 2)

    def test_error_is_left_in_x_q(self):
        x_q = np.array([[20.0, 1.0], [-30.0, 2.0]])
        y = np.array([[1.0, 2.0], [3.0, 4.0]])
        y_hat = np.array([[1.5, 0.0], [4.0, 4.0]])
        split_error_metrics(y, y_hat, x_q)
        assert x_q.tolist() == [[0.5, 2.0], [1.0, 0.0]]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="^y, y_hat and x_q must share one shape$"):
            split_error_metrics(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 3)))

    def test_non_finite_array_named(self):
        with pytest.raises(ValueError, match="^y_hat contains non-finite values$"):
            split_error_metrics(np.zeros((1, 2)), np.array([[0.0, np.inf]]), np.zeros((1, 2)))


class TestMeanOfPartials:
    def test_exactly_rounded_sum_over_count(self):
        assert sum([0.1] * 10) != 1.0
        assert _mean_of_partials([0.1] * 10, 4) == 0.25

    def test_no_elements_reports_absent(self):
        assert _mean_of_partials([], 0) is None

    def test_sum_past_float_max_is_inf(self):
        with pytest.raises(OverflowError):
            math.fsum([1e308, 1e308])
        assert _mean_of_partials([np.float64(1e308), np.float64(1e308)], 2) == math.inf
        assert _mean_of_partials([np.float64(np.inf), 1.0], 2) == math.inf


class TestKurtosisChannelSelection:
    def test_heavy_channel_wins_on_outlier_config(self):
        model, calib, _ = desk_setup(0)
        channel = int(np.argmax(excess_kurtosis(calib.records[-1].x_q)))
        xs = calib.records[-1].x_q[:, channel]
        assert (np.abs(xs) > OUTLIER_THRESHOLD).any()

    def test_constant_column_never_chosen(self):
        rng = np.random.default_rng(75)
        x = rng.standard_normal((400, 4))
        x[:, 0] = 2.0  # ahead of every other column, where argmax looks first
        x[:, 2] = 0.1  # its mean is not exactly 0.1 in floating point
        x[::40, 3] *= 30.0  # the heavy-tailed column
        kurt = excess_kurtosis(x)
        assert not np.isnan(kurt).any()
        assert kurt[0] == -np.inf
        assert int(np.argmax(kurt)) == 3
        assert excess_kurtosis(np.full((5, 2), 2.0)).tolist() == [-np.inf, -np.inf]

