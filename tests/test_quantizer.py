import math

import numpy as np
import pytest

from nbcq.quantizer import (
    SCALE_FLOOR,
    QuantParams,
    fake_quantize,
    grid_round,
    level_codes,
    level_table,
    quantize_per_channel,
    range_params,
    value_range,
)

from helpers import integer_codes, integer_round_trip


# the largest double below 0.5: + 0.5 is 1 - 2^-54, a tie that rounds to 1.0
BELOW_HALF = 0.49999999999999994


class TestRounding:
    def test_half_away_from_zero(self):
        values = [0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 0.49, -0.49]
        expected = [1.0, 2.0, 3.0, -1.0, -2.0, -3.0, 0.0, -0.0]
        assert np.array_equal(grid_round(values, 1.0, -np.inf, np.inf), expected)

    def test_clips_to_the_bounds_and_writes_out(self):
        x = np.array([-7.0, -1.25, 0.75, 9.0])
        # x / 0.5 is [-14, -2.5, 1.5, 18]
        assert grid_round(x, 0.5, -3, 3).tolist() == [-3.0, -3.0, 2.0, 3.0]
        assert grid_round(x, 0.5, -3, 3, out=x) is x and x.tolist() == [-3.0, -3.0, 2.0, 3.0]

    def test_float_edges_round_to_nearest(self):
        # a power-of-two scale, so x / scale is exact and only the rounding is tested
        scale = 0.25
        got = grid_round(np.array([BELOW_HALF, -BELOW_HALF, 2.0**52 + 1, -(2.0**52 + 1)]) * scale,
                         scale, -np.inf, np.inf)
        assert got.tolist() == [0.0, 0.0, 2.0**52 + 1, -(2.0**52 + 1)]
        assert np.signbit(got).tolist() == [False, True, False, True]
        k = np.arange(301, dtype=np.float64)
        for sign in (1.0, -1.0):
            ties = grid_round(sign * (k + 0.5) * scale, scale, -np.inf, np.inf)
            assert np.array_equal(ties, sign * (k + 1.0))
        assert fake_quantize([BELOW_HALF * 0.5], QuantParams(4, 0.5, 0)).tolist() == [0.0]
        assert quantize_per_channel([[0.0, BELOW_HALF, 15.0]], 4).dequantize().tolist() == [[0.0, 0.0, 15.0]]


class TestCalibrateParams:
    def test_range_spanning_exact_steps(self):
        p = range_params(*value_range([0.0, 1.0, 2.0, 3.0]), bits=2)
        assert p.scale == 1.0
        assert p.zero_point == 0

    def test_asymmetric_range_eight_bits(self):
        p = range_params(*value_range([-1.0, 0.3, 1.55]), bits=8)
        assert abs(p.scale - 0.01) <= 1e-15
        assert p.zero_point == 100

    @pytest.mark.parametrize("value", [5.0, -5.0])
    def test_constant_tensor_comes_back_exactly(self, value):
        # the range [min(x, 0), max(x, 0)] puts the constant at an end level
        x = np.full(3, value)
        p = range_params(*value_range(x), bits=4)
        assert p.scale == 5.0 / 15 and p.zero_point == (0 if value > 0 else 15)
        assert fake_quantize(x, p).tolist() == x.tolist()

    def test_all_zero_tensor_hits_scale_floor(self):
        p = range_params(*value_range([0.0, -0.0, 0.0]), bits=4)
        assert p.scale == SCALE_FLOOR and p.zero_point == 0

    def test_bits_out_of_range(self):
        for bits in (1, 9, 0, -2):
            with pytest.raises(ValueError, match="bits"):
                range_params(*value_range([0.0, 1.0]), bits=bits)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            range_params(*value_range([]), bits=4)


class TestQuantizeDequantize:
    def test_unit_scale_integer_input(self):
        assert fake_quantize([1.0], QuantParams(2, 1.0, 0))[0] == 1.0

    def test_direct_code_example(self):
        # 0.5 / 0.01 + 100 is code 150, which maps back to 0.01 * 50
        back = fake_quantize([0.5], QuantParams(8, 0.01, 100))[0]
        assert back == 0.01 * 50 and abs(back - 0.5) <= 1e-12

    def test_saturation(self):
        # code 3, the top of two bits
        assert fake_quantize([10.0], QuantParams(2, 1.0, 0))[0] == 3.0

    def test_dequantize_examples(self):
        # between grid points: 0.5049 / 0.01 rounds to 50 steps above the zero point
        assert fake_quantize([0.5049], QuantParams(8, 0.01, 100))[0] == 0.01 * 50
        assert fake_quantize([-0.7], QuantParams(2, 1.0, 2))[0] == -1.0

    def test_zero_point_maps_to_zero(self):
        for scale in (0.3, 1.0, 17.5):
            back = fake_quantize([0.0, 0.4 * scale, -0.4 * scale], QuantParams(4, scale, 7))
            assert np.array_equal(back, [0.0, 0.0, 0.0]) and not np.signbit(back).any()

    def test_tie_rounding_is_half_away(self):
        # 2.5 / 1.0 rounds to 3 under half-away, 2 under ties-to-even
        assert fake_quantize([2.5], QuantParams(3, 1.0, 0))[0] == 3.0
        # code -3 + 4 = 1, one step above the bottom of [0, 7]
        assert fake_quantize([-2.5], QuantParams(3, 1.0, 4))[0] == -3.0


class TestPerChannel:
    def test_rowwise_scales(self):
        # scales 1 and 10: 1.2 and 12 both round down one step
        w = np.array([[0.0, 1.2, 2.0, 3.0], [0.0, 12.0, 20.0, 30.0]])
        q = quantize_per_channel(w, bits=2)
        assert q.codes.tolist() == [[0, 1, 2, 3], [0, 1, 2, 3]]
        assert q.scale.tolist() == [1.0, 10.0] and q.zero_point.tolist() == [0.0, 0.0]
        assert np.array_equal(q.dequantize(), [[0.0, 1.0, 2.0, 3.0], [0.0, 10.0, 20.0, 30.0]])

    def test_single_row_matches_per_tensor(self):
        rng = np.random.default_rng(23)
        row = rng.standard_normal((1, 32))
        per_channel = quantize_per_channel(row, bits=6).dequantize()
        per_tensor = integer_round_trip(row[0], range_params(*value_range(row[0]), 6))
        assert per_channel[0].tobytes() == per_tensor.tobytes()

    def test_all_zero_rows_code_at_zero_point(self):
        q = quantize_per_channel(np.zeros((3, 5)), bits=4)
        assert np.array_equal(q.codes, np.broadcast_to(q.zero_point[:, None], (3, 5)))
        w = q.dequantize()
        assert np.array_equal(w, np.zeros((3, 5))) and not np.signbit(w).any()

    def test_rank_enforced(self):
        with pytest.raises(ValueError):
            quantize_per_channel(np.zeros(4), bits=4)


class TestFakeQuantizeOracle:
    """The fused path against the two-step integer round trip, bit for bit."""

    @staticmethod
    def assert_same_bits(x, p):
        fused = fake_quantize(x, p)
        oracle = integer_round_trip(x, p)
        assert fused.dtype == oracle.dtype and fused.shape == oracle.shape
        assert fused.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_exact_halves_and_clip_ends(self, bits):
        top = 2**bits - 1
        for zero in (0, top, top // 2):
            for scale in (0.25, 0.37, 1.0, 3e-7):
                p = QuantParams(bits, scale, zero)
                k = np.arange(-top - 3, top + 4, dtype=np.float64)
                halves = np.concatenate([k + 0.5, k - 0.5, -(k + 0.5)]) * scale
                beyond = np.array([-1e12, -(top + 5) * scale, (top + 5) * scale, 1e12])
                x = np.concatenate([halves, beyond, k * scale, [0.0, -0.0, 1e-300, -1e-300]])
                self.assert_same_bits(x, p)

    def test_random_negative_heavy_tensor(self):
        rng = np.random.default_rng(41)
        x = rng.standard_normal((64, 48)) * 5.0 - 2.0
        for bits in (2, 3, 4, 8):
            self.assert_same_bits(x, range_params(*value_range(x[:8]), bits))

    def test_input_not_modified(self):
        x = np.array([[-1.5, 0.5], [2.5, 7.0]])
        before = x.copy()
        fake_quantize(x, QuantParams(3, 1.0, 4))
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            fake_quantize(np.array([0.0, bad]), QuantParams(4, 0.5, 8))


class TestPerChannelOracle:
    """Vectorized per-row quantization against a loop over single rows."""

    @staticmethod
    def loop(w, bits):
        return [fake_quantize(row, range_params(*value_range(row), bits)) for row in w]

    @pytest.mark.parametrize("bits", range(2, 9))
    def test_matches_row_loop_with_constant_rows(self, bits):
        rng = np.random.default_rng(43)
        w = rng.standard_normal((10, 17)) * rng.uniform(0.01, 30.0, (10, 1))
        w[2] = 3.25  # constant row: its value is the top level
        w[3] = -0.75  # constant negative row: its value is the bottom level
        w[5] = 0.0
        w[7] = -np.abs(w[7])  # all-negative row: zero point at the top
        w[8] = np.abs(w[8])  # all-positive row: zero point 0
        top = 2**bits - 1
        w[0] = np.linspace(-0.5, top - 0.5, 17)  # scale 1, -min/scale an exact half
        w[1] = np.linspace(-2.5, top - 2.5, 17)
        q = quantize_per_channel(w, bits)
        # one byte per entry, and the codes and zero points span [0, 2^bits - 1]
        assert q.codes.dtype == np.uint8 and q.codes.shape == w.shape
        assert q.codes.nbytes == w.size and q.codes.max() == top
        assert q.zero_point[7] == top and q.zero_point[3] == top and q.zero_point[8] == 0
        deq = q.dequantize()
        assert deq.dtype == np.float64 and deq.shape == w.shape
        for i, (got, row, want) in enumerate(zip(deq, w, self.loop(w, bits))):
            p = range_params(*value_range(row), bits)
            assert (q.scale[i], q.zero_point[i]) == (p.scale, p.zero_point)
            assert got.tobytes() == want.tobytes()
            assert got.tobytes() == integer_round_trip(row, p).tobytes()
            assert q.codes[i].tolist() == integer_codes(row, p).tolist()

    def test_validation_errors_unchanged(self):
        with pytest.raises(ValueError, match="bits"):
            quantize_per_channel(np.ones((2, 3)), bits=9)
        with pytest.raises(ValueError, match="empty"):
            quantize_per_channel(np.ones((2, 0)), bits=4)
        with pytest.raises(ValueError, match="non-finite"):
            quantize_per_channel(np.array([[0.0, np.nan]]), bits=4)
        with pytest.raises(ValueError, match="dimension"):
            quantize_per_channel(np.ones((2, 3, 1)), bits=4)

    def test_zero_row_weight_still_checks_the_bit_width(self):
        with pytest.raises(ValueError, match=r"^bits must be in \[2, 8\], got 99$"):
            quantize_per_channel(np.zeros((0, 3)), 99)
        empty = quantize_per_channel(np.zeros((0, 3)), 4)
        assert empty.codes.shape == (0, 3) and empty.codes.dtype == np.uint8
        assert empty.dequantize().shape == (0, 3)
        # a weight with no column is empty, with rows or without
        with pytest.raises(ValueError, match="^calibration tensor is empty$"):
            quantize_per_channel(np.zeros((0, 0)), 4)


class TestProperties:
    def test_round_trip_bound(self):
        rng = np.random.default_rng(29)
        for bits in (2, 4, 8):
            for _ in range(20):
                x = rng.standard_normal(200) * rng.uniform(0.1, 50.0)
                p = range_params(*value_range(x), bits)
                back = fake_quantize(x, p)
                assert np.max(np.abs(back - x)) <= p.scale / 2 + 1e-12

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_one_sided_tensors_and_rows_within_half_a_step(self, bits):
        # the range widened to hold zero: scale max|x| / (2^bits - 1), every
        # value inside it, so each comes back to within half a step
        rng = np.random.default_rng(47)
        top = 2**bits - 1
        rows = [[10.0, 10.5, 11.0], [-3.0, -2.0, -1.0], [1e300, 1e300]]
        rows += list(rng.uniform(0.5, 20.0, (6, 7)) * rng.choice([-1.0, 1.0], (6, 1)) + 1e-3)
        for row in map(np.asarray, rows):
            slack = np.spacing(np.abs(row))  # the rounding of x / scale and code * scale
            half_step = np.abs(row).max() / top / 2
            per_tensor = fake_quantize(row, range_params(*value_range(row), bits))
            assert np.all(np.abs(per_tensor - row) <= half_step + slack)
            per_channel = quantize_per_channel(row[None, :], bits).dequantize()[0]
            assert np.all(np.abs(per_channel - row) <= half_step + slack)
        assert quantize_per_channel([[1e300, 1e300]], 4).dequantize().tolist() == [[1e300, 1e300]]

    def test_quantize_idempotent_on_codes(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal(500) * 3.0
        p = range_params(*value_range(x), 4)
        q1 = fake_quantize(x, p)
        q2 = fake_quantize(q1, p)
        assert q1.tobytes() == q2.tobytes()

    def test_monotonicity(self):
        rng = np.random.default_rng(37)
        p = QuantParams(5, 0.37, 11)
        pairs = rng.standard_normal((500, 2)) * 20.0
        lo = pairs.min(axis=1)
        hi = pairs.max(axis=1)
        assert np.all(fake_quantize(lo, p) <= fake_quantize(hi, p))

    def test_codes_always_in_range(self):
        p = QuantParams(3, 0.05, 2)
        x = np.array([-1e12, -5.0, 0.0, 5.0, 1e12, 1e-300])
        back = fake_quantize(x, p)
        # codes 0 and 7 map back to (0 - 2) and (7 - 2) steps, scaled as the kernel does
        assert back.min() == (0 - 2) * 0.05 and back.max() == (7 - 2) * 0.05


class TestLevelTable:
    """``level_table(p)[level_codes(x_q, p)]`` rebuilds a fake-quantized
    tensor bit for bit, sign bit included, from the integer oracle's codes."""

    @staticmethod
    def assert_rebuilds(x, p):
        x_q = fake_quantize(x, p)
        codes = level_codes(x_q, p)
        assert codes.dtype == np.uint8 and codes.shape == x_q.shape
        assert np.array_equal(codes, integer_codes(x, p))
        levels = level_table(p)
        assert levels.shape == (2**p.bits,)
        rebuilt = levels[codes]
        assert rebuilt.tobytes() == x_q.tobytes()
        assert np.array_equal(np.signbit(rebuilt), np.signbit(x_q))

    @pytest.mark.parametrize("bits", range(2, 9))
    def test_levels_at_codes_equal_fake_quantize(self, bits):
        rng = np.random.default_rng(bits)
        x = rng.standard_normal((96, 24)) * 3.0 - 1.0
        x[::9, 0] *= 40.0  # an outlier channel
        # ranges from a part of the rows, so the rest also clips at both ends
        for p in (range_params(*value_range(x[:12]), bits), range_params(*value_range(x), bits)):
            self.assert_rebuilds(np.concatenate([x.ravel(), [0.0, -0.0, 1e-300, -1e-300]]), p)

    @pytest.mark.parametrize("value", [5.0, -5.0, 0.0, -0.0])
    def test_constant_tensor(self, value):
        x = np.full((4, 3), value)
        p = range_params(*value_range(x), 4)
        if value == 0.0:  # only the all-zero tensor reaches the scale floor
            assert p.scale == SCALE_FLOOR
        else:  # a nonzero constant comes back exactly
            assert fake_quantize(x, p).tolist() == x.tolist()
        self.assert_rebuilds(x, p)

    @pytest.mark.parametrize("bits", [2, 8])
    def test_end_codes_round_trip_through_uint8(self, bits):
        top = 2**bits - 1
        p = QuantParams(bits, 0.25, 2 ** (bits - 1))
        codes = level_codes(level_table(p), p)
        assert codes.dtype == np.uint8 and codes.tolist() == list(range(top + 1))
        # values past both ends of the range clip to codes 0 and 2^bits - 1
        x_q = fake_quantize([-1e9, 1e9, -1e9], p)
        assert level_codes(x_q, p).tolist() == [0, top, 0]
        assert level_table(p)[level_codes(x_q, p)].tobytes() == x_q.tobytes()


class TestValidation:
    def test_quant_params_invariants(self):
        for scale in (-0.1, 0.0, float("nan"), float("inf"), float("-inf"), np.float64("nan")):
            with pytest.raises(ValueError, match="scale"):
                QuantParams(4, scale, 0)
        with pytest.raises(ValueError):
            QuantParams(4, 1.0, 16)
        with pytest.raises(ValueError):
            QuantParams(1, 1.0, 0)

    def test_overflowing_range_rejected_naming_the_scale(self):
        # max - min overflows float64: no finite scale encodes the range
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="scale"):
                quantize_per_channel(np.array([[-1e308, 1e308]]), 4)
            with pytest.raises(ValueError, match="scale"):
                range_params(*value_range(np.array([-1e308, 1e308])), 4)
            with pytest.raises(ValueError, match="scale"):
                quantize_per_channel(np.array([[0.0, 1.0], [-1e308, 1e308]]), 4)
        # max / 3 is a finite scale, but 3 * scale, the top level, rounds to
        # inf; rejected without a warning
        f64_max = float(np.finfo(np.float64).max)
        assert math.isinf(3 * (f64_max / 3))
        with pytest.raises(ValueError, match=r"^scale must be positive and finite: a row's range overflows"):
            quantize_per_channel(np.array([[0.0, 1.0], [0.0, f64_max]]), 2)
        with pytest.raises(ValueError, match=r"^scale must be positive and finite, and so must"):
            range_params(*value_range(np.array([0.0, f64_max])), 2)
        with pytest.raises(ValueError, match=r"got 5\.99"):
            QuantParams(2, f64_max / 3, 0)
        QuantParams(2, 5.99e307, 0)  # 3 * scale = 1.797e308, just inside float64
