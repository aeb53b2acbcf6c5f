import numpy as np
import pytest

from nbcq.quantizer import (
    SCALE_FLOOR,
    QuantParams,
    QuantizedTensor,
    calibrate_params,
    dequantize,
    fake_quantize,
    quantize,
    quantize_per_channel,
    round_half_away,
)


class TestRounding:
    def test_half_away_from_zero(self):
        values = [0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 0.49, -0.49]
        expected = [1.0, 2.0, 3.0, -1.0, -2.0, -3.0, 0.0, -0.0]
        assert np.array_equal(round_half_away(values), expected)


class TestCalibrateParams:
    def test_range_spanning_exact_steps(self):
        p = calibrate_params([0.0, 1.0, 2.0, 3.0], bits=2)
        assert p.scale == 1.0
        assert p.zero_point == 0

    def test_asymmetric_range_eight_bits(self):
        p = calibrate_params([-1.0, 0.3, 1.55], bits=8)
        assert abs(p.scale - 0.01) <= 1e-15
        assert p.zero_point == 100

    def test_constant_tensor_hits_scale_floor(self):
        p = calibrate_params([5.0, 5.0, 5.0], bits=4)
        assert p.scale == SCALE_FLOOR
        assert 0 <= p.zero_point <= 15

    def test_bits_out_of_range(self):
        for bits in (1, 9, 0, -2):
            with pytest.raises(ValueError, match="bits"):
                calibrate_params([0.0, 1.0], bits=bits)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            calibrate_params([], bits=4)


class TestQuantizeDequantize:
    def test_unit_scale_integer_input(self):
        q = quantize([1.0], QuantParams(2, 1.0, 0))
        assert q.codes[0] == 1

    def test_direct_code_example(self):
        q = quantize([0.5], QuantParams(8, 0.01, 100))
        assert q.codes[0] == 150

    def test_saturation(self):
        q = quantize([10.0], QuantParams(2, 1.0, 0))
        assert q.codes[0] == 3

    def test_dequantize_examples(self):
        assert dequantize(QuantizedTensor(np.array([1]), QuantParams(2, 1.0, 0)))[0] == 1.0
        back = dequantize(QuantizedTensor(np.array([150]), QuantParams(8, 0.01, 100)))[0]
        assert abs(back - 0.5) <= 1e-12

    def test_zero_point_maps_to_zero(self):
        for scale in (0.3, 1.0, 17.5):
            q = QuantizedTensor(np.array([7]), QuantParams(4, scale, 7))
            assert dequantize(q)[0] == 0.0

    def test_tie_rounding_is_half_away(self):
        # 2.5 / 1.0 rounds to 3 under half-away, 2 under ties-to-even
        assert quantize([2.5], QuantParams(3, 1.0, 0)).codes[0] == 3
        assert quantize([-2.5], QuantParams(3, 1.0, 4)).codes[0] == 1


class TestPerChannel:
    def test_rowwise_scales(self):
        w = np.array([[0.0, 1.0, 2.0, 3.0], [0.0, 10.0, 20.0, 30.0]])
        q = quantize_per_channel(w, bits=2)
        assert q.params[0].scale == 1.0
        assert q.params[1].scale == 10.0

    def test_single_row_matches_per_tensor(self):
        rng = np.random.default_rng(23)
        row = rng.standard_normal((1, 32))
        per_channel = quantize_per_channel(row, bits=6)
        per_tensor = quantize(row[0], calibrate_params(row[0], 6))
        assert np.array_equal(per_channel.codes[0], per_tensor.codes)

    def test_all_zero_rows_code_at_zero_point(self):
        q = quantize_per_channel(np.zeros((3, 5)), bits=4)
        for i, p in enumerate(q.params):
            assert np.all(q.codes[i] == p.zero_point)

    def test_rank_enforced(self):
        with pytest.raises(ValueError):
            quantize_per_channel(np.zeros(4), bits=4)


class TestFakeQuantizeOracle:
    """The fused path against the two-step integer round trip, bit for bit."""

    @staticmethod
    def assert_same_bits(x, p):
        fused = fake_quantize(x, p)
        oracle = dequantize(quantize(x, p))
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
            self.assert_same_bits(x, calibrate_params(x[:8], bits))

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
        params = [calibrate_params(row, bits) for row in w]
        codes = np.array([quantize(row, p).codes for row, p in zip(w, params)])
        return codes, params

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_matches_row_loop_with_constant_rows(self, bits):
        rng = np.random.default_rng(43)
        w = rng.standard_normal((9, 17)) * rng.uniform(0.01, 30.0, (9, 1))
        w[2] = 3.25  # constant row: scale floor
        w[5] = 0.0
        w[7] = -np.abs(w[7])  # all-negative row: zero point at the top
        top = 2**bits - 1
        w[0] = np.linspace(-0.5, top - 0.5, 17)  # scale 1, -min/scale an exact half
        w[1] = np.linspace(-2.5, top - 2.5, 17)
        q = quantize_per_channel(w, bits)
        codes, params = self.loop(w, bits)
        assert q.per_channel
        assert q.codes.dtype == np.int64
        assert np.array_equal(q.codes, codes)
        assert q.params == params
        assert all(type(p.scale) is float and type(p.zero_point) is int for p in q.params)

    def test_validation_errors_unchanged(self):
        with pytest.raises(ValueError, match="bits"):
            quantize_per_channel(np.ones((2, 3)), bits=9)
        with pytest.raises(ValueError, match="empty"):
            quantize_per_channel(np.ones((2, 0)), bits=4)
        with pytest.raises(ValueError, match="non-finite"):
            quantize_per_channel(np.array([[0.0, np.nan]]), bits=4)


class TestProperties:
    def test_round_trip_bound(self):
        rng = np.random.default_rng(29)
        for bits in (2, 4, 8):
            for _ in range(20):
                x = rng.standard_normal(200) * rng.uniform(0.1, 50.0)
                p = calibrate_params(x, bits)
                back = dequantize(quantize(x, p))
                assert np.max(np.abs(back - x)) <= p.scale / 2 + 1e-12

    def test_quantize_idempotent_on_codes(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal(500) * 3.0
        p = calibrate_params(x, 4)
        q1 = quantize(x, p)
        q2 = quantize(dequantize(q1), p)
        assert np.array_equal(q1.codes, q2.codes)

    def test_monotonicity(self):
        rng = np.random.default_rng(37)
        p = QuantParams(5, 0.37, 11)
        pairs = rng.standard_normal((500, 2)) * 20.0
        lo = pairs.min(axis=1)
        hi = pairs.max(axis=1)
        assert np.all(quantize(lo, p).codes <= quantize(hi, p).codes)

    def test_codes_always_in_range(self):
        p = QuantParams(3, 0.05, 2)
        x = np.array([-1e12, -5.0, 0.0, 5.0, 1e12, 1e-300])
        codes = quantize(x, p).codes
        assert codes.min() >= 0 and codes.max() <= 7


class TestValidation:
    def test_quant_params_invariants(self):
        for scale in (-0.1, 0.0, float("nan"), float("inf"), float("-inf"), np.float64("nan")):
            with pytest.raises(ValueError, match="scale"):
                QuantParams(4, scale, 0)
        with pytest.raises(ValueError):
            QuantParams(4, 1.0, 16)
        with pytest.raises(ValueError):
            QuantParams(1, 1.0, 0)

    def test_quantized_tensor_code_range_checked(self):
        with pytest.raises(ValueError, match="codes"):
            QuantizedTensor(np.array([16]), QuantParams(4, 1.0, 0))

    def test_per_channel_params_length_checked(self):
        with pytest.raises(ValueError, match="channel params"):
            QuantizedTensor(np.zeros((3, 2), dtype=np.int64), [QuantParams(4, 1.0, 0)] * 2)
