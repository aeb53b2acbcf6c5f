import numpy as np
import pytest

from nbcq.errors import FitError
from nbcq.numerics import encode_f16_roundtrip, solve_least_squares

from helpers import f16_roundtrip_struct, pinv_affine_fit


class TestSolveLeastSquares:
    def test_exact_linear_relation(self):
        sol = solve_least_squares([[1.0], [2.0], [3.0]], [[2.0], [4.0], [6.0]])
        assert abs(sol.weight[0, 0] - 2.0) <= 1e-12
        assert abs(sol.bias[0]) <= 1e-12
        assert sol.residual_rms <= 1e-10
        assert sol.ridge_used == 0.0

    def test_exact_affine_two_points(self):
        sol = solve_least_squares([[1.0], [2.0]], [[3.0], [5.0]])
        assert abs(sol.weight[0, 0] - 2.0) <= 1e-12
        assert abs(sol.bias[0] - 1.0) <= 1e-12

    def test_matches_pinv_oracle(self):
        rng = np.random.default_rng(3)
        design = rng.standard_normal((50, 4))
        targets = rng.standard_normal((50, 2))
        sol = solve_least_squares(design, targets)
        w_ref, b_ref = pinv_affine_fit(design, targets)
        assert np.max(np.abs(sol.weight - w_ref)) <= 1e-8
        assert np.max(np.abs(sol.bias - b_ref)) <= 1e-8

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(5)
        design = rng.standard_normal((80, 6))
        targets = rng.standard_normal((80, 3))
        sol = solve_least_squares(design, targets)
        aug = np.hstack([design, np.ones((80, 1))])
        resid = targets - design @ sol.weight.T - sol.bias
        assert np.max(np.abs(aug.T @ resid)) <= 1e-8

    def test_exact_on_consistent_system(self):
        rng = np.random.default_rng(9)
        design = rng.standard_normal((40, 5))
        w_true = rng.standard_normal((2, 5))
        b_true = rng.standard_normal(2)
        sol = solve_least_squares(design, design @ w_true.T + b_true)
        assert sol.residual_rms <= 1e-10

    def test_singular_design_fallback_records_ridge(self):
        design = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        targets = np.array([[1.0], [2.0], [3.0]])
        sol = solve_least_squares(design, targets)
        assert sol.ridge_used > 0.0
        # the regularized fit still reproduces the consistent targets closely
        assert sol.residual_rms <= 1e-4

    def test_constant_column_degenerate_with_bias(self):
        # a constant design column duplicates the bias column exactly
        design = np.full((5, 1), 5.0)
        targets = np.arange(5.0).reshape(-1, 1)
        sol = solve_least_squares(design, targets)
        assert sol.ridge_used > 0.0

    def test_too_few_rows(self):
        with pytest.raises(FitError, match="at least"):
            solve_least_squares(np.ones((3, 3)), np.ones((3, 1)))

    def test_negative_ridge_rejected(self):
        with pytest.raises(ValueError):
            solve_least_squares(np.ones((4, 1)), np.ones((4, 1)), ridge=-1.0)

    def test_ridge_shrinks_weights(self):
        rng = np.random.default_rng(13)
        design = rng.standard_normal((30, 3))
        targets = rng.standard_normal((30, 1))
        loose = solve_least_squares(design, targets, ridge=0.0)
        tight = solve_least_squares(design, targets, ridge=1e3)
        assert np.linalg.norm(tight.weight) < np.linalg.norm(loose.weight)
        assert tight.ridge_used == 1e3


class TestEncodeF16Roundtrip:
    def test_exactly_representable(self):
        out = encode_f16_roundtrip([0.0, 1.0, -2.5, 65504.0])
        assert np.array_equal(out, [0.0, 1.0, -2.5, 65504.0])

    def test_tenth_rounds_to_frozen_value(self):
        assert encode_f16_roundtrip([0.1])[0] == 0.0999755859375

    def test_matches_struct_codec(self):
        rng = np.random.default_rng(17)
        values = np.concatenate([
            rng.standard_normal(100) * 10.0,
            rng.standard_normal(50) * 1e-4,
            [6.1e-5, -6.1e-5, 5e-8, 65503.0],
        ])
        ours = encode_f16_roundtrip(values)
        ref = np.array([f16_roundtrip_struct(v) for v in values])
        assert np.array_equal(ours, ref)

    def test_idempotent_bit_exact(self):
        rng = np.random.default_rng(19)
        values = rng.standard_normal(200) * 100.0
        once = encode_f16_roundtrip(values)
        twice = encode_f16_roundtrip(once)
        assert once.tobytes() == twice.tobytes()

    def test_overflow_names_index(self):
        with pytest.raises(ValueError, match="flat index 2"):
            encode_f16_roundtrip([1.0, 2.0, 70000.0, 3.0])

    def test_overflow_threshold(self):
        # 65519.99... still rounds down to the largest finite half
        assert encode_f16_roundtrip([65519.9])[0] == 65504.0
        with pytest.raises(ValueError, match="overflows"):
            encode_f16_roundtrip([65520.0])
