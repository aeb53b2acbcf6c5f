import numpy as np
import pytest

from nbcq.errors import FitError
from nbcq.numerics import solve_least_squares

from helpers import pinv_affine_fit


def augmented(design):
    """``design`` with the bias column of ones appended, as the solver takes it."""
    design = np.asarray(design, dtype=np.float64)
    return np.hstack([design, np.ones((design.shape[0], 1))])


class TestSolveLeastSquares:
    def test_exact_linear_relation(self):
        sol = solve_least_squares(augmented([[1.0], [2.0], [3.0]]), [[2.0], [4.0], [6.0]])
        assert abs(sol.weight[0, 0] - 2.0) <= 1e-12
        assert abs(sol.bias[0]) <= 1e-12
        assert sol.ridge_used == 0.0

    def test_exact_affine_two_points(self):
        sol = solve_least_squares(augmented([[1.0], [2.0]]), [[3.0], [5.0]])
        assert abs(sol.weight[0, 0] - 2.0) <= 1e-12
        assert abs(sol.bias[0] - 1.0) <= 1e-12

    def test_matches_pinv_oracle(self):
        rng = np.random.default_rng(3)
        design = rng.standard_normal((50, 4))
        targets = rng.standard_normal((50, 2))
        sol = solve_least_squares(augmented(design), targets)
        w_ref, b_ref = pinv_affine_fit(design, targets)
        assert np.max(np.abs(sol.weight - w_ref)) <= 1e-8
        assert np.max(np.abs(sol.bias - b_ref)) <= 1e-8

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(5)
        design = rng.standard_normal((80, 6))
        targets = rng.standard_normal((80, 3))
        aug = augmented(design)
        sol = solve_least_squares(aug, targets)
        resid = targets - design @ sol.weight.T - sol.bias
        assert np.max(np.abs(aug.T @ resid)) <= 1e-8

    def test_singular_design_fallback_records_ridge(self):
        design = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        targets = np.array([[1.0], [2.0], [3.0]])
        sol = solve_least_squares(augmented(design), targets)
        assert sol.ridge_used > 0.0

    def test_constant_column_degenerate_with_bias(self):
        # a constant design column duplicates the bias column exactly
        design = np.full((5, 1), 5.0)
        targets = np.arange(5.0).reshape(-1, 1)
        sol = solve_least_squares(augmented(design), targets)
        assert sol.ridge_used > 0.0

    def test_singular_after_the_ridge_fallback_is_a_fit_error(self, monkeypatch):
        def never_factors(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", never_factors)
        with pytest.raises(FitError, match="^normal equations remain singular after the ridge fallback$"):
            solve_least_squares(augmented([[1.0], [2.0], [3.0]]), [[2.0], [4.0], [6.0]])

    def test_too_few_rows(self):
        with pytest.raises(FitError, match="at least"):
            solve_least_squares(np.ones((3, 4)), np.ones((3, 1)))

    def test_design_and_targets_of_other_row_counts_rejected(self):
        with pytest.raises(ValueError, match="^design has 4 rows but targets has 3$"):
            solve_least_squares(np.ones((4, 2)), np.ones((3, 1)))

    @pytest.mark.parametrize("last", [0.0, 2.0, np.nextafter(1.0, 2.0)])
    def test_design_without_its_bias_column_rejected(self, last):
        design = np.ones((4, 2))
        design[2, 1] = last
        with pytest.raises(ValueError, match="^design must end in a column of ones"):
            solve_least_squares(design, np.ones((4, 1)))
        with pytest.raises(ValueError, match="^design must end in a column of ones"):
            solve_least_squares(np.ones((4, 0)), np.ones((4, 1)))

    def test_negative_ridge_rejected(self):
        with pytest.raises(ValueError):
            solve_least_squares(np.ones((4, 2)), np.ones((4, 1)), ridge=-1.0)

    def test_ridge_shrinks_weights(self):
        rng = np.random.default_rng(13)
        design = rng.standard_normal((30, 3))
        targets = rng.standard_normal((30, 1))
        loose = solve_least_squares(augmented(design), targets, ridge=0.0)
        tight = solve_least_squares(augmented(design), targets, ridge=1e3)
        assert np.linalg.norm(tight.weight) < np.linalg.norm(loose.weight)
        assert tight.ridge_used == 1e3

