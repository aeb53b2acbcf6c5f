import re
import warnings

import numpy as np
import pytest

from nbcq.compensation import CalibrationRecord
from nbcq.errors import EvaluatorError, FitError
from nbcq.fls import (
    TERMINATED_BOUNDS,
    TERMINATED_LOCAL_MINIMUM,
    MIN_STEP,
    FlsConfig,
    check_fit_rows,
    compute_feature_loss,
    fls_search,
    holdout_split,
    search_n_for_pipeline,
)

from helpers import exhaustive_grid_minimum, grid_points


class TestComputeFeatureLoss:
    def test_identical_inputs(self):
        f = np.random.default_rng(0).standard_normal((8, 4))
        assert compute_feature_loss(f, f) == 0.0

    def test_hand_value(self):
        assert compute_feature_loss([[1.0, 1.0]], [[0.0, 0.0]]) == 1.0

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((10, 3))
        b = rng.standard_normal((10, 3))
        base = compute_feature_loss(a, b)
        scaled = compute_feature_loss(3.0 * a, 3.0 * b)
        assert abs(scaled - 9.0 * base) <= 1e-12 * max(1.0, scaled)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            compute_feature_loss(np.zeros((2, 2)), np.zeros((2, 3)))


class TestHoldoutSplit:
    def test_512_records_split_384_128(self):
        records = list(range(512))
        fit, hold = holdout_split(records, FlsConfig(seed=5))
        assert len(fit) == 384 and len(hold) == 128
        assert sorted(fit + hold) == records
        assert not set(fit) & set(hold)

    def test_same_seed_identical_partition(self):
        records = list(range(100))
        cfg = FlsConfig(seed=77)
        assert holdout_split(records, cfg) == holdout_split(records, cfg)

    def test_different_seed_differs(self):
        records = list(range(100))
        a = holdout_split(records, FlsConfig(seed=1))
        b = holdout_split(records, FlsConfig(seed=2))
        assert a != b

    def test_each_side_keeps_the_input_order(self):
        records = list(range(101))
        for seed in range(5):
            fit, hold = holdout_split(records, FlsConfig(seed=seed))
            assert fit == sorted(fit) and hold == sorted(hold)

    def test_four_records_floor_rule(self):
        fit, hold = holdout_split(list(range(4)), FlsConfig(seed=0))
        assert len(fit) == 3 and len(hold) == 1

    def test_minimum_one_holdout(self):
        fit, hold = holdout_split(list(range(3)), FlsConfig(seed=0, holdout_fraction=0.01))
        assert len(hold) == 1

    def test_fewer_than_two_records(self):
        with pytest.raises(ValueError, match="at least 2"):
            holdout_split([1], FlsConfig())


class TestFlsSearch:
    def test_trace_oracle_parabola(self):
        res = fls_search(FlsConfig(), lambda n: (n - 3.0) ** 2)
        assert list(res.history.keys()) == [2.0, 3.0, 1.0, 4.0, 0.0]
        assert res.chosen_n == 3.0
        assert res.evaluations == 5
        assert res.terminated_by == TERMINATED_LOCAL_MINIMUM

    def test_increasing_loss_from_lower_bound(self):
        res = fls_search(FlsConfig(n_init=-10.0), lambda n: n)
        assert res.chosen_n == -10.0
        assert res.terminated_by == TERMINATED_BOUNDS

    def test_flat_landscape_ties_to_first_explored(self):
        res = fls_search(FlsConfig(), lambda n: 42.0)
        assert res.chosen_n == 2.0
        assert res.evaluations == res.history.__len__() == 21

    def test_local_search_misses_far_valley(self):
        # a certified local minimum near the start shadows a deeper valley
        losses = {2.0: 6.0, 3.0: 5.0, 4.0: 7.0, 1.0: 8.0, 0.0: 9.0, -8.0: 0.0}
        res = fls_search(FlsConfig(), lambda n: losses.get(n, 50.0))
        assert res.chosen_n == 3.0
        assert -8.0 not in res.history
        assert res.terminated_by == TERMINATED_LOCAL_MINIMUM

    def test_unimodal_landscapes_find_grid_global_minimum(self):
        rng = np.random.default_rng(61)
        cfg = FlsConfig()
        for _ in range(50):
            vertex = rng.uniform(-9.9, 9.9)
            loss = lambda n, v=vertex: (n - v) ** 2
            res = fls_search(cfg, loss)
            assert res.chosen_n == exhaustive_grid_minimum(cfg, loss)
            assert res.evaluations <= grid_points(cfg)

    def test_grid_containment_and_no_revisit(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            cfg = FlsConfig(
                n_init=float(rng.uniform(-5, 5)),
                step=float(rng.uniform(0.25, 2.0)),
            )
            seen = []
            def evaluator(n):
                seen.append(n)
                return float(rng.standard_normal())
            res = fls_search(cfg, evaluator)
            assert len(seen) == len(set(seen))
            for n in seen:
                k = round((n - cfg.n_init) / cfg.step)
                assert abs(cfg.n_init + k * cfg.step - n) <= 1e-12
                assert cfg.n_min - 1e-12 <= n <= cfg.n_max + 1e-12
            assert res.evaluations <= grid_points(cfg)

    def test_local_minimum_certificate(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            values = {}
            def evaluator(n):
                values[n] = float(rng.uniform(0, 1))
                return values[n]
            res = fls_search(FlsConfig(), evaluator)
            if res.terminated_by == TERMINATED_LOCAL_MINIMUM:
                certified = [
                    n
                    for n in res.history
                    if n - 1.0 in res.history
                    and n + 1.0 in res.history
                    and res.history[n] < res.history[n - 1.0]
                    and res.history[n] < res.history[n + 1.0]
                ]
                assert certified

    def test_chosen_loss_never_beats_grid_global(self):
        rng = np.random.default_rng(73)
        cfg = FlsConfig()
        for _ in range(20):
            table = {}
            def loss(n):
                if n not in table:
                    table[n] = float(rng.uniform(0, 1))
                return table[n]
            res = fls_search(cfg, loss)
            global_min = min(loss(n) for n in np.arange(-10.0, 11.0))
            assert res.history[res.chosen_n] >= global_min

    def test_evaluator_failure_carries_candidate(self):
        def evaluator(n):
            if n == 1.0:
                raise ValueError("boom")
            return 0.0

        with pytest.raises(EvaluatorError, match="^evaluator failed at n_exp=1.0: boom$") as exc_info:
            fls_search(FlsConfig(), evaluator)
        assert isinstance(exc_info.value.__cause__, ValueError)

    def test_unexpected_evaluator_error_propagates_unwrapped(self):
        def evaluator(n):
            raise TypeError("a bug, not a failed candidate")

        with pytest.raises(TypeError, match="a bug"):
            fls_search(FlsConfig(), evaluator)

    def test_promoted_warning_propagates_unwrapped(self):
        # an overflow warning turned into an error is not a failed candidate
        def evaluator(n):
            return float(np.exp2(np.float64(2000.0)))

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="overflow"):
                fls_search(FlsConfig(), evaluator)

    def test_fit_error_carries_candidate(self):
        def evaluator(n):
            raise FitError("singular")

        with pytest.raises(EvaluatorError, match="n_exp=2.0: singular") as exc_info:
            fls_search(FlsConfig(), evaluator)
        assert isinstance(exc_info.value.__cause__, FitError)

    def test_no_finite_loss_raises_evaluator_error(self):
        with pytest.raises(EvaluatorError, match="no candidate scored a finite loss: 21 scored"):
            fls_search(FlsConfig(), lambda n: np.inf)
        with pytest.raises(EvaluatorError, match="finite loss: 1 scored"):
            fls_search(FlsConfig(n_init=4.0, n_min=4.0, n_max=4.0), lambda n: np.inf)

    def test_one_finite_loss_is_chosen_among_inf(self):
        res = fls_search(FlsConfig(), lambda n: 5.0 if n == 2.0 else np.inf)
        assert res.chosen_n == 2.0 and res.history[1.0] == res.history[3.0] == np.inf

    def test_step_that_vanishes_next_to_n_init_rejected(self):
        # n_init + k * 1e-300 == n_init for every k: the walk would never end
        with pytest.raises(ValueError, match="step must be >= 0.015625"):
            FlsConfig(step=1e-300)
        with pytest.raises(ValueError, match="step"):
            FlsConfig(n_init=2.0, n_min=2.0, n_max=2.0, step=1e-300)
        assert FlsConfig(step=MIN_STEP).step == 2.0**-6

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FlsConfig(n_init=11.0)
        with pytest.raises(ValueError):
            FlsConfig(step=0.0)
        with pytest.raises(ValueError):
            FlsConfig(holdout_fraction=1.0)

    def test_grid_outside_the_transform_range_rejected_naming_the_bound(self):
        # the transform takes n in [-10, 10]; a wider grid would only fail in the fit
        with pytest.raises(ValueError, match=r"^n_min must be >= -10\.0, got -14\.0$"):
            FlsConfig(n_init=-10.0, n_min=-14.0, n_max=10.0)
        with pytest.raises(ValueError, match=r"^n_max must be <= 10\.0, got 10\.5$"):
            FlsConfig(n_max=10.5)
        FlsConfig(n_init=-10.0, n_min=-10.0, n_max=10.0)  # the bounds themselves are fine


class TestConfigMessages:
    """Each rule's ValueError names the key, the bound and the value, in the
    words the command line prints after the config path."""

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"n_init": -10.0, "n_min": -14.0}, "n_min must be >= -10.0, got -14.0"),
            ({"n_max": 10.5}, "n_max must be <= 10.0, got 10.5"),
            ({"n_init": 11.0}, "n_init must be in [n_min, n_max], got 11.0"),
            ({"n_init": -3.0, "n_min": -2.0}, "n_init must be in [n_min, n_max], got -3.0"),
            ({"step": 0.0}, "step must be >= 0.015625, got 0.0"),
            ({"holdout_fraction": 1.0}, "holdout_fraction must be in (0, 1), got 1.0"),
            ({"holdout_fraction": 0.0}, "holdout_fraction must be in (0, 1), got 0.0"),
        ],
        ids=["n_min", "n_max", "n_init-above", "n_init-below", "step", "holdout-1", "holdout-0"],
    )
    def test_flsconfig_names_key_bound_and_value(self, overrides, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FlsConfig(**overrides)

    @pytest.mark.parametrize(
        "n_samples, holdout, d, fit_rows",
        [(18, 0.25, 16, 14), (64, 0.9, 16, 7), (2, 0.5, 1, 1)],
        ids=["n18-d16", "holdout0.9-n64", "n2-d1"],
    )
    def test_too_few_fit_rows_named_with_the_keys(self, n_samples, holdout, d, fit_rows):
        message = (
            f"n_samples = {n_samples} with holdout_fraction = {holdout} leaves {fit_rows} rows "
            f"to fit on; the search needs at least d + 1 = {d + 1}"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_fit_rows(n_samples, holdout, d)

    def test_smallest_accepted_fit_rows(self):
        # 24 rows at 0.25 hold out 6 and fit on 18 = d + 1; 3 rows hold out 1 and fit on 2
        assert check_fit_rows(24, 0.25, 17) is None
        assert check_fit_rows(3, 0.01, 1) is None


class _RecordPipeline:
    """Minimal record-list pipeline: fits a scalar mean, scores on records."""

    def __init__(self, loss_by_n=None):
        self.loss_by_n = loss_by_n or {}
        self.fit_calls = []

    def fit(self, records, n_exp):
        self.fit_calls.append((len(records), n_exp))
        return n_exp

    def holdout_loss(self, fitted, records):
        return self.loss_by_n.get(fitted, 1.0)


class TestSearchForPipeline:
    def test_flat_loss_returns_n_init_and_fits_only_the_fit_set(self):
        records = [object() for _ in range(16)]
        pipeline = _RecordPipeline()
        res = search_n_for_pipeline(records, FlsConfig(seed=3), pipeline)
        assert res.chosen_n == 2.0
        # one fit per candidate, each on the fit subset only: no refit on every record
        assert [n for _, n in pipeline.fit_calls] == list(res.history)
        assert all(count == 12 for count, _ in pipeline.fit_calls)

    def test_evaluation_budget(self):
        cfg = FlsConfig()
        pipeline = _RecordPipeline({n: abs(n - 4.0) for n in np.arange(-10.0, 11.0)})
        res = search_n_for_pipeline(list(range(8)), cfg, pipeline)
        assert res.evaluations <= grid_points(cfg)

    def test_record_level_split_respected(self):
        records = list(range(512))
        pipeline = _RecordPipeline()
        search_n_for_pipeline(records, FlsConfig(seed=11), pipeline)
        search_sizes = {count for count, _ in pipeline.fit_calls}
        assert search_sizes == {384}
