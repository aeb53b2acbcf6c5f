import numpy as np
import pytest

from nbcq.compensation import CalibrationRecord
from nbcq.errors import EvaluatorError
from nbcq.fls import (
    TERMINATED_BOUNDS,
    TERMINATED_LOCAL_MINIMUM,
    FlsConfig,
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

        with pytest.raises(EvaluatorError, match="n_exp=1.0") as exc_info:
            fls_search(FlsConfig(), evaluator)
        assert exc_info.value.n_exp == 1.0
        assert isinstance(exc_info.value.__cause__, ValueError)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FlsConfig(n_init=11.0)
        with pytest.raises(ValueError):
            FlsConfig(step=0.0)
        with pytest.raises(ValueError):
            FlsConfig(holdout_fraction=1.0)


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
    def test_flat_loss_returns_n_init_and_refits_full(self):
        records = [object() for _ in range(16)]
        pipeline = _RecordPipeline()
        final, res = search_n_for_pipeline(records, FlsConfig(seed=3), pipeline)
        assert res.chosen_n == 2.0
        # last fit call is the full-set refit at the chosen exponent, and its fit is returned
        assert pipeline.fit_calls[-1] == (16, 2.0)
        assert final == 2.0
        # all search fits used the fit subset only
        assert all(count == 12 for count, _ in pipeline.fit_calls[:-1])

    def test_evaluation_budget(self):
        cfg = FlsConfig()
        pipeline = _RecordPipeline({n: abs(n - 4.0) for n in np.arange(-10.0, 11.0)})
        _, res = search_n_for_pipeline(list(range(8)), cfg, pipeline)
        assert res.evaluations <= grid_points(cfg)

    def test_record_level_split_respected(self):
        records = list(range(512))
        pipeline = _RecordPipeline()
        search_n_for_pipeline(records, FlsConfig(seed=11), pipeline)
        search_sizes = {count for count, _ in pipeline.fit_calls[:-1]}
        assert search_sizes == {384}
