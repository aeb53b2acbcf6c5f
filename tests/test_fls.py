import re
import warnings

import numpy as np
import pytest

from nbcq.compensation import CalibrationRecord
from nbcq.errors import EvaluatorError, FitError
from nbcq.fls import (
    MIN_STEP,
    HOLDOUT_FRACTION,
    FlsConfig,
    check_fit_rows,
    compute_feature_loss,
    fls_search,
    holdout_count,
    holdout_split,
    search_n_for_pipeline,
)

from helpers import exhaustive_grid_minimum, grid_points, queue_walk_search


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
        fit, hold = holdout_split(512, FlsConfig(seed=5))
        assert fit.dtype == hold.dtype == np.intp
        assert len(fit) == 384 and len(hold) == 128
        assert sorted([*fit, *hold]) == list(range(512))
        assert not set(fit) & set(hold)

    def test_same_seed_identical_partition(self):
        cfg = FlsConfig(seed=77)
        for a, b in zip(holdout_split(100, cfg), holdout_split(100, cfg), strict=True):
            assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        a = holdout_split(100, FlsConfig(seed=1))
        b = holdout_split(100, FlsConfig(seed=2))
        assert not np.array_equal(a[1], b[1])

    def test_each_side_keeps_the_input_order(self):
        for seed in range(5):
            fit, hold = holdout_split(101, FlsConfig(seed=seed))
            assert list(fit) == sorted(fit) and list(hold) == sorted(hold)

    def test_four_records_floor_rule(self):
        fit, hold = holdout_split(4, FlsConfig(seed=0))
        assert len(fit) == 3 and len(hold) == 1

    def test_minimum_one_holdout(self):
        # a quarter of 3 records floors to 0
        fit, hold = holdout_split(3, FlsConfig(seed=0))
        assert len(fit) == 2 and len(hold) == 1

    def test_fewer_than_two_records(self):
        with pytest.raises(ValueError, match="at least 2"):
            holdout_split(1, FlsConfig())


class TestFlsSearch:
    def test_trace_oracle_parabola(self):
        res = fls_search(FlsConfig(), lambda n: (n - 3.0) ** 2)
        assert list(res.history.keys()) == [2.0, 3.0, 1.0, 4.0, 0.0]
        assert res.chosen_n == 3.0
        assert res.evaluations == 5

    def test_increasing_loss_from_lower_bound(self):
        res = fls_search(FlsConfig(n_init=-10.0), lambda n: n)
        assert res.chosen_n == -10.0

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
        # a walk that stops short of the whole grid has certified a local minimum
        rng = np.random.default_rng(71)
        cfg = FlsConfig()
        for _ in range(20):
            values = {}
            def evaluator(n):
                values[n] = float(rng.uniform(0, 1))
                return values[n]
            res = fls_search(cfg, evaluator)
            if res.evaluations < grid_points(cfg):
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

    def test_grid_outside_the_transform_range_rejected_naming_the_bound(self):
        # the transform takes n in [-10, 10]; a wider grid would only fail in the fit
        with pytest.raises(ValueError, match=r"^n_min must be >= -10\.0, got -14\.0$"):
            FlsConfig(n_init=-10.0, n_min=-14.0, n_max=10.0)
        with pytest.raises(ValueError, match=r"^n_max must be <= 10\.0, got 10\.5$"):
            FlsConfig(n_max=10.5)
        FlsConfig(n_init=-10.0, n_min=-10.0, n_max=10.0)  # the bounds themselves are fine


def _random_grid(rng) -> FlsConfig:
    """A grid with random bounds (on the quarter grid half the time, so grid
    points land on them), n_init inside or at a bound, and step >= MIN_STEP."""
    def point():
        return float(rng.integers(-40, 41)) / 4 if rng.random() < 0.5 else float(rng.uniform(-10, 10))

    lo, hi = sorted((point(), point()))
    inside = min(max(lo + (hi - lo) * float(rng.random()), lo), hi)
    n_init = [lo, hi, inside, inside, inside][rng.integers(5)]
    step = [MIN_STEP, 0.25, 1.0, 2.0**rng.uniform(-6, 2)][rng.integers(4)]
    return FlsConfig(n_init=n_init, n_min=lo, n_max=hi, step=step, seed=0)


def _random_landscape(rng, cfg):
    """Outcomes over the grid offsets of ``cfg``: few loss levels (ties),
    some inf, -inf and NaN, and some candidates that raise. Returns a
    factory of pure evaluators, each logging its calls into the given list."""
    reach = int(max(cfg.n_max - cfg.n_init, cfg.n_init - cfg.n_min) / cfg.step) + 2
    size = 2 * reach + 1
    losses = rng.integers(0, rng.integers(1, 6), size).astype(float)
    share = [0.0, 0.05, 0.3][rng.integers(3)]
    kinds = np.where(rng.random(size) < share, rng.integers(1, 7, size), 0)
    losses[kinds == 1], losses[kinds == 2], losses[kinds == 3] = np.inf, -np.inf, np.nan
    losses, raises = losses.tolist(), (kinds - 3).tolist()  # 1, 2, 3: ValueError, FitError, TypeError

    def make(calls):
        def evaluator(n):
            calls.append(n)
            i = reach + round((n - cfg.n_init) / cfg.step)
            if raises[i] == 1:
                raise ValueError(f"not finite at {n!r}")
            if raises[i] == 2:
                raise FitError("singular")
            if raises[i] == 3:
                raise TypeError("a bug")
            return losses[i]

        return evaluator

    return make


class TestWalkOracle:
    """The visit-order walk calls the evaluator at the grid points the queue
    walk in ``helpers`` calls, in the same order, and chooses, counts and
    fails as it does."""

    @staticmethod
    def outcome(search, cfg, landscape):
        calls = []
        try:
            chosen, history, evaluations = search(cfg, landscape(calls))
        except (EvaluatorError, TypeError) as exc:
            return calls, type(exc), str(exc)
        # NaN losses compare equal through repr
        return calls, chosen, repr(list(history.items())), evaluations

    def test_random_grids_match_the_queue_walk(self):
        def visit_order_walk(cfg, evaluator):
            res = fls_search(cfg, evaluator)
            return res.chosen_n, res.history, res.evaluations

        def queue_walk(cfg, evaluator):
            chosen, history = queue_walk_search(cfg, evaluator)
            return chosen, history, len(history)

        rng = np.random.default_rng(89)
        for trial in range(5000):
            cfg = _random_grid(rng)
            landscape = _random_landscape(rng, cfg)
            want = self.outcome(queue_walk, cfg, landscape)
            assert self.outcome(visit_order_walk, cfg, landscape) == want, (trial, cfg)


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
        ],
        ids=["n_min", "n_max", "n_init-above", "n_init-below", "step"],
    )
    def test_flsconfig_names_key_bound_and_value(self, overrides, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FlsConfig(**overrides)

    @pytest.mark.parametrize(
        "n_samples, d, fit_rows", [(18, 16, 14), (2, 1, 1)], ids=["n18-d16", "n2-d1"]
    )
    def test_too_few_fit_rows_named_with_the_keys(self, n_samples, d, fit_rows):
        message = (
            f"n_samples = {n_samples} leaves {fit_rows} rows to fit on after the hold-out "
            f"quarter; the search needs at least d + 1 = {d + 1}"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_fit_rows(n_samples, d)

    def test_smallest_accepted_fit_rows(self):
        # 24 rows hold out a quarter, 6, and fit on 18 = d + 1; 3 rows hold out 1 and fit on 2
        assert check_fit_rows(24, 17) is None
        assert check_fit_rows(3, 1) is None

    def test_the_hold_out_is_a_fixed_quarter(self):
        assert HOLDOUT_FRACTION == 0.25
        assert [holdout_count(n) for n in (2, 4, 7, 8, 512)] == [1, 1, 1, 2, 128]


class _RowPipeline:
    """Minimal row-index pipeline: records the rows of each call, scores by exponent."""

    def __init__(self, loss_by_n=None):
        self.loss_by_n = loss_by_n or {}
        self.fit_calls = []
        self.holdout_rows = []

    def fit(self, rows, n_exp):
        self.fit_calls.append((rows, n_exp))
        return n_exp

    def holdout_loss(self, fitted, rows):
        self.holdout_rows.append(rows)
        return self.loss_by_n.get(fitted, 1.0)


class TestSearchForPipeline:
    def test_flat_loss_returns_n_init_and_fits_only_the_fit_set(self):
        pipeline = _RowPipeline()
        res = search_n_for_pipeline(16, FlsConfig(seed=3), pipeline)
        assert res.chosen_n == 2.0
        # one fit per candidate, each on the fit subset only: no refit on every record
        assert [n for _, n in pipeline.fit_calls] == list(res.history)
        assert all(len(rows) == 12 for rows, _ in pipeline.fit_calls)

    def test_evaluation_budget(self):
        cfg = FlsConfig()
        pipeline = _RowPipeline({n: abs(n - 4.0) for n in np.arange(-10.0, 11.0)})
        res = search_n_for_pipeline(8, cfg, pipeline)
        assert res.evaluations <= grid_points(cfg)

    def test_record_level_split_respected(self):
        pipeline = _RowPipeline()
        search_n_for_pipeline(512, FlsConfig(seed=11), pipeline)
        fit, hold = holdout_split(512, FlsConfig(seed=11))
        assert pipeline.fit_calls and len(pipeline.holdout_rows) == len(pipeline.fit_calls)
        assert all(np.array_equal(rows, fit) for rows, _ in pipeline.fit_calls)
        assert all(np.array_equal(rows, hold) for rows in pipeline.holdout_rows)
        assert len(fit) == 384
