import re

import numpy as np
import pytest

from nbcq.compensation import (
    STORAGE_F16,
    STORAGE_F32,
    STORAGE_I8,
    CalibrationRecord,
    CompensationModule,
    apply,
    fit_linear,
    fit_nbc,
    fit_nbc_levels,
    narrow,
    store_params,
    stored_tensors,
)
from nbcq.errors import FitError
from nbcq.fls import compute_feature_loss
from nbcq.harness import draw_inputs, ols_scalar_bias, scalar_slope
from nbcq.transform import IDENTITY, TransformKind, apply_kind_forward, apply_kind_inverse

from helpers import desk_setup, f16_roundtrip_struct, f32_roundtrip_struct, pinv_affine_fit, record_of


def make_record(rng, n=60, d_in=4, d_out=3, residual=None):
    """A random record and the quantized output ``y_q`` it was drawn with."""
    x_q = rng.standard_normal((n, d_in))
    y_q = rng.standard_normal((n, d_out))
    if residual is None:
        residual = 0.1 * rng.standard_normal((n, d_out))
    return record_of(x_q, residual), y_q


class TestCalibrationRecord:
    LEVELS = np.array([-1.5, 0.0, 1.5, 3.0])

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError, match="row counts"):
            CalibrationRecord(np.zeros((3, 2), dtype=np.uint8), self.LEVELS, np.zeros((4, 2)))

    @pytest.mark.parametrize(
        "codes, message",
        [
            (np.array([[0, 4]], dtype=np.uint8), r"codes must be in \[0, 4\)"),
            (np.array([[0, 255]], dtype=np.uint8), r"codes must be in \[0, 4\)"),
            (np.array([[-1, 2]], dtype=np.int64), r"codes must be in \[0, 4\)"),
            (np.array([[0.0, 1.0]]), "integer array"),
            (np.array([[True, False]]), "integer array"),
            (np.array([0, 1], dtype=np.uint8), "2-dimensional"),
        ],
        ids=["len-levels", "uint8-max", "negative", "float", "bool", "1-d"],
    )
    def test_codes_outside_the_level_indices_rejected(self, codes, message):
        with pytest.raises(ValueError, match=message):
            CalibrationRecord(codes, self.LEVELS, np.zeros((codes.shape[0], 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_levels_rejected(self, bad):
        with pytest.raises(ValueError, match="levels contains non-finite values"):
            CalibrationRecord(np.zeros((1, 2), dtype=np.uint8), [0.0, bad], np.zeros((1, 1)))

    def test_x_q_is_the_levels_gathered_by_the_codes(self):
        codes = np.array([[3, 0], [1, 2], [3, 3]], dtype=np.uint8)
        rec = CalibrationRecord(codes, self.LEVELS, np.zeros((3, 1)))
        assert rec.codes.dtype == np.uint8 and rec.n_rows == 3
        expected = np.array([[3.0, -1.5], [0.0, 1.5], [3.0, 3.0]])
        assert rec.levels[rec.codes].tobytes() == expected.tobytes()


class TestCompensationModule:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"storage": "f8"}, "unknown storage 'f8'"),
            ({"weight": np.zeros((3, 3))}, "weight rows must match bias length"),
            ({"storage": STORAGE_I8, "scales": np.ones(3)}, "per-row scales must match the weight row count"),
        ],
        ids=["unknown-storage", "weight-rows", "i8-scales-shape"],
    )
    def test_invalid_module_rejected(self, kwargs, message):
        fields = {"kind": IDENTITY, "weight": np.zeros((2, 3)), "bias": np.zeros(2), **kwargs}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CompensationModule(**fields)


class TestFitLinear:
    def test_zero_residual_gives_zero_module(self):
        rng = np.random.default_rng(2)
        rec, _ = make_record(rng, residual=np.zeros((60, 3)))
        mod = fit_linear(rec)
        assert np.max(np.abs(mod.weight)) <= 1e-10
        assert np.max(np.abs(mod.bias)) <= 1e-10

    def test_exact_affine_residual(self):
        rng = np.random.default_rng(3)
        x_q = rng.standard_normal((50, 4))
        y_q = rng.standard_normal((50, 4))
        rec = record_of(x_q, (y_q + 2.0 * x_q + 1.0) - y_q)
        mod = fit_linear(rec)
        assert np.max(np.abs(mod.weight - 2.0 * np.eye(4))) <= 1e-10
        assert np.max(np.abs(mod.bias - 1.0)) <= 1e-10

    def test_matches_pinv_oracle(self):
        rng = np.random.default_rng(4)
        rec, _ = make_record(rng, n=80, d_in=6, d_out=5)
        mod = fit_linear(rec)
        w_ref, b_ref = pinv_affine_fit(rec.levels[rec.codes], rec.residual)
        assert np.max(np.abs(mod.weight - w_ref)) <= 1e-8
        assert np.max(np.abs(mod.bias - b_ref)) <= 1e-8

    def test_insufficient_rows(self):
        rng = np.random.default_rng(5)
        rec, _ = make_record(rng, n=4, d_in=4)
        with pytest.raises(FitError):
            fit_linear(rec)

    def test_exact_linear_relation_leaves_no_residual(self):
        mod = fit_linear(record_of([[1.0], [2.0], [3.0]], [[2.0], [4.0], [6.0]]))
        assert mod.residual_rms <= 1e-10

    def test_consistent_system_leaves_no_residual(self):
        rng = np.random.default_rng(9)
        x_q = rng.standard_normal((40, 5))
        w_true = rng.standard_normal((2, 5))
        b_true = rng.standard_normal(2)
        assert fit_linear(record_of(x_q, x_q @ w_true.T + b_true)).residual_rms <= 1e-10

    def test_fit_leaves_the_residual_intact(self):
        # the identity map returns its argument itself, so the fit's targets
        # are the record's residual array
        rec, _ = make_record(np.random.default_rng(15))
        before = rec.residual.copy()
        fit_linear(rec)
        assert rec.residual.tobytes() == before.tobytes()

    def test_singular_design_fallback_leaves_a_small_residual(self):
        x_q = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        mod = fit_linear(record_of(x_q, [[1.0], [2.0], [3.0]]))
        assert mod.ridge_used > 0.0
        # the regularized fit still reproduces the consistent targets closely
        assert mod.residual_rms <= 1e-4


class TestFitNbc:
    def test_linear_region_equivalence(self):
        rng = np.random.default_rng(6)
        n_exp = 3.0
        region = 2.0**-n_exp
        x_q = rng.uniform(-0.9 * region, 0.9 * region, (64, 4))
        y_q = rng.standard_normal((64, 4))
        residual = rng.uniform(-0.9 * region, 0.9 * region, (64, 4))
        rec = record_of(x_q, (y_q + residual) - y_q)
        out_nbc = apply(fit_nbc(rec, TransformKind("blt", n_exp)), rec.levels[rec.codes], y_q)
        out_lin = apply(fit_linear(rec), rec.levels[rec.codes], y_q)
        assert np.max(np.abs(out_nbc - out_lin)) <= 1e-9

    def test_zero_residual_is_noop(self):
        rng = np.random.default_rng(7)
        rec, y_q = make_record(rng, residual=np.zeros((60, 3)))
        mod = fit_nbc(rec, TransformKind("blt", 2.0))
        out = apply(mod, rec.levels[rec.codes], y_q)
        assert np.max(np.abs(out - y_q)) <= 1e-9

    def test_outlier_channel_slope_closer_to_inlier_oracle(self):
        # one scalar channel; inliers follow a clean multiplicative trend,
        # a few large-magnitude points sit off-trend and drag the plain fit
        rng = np.random.default_rng(8)
        n_in, n_out = 120, 6
        x_in = np.concatenate([rng.uniform(0.5, 3.0, n_in // 2), -rng.uniform(0.5, 3.0, n_in // 2)])
        r_in = 0.8 * x_in + 0.01 * rng.standard_normal(n_in)
        x_out = np.full(n_out, 40.0)
        r_out = np.full(n_out, 1.0)
        x = np.concatenate([x_in, x_out]).reshape(-1, 1)
        r = np.concatenate([r_in, r_out]).reshape(-1, 1)
        rec = record_of(x, r)  # y_q = 0

        oracle = scalar_slope(x_in, r_in)
        lin = fit_linear(rec)
        nbc = fit_nbc(rec, TransformKind("blt", 2.0))
        comp_lin = apply(lin, x_in.reshape(-1, 1), np.zeros((n_in, 1)))[:, 0]
        comp_nbc = apply(nbc, x_in.reshape(-1, 1), np.zeros((n_in, 1)))[:, 0]
        slope_lin = scalar_slope(x_in, comp_lin)
        slope_nbc = scalar_slope(x_in, comp_nbc)
        assert abs(slope_nbc - oracle) < abs(slope_lin - oracle)

    def test_matches_pinv_oracle_in_transformed_space(self):
        rng = np.random.default_rng(9)
        rec, _ = make_record(rng, n=90, d_in=5, d_out=4)
        for kind in (TransformKind("blt", 1.5), IDENTITY):
            mod = fit_nbc(rec, kind)
            design = apply_kind_forward(rec.levels[rec.codes], kind)
            targets = apply_kind_forward(rec.residual, kind)
            w_ref, b_ref = pinv_affine_fit(design, targets)
            assert np.max(np.abs(mod.weight - w_ref)) <= 1e-8
            assert np.max(np.abs(mod.bias - b_ref)) <= 1e-8

    def test_normal_equation_orthogonality(self):
        rng = np.random.default_rng(10)
        rec, _ = make_record(rng, n=70, d_in=5, d_out=3)
        kind = TransformKind("blt", 2.0)
        mod = fit_nbc(rec, kind)
        design = apply_kind_forward(rec.levels[rec.codes], kind)
        targets = apply_kind_forward(rec.residual, kind)
        aug = np.hstack([design, np.ones((70, 1))])
        resid = targets - design @ mod.weight.T - mod.bias
        assert np.max(np.abs(aug.T @ resid)) <= 1e-8

    def test_two_population_slope_matches_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            k = int(rng.integers(1, 6))
            n = int(rng.integers(k + 1, 40))
            big_m = float(rng.uniform(5.0, 100.0))
            small_m = float(rng.uniform(0.2, min(4.0, big_m)))
            r_out = float(rng.uniform(-3.0, 3.0))
            r_in = float(rng.uniform(-3.0, 3.0))
            # residuals vary around their group means without changing them
            noise = rng.uniform(-1.0, 1.0, n - k)
            noise -= noise.mean()
            x = np.concatenate([np.full(k, big_m), np.full(n - k, small_m)])
            r = np.concatenate([np.full(k, r_out), np.full(n - k, r_in) + noise])
            empirical = float(np.sum(x * r) / np.sum(x * x))  # the no-intercept OLS slope
            assert abs(empirical - ols_scalar_bias(k, n, big_m, small_m, r_out, r_in)) <= 1e-10


@pytest.fixture(scope="module")
def desk_records():
    """Per block of the desk pipeline, its record and its quantized output
    from the list form of the quantized forward; outliers included."""
    model, calib, _ = desk_setup(0)
    q_io = calib.qmodel.compensated_block_io(draw_inputs(model, calib.n_samples, calib.spec, calib.seed))
    return [(rec, y_q) for rec, (_, y_q) in zip(calib.records, q_io)]


@pytest.fixture(scope="module")
def desk_and_mid_records():
    """The calibration records of the desk setup and of a mid-scale one
    (d64/h256/8 blocks/2048 samples), both at seed 0."""
    _, desk, _ = desk_setup(0)
    _, mid, _ = desk_setup(0, d=64, h=256, n_blocks=8, n_samples=2048)
    return desk.records + mid.records


class TestResidualPass:
    @pytest.mark.parametrize(
        "kind", [TransformKind("blt", 0.5), TransformKind("blt", 2.0), IDENTITY], ids=str
    )
    def test_kept_fit_residual_rms_is_the_augmented_formula_bit_for_bit(
        self, desk_and_mid_records, kind
    ):
        for rec in desk_and_mid_records:
            mod = fit_nbc(rec, kind)
            design = apply_kind_forward(rec.levels[rec.codes], kind)
            targets = apply_kind_forward(rec.residual, kind)
            aug = np.hstack([design, np.ones((rec.n_rows, 1))])
            coef = np.vstack([mod.weight.T, mod.bias])
            resid = targets - aug @ coef
            assert mod.residual_rms == float(np.sqrt(np.mean(resid**2)))

    def test_candidate_fit_skips_the_residual_pass(self):
        rng = np.random.default_rng(15)
        rec, _ = make_record(rng)
        kind = TransformKind("blt", 2.0)
        kept = fit_nbc(rec, kind)
        candidate = fit_nbc_levels(rec.levels, rec.codes, rec.residual.copy(), kind)
        assert kept.residual_rms > 0.0 and candidate.residual_rms is None
        assert candidate.weight.tobytes() == kept.weight.tobytes()
        assert candidate.bias.tobytes() == kept.bias.tobytes()
        assert candidate.ridge_used == kept.ridge_used


def record_bytes(rec) -> tuple[bytes, bytes, bytes]:
    return rec.codes.tobytes(), rec.levels.tobytes(), rec.residual.tobytes()


class TestFitsLeaveTheRecords:
    """A fit maps and subtracts in place only in arrays it owns: a kept fit
    leaves its record as it was, bit for bit, under the identity map too,
    which returns the residual itself; a candidate fit writes only over the
    residual copy it is handed."""

    KINDS = [TransformKind("blt", 0.5), TransformKind("blt", 2.0), IDENTITY]

    @pytest.mark.parametrize("kind", KINDS, ids=str)
    def test_kept_fits_leave_every_record_unchanged(self, desk_and_mid_records, kind):
        for rec in desk_and_mid_records:
            before = record_bytes(rec)
            fit_nbc(rec, kind)
            if kind == IDENTITY:
                fit_linear(rec)
            assert record_bytes(rec) == before

    @pytest.mark.parametrize("kind", KINDS, ids=str)
    def test_candidate_fit_writes_only_over_its_residual_copy(self, kind):
        rec, _ = make_record(np.random.default_rng(16), n=300, d_in=6, d_out=5)
        before = record_bytes(rec)
        residual = rec.residual.copy()
        fit_nbc_levels(rec.levels, rec.codes, residual, kind)
        assert record_bytes(rec) == before
        assert residual.tobytes() == apply_kind_forward(rec.residual.copy(), kind).tobytes()


class TestApply:
    def test_identity_weight_blt_recovers_input(self):
        rng = np.random.default_rng(12)
        x_q = rng.standard_normal((30, 4)) * 5.0
        y_q = rng.standard_normal((30, 4))
        mod = CompensationModule(kind=TransformKind("blt", 2.0), weight=np.eye(4), bias=np.zeros(4))
        out = apply(mod, x_q, y_q)
        assert np.max(np.abs(out - (y_q + x_q))) <= 1e-12 * np.max(np.abs(x_q))

    def test_zero_module_is_noop(self):
        rng = np.random.default_rng(13)
        x_q = rng.standard_normal((20, 3))
        y_q = rng.standard_normal((20, 2))
        mod = CompensationModule(kind=TransformKind("blt", 1.0), weight=np.zeros((2, 3)), bias=np.zeros(2))
        assert np.array_equal(apply(mod, x_q, y_q), y_q)

    def test_fitted_module_beats_uncompensated_on_training_records(self):
        rng = np.random.default_rng(14)
        x_q = rng.standard_normal((100, 4))
        y_q = rng.standard_normal((100, 4))
        residual = 0.5 * x_q + 0.05 * rng.standard_normal((100, 4))
        y = y_q + residual
        rec = record_of(x_q, y - y_q)
        for mod in (fit_linear(rec), fit_nbc(rec, TransformKind("blt", 2.0))):
            out = apply(mod, rec.levels[rec.codes], y_q)
            assert compute_feature_loss(y, out) < compute_feature_loss(y, y_q)

    @pytest.mark.parametrize("storage", ["f32", STORAGE_F16, STORAGE_I8])
    @pytest.mark.parametrize(
        "kind",
        # -10 and 10 are the ends of the default search grid
        [TransformKind("blt", -10.0), TransformKind("blt", -2.0), TransformKind("blt", 0.5),
         TransformKind("blt", 3.0), TransformKind("blt", 10.0), IDENTITY],
        ids=str,
    )
    def test_matches_the_plain_formula_bit_for_bit(self, desk_records, kind, storage):
        # the formula apply used before it summed in place, kept verbatim
        def old_apply(mod, x_q, y_q):
            pred = apply_kind_forward(x_q, mod.kind) @ mod.weight.T + mod.bias
            return y_q + apply_kind_inverse(pred, mod.kind)

        for rec, y_q in desk_records:
            mod = fit_nbc(rec, kind)
            if storage != "f32":
                mod = store_params(mod, storage)
            out = apply(mod, rec.levels[rec.codes], y_q)
            expected = old_apply(mod, rec.levels[rec.codes], y_q)
            assert out.shape == expected.shape
            assert out.tobytes() == expected.tobytes()

    def test_identity_apply_leaves_its_inputs_intact(self):
        # the identity map returns x_q and the prediction themselves
        rng = np.random.default_rng(16)
        rec, y_q = make_record(rng)
        x_q = rec.levels[rec.codes]
        x_before, y_before = x_q.copy(), y_q.copy()
        out = apply(fit_linear(rec), x_q, y_q)
        assert x_q.tobytes() == x_before.tobytes()
        assert y_q.tobytes() == y_before.tobytes()
        assert not np.shares_memory(out, x_q) and not np.shares_memory(out, y_q)

    def test_y_q_of_another_width_rejected(self):
        mod = CompensationModule(kind=IDENTITY, weight=np.zeros((2, 3)), bias=np.zeros(2))
        with pytest.raises(ValueError, match="^y_q has 3 columns, module expects 2$"):
            apply(mod, np.zeros((5, 3)), np.zeros((5, 3)))

    def test_dimension_checks(self):
        mod = CompensationModule(kind=IDENTITY, weight=np.zeros((2, 3)), bias=np.zeros(2))
        with pytest.raises(ValueError):
            apply(mod, np.zeros((5, 4)), np.zeros((5, 2)))
        with pytest.raises(ValueError):
            apply(mod, np.zeros((5, 3)), np.zeros((4, 2)))


class TestStoreParams:
    def test_zero_module_survives_both_precisions(self):
        mod = CompensationModule(kind=IDENTITY, weight=np.zeros((3, 4)), bias=np.zeros(3))
        f16 = store_params(mod, STORAGE_F16)
        assert np.array_equal(f16.weight, mod.weight)
        assert np.array_equal(f16.bias, mod.bias)
        i8 = store_params(mod, STORAGE_I8)
        assert np.array_equal(i8.weight, mod.weight)
        assert np.array_equal(i8.bias, mod.bias)

    def test_i8_round_trip_error_bounded_by_half_scale(self):
        rng = np.random.default_rng(15)
        w = rng.uniform(-0.5, 0.5, (8, 16))
        mod = CompensationModule(kind=IDENTITY, weight=w, bias=np.zeros(8))
        i8 = store_params(mod, STORAGE_I8)
        err = np.abs(i8.weight - w)
        assert np.all(err <= i8.scales[:, None] / 2)

    def test_f16_rounds_parameters(self):
        rng = np.random.default_rng(16)
        w = rng.standard_normal((3, 5))
        b = rng.standard_normal(3)
        mod = CompensationModule(kind=IDENTITY, weight=w, bias=b)
        f16 = store_params(mod, STORAGE_F16)
        assert np.array_equal(f16.weight, np.vectorize(f16_roundtrip_struct)(w))
        assert np.array_equal(f16.bias, np.vectorize(f16_roundtrip_struct)(b))

    def test_f32_rounds_parameters_and_keeps_fit_metadata(self):
        rng = np.random.default_rng(20)
        w = rng.standard_normal((3, 5))
        b = rng.standard_normal(3)
        mod = CompensationModule(kind=IDENTITY, weight=w, bias=b, ridge_used=0.0, residual_rms=0.25)
        f32 = store_params(mod, STORAGE_F32)
        assert f32.storage == STORAGE_F32
        assert np.array_equal(f32.weight, np.vectorize(f32_roundtrip_struct)(w))
        assert np.array_equal(f32.bias, np.vectorize(f32_roundtrip_struct)(b))
        assert (f32.ridge_used, f32.residual_rms) == (0.0, 0.25)

    def test_unknown_storage_rejected(self):
        mod = CompensationModule(kind=IDENTITY, weight=np.zeros((2, 2)), bias=np.zeros(2))
        with pytest.raises(ValueError, match="unknown storage precision 'f8'"):
            store_params(mod, "f8")

    def test_i8_scale_beyond_f32_range_names_scales(self):
        w = np.ones((3, 2))
        w[1, 0] = 1e43  # its row's scale, 1e43 / 127, exceeds the largest f32
        mod = CompensationModule(kind=IDENTITY, weight=w, bias=np.zeros(3))
        with pytest.raises(ValueError) as info:
            store_params(mod, STORAGE_I8)
        assert str(info.value) == (
            f"scales value {1e43 / 127.0!r} at flat index 1 overflows i8_per_channel storage (float32)"
        )

    def test_i8_weight_is_decoded_once(self):
        rng = np.random.default_rng(17)
        rec, y_q = make_record(rng, n=50, d_in=4, d_out=4, residual=0.3 * rng.standard_normal((50, 4)))
        mod = fit_linear(rec)
        i8 = store_params(mod, STORAGE_I8)
        codes = stored_tensors(i8)["weight"]
        assert codes.dtype == np.int8
        assert i8.weight.dtype == np.float64
        assert i8.weight.tobytes() == (codes.astype(np.float64) * i8.scales[:, None]).tobytes()
        out_full = apply(mod, rec.levels[rec.codes], y_q)
        out_i8 = apply(i8, rec.levels[rec.codes], y_q)
        # coarse storage still approximates the working-precision output
        assert np.max(np.abs(out_full - out_i8)) <= 0.1

    def test_codes_within_signed_byte_range(self):
        rng = np.random.default_rng(18)
        w = rng.standard_normal((6, 6)) * 10.0
        mod = CompensationModule(kind=IDENTITY, weight=w, bias=np.zeros(6))
        i8 = store_params(mod, STORAGE_I8)
        codes = stored_tensors(i8)["weight"]
        assert codes.min() >= -127 and codes.max() <= 127
        assert i8.scales.shape == (6,)

    def test_restoring_stored_module_rejected(self):
        mod = CompensationModule(kind=IDENTITY, weight=np.zeros((2, 2)), bias=np.zeros(2))
        f16 = store_params(mod, STORAGE_F16)
        with pytest.raises(ValueError, match="already stored"):
            store_params(f16, STORAGE_I8)

    def test_modules_are_immutable_records(self):
        mod = CompensationModule(kind=IDENTITY, weight=np.zeros((2, 2)), bias=np.zeros(2))
        with pytest.raises(Exception):
            mod.storage = STORAGE_F16


def row_module(values) -> CompensationModule:
    """A working-precision module whose one weight row holds ``values``."""
    return CompensationModule(kind=IDENTITY, weight=np.array([values], dtype=np.float64), bias=np.zeros(1))


class TestF16Narrowing:
    """f16 storage rounds each value to its nearest binary16 value, ties to
    even, and refuses a value beyond the largest finite one."""

    def test_exactly_representable(self):
        out = store_params(row_module([0.0, 1.0, -2.5, 65504.0]), STORAGE_F16).weight
        assert np.array_equal(out, [[0.0, 1.0, -2.5, 65504.0]])

    def test_tenth_rounds_to_frozen_value(self):
        assert store_params(row_module([0.1]), STORAGE_F16).weight[0, 0] == 0.0999755859375

    def test_matches_struct_codec(self):
        rng = np.random.default_rng(17)
        values = np.concatenate([
            rng.standard_normal(100) * 10.0,
            rng.standard_normal(50) * 1e-4,
            [6.1e-5, -6.1e-5, 5e-8, 65503.0],
        ])
        ours = store_params(row_module(values), STORAGE_F16).weight[0]
        ref = np.array([f16_roundtrip_struct(v) for v in values])
        assert np.array_equal(ours, ref)

    def test_idempotent_bit_exact(self):
        rng = np.random.default_rng(19)
        once = store_params(row_module(rng.standard_normal(200) * 100.0), STORAGE_F16).weight
        twice = store_params(row_module(once[0]), STORAGE_F16).weight
        assert once.tobytes() == twice.tobytes()

    def test_overflow_names_role_index_and_storage(self):
        with pytest.raises(ValueError) as info:
            store_params(row_module([1.0, 2.0, 70000.0, 3.0]), STORAGE_F16)
        assert str(info.value) == "weight value 70000.0 at flat index 2 overflows f16 storage (float16)"

    def test_overflow_threshold(self):
        # 65519.99... still rounds down to the largest finite half
        assert narrow(np.array([65519.9]), STORAGE_F16, "bias")[0] == 65504.0
        with pytest.raises(ValueError, match="bias value 65520.0 at flat index 0 overflows"):
            narrow(np.array([65520.0]), STORAGE_F16, "bias")


class TestI8Codes:
    """int8 storage holds only the integers in [-128, 127]: any other code
    is refused by name, never wrapped or truncated by the cast."""

    @pytest.mark.parametrize("value", [300.0, -129.0, 1.5, np.nan], ids=["300", "-129", "1.5", "nan"])
    def test_narrow_refuses_a_value_the_cast_would_change(self, value):
        with pytest.raises(ValueError) as info:
            narrow(np.array([0.0, value]), STORAGE_I8, "weight")
        assert str(info.value) == (
            f"weight value {value!r} at flat index 1 does not fit i8_per_channel storage (int8)"
        )

    def test_narrow_keeps_the_full_code_range(self):
        codes = narrow(np.array([-128.0, -127.0, 0.0, 127.0]), STORAGE_I8, "weight")
        assert codes.dtype == np.int8 and codes.tolist() == [-128, -127, 0, 127]

    def test_module_refuses_codes_beyond_int8(self):
        with pytest.raises(ValueError, match="weight value 300.0 at flat index 2 does not fit"):
            CompensationModule(
                kind=IDENTITY, weight=np.array([[1, 2], [300, 4]]), bias=np.zeros(2),
                storage=STORAGE_I8, scales=np.ones(2),
            )

    def test_module_refuses_a_weight_off_its_row_scale(self):
        # row 1 is 1.5 times its scale: no int8 code decodes to it
        with pytest.raises(ValueError, match="weight value 1.5 at flat index 2 does not fit"):
            CompensationModule(
                kind=IDENTITY, weight=np.array([[1.0, 2.0], [0.75, 1.0]]), bias=np.zeros(2),
                storage=STORAGE_I8, scales=np.array([1.0, 0.5]),
            )

    @pytest.mark.parametrize("scale", [0.0, -0.5, np.inf, np.nan], ids=str)
    def test_module_refuses_a_scale_not_finite_and_positive(self, scale):
        with pytest.raises(ValueError, match="^scales must be finite and > 0$"):
            CompensationModule(
                kind=IDENTITY, weight=np.zeros((2, 2)), bias=np.zeros(2),
                storage=STORAGE_I8, scales=np.array([1.0, scale]),
            )

    @pytest.mark.parametrize("storage", [STORAGE_F32, STORAGE_F16])
    def test_float_storage_holds_no_scales(self, storage):
        with pytest.raises(ValueError, match=f"^{storage} storage stores no scales$"):
            CompensationModule(
                kind=IDENTITY, weight=np.zeros((2, 2)), bias=np.zeros(2), storage=storage,
                scales=np.ones(2),
            )
