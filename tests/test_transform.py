import math

import mpmath
import numpy as np
import pytest

from nbcq.transform import (
    IDENTITY,
    TransformKind,
    apply_kind_forward,
    apply_kind_inverse,
    blt_forward,
    blt_inverse,
)


def log_grid(lo=1e-6, hi=1e6, points=500):
    mags = np.logspace(np.log10(lo), np.log10(hi), points)
    return np.concatenate([-mags[::-1], [0.0], mags])


class TestBltForward:
    def test_zero_maps_to_zero(self):
        for n in (-10.0, -2.5, 0.0, 3.0, 10.0):
            assert blt_forward(0.0, TransformKind("blt", n)) == 0.0

    def test_linear_region_boundary_at_n5(self):
        t = TransformKind("blt", 5.0)
        assert t.threshold == 0.03125
        assert blt_forward(0.03125, t) == 1.0
        assert blt_forward(-0.03125, t) == -1.0
        # the published rounding of the boundary
        assert round(t.threshold, 3) == 0.031

    def test_powers_of_two_at_n2(self):
        t = TransformKind("blt", 2.0)
        assert blt_forward(2.0, t) == 4.0
        assert blt_forward(-2.0, t) == -4.0

    def test_against_mpmath(self):
        mpmath.mp.prec = 120
        rng = np.random.default_rng(41)
        for n in (-7.5, -2.0, 0.0, 2.0, 5.5, 10.0):
            t = TransformKind("blt", n)
            xs = np.concatenate([rng.uniform(-100, 100, 50), rng.uniform(-1e-4, 1e-4, 20)])
            for x in xs:
                mx = mpmath.mpf(abs(float(x)))
                if mx == 0:
                    continue
                if mx > mpmath.mpf(2.0) ** (-n):
                    ref = mpmath.log(mx, 2) + n + 1
                else:
                    ref = mpmath.mpf(2.0) ** n * mx
                ref = float(ref) * (1 if x > 0 else -1)
                got = blt_forward(float(x), t)
                assert abs(got - ref) <= 4 * math.ulp(max(abs(ref), 1e-300))

    def test_native_log2_one_ulp_of_oracle(self):
        mpmath.mp.prec = 120
        rng = np.random.default_rng(43)
        for x in rng.uniform(1e-8, 1e8, 200):
            ref = float(mpmath.log(mpmath.mpf(float(x)), 2))
            assert abs(float(np.log2(x)) - ref) <= math.ulp(max(abs(ref), 1e-300))

    def test_native_exp2_one_ulp_of_oracle(self):
        mpmath.mp.prec = 120
        rng = np.random.default_rng(44)
        for x in rng.uniform(-60, 60, 200):
            ref = float(mpmath.mpf(2.0) ** mpmath.mpf(float(x)))
            assert abs(float(np.exp2(x)) - ref) <= math.ulp(ref)


class TestBltInverse:
    def test_zero(self):
        assert blt_inverse(0.0, TransformKind("blt", 3.0)) == 0.0

    def test_inverse_of_forward_example(self):
        assert blt_inverse(4.0, TransformKind("blt", 2.0)) == 2.0

    def test_seam_value_exact(self):
        for n in (-10.0, -3.5, 0.0, 2.0, 7.25, 10.0):
            t = TransformKind("blt", n)
            assert blt_inverse(1.0, t) == t.threshold
            assert blt_inverse(-1.0, t) == -t.threshold


class TestBltProperties:
    def test_bijection_on_log_grid(self):
        xs = log_grid()
        for n in np.arange(-10.0, 10.5, 0.5):
            t = TransformKind("blt", float(n))
            back = blt_inverse(blt_forward(xs, t), t)
            assert np.max(np.abs(back - xs) / np.maximum(1.0, np.abs(xs))) <= 1e-9

    def test_odd_symmetry_exact(self):
        xs = log_grid(points=200)
        for n in (-10.0, -1.5, 0.0, 4.0, 10.0):
            t = TransformKind("blt", n)
            f_neg = blt_forward(-xs, t)
            f_pos = blt_forward(xs, t)
            assert np.array_equal(f_neg, -f_pos)

    def test_strict_monotonicity(self):
        rng = np.random.default_rng(47)
        for n in (-6.0, 0.0, 3.0, 9.5):
            t = TransformKind("blt", n)
            pairs = rng.standard_normal((400, 2)) * 100.0
            lo = pairs.min(axis=1)
            hi = pairs.max(axis=1)
            distinct = hi > lo
            f_lo = blt_forward(lo[distinct], t)
            f_hi = blt_forward(hi[distinct], t)
            assert np.all(f_lo < f_hi)

    def test_seam_continuity(self):
        eps = 1e-12
        for n in (-10.0, -4.0, 0.0, 3.0, 10.0):
            t = TransformKind("blt", n)
            thr = t.threshold
            for seam in (thr, -thr):
                for delta in (eps, -eps):
                    value = blt_forward(seam + delta, t)
                    assert abs(abs(value) - 1.0) <= 2.0**n * eps * 2 + 4e-16

    def test_range_partition(self):
        rng = np.random.default_rng(53)
        for n in (-8.0, 0.0, 2.0, 8.0):
            t = TransformKind("blt", n)
            inner = rng.uniform(-t.threshold, t.threshold, 300)
            assert np.all(np.abs(blt_forward(inner, t)) <= 1.0)
            outer = np.logspace(np.log10(t.threshold * 1.0001), np.log10(t.threshold * 1e6), 300)
            assert np.all(blt_forward(outer, t) > 1.0)
            assert np.all(blt_forward(-outer, t) < -1.0)

    def test_n_exp_validation(self):
        with pytest.raises(ValueError):
            TransformKind("blt", float("nan"))
        with pytest.raises(ValueError):
            TransformKind("blt", 10.5)


class TestTransformKinds:
    def test_identity_round_trip_bit_identical(self):
        kind = TransformKind("identity")
        xs = np.array([0.1, -0.0, 1e-300, 7.25e12])
        out = apply_kind_inverse(apply_kind_forward(xs, kind), kind)
        assert out.tobytes() == xs.tobytes()

    def test_blt_kind_dispatch(self):
        kind = TransformKind("blt", 2.0)
        assert apply_kind_forward(2.0, kind) == 4.0
        assert apply_kind_inverse(4.0, kind) == 2.0

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            TransformKind("blt")  # missing n_exp
        with pytest.raises(ValueError):
            TransformKind("identity", 2.0)
        with pytest.raises(ValueError):
            TransformKind("quadratic")
        # tanh and sigmoid are not kinds, their inverses being partial, and
        # asinh is not either: it is neither the paper's map nor linear
        for name in ("asinh", "tanh", "sigmoid"):
            with pytest.raises(ValueError, match=name):
                TransformKind(name)

    @pytest.mark.parametrize("blt_map", [blt_forward, blt_inverse])
    def test_blt_map_of_identity_kind_names_the_kind(self, blt_map):
        with pytest.raises(ValueError, match="^identity kind has no threshold$"):
            blt_map(np.array([1.0, -2.0]), IDENTITY)

    def test_identity_kind_has_no_threshold(self):
        with pytest.raises(ValueError, match="^identity kind has no threshold$"):
            IDENTITY.threshold
