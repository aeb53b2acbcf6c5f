"""The tiled elementwise kernels against their whole-array formulas.

Each oracle below is the formula the library used before its kernels were
split into tiles, kept verbatim; the tiled kernels must reproduce it bit for
bit, at every size around the tile length and on the values where the
branches meet.
"""

import struct

import numpy as np
import pytest

from nbcq.harness import GELU_TANH_COEFF, GELU_TANH_CUBIC, draw_inputs, gelu
from nbcq.numerics import TILE_ELEMENTS, as_tensor, map_tiles
from nbcq.quantizer import QuantParams, fake_quantize
from nbcq.transform import (
    TransformKind,
    apply_kind_forward,
    apply_kind_inverse,
    blt_forward,
    blt_inverse,
)

from helpers import desk_setup

T = TILE_ELEMENTS
SHAPES = [(), (0,), (0, 3), (1,), (T - 1,), (T,), (T + 1,), (3 * T + 5,), (T // 32 + 3, 64)]
N_EXPS = [-10.0, -2.0, 0.0, 0.5, 3.0, 10.0]
SUBNORMALS = [5e-324, -5e-324, 2.2e-310, -2.2e-310]


# --- verbatim pre-tiling formulas -------------------------------------------

def old_mirrored(x, magnitude_map):
    arr = np.asarray(x, dtype=np.float64)
    out = np.sign(arr) * magnitude_map(np.abs(arr))
    if np.ndim(x) == 0:
        return float(out)
    return out


def old_blt_forward(x, t):
    thr = t.threshold
    offset = t.n_exp + 1.0

    def fwd(mag):
        with np.errstate(divide="ignore"):
            logs = np.log2(np.where(mag > thr, mag, 1.0)) + offset
        return np.where(mag > thr, logs, mag / thr)

    return old_mirrored(x, fwd)


def old_blt_inverse(v, t):
    thr = t.threshold
    offset = t.n_exp + 1.0

    def inv(mag):
        return np.where(mag > 1.0, np.exp2(mag - offset), mag * thr)

    return old_mirrored(v, inv)


def old_gelu(x):
    x = np.asarray(x, dtype=np.float64)
    t = np.multiply(x, x, out=np.empty_like(x))
    t *= x
    t *= GELU_TANH_CUBIC
    t += x
    t *= GELU_TANH_COEFF
    np.tanh(t, out=t)
    t += 1.0
    out = np.multiply(0.5, x, out=np.empty_like(x))
    out *= t
    return out


def old_fake_quantize(x, p):
    arr = as_tensor(x, "tensor")
    t = arr / p.scale
    np.abs(t, out=t)
    t += 0.5
    np.floor(t, out=t)
    np.copysign(t, arr, out=t)
    t += p.zero_point
    np.clip(t, 0, p.n_levels - 1, out=t)
    t -= p.zero_point
    t *= p.scale
    return t


# --- helpers ------------------------------------------------------------------

def bits(value) -> bytes:
    """Exact bytes of a result, float or array, with its shape."""
    if isinstance(value, float):
        return b"f" + struct.pack("<d", value)
    return repr(value.shape).encode() + value.tobytes()


def filled(shape, pool, seed):
    """An array of ``shape``: every third element and the two at each end
    of every tile cycle through ``pool``, the rest are random draws over
    many scales. A 0-d array holds the last pool value.
    """
    size = int(np.prod(shape))
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal(size) * np.exp(rng.uniform(-12.0, 6.0, size))
    index = np.arange(size)
    at_edge = (index % T < 2) | (index % T >= T - 2)
    values = np.where((index % 3 == 0) | at_edge, np.resize(np.asarray(pool, float), size), draws)
    if shape == ():
        return np.float64(pool[-1])
    return values.reshape(shape)


def seam_pool(thr, one=None):
    pool = [0.0, -0.0, *SUBNORMALS, thr, -thr, np.nextafter(thr, np.inf), -np.nextafter(thr, np.inf),
            np.nextafter(thr, 0.0), -np.nextafter(thr, 0.0), 1.0, -1.0, 7.5, -7.5]
    if one is not None:
        pool += [np.nextafter(one, np.inf), -np.nextafter(one, np.inf),
                 np.nextafter(one, 0.0), -np.nextafter(one, 0.0)]
    return pool


# --- tests --------------------------------------------------------------------

@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("n_exp", N_EXPS)
def test_blt_forward_matches_whole_array_formula(shape, n_exp):
    t = TransformKind("blt", n_exp)
    x = filled(shape, seam_pool(t.threshold), seed=1)
    assert bits(blt_forward(x, t)) == bits(old_blt_forward(x, t))
    assert bits(apply_kind_forward(x, t)) == bits(old_blt_forward(x, t))


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("n_exp", N_EXPS)
def test_blt_inverse_matches_whole_array_formula(shape, n_exp):
    t = TransformKind("blt", n_exp)
    # |v| = 1 is the seam; magnitudes stay where exp2 is finite for every n
    v = np.clip(filled(shape, seam_pool(t.threshold, one=1.0), seed=2), -40.0, 40.0)
    assert bits(blt_inverse(v, t)) == bits(old_blt_inverse(v, t))
    assert bits(apply_kind_inverse(v, t)) == bits(old_blt_inverse(v, t))


@pytest.fixture(scope="module")
def desk_block_inputs():
    """The fake-quantized block inputs of the desk pipeline: a few levels on
    both sides of the seam, so the branch changes from element to element."""
    _, calib, _ = desk_setup(0)
    return [rec.x_q for rec in calib.records]


@pytest.mark.parametrize("n_exp", N_EXPS)
def test_blt_maps_match_on_fake_quantized_pipeline_inputs(desk_block_inputs, n_exp):
    t = TransformKind("blt", n_exp)
    for x in desk_block_inputs:
        if n_exp == 0.0:
            linear = (np.abs(x) <= t.threshold).ravel()
            assert np.count_nonzero(linear[1:] != linear[:-1]) > 0.3 * x.size
        v = old_blt_forward(x, t)
        assert bits(blt_forward(x, t)) == bits(v)
        assert bits(blt_inverse(v, t)) == bits(old_blt_inverse(v, t))
        # a compensated prediction: off the quantization levels, both seams crossed
        pred = 1.5 * v[:, ::-1] - 0.25
        assert bits(blt_inverse(pred, t)) == bits(old_blt_inverse(pred, t))


@pytest.mark.parametrize("n_exp", [-10.0, 0.0, 10.0])
def test_blt_maps_match_at_the_ends_of_the_float_range(n_exp):
    # where |x| / 2^-n, |v| * 2^-n or exp2 overflow, the branch not taken
    # must not turn into inf * 0 = nan
    t = TransformKind("blt", n_exp)
    big = np.finfo(np.float64).max
    pool = [big, -big, 1e306, -1e306, 1e300, -1e300, 2000.0, -2000.0, np.inf, -np.inf,
            0.0, -0.0, t.threshold, -t.threshold, 1.0, -1.0]
    x = np.array(pool * 3)
    with np.errstate(over="ignore"):
        assert bits(blt_forward(x, t)) == bits(old_blt_forward(x, t))
        assert bits(blt_inverse(x, t)) == bits(old_blt_inverse(x, t))


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_gelu_matches_whole_array_formula(shape):
    x = np.clip(filled(shape, [0.0, -0.0, *SUBNORMALS, 40.0, -40.0, 3.0, -3.0], seed=4), -1e6, 1e6)
    assert bits(gelu(x)) == bits(old_gelu(x))


@pytest.mark.parametrize("shape", [s for s in SHAPES if s != ()], ids=str)
@pytest.mark.parametrize("bits_, zero", [(4, 0), (4, 7), (4, 15), (8, 0), (8, 128), (8, 255)])
def test_fake_quantize_matches_whole_array_formula(shape, bits_, zero):
    p = QuantParams(bits_, 0.25, zero)
    halves = [(k + 0.5) * p.scale for k in range(-6, 6)]
    pool = [0.0, -0.0, *SUBNORMALS, *halves, 1e3, -1e3, -0.4 * p.scale, -0.6 * p.scale]
    x = filled(shape, pool, seed=5) * 30.0
    assert bits(fake_quantize(x, p)) == bits(old_fake_quantize(x, p))


def test_fake_quantize_keeps_promoting_zero_d_input():
    p = QuantParams(4, 0.5, 3)
    assert bits(fake_quantize(np.float64(-1.25), p)) == bits(old_fake_quantize(np.float64(-1.25), p))


class TestOutAliasing:
    def test_gelu_in_place(self):
        x = filled((3 * T + 7,), [0.0, -0.0, -3.0, 5.0], seed=6)
        expected = old_gelu(x)
        y = x.copy()
        assert gelu(y, out=y) is y
        assert bits(y) == bits(expected)

    @pytest.mark.parametrize("zero", [0, 8, 15])
    def test_fake_quantize_in_place_keeps_the_sign(self, zero):
        p = QuantParams(4, 0.5, zero)
        # negative codes below zero point survive the clip; their sign must too
        pool = [-3.2 * p.scale, -0.6 * p.scale, -0.4 * p.scale, -0.0, 2.5 * p.scale]
        x = filled((2 * T + 3,), pool, seed=7)
        expected = old_fake_quantize(x, p)
        if zero > 0:
            assert (expected < 0).any()
        y = x.copy()
        assert fake_quantize(y, p, out=y) is y
        assert bits(y) == bits(expected)

    def test_model_fake_quant_in_place(self):
        model, calib, _ = desk_setup(0)
        x = draw_inputs(model, calib.n_samples, calib.spec, calib.seed) * 3.0
        p = calib.qmodel.p_in[0]
        y = x.copy()
        assert calib.qmodel.fake_quant(y, p, out=y) is y
        assert bits(y) == bits(old_fake_quantize(x, p))

    def test_separate_out_leaves_input(self):
        x = filled((T + 1,), [1.0, -2.0], seed=8)
        keep = x.copy()
        out = np.empty_like(x)
        assert gelu(x, out=out) is out
        assert bits(x) == bits(keep) and bits(out) == bits(old_gelu(x))

    @pytest.mark.parametrize(
        "bad",
        [np.empty(4), np.empty((2, 3), dtype=np.float32), np.empty((3, 2)).T, [0.0] * 6],
        ids=["shape", "dtype", "order", "list"],
    )
    def test_unusable_out_rejected(self, bad):
        x = np.ones((2, 3))
        with pytest.raises(ValueError, match="out must be"):
            gelu(x, out=bad)
        with pytest.raises(ValueError, match="out must be"):
            fake_quantize(x, QuantParams(4, 0.5, 0), out=bad)

    def test_non_finite_rejected_before_writing(self):
        y = np.array([1.0, 2.0, np.nan])
        with pytest.raises(ValueError, match="non-finite"):
            fake_quantize(y, QuantParams(4, 0.5, 0), out=y)
        assert y[0] == 1.0 and y[1] == 2.0


def test_map_tiles_visits_every_element_once():
    seen = []

    def kernel(src, dst):
        seen.append(src.size)
        np.negative(src, out=dst)

    x = np.arange(2 * T + 1, dtype=np.float64)
    assert np.array_equal(map_tiles(kernel, x), -x)
    assert seen == [T, T, 1]
