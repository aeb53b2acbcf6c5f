"""``grid_round``, and every quantizer that rounds through it, against an
exact half-away oracle built on ``fractions.Fraction``: a property test over
drawn finite float64 values and grids, skipped where hypothesis is absent."""

import math
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from nbcq.compensation import STORAGE_I8, CompensationModule, store_params, stored_tensors  # noqa: E402
from nbcq.quantizer import (  # noqa: E402
    SCALE_FLOOR,
    QuantParams,
    fake_quantize,
    grid_round,
    level_codes,
    level_table,
    quantize_per_channel,
    range_params,
    value_range,
)
from nbcq.transform import IDENTITY  # noqa: E402

# multiples of the scale at and beside the float edges of rounding
EDGES = [0.5, 0.49999999999999994, 1.5, 2.0**52 + 1, 2.0**53 - 1, 1e308, 5e-324]
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def oracle(x: float, scale: float, lo, hi) -> float:
    """``clip(round(x / scale), lo, hi)``: the float64 quotient rounded to the
    nearest integer, halves away from zero, in exact rational arithmetic."""
    q = x / scale  # IEEE division, as numpy's
    if math.isinf(q):
        return float(hi if q > 0 else lo)
    n = math.floor(abs(Fraction(q)) + Fraction(1, 2))
    return float(min(max(n if q >= 0 else -n, lo), hi))


def level(code: float, scale: float) -> bytes:
    """The bytes of the fake-quant value of ``code``: +0.0, never -0.0."""
    return np.float64(code * scale + 0.0).tobytes()


@st.composite
def draws(draw):
    """``(p, x, y)``: a grid and two finite values, often on or beside one of
    its ties; a power-of-two scale makes ``x / scale`` exact."""
    bits = draw(st.integers(2, 8))
    scale = draw(st.one_of(
        st.sampled_from([2.0**-20, 0.25, 1.0, 2.0**40, SCALE_FLOOR]),
        st.floats(min_value=0.0, exclude_min=True, max_value=1e300),
    ))
    p = QuantParams(bits, scale, draw(st.integers(0, 2**bits - 1)))
    multiple = st.one_of(st.sampled_from(EDGES), st.integers(-300, 300).map(lambda k: k + 0.5))
    near = st.builds(lambda m, sign: sign * m * scale, multiple, st.sampled_from([1.0, -1.0]))
    value = st.one_of(FINITE, near.filter(math.isfinite))
    return p, draw(value), draw(value)


@settings(max_examples=200, deadline=None, database=None)
@given(draw=draws())
# x / scale and code * scale may overflow to inf in numpy as in the
# oracle's float arithmetic; a quotient at inf clips to a bound
@np.errstate(over="ignore")
def test_every_rounding_matches_the_exact_oracle(draw):
    p, x, y = draw
    top = p.n_levels - 1
    lo, hi = -p.zero_point, top - p.zero_point
    assert grid_round(x, p.scale, lo, hi) == oracle(x, p.scale, lo, hi)
    assert grid_round(x, p.scale, -np.inf, np.inf) == oracle(x, p.scale, -math.inf, math.inf)
    x_q = fake_quantize([x], p)
    assert x_q.tobytes() == level(oracle(x, p.scale, lo, hi), p.scale)
    assert level_table(p)[level_codes(x_q, p)].tobytes() == x_q.tobytes()

    row = [x, y]
    # the range widened to hold zero; its span or top level may overflow
    low, high = min(*row, 0.0), max(*row, 0.0)
    scale = max((high - low) / top, SCALE_FLOOR)
    if math.isfinite(top * scale):
        rp = range_params(*value_range(row), p.bits)
        assert (rp.scale, rp.zero_point) == (scale, oracle(-low, scale, 0, top))
        got = quantize_per_channel([row], p.bits).dequantize()[0]
        lo, hi = -rp.zero_point, top - rp.zero_point
        assert [g.tobytes() for g in got] == [level(oracle(v, scale, lo, hi), scale) for v in row]
    else:
        with pytest.raises(ValueError, match="^scale must be positive and finite"):
            quantize_per_channel([row], p.bits)

    if max(abs(x), abs(y)) <= 1e38:  # else the int8 row scale overflows float32
        stored = store_params(CompensationModule(IDENTITY, np.array([row]), np.zeros(1)), STORAGE_I8)
        codes = stored_tensors(stored)["weight"][0]
        assert codes.tolist() == [oracle(v, float(stored.scales[0]), -127, 127) for v in row]
