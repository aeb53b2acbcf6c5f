"""Stored tensors survive a module bit for bit, under every storage, and
every tensor record header reads back or is a FormatError; property tests
over drawn tensors and headers, skipped where hypothesis is absent."""

import math
import struct

import numpy as np
import pytest

hnp = pytest.importorskip("hypothesis.extra.numpy")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from nbcq.compensation import (  # noqa: E402
    I8_SCALE_FLOOR,
    STORAGE_I8,
    STORAGE_NAMES,
    STORED_DTYPES,
    apply,
    stored_module,
    stored_tensors,
)
from nbcq.errors import FormatError  # noqa: E402
from nbcq.formats import read_tensor  # noqa: E402
from nbcq.transform import IDENTITY, TransformKind, apply_kind_forward, apply_kind_inverse  # noqa: E402


F32_MAX = float(np.finfo(np.float32).max)
KINDS = [IDENTITY, TransformKind("blt", -2.0), TransformKind("blt", 0.5), TransformKind("blt", 3.0)]


@st.composite
def stored_draws(draw):
    """``(storage, kind, tensors)``: stored tensors by role, as a bundle
    holds them, of a small module under a drawn storage."""
    storage = draw(st.sampled_from(STORAGE_NAMES))
    d_out, d_in = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    dtypes = STORED_DTYPES[storage]

    def floats(dtype, shape):
        width = np.dtype(dtype).itemsize * 8
        return draw(hnp.arrays(dtype, shape, elements=st.floats(allow_nan=False, allow_infinity=False,
                                                                width=width)))

    tensors = {"bias": floats(dtypes["bias"], d_out)}
    if storage == STORAGE_I8:
        tensors["weight"] = draw(hnp.arrays(np.int8, (d_out, d_in), elements=st.integers(-127, 127)))
        scale = st.one_of(
            st.sampled_from([I8_SCALE_FLOOR, F32_MAX, float(np.finfo(np.float32).smallest_subnormal)]),
            st.floats(min_value=0.0, exclude_min=True, max_value=F32_MAX, width=32),
        )
        tensors["scales"] = draw(hnp.arrays(np.dtype("<f4"), d_out, elements=scale))
    else:
        tensors["weight"] = floats(dtypes["weight"], (d_out, d_in))
    return storage, draw(st.sampled_from(KINDS)), {role: tensors[role] for role in dtypes}


class TestStoredTensors:
    @settings(max_examples=40, deadline=None, database=None)
    @given(draw=stored_draws(), data=st.data())
    def test_stored_tensors_survive_a_module_bit_for_bit(self, draw, data):
        storage, kind, tensors = draw
        mod = stored_module(kind, storage, tensors)
        back = stored_tensors(mod)
        assert list(back) == list(tensors)
        for role, tensor in tensors.items():
            assert back[role].dtype == tensor.dtype and back[role].tobytes() == tensor.tobytes(), role

        weight = tensors["weight"].astype(np.float64)
        if storage == STORAGE_I8:
            weight = weight * tensors["scales"].astype(np.float64)[:, None]
        n = data.draw(st.integers(1, 3))
        small = st.floats(-4.0, 4.0)
        x_q = data.draw(hnp.arrays(np.float64, (n, mod.d_in), elements=small))
        y_q = data.draw(hnp.arrays(np.float64, (n, mod.d_out), elements=small))
        bias = tensors["bias"].astype(np.float64)
        with np.errstate(over="ignore"):  # a weight near the largest f32 scale overflows the inverse map
            expected = y_q + apply_kind_inverse(apply_kind_forward(x_q, kind) @ weight.T + bias, kind)
            assert apply(mod, x_q, y_q).tobytes() == expected.tobytes()


class TestTensorRecordHeaders:
    # item sizes of the dtype codes 0..3 (f32, f64, f16, i8); other codes are unknown
    ITEMSIZE = {0: 4, 1: 8, 2: 2, 3: 1}

    @settings(max_examples=100, deadline=None, database=None)
    @given(ndim=st.integers(0, 255), dcode=st.integers(0, 255), pad=st.integers(0, 255), data=st.data())
    def test_a_header_reads_back_or_is_a_format_error(self, tmp_path_factory, ndim, dcode, pad, data):
        # small extents, mostly 1, so a deep record can still hold its
        # payload; a count too large to write gets none
        shape = data.draw(st.lists(st.sampled_from([1, 1, 1, 0, 2]), min_size=ndim, max_size=ndim))
        count = math.prod(shape)
        payload = bytes(count * self.ITEMSIZE.get(dcode, 1)) if count <= 64 else b""
        path = tmp_path_factory.mktemp("headers") / "t.nbct"
        path.write_bytes(b"NBCT" + bytes([1, dcode, ndim, pad]) + struct.pack(f"<{ndim}Q", *shape) + payload)
        try:
            arr = read_tensor(str(path))
        except FormatError:
            return
        assert pad == 0 and arr.shape == tuple(shape) and arr.dtype.itemsize == self.ITEMSIZE[dcode]
