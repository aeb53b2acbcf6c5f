"""Binary tensor and bundle formats.

Tensor file (magic "NBCT"):

    offset  size        field
    0       4           magic "NBCT"
    4       1           version (1)
    5       1           dtype: 0=f32, 1=f64, 2=f16, 3=i8
    6       1           ndim
    7       1           pad (0)
    8       8*ndim      extents, little-endian u64
    ...     prod*size   payload, row-major, little-endian

Compensation bundle (magic "NBCB"): after the magic, a version byte and a
little-endian u16 block count, then per block

    u16 block index, kind byte (0=identity 1=blt; other codes are
    rejected on read), f64 LE threshold exponent (+0.0 for identity),
    storage byte (0=f32 1=f16 2=i8_per_channel), then one embedded
    tensor record per role the storage keeps, in the order and file
    dtypes of ``compensation.STORED_DTYPES``: weight and bias, plus the
    per-row scales when storage is i8.

This module maps bytes to tensors only; which tensors a storage keeps,
how a module narrows to them and how they build a module back live in
``compensation``. Both formats round-trip bit-exactly and reject corrupt
files with distinct errors for bad magic, bad version and truncation; a
bundle block whose bytes decode to an invalid module (a non-finite value,
an exponent outside the operational range or under identity) is
a FormatError naming the block, and so is a tensor record whose dtype is
not the one its role has under the block's storage. All writes go through
a temp file and an atomic rename.
"""

from __future__ import annotations

import io
import os
import struct
import tempfile

import numpy as np

from .compensation import (
    STORAGE_F16,
    STORAGE_F32,
    STORAGE_I8,
    STORED_DTYPES,
    CompensationModule,
    stored_module,
    stored_tensors,
)
from .errors import BadMagicError, BadVersionError, FormatError, TruncatedFileError
from .transform import TransformKind

__all__ = [
    "TENSOR_MAGIC",
    "BUNDLE_MAGIC",
    "FORMAT_VERSION",
    "MAX_BUNDLE_BLOCKS",
    "atomic_write",
    "write_tensor",
    "read_tensor",
    "write_bundle",
    "read_bundle",
]

TENSOR_MAGIC = b"NBCT"
BUNDLE_MAGIC = b"NBCB"
FORMAT_VERSION = 1
MAX_BUNDLE_BLOCKS = 0xFFFF  # the u16 block count; the run configuration checks it too

# 2^33 elements (64 GiB of f64) is far beyond anything this toolkit writes.
_MAX_PAYLOAD_ELEMENTS = 1 << 33

_DTYPE_BY_CODE = {
    0: np.dtype("<f4"),
    1: np.dtype("<f8"),
    2: np.dtype("<f2"),
    3: np.dtype("<i1"),
}
# Codes 2, 3 and 4 stay unassigned: older bundles used them for maps the library dropped.
_CODE_BY_KIND = {"identity": 0, "blt": 1}
_KIND_BY_CODE = {v: k for k, v in _CODE_BY_KIND.items()}
_CODE_BY_STORAGE = {STORAGE_F32: 0, STORAGE_F16: 1, STORAGE_I8: 2}
_STORAGE_BY_CODE = {v: k for k, v in _CODE_BY_STORAGE.items()}


def _dtype_code(dtype: np.dtype) -> int:
    for code, dt in _DTYPE_BY_CODE.items():
        if dt == dtype.newbyteorder("<"):
            return code
    raise ValueError(f"unsupported tensor dtype {dtype}")


def atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temporary file in the same
    directory and a rename, so ``path`` never holds part of it."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".nbc-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _read_exact(f, count: int, path: str, what: str) -> bytes:
    data = f.read(count)
    if len(data) != count:
        raise TruncatedFileError(
            f"{path}: truncated while reading {what}; expected {count} bytes, got {len(data)}"
        )
    return data


def _write_tensor_stream(out: io.BytesIO, arr: np.ndarray) -> None:
    dtype = np.dtype(arr.dtype).newbyteorder("<")
    code = _dtype_code(dtype)
    if arr.ndim > 255:
        raise ValueError("tensor rank exceeds the format limit of 255")
    out.write(TENSOR_MAGIC)
    out.write(bytes([FORMAT_VERSION, code, arr.ndim, 0]))
    for extent in arr.shape:
        out.write(struct.pack("<Q", extent))
    out.write(np.ascontiguousarray(arr).astype(dtype, copy=False).tobytes(order="C"))


def _read_tensor_stream(f, path: str) -> np.ndarray:
    magic = _read_exact(f, 4, path, "tensor magic")
    if magic != TENSOR_MAGIC:
        raise BadMagicError(f"{path}: bad tensor magic {magic!r}")
    version, dcode, ndim, pad = _read_exact(f, 4, path, "tensor header")
    if version != FORMAT_VERSION:
        raise BadVersionError(f"{path}: unsupported tensor version {version}")
    if dcode not in _DTYPE_BY_CODE:
        raise FormatError(f"{path}: unknown dtype code {dcode}")
    if pad != 0:
        raise FormatError(f"{path}: nonzero pad byte {pad}")
    shape = tuple(
        struct.unpack("<Q", _read_exact(f, 8, path, f"extent {i}"))[0] for i in range(ndim)
    )
    dtype = _DTYPE_BY_CODE[dcode]
    count = 1
    for extent in shape:
        count *= extent
        # guards corrupt headers from triggering enormous allocations
        if count > _MAX_PAYLOAD_ELEMENTS:
            raise FormatError(f"{path}: tensor payload of {count} elements exceeds the format limit")
    # checked before the read, so a corrupt extent never sizes a buffer
    nbytes = count * dtype.itemsize
    left = os.fstat(f.fileno()).st_size - f.tell()
    if nbytes > left:
        raise TruncatedFileError(
            f"{path}: truncated while reading tensor payload; expected {nbytes} bytes, got {left}"
        )
    payload = _read_exact(f, nbytes, path, "tensor payload")
    return np.frombuffer(payload, dtype=dtype).reshape(shape).copy()


def write_tensor(path: str, arr) -> None:
    """Write an array as a tensor file; dtype is taken from the array."""
    arr = np.asarray(arr)
    out = io.BytesIO()
    _write_tensor_stream(out, arr)
    atomic_write(path, out.getvalue())


def read_tensor(path: str) -> np.ndarray:
    """Read a tensor file back in its stored dtype."""
    with open(path, "rb") as f:
        arr = _read_tensor_stream(f, path)
        trailing = f.read(1)
    if trailing:
        raise FormatError(f"{path}: trailing bytes after the tensor payload")
    return arr


def write_bundle(path: str, modules) -> None:
    """Write per-block compensation modules as one bundle file.

    A value that its storage cannot hold (see ``compensation.narrow``)
    raises ValueError naming the block, before anything is written.
    """
    modules = list(modules)
    if len(modules) > MAX_BUNDLE_BLOCKS:
        raise ValueError(f"bundle supports at most {MAX_BUNDLE_BLOCKS} blocks")
    out = io.BytesIO()
    out.write(BUNDLE_MAGIC)
    out.write(bytes([FORMAT_VERSION]))
    out.write(struct.pack("<H", len(modules)))
    for index, mod in enumerate(modules):
        try:
            tensors = stored_tensors(mod)
        except ValueError as exc:
            raise ValueError(f"block {index}: {exc}") from None
        out.write(struct.pack("<H", index))
        out.write(bytes([_CODE_BY_KIND[mod.kind.name]]))
        n_exp = 0.0 if mod.kind.n_exp is None else mod.kind.n_exp
        out.write(struct.pack("<d", n_exp))
        out.write(bytes([_CODE_BY_STORAGE[mod.storage]]))
        for tensor in tensors.values():
            _write_tensor_stream(out, tensor)
    atomic_write(path, out.getvalue())


def read_bundle(path: str) -> list[CompensationModule]:
    """Read a bundle back into per-block modules (values widened to f64)."""
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, path, "bundle magic")
        if magic != BUNDLE_MAGIC:
            raise BadMagicError(f"{path}: bad bundle magic {magic!r}")
        version = _read_exact(f, 1, path, "bundle version")[0]
        if version != FORMAT_VERSION:
            raise BadVersionError(f"{path}: unsupported bundle version {version}")
        count = struct.unpack("<H", _read_exact(f, 2, path, "block count"))[0]
        modules = []
        for position in range(count):
            index = struct.unpack("<H", _read_exact(f, 2, path, "block index"))[0]
            if index != position:
                raise FormatError(f"{path}: block index {index} out of order at {position}")
            kind_code = _read_exact(f, 1, path, "kind byte")[0]
            if kind_code not in _KIND_BY_CODE:
                raise FormatError(f"{path}: unknown kind code {kind_code}")
            n_field = _read_exact(f, 8, path, "threshold exponent")
            storage_code = _read_exact(f, 1, path, "storage byte")[0]
            if storage_code not in _STORAGE_BY_CODE:
                raise FormatError(f"{path}: unknown storage code {storage_code}")
            storage = _STORAGE_BY_CODE[storage_code]
            kind_name = _KIND_BY_CODE[kind_code]

            tensors = {}
            for role, dtype in STORED_DTYPES[storage].items():
                tensors[role] = _read_tensor_stream(f, path)
                if tensors[role].dtype != dtype:
                    raise FormatError(
                        f"{path}: block {position}: {role} record is {tensors[role].dtype.str}, "
                        f"{storage} storage stores {dtype}"
                    )
            try:  # the bytes decode, but the values must make a valid module
                # identity stores +0.0, which reads as no exponent
                n_exp = struct.unpack("<d", n_field)[0] if kind_name == "blt" or any(n_field) else None
                modules.append(stored_module(TransformKind(kind_name, n_exp), storage, tensors))
            except ValueError as exc:
                raise FormatError(f"{path}: block {position}: {exc}") from None
        trailing = f.read(1)
    if trailing:
        raise FormatError(f"{path}: trailing bytes after the last block")
    return modules
