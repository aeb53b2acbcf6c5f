import dataclasses
import inspect
import os
import re
import struct

import numpy as np
import pytest

from nbcq.compensation import (
    STORAGE_F16,
    STORAGE_I8,
    STORAGE_NAMES,
    CompensationModule,
    fit_linear,
    store_params,
)
from nbcq.cli import RunConfig, read_run_config
from nbcq.errors import (
    BadMagicError,
    BadVersionError,
    ConfigError,
    FormatError,
    TruncatedFileError,
)
from nbcq.fls import FlsConfig
from nbcq.formats import (
    BUNDLE_MAGIC,
    MAX_BUNDLE_BLOCKS,
    atomic_write,
    read_bundle,
    read_tensor,
    write_bundle,
    write_tensor,
)
from nbcq.harness import OutlierSpec, build_toy_model, generate_calibration
from nbcq.transform import IDENTITY, TransformKind

from helpers import (
    desk_setup,
    f16_roundtrip_struct,
    f32_roundtrip_struct,
    oversized_bundle_bytes,
    oversized_tensor_header,
)


def sample_modules(rng):
    w = rng.standard_normal((4, 6))
    b = rng.standard_normal(4)
    working = CompensationModule(kind=TransformKind("blt", 2.5), weight=w, bias=b)
    f16 = store_params(
        CompensationModule(kind=IDENTITY, weight=rng.standard_normal((4, 6)), bias=rng.standard_normal(4)),
        STORAGE_F16,
    )
    i8 = store_params(
        CompensationModule(kind=TransformKind("blt", -1.0), weight=rng.standard_normal((4, 6)), bias=rng.standard_normal(4)),
        STORAGE_I8,
    )
    return [working, f16, i8]


class TestTensorFiles:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.float16, np.int8])
    def test_round_trip_bit_exact(self, tmp_path, dtype):
        rng = np.random.default_rng(1)
        if dtype == np.int8:
            arr = rng.integers(-128, 128, size=(3, 5), dtype=np.int8)
        else:
            arr = rng.standard_normal((3, 5)).astype(dtype)
        path = str(tmp_path / "t.nbct")
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.dtype == arr.dtype
        assert back.tobytes() == arr.tobytes()
        write_tensor(str(tmp_path / "t2.nbct"), back)
        assert (tmp_path / "t.nbct").read_bytes() == (tmp_path / "t2.nbct").read_bytes()

    def test_rank_one_and_three(self, tmp_path):
        for arr in (np.arange(7.0), np.arange(24.0).reshape(2, 3, 4)):
            path = str(tmp_path / "r.nbct")
            write_tensor(path, arr)
            assert np.array_equal(read_tensor(path), arr)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.nbct"
        path.write_bytes(b"XXXX" + bytes(16))
        with pytest.raises(BadMagicError):
            read_tensor(str(path))

    def test_bad_version(self, tmp_path):
        path = str(tmp_path / "v.nbct")
        write_tensor(path, np.zeros(2))
        data = bytearray(open(path, "rb").read())
        data[4] = 9
        open(path, "wb").write(bytes(data))
        with pytest.raises(BadVersionError):
            read_tensor(path)

    def test_truncated_payload_names_byte_counts(self, tmp_path):
        path = str(tmp_path / "trunc.nbct")
        write_tensor(path, np.arange(10.0))
        data = open(path, "rb").read()
        open(path, "wb").write(data[:-24])
        with pytest.raises(TruncatedFileError, match="expected 80 bytes, got 56$"):
            read_tensor(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = str(tmp_path / "trail.nbct")
        write_tensor(path, np.zeros(2))
        with open(path, "ab") as f:
            f.write(b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            read_tensor(path)

    def test_unknown_dtype_code(self, tmp_path):
        path = str(tmp_path / "dt.nbct")
        write_tensor(path, np.zeros(2))
        data = bytearray(open(path, "rb").read())
        data[5] = 7
        open(path, "wb").write(bytes(data))
        with pytest.raises(FormatError, match="dtype"):
            read_tensor(path)

    def test_no_temp_files_left_behind(self, tmp_path):
        write_tensor(str(tmp_path / "a.nbct"), np.zeros(4))
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert leftovers == []

    def test_absurd_extent_rejected_before_allocation(self, tmp_path):
        import struct

        path = tmp_path / "huge.nbct"
        header = b"NBCT" + bytes([1, 1, 1, 0]) + struct.pack("<Q", 1 << 60)
        path.write_bytes(header)
        with pytest.raises(FormatError, match="exceeds the format limit"):
            read_tensor(str(path))

    def test_payload_beyond_the_file_is_truncation_before_the_read(self, tmp_path):
        # the header is within the element limit, but the file holds 4 of
        # the 2^35 payload bytes it declares
        path = tmp_path / "short.nbct"
        path.write_bytes(oversized_tensor_header() + bytes(4))
        with pytest.raises(TruncatedFileError, match=f"tensor payload; expected {4 << 33} bytes, got 4$"):
            read_tensor(str(path))

    def test_unsupported_dtype_rejected_before_writing(self, tmp_path):
        path = tmp_path / "t.nbct"
        with pytest.raises(ValueError, match="^unsupported tensor dtype int32$"):
            write_tensor(str(path), np.zeros(3, dtype=np.int32))
        assert os.listdir(tmp_path) == []


class TestAtomicWrite:
    def test_failed_rename_names_the_target_and_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "existing"
        target.mkdir()
        with pytest.raises(IsADirectoryError) as info:
            atomic_write(str(target), b"data")
        assert str(info.value) == f"[Errno 21] Is a directory: {str(target)!r}"
        assert os.listdir(tmp_path) == ["existing"] and os.listdir(target) == []

    def test_missing_directory_names_the_target(self, tmp_path):
        target = str(tmp_path / "missing" / "b.nbcb")
        with pytest.raises(FileNotFoundError) as info:
            atomic_write(target, b"data")
        assert str(info.value) == f"[Errno 2] No such file or directory: {target!r}"
        assert os.listdir(tmp_path) == []


class TestBundles:
    def test_round_trip_all_storages(self, tmp_path):
        rng = np.random.default_rng(2)
        modules = sample_modules(rng)
        path = str(tmp_path / "b.nbcb")
        write_bundle(path, modules)
        back = read_bundle(path)
        assert len(back) == 3
        for orig, loaded in zip(modules, back):
            assert loaded.kind == orig.kind
            assert loaded.storage == orig.storage
            assert loaded.ridge_used is None and loaded.residual_rms is None  # not stored
            if orig.storage == STORAGE_I8:
                assert np.array_equal(loaded.weight, orig.weight)
                assert np.array_equal(loaded.scales, orig.scales)
            codec = f32_roundtrip_struct if orig.storage == "f32" else f16_roundtrip_struct
            assert np.array_equal(loaded.bias, [codec(v) for v in orig.bias])

    @pytest.mark.parametrize("storage", STORAGE_NAMES)
    def test_stored_module_reads_back_bit_for_bit(self, tmp_path, storage):
        rng = np.random.default_rng(6)
        mod = CompensationModule(
            kind=TransformKind("blt", 2.5), weight=100.0 * rng.standard_normal((4, 6)),
            bias=100.0 * rng.standard_normal(4),
        )
        stored = store_params(mod, storage)
        path = str(tmp_path / "b.nbcb")
        write_bundle(path, [stored])
        (loaded,) = read_bundle(path)
        assert (loaded.kind, loaded.storage) == (stored.kind, storage)
        for field in ("weight", "scales", "bias"):
            ours, back = getattr(stored, field), getattr(loaded, field)
            if ours is None:
                assert back is None, field
            else:
                assert back.dtype == ours.dtype and back.tobytes() == ours.tobytes(), field

    def test_exponent_field_keeps_the_sign_of_zero(self, tmp_path):
        # identity writes +0.0; blt writes its own, -0.0 included
        rng = np.random.default_rng(4)
        weight, bias = rng.standard_normal((4, 6)), rng.standard_normal(4)
        modules = [CompensationModule(kind=kind, weight=weight, bias=bias)
                   for kind in (TransformKind("blt", -0.0), IDENTITY)]
        path = str(tmp_path / "b.nbcb")
        write_bundle(path, modules)
        data = open(path, "rb").read()
        block = (len(data) - 7) // 2
        assert data[10:18] == struct.pack("<d", -0.0)  # block 0's field, after its index and kind byte
        assert data[7 + block + 3 : 7 + block + 11] == bytes(8)
        blt, identity = read_bundle(path)
        assert blt.kind.n_exp == 0.0 and np.signbit(blt.kind.n_exp)
        assert identity.kind.n_exp is None

    def test_file_level_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        modules = sample_modules(rng)
        p1 = str(tmp_path / "b1.nbcb")
        p2 = str(tmp_path / "b2.nbcb")
        write_bundle(p1, modules)
        write_bundle(p2, read_bundle(p1))
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_stored_modules_apply_identically_after_reload(self, tmp_path):
        rng = np.random.default_rng(4)
        x_q = rng.standard_normal((20, 6))
        y_q = rng.standard_normal((20, 4))
        from nbcq.compensation import apply

        modules = sample_modules(rng)[1:]  # the f16 and i8 ones hold exact stored values
        path = str(tmp_path / "b.nbcb")
        write_bundle(path, modules)
        back = read_bundle(path)
        for orig, loaded in zip(modules, back):
            assert np.array_equal(apply(orig, x_q, y_q), apply(loaded, x_q, y_q))

    @pytest.mark.parametrize(
        "storage, field, value, dtype",
        [
            ("f32", "bias", 1e39, "float32"),
            ("f32", "weight", -3.5e38, "float32"),
            (STORAGE_F16, "weight", 65520.0, "float16"),
            (STORAGE_I8, "bias", 1e5, "float16"),
            (STORAGE_I8, "scales", 1e39, "float32"),
        ],
    )
    def test_value_that_overflows_its_storage_refused(self, tmp_path, storage, field, value, dtype):
        # modules built directly, as store_params would refuse these values
        scales = np.ones(4) if storage == STORAGE_I8 else None
        module = CompensationModule(
            kind=IDENTITY, weight=np.ones((4, 6)), bias=np.zeros(4), storage=storage, scales=scales
        )
        values = getattr(module, field).copy()
        values.flat[3] = value
        changed = {field: values}
        if field == "scales":  # the weight keeps its codes: one times each row's scale
            changed["weight"] = np.ones((4, 6)) * values[:, None]
        module = dataclasses.replace(module, **changed)
        with pytest.raises(ValueError) as info:
            write_bundle(str(tmp_path / "b.nbcb"), [sample_modules(np.random.default_rng(5))[0], module])
        assert str(info.value) == (
            f"block 1: {field} value {value!r} at flat index 3 overflows {storage} storage ({dtype})"
        )
        assert os.listdir(tmp_path) == []  # nothing written, not even a temporary file

    @pytest.mark.parametrize("scale", [0.0, -0.5])
    def test_non_positive_i8_scale_refused_naming_block_and_scales(self, tmp_path, scale):
        mod = CompensationModule(kind=IDENTITY, weight=np.ones((4, 6)), bias=np.zeros(4))
        path = tmp_path / "b.nbcb"
        write_bundle(str(path), [store_params(mod, STORAGE_I8)])
        data = path.read_bytes()
        # the file ends with the block's four f32 scales; set the first
        path.write_bytes(data[:-16] + struct.pack("<f", scale) + data[-12:])
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: block 0: scales must be finite and > 0$"):
            read_bundle(str(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.nbcb"
        path.write_bytes(b"NOPE" + bytes(8))
        with pytest.raises(BadMagicError):
            read_bundle(str(path))

    def test_truncated_block(self, tmp_path):
        rng = np.random.default_rng(5)
        path = str(tmp_path / "b.nbcb")
        write_bundle(path, sample_modules(rng))
        data = open(path, "rb").read()
        open(path, "wb").write(data[: len(data) // 2])
        with pytest.raises(TruncatedFileError):
            read_bundle(path)

    def test_oversized_weight_header_is_truncation(self, tmp_path):
        path = tmp_path / "huge.nbcb"
        path.write_bytes(oversized_bundle_bytes())
        assert path.stat().st_size == 60
        with pytest.raises(TruncatedFileError, match="tensor payload; expected 34359738368 bytes, got 17"):
            read_bundle(str(path))

    def test_unknown_kind_code(self, tmp_path):
        rng = np.random.default_rng(6)
        path = str(tmp_path / "b.nbcb")
        write_bundle(path, sample_modules(rng))
        data = bytearray(open(path, "rb").read())
        data[9] = 250  # kind byte of block 0
        open(path, "wb").write(bytes(data))
        with pytest.raises(FormatError, match="kind"):
            read_bundle(path)

    @pytest.mark.parametrize("code", [2, 3, 4])
    def test_reserved_kind_codes_rejected(self, tmp_path, code):
        # 2, 3 and 4 named asinh, tanh and sigmoid in older bundles
        rng = np.random.default_rng(6)
        path = str(tmp_path / "b.nbcb")
        write_bundle(path, sample_modules(rng))
        data = bytearray(open(path, "rb").read())
        data[9] = code  # kind byte of block 0
        open(path, "wb").write(bytes(data))
        with pytest.raises(FormatError, match=re.escape(f"{path}: unknown kind code {code}")):
            read_bundle(path)

    @pytest.mark.parametrize(
        "field, offset, payload, reason",
        [
            ("exponent", 3, struct.pack("<d", float("nan")), "n_exp must be finite"),
            ("exponent", 3, struct.pack("<d", 50.0), "outside operational range"),
            ("weight", 36, np.array([np.nan], dtype="<f2").tobytes(), "weight contains non-finite"),
        ],
        ids=["exponent-nan", "exponent-50", "f16-weight-nan"],
    )
    def test_invalid_block_contents_rejected_naming_block(self, tmp_path, field, offset, payload, reason):
        # the bytes decode, but block 1 does not make a valid module
        rng = np.random.default_rng(7)
        module = store_params(
            CompensationModule(kind=TransformKind("blt", 2.0), weight=rng.standard_normal((4, 6)), bias=rng.standard_normal(4)),
            STORAGE_F16,
        )
        path = str(tmp_path / "b.nbcb")
        write_bundle(path, [module])
        block_bytes = os.path.getsize(path) - 7  # after magic, version and block count
        write_bundle(path, [module, module])
        data = bytearray(open(path, "rb").read())
        # block layout: u16 index, kind byte, f64 exponent, storage byte, then the
        # weight tensor record (8-byte header, two u64 extents, f16 payload)
        start = 7 + block_bytes + offset
        data[start : start + len(payload)] = payload
        open(path, "wb").write(bytes(data))
        with pytest.raises(FormatError, match=re.escape(f"{path}: block 1: ") + ".*" + reason) as info:
            read_bundle(path)
        assert type(info.value) is FormatError

    @pytest.mark.parametrize(
        "offset, value, error, message",
        [
            (4, 2, BadVersionError, "unsupported bundle version 2"),
            (7, 1, FormatError, "block index 1 out of order at 0"),
            (18, 7, FormatError, "unknown storage code 7"),
            (19 + 7, 1, FormatError, "nonzero pad byte 1"),
            (None, 0, FormatError, "trailing bytes after the last block"),
        ],
        ids=["version", "block-index", "storage", "tensor-pad", "trailing"],
    )
    def test_header_rejections_name_the_field(self, tmp_path, offset, value, error, message):
        # offsets into the bundle: magic 0-3, version 4, block count 5-6,
        # then block 0's u16 index 7-8, kind 9, exponent 10-17, storage 18,
        # and its weight record from 19 (pad byte at record offset 7);
        # no offset appends one byte after the last block
        rng = np.random.default_rng(9)
        path = str(tmp_path / "b.nbcb")
        write_bundle(path, sample_modules(rng))
        data = bytearray(open(path, "rb").read())
        if offset is None:
            data.append(value)
        else:
            data[offset] = value
        open(path, "wb").write(bytes(data))
        with pytest.raises(error, match=f"^{re.escape(f'{path}: {message}')}$") as info:
            read_bundle(path)
        assert type(info.value) is error

    @pytest.mark.parametrize("value", [5.0, float("nan"), -0.0], ids=["5", "nan", "minus-zero"])
    @pytest.mark.parametrize("kind", [IDENTITY], ids=["identity"])
    def test_exponent_under_a_kind_without_one_rejected_naming_block(self, tmp_path, kind, value):
        # the field is +0.0 for identity; a block read with any other
        # value there would be written back as other bytes
        rng = np.random.default_rng(8)
        module = CompensationModule(kind=kind, weight=rng.standard_normal((4, 6)), bias=rng.standard_normal(4))
        path = str(tmp_path / "b.nbcb")
        write_bundle(path, [module, module])
        data = bytearray(open(path, "rb").read())
        start = 7 + (len(data) - 7) // 2 + 3  # block 1's field, after its index and kind byte
        assert data[start : start + 8] == bytes(8)
        data[start : start + 8] = struct.pack("<d", value)
        open(path, "wb").write(bytes(data))
        with pytest.raises(FormatError, match=re.escape(f"{path}: block 1: {kind.name} kind does not take n_exp")):
            read_bundle(path)


def tensor_record(tmp_path, arr) -> bytes:
    path = str(tmp_path / "record.nbct")
    write_tensor(path, arr)
    return open(path, "rb").read()


class TestBundleBlockCount:
    def test_more_blocks_than_the_count_holds_rejected_before_encoding(self, tmp_path, monkeypatch):
        import nbcq.formats as formats_mod

        def no_encode(*args, **kwargs):
            raise AssertionError("a block was encoded")

        monkeypatch.setattr(formats_mod, "stored_tensors", no_encode)
        mod = CompensationModule(kind=IDENTITY, weight=np.ones((1, 1)), bias=np.zeros(1))
        with pytest.raises(ValueError, match=f"^bundle supports at most {MAX_BUNDLE_BLOCKS} blocks$"):
            write_bundle(str(tmp_path / "b.nbcb"), [mod] * (MAX_BUNDLE_BLOCKS + 1))
        assert MAX_BUNDLE_BLOCKS + 1 == 65536 and os.listdir(tmp_path) == []


class TestRecordDtypes:
    """A bundle block's tensor records must have the file dtypes its storage
    keeps; a record of another dtype is refused, naming the block and role.
    The records of an i8 block must also agree in shape."""

    @pytest.mark.parametrize(
        "storage_code, records, role",
        [
            # i8 storage whose weight record is f32: a cast would wrap -300.25 to code -44
            (2, [("<f4", [[-300.25]]), ("<f2", [0.5]), ("<f4", [1.0])], "weight"),
            (2, [("<i1", [[3]]), ("<f4", [0.5]), ("<f4", [1.0])], "bias"),
            (1, [("<f8", [[0.1]]), ("<f8", [0.5])], "weight"),  # f16 storage, f64 records
        ],
        ids=["i8-f32-weight", "i8-f32-bias", "f16-f64-records"],
    )
    def test_wrong_dtype_record_rejected(self, tmp_path, storage_code, records, role):
        # magic, version, one block: index 0, identity kind, exponent 0.0, storage byte
        data = BUNDLE_MAGIC + bytes([1]) + struct.pack("<HHBdB", 1, 0, 0, 0.0, storage_code)
        data += b"".join(tensor_record(tmp_path, np.array(v, dtype=dt)) for dt, v in records)
        path = tmp_path / "b.nbcb"
        path.write_bytes(data)
        with pytest.raises(FormatError, match=f"{re.escape(str(path))}: block 0: {role} record is "):
            read_bundle(str(path))

    @pytest.mark.parametrize(
        "codes, scales",
        [
            ([1, 2, 3], [1.0, 1.0, 1.0]),  # 1-D codes of length d_in next to d_out scales
            ([[1, 2, 3]], [1.0, 1.0, 1.0]),  # one row of codes next to d_out scales
            ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 1.0),  # 0-d scales
            ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], [[1.0], [1.0], [1.0]]),  # (d_out, 1) scales
        ],
        ids=["1d-codes", "one-row-codes", "0d-scales", "column-scales"],
    )
    def test_i8_codes_and_scales_of_mismatched_shapes_rejected(self, tmp_path, codes, scales):
        # the decode must not broadcast these into a weight the file does not hold
        records = [("<i1", codes), ("<f2", [0.5, 0.5, 0.5]), ("<f4", scales)]
        data = BUNDLE_MAGIC + bytes([1]) + struct.pack("<HHBdB", 1, 0, 0, 0.0, 2)
        data += b"".join(tensor_record(tmp_path, np.array(v, dtype=dt)) for dt, v in records)
        path = tmp_path / "b.nbcb"
        path.write_bytes(data)
        with pytest.raises(FormatError) as info:
            read_bundle(str(path))
        assert str(info.value) == f"{path}: block 0: per-row scales must match the weight row count"


class TestRunConfigFile:
    def test_parse_with_comments_and_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            """
            # harness geometry
            d = 8
            h = 16
            seed = 42        # master seed
            mode = linear
            outlier_scale = 6.5
            """
        )
        cfg = read_run_config(str(path))
        assert cfg.d == 8 and cfg.h == 16 and cfg.seed == 42
        assert cfg.mode == "linear"
        assert cfg.outlier_scale == 6.5
        assert cfg.n_blocks == RunConfig().n_blocks  # default preserved

    def test_defaults_are_the_documented_desk_configuration(self):
        # written out, so a changed library default cannot move a CLI default unseen
        assert dataclasses.asdict(RunConfig()) == {
            "d": 16, "h": 32, "n_blocks": 4, "n_samples": 512, "seed": 0, "bits_w": 4, "bits_a": 4,
            "mode": "nbc", "storage": "f32",
            "n_init": 2.0, "n_min": -10.0, "n_max": 10.0, "step": 1.0,
            "outlier_fraction": 0.1, "outlier_scale": 12.0,
        }

    def test_no_default_restates_a_library_default(self):
        # a key named as a field or keyword of the library takes its default from there
        library = {f.name: f.default for cls in (OutlierSpec, FlsConfig) for f in dataclasses.fields(cls)}
        for fn in (build_toy_model, generate_calibration):
            for param in inspect.signature(fn).parameters.values():
                if param.default is not inspect.Parameter.empty:
                    library[param.name] = param.default
        shared = [f for f in dataclasses.fields(RunConfig) if f.name in library]
        assert {f.name for f in shared} >= {"outlier_scale", "step"}
        assert {f.name: f.default for f in shared} == {f.name: library[f.name] for f in shared}

    def test_library_default_model_is_the_run_default_model(self):
        run_model = desk_setup(0)[0]
        library_model = build_toy_model(16, 32, 4, 0)
        for a, b in zip(run_model.w1 + run_model.w2, library_model.w1 + library_model.w2):
            assert a.tobytes() == b.tobytes()

    def test_builds_the_library_configs(self):
        cfg = RunConfig(seed=5, outlier_scale=4.0, n_init=1.0, step=0.5)
        assert cfg.outlier_spec() == OutlierSpec(outlier_scale=4.0)
        # a run at seed s splits its hold-out at s + 2
        assert cfg.search_config() == FlsConfig(n_init=1.0, step=0.5, seed=7)

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("d = 8\nbogus_key = 3\n")
        with pytest.raises(ConfigError, match="bogus_key"):
            read_run_config(str(path))

    def test_invalid_value_reported_with_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("d = not_a_number\n")
        with pytest.raises(ConfigError, match="invalid value"):
            read_run_config(str(path))

    def test_invalid_enum_values(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("mode = turbo\n")
        with pytest.raises(ConfigError, match="mode"):
            read_run_config(str(path))

    def test_missing_file_names_path(self, tmp_path):
        missing = str(tmp_path / "absent.cfg")
        with pytest.raises(ConfigError, match="absent.cfg"):
            read_run_config(missing)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError, match="key = value"):
            read_run_config(str(path))
