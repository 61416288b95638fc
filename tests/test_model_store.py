"""Tests for the binary model format: layout, checksums, round-trips."""

import ctypes
import dataclasses
import errno
import os
import struct
import tracemalloc
import types

import numpy as np
import pytest

from elmboost import model_store
from elmboost.boost import BoostedModel, HyperParams, predict_scores, train
from elmboost.model_store import (
    HEADER_SIZE,
    BadMagicError,
    ChecksumError,
    ModelFormatError,
    TruncatedError,
    UnsupportedVersionError,
    crc64,
    load,
    save,
)
from elmboost.projection import Activation

from helpers import crc64_reference, fifo_writer, make_dataset, needs_lzma_crc64, needs_mkfifo


@pytest.fixture
def small_model():
    rng = np.random.default_rng(0)
    data = make_dataset(rng, 60, 9, 3)
    hyper = HyperParams(lam=1.0, alpha=0.5, t_steps=2, levels=2, hidden=5, master_seed=99)
    model, _ = train(data, hyper)
    return model, data


def rewrite(path, mutate):
    blob = bytearray(path.read_bytes())
    mutate(blob)
    path.write_bytes(bytes(blob))


def refresh_crc(blob):
    blob[-8:] = struct.pack("<Q", crc64(bytes(blob[:-8])))


class TestCrc64:
    """model_store.crc64, the kernel this interpreter picked; subclasses call each kernel."""

    crc64 = staticmethod(crc64)

    def test_catalog_check_value(self):
        assert self.crc64(b"123456789") == 0x995DC9BBDF1939FA
        assert crc64_reference(b"123456789") == 0x995DC9BBDF1939FA

    def test_empty(self):
        assert self.crc64(b"") == 0

    def test_chaining(self):
        data = bytes(range(200))
        assert self.crc64(data[120:], state=self.crc64(data[:120])) == self.crc64(data)


class TestLaneCrc64(TestCrc64):
    crc64 = staticmethod(model_store._lane_crc64)


@needs_lzma_crc64
class TestNativeCrc64(TestCrc64):
    crc64 = staticmethod(model_store._native_crc64)


@pytest.mark.parametrize(
    "kernel",
    [
        pytest.param(model_store._lane_crc64, id="lanes"),
        pytest.param(model_store._native_crc64, id="native", marks=needs_lzma_crc64),
    ],
)
class TestCrc64State:
    def test_largest_state_admitted(self, kernel):
        state = 2**64 - 1
        assert kernel(b"abc", state) == crc64_reference(b"abc", state)

    @pytest.mark.parametrize("state", [-1, 2**64])
    def test_state_outside_the_register_rejected(self, kernel, state):
        # a C uint64 would wrap these to 2**64 - 1 and 5 and return a wrong CRC
        with pytest.raises(ValueError, match="state"):
            kernel(b"abc", state)

    @pytest.mark.parametrize("state", [2.0, "0", None])
    def test_non_integer_state_rejected(self, kernel, state):
        with pytest.raises(TypeError):
            kernel(b"abc", state)


def test_native_kernel_is_picked_where_liblzma_exports_it():
    # looked up independently of model_store, so a broken lookup there fails
    # here rather than silently running the slower numpy kernel
    try:
        import _lzma

        ctypes.CDLL(_lzma.__file__).lzma_crc64
    except (ImportError, AttributeError, OSError):
        pytest.skip("liblzma's lzma_crc64 cannot be reached from this interpreter")
    assert model_store.crc64 is model_store._native_crc64


class TestRoundTrip:
    def test_fields_and_weights_survive(self, small_model, tmp_path):
        model, _ = small_model
        path = tmp_path / "m.elmb"
        save(model, path)
        loaded = load(path)
        assert loaded.hyper == model.hyper
        assert loaded.num_classes == model.num_classes
        assert loaded.input_width == model.input_width
        assert np.array_equal(model.weights, loaded.weights)
        # one writable, C-ordered copy of the payload, not a view of the file bytes
        assert loaded.weights.flags.owndata and loaded.weights.flags.writeable
        assert loaded.weights.flags.c_contiguous

    def test_predictions_bitwise_after_reload(self, small_model, tmp_path):
        model, data = small_model
        path = tmp_path / "m.elmb"
        save(model, path)
        loaded = load(path)
        assert np.array_equal(predict_scores(model, data.x), predict_scores(loaded, data.x))

    @pytest.mark.parametrize("seed", range(20))
    def test_trained_and_reloaded_predict_bitwise(self, tmp_path, seed):
        # Random small shapes: BLAS picks its kernel by shape and operand
        # layout, so one fixed shape can hide a layout difference.
        rng = np.random.default_rng(seed)
        m, k = int(rng.integers(2, 40)), int(rng.integers(2, 11))
        data = make_dataset(rng, int(rng.integers(20, 90)), m, k)
        hyper = HyperParams(
            lam=1.0, alpha=0.5,
            t_steps=int(rng.integers(1, 4)), levels=int(rng.integers(1, 3)),
            hidden=int(rng.integers(2, 40)),
            activation=(Activation.TANH, Activation.SIGN)[seed % 2],
            master_seed=seed,
        )
        model, _ = train(data, hyper)
        path = tmp_path / "m.elmb"
        save(model, path)
        x = make_dataset(rng, int(rng.integers(1, 60)), m, k).x
        assert predict_scores(model, x).tobytes() == predict_scores(load(path), x).tobytes()

    def test_save_load_save_is_canonical(self, small_model, tmp_path):
        model, _ = small_model
        first, second = tmp_path / "a.elmb", tmp_path / "b.elmb"
        save(model, first)
        save(load(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_file_size_formula(self, small_model, tmp_path):
        model, _ = small_model
        path = tmp_path / "m.elmb"
        save(model, path)
        l, t = model.hyper.levels, model.hyper.t_steps
        j, k = model.hyper.hidden, model.num_classes
        assert path.stat().st_size == HEADER_SIZE + 8 * l * t * j * k + 8
        assert HEADER_SIZE == 57

    @pytest.mark.parametrize("activation, code", [(Activation.TANH, 0), (Activation.SIGN, 1)])
    def test_every_header_field_at_its_documented_offset(self, tmp_path, activation, code):
        # Distinct values in every field: a swapped pair of fields would still
        # round-trip through save and load, but not read back here.
        hyper = HyperParams(lam=0.25, alpha=0.75, t_steps=3, levels=2, hidden=5,
                            activation=activation, master_seed=0x0123456789ABCDEF)
        weights = np.arange(2 * 3 * 5 * 11, dtype=np.float64).reshape(2, 3, 5, 11)
        path = tmp_path / "m.elmb"
        save(BoostedModel(hyper=hyper, weights=weights, num_classes=11, input_width=7), path)
        blob = path.read_bytes()
        documented = [
            (0, "4s", b"ELMB"), (4, "I", 1), (8, "I", 0),
            (12, "Q", 0x0123456789ABCDEF), (20, "d", 0.25), (28, "d", 0.75),
            (36, "I", 2), (40, "I", 3), (44, "I", 5), (48, "I", 7), (52, "I", 11),
            (56, "B", code),
        ]
        for offset, fmt, value in documented:
            assert struct.unpack_from("<" + fmt, blob, offset) == (value,), offset
        assert blob[HEADER_SIZE:-8] == weights.astype("<f8").tobytes()


class TestFormatErrors:
    def test_corrupted_payload_byte(self, small_model, tmp_path):
        model, _ = small_model
        path = tmp_path / "m.elmb"
        save(model, path)
        rewrite(path, lambda blob: blob.__setitem__(HEADER_SIZE + 3, blob[HEADER_SIZE + 3] ^ 0xFF))
        with pytest.raises(ChecksumError):
            load(path)

    def test_bad_magic(self, small_model, tmp_path):
        model, _ = small_model
        path = tmp_path / "m.elmb"
        save(model, path)
        rewrite(path, lambda blob: blob.__setitem__(0, ord(b"X")))
        with pytest.raises(BadMagicError):
            load(path)

    def test_unsupported_version(self, small_model, tmp_path):
        model, _ = small_model
        path = tmp_path / "m.elmb"
        save(model, path)

        def bump_version(blob):
            blob[4:8] = struct.pack("<I", 2)
            refresh_crc(blob)

        rewrite(path, bump_version)
        with pytest.raises(UnsupportedVersionError):
            load(path)

    def test_unknown_generator_id(self, small_model, tmp_path):
        model, _ = small_model
        path = tmp_path / "m.elmb"
        save(model, path)

        def bump_generator(blob):
            blob[8:12] = struct.pack("<I", 7)
            refresh_crc(blob)

        rewrite(path, bump_generator)
        with pytest.raises(UnsupportedVersionError):
            load(path)

    def test_unknown_activation_code(self, small_model, tmp_path):
        model, _ = small_model
        path = tmp_path / "m.elmb"
        save(model, path)

        def poison_activation(blob):
            blob[56] = 9
            refresh_crc(blob)

        rewrite(path, poison_activation)
        with pytest.raises(ModelFormatError):
            load(path)

    def test_truncation(self, small_model, tmp_path):
        model, _ = small_model
        path = tmp_path / "m.elmb"
        save(model, path)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(TruncatedError):
            load(path)

    def test_file_shrank_after_fstat(self, small_model, tmp_path, monkeypatch):
        # fstat reports the whole file, but it was cut mid-payload before the
        # read: the short read itself must end in TruncatedError
        model, _ = small_model
        path = tmp_path / "m.elmb"
        save(model, path)
        declared = path.stat().st_size
        path.write_bytes(path.read_bytes()[: HEADER_SIZE + 13])
        real_fstat = os.fstat

        def whole_file(fd):
            return types.SimpleNamespace(st_mode=real_fstat(fd).st_mode, st_size=declared)

        monkeypatch.setattr(model_store.os, "fstat", whole_file)
        with pytest.raises(TruncatedError, match="ended before"):
            load(path)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "stub.elmb"
        path.write_bytes(b"ELMB" + bytes(10))
        with pytest.raises(TruncatedError):
            load(path)

    def test_trailing_bytes(self, small_model, tmp_path):
        model, _ = small_model
        path = tmp_path / "m.elmb"
        save(model, path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(ModelFormatError):
            load(path)

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "noise.bin"
        path.write_bytes(b"PK\x03\x04" + bytes(100))
        with pytest.raises(BadMagicError):
            load(path)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lambda(self, small_model, tmp_path, lam):
        model, _ = small_model
        path = tmp_path / "m.elmb"
        save(model, path)

        def poison_lambda(blob):
            blob[20:28] = struct.pack("<d", lam)
            refresh_crc(blob)

        rewrite(path, poison_lambda)
        with pytest.raises(ModelFormatError, match="lam"):
            load(path)

    @pytest.mark.parametrize("num_classes, input_width", [(0, 4), (2, 0)])
    def test_size_below_one(self, tmp_path, num_classes, input_width):
        # K = 0 declares an empty grid, so the file is a header and a checksum
        blob = bytearray(struct.pack(
            "<4sIIQddIIIIIB", b"ELMB", 1, 0, 0, 1.0, 0.5, 1, 1, 3, input_width, num_classes, 0
        ))
        blob += bytes(8 * 3 * num_classes + 8)
        refresh_crc(blob)
        path = tmp_path / "m.elmb"
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError, match="must be >= 1"):
            load(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weight(self, small_model, tmp_path, bad):
        model, _ = small_model
        path = tmp_path / "m.elmb"
        save(model, path)

        def poison_weight(blob):
            offset = len(blob) - 8 - 8  # the last weight, just before the checksum
            blob[offset : offset + 8] = struct.pack("<d", bad)
            refresh_crc(blob)

        rewrite(path, poison_weight)
        with pytest.raises(ModelFormatError, match="non-finite"):
            load(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("index", [0, 1, 29, 59])
    def test_non_finite_weight_anywhere_in_the_grid(self, small_model, tmp_path, bad, index):
        model, _ = small_model
        assert model.weights.size == 60
        path = tmp_path / "m.elmb"
        save(model, path)

        def poison_weight(blob):
            offset = HEADER_SIZE + 8 * index
            blob[offset : offset + 8] = struct.pack("<d", bad)
            refresh_crc(blob)

        rewrite(path, poison_weight)
        with pytest.raises(ModelFormatError, match="non-finite"):
            load(path)


def fresh_bytes(model, tmp_path):
    path = tmp_path / "fresh.elmb"
    save(model, path)
    return path.read_bytes()


class TestOverwrite:
    @pytest.mark.parametrize("size_delta", [-500, -1, 0, 1, 4096], ids=lambda d: f"{d:+d}")
    def test_over_an_existing_file_equals_a_fresh_save(self, small_model, tmp_path, size_delta):
        model, _ = small_model
        expected = fresh_bytes(model, tmp_path)
        path = tmp_path / "m.elmb"
        path.write_bytes(b"\xa5" * (len(expected) + size_delta))
        save(model, path)
        assert path.read_bytes() == expected

    def test_through_a_symlink_rewrites_the_target(self, small_model, tmp_path):
        model, _ = small_model
        expected = fresh_bytes(model, tmp_path)
        target = tmp_path / "target.elmb"
        target.write_bytes(b"\xa5" * (3 * len(expected)))
        link = tmp_path / "link.elmb"
        link.symlink_to(target)
        save(model, link)
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == expected

    def test_to_dev_null(self, small_model):
        model, _ = small_model
        if not os.path.exists(os.devnull):
            pytest.skip(f"no {os.devnull} here")
        save(model, os.devnull)

    @pytest.mark.parametrize("old", ["absent", "shorter", "same-shape", "longer"])
    def test_save_failing_mid_weights_leaves_a_rejected_file(
        self, small_model, tmp_path, monkeypatch, old
    ):
        model, _ = small_model
        path = tmp_path / "m.elmb"
        if old != "absent":
            # another model's file: fewer, as many or more levels than the one saved over it
            levels = {"shorter": 1, "same-shape": 2, "longer": 3}[old]
            hyper = dataclasses.replace(model.hyper, levels=levels)
            grid = np.full((levels, hyper.t_steps, hyper.hidden, model.num_classes), 0.25)
            other = BoostedModel(
                hyper=hyper, weights=grid, num_classes=model.num_classes,
                input_width=model.input_width,
            )
            save(other, path)
        written = []
        write_all = model_store._write_all

        def torn(fd, data):
            written.append(data.nbytes)
            if len(written) == 2:
                # half the weights reach the file, then the device fills up
                write_all(fd, data[: data.nbytes // 2])
                raise OSError(errno.ENOSPC, "No space left on device")
            write_all(fd, data)

        monkeypatch.setattr(model_store, "_write_all", torn)
        with pytest.raises(OSError):
            save(model, path)
        assert written[0] == HEADER_SIZE
        with pytest.raises(ModelFormatError):
            load(path)


def traced_peak(call):
    """call's result and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestAllocations:
    """save and load move the payload between the file and the grid without copies."""

    @pytest.fixture
    def persist_model(self):
        # the benchmark's persist shape: a 2.5 MB weight grid
        hyper = HyperParams(levels=8, t_steps=5, hidden=784, master_seed=3)
        weights = np.random.default_rng(3).standard_normal((8, 5, 784, 10))
        return BoostedModel(hyper=hyper, weights=weights, num_classes=10, input_width=784)

    def test_save_allocates_no_payload_copy(self, persist_model, tmp_path):
        payload = persist_model.weights.nbytes
        _, peak = traced_peak(lambda: save(persist_model, tmp_path / "m.elmb"))
        assert peak < 64 * 1024 < payload // 16

    def test_load_allocates_the_grid_once(self, persist_model, tmp_path):
        path = tmp_path / "m.elmb"
        save(persist_model, path)
        payload = persist_model.weights.nbytes
        loaded, peak = traced_peak(lambda: load(path))
        assert np.array_equal(loaded.weights, persist_model.weights)
        # at least the grid itself, so the bound below is not vacuous
        assert payload <= peak < payload + 64 * 1024

    def test_huge_declared_grid_is_refused_before_allocating(self, tmp_path):
        path = tmp_path / "huge.elmb"
        most = 2**32 - 1
        header = struct.pack(
            "<4sIIQddIIIIIB", b"ELMB", 1, 0, 0, 1.0, 0.5, most, most, most, 784, most, 0
        )
        path.write_bytes(header + bytes(8))
        assert path.stat().st_size == HEADER_SIZE + 8
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedError):
                load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024


@needs_mkfifo
class TestNonRegularFile:
    def test_fifo_is_refused_naming_the_cause(self, small_model, tmp_path):
        model, _ = small_model
        fifo = tmp_path / "pipe.elmb"
        with fifo_writer(fifo, fresh_bytes(model, tmp_path)):
            with pytest.raises(ModelFormatError, match="not a regular file"):
                load(fifo)
