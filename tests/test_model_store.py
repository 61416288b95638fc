"""Tests for the binary model format: layout, checksums, round-trips."""

import ctypes
import struct

import numpy as np
import pytest

from elmboost import model_store
from elmboost.boost import HyperParams, predict_scores, train
from elmboost.dataset import one_hot_encode
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

from helpers import crc64_reference, make_dataset, needs_lzma_crc64


@pytest.fixture
def small_model():
    rng = np.random.default_rng(0)
    data = make_dataset(rng, 60, 9, 3)
    y = one_hot_encode(data.labels, 3)
    hyper = HyperParams(lam=1.0, alpha=0.5, t_steps=2, levels=2, hidden=5, master_seed=99)
    model, _ = train(data, y, hyper)
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
        model, _ = train(data, one_hot_encode(data.labels, k), hyper)
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
