"""Tests for IDX parsing, normalization, one-hot targets, and pixel dropout."""

import gzip
import os
import struct
import threading
import time
import tracemalloc

import numpy as np
import pytest

from elmboost import dataset
from elmboost.dataset import (
    IMAGE_MAGIC,
    LABEL_MAGIC,
    Dataset,
    IdxCompressionError,
    IdxDimensionError,
    IdxError,
    IdxMagicError,
    IdxTruncatedError,
    RawDataset,
    load_idx_images,
    load_idx_labels,
    normalize,
    one_hot_encode,
    zero_pixel_noise,
)

from helpers import normalize_reference, write_idx


def image_blob(count, rows, cols, payload):
    return struct.pack(">IIII", IMAGE_MAGIC, count, rows, cols) + payload


class TestLoadImages:
    def test_hand_built_blob_round_trips(self, tmp_path):
        payload = bytes(range(8))  # two 2x2 images
        path = tmp_path / "imgs"
        path.write_bytes(image_blob(2, 2, 2, payload))
        images = load_idx_images(path)
        assert images.shape == (2, 4)
        assert images.tobytes() == payload

    def test_gzipped_blob(self, tmp_path):
        payload = bytes(range(8))
        path = tmp_path / "imgs.gz"
        path.write_bytes(gzip.compress(image_blob(2, 2, 2, payload)))
        assert load_idx_images(path).tobytes() == payload

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 1, 1) + b"\x00")
        with pytest.raises(IdxMagicError):
            load_idx_images(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short"
        path.write_bytes(b"\x00" * 10)
        with pytest.raises(IdxTruncatedError):
            load_idx_images(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "cut"
        path.write_bytes(image_blob(2, 2, 2, bytes(5)))
        with pytest.raises(IdxTruncatedError):
            load_idx_images(path)

    def test_dimension_overflow(self, tmp_path):
        path = tmp_path / "huge"
        path.write_bytes(image_blob(2**31, 2**16, 2**16, b""))
        with pytest.raises(IdxDimensionError):
            load_idx_images(path)

    def test_zero_dimension(self, tmp_path):
        path = tmp_path / "flat"
        path.write_bytes(image_blob(1, 0, 4, b""))
        with pytest.raises(IdxDimensionError):
            load_idx_images(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "long"
        path.write_bytes(image_blob(1, 1, 2, bytes(2) + b"extra"))
        with pytest.raises(IdxError):
            load_idx_images(path)


class TestCorruptGzip:
    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda gz: gz[:3],
            lambda gz: gz[:10],
            lambda gz: gz[:-8],
            lambda gz: gz[:-1],
            lambda gz: gz[:-5] + bytes([gz[-5] ^ 0xFF]) + gz[-4:],
            lambda gz: gz[:10] + b"\xff" + gz[11:],
        ],
        ids=["cut-in-header", "header-only", "no-trailer", "short-trailer", "bad-crc",
             "reserved-block-type"],
    )
    def test_raises_compression_error_naming_path(self, tmp_path, corrupt):
        path = tmp_path / "bad.gz"
        path.write_bytes(corrupt(gzip.compress(image_blob(2, 2, 2, bytes(8)))))
        with pytest.raises(IdxCompressionError, match="bad.gz"):
            load_idx_images(path)


class TestBoundedRead:
    """Memory follows the bytes a file holds, never the size its header declares."""

    @pytest.mark.parametrize("suffix", ["", ".gz"])
    def test_declared_payload_beyond_the_file_is_not_allocated(self, tmp_path, suffix):
        path = tmp_path / f"imgs{suffix}"
        blob = image_blob(2**13, 2**13, 2**13, bytes(5))
        path.write_bytes(gzip.compress(blob) if suffix else blob)
        tracemalloc.start()
        try:
            with pytest.raises(IdxTruncatedError, match=f"expected {2**39} bytes, found 5"):
                load_idx_images(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * dataset._READ_CHUNK

    @pytest.mark.parametrize(
        "extra, error, match",
        [(-3, IdxTruncatedError, "expected 6 bytes, found 3"), (4, IdxError, "4 trailing bytes")],
    )
    def test_regular_file_size_is_checked_before_the_payload_is_read(
        self, tmp_path, monkeypatch, extra, error, match
    ):
        path = tmp_path / "labels"
        path.write_bytes(struct.pack(">II", LABEL_MAGIC, 6) + bytes(6 + extra))
        monkeypatch.setattr(dataset, "_read_payload", lambda *args: pytest.fail("the payload was read"))
        with pytest.raises(error, match=match):
            load_idx_labels(path)

    @pytest.mark.parametrize("suffix", ["", ".gz"])
    @pytest.mark.parametrize("chunk", [1, 3, 1 << 20])
    def test_payload_does_not_depend_on_the_chunk_size(self, tmp_path, monkeypatch, chunk, suffix):
        payload = bytes(range(256)) * 3
        blob = image_blob(3, 16, 16, payload)
        path = tmp_path / f"imgs{suffix}"
        path.write_bytes(gzip.compress(blob) if suffix else blob)
        monkeypatch.setattr(dataset, "_READ_CHUNK", chunk)
        images = load_idx_images(path)
        assert images.shape == (3, 256) and images.tobytes() == payload

    def test_gzipped_payload_is_held_at_its_own_size(self, tmp_path):
        count = 12_000  # 12 000 images of 28 x 28: a 9.0 MiB payload
        path = tmp_path / "imgs.gz"
        path.write_bytes(gzip.compress(image_blob(count, 28, 28, bytes(count * 784)), 1))
        tracemalloc.start()
        try:
            images = load_idx_images(path)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert images.shape == (count, 784) and not images.any()
        assert held <= images.nbytes + 64 * 1024


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
class TestFifo:
    """IDX files read through a named pipe, whose size is not known up front."""

    @staticmethod
    def send(path, blob):
        # The first byte goes alone, so the reader's first peek can see only it.
        try:
            with open(path, "wb", buffering=0) as fifo:
                fifo.write(blob[:1])
                time.sleep(0.05)
                fifo.write(blob[1:])
        except BrokenPipeError:  # the reader refused the file part way
            pass

    def load(self, path, blob):
        os.mkfifo(path)
        writer = threading.Thread(target=self.send, args=(path, blob), daemon=True)
        writer.start()
        try:
            return load_idx_images(path)
        finally:
            writer.join(timeout=10)
            assert not writer.is_alive()

    @pytest.mark.parametrize("suffix", ["", ".gz"])
    @pytest.mark.parametrize("chunk", [3, 1 << 20])
    def test_first_byte_sent_alone(self, tmp_path, monkeypatch, chunk, suffix):
        payload = bytes(range(256)) * 3
        blob = image_blob(3, 16, 16, payload)
        monkeypatch.setattr(dataset, "_READ_CHUNK", chunk)
        images = self.load(tmp_path / f"imgs{suffix}", gzip.compress(blob) if suffix else blob)
        assert images.shape == (3, 256) and images.tobytes() == payload

    @pytest.mark.parametrize("suffix", ["", ".gz"])
    def test_trailing_bytes(self, tmp_path, suffix):
        blob = image_blob(1, 1, 2, bytes(2) + b"extra")
        with pytest.raises(IdxError, match="5 trailing bytes"):
            self.load(tmp_path / f"imgs{suffix}", gzip.compress(blob) if suffix else blob)


class TestLoadLabels:
    def test_constructed_fixture(self, tmp_path):
        path = tmp_path / "labels"
        path.write_bytes(struct.pack(">II", LABEL_MAGIC, 3) + bytes([0, 2, 1]))
        assert load_idx_labels(path).tolist() == [0, 2, 1]

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(struct.pack(">II", IMAGE_MAGIC, 1) + b"\x00")
        with pytest.raises(IdxMagicError):
            load_idx_labels(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "cut"
        path.write_bytes(struct.pack(">II", LABEL_MAGIC, 5) + bytes(2))
        with pytest.raises(IdxTruncatedError):
            load_idx_labels(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short"
        path.write_bytes(struct.pack(">I", LABEL_MAGIC) + b"\x00")
        with pytest.raises(IdxTruncatedError):
            load_idx_labels(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "long"
        path.write_bytes(struct.pack(">II", LABEL_MAGIC, 2) + bytes([1, 0]) + b"extra")
        with pytest.raises(IdxError, match="5 trailing bytes"):
            load_idx_labels(path)

    def test_out_of_range_label_fails_at_pairing(self):
        images = np.zeros((1, 4), dtype=np.uint8)
        with pytest.raises(ValueError, match="label out of range"):
            RawDataset(images=images, labels=np.array([10]), num_classes=10)

    def test_count_mismatch_at_pairing(self):
        with pytest.raises(ValueError, match="count mismatch"):
            RawDataset(
                images=np.zeros((2, 4), dtype=np.uint8),
                labels=np.array([0]),
                num_classes=2,
            )


class TestIdxRoundTrip:
    def test_write_read_images_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, (5, 12), dtype=np.uint8)
        path = tmp_path / "rt-images"
        write_idx(path, images.reshape(5, 3, 4))
        assert np.array_equal(load_idx_images(path), images)

    def test_write_read_gzip(self, tmp_path):
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, (4, 9), dtype=np.uint8)
        labels = rng.integers(0, 10, 4)
        write_idx(tmp_path / "i.gz", images.reshape(4, 3, 3))
        write_idx(tmp_path / "l.gz", labels)
        assert np.array_equal(load_idx_images(tmp_path / "i.gz"), images)
        assert np.array_equal(load_idx_labels(tmp_path / "l.gz"), labels)


class TestNormalize:
    def test_three_step_hand_example(self):
        # [0, 1, 4] -> sqrt [0, 1, 2] -> center [-1, 0, 1] -> scale by 1/sqrt(2)
        raw = RawDataset(
            images=np.array([[0, 1, 4]], dtype=np.uint8),
            labels=np.array([0]),
            num_classes=1,
        )
        data = normalize(raw)
        want = np.array([[-1 / np.sqrt(2), 0.0, 1 / np.sqrt(2)]])
        assert np.abs(data.x - want).max() < 1e-12

    def test_all_zero_row_stays_zero_with_warning(self):
        raw = RawDataset(
            images=np.zeros((2, 4), dtype=np.uint8),
            labels=np.array([0, 0]),
            num_classes=1,
        )
        with pytest.warns(RuntimeWarning, match="2 all-constant"):
            data = normalize(raw)
        assert np.array_equal(data.x, np.zeros((2, 4)))

    def test_all_constant_row_stays_zero(self):
        raw = RawDataset(
            images=np.full((1, 5), 7, dtype=np.uint8),
            labels=np.array([0]),
            num_classes=1,
        )
        with pytest.warns(RuntimeWarning):
            data = normalize(raw)
        assert np.array_equal(data.x, np.zeros((1, 5)))

    def test_rows_have_zero_mean_unit_norm(self):
        rng = np.random.default_rng(2)
        raw = RawDataset(
            images=rng.integers(0, 256, (50, 30), dtype=np.uint8),
            labels=rng.integers(0, 3, 50),
            num_classes=3,
        )
        data = normalize(raw)
        assert np.abs(data.x.mean(axis=1)).max() < 1e-9
        assert np.abs(np.linalg.norm(data.x, axis=1) - 1.0).max() < 1e-9

    def test_center_scale_idempotent(self):
        rng = np.random.default_rng(3)
        raw = RawDataset(
            images=rng.integers(0, 256, (20, 16), dtype=np.uint8),
            labels=np.zeros(20, dtype=np.int64),
            num_classes=1,
        )
        x = normalize(raw).x
        again = x - x.mean(axis=1, keepdims=True)
        again /= np.linalg.norm(again, axis=1, keepdims=True)
        assert np.abs(again - x).max() < 1e-9

    @pytest.mark.parametrize("n, m", [(1, 5), (1023, 9), (1024, 9), (1025, 9), (3000, 100)])
    def test_bitwise_the_one_shot_formula(self, n, m):
        # the row norms are computed block by block; every bit must stay
        rng = np.random.default_rng(n + m)
        images = rng.integers(0, 256, (n, m), dtype=np.uint8)
        images[::7] = 9  # all-constant rows, row 0 among them
        raw = RawDataset(images=images, labels=np.zeros(n, dtype=np.int64), num_classes=1)
        with pytest.warns(RuntimeWarning, match="all-constant"):
            x = normalize(raw).x
        assert np.array_equal(x.view(np.uint64), normalize_reference(images).view(np.uint64))

    @pytest.mark.parametrize("block", [1, 7, 256, 1024])
    def test_row_norms_do_not_depend_on_the_block_size(self, block, monkeypatch):
        monkeypatch.setattr(dataset, "_NORM_BLOCK_ROWS", block)
        rng = np.random.default_rng(block)
        for n in (255, 256, 257, 1000):
            x = rng.standard_normal((n, 784))
            want = np.linalg.norm(x, axis=1)
            assert np.array_equal(dataset._row_norms(x).view(np.uint64), want.view(np.uint64)), n

    def test_peak_memory_below_one_and_a_half_outputs(self):
        rng = np.random.default_rng(4)
        raw = RawDataset(
            images=rng.integers(0, 256, (4096, 256), dtype=np.uint8),
            labels=np.zeros(4096, dtype=np.int64),
            num_classes=1,
        )
        tracemalloc.start()
        try:
            x = normalize(raw).x
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * x.nbytes


class TestOneHot:
    def test_label_two_of_four(self):
        assert one_hot_encode([2], 4).tolist() == [[0.0, 0.0, 1.0, 0.0]]

    def test_single_class(self):
        assert one_hot_encode([0], 1).tolist() == [[1.0]]

    def test_two_rows(self):
        assert one_hot_encode([1, 0], 2).tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_row_and_column_sums(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 5, 100)
        y = one_hot_encode(labels, 5)
        assert np.array_equal(y.sum(axis=1), np.ones(100))
        assert np.array_equal(y.sum(axis=0), np.bincount(labels, minlength=5).astype(float))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            one_hot_encode([3], 3)
        with pytest.raises(ValueError):
            one_hot_encode([-1], 3)

    @pytest.mark.parametrize(
        "labels, k, match", [([[0, 1]], 2, "1-D"), ([], 0, "num_classes must be >= 1")]
    )
    def test_bad_shape_or_class_count_rejected(self, labels, k, match):
        with pytest.raises(ValueError, match=match):
            one_hot_encode(labels, k)

    def test_fractional_label_rejected(self):
        with pytest.raises(ValueError, match=r"labels\[0\] = 1.5 changes when cast to int64"):
            one_hot_encode([1.5], 2)

    @pytest.mark.parametrize(
        "labels, dtype", [([2**70], "object"), ([None], "object"), (["1"], "<U1")]
    )
    def test_non_numeric_label_rejected(self, labels, dtype):
        with pytest.raises(ValueError, match=f"labels must be real, got {dtype}"):
            one_hot_encode(labels, 2)


class TestZeroPixelNoise:
    @staticmethod
    def raw(rng, n=20, m=784):
        # intensities 1..255 so every output zero is an injected one
        return RawDataset(
            images=rng.integers(1, 256, (n, m), dtype=np.uint8),
            labels=rng.integers(0, 4, n),
            num_classes=4,
        )

    def test_fraction_zero_is_identity(self):
        raw = self.raw(np.random.default_rng(5))
        noisy = zero_pixel_noise(raw, 0.0, seed=1)
        assert np.array_equal(noisy.images, raw.images)
        assert noisy.images is not raw.images

    def test_fraction_one_blanks_everything(self):
        raw = self.raw(np.random.default_rng(6), n=4, m=10)
        assert not zero_pixel_noise(raw, 1.0, seed=1).images.any()

    def test_exact_count_per_image(self):
        raw = self.raw(np.random.default_rng(7))
        noisy = zero_pixel_noise(raw, 0.1, seed=2)
        zeros_per_image = (noisy.images == 0).sum(axis=1)
        assert np.array_equal(zeros_per_image, np.full(20, 78))  # round(78.4) = 78

    def test_seed_reproducible(self):
        raw = self.raw(np.random.default_rng(8))
        a = zero_pixel_noise(raw, 0.3, seed=11)
        b = zero_pixel_noise(raw, 0.3, seed=11)
        c = zero_pixel_noise(raw, 0.3, seed=12)
        assert np.array_equal(a.images, b.images)
        assert not np.array_equal(a.images, c.images)

    def test_zero_fraction_at_least_requested(self):
        rng = np.random.default_rng(9)
        raw = RawDataset(
            images=rng.integers(0, 256, (50, 784), dtype=np.uint8),
            labels=np.zeros(50, dtype=np.int64),
            num_classes=1,
        )
        noisy = zero_pixel_noise(raw, 0.1, seed=3)
        assert (noisy.images == 0).mean() >= 0.1

    def test_original_untouched(self):
        raw = self.raw(np.random.default_rng(10), n=3, m=8)
        before = raw.images.copy()
        zero_pixel_noise(raw, 0.5, seed=4)
        assert np.array_equal(raw.images, before)

    def test_bad_fraction_rejected(self):
        raw = self.raw(np.random.default_rng(11), n=2, m=4)
        with pytest.raises(ValueError, match="noise fraction"):
            zero_pixel_noise(raw, 1.5, seed=0)

    @pytest.mark.parametrize("fraction", [-0.1, 1.1])
    def test_fraction_that_rounds_into_range_rejected(self, fraction):
        # with M = 4 both round to a pixel count in [0, M], so only the check objects
        raw = self.raw(np.random.default_rng(11), n=2, m=4)
        with pytest.raises(ValueError, match="noise fraction"):
            zero_pixel_noise(raw, fraction, seed=0)


def _raw(images, labels, num_classes):
    return RawDataset(images=images, labels=labels, num_classes=num_classes)


def _normalized(images, labels, num_classes):
    return Dataset(x=images, labels=labels, num_classes=num_classes)


@pytest.mark.parametrize("build", [_raw, _normalized], ids=["RawDataset", "Dataset"])
class TestPairing:
    def test_nested_lists_are_converted(self, build):
        made = build([[0, 0], [0, 0]], [1, 0], 2)
        samples = made.images if build is _raw else made.x
        assert samples.shape == (2, 2) and samples.flags.c_contiguous
        assert made.labels.dtype == np.int64 and made.labels.tolist() == [1, 0]

    @pytest.mark.parametrize(
        "images, labels, num_classes, match",
        [
            (np.zeros(4), [0], 1, "N x M"),
            (np.zeros((2, 0)), [0, 0], 1, "N x M"),
            (np.zeros((2, 4)), [0], 2, "count mismatch"),
            (np.zeros((2, 4)), [0, 0, 0], 2, "count mismatch"),
            (np.zeros((2, 4)), [[0, 0]], 2, "1-D"),
            (np.zeros((0, 4)), [], 0, "num_classes must be >= 1"),
            (np.zeros((2, 4)), [0, 3], 3, "label out of range"),
            (np.zeros((2, 4)), [-1, 0], 3, "label out of range"),
            (np.zeros((2, 4)), [0, 1.9], 2, r"labels\[1\] = 1.9 changes when cast to int64"),
            (np.zeros((2, 4)), [0, 1 + 0j], 2, "labels must be real, got complex128"),
            (np.zeros((2, 4)), [0, 2**70], 2, "labels must be real, got object"),
            (np.zeros((2, 4)), [None, 0], 2, "labels must be real, got object"),
            (np.zeros((2, 4)), ["1", "0"], 2, "labels must be real, got <U1"),
        ],
    )
    def test_rejected(self, build, images, labels, num_classes, match):
        with pytest.raises(ValueError, match=match):
            build(images, labels, num_classes)

    def test_strided_samples_of_the_stored_dtype_are_made_contiguous(self, build):
        dtype = np.uint8 if build is _raw else np.float64
        made = build(np.zeros((2, 8), dtype)[:, ::2], [0, 0], 1)
        samples = made.images if build is _raw else made.x
        assert samples.shape == (2, 4) and samples.flags.c_contiguous

    def test_exact_casts_are_accepted(self, build):
        made = build(np.zeros((2, 3), np.float32), np.array([1.0, 0.0]), 2)
        assert made.labels.tolist() == [1, 0]


class TestLossyRawImages:
    """RawDataset refuses images whose cast to uint8 would change a value."""

    @pytest.mark.parametrize(
        "images, match",
        [
            ([[300, 5]], r"samples\[0, 0\] = 300 changes when cast to uint8"),
            ([[-1, 5]], r"samples\[0, 0\] = -1 "),
            ([[0.7, 200.9]], r"samples\[0, 0\] = 0.7 "),
            ([[1, 2], [3, 256]], r"samples\[1, 1\] = 256 "),
            ([[1.0, np.nan]], r"samples\[0, 1\] = nan "),
            ([[1.0, np.inf]], r"samples\[0, 1\] = inf "),
        ],
        ids=["too large", "negative", "fractional", "second row", "nan", "inf"],
    )
    def test_first_changed_value_is_named(self, images, match):
        with pytest.raises(ValueError, match=match):
            RawDataset(images=images, labels=[0] * len(images), num_classes=1)

    @pytest.mark.parametrize(
        "images", [[[1 + 2j, 5]], [[1 + 0j, 5]]], ids=["imaginary", "zero imaginary"]
    )
    def test_complex_rejected(self, images):
        with pytest.raises(ValueError, match="samples must be real, got complex128"):
            RawDataset(images=images, labels=[0], num_classes=1)

    @pytest.mark.parametrize(
        "images, match",
        [
            ([[2**70, 1]], "samples must be real, got object"),
            ([[None, 1]], "samples must be real, got object"),
            (np.array([[1, 2]], dtype=object), "samples must be real, got object"),
            ([["1", "2"]], "samples must be real, got <U1"),
        ],
        ids=["beyond int64", "None", "object of small ints", "string"],
    )
    def test_non_numeric_rejected(self, images, match):
        with pytest.raises(ValueError, match=match):
            RawDataset(images=images, labels=[0], num_classes=1)


class TestDatasetValidation:
    def test_rejects_unnormalized_rows(self):
        with pytest.raises(ValueError, match="not normalized"):
            Dataset(x=np.array([[1.0, 2.0]]), labels=np.array([0]), num_classes=1)

    def test_rejects_integers_float64_cannot_hold(self):
        x = np.array([[2**53 + 1, -(2**53 + 1)]])
        with pytest.raises(ValueError, match=r"samples\[0, 0\] = 9007199254740993 .* float64"):
            Dataset(x=x, labels=[0], num_classes=1)

    def test_accepts_zero_rows(self):
        data = Dataset(x=np.zeros((2, 3)), labels=np.array([0, 0]), num_classes=1)
        assert data.x.shape == (2, 3)
