"""MNIST-format IDX ingestion, row normalization, targets, and pixel dropout.

IDX files are big-endian: a u32 magic, whose low byte is the number of u32
dimensions that follow it, then the payload bytes.  Images carry magic
0x00000803 and count/rows/cols; labels carry magic 0x00000801 and a count.
Gzipped files are detected by their first byte, 0x1f (a raw IDX file starts
with 0x00), and decompressed transparently.
"""

from __future__ import annotations

import gzip
import math
import os
import stat
import struct
import warnings
import zlib
from dataclasses import dataclass

import numpy as np

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801

# Largest payload a header may declare before it is treated as corrupt.
_MAX_PAYLOAD = 1 << 40

# Bytes asked for per read of an IDX file.  A reader that is asked for n
# bytes allocates n up front, so a declared size is never passed to read().
_READ_CHUNK = 1 << 20

# Rows per block of _row_norms: bounds its x*x temporary at 256*M floats,
# a quarter of a 1 000-row test split, which noise normalizes on two lanes.
_NORM_BLOCK_ROWS = 256


class IdxError(ValueError):
    """Malformed IDX file."""


class IdxMagicError(IdxError):
    """Magic number does not match the expected IDX record type."""


class IdxTruncatedError(IdxError):
    """File ends before the declared payload."""


class IdxDimensionError(IdxError):
    """Declared dimensions are zero or implausibly large."""


class IdxCompressionError(IdxError):
    """Gzip stream is truncated or corrupt."""


@dataclass
class RawDataset:
    """Raw 8-bit images paired with integer class labels."""

    images: np.ndarray  # N x M, uint8
    labels: np.ndarray  # N, int64, each in [0, num_classes)
    num_classes: int

    def __post_init__(self):
        self.images, self.labels = _samples(self.images, self.labels, self.num_classes, np.uint8)


@dataclass
class Dataset:
    """Normalized samples (zero-mean, unit-norm rows) with class labels.

    Rows that came from all-constant images are identically zero; every
    other row has mean 0 and Euclidean norm 1 to within 1e-9.
    """

    x: np.ndarray  # N x M, float64
    labels: np.ndarray  # N, int64
    num_classes: int

    def __post_init__(self):
        self.x, self.labels = _samples(self.x, self.labels, self.num_classes, np.float64)
        if self.x.size:
            norms = _row_norms(self.x)
            means = self.x.mean(axis=1)
            ok = (np.abs(means) <= 1e-9) & ((np.abs(norms - 1.0) <= 1e-9) | (norms == 0.0))
            if not ok.all():
                bad = int(np.flatnonzero(~ok)[0])
                raise ValueError(
                    f"row {bad} is not normalized: mean {means[bad]:.3e}, norm {norms[bad]:.17g}"
                )


def _check_labels(labels: np.ndarray, k: int) -> None:
    """Raise ValueError unless labels is 1-D, k >= 1 and every label lies in [0, k)."""
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if k < 1:
        raise ValueError(f"num_classes must be >= 1, got {k}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"label out of range for {k} classes: [{labels.min()}, {labels.max()}]")


def _exact(values, dtype, name: str) -> np.ndarray:
    """values as a C-contiguous dtype array, refusing a cast that would change any value.

    An array that is not boolean, integer or real (complex, object, string)
    raises ValueError, and so does any entry the cast would change (out of
    range, fractional or not finite); the message names the first such
    entry as name[index].  Values already of dtype are not compared.
    """
    given = np.asarray(values)
    if given.dtype == dtype:
        return np.ascontiguousarray(given)
    if given.dtype.kind not in "biuf":
        raise ValueError(f"{name} must be real, got {given.dtype}")
    with np.errstate(invalid="ignore"):  # NaN and inf are reported below
        cast = given.astype(dtype, order="C")
    changed = np.flatnonzero(cast.astype(given.dtype) != given)
    if changed.size:
        raise ValueError(
            f"{name}[{', '.join(map(str, np.unravel_index(changed[0], given.shape)))}] = "
            f"{given.flat[changed[0]]} changes when cast to {np.dtype(dtype)}"
        )
    return cast


def _samples(x, labels, k: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """(x as a C-contiguous dtype matrix, labels as C-contiguous int64), checked as one set.

    Raises ValueError unless x is N x M with M >= 1, labels holds one
    label in [0, k) per row, and neither cast changes a value (_exact).
    """
    x = _exact(x, dtype, "samples")
    labels = _exact(labels, np.int64, "labels")
    if x.ndim != 2 or x.shape[1] < 1:
        raise ValueError(f"samples must be N x M with M >= 1, got shape {x.shape}")
    _check_labels(labels, k)
    if labels.shape[0] != x.shape[0]:
        raise ValueError(f"sample/label count mismatch: {x.shape[0]} rows, {labels.shape[0]} labels")
    return x, labels


def check_noise_fraction(fraction: float) -> None:
    """Raise ValueError unless the pixel-noise fraction lies in [0, 1]."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"noise fraction must lie in [0, 1], got {fraction}")


def _read_payload(stream, expected: int, sized: bool) -> np.ndarray:
    """The next expected + 1 bytes of stream as one uint8 array, fewer only where it ends.

    They are read in place, _READ_CHUNK bytes per readinto.  A sized stream,
    whose length is already checked, gets the whole array at once; any other
    starts at one chunk and doubles it as the stream fills it.
    """
    limit = expected + 1
    payload = np.empty(limit if sized else min(limit, _READ_CHUNK), dtype=np.uint8)
    filled = 0
    while filled < limit:
        if filled == payload.size:
            payload.resize(min(2 * filled, limit), refcheck=False)
        # a view per read: resize may move the array, so no view outlives one
        got = stream.readinto(memoryview(payload)[filled : filled + _READ_CHUNK])
        if not got:
            break
        filled += got
    payload.resize(filled, refcheck=False)
    return payload


def _check_payload(path, found: int, expected: int) -> None:
    """Raise IdxTruncatedError or IdxError unless found, the payload bytes present, is expected."""
    if found < expected:
        raise IdxTruncatedError(f"{path}: payload truncated, expected {expected} bytes, found {found}")
    if found > expected:
        raise IdxError(f"{path}: {found - expected} trailing bytes after payload")


def _parse_idx(path, stream, magic: int, size: int | None) -> np.ndarray:
    """The IDX record read from stream, whose length is size bytes when it is known."""
    header_size = 4 + 4 * (magic & 0xFF)
    header = stream.read(header_size)
    if len(header) < header_size:
        raise IdxTruncatedError(f"{path}: header truncated ({len(header)} bytes)")
    found, *shape = struct.unpack(f">{header_size // 4}I", header)
    if found != magic:
        raise IdxMagicError(f"{path}: bad magic 0x{found:08x}, expected 0x{magic:08x}")
    if 0 in shape[1:]:
        raise IdxDimensionError(f"{path}: zero dimensions {shape}")
    expected = math.prod(shape)
    if expected > _MAX_PAYLOAD:
        raise IdxDimensionError(f"{path}: declared payload of {expected} bytes is implausible")
    if size is not None:
        _check_payload(path, size - header_size, expected)
    # One byte past the payload reaches a gzip stream's trailer, which checks it.
    payload = _read_payload(stream, expected, size is not None)
    found = payload.size
    if found > expected:
        found += sum(len(chunk) for chunk in iter(lambda: stream.read(_READ_CHUNK), b""))
    _check_payload(path, found, expected)
    return payload.reshape(shape)


def _read_idx(path, magic: int) -> np.ndarray:
    """The payload of an IDX file (optionally gzipped) as a uint8 array of its shape.

    A file whose first byte is 0x1f is read as gzip.  The header is magic,
    then magic & 0xFF u32 dimensions; every dimension after the first must
    be nonzero.  The payload lands in place in one array, at most
    _READ_CHUNK bytes per read, so memory follows the bytes found, never the
    size a header declares; a regular file's size is checked against that
    declared size before its payload is read.
    """
    with open(path, "rb") as f:
        if f.peek(1)[:1] != b"\x1f":
            st = os.fstat(f.fileno())
            return _parse_idx(path, f, magic, st.st_size if stat.S_ISREG(st.st_mode) else None)
        try:
            with gzip.GzipFile(fileobj=f) as stream:
                return _parse_idx(path, stream, magic, None)
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise IdxCompressionError(f"{path}: corrupt gzip stream: {exc}") from exc


def load_idx_images(path) -> np.ndarray:
    """Load an IDX image file (optionally gzipped) as an N x M uint8 array.

    M is rows*cols of the stored image grid, flattened row-major.
    """
    images = _read_idx(path, IMAGE_MAGIC)
    count, rows, cols = images.shape
    return images.reshape(count, rows * cols)


def load_idx_labels(path) -> np.ndarray:
    """Load an IDX label file (optionally gzipped) as an int64 array."""
    return _read_idx(path, LABEL_MAGIC).astype(np.int64)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=1), one block of rows at a time.

    norm squares its whole input into a temporary as large as x; each row is
    reduced on its own, so computing the norms block by block gives the same
    bits with a temporary of at most _NORM_BLOCK_ROWS rows.
    """
    norms = np.empty(x.shape[0])
    for start in range(0, x.shape[0], _NORM_BLOCK_ROWS):
        block = slice(start, start + _NORM_BLOCK_ROWS)
        norms[block] = np.linalg.norm(x[block], axis=1)
    return norms


def normalize(raw: RawDataset) -> Dataset:
    """Normalize raw intensities row by row: square root, center, unit-scale.

    The three steps run in exactly this order.  All-constant images (which
    center to the zero vector) are divided by one in place of their zero norm
    and come out as zero rows; their count is reported through a single
    RuntimeWarning.
    """
    flat = raw.images.max(axis=1) == raw.images.min(axis=1)
    x = np.sqrt(raw.images, dtype=np.float64)
    x -= x.mean(axis=1, keepdims=True)
    x[flat] = 0.0
    norms = _row_norms(x)
    norms[norms == 0.0] = 1.0  # zero rows divide by one and stay zero
    x /= norms[:, None]
    n_flat = int(flat.sum())
    if n_flat:
        warnings.warn(
            f"{n_flat} all-constant image(s) normalized to zero rows", RuntimeWarning
        )
    return Dataset(x=x, labels=raw.labels.copy(), num_classes=raw.num_classes)


def one_hot_encode(labels, k: int) -> np.ndarray:
    """N x k {0,1} target matrix with a single 1 per row."""
    labels = _exact(labels, np.int64, "labels")
    _check_labels(labels, k)
    y = np.zeros((labels.shape[0], k))
    y[np.arange(labels.shape[0]), labels] = 1.0
    return y


def zero_pixel_noise(raw: RawDataset, fraction: float, seed: int) -> RawDataset:
    """Zero a random subset of exactly round(fraction·M) pixels in each image.

    Positions are drawn without replacement, independently per image, and
    deterministically from the seed.  This operates on raw intensities,
    before normalization; the original dataset is left untouched.
    """
    check_noise_fraction(fraction)
    n, m = raw.images.shape
    n_zero = int(math.floor(fraction * m + 0.5))  # round half up, not banker's
    images = raw.images.copy()
    if n_zero and n:
        rng = np.random.default_rng(seed)
        # The n_zero smallest of M iid uniforms index a uniform subset.
        scores = rng.random((n, m))
        hit = np.argpartition(scores, n_zero - 1, axis=1)[:, :n_zero]
        np.put_along_axis(images, hit, 0, axis=1)
    return RawDataset(images=images, labels=raw.labels.copy(), num_classes=raw.num_classes)
