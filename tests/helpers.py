"""Shared builders and independent oracles for the test suite."""

import contextlib
import ctypes
import gzip
import os
import struct
import threading
from pathlib import Path

import numpy as np
import pytest

from elmboost import linalg, model_store
from elmboost.dataset import Dataset, RawDataset


def normalized_rows(rng, n, m):
    """Random matrix with zero-mean, unit-norm rows."""
    x = rng.standard_normal((n, m))
    x -= x.mean(axis=1, keepdims=True)
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x


def normalize_reference(images):
    """uint8 image rows normalized in one shot: the oracle for elmboost.dataset.normalize.

    Square root, subtract the row mean, zero the all-constant rows, then
    divide every nonzero row by its Euclidean norm over the whole matrix.
    """
    x = np.sqrt(images.astype(np.float64))
    x -= x.mean(axis=1, keepdims=True)
    x[images.max(axis=1) == images.min(axis=1)] = 0.0
    norms = np.linalg.norm(x, axis=1)
    np.divide(x, norms[:, None], out=x, where=norms[:, None] != 0.0)
    return x


def make_dataset(rng, n, m, k):
    """Random normalized dataset with uniform labels."""
    return Dataset(
        x=normalized_rows(rng, n, m),
        labels=rng.integers(0, k, size=n),
        num_classes=k,
    )


def separable_images(rng, n, m, k, noise=60):
    """Synthetic uint8 images with one bright band per class."""
    labels = rng.integers(0, k, size=n)
    base = np.zeros((k, m))
    width = m // k
    for c in range(k):
        base[c, c * width : (c + 1) * width] = 200
    images = base[labels] + rng.integers(0, noise, (n, m))
    return np.clip(images, 0, 255).astype(np.uint8), labels


def gaussian_blob_splits(seed):
    """(train, test) RawDatasets of 14 × 14 Gaussian-blob images in 10 classes.

    Each class has 3 templates.  A template is the sum of 4 axis-aligned
    Gaussian blobs, with centres uniform in [3, 11]² and widths uniform in
    [0.8, 2.5], scaled to peak 1.  A sample is a template of its class
    rolled by an integer shift in [-2, 2]², times 200, plus N(0, 30²) noise,
    rounded and clipped to [0, 255].  One generator seeded with seed draws
    the templates, then 3 000 train rows, then 2 000 test rows.  Unlike
    separable_images, they do not saturate a plain ELM's accuracy.
    """
    side, k, per_class, blobs = 14, 10, 3, 4
    rng = np.random.default_rng(seed)
    centres = rng.uniform(3.0, 11.0, (k, per_class, blobs, 2))
    widths = rng.uniform(0.8, 2.5, (k, per_class, blobs, 2))
    grid = np.arange(side, dtype=np.float64)
    # each blob's profile down the rows and across the columns
    profiles = np.exp(-0.5 * ((grid - centres[..., None]) / widths[..., None]) ** 2)
    down, across = profiles[..., 0, :], profiles[..., 1, :]
    templates = np.einsum("cpbi,cpbj->cpij", down, across)
    templates /= templates.max(axis=(2, 3), keepdims=True)

    def split(n):
        labels = rng.integers(0, k, n)
        which = rng.integers(0, per_class, n)
        shifts = rng.integers(-2, 3, (n, 2))
        images = np.stack([
            np.roll(templates[c, p], tuple(shift), axis=(0, 1))
            for c, p, shift in zip(labels, which, shifts)
        ])
        images = 200.0 * images + rng.normal(0.0, 30.0, images.shape)
        images = np.clip(np.rint(images), 0, 255).astype(np.uint8).reshape(n, side * side)
        return RawDataset(images=images, labels=labels, num_classes=k)

    train = split(3000)
    return train, split(2000)


def write_idx(path, array) -> None:
    """Write a uint8 array as an IDX file: gzipped if path ends in .gz, raw otherwise.

    The documented layout: a big-endian u32 magic 0x00000800 plus the number
    of dimensions (0x803 for count × rows × cols images, 0x801 for a label
    count), one big-endian u32 per dimension, then the bytes in row-major order.
    """
    array = np.asarray(array, dtype=np.uint8)
    blob = struct.pack(f">{1 + array.ndim}I", 0x800 + array.ndim, *array.shape) + array.tobytes()
    with (gzip.open if str(path).endswith(".gz") else open)(path, "wb") as f:
        f.write(blob)


def mnist_dir(dataset: str) -> Path | None:
    """Directory holding the real IDX files for mnist/fmnist, if present.

    Looks under $ELMBOOST_DATA_DIR (default: <repo>/data).  Returns None when
    the four files cannot all be found, letting data-bound tests skip.
    """
    from elmboost.cli import find_idx_file

    root = Path(os.environ.get("ELMBOOST_DATA_DIR", Path(__file__).resolve().parent.parent / "data"))
    try:
        for kind in ("train_images", "train_labels", "test_images", "test_labels"):
            find_idx_file(root, dataset, kind)
    except FileNotFoundError:
        return None
    return root


_CRC64_POLY = 0xC96C5795D7870F42
_CRC64_XOR = 0xFFFFFFFFFFFFFFFF


def _crc64_byte_table() -> list[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ _CRC64_POLY if crc & 1 else crc >> 1
        table.append(crc)
    return table


_CRC64_TABLE = _crc64_byte_table()


def crc64_reference(data: bytes, state: int = 0) -> int:
    """Byte-at-a-time CRC-64/XZ: the oracle for elmboost.model_store.crc64."""
    crc = state ^ _CRC64_XOR
    table = _CRC64_TABLE
    for byte in bytes(data):
        crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ _CRC64_XOR


# Marks tests that call the native CRC-64 kernel directly.
needs_lzma_crc64 = pytest.mark.skipif(
    model_store._LZMA_CRC64 is None,
    reason="liblzma's lzma_crc64 cannot be reached from this interpreter",
)


NUMPY_BLAS = np.linalg._umath_linalg.__file__
_THREAD_NAMES = ("scipy_openblas_%s_num_threads64_", "scipy_openblas_%s_num_threads",
                 "openblas_%s_num_threads64_", "openblas_%s_num_threads")


def _thread_call(path, op):
    lib = ctypes.CDLL(path)
    for name in _THREAD_NAMES:
        call = getattr(lib, name % op, None)
        if call is not None:
            return call
    pytest.skip(f"{path} exports no OpenBLAS thread-count {op}ter")


def blas_threads(path=NUMPY_BLAS) -> int:
    """Thread count of the OpenBLAS the library at path links (numpy's by default)."""
    return _thread_call(path, "get")()


def set_blas_threads(count: int, path=NUMPY_BLAS) -> None:
    _thread_call(path, "set")(count)


def train_reference(data, targets, hyper):
    """(weights, residual norms) of the serial step walk, built from the public pieces.

    One slot at a time in (level, step) order: generate the projection,
    encode, ridge-solve against the running residual, then subtract alpha
    times the fit.  The oracle for the overlapped elmboost.boost.train.
    """
    from elmboost.projection import ProjectionSpec, encode, generate_projection

    x = data.x
    spec = ProjectionSpec(master_seed=hyper.master_seed, j=hyper.hidden, m=x.shape[1])
    residual = np.array(targets, dtype=np.float64)
    weights = np.empty((hyper.levels, hyper.t_steps, hyper.hidden, residual.shape[1]))
    norms = np.empty((hyper.levels, hyper.t_steps))
    with linalg.one_blas_thread():
        for lv in range(hyper.levels):
            for t in range(hyper.t_steps):
                h = encode(x, generate_projection(spec, lv, t), hyper.activation)
                w = linalg.ridge_solve(h, residual, hyper.lam)
                residual -= hyper.alpha * (h @ w)
                weights[lv, t] = w
                norms[lv, t] = np.linalg.norm(residual)
    return weights, norms


_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _splitmix64_finalize(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def normals_reference(seed: int, count: int) -> np.ndarray:
    """Whole-stream SplitMix64 + Box-Muller normals: the oracle for the projection generator.

    Uniforms are the SplitMix64 outputs at counters 1, 2, ... from the seed;
    each consecutive pair (u, v) gives sqrt(-2 ln(1 - u53)) times cos and sin
    of 2*pi*v53, and the surplus deviate of an odd count is dropped.
    """
    pairs = (count + 1) // 2
    counters = np.arange(1, 2 * pairs + 1, dtype=np.uint64)
    uniforms = _splitmix64_finalize(np.uint64(seed) + counters * np.uint64(_GOLDEN))
    u53 = (uniforms >> np.uint64(11)).astype(np.float64) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log1p(-u53[0::2]))
    angle = (2.0 * np.pi) * u53[1::2]
    z = np.empty(2 * pairs)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    return z[:count]


def projection_reference(master_seed: int, j: int, m: int, level: int, step: int) -> np.ndarray:
    """The J×M projection of one (level, step) under generator id 0, built from its spec.

    The sub-stream seed is the first SplitMix64 output of the state
    master_seed XOR (level * 2**32 + step); deviates fill the matrix row-major.
    """
    state = ((master_seed ^ (level * 2**32 + step)) + _GOLDEN) & _MASK64
    seed = int(_splitmix64_finalize(np.array([state], dtype=np.uint64))[0])
    return normals_reference(seed, j * m).reshape(j, m)


def level_scores_reference(model, x):
    """[(level, scores)] of one model on samples x, summed serially in the documented order.

    Every (level, step) slot contributes act(x·Rᵀ)·W with R from
    projection_reference; terms are added to one running sum in (level, step)
    order, and each level reports alpha times the sum through its last step.
    """
    hyper = model.hyper
    x = np.asarray(x, dtype=np.float64)
    total = None
    out = []
    for lv in range(hyper.levels):
        for t in range(hyper.t_steps):
            r = projection_reference(hyper.master_seed, hyper.hidden, model.input_width, lv, t)
            z = x @ r.T
            hidden = np.tanh(z) if hyper.activation.value == "tanh" else np.where(z >= 0.0, 1.0, -1.0)
            term = hidden @ model.weights[lv, t]
            total = term if total is None else total + term
        out.append((lv, hyper.alpha * total))
    return out


def naive_matmul(a, b):
    """Triple-loop reference product, independent of BLAS."""
    n, inner = a.shape
    m = b.shape[1]
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for k in range(inner):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def gauss_jordan_solve(a, b):
    """Pure-Python Gauss-Jordan elimination with partial pivoting."""
    n = len(a)
    width = len(b[0])
    aug = [[float(v) for v in row_a] + [float(v) for v in row_b] for row_a, row_b in zip(a, b)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if abs(aug[pivot][col]) < 1e-14:
            raise ZeroDivisionError("singular system")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        aug[col] = [v / scale for v in aug[col]]
        for row in range(n):
            if row == col:
                continue
            factor = aug[row][col]
            if factor:
                aug[row] = [v - factor * p for v, p in zip(aug[row], aug[col])]
    return np.array([row[n : n + width] for row in aug])


def model_file_reference(model) -> bytes:
    """The .elmb v1 bytes of a model, written from the documented layout.

    Header fields in order (little-endian): magic, version 1, generator id 0,
    seed, lambda, alpha, levels, t_steps, hidden, input width, class count and
    activation code (0 tanh, 1 sign); then every (level, step) weight matrix
    as row-major <f8; then the byte-loop CRC-64/XZ of everything before it.
    """
    hyper = model.hyper
    body = struct.pack(
        "<4sIIQddIIIIIB",
        b"ELMB", 1, 0,
        hyper.master_seed, hyper.lam, hyper.alpha,
        hyper.levels, hyper.t_steps, hyper.hidden,
        model.input_width, model.num_classes,
        {"tanh": 0, "sign": 1}[hyper.activation.value],
    )
    for lv in range(hyper.levels):
        for t in range(hyper.t_steps):
            body += np.asarray(model.weights[lv][t], dtype="<f8").tobytes(order="C")
    return body + struct.pack("<Q", crc64_reference(body))


needs_mkfifo = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")


@contextlib.contextmanager
def fifo_writer(path, data: bytes):
    """Make a FIFO at path and feed it data from a thread while the block runs.

    The reader may stop early: the writer then ends on a broken pipe.  On
    exit the writer must have finished within a few seconds.
    """
    os.mkfifo(path)

    def write():
        try:
            with open(path, "wb") as f:
                f.write(data)
        except BrokenPipeError:
            pass

    thread = threading.Thread(target=write, daemon=True)
    thread.start()
    try:
        yield
    finally:
        thread.join(timeout=5)
        if thread.is_alive():
            # Nothing opened the FIFO, so the writer still waits in open: read it dry.
            with open(path, "rb") as f:
                f.read()
            thread.join(timeout=5)
        assert not thread.is_alive()
