"""Shared builders for the test suite."""

import os
from pathlib import Path

import numpy as np

from elmboost.dataset import Dataset


def normalized_rows(rng, n, m):
    """Random matrix with zero-mean, unit-norm rows."""
    x = rng.standard_normal((n, m))
    x -= x.mean(axis=1, keepdims=True)
    x /= np.linalg.norm(x, axis=1, keepdims=True)
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
