"""GEMM rates of numpy's OpenBLAS on one thread, on two, and on two one-thread lanes.

Prints, for one and for two BLAS threads, the best-of-9 rate of a 1024³
product and the best-of-7 rate of X·Rᵀ at the train workload's shape
(5 000 × 784 × 784); then the combined rate of two threads that each run
that X·Rᵀ at once on one BLAS thread, as train's two lanes do.  Last, it
says whether X·Rᵀ gives the same bits on one thread as on two.  The
README's figures for one thread per lane come from this script.

Usage, from a checkout root::

    python3 tools/blas_rate.py
"""

import sys
import threading
import time
from pathlib import Path

import numpy as np

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT / "tests")]
from helpers import set_blas_threads  # noqa: E402


def best(f, repeats: int) -> float:
    fastest = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        f()
        fastest = min(fastest, time.perf_counter() - started)
    return fastest


def two_lanes(f) -> None:
    threads = [threading.Thread(target=f) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def main() -> None:
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((1024, 1024)), rng.standard_normal((1024, 1024))
    x, r = rng.standard_normal((5000, 784)), rng.standard_normal((784, 784))
    encode_flop = 2 * 5000 * 784 * 784
    products = {}
    for count in (1, 2):
        set_blas_threads(count)
        cube = 2 * 1024**3 / best(lambda: a @ b, 9) / 1e9
        encode = encode_flop / best(lambda: x @ r.T, 7) / 1e9
        products[count] = x @ r.T
        print(f"{count} thread(s): 1024^3 {cube:.1f} GFLOP/s, X.R^T {encode:.1f} GFLOP/s")
    set_blas_threads(1)
    lanes = 2 * encode_flop / best(lambda: two_lanes(lambda: x @ r.T), 7) / 1e9
    print(f"two lanes of 1 thread: X.R^T {lanes:.1f} GFLOP/s together")
    same = np.array_equal(products[1].view(np.uint64), products[2].view(np.uint64))
    print(f"X.R^T bits on 1 and 2 threads: {'same' if same else 'differ'}")


if __name__ == "__main__":
    main()
