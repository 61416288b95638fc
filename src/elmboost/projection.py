"""Seed-derived random projections, activations, and sign hashing.

Projection matrices are never stored: they are regenerated on demand from a
64-bit master seed, so a trained model can reproduce the exact hidden-layer
encodings at prediction time from the seed alone.  The deviate stream is
pinned precisely (generator id 0) so regeneration is bit-exact across runs:

* sub-stream seed for ``(level, step)``: the first SplitMix64 output of the
  state ``master_seed XOR (level * 2**32 + step)``, i.e.
  ``mix64(state + GOLDEN)`` with the level stride fixed at ``2**32``;
* 64-bit uniforms: SplitMix64 outputs at counters 1, 2, ... from that seed
  (counter-based, so any segment can be regenerated independently);
* standard normals: Box-Muller over consecutive uniform pairs ``(u, v)``
  mapped to (0, 1] / [0, 1) via ``u53 = (u >> 11) * 2**-53``::

      r  = sqrt(-2 * ln(1 - u53))
      z0 = r * cos(2 * pi * v53)        # even stream positions
      z1 = r * sin(2 * pi * v53)        # odd stream positions

  Deviates fill each J×M matrix row-major; the surplus deviate of the final
  pair, if any, is discarded.

One function, ``_finalize``, applies the SplitMix64 output function; it
mixes both the sub-stream seed and the uniforms.  The generator computes the
stream in cache-sized blocks of pairs, each from its own start counter, and
writes each block's cosine and sine deviates into the two columns of a
(pairs, 2) output.  Every step is elementwise, so the blocks join into
exactly the stream above, whatever the block size.

Changing any of this invalidates every persisted model, hence the generator
id recorded in model files: a new scheme gets a new id, never a silent edit.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

#: Stride separating levels in the sub-stream index space.  Level and step
#: both lie below it, so each (level, step) pair has its own 64-bit index.
_LEVEL_STRIDE = 1 << 32

#: Identifier of the SplitMix64 + Box-Muller scheme documented above.
GENERATOR_SPLITMIX_BOX_MULLER = 0


def check_ints(low: int, bits: int, **values) -> None:
    """Raise ValueError unless each named value is an integer in [low, 2**bits)."""
    for name, value in values.items():
        try:
            operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if not low <= value < 2**bits:
            raise ValueError(f"{name} must be >= {low} and < 2**{bits}, got {value}")


class Activation(enum.Enum):
    """Elementwise hidden-layer activation."""

    TANH = "tanh"
    SIGN = "sign"


@dataclass(frozen=True)
class ProjectionSpec:
    """Everything needed to regenerate every projection matrix of a model.

    master_seed must be an integer in [0, 2**64), and j and m integers in
    [1, 2**32), the widths of the model file's fields (ValueError otherwise).
    """

    master_seed: int
    j: int  # hidden width: rows of each projection matrix
    m: int  # input width: columns of each projection matrix

    def __post_init__(self):
        check_ints(1, 32, j=self.j, m=self.m)
        check_ints(0, 64, master_seed=self.master_seed)


def _finalize(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 output function, applied in place to the uint64 array z."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _stream_seed(spec: ProjectionSpec, level: int, step: int) -> int:
    """Seed of the (level, step) sub-stream: one SplitMix64 output.

    The seed, level and step are taken as Python ints, so a numpy integer of
    any width mixes as its value does instead of overflowing its own type.
    """
    index = int(level) * _LEVEL_STRIDE + int(step)
    state = ((int(spec.master_seed) ^ index) + _GOLDEN) & _MASK64
    return int(_finalize(np.array([state], dtype=np.uint64))[0])


#: Box-Muller pairs generated per block: the block's working arrays (about
#: 1 MB) stay in cache while every pass of the transform runs over them.
_BLOCK_PAIRS = 1 << 14


def _normals(seed: int, count: int) -> np.ndarray:
    """Box-Muller standard normals drawn from the seeded uniform stream.

    Fills a (pairs, 2) output block by block, each block from its own start
    counter.  Every operation is elementwise and every transcendental
    function reads a contiguous array, as a whole-stream evaluation would,
    so the result does not depend on the block size.
    """
    pairs = (count + 1) // 2
    z = np.empty((pairs, 2))
    block = min(pairs, _BLOCK_PAIRS)
    # Counter c gives the SplitMix64 state seed + c * GOLDEN (mod 2**64), so
    # a block starting at counter c0 is its start state plus this stride.
    stride = np.arange(2 * block, dtype=np.uint64) * np.uint64(_GOLDEN)
    for first in range(0, pairs, block):
        last = min(first + block, pairs)
        start = np.uint64((seed + (2 * first + 1) * _GOLDEN) & _MASK64)
        u53 = (_finalize(stride[: 2 * (last - first)] + start) >> np.uint64(11)) * 2.0**-53
        # r = sqrt(-2 ln(1 - u53)) over even positions, angle 2*pi*v53 over odd.
        radius = np.log1p(-u53[0::2])
        radius *= -2.0
        np.sqrt(radius, out=radius)
        angle = u53[1::2] * (2.0 * np.pi)
        np.multiply(radius, np.cos(angle), out=z[first:last, 0])
        np.multiply(radius, np.sin(angle), out=z[first:last, 1])
    return z.reshape(-1)[:count]


def generate_projection(spec: ProjectionSpec, level: int, step: int) -> np.ndarray:
    """J×M matrix of standard-normal entries for one (level, step) slot.

    A pure function of its arguments: training and prediction call this
    independently and obtain bit-identical matrices, which is what lets a
    model omit the projections entirely.  level and step must be integers
    in [0, 2**32), the level stride (ValueError otherwise), so distinct
    (level, step) pairs draw from statistically independent sub-streams.
    The widths are taken as Python ints, so numpy integer widths whose
    product overflows their own type give the same matrix.
    """
    check_ints(0, 32, level=level, step=step)
    j, m = int(spec.j), int(spec.m)
    return _normals(_stream_seed(spec, level, step), j * m).reshape(j, m)


def _sign(z: np.ndarray) -> np.ndarray:
    # Fixed convention: sign(0) = +1, so the codomain is exactly {-1, +1}.
    # 2*mask - 1 written over z gives the bits np.where(z >= 0, 1.0, -1.0)
    # gives (NaN to -1), with no second array: the ufunc casts the mask to
    # float64 through its small buffer.
    np.greater_equal(z, 0.0, out=z, casting="unsafe")
    z *= 2.0
    z -= 1.0
    return z


def activate(z: np.ndarray, act: Activation) -> np.ndarray:
    """The activation applied elementwise to the float64 array z, overwriting z; returns z."""
    if act is Activation.TANH:
        return np.tanh(z, out=z)
    if act is Activation.SIGN:
        return _sign(z)
    raise ValueError(f"unknown activation {act!r}")


def encode(x: np.ndarray, r: np.ndarray, act: Activation) -> np.ndarray:
    """Hidden-layer encoding: the activation applied elementwise to X·Rᵀ.

    Either activation is applied in place, so the N×J product is the only
    array of that size the call allocates.
    """
    x = np.asarray(x, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    if x.ndim != 2 or r.ndim != 2 or x.shape[1] != r.shape[1]:
        raise ValueError(
            f"encode width mismatch: samples are {x.shape}, projections are {r.shape}"
        )
    return activate(x @ r.T, act)


def hash_signature(x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Signature [sign(x·r₀), ..., sign(x·r_{J-1})] of a single vector.

    Each row of r is one random hyperplane; the signature is invariant under
    positive rescaling of x.
    """
    x = np.asarray(x, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    if x.ndim != 1 or r.ndim != 2 or r.shape[1] != x.shape[0]:
        raise ValueError(
            f"hash_signature dimension mismatch: vector has shape {x.shape}, "
            f"hyperplanes have shape {r.shape}"
        )
    return _sign(r @ x)


def _vector_pair(x, x_other) -> tuple[np.ndarray, np.ndarray]:
    """x and x_other as float64 vectors; ValueError unless they share one 1-D shape."""
    x = np.asarray(x, dtype=np.float64)
    x_other = np.asarray(x_other, dtype=np.float64)
    if x.shape != x_other.shape or x.ndim != 1:
        raise ValueError(f"vectors must share one shape, got {x.shape} and {x_other.shape}")
    return x, x_other


def collision_probability(x: np.ndarray, x_other: np.ndarray) -> float:
    """Probability that one random hyperplane hashes x and x_other alike.

    Equals 1 − θ/π for the angle θ between the vectors.  Identical and
    antipodal inputs short-circuit to exactly 1.0 and 0.0; otherwise the
    cosine is clamped to [−1, 1] before the arccos so floating-point noise
    cannot produce a NaN.
    """
    x, x_other = _vector_pair(x, x_other)
    if not x.any() or not x_other.any():
        raise ValueError("collision probability is undefined for zero vectors")
    if np.array_equal(x, x_other):
        return 1.0
    if np.array_equal(x, -x_other):
        return 0.0
    cos = float(x @ x_other) / (float(np.linalg.norm(x)) * float(np.linalg.norm(x_other)))
    theta = float(np.arccos(np.clip(cos, -1.0, 1.0)))
    return 1.0 - theta / np.pi


def estimate_collision_rate(x: np.ndarray, x_other: np.ndarray, j: int, seed: int) -> float:
    """Fraction of j seeded random hyperplanes that hash x and x_other alike.

    The hyperplanes are regenerated deterministically from the seed, so the
    estimate is reproducible; it concentrates around collision_probability
    at the usual binomial rate sqrt(p(1-p)/j).
    """
    x, x_other = _vector_pair(x, x_other)
    r = generate_projection(ProjectionSpec(master_seed=seed, j=j, m=x.shape[0]), 0, 0)
    return float(np.mean(hash_signature(x, r) == hash_signature(x_other, r)))
