"""Binary persistence for trained models.

File layout, all integers little-endian::

    offset  size  field
    0       4     magic "ELMB"
    4       4     format version (currently 1)
    8       4     projection generator id
    12      8     master seed (u64)
    20      8     lambda (f64)
    28      8     alpha (f64)
    36      4     levels (u32)
    40      4     t_steps (u32)
    44      4     hidden width J (u32)
    48      4     input width M (u32)
    52      4     class count K (u32)
    56      1     activation (0 = tanh, 1 = sign)
    57      ...   levels*t_steps weight matrices, each J*K float64
                  row-major, in (level, step) order
    end     8     CRC-64/XZ of every preceding byte (u64)

The order of the fields from offset 12 to 56 is written once, in the _FIELDS
table: save packs the header from it, and load unpacks the header and
rebuilds the HyperParams from it.  Every field there but input_width and
num_classes is a HyperParams field, and HEADER_SIZE is the struct's size.
Total size is therefore 57 + 8*levels*t_steps*J*K + 8 bytes.  Projection
matrices are regenerated from the seed at load time, so the weights are the
only bulk payload, and saving the same model twice produces byte-identical
files.  The weight matrices in (level, step) order are exactly the model's
(levels, t_steps, J, K) weight grid in row-major order, so the payload is
written straight from the grid's buffer and read straight into a new grid,
with no payload-sized copy on either side.

save writes over an existing file in place and then cuts a longer one to
length; it does not truncate it to zero first.  Truncating a file and
rewriting it makes ext4 (auto_da_alloc) allocate and flush the blocks when
the file is closed: over an existing 2.5 MB model on ext4 (2-vCPU Xeon
VM), save took a median 5.4 ms that way and 0.9 ms in place, checksum
included.  A symlink is followed, so its target is rewritten, and a
device such as /dev/null is written as with open(path, "wb").  A save
interrupted part way leaves the new header over the old bytes; load rejects
such a file (truncated, trailing bytes or checksum mismatch; exit 2 from the
command line) rather than return a wrong model.

load checks the header, then the declared size against the file's size, and
only then allocates the grid, so a header declaring a huge grid costs
nothing.  It therefore reads only regular files: a pipe, a FIFO or a
process substitution such as <(zcat m.elmb.gz) is refused with a
ModelFormatError naming the cause, before anything is read.

The checksum is CRC-64/XZ (reflected ECMA-182 polynomial, initial value and
final XOR all-ones; b"123456789" gives 0x995DC9BBDF1939FA).  crc64 computes
it with liblzma's native lzma_crc64, reached through the _lzma extension that
CPython's lzma module loads, on the buffer in place.  Where that symbol
cannot be reached (no _lzma, an _lzma built into the interpreter, or a static
build that does not export it) crc64 is a numpy kernel instead: the buffer is
split into equal lanes that are checksummed together 8 bytes per step with
slicing-by-8 tables, and the lane results are merged with "advance over n
zero bytes" operators, exactly as zlib's crc32_combine merges CRCs.  The
kernel is chosen once, at import.  A CRC is an exact function of the bytes,
so both give the number a byte-at-a-time loop gives, and format version 1
and every byte of every file are the same whichever runs.  load verifies the
checksum over every preceding byte before it trusts the weights or
hyperparameters.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import math
import operator
import os
import stat
import struct

import numpy as np

from .boost import BoostedModel, HyperParams
from .projection import GENERATOR_SPLITMIX_BOX_MULLER, Activation

MAGIC = b"ELMB"
VERSION = 1
#: Every header field after the magic, version and generator id, in file order,
#: with its struct code; the activation is stored as its _ACTIVATION_CODE.
_FIELDS = {
    "master_seed": "Q",
    "lam": "d",
    "alpha": "d",
    "levels": "I",
    "t_steps": "I",
    "hidden": "I",
    "input_width": "I",
    "num_classes": "I",
    "activation": "B",
}
_HEADER = struct.Struct("<4sII" + "".join(_FIELDS.values()))
HEADER_SIZE = _HEADER.size
_HYPER_NAMES = [field.name for field in dataclasses.fields(HyperParams)]
# No O_TRUNC: see save.  O_BINARY exists only on Windows, where os.open defaults to text mode.
_SAVE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)

_ACTIVATION_CODE = {Activation.TANH: 0, Activation.SIGN: 1}
_ACTIVATION_FROM_CODE = {code: act for act, code in _ACTIVATION_CODE.items()}


class ModelFormatError(ValueError):
    """Model file violates the documented layout."""


class BadMagicError(ModelFormatError):
    """File does not start with the ELMB magic."""


class UnsupportedVersionError(ModelFormatError):
    """File declares a version or generator this build cannot read."""


class ChecksumError(ModelFormatError):
    """Stored CRC-64 does not match the file contents."""


class TruncatedError(ModelFormatError):
    """File ends before the declared payload and checksum."""


# CRC-64/XZ: reflected ECMA-182 polynomial, init and xorout all-ones.
_CRC64_POLY = 0xC96C5795D7870F42
_CRC64_XOR = 0xFFFFFFFFFFFFFFFF

# An "advance over n zero bytes" operator is linear over GF(2), so it is
# stored as a flat 8 x 256 table: entry 256*b + v is the image of a register
# holding only byte value v at byte position b, and the image of any register
# is the XOR of the entries for its eight bytes.
_LANES = 2048
_ROW_OFFSETS = (np.arange(8, dtype=np.uint16) * 256)[:, None]


def _register_bytes(regs: np.ndarray) -> np.ndarray:
    """(n, 8) little-endian byte view of a vector of 64-bit registers."""
    return regs.astype("<u8", copy=False).reshape(-1, 1).view(np.uint8)


def _apply(table: np.ndarray, regs: np.ndarray) -> np.ndarray:
    """Every register mapped through the advance operator stored in table."""
    # clip: indices are below 2048 by construction, so skip the bounds check
    looked_up = table.take(_register_bytes(regs).T + _ROW_OFFSETS, mode="clip")
    return np.bitwise_xor.reduce(looked_up, axis=0)


@functools.cache
def _advance_table(k: int) -> np.ndarray:
    """Operator advancing a register over 2**k zero bytes, built by squaring."""
    if k == 0:
        # Byte 0 passes through the classic byte table; the others shift down.
        values = np.arange(256, dtype=np.uint64)
        crc = values
        for _ in range(8):
            crc = np.where(crc & 1, (crc >> 1) ^ np.uint64(_CRC64_POLY), crc >> 1)
        shifted = values << (8 * np.arange(7, dtype=np.uint64))[:, None]
        table = np.concatenate([crc, shifted.ravel()])
    else:
        half = _advance_table(k - 1)
        table = _apply(half, half)
    table.flags.writeable = False
    return table


def _advance(regs: np.ndarray, nbytes: int) -> np.ndarray:
    """Registers advanced over nbytes zero bytes."""
    for k in range(nbytes.bit_length()):
        if nbytes >> k & 1:
            regs = _apply(_advance_table(k), regs)
    return regs


def _raw_crc(words: np.ndarray) -> np.ndarray:
    """Zero-register CRC of a (lanes, width) grid of little-endian words, read row-major.

    Every lane steps 8 bytes at a time (slicing-by-8: XOR in the next word,
    then advance over 8 bytes), all lanes at once.  Adjacent lanes are then
    merged pairwise: the left register is advanced over the right lane's
    length and XORed into the right one.  Returns a one-element array.
    """
    lanes, width = words.shape
    step = _advance_table(3)
    regs = np.zeros(lanes, dtype=np.uint64)
    index = np.empty((8, lanes), dtype=np.uint16)
    looked_up = np.empty((8, lanes), dtype=np.uint64)
    for column in words.T:
        np.bitwise_xor(regs, column, out=regs)
        np.add(_register_bytes(regs).T, _ROW_OFFSETS, out=index)
        step.take(index, out=looked_up, mode="clip")
        np.bitwise_xor.reduce(looked_up, axis=0, out=regs)
    lane_bytes = 8 * width
    while len(regs) > 1:
        regs = _advance(regs[0::2], lane_bytes) ^ regs[1::2]
        lane_bytes *= 2
    return regs


def _checked_state(state) -> int:
    """A chaining state as a Python int in [0, 2**64): a CRC-64 register holds no other value."""
    state = operator.index(state)
    if not 0 <= state < 1 << 64:
        raise ValueError(f"CRC-64 state must lie in [0, 2**64), got {state}")
    return state


def _lane_crc64(data: bytes | bytearray | memoryview, state: int = 0) -> int:
    """CRC-64/XZ of a bytes-like object; pass a previous result as state to chain chunks."""
    view = memoryview(data).cast("B")
    state = _checked_state(state)
    size = view.nbytes
    block = 8 * _LANES
    head = size % block
    # Leading zero bytes leave a zero-register CRC unchanged, so the ragged
    # head is left-padded to one word per lane; the rest is read in place.
    padded = bytearray(block)
    padded[block - head :] = view[:head]
    raw = _advance(_raw_crc(np.frombuffer(padded, dtype="<u8").reshape(_LANES, 1)), size - head)
    body = np.frombuffer(view[head:], dtype="<u8").reshape(_LANES, size // block)
    raw ^= _raw_crc(body)
    # CRC from register r over D = advance_|D|(r) XOR CRC from zero over D.
    initial = np.array([state ^ _CRC64_XOR], dtype=np.uint64)
    return int((_advance(initial, size) ^ raw)[0]) ^ _CRC64_XOR


def _find_lzma_crc64():
    """liblzma's lzma_crc64 through the loaded _lzma extension, or None if it cannot be reached.

    dlsym on the extension's handle also searches the liblzma it links
    dynamically.  ctypes.util.find_library is not used: it starts ldconfig
    and compiler subprocesses.
    """
    try:
        import _lzma

        function = ctypes.CDLL(_lzma.__file__).lzma_crc64
    except (ImportError, AttributeError, OSError):
        return None
    # uint64_t lzma_crc64(const uint8_t *buf, size_t size, uint64_t crc)
    function.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_uint64)
    function.restype = ctypes.c_uint64
    return function


_LZMA_CRC64 = _find_lzma_crc64()


def _native_crc64(data: bytes | bytearray | memoryview, state: int = 0) -> int:
    """CRC-64/XZ of a bytes-like object; pass a previous result as state to chain chunks."""
    view = memoryview(data).cast("B")
    state = _checked_state(state)
    # frombuffer takes read-only buffers too; buffer stays referenced for the call
    buffer = np.frombuffer(view, dtype=np.uint8)
    return _LZMA_CRC64(buffer.ctypes.data, buffer.size, state)


# liblzma takes the same chaining state (the previous result, 0 to start).
crc64 = _native_crc64 if _LZMA_CRC64 is not None else _lane_crc64


def _pack_header(model: BoostedModel) -> bytes:
    fields = {**vars(model.hyper), "input_width": model.input_width, "num_classes": model.num_classes}
    fields["activation"] = _ACTIVATION_CODE[model.hyper.activation]
    values = (fields[name] for name in _FIELDS)
    return _HEADER.pack(MAGIC, VERSION, GENERATOR_SPLITMIX_BOX_MULLER, *values)


def _write_all(fd: int, data: memoryview) -> None:
    """Write every byte of data at the file offset of fd; os.write may write fewer."""
    while data:
        data = data[os.write(fd, data) :]


def save(model: BoostedModel, path) -> None:
    """Write the model in the canonical binary layout, checksum last.

    An existing file is overwritten in place and then cut to length, never
    truncated to zero first; the grid's own buffer is written, not a copy.
    """
    header = memoryview(_pack_header(model))
    weights = memoryview(model.weights.astype("<f8", copy=False)).cast("B")
    trailer = memoryview(struct.pack("<Q", crc64(weights, crc64(header))))
    size = header.nbytes + weights.nbytes + trailer.nbytes
    fd = os.open(path, _SAVE_FLAGS, 0o666)
    try:
        for part in (header, weights, trailer):
            _write_all(fd, part)
        # A longer old file would leave trailing bytes; devices and pipes have no length.
        st = os.fstat(fd)
        if stat.S_ISREG(st.st_mode) and st.st_size > size:
            os.ftruncate(fd, size)
    finally:
        os.close(fd)


def load(path) -> BoostedModel:
    """Read a model file back; verifies layout, checksum and finite weights before trusting it."""
    with open(path, "rb") as f:
        st = os.fstat(f.fileno())
        if not stat.S_ISREG(st.st_mode):
            raise ModelFormatError(
                f"{path}: not a regular file (a model is read by its size); "
                "copy a piped or decompressed model to a file first"
            )
        size = st.st_size
        header = f.read(HEADER_SIZE)
        if len(header) >= 4 and header[:4] != MAGIC:
            raise BadMagicError(f"{path}: not a model file (bad magic {header[:4]!r})")
        # len(header) is short too if the file shrank after fstat
        if size < HEADER_SIZE + 8 or len(header) < HEADER_SIZE:
            raise TruncatedError(f"{path}: file shorter than header plus checksum")
        _, version, generator_id, *values = _HEADER.unpack(header)
        fields = dict(zip(_FIELDS, values))
        if version != VERSION:
            raise UnsupportedVersionError(f"{path}: unsupported format version {version}")
        if generator_id != GENERATOR_SPLITMIX_BOX_MULLER:
            raise UnsupportedVersionError(f"{path}: unknown projection generator id {generator_id}")
        if fields["activation"] not in _ACTIVATION_FROM_CODE:
            raise ModelFormatError(f"{path}: unknown activation code {fields['activation']}")
        fields["activation"] = _ACTIVATION_FROM_CODE[fields["activation"]]

        # Checked against the file size before the grid is allocated, so a
        # header declaring a huge grid costs nothing.
        shape = (fields["levels"], fields["t_steps"], fields["hidden"], fields["num_classes"])
        count = math.prod(shape)
        expected = HEADER_SIZE + 8 * count + 8
        if size < expected:
            raise TruncatedError(
                f"{path}: expected {expected} bytes for the declared sizes, found {size}"
            )
        if size > expected:
            raise ModelFormatError(f"{path}: {size - expected} trailing bytes")

        # An empty grid can declare sizes whose product numpy refuses, and a
        # zero in a shape blocks the byte cast; those sizes fail validation
        # after the checksum.
        weights = np.empty(shape if count else 0, dtype="<f8")
        weights_bytes = memoryview(weights).cast("B")
        # Short only if the file shrank after fstat.
        read = f.readinto(weights_bytes)
        trailer = f.read(8)
        if read != weights_bytes.nbytes or len(trailer) != 8:
            raise TruncatedError(f"{path}: file ended before the declared payload and checksum")

    (stored_crc,) = struct.unpack("<Q", trailer)
    actual_crc = crc64(weights_bytes, crc64(memoryview(header)))
    if stored_crc != actual_crc:
        raise ChecksumError(
            f"{path}: checksum mismatch (stored {stored_crc:#018x}, "
            f"computed {actual_crc:#018x})"
        )

    # The model checks every size, then every weight, so a bad header or a
    # non-finite weight ends in ModelFormatError naming it.  On little-endian
    # hosts the model keeps the array read into as its grid.
    try:
        hyper = HyperParams(**{name: fields.pop(name) for name in _HYPER_NAMES})
        return BoostedModel(hyper=hyper, weights=weights, **fields)
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
