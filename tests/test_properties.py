"""Property tests: both CRC kernels and the blocked projection generator against their
whole-stream oracles, the sign of tanh, and the two binary parsers."""

import gzip
import struct
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from elmboost import model_store, projection
from elmboost.boost import BoostedModel, HyperParams
from elmboost.dataset import IMAGE_MAGIC, LABEL_MAGIC, IdxError, load_idx_images, load_idx_labels
from elmboost.model_store import (
    HEADER_SIZE,
    ChecksumError,
    ModelFormatError,
    crc64,
    load,
    save,
)
from elmboost.projection import Activation, ProjectionSpec, activate, generate_projection

from helpers import (
    crc64_reference,
    model_file_reference,
    needs_lzma_crc64,
    normals_reference,
    projection_reference,
)

LANE_BLOCK = 8 * model_store._LANES  # bytes in one word per lane

_random_bytes = st.builds(
    lambda size, seed: np.random.default_rng(seed).bytes(size),
    st.integers(0, 3 * LANE_BLOCK + 100),
    st.integers(0, 2**32 - 1),
)
_constant_bytes = st.builds(
    lambda size, value: bytes([value]) * size,
    st.integers(0, 3 * LANE_BLOCK + 100),
    st.sampled_from([0x00, 0xFF, 0x5A]),
)
buffers = st.one_of(st.binary(max_size=300), _random_bytes, _constant_bytes)
states = st.integers(0, 2**64 - 1)

# The kernel subclasses run these inherited properties too.  Examples are
# derandomized and no database is kept (conftest.py), so every class draws
# the same examples and nothing is replayed across them.
_shared_by_subclasses = settings(suppress_health_check=[HealthCheck.differing_executors])


class TestCrc64MatchesOracle:
    """model_store.crc64, the kernel this interpreter picked; subclasses call each kernel."""

    crc64 = staticmethod(crc64)

    @pytest.mark.parametrize(
        "size", [7, 8, 9, LANE_BLOCK - 1, LANE_BLOCK, LANE_BLOCK + 1, 2 * LANE_BLOCK + 8]
    )
    def test_lane_block_boundaries(self, size):
        data = np.random.default_rng(size).bytes(size)
        assert self.crc64(data, 12345) == crc64_reference(data, 12345)

    @_shared_by_subclasses
    @given(data=buffers, state=states)
    def test_any_buffer_and_state(self, data, state):
        assert self.crc64(data, state) == crc64_reference(data, state)

    @_shared_by_subclasses
    @given(data=buffers, cut=st.floats(0.0, 1.0))
    def test_chaining_at_any_split(self, data, cut):
        k = int(cut * len(data))
        assert self.crc64(data[k:], state=self.crc64(data[:k])) == crc64_reference(data)

    @_shared_by_subclasses
    @given(data=buffers, shift=st.integers(1, 7))
    def test_unaligned_memoryview(self, data, shift):
        view = memoryview(bytearray(shift) + data)[shift:]
        assert self.crc64(view) == crc64_reference(data)

    @pytest.mark.parametrize("cut", range(10))
    def test_catalog_value_chained_at_any_split(self, cut):
        check = b"123456789"
        assert self.crc64(check[cut:], state=self.crc64(check[:cut])) == 0x995DC9BBDF1939FA


class TestLaneCrc64MatchesOracle(TestCrc64MatchesOracle):
    crc64 = staticmethod(model_store._lane_crc64)


@needs_lzma_crc64
class TestNativeCrc64MatchesOracle(TestCrc64MatchesOracle):
    crc64 = staticmethod(model_store._native_crc64)


BLOCK_DEVIATES = 2 * projection._BLOCK_PAIRS  # deviates the generator makes per block


def _assert_matches_oracle(seed, j, m, level, step):
    got = generate_projection(ProjectionSpec(master_seed=seed, j=j, m=m), level, step)
    expected = projection_reference(seed, j, m, level, step)
    assert got.shape == (j, m)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestProjectionMatchesOracle:
    @given(
        seed=st.integers(0, 2**64 - 1),
        j=st.integers(1, 40),
        m=st.integers(1, 40),
        level=st.integers(0, 2**20),
        step=st.integers(0, 2**32 - 1),
    )
    def test_small_shapes_any_slot(self, seed, j, m, level, step):
        _assert_matches_oracle(seed, j, m, level, step)

    @pytest.mark.parametrize(
        "count",
        [
            BLOCK_DEVIATES - 1,  # below one block, odd: the surplus deviate is dropped
            BLOCK_DEVIATES,  # exactly one block
            BLOCK_DEVIATES + 1,  # one deviate past, odd
            BLOCK_DEVIATES + 2,  # one pair past
            3 * BLOCK_DEVIATES + 5,
        ],
    )
    def test_block_boundaries(self, count):
        _assert_matches_oracle(2**64 - 1, 1, count, 3, 7)

    @pytest.mark.parametrize("seed, level, step", [(0, 0, 0), (42, 7, 49), (2**63 + 5, 1, 2)])
    def test_mnist_shape(self, seed, level, step):
        _assert_matches_oracle(seed, 784, 784, level, step)

    @pytest.mark.parametrize("block", [1, 3, 4096])
    @pytest.mark.parametrize("count", [1, 2, 7, 2 * 4096 + 1])
    def test_any_block_size_gives_the_stream(self, monkeypatch, block, count):
        monkeypatch.setattr(projection, "_BLOCK_PAIRS", block)
        for seed in (0, 2**63 + 5, 2**64 - 1):
            got = projection._normals(seed, count)
            expected = normals_reference(seed, count)
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), seed


# ±0, the smallest subnormals, a subnormal and the smallest normal, ±max, ±inf.
_signed_extremes = [
    0.0, -0.0, 5e-324, -5e-324, -1e-310, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, float("inf"), float("-inf"),
]


class TestSignOfTanh:
    @given(z=st.lists(st.floats(allow_nan=False), min_size=1, max_size=50))
    @example(z=_signed_extremes)
    def test_sign_of_tanh_is_sign_bitwise(self, z):
        z = np.array(z)
        from_tanh = activate(activate(z.copy(), Activation.TANH), Activation.SIGN)
        direct = activate(z, Activation.SIGN)
        assert np.array_equal(from_tanh.view(np.uint64), direct.view(np.uint64))


def _sign_by_where(z: np.ndarray) -> np.ndarray:
    """The sign activation in its plain form, the oracle for the in-place one."""
    return np.where(z >= 0.0, 1.0, -1.0)


class TestSignActivation:
    @given(
        z=hnp.arrays(
            np.float64,
            hnp.array_shapes(max_dims=2, max_side=40),
            elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        )
    )
    @example(z=np.array(_signed_extremes + [float("nan"), -float("nan")]))
    def test_matches_the_where_form_bitwise(self, z):
        expected = _sign_by_where(z)
        got = activate(z, Activation.SIGN)
        assert got is z  # written over its argument, no second array
        assert got.dtype == np.float64 and got.shape == z.shape
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_tanh_encoding_matches_the_where_form_bitwise(self):
        z = np.tanh(np.random.default_rng(4).standard_normal((1000, 784)))
        expected = _sign_by_where(z)  # taken first: the activation overwrites z
        got = activate(z, Activation.SIGN)
        assert got is z
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


hyper_params = st.builds(
    HyperParams,
    lam=st.floats(min_value=0.0, allow_infinity=False),
    alpha=st.floats(0.0, 1.0, exclude_min=True),
    t_steps=st.integers(1, 3),
    levels=st.integers(1, 3),
    hidden=st.integers(1, 5),
    activation=st.sampled_from(list(Activation)),
    master_seed=st.integers(0, 2**64 - 1),
)


@st.composite
def models(draw):
    hyper = draw(hyper_params)
    k = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.standard_normal((hyper.levels, hyper.t_steps, hyper.hidden, k))
    return BoostedModel(hyper=hyper, weights=weights, num_classes=k, input_width=m)


def _saved_bytes(model, path):
    save(model, path)
    return path.read_bytes()


def _refresh_crc(blob: bytearray) -> None:
    blob[-8:] = struct.pack("<Q", crc64_reference(bytes(blob[:-8])))


_fixture_ok = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestModelFile:
    @_fixture_ok
    @given(model=models())
    def test_save_load_identity(self, tmp_path, model):
        path = tmp_path / "m.elmb"
        first = _saved_bytes(model, path)
        loaded = load(path)
        assert loaded.hyper == model.hyper
        assert (loaded.num_classes, loaded.input_width) == (model.num_classes, model.input_width)
        assert loaded.weights.tobytes() == model.weights.tobytes()
        assert _saved_bytes(loaded, path) == first

    @_fixture_ok
    @given(model=models())
    def test_save_matches_reference_writer(self, tmp_path, model):
        assert _saved_bytes(model, tmp_path / "m.elmb") == model_file_reference(model)

    @_fixture_ok
    @given(model=models(), where=st.floats(0.0, 1.0, exclude_max=True), bit=st.integers(0, 7))
    def test_single_bit_flip_is_rejected(self, tmp_path, model, where, bit):
        path = tmp_path / "m.elmb"
        blob = bytearray(_saved_bytes(model, path))
        pos = int(where * len(blob))
        blob[pos] ^= 1 << bit
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError) as caught:
            load(path)
        if pos >= HEADER_SIZE:
            assert type(caught.value) is ChecksumError


def _load_or_format_error(path):
    try:
        model = load(path)
    except ModelFormatError:
        return
    assert isinstance(model, BoostedModel)


# header fields as (offset, struct code), for targeted rewrites
_FIELDS = [(4, "<I"), (8, "<I"), (12, "<Q"), (20, "<d"), (28, "<d")] + [
    (offset, "<I") for offset in range(36, 56, 4)
] + [(56, "<B")]
_EXTREMES = {
    "<I": [0, 1, 2**32 - 1],
    "<Q": [0, 2**64 - 1],
    "<d": [float("nan"), float("inf"), -1.0, -0.0],
    "<B": [0, 1, 255],
}
_FIELD_VALUES = {
    "<I": st.one_of(st.sampled_from(_EXTREMES["<I"]), st.integers(0, 2**32 - 1)),
    "<Q": st.integers(0, 2**64 - 1),
    "<d": st.floats(),
    "<B": st.integers(0, 255),
}


def _fit_declared_size(blob: bytearray) -> bytearray:
    """blob cut or zero-padded to the size its header declares, unless that is large."""
    levels, t_steps, hidden, _, k = struct.unpack_from("<IIIII", blob, 36)
    expected = HEADER_SIZE + 8 * levels * t_steps * hidden * k + 8
    if expected > 1 << 16:
        return blob
    return blob[:expected] + bytes(max(0, expected - len(blob)))


@st.composite
def mutations(draw, original: bytes) -> bytes:
    """original with header fields rewritten, bytes overwritten, or its length changed."""
    blob = bytearray(original)
    kind = draw(st.sampled_from(["fields", "bytes", "length"]))
    if kind == "fields":
        for offset, code in draw(st.lists(st.sampled_from(_FIELDS), min_size=1, max_size=3)):
            struct.pack_into(code, blob, offset, draw(_FIELD_VALUES[code]))
        blob = _fit_declared_size(blob)
    elif kind == "bytes":
        positions = st.integers(0, len(blob) - 1)
        for pos, value in draw(st.lists(st.tuples(positions, st.integers(0, 255)), min_size=1)):
            blob[pos] = value
    else:
        del blob[draw(st.integers(0, len(blob))):]
        blob += draw(st.binary(max_size=16))
    if len(blob) >= 8 and draw(st.booleans()):
        _refresh_crc(blob)
    return bytes(blob)


class TestParserFuzz:
    @pytest.mark.parametrize(
        "offset, code, value",
        [(offset, code, value) for offset, code in _FIELDS for value in _EXTREMES[code]],
    )
    def test_header_field_extremes(self, tmp_path, offset, code, value):
        model = BoostedModel(
            hyper=HyperParams(t_steps=1, levels=1, hidden=2),
            weights=np.ones((1, 1, 2, 3)),
            num_classes=3,
            input_width=4,
        )
        path = tmp_path / "m.elmb"
        blob = bytearray(_saved_bytes(model, path))
        struct.pack_into(code, blob, offset, value)
        blob = _fit_declared_size(blob)
        _refresh_crc(blob)
        path.write_bytes(bytes(blob))
        _load_or_format_error(path)

    @pytest.mark.parametrize(
        "levels, t_steps, hidden, input_width, num_classes",
        [
            (2**32 - 1, 0, 2, 4, 3),
            (0, 2**32 - 1, 2, 4, 3),
            (65535, 65535, 0, 4, 3),
            (65535, 65535, 2, 4, 0),
            (65535, 65535, 2, 0, 0),
            (2**32 - 1, 2**32 - 1, 0, 0, 0),
        ],
    )
    def test_zero_payload_with_huge_grid_is_rejected_quickly(
        self, tmp_path, levels, t_steps, hidden, input_width, num_classes
    ):
        # Each header declares an empty weight payload, so the file passes the
        # size and checksum checks; load must reject the sizes before it walks
        # a levels x t_steps grid.
        model = BoostedModel(
            hyper=HyperParams(t_steps=1, levels=1, hidden=2),
            weights=np.ones((1, 1, 2, 3)),
            num_classes=3,
            input_width=4,
        )
        path = tmp_path / "m.elmb"
        blob = bytearray(_saved_bytes(model, path))
        struct.pack_into("<IIIII", blob, 36, levels, t_steps, hidden, input_width, num_classes)
        blob = _fit_declared_size(blob)
        _refresh_crc(blob)
        path.write_bytes(bytes(blob))
        start = time.perf_counter()
        with pytest.raises(ModelFormatError):
            load(path)
        assert time.perf_counter() - start < 2.0

    @_fixture_ok
    @given(blob=st.one_of(
        st.binary(max_size=200),
        st.binary(max_size=200).map(lambda tail: b"ELMB" + tail),
    ))
    def test_arbitrary_bytes(self, tmp_path, blob):
        path = tmp_path / "fuzz.elmb"
        path.write_bytes(blob)
        _load_or_format_error(path)

    @_fixture_ok
    @given(model=models(), data=st.data())
    def test_mutated_files(self, tmp_path, model, data):
        path = tmp_path / "fuzz.elmb"
        blob = data.draw(mutations(_saved_bytes(model, path)))
        path.write_bytes(blob)
        _load_or_format_error(path)


def _idx_files():
    """Valid IDX image or label files with a few small records."""
    images = st.builds(
        lambda count, rows, cols, seed: struct.pack(">IIII", IMAGE_MAGIC, count, rows, cols)
        + np.random.default_rng(seed).bytes(count * rows * cols),
        st.integers(0, 4), st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1),
    )
    labels = st.builds(
        lambda count, seed: struct.pack(">II", LABEL_MAGIC, count)
        + np.random.default_rng(seed).bytes(count),
        st.integers(0, 20), st.integers(0, 2**32 - 1),
    )
    return st.one_of(images, labels)


@st.composite
def _byte_mutations(draw, original: bytes) -> bytes:
    """original with bytes overwritten, or cut and extended."""
    blob = bytearray(original)
    if blob and draw(st.booleans()):
        positions = st.integers(0, len(blob) - 1)
        for pos, value in draw(st.lists(st.tuples(positions, st.integers(0, 255)), min_size=1)):
            blob[pos] = value
    else:
        del blob[draw(st.integers(0, len(blob))):]
        blob += draw(st.binary(max_size=16))
    return bytes(blob)


@st.composite
def _idx_blobs(draw) -> bytes:
    """Arbitrary or mutated IDX bytes, gzipped before or after the mutation, or raw."""
    if draw(st.booleans()):
        blob = draw(st.binary(max_size=200))
    else:
        blob = draw(_byte_mutations(draw(_idx_files())))
    where = draw(st.sampled_from(["raw", "gzip", "gzip then mutate"]))
    if where == "gzip":
        blob = gzip.compress(blob)
    elif where == "gzip then mutate":
        blob = draw(_byte_mutations(gzip.compress(blob)))
    return blob


class TestIdxParserFuzz:
    @_fixture_ok
    @given(blob=_idx_blobs(), load=st.sampled_from([load_idx_images, load_idx_labels]))
    def test_returns_array_or_raises_idx_error(self, tmp_path, blob, load):
        path = tmp_path / "fuzz-idx"
        path.write_bytes(blob)
        try:
            out = load(path)
        except IdxError:
            return
        assert isinstance(out, np.ndarray)
