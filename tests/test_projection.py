"""Tests for seeded projections, activations, and the sign-hashing toolkit."""

import tracemalloc
import warnings

import numpy as np
import pytest

from elmboost.projection import (
    Activation,
    ProjectionSpec,
    collision_probability,
    encode,
    estimate_collision_rate,
    generate_projection,
    hash_signature,
)

from helpers import normalized_rows


class TestGenerateProjection:
    def test_bit_identical_across_calls(self):
        spec = ProjectionSpec(master_seed=42, j=13, m=7)
        assert np.array_equal(generate_projection(spec, 2, 3), generate_projection(spec, 2, 3))

    def test_streams_separate_across_steps_and_levels(self):
        spec = ProjectionSpec(master_seed=0, j=4, m=4)
        base = generate_projection(spec, 0, 0).ravel()
        assert not np.array_equal(base[:16], generate_projection(spec, 0, 1).ravel()[:16])
        assert not np.array_equal(base[:16], generate_projection(spec, 1, 0).ravel()[:16])

    def test_different_seeds_differ(self):
        a = generate_projection(ProjectionSpec(master_seed=1, j=4, m=4), 0, 0)
        b = generate_projection(ProjectionSpec(master_seed=2, j=4, m=4), 0, 0)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 42])
    def test_standard_normal_moments(self, seed):
        # 784*784 = 614656 samples: 0.005 and 0.01 are ~4 sigma bounds
        r = generate_projection(ProjectionSpec(master_seed=seed, j=784, m=784), 0, 0)
        assert abs(r.mean()) <= 0.005
        assert abs(r.var() - 1.0) <= 0.01

    def test_entries_finite(self):
        r = generate_projection(ProjectionSpec(master_seed=7, j=100, m=100), 5, 9)
        assert np.isfinite(r).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            ProjectionSpec(master_seed=0, j=0, m=4)
        with pytest.raises(ValueError):
            ProjectionSpec(master_seed=-1, j=4, m=4)
        spec = ProjectionSpec(master_seed=0, j=4, m=4)
        with pytest.raises(ValueError):
            generate_projection(spec, -1, 0)
        with pytest.raises(ValueError):
            generate_projection(spec, 0, -1)
        with pytest.raises(ValueError, match=r"step must be >= 0 and < 2\*\*32"):
            generate_projection(spec, 0, 2**32)
        # level 2**32 + k would alias level k's sub-stream
        for level in (2**32, 2**32 + 5):
            with pytest.raises(ValueError, match=r"level must be >= 0 and < 2\*\*32"):
                generate_projection(spec, level, 1)
        assert generate_projection(spec, 2**32 - 1, 2**32 - 1).shape == (4, 4)
        for level, step in ((1.5, 0), (0.0, 0), (0, 1.0)):
            with pytest.raises(ValueError, match="must be an integer"):
                generate_projection(spec, level, step)
        for field in ({"master_seed": 1.5}, {"master_seed": 2.0}, {"master_seed": 2**64},
                      {"j": 2.5}, {"m": 4.0}, {"j": 2**32}, {"m": 0}):
            with pytest.raises(ValueError, match=next(iter(field))):
                ProjectionSpec(**{"master_seed": 0, "j": 4, "m": 4, **field})

    @pytest.mark.parametrize("dtype", [np.int64, np.uint32, np.int16, np.uint8, np.uint64])
    def test_numpy_integers_give_the_python_int_matrix(self, dtype):
        # numpy integers of any width, with overflow warnings as errors: the
        # sub-stream seed is mixed from their values, not in their own type,
        # and so is the deviate count of widths whose product overflows it
        limit = np.iinfo(dtype).max
        values = [v for v in (0, 1, 2**31, 2**32 - 1) if v <= limit]
        seeds = [v for v in (0, 7, 2**31, 2**32 - 1, 2**63 - 1, 2**64 - 1) if v <= limit]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in seeds:
                spec = ProjectionSpec(master_seed=dtype(seed), j=3, m=4)
                plain = ProjectionSpec(master_seed=seed, j=3, m=4)
                for level in values:
                    for step in values:
                        expected = generate_projection(plain, level, step)
                        got = generate_projection(spec, dtype(level), dtype(step))
                        assert got.tobytes() == expected.tobytes(), (seed, level, step)
            for width in (w for w in (255, 256) if w <= limit):
                spec = ProjectionSpec(master_seed=dtype(7), j=dtype(width), m=dtype(width))
                expected = generate_projection(ProjectionSpec(master_seed=7, j=width, m=width), 1, 2)
                got = generate_projection(spec, dtype(1), dtype(2))
                assert got.tobytes() == expected.tobytes(), width


class TestEncode:
    def test_tanh_of_zero_products(self):
        x = np.zeros((3, 4))
        r = np.ones((5, 4))
        assert np.array_equal(encode(x, r, Activation.TANH), np.zeros((3, 5)))

    def test_sign_zero_convention(self):
        # dot products are [0, 1]; sign(0) must be +1
        x = np.array([[1.0, 0.0]])
        r = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert encode(x, r, Activation.SIGN).tolist() == [[1.0, 1.0]]
        assert encode(x.tolist(), r.tolist(), Activation.SIGN).tolist() == [[1.0, 1.0]]

    def test_sign_codomain(self):
        rng = np.random.default_rng(0)
        h = encode(rng.standard_normal((10, 6)), rng.standard_normal((8, 6)), Activation.SIGN)
        assert set(np.unique(h)) <= {-1.0, 1.0}

    def test_tanh_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(1)
        x = normalized_rows(rng, 20, 30)
        r = generate_projection(ProjectionSpec(master_seed=2, j=16, m=30), 0, 0)
        h = encode(x, r, Activation.TANH)
        assert np.abs(h).max() < 1.0

    @pytest.mark.parametrize("act", list(Activation))
    def test_one_encoding_sized_array_allocated(self, act):
        # both activations overwrite X·Rᵀ, so the output is the only N×J array
        rng = np.random.default_rng(3)
        x, r = rng.standard_normal((4096, 8)), rng.standard_normal((64, 8))
        encoding = 8 * 4096 * 64
        tracemalloc.start()
        try:
            h = encode(x, r, act)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert h.nbytes == encoding
        assert peak < 1.5 * encoding + r.nbytes, peak / encoding

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="encode width mismatch"):
            encode(np.zeros((2, 3)), np.zeros((4, 5)), Activation.TANH)
        with pytest.raises(ValueError, match="encode width mismatch"):
            encode([[0.0] * 3] * 2, [[0.0] * 5] * 4, Activation.TANH)

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="encode width mismatch"):
            encode(np.zeros(3), np.zeros((4, 3)), Activation.TANH)
        with pytest.raises(ValueError, match="encode width mismatch"):
            encode([0.0] * 3, [[0.0] * 3] * 4, Activation.TANH)


class TestHashSignature:
    def test_own_hyperplane_is_positive(self):
        rng = np.random.default_rng(2)
        r = rng.standard_normal((4, 6))
        assert hash_signature(r[0], r)[0] == 1.0

    def test_odd_symmetry(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(9)
        r = rng.standard_normal((12, 9))
        assert np.array_equal(hash_signature(-x, r), -hash_signature(x, r))

    def test_matches_encode_row(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(15)
        r = rng.standard_normal((8, 15))
        assert np.array_equal(hash_signature(x, r), encode(x[None, :], r, Activation.SIGN)[0])

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(10)
        r = rng.standard_normal((6, 10))
        assert np.array_equal(hash_signature(3.7 * x, r), hash_signature(x, r))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="hash_signature dimension mismatch"):
            hash_signature(np.zeros(3), np.zeros((2, 4)))
        with pytest.raises(ValueError, match="hash_signature dimension mismatch"):
            hash_signature([0.0] * 3, [[0.0] * 4] * 2)

    def test_column_vector_rejected(self):
        with pytest.raises(ValueError, match="hash_signature dimension mismatch"):
            hash_signature(np.zeros((4, 1)), np.zeros((2, 4)))

    def test_list_vector(self):
        r = np.array([[1.0, -1.0], [-1.0, -1.0]])
        assert hash_signature([2, 1], r).tolist() == [1.0, -1.0]
        assert hash_signature([2, 1], r.tolist()).tolist() == [1.0, -1.0]


class TestCollisionProbability:
    def test_identical_vectors(self):
        x = np.array([1.0, 2.0, 3.0])
        assert collision_probability(x, x) == 1.0

    def test_antipodal_vectors(self):
        x = np.array([1.0, -2.0, 0.5])
        assert collision_probability(x, -x) == 0.0

    def test_orthogonal_vectors(self):
        assert collision_probability(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == 0.5

    def test_clamping_avoids_nan(self):
        x = np.array([1.0, 1e-9])
        p = collision_probability(x, x * (1 + 1e-15))
        assert np.isfinite(p) and 0.0 <= p <= 1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            collision_probability(np.zeros(3), np.ones(3))

    def test_lists(self):
        assert collision_probability([1, 0], [0, 2]) == 0.5
        assert collision_probability([1, 2], [1, 2]) == 1.0

    @pytest.mark.parametrize("x, x_other, want", [
        ([1e-200, 0.0], [0.0, 1e-200], 0.5),  # the norms' product underflows to zero
        ([1e300, 1e300], [1e300, -1e300], 0.5),  # the dot product and norms overflow
        ([1e-160, 1e-160], [1e-160, 0.0], 0.75),  # the dot product is subnormal
        ([2.0**-1074, 0.0], [0.0, 2.0**-1074], 0.5),
        ([1.7e308, 0.0], [1.7e308, 1.7e308], 0.75),
    ], ids=["underflow", "overflow", "subnormal-dot", "least-subnormal", "near-max"])
    def test_exact_at_any_scale(self, x, x_other, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert collision_probability(x, x_other) == want


@pytest.mark.parametrize("estimate", [
    collision_probability,
    lambda x, x_other: estimate_collision_rate(x, x_other, 100, seed=0),
], ids=["analytic", "empirical"])
@pytest.mark.parametrize("x, x_other", [
    (np.ones(3), np.ones(4)),
    (np.ones(4), np.ones((1, 4))),
    (np.ones((2, 2)), np.ones((2, 2))),
])
def test_vectors_must_share_one_1d_shape(estimate, x, x_other):
    with pytest.raises(ValueError, match="share one shape"):
        estimate(x, x_other)


class TestEstimateCollisionRate:
    def test_identical_is_exactly_one(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(20)
        assert estimate_collision_rate(x, x.copy(), 500, seed=0) == 1.0

    def test_antipodal_is_exactly_zero(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(20)
        assert estimate_collision_rate(x, -x, 500, seed=1) == 0.0

    def test_lists(self):
        x = [1.0, -2.0, 0.5]
        assert estimate_collision_rate(x, [-v for v in x], 500, seed=1) == 0.0
        assert estimate_collision_rate(x, x, 500, seed=1) == 1.0

    def test_orthogonal_concentrates_at_half(self):
        x = np.zeros(50)
        y = np.zeros(50)
        x[0] = 1.0
        y[1] = 1.0
        rate = estimate_collision_rate(x, y, 10000, seed=2)
        assert abs(rate - 0.5) <= 3 * np.sqrt(0.25 / 10000)

    def test_binomial_concentration_over_random_pairs(self):
        rng = np.random.default_rng(8)
        for trial in range(25):
            x = rng.standard_normal(20)
            y = rng.standard_normal(20)
            p = collision_probability(x, y)
            rate = estimate_collision_rate(x, y, 4000, seed=trial)
            bound = 3 * np.sqrt(max(p * (1 - p), 1e-12) / 4000)
            assert abs(rate - p) <= bound, f"trial {trial}: {rate} vs {p}"
