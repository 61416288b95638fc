"""Tests for boosted training, prediction, and classification."""

import hashlib
import itertools
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from elmboost import boost, lanes, linalg, model_store
from elmboost.boost import (
    BoostedModel,
    HyperParams,
    accuracy,
    classify,
    iter_level_scores,
    predict_scores,
    train,
)
from elmboost.dataset import Dataset, RawDataset, normalize, one_hot_encode, zero_pixel_noise
from elmboost.linalg import NotPositiveDefiniteError, ridge_solve
from elmboost.projection import Activation, ProjectionSpec, encode, generate_projection

from helpers import (
    blas_threads,
    level_scores_reference,
    make_dataset,
    normalized_rows,
    separable_images,
    set_blas_threads,
    train_reference,
)


class TestHyperParams:
    def test_defaults_valid(self):
        hyper = HyperParams()
        assert hyper.alpha == 0.5 and hyper.t_steps == 50

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.01])
    def test_alpha_range(self, alpha):
        with pytest.raises(ValueError):
            HyperParams(alpha=alpha)

    def test_alpha_one_admitted(self):
        assert HyperParams(alpha=1.0).alpha == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": -1.0},
            {"t_steps": 0},
            {"levels": 0},
            {"hidden": 0},
            {"lam": float("nan")},
            {"lam": float("inf")},
        ],
    )
    def test_other_bounds(self, kwargs):
        with pytest.raises(ValueError):
            HyperParams(**kwargs)

    @pytest.mark.parametrize("name", ["levels", "t_steps", "hidden"])
    @pytest.mark.parametrize("value", [2**32, 2.5, 3.0, "3"])
    def test_sizes_must_fit_the_model_header(self, name, value):
        # each size is an unsigned 32-bit field of the .elmb header
        with pytest.raises(ValueError, match=name):
            HyperParams(**{name: value})

    @pytest.mark.parametrize("value", [2**64, -1, 2.5, 7.0])
    def test_master_seed_must_fit_the_model_header(self, value):
        with pytest.raises(ValueError, match="master_seed"):
            HyperParams(master_seed=value)

    @pytest.mark.parametrize(
        "name, largest",
        [("levels", 2**32 - 1), ("t_steps", 2**32 - 1), ("hidden", 2**32 - 1),
         ("master_seed", 2**64 - 1)],
    )
    def test_largest_storable_value_admitted(self, name, largest):
        assert getattr(HyperParams(**{name: largest}), name) == largest
        assert getattr(HyperParams(**{name: np.int64(3)}), name) == 3

    @pytest.mark.parametrize("activation", ["tanh", 0, None])
    def test_activation_must_be_an_activation(self, activation):
        with pytest.raises(ValueError, match="activation"):
            HyperParams(activation=activation)


class TestTrain:
    def test_plain_elm_reduction_bitwise(self):
        rng = np.random.default_rng(0)
        data = make_dataset(rng, 80, 12, 3)
        y = one_hot_encode(data.labels, 3)
        hyper = HyperParams(lam=0.7, alpha=1.0, t_steps=1, levels=1, hidden=9, master_seed=5)
        model, _ = train(data, y, hyper)

        r = generate_projection(ProjectionSpec(master_seed=5, j=9, m=12), 0, 0)
        h = encode(data.x, r, Activation.TANH)
        w = ridge_solve(h, y, 0.7)
        assert np.array_equal(model.weights[0, 0], w)

        # stored grid slice, not the solver's F-ordered w: see criterion 3
        x_new = make_dataset(rng, 20, 12, 3).x
        direct = encode(x_new, r, Activation.TANH) @ model.weights[0, 0]
        assert np.array_equal(predict_scores(model, x_new), direct)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    def test_residual_norms_non_increasing(self, alpha):
        rng = np.random.default_rng(1)
        data = make_dataset(rng, 100, 10, 3)
        y = one_hot_encode(data.labels, 3)
        hyper = HyperParams(lam=1.0, alpha=alpha, t_steps=4, levels=3, hidden=10, master_seed=2)
        _, norms = train(data, y, hyper)
        norms = norms.ravel()
        slack = 1e-9 * np.linalg.norm(y)
        assert np.all(norms[1:] <= norms[:-1] + slack)
        assert norms[0] <= np.linalg.norm(y) + slack

    def test_train_predict_consistency(self):
        rng = np.random.default_rng(2)
        data = make_dataset(rng, 120, 14, 4)
        y = one_hot_encode(data.labels, 4)
        hyper = HyperParams(lam=1.0, alpha=0.5, t_steps=3, levels=3, hidden=11, master_seed=7)
        model, residual_norms = train(data, y, hyper)
        # replay the residual updates from the stored weights: the projections
        # regenerate, so this retraces the trainer's arithmetic exactly
        spec = ProjectionSpec(master_seed=7, j=11, m=14)
        replay = y.copy()
        for lv in range(3):
            for t in range(3):
                h = encode(data.x, generate_projection(spec, lv, t), Activation.TANH)
                replay -= hyper.alpha * (h @ model.weights[lv, t])
        assert abs(np.linalg.norm(replay) - residual_norms[-1, -1]) <= 1e-12
        # the prediction path sums the same terms in a different association
        scores = predict_scores(model, data.x)
        fit = y - replay
        assert np.abs(scores - fit).max() <= 1e-9 * max(np.abs(fit).max(), 1.0)

    def test_permuting_rows_leaves_weights_unchanged(self):
        rng = np.random.default_rng(4)
        data = make_dataset(rng, 60, 8, 3)
        y = one_hot_encode(data.labels, 3)
        hyper = HyperParams(lam=0.5, alpha=0.5, t_steps=2, levels=2, hidden=6, master_seed=1)
        model_a, _ = train(data, y, hyper)

        perm = rng.permutation(60)
        shuffled = Dataset(x=data.x[perm], labels=data.labels[perm], num_classes=3)
        model_b, _ = train(shuffled, one_hot_encode(shuffled.labels, 3), hyper)

        for lv in range(2):
            for t in range(2):
                a, b = model_a.weights[lv, t], model_b.weights[lv, t]
                assert np.abs(a - b).max() <= 1e-9 * max(np.abs(a).max(), 1.0)

    def test_same_seed_same_model(self):
        rng = np.random.default_rng(5)
        data = make_dataset(rng, 50, 6, 2)
        y = one_hot_encode(data.labels, 2)
        hyper = HyperParams(lam=1.0, alpha=0.5, t_steps=2, levels=2, hidden=5, master_seed=3)
        model_a, _ = train(data, y, hyper)
        model_b, _ = train(data, y, hyper)
        assert np.array_equal(model_a.weights, model_b.weights)

    def test_target_shape_mismatch(self):
        rng = np.random.default_rng(6)
        data = make_dataset(rng, 20, 5, 2)
        with pytest.raises(ValueError, match="targets must be 2-D"):
            train(data, np.zeros((19, 2)), HyperParams(t_steps=1, levels=1, hidden=4))

    @pytest.mark.parametrize("shape", [(20,), (21, 2)])
    def test_flat_or_longer_targets_rejected(self, shape):
        rng = np.random.default_rng(6)
        data = make_dataset(rng, 20, 5, 2)
        with pytest.raises(ValueError, match="targets must be 2-D"):
            train(data, np.zeros(shape), HyperParams(t_steps=1, levels=1, hidden=4))

    def test_integer_targets_are_converted(self):
        rng = np.random.default_rng(7)
        data = make_dataset(rng, 20, 5, 2)
        y = one_hot_encode(data.labels, 2)
        hyper = HyperParams(t_steps=2, levels=2, hidden=4, master_seed=1)
        model, residual_norms = train(data, y.astype(np.int64), hyper)
        want_model, want_norms = train(data, y, hyper)
        assert np.array_equal(_bits(model.weights), _bits(want_model.weights))
        assert np.array_equal(residual_norms, want_norms)

    def test_cholesky_failure_carries_level_and_step(self):
        # all-zero samples give a zero Gram matrix, unsolvable at lambda = 0
        data = Dataset(x=np.zeros((10, 4)), labels=np.zeros(10, dtype=np.int64), num_classes=2)
        y = one_hot_encode(data.labels, 2)
        hyper = HyperParams(lam=0.0, alpha=0.5, t_steps=2, levels=2, hidden=4, master_seed=0)
        with pytest.raises(NotPositiveDefiniteError, match="level 0, step 0"):
            train(data, y, hyper)

    def test_non_finite_weights_raise_with_level_and_step(self, monkeypatch):
        rng = np.random.default_rng(3)
        data = make_dataset(rng, 20, 5, 2)
        y = one_hot_encode(data.labels, 2)
        hyper = HyperParams(lam=1.0, alpha=0.5, t_steps=2, levels=2, hidden=4, master_seed=0)
        # train solves each slot's factor in slot order, on either thread
        solve = linalg.factor_solve
        calls = []

        def poisoned_solve(factor, rhs):
            calls.append(None)
            w = solve(factor, rhs)
            if len(calls) == 3:
                w[0, 0] = np.inf
            return w

        monkeypatch.setattr(linalg, "factor_solve", poisoned_solve)
        with pytest.raises(FloatingPointError, match="level 1, step 0"):
            train(data, y, hyper)


class TestOverlappedTrain:
    """train factors two slots at once and still solves them in slot order."""

    @pytest.mark.parametrize("activation", [Activation.TANH, Activation.SIGN])
    @pytest.mark.parametrize("levels, t_steps", [(1, 1), (2, 1), (1, 3), (5, 1)])
    def test_every_slot_count_matches_the_serial_walk(self, activation, levels, t_steps):
        rng = np.random.default_rng(50)
        data = make_dataset(rng, 60, 12, 3)
        y = one_hot_encode(data.labels, 3)
        hyper = HyperParams(
            lam=0.5, alpha=0.5, t_steps=t_steps, levels=levels, hidden=10,
            activation=activation, master_seed=8,
        )
        model, residual_norms = train(data, y, hyper)
        weights, norms = train_reference(data, y, hyper)
        assert np.array_equal(_bits(model.weights), _bits(weights))
        assert np.array_equal(_bits(residual_norms), _bits(norms))

    @pytest.mark.parametrize(
        "failing, first",
        [({(0, 1)}, (0, 1)), ({(0, 0)}, (0, 0)), ({(0, 0), (0, 1)}, (0, 0)),
         ({(0, 1), (1, 0)}, (0, 1)), ({(1, 1)}, (1, 1))],
    )
    def test_first_singular_slot_in_order_is_named(self, monkeypatch, failing, first):
        # a zero projection gives a zero encoding, singular at lambda = 0;
        # either thread may factor any slot
        def generate(spec, level, step):
            r = generate_projection(spec, level, step)
            return np.zeros_like(r) if (level, step) in failing else r

        monkeypatch.setattr(boost, "generate_projection", generate)
        rng = np.random.default_rng(51)
        data = make_dataset(rng, 40, 6, 2)
        hyper = HyperParams(lam=0.0, alpha=0.5, t_steps=2, levels=2, hidden=8)
        before = threading.active_count()
        with pytest.raises(NotPositiveDefiniteError, match=f"level {first[0]}, step {first[1]}$"):
            train(data, one_hot_encode(data.labels, 2), hyper)
        assert threading.active_count() == before

    def test_no_thread_outlives_train(self):
        rng = np.random.default_rng(52)
        data = make_dataset(rng, 30, 6, 2)
        y = one_hot_encode(data.labels, 2)
        before = threading.active_count()
        train(data, y, HyperParams(t_steps=3, levels=1, hidden=5))
        assert threading.active_count() == before
        zeros = Dataset(x=np.zeros((10, 6)), labels=np.zeros(10, dtype=np.int64), num_classes=2)
        with pytest.raises(NotPositiveDefiniteError):
            train(zeros, one_hot_encode(zeros.labels, 2), HyperParams(lam=0.0, t_steps=3, levels=1, hidden=5))
        assert threading.active_count() == before

    def test_scipy_lapack_path_trains_the_same_bits(self, monkeypatch):
        rng = np.random.default_rng(53)
        data = make_dataset(rng, 50, 8, 3)
        y = one_hot_encode(data.labels, 3)
        hyper = HyperParams(t_steps=2, levels=2, hidden=9, master_seed=4)
        model, residual_norms = train(data, y, hyper)
        fallback = linalg._scipy_lapack(linalg._library(linalg._flapack_path()))
        monkeypatch.setattr(linalg, "_LAPACK", fallback)
        fallback, fallback_norms = train(data, y, hyper)
        assert np.array_equal(_bits(fallback.weights), _bits(model.weights))
        assert np.array_equal(_bits(fallback_norms), _bits(residual_norms))

    def test_at_most_two_encodings_alive(self):
        # encodings dominate at this shape: N x J is 16 times J x J and 32
        # times N x K, so a third encoding alive at once shows
        n, m, j, k = 4096, 8, 64, 2
        rng = np.random.default_rng(54)
        data = make_dataset(rng, n, m, k)
        y = one_hot_encode(data.labels, k)
        hyper = HyperParams(t_steps=3, levels=2, hidden=j, master_seed=6)
        train(data, y, hyper)  # LAPACK is looked up once, outside the trace
        encoding, gram_bytes, column_bytes = 8 * n * j, 8 * j * j, 8 * n * k
        tracemalloc.start()
        try:
            train(data, y, hyper)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * encoding + 8 * column_bytes + 8 * gram_bytes, peak / encoding


def test_bits_do_not_depend_on_the_blas_thread_count(tmp_path):
    # At this shape OpenBLAS gives other bits on 2 threads than on 1 in
    # every kernel train and predict_scores call, unless the package pins it.
    script = """
import hashlib, sys
import numpy as np
from elmboost import HyperParams, RawDataset, normalize, one_hot_encode, predict_scores, save_model, train
rng = np.random.default_rng(17)
images = rng.integers(0, 256, (1500, 256), dtype=np.uint8)
labels = rng.integers(0, 10, 1500)
data = normalize(RawDataset(images=images[:1000], labels=labels[:1000], num_classes=10))
test = normalize(RawDataset(images=images[1000:], labels=labels[1000:], num_classes=10))
hyper = HyperParams(levels=2, t_steps=1, hidden=256, master_seed=5)
model, _ = train(data, one_hot_encode(data.labels, 10), hyper)
save_model(model, sys.argv[1])
print(hashlib.sha256(predict_scores(model, test.x).tobytes()).hexdigest())
"""
    src = Path(__file__).resolve().parent.parent / "src"
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        path = tmp_path / f"threads{threads}.elmb"
        done = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        digests.append((hashlib.sha256(path.read_bytes()).hexdigest(), done.stdout.strip()))
    assert digests[0] == digests[1]


class TestBoostedModel:
    hyper = HyperParams(t_steps=3, levels=2, hidden=4)

    def test_fitting_grid_is_not_copied(self):
        weights = np.ones((2, 3, 4, 5))
        model = BoostedModel(hyper=self.hyper, weights=weights, num_classes=5, input_width=7)
        assert model.weights is weights

    def test_grid_is_made_c_contiguous_float64(self):
        weights = np.asfortranarray(np.arange(120, dtype=np.float32).reshape(2, 3, 4, 5))
        model = BoostedModel(hyper=self.hyper, weights=weights, num_classes=5, input_width=7)
        assert model.weights.dtype == np.float64 and model.weights.flags.c_contiguous
        assert np.array_equal(model.weights, weights)

    @pytest.mark.parametrize(
        "shape", [(3, 2, 4, 5), (2, 3, 5, 4), (2, 3, 4, 6), (2, 3, 20), (6, 4, 5)]
    )
    def test_wrong_grid_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="weight grid"):
            BoostedModel(
                hyper=self.hyper, weights=np.ones(shape), num_classes=5, input_width=7
            )

    @pytest.mark.parametrize("name", ["num_classes", "input_width"])
    @pytest.mark.parametrize("value", [2**32, 2.5])
    def test_sizes_must_fit_the_model_header(self, name, value):
        # both are unsigned 32-bit fields of the .elmb header; the size check
        # comes before the grid's, so a one-class grid serves every case
        sizes = {"num_classes": 1, "input_width": 1, name: value}
        with pytest.raises(ValueError, match=name):
            BoostedModel(
                hyper=HyperParams(levels=1, t_steps=1, hidden=1), weights=np.zeros((1, 1, 1, 1)),
                **sizes,
            )

    def test_widest_input_saves_and_loads(self, tmp_path):
        # the grid does not depend on M, so the largest u32 width costs nothing
        model = BoostedModel(
            hyper=HyperParams(levels=1, t_steps=1, hidden=1), weights=np.zeros((1, 1, 1, 1)),
            num_classes=1, input_width=2**32 - 1,
        )
        model_store.save(model, tmp_path / "m.elmb")
        assert model_store.load(tmp_path / "m.elmb").input_width == 2**32 - 1

    @pytest.mark.parametrize("num_classes, input_width", [(0, 7), (5, 0)])
    def test_sizes_below_one_rejected(self, num_classes, input_width):
        # the grid matches the declared class count, so only the size check objects
        with pytest.raises(ValueError, match="must be >= 1"):
            BoostedModel(
                hyper=self.hyper, weights=np.ones((2, 3, 4, num_classes)),
                num_classes=num_classes, input_width=input_width,
            )


class TestPredict:
    def test_zero_weights_give_zero_scores(self):
        hyper = HyperParams(lam=1.0, alpha=0.5, t_steps=2, levels=2, hidden=4, master_seed=0)
        model = BoostedModel(
            hyper=hyper, weights=np.zeros((2, 2, 4, 3)), num_classes=3, input_width=6
        )
        scores = predict_scores(model, np.zeros((5, 6)))
        assert np.array_equal(scores, np.zeros((5, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, bad):
        hyper = HyperParams(lam=1.0, alpha=0.5, t_steps=2, levels=2, hidden=4, master_seed=0)
        model = BoostedModel(
            hyper=hyper, weights=np.ones((2, 2, 4, 3)), num_classes=3, input_width=6
        )
        x = np.zeros((5, 6))
        x[3, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            next(iter_level_scores(model, x))
        with pytest.raises(ValueError, match="row 3"):
            predict_scores(model, x)

    def test_nested_list_input_matches_array(self):
        rng = np.random.default_rng(13)
        model = _random_model(rng, Activation.TANH, levels=3)
        x = normalized_rows(rng, 12, 16)
        final = predict_scores(model, x)
        assert np.array_equal(_bits(predict_scores(model, x.tolist())), _bits(final))
        for (lv_list, got), (lv, expected) in zip(
            iter_level_scores(model, x.tolist()), iter_level_scores(model, x), strict=True
        ):
            assert lv_list == lv and np.array_equal(_bits(got), _bits(expected))

    def test_width_mismatch(self):
        rng = np.random.default_rng(9)
        data = make_dataset(rng, 30, 6, 2)
        model, _ = train(
            data, one_hot_encode(data.labels, 2),
            HyperParams(t_steps=1, levels=1, hidden=4, master_seed=0),
        )
        with pytest.raises(ValueError, match="width mismatch"):
            predict_scores(model, np.zeros((3, 7)))

    @pytest.mark.parametrize("x", [np.zeros((3, 15)), np.zeros(16), np.zeros((3, 16, 1))])
    def test_bad_input_shape_rejected_before_any_projection(self, calls, x):
        model = _random_model(np.random.default_rng(9), Activation.TANH)
        with pytest.raises(ValueError, match="width mismatch"):
            predict_scores(model, x)
        assert calls == {"generate": 0, "encode": 0}


def _random_model(rng, activation, seed=3, levels=2, t_steps=2, hidden=9, m=16, k=3):
    hyper = HyperParams(
        alpha=0.5, t_steps=t_steps, levels=levels, hidden=hidden,
        activation=activation, master_seed=seed,
    )
    weights = rng.standard_normal((levels, t_steps, hidden, k))
    return BoostedModel(hyper=hyper, weights=weights, num_classes=k, input_width=m)


def _bits(a):
    return a.view(np.uint64)


@pytest.fixture
def calls(monkeypatch):
    """Counts of projection generations and encode GEMMs made through boost.

    The scorer calls both from two threads, so the counts are updated under
    a lock.
    """
    counts = {"generate": 0, "encode": 0}
    lock = threading.Lock()

    def counting(name, original):
        def wrapper(*args):
            with lock:
                counts[name] += 1
            return original(*args)
        return wrapper

    monkeypatch.setattr(boost, "generate_projection", counting("generate", generate_projection))
    monkeypatch.setattr(boost, "encode", counting("encode", encode))
    return counts


def assert_matches_reference(jobs, items):
    """items from one pass equal, per job and level, the serial reference sum."""
    for i, (model, x) in enumerate(jobs):
        expected = level_scores_reference(model, x)
        mine = [(lv, scores) for j, lv, scores in items if j == i]
        assert [lv for lv, _ in mine] == [lv for lv, _ in expected]
        for (_, got), (_, want) in zip(mine, expected):
            assert np.array_equal(_bits(got), _bits(want))


class TestOnePassScoring:
    """Scoring many jobs in one pass gives every job the bits of the serial sum."""

    def test_tanh_sign_pair_shares_projections_and_gemm(self, calls):
        rng = np.random.default_rng(20)
        models = [_random_model(rng, Activation.TANH), _random_model(rng, Activation.SIGN)]
        x = normalized_rows(rng, 30, 16)
        jobs = [(m, x) for m in models]
        items = list(iter_level_scores(jobs))
        assert calls == {"generate": 4, "encode": 4}  # one of each per (level, step)
        assert_matches_reference(jobs, items)

    def test_different_seeds_walk_two_groups(self, calls):
        rng = np.random.default_rng(21)
        models = [
            _random_model(rng, Activation.TANH, seed=3),
            _random_model(rng, Activation.SIGN, seed=4),
        ]
        x = normalized_rows(rng, 30, 16)
        jobs = [(m, x) for m in models]
        items = list(iter_level_scores(jobs))
        assert calls == {"generate": 8, "encode": 8}
        assert_matches_reference(jobs, items)

    def test_interleaved_groups_and_inputs(self, calls):
        # two seed groups and two inputs, each group meeting each input, one
        # job twice: the plan groups by seed and, within a group, by input
        rng = np.random.default_rng(29)
        a = _random_model(rng, Activation.TANH, seed=3)
        b = _random_model(rng, Activation.SIGN, seed=4)
        x, y = normalized_rows(rng, 30, 16), normalized_rows(rng, 20, 16)
        jobs = [(a, x), (b, y), (a, y), (b, x), (a, x)]
        items = list(iter_level_scores(jobs))
        # 2 groups x 4 slots: one generation per group slot, and one encode
        # per slot for each of a group's two inputs
        assert calls == {"generate": 8, "encode": 16}
        assert_matches_reference(jobs, items)

    def test_models_differing_in_levels_or_steps(self):
        rng = np.random.default_rng(22)
        models = [
            _random_model(rng, Activation.TANH, levels=2, t_steps=3),
            _random_model(rng, Activation.SIGN, levels=3, t_steps=2),
            _random_model(rng, Activation.TANH, levels=3, t_steps=3),
        ]
        x = normalized_rows(rng, 30, 16)
        jobs = [(m, x) for m in models]
        items = list(iter_level_scores(jobs))
        assert_matches_reference(jobs, items)
        for i, (model, _) in enumerate(jobs):
            assert [lv for j, lv, _ in items if j == i] == list(range(model.hyper.levels))

    def test_noise_inputs_share_projections(self, calls):
        rng = np.random.default_rng(23)
        images, labels = separable_images(rng, 40, 16, 3)
        raw = RawDataset(images=images, labels=labels, num_classes=3)
        inputs = [normalize(zero_pixel_noise(raw, f, 5)).x for f in (0.0, 0.25, 0.5)]
        model = _random_model(rng, Activation.TANH, levels=3)
        jobs = [(model, x) for x in inputs]
        items = list(iter_level_scores(jobs))
        assert calls == {"generate": 6, "encode": 18}
        assert_matches_reference(jobs, items)

    def test_shared_nested_list_is_converted_once(self, calls):
        rng = np.random.default_rng(26)
        models = [_random_model(rng, Activation.TANH), _random_model(rng, Activation.SIGN)]
        x = normalized_rows(rng, 30, 16)
        shared = x.tolist()
        items = list(iter_level_scores([(m, shared) for m in models]))
        assert calls == {"generate": 4, "encode": 4}  # both jobs share one X·Rᵀ per step
        assert_matches_reference([(m, x) for m in models], items)

    def test_predict_scores_lists(self):
        rng = np.random.default_rng(24)
        models = [_random_model(rng, Activation.TANH), _random_model(rng, Activation.SIGN)]
        inputs = [normalized_rows(rng, 20, 16) for _ in range(3)]
        jobs = [(m, inputs[0]) for m in models] + [(models[0], x) for x in inputs]
        got = predict_scores(jobs)
        assert len(got) == len(jobs)
        for scores, (model, x) in zip(got, jobs):
            *_, (_, expected) = iter_level_scores(model, x)
            assert np.array_equal(_bits(scores), _bits(expected))

    def test_scoring_never_opens_lapack(self, monkeypatch):
        # a scoring process skips LAPACK's lookup, and its thread pin with it
        def opened():
            raise AssertionError("scoring opened LAPACK")

        monkeypatch.setattr(linalg, "_lapack", opened)
        rng = np.random.default_rng(28)
        models = [_random_model(rng, Activation.TANH), _random_model(rng, Activation.SIGN)]
        x = normalized_rows(rng, 20, 16)
        jobs = [(m, x) for m in models]
        assert_matches_reference(jobs, list(iter_level_scores(jobs)))
        assert len(predict_scores(jobs)) == 2

    def test_empty_job_list(self):
        before = threading.active_count()
        assert predict_scores([]) == []
        assert list(iter_level_scores([])) == []
        assert threading.active_count() == before

    def test_each_input_is_checked(self):
        rng = np.random.default_rng(25)
        model = _random_model(rng, Activation.TANH)
        good = normalized_rows(rng, 5, 16)
        bad = good.copy()
        bad[2, 3] = np.nan
        with pytest.raises(ValueError, match="row 2"):
            predict_scores([(model, good), (model, bad)])
        narrow = _random_model(rng, Activation.SIGN, m=15)
        with pytest.raises(ValueError, match="width mismatch"):
            predict_scores([(model, good), (narrow, good)])

    def test_job_list_takes_no_separate_input(self):
        rng = np.random.default_rng(27)
        model = _random_model(rng, Activation.TANH)
        x = normalized_rows(rng, 5, 16)
        with pytest.raises(TypeError):
            predict_scores([model], x)
        with pytest.raises(TypeError):
            next(iter_level_scores([(model, x)], x))


class TestConcurrentWalk:
    """The scorer computes two slots at once and still sums them in slot order."""

    @pytest.mark.parametrize("levels, t_steps", [(1, 1), (2, 1), (1, 3), (5, 1)])
    def test_every_slot_count_matches_the_serial_sum(self, levels, t_steps):
        # one slot leaves the worker nothing to take; with one step per level
        # a level ends with the next slot still in flight
        rng = np.random.default_rng(40)
        model = _random_model(rng, Activation.TANH, levels=levels, t_steps=t_steps)
        x = normalized_rows(rng, 30, 16)
        items = [(0, lv, scores) for lv, scores in iter_level_scores(model, x)]
        assert_matches_reference([(model, x)], items)

    def test_early_stop_joins_the_worker(self):
        rng = np.random.default_rng(41)
        model = _random_model(rng, Activation.TANH, levels=3, t_steps=1)
        x = normalized_rows(rng, 30, 16)
        before = threading.active_count()
        # level 0 ends at slot 0, while the worker still computes slot 1
        walk = iter_level_scores(model, x)
        lv, scores = next(walk)
        walk.close()
        assert lv == 0 and threading.active_count() == before
        assert np.array_equal(_bits(scores), _bits(level_scores_reference(model, x)[0][1]))

    @pytest.mark.parametrize(
        "failing, first",
        [({(0, 1)}, (0, 1)), ({(0, 0), (0, 1)}, (0, 0)), ({(0, 1), (1, 0)}, (0, 1))],
    )
    def test_first_error_in_slot_order_reaches_the_caller(self, monkeypatch, failing, first):
        def generate(spec, level, step):
            if (level, step) in failing:
                raise RuntimeError(f"slot {(level, step)}")
            return generate_projection(spec, level, step)

        monkeypatch.setattr(boost, "generate_projection", generate)
        rng = np.random.default_rng(42)
        model = _random_model(rng, Activation.TANH, levels=2, t_steps=2)
        x = normalized_rows(rng, 30, 16)
        before = threading.active_count()
        raised = []

        def score():
            try:
                predict_scores(model, x)
            except RuntimeError as exc:
                raised.append(str(exc))

        runner = threading.Thread(target=score)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive(), "scoring hung after a slot raised"
        assert raised == [f"slot {first}"]
        assert threading.active_count() == before

    def test_concurrent_calls_keep_every_count_and_bit(self, calls):
        # more scoring threads than cores, switching often: each call has its
        # own worker, and the shared counts lose no update
        rng = np.random.default_rng(44)
        models = [
            _random_model(rng, Activation.TANH, seed=seed, levels=3, t_steps=1)
            for seed in range(4)
        ]
        x = normalized_rows(rng, 30, 16)
        results = {}

        def score(k):
            results[k] = [(0, lv, s) for lv, s in iter_level_scores(models[k], x)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runners = [threading.Thread(target=score, args=(k,)) for k in range(len(models))]
            for runner in runners:
                runner.start()
            for runner in runners:
                runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(runner.is_alive() for runner in runners)
        assert calls == {"generate": 12, "encode": 12}
        for k, model in enumerate(models):
            assert_matches_reference([(model, x)], results[k])

    def test_threaded_blas_matches_the_serial_sum(self):
        # At this shape numpy's bundled OpenBLAS gives other bits on 2 threads
        # than on 1.  The scorer pins one thread, so with the caller on 2 it
        # must give the serial sum on 1 thread, and leave the caller on 2.
        script = """
import numpy as np
from elmboost import linalg
from elmboost.boost import BoostedModel, HyperParams, iter_level_scores
from elmboost.projection import Activation
from helpers import blas_threads, level_scores_reference, normalized_rows

rng = np.random.default_rng(43)
x = normalized_rows(rng, 1000, 784)
jobs = []
for activation in (Activation.TANH, Activation.SIGN):
    hyper = HyperParams(levels=3, t_steps=1, hidden=784, activation=activation, master_seed=9)
    weights = rng.standard_normal((3, 1, 784, 10))
    jobs.append((BoostedModel(hyper=hyper, weights=weights, num_classes=10, input_width=784), x))
before = blas_threads()
items = list(iter_level_scores(jobs))
assert blas_threads() == before
for i, (model, x) in enumerate(jobs):
    with linalg.one_blas_thread():
        expected = [scores for _, scores in level_scores_reference(model, x)]
    got = [scores for j, _, scores in items if j == i]
    assert len(got) == len(expected) == 3
    for a, b in zip(got, expected):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), (i, np.abs(a - b).max())
"""
        tests = Path(__file__).resolve().parent
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
        env["PYTHONPATH"] = os.pathsep.join([str(tests.parent / "src"), str(tests)])
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr


def _recording_generate(made, caller_delay=0.0, delay=0.0):
    """generate_projection that records which thread made each slot and sleeps first.

    caller_delay applies on the thread that built the wrapper (the calling
    thread of the walk), delay on every thread; a delay gives the worker time
    to start and take slots of its own.
    """
    caller = threading.get_ident()

    def generate(spec, level, step):
        time.sleep(caller_delay if threading.get_ident() == caller else delay)
        r = generate_projection(spec, level, step)
        made.append(((level, step), threading.get_ident()))
        return r

    return generate


class TestLanes:
    """train and the scorer walk the slots on two lanes that finish in slot order."""

    def test_worker_finishing_first_keeps_every_bit(self, monkeypatch):
        made = []
        monkeypatch.setattr(
            boost, "generate_projection", _recording_generate(made, caller_delay=0.05, delay=0.005)
        )
        rng = np.random.default_rng(60)
        data = make_dataset(rng, 60, 12, 3)
        y = one_hot_encode(data.labels, 3)
        hyper = HyperParams(lam=0.5, t_steps=3, levels=2, hidden=10, master_seed=8)
        model, residual_norms = train(data, y, hyper)
        order = [slot for slot, _ in made]
        # the worker's slot 1 is made before the caller's slot 0: out of order
        assert sorted(order) == list(itertools.product(range(2), range(3))) != order
        weights, norms = train_reference(data, y, hyper)
        assert np.array_equal(_bits(model.weights), _bits(weights))
        assert np.array_equal(_bits(residual_norms), _bits(norms))

        made.clear()
        models = [_random_model(rng, Activation.TANH, levels=3), _random_model(rng, Activation.SIGN, levels=3)]
        x = normalized_rows(rng, 30, 16)
        jobs = [(m, x) for m in models]
        items = list(iter_level_scores(jobs))
        order = [slot for slot, _ in made]
        assert sorted(order) != order
        assert_matches_reference(jobs, items)

    def test_both_threads_solve_in_slot_order(self, monkeypatch):
        made = []
        monkeypatch.setattr(boost, "generate_projection", _recording_generate(made, delay=0.01))
        solved = []
        solve = linalg.factor_solve

        def recording_solve(factor, rhs):
            solved.append(threading.get_ident())
            return solve(factor, rhs)

        monkeypatch.setattr(linalg, "factor_solve", recording_solve)
        rng = np.random.default_rng(61)
        data = make_dataset(rng, 60, 12, 3)
        y = one_hot_encode(data.labels, 3)
        hyper = HyperParams(lam=0.5, t_steps=2, levels=3, hidden=10, master_seed=9)
        model, residual_norms = train(data, y, hyper)
        maker = dict(made)
        # slot i is solved i-th, on the thread that factored it
        assert solved == [maker[slot] for slot in itertools.product(range(3), range(2))]
        assert len(set(solved)) == 2
        weights, norms = train_reference(data, y, hyper)
        assert np.array_equal(_bits(model.weights), _bits(weights))
        assert np.array_equal(_bits(residual_norms), _bits(norms))

    def test_error_in_a_worker_solve_names_its_slot_and_leaves_no_thread(self, monkeypatch):
        made = []
        monkeypatch.setattr(boost, "generate_projection", _recording_generate(made, delay=0.01))
        caller = threading.get_ident()
        solve = linalg.factor_solve

        def poisoned_solve(factor, rhs):
            w = solve(factor, rhs)
            if threading.get_ident() != caller:
                w[0, 0] = np.nan
            return w

        monkeypatch.setattr(linalg, "factor_solve", poisoned_solve)
        rng = np.random.default_rng(62)
        data = make_dataset(rng, 40, 8, 2)
        hyper = HyperParams(t_steps=2, levels=2, hidden=6, master_seed=2)
        before = threading.active_count()
        with pytest.raises(FloatingPointError) as raised:
            train(data, one_hot_encode(data.labels, 2), hyper)
        lv, t = min(slot for slot, ident in made if ident != caller)
        assert str(raised.value).endswith(f"level {lv}, step {t}")
        assert threading.active_count() == before

    def test_seed_groups_of_different_depths_walk_group_by_group(self):
        rng = np.random.default_rng(63)
        deep = _random_model(rng, Activation.TANH, seed=3, levels=4, t_steps=2)
        shallow = _random_model(rng, Activation.SIGN, seed=4, levels=1, t_steps=2)
        x = normalized_rows(rng, 30, 16)
        jobs = [(deep, x), (shallow, x)]
        before = threading.active_count()
        got = {}

        def walk():
            got["all"] = list(iter_level_scores(jobs))
            walk = iter_level_scores(jobs)
            got["head"] = [next(walk) for _ in range(3)]
            walk.close()

        runner = threading.Thread(target=walk)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive(), "the walk hung"
        assert threading.active_count() == before
        assert [(i, lv) for i, lv, _ in got["all"]] == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0)]
        for i, model in enumerate((deep, shallow)):
            separate = list(iter_level_scores(model, x))
            mine = [(lv, scores) for j, lv, scores in got["all"] if j == i]
            assert [lv for lv, _ in mine] == [lv for lv, _ in separate]
            for (_, a), (_, b) in zip(mine, separate):
                assert np.array_equal(_bits(a), _bits(b))
        for head, full in zip(got["head"], got["all"], strict=False):
            assert head[:2] == full[:2] and np.array_equal(_bits(head[2]), _bits(full[2]))

    @staticmethod
    def _two_seed_jobs(rng):
        first = _random_model(rng, Activation.TANH, seed=3, levels=2, t_steps=2)
        second = _random_model(rng, Activation.SIGN, seed=4, levels=3, t_steps=2)
        x = normalized_rows(rng, 30, 16)
        return [(first, x), (second, x)]

    @staticmethod
    def _taken_in_a_runner(jobs, stop_at=None):
        """Items taken from iter_level_scores(jobs) on another thread, up to (job, level) stop_at.

        Returns (taken, error); the runner must end within the timeout and
        leave no lane thread behind.
        """
        taken, errors = [], []

        def walk():
            try:
                for i, lv, scores in iter_level_scores(jobs):
                    taken.append((i, lv, scores))
                    if (i, lv) == stop_at:
                        break
            except RuntimeError as exc:
                errors.append(exc)

        runner = threading.Thread(target=walk)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive(), "the walk hung"
        assert [t for t in threading.enumerate() if t.name == "elmboost-lane"] == []
        return taken, errors

    def test_break_in_the_second_group_leaves_no_lane(self):
        jobs = self._two_seed_jobs(np.random.default_rng(64))
        taken, errors = self._taken_in_a_runner(jobs, stop_at=(1, 1))
        assert errors == []
        assert [(i, lv) for i, lv, _ in taken] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        for i, lv, scores in taken:
            want_lv, want = level_scores_reference(*jobs[i])[lv]
            assert want_lv == lv and np.array_equal(_bits(scores), _bits(want))

    def test_error_in_the_second_group_comes_after_the_first_group(self, monkeypatch):
        def generate(spec, level, step):
            if spec.master_seed == 4 and (level, step) == (0, 1):
                raise RuntimeError("second group, slot (0, 1)")
            return generate_projection(spec, level, step)

        monkeypatch.setattr(boost, "generate_projection", generate)
        jobs = self._two_seed_jobs(np.random.default_rng(65))
        taken, errors = self._taken_in_a_runner(jobs)
        assert [str(exc) for exc in errors] == ["second group, slot (0, 1)"]
        # level 0 of the second group ends at the failing slot, so only the
        # first group's levels come out, every one of them
        assert [(i, lv) for i, lv, _ in taken] == [(0, 0), (0, 1)]
        for (_, _, scores), (_, want) in zip(taken, level_scores_reference(*jobs[0])):
            assert np.array_equal(_bits(scores), _bits(want))


class TestInOrder:
    """lanes.in_order: finishes one at a time in slot order, two results alive at most."""

    def test_finishes_in_order_with_two_results_alive(self):
        # more threads than cores switching often: a finish out of turn, two
        # at once or a third live result shows in the records
        rng = np.random.default_rng(64)
        delays = rng.uniform(0.0, 0.002, 300)
        lock = threading.Lock()
        live = {"now": 0, "peak": 0}
        finishing, finished, threads = [], [], set()

        class Result:
            pass

        def released():
            with lock:
                live["now"] -= 1

        def work(slot):
            time.sleep(delays[slot])
            result = Result()
            with lock:
                live["now"] += 1
                live["peak"] = max(live["peak"], live["now"])
            weakref.finalize(result, released)
            return result

        def finish(slot, result):
            finishing.append(slot)
            assert finishing == [slot], "two finishes at once"
            threads.add(threading.get_ident())
            finished.append(slot)
            finishing.pop()
            return slot if slot % 7 == 0 else None

        got = {}

        def walk():
            got["out"] = list(lanes.in_order(range(300), work, finish))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runners = [threading.Thread(target=walk)] + [
                threading.Thread(target=sum, args=(range(2_000_000),)) for _ in range(2)
            ]
            for runner in runners:
                runner.start()
            for runner in runners:
                runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(runner.is_alive() for runner in runners)
        assert finished == list(range(300))
        assert got["out"] == list(range(0, 300, 7))
        assert len(threads) == 2
        assert live["peak"] <= 2

    @pytest.mark.parametrize(
        "bad_work, bad_finish, first",
        [({3}, set(), 3), (set(), {3}, 3), ({5}, {3}, 3), ({2}, {4}, 2), ({0}, set(), 0)],
    )
    def test_first_error_in_slot_order_is_raised_after_earlier_outputs(
        self, bad_work, bad_finish, first
    ):
        def work(slot):
            time.sleep(0.002 * (slot % 2))  # the two lanes finish their work out of order
            if slot in bad_work:
                raise KeyError(slot)
            return slot

        finished = []

        def finish(slot, result):
            if slot in bad_finish:
                raise KeyError(slot)
            finished.append(slot)
            return slot

        before = threading.active_count()
        walk = lanes.in_order(range(8), work, finish)
        out = []
        with pytest.raises(KeyError) as raised:
            for slot in walk:
                out.append(slot)
        assert raised.value.args == (first,)
        assert out == finished == list(range(first))
        assert threading.active_count() == before

    @pytest.fixture
    def numpy_on_three(self):
        saved = blas_threads()
        set_blas_threads(3)
        yield
        set_blas_threads(saved)

    @staticmethod
    def _recording(seen, bad=frozenset()):
        """(work, finish) that record (phase, thread, numpy's BLAS count) and raise on bad slots.

        The calling thread's work sleeps first, so the worker takes slots too.
        """
        caller = threading.get_ident()

        def work(slot):
            if threading.get_ident() == caller:
                time.sleep(0.005)
            seen.append(("work", threading.get_ident(), blas_threads()))
            if slot in bad:
                raise KeyError(slot)
            return slot

        def finish(slot, result):
            seen.append(("finish", threading.get_ident(), blas_threads()))
            return result

        return work, finish

    def test_both_lanes_run_blas_on_one_thread(self, numpy_on_three):
        seen = []
        assert list(lanes.in_order(range(20), *self._recording(seen))) == list(range(20))
        assert blas_threads() == 3
        assert {count for _, _, count in seen} == {1}
        for phase in ("work", "finish"):
            assert len({thread for done, thread, _ in seen if done == phase}) == 2

    def test_caller_count_comes_back_after_a_raise(self, numpy_on_three):
        seen = []
        with pytest.raises(KeyError):
            list(lanes.in_order(range(20), *self._recording(seen, bad={9})))
        assert blas_threads() == 3
        assert {count for _, _, count in seen} == {1}

    def test_caller_count_comes_back_after_close(self, numpy_on_three):
        seen = []
        walk = lanes.in_order(range(20), *self._recording(seen))
        assert next(walk) == 0
        assert blas_threads() == 1  # held while the walk is open
        walk.close()
        assert blas_threads() == 3
        assert {count for _, _, count in seen} == {1}

    def test_lazy_slots_are_drawn_as_taken(self):
        drawn = []

        def slots():
            for slot in range(10_000):
                drawn.append(slot)
                yield slot

        walk = lanes.in_order(slots(), lambda slot: slot, lambda slot, result: result)
        try:
            assert [next(walk) for _ in range(5)] == list(range(5))
            time.sleep(0.1)  # the worker walks on while the consumer pauses, but not far
        finally:
            walk.close()
        # five handed out, at most two more handed to the generator with them,
        # at most two waiting or in flight
        assert len(drawn) <= 5 + 2 + 2


class TestClassify:
    def test_simple_argmax(self):
        assert classify(np.array([[0.1, 0.9, 0.2]])).tolist() == [1]

    def test_tie_goes_to_lowest_index(self):
        assert classify(np.array([[0.5, 0.5]])).tolist() == [0]

    def test_one_hot_identity(self):
        rng = np.random.default_rng(11)
        labels = rng.integers(0, 6, 200)
        assert np.array_equal(classify(one_hot_encode(labels, 6)), labels)

    def test_row_affine_invariance(self):
        rng = np.random.default_rng(12)
        scores = rng.standard_normal((50, 4))
        shift = rng.standard_normal((50, 1))
        scale = rng.uniform(0.1, 5.0, (50, 1))
        assert np.array_equal(classify(scores), classify(scores * scale + shift))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            classify(np.zeros((0, 3)))

    def test_nested_lists(self):
        assert classify([[0.1, 0.9, 0.2], [0.7, 0.1, 0.2]]).tolist() == [1, 0]


class TestAccuracy:
    def test_identical(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_disjoint(self):
        assert accuracy([0, 0], [1, 1]) == 0.0

    def test_nine_of_ten(self):
        truth = list(range(10))
        predicted = list(range(10))
        predicted[0] = 9
        assert accuracy(predicted, truth) == 0.9

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([1, 2], [1, 2, 3])

    def test_one_label_is_not_broadcast(self):
        # numpy would compare the one truth against all three predictions
        with pytest.raises(ValueError, match="length mismatch"):
            accuracy(np.array([1, 1, 1]), np.array([1]))

    @pytest.mark.parametrize("predicted, truth", [([], []), (np.array([]), np.array([]))])
    def test_empty_rejected(self, predicted, truth):
        with pytest.raises(ValueError, match="empty"):
            accuracy(predicted, truth)

    def test_lists_and_arrays_mix(self):
        assert accuracy(np.array([1, 2, 3, 4]), [1, 2, 0, 4]) == 0.75
        assert accuracy([1, 2, 3, 4], np.array([1, 2, 0, 4])) == 0.75


def test_desk_scale_digits_accuracy():
    """Boosting should learn real image data and improve across levels."""
    sklearn_datasets = pytest.importorskip("sklearn.datasets")
    digits = sklearn_datasets.load_digits()
    images = digits.data.astype(np.uint8)
    labels = digits.target
    tr = normalize(RawDataset(images=images[:1200], labels=labels[:1200], num_classes=10))
    te = normalize(RawDataset(images=images[1200:], labels=labels[1200:], num_classes=10))
    hyper = HyperParams(lam=1.0, alpha=0.5, t_steps=10, levels=4, hidden=64, master_seed=0)
    model, _ = train(tr, one_hot_encode(tr.labels, 10), hyper)
    eta = [accuracy(classify(scores), te.labels) for _, scores in iter_level_scores(model, te.x)]
    assert eta[-1] >= 0.9
    assert eta[-1] > eta[0] - 0.01
