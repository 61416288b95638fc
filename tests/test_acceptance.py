"""Acceptance suite: one test per numbered release criterion.

Each test prints a single PASS line when its criterion holds (run with -s to
see them).  Criteria 6 and 7 need the real MNIST/fashion-MNIST IDX files
under $ELMBOOST_DATA_DIR (default <repo>/data) and skip when absent;
criterion 7 is additionally marked slow and deselected by default.
"""

import time

import numpy as np
import pytest

from elmboost.boost import (
    HyperParams,
    accuracy,
    classify,
    iter_level_scores,
    predict_scores,
    train,
)
from elmboost.cli import find_idx_file
from elmboost.dataset import (
    RawDataset,
    load_idx_images,
    load_idx_labels,
    normalize,
    one_hot_encode,
    zero_pixel_noise,
)
from elmboost.linalg import ridge_solve
from elmboost.model_store import load, save
from elmboost.projection import (
    Activation,
    ProjectionSpec,
    collision_probability,
    encode,
    estimate_collision_rate,
    generate_projection,
)

from helpers import gauss_jordan_solve, make_dataset, mnist_dir, naive_matmul


def _pass(number: int, detail: str) -> None:
    print(f"[acceptance] criterion {number}: PASS ({detail})")


def _load_split(root, dataset, split):
    images = load_idx_images(find_idx_file(root, dataset, f"{split}_images"))
    labels = load_idx_labels(find_idx_file(root, dataset, f"{split}_labels"))
    return RawDataset(images=images, labels=labels, num_classes=10)


def test_criterion_1_ridge_oracle_equivalence():
    """ridge_solve matches an explicit normal-equations elimination oracle."""
    rng = np.random.default_rng(101)
    lambdas = [0.0, 0.1, 1.0]
    started = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        cols = int(rng.integers(2, 9))
        rows = int(rng.integers(cols + 2, 21))  # overdetermined so lambda=0 is solvable
        k = int(rng.integers(1, 4))
        h = rng.standard_normal((rows, cols))
        y = rng.standard_normal((rows, k))
        lam = lambdas[trial % 3]
        got = ridge_solve(h, y, lam)
        system = naive_matmul(h.T.copy(), h) + lam * np.eye(cols)
        want = gauss_jordan_solve(system, naive_matmul(h.T.copy(), y))
        rel = np.abs(got - want).max() / max(np.abs(want).max(), 1e-30)
        worst = max(worst, rel)
        assert rel < 1e-8, f"trial {trial}: relative error {rel}"
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _pass(1, f"100 instances, worst relative error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_residual_monotonicity():
    """Training residual norms never increase along the (level, step) order."""
    rng = np.random.default_rng(202)
    alphas = [0.25, 0.5, 1.0]
    started = time.perf_counter()
    for trial in range(20):
        data = make_dataset(rng, 200, 16, 3)
        y = one_hot_encode(data.labels, 3)
        hyper = HyperParams(
            lam=1.0, alpha=alphas[trial % 3], t_steps=5, levels=3, hidden=16,
            master_seed=trial,
        )
        _, norms = train(data, y, hyper)
        norms = norms.ravel()
        slack = 1e-9 * np.linalg.norm(y)
        assert np.all(norms[1:] <= norms[:-1] + slack), f"trial {trial}"
        assert norms[0] <= np.linalg.norm(y) + slack
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _pass(2, f"20 trainings, 15 steps each, all non-increasing, {elapsed:.2f}s")


def test_criterion_3_plain_elm_reduction():
    """A levels=1, t_steps=1, alpha=1 model is bitwise the one-solve pipeline."""
    rng = np.random.default_rng(303)
    started = time.perf_counter()
    data = make_dataset(rng, 500, 32, 4)
    y = one_hot_encode(data.labels, 4)
    hyper = HyperParams(lam=1.0, alpha=1.0, t_steps=1, levels=1, hidden=24, master_seed=17)
    model, _ = train(data, y, hyper)

    r = generate_projection(ProjectionSpec(master_seed=17, j=24, m=32), 0, 0)
    h = encode(data.x, r, Activation.TANH)
    w = ridge_solve(h, y, 1.0)
    assert np.array_equal(model.weights[0, 0], w)

    # The product takes the stored grid slice, not the solver's F-ordered w:
    # BLAS may round the same product differently for another operand layout.
    x_new = make_dataset(rng, 500, 32, 4).x
    direct = encode(x_new, r, Activation.TANH) @ model.weights[0, 0]
    assert np.array_equal(predict_scores(model, x_new), direct)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _pass(3, f"weights and 500-sample predictions bitwise equal, {elapsed:.2f}s")


def test_criterion_4_determinism_and_persistence(tmp_path):
    """Same seed gives byte-identical files; reloads predict bitwise identically."""
    rng = np.random.default_rng(404)
    started = time.perf_counter()
    data = make_dataset(rng, 150, 12, 3)
    y = one_hot_encode(data.labels, 3)
    hyper = HyperParams(lam=1.0, alpha=0.5, t_steps=3, levels=2, hidden=10, master_seed=31)

    model_a, _ = train(data, y, hyper)
    model_b, _ = train(data, y, hyper)
    path_a, path_b = tmp_path / "a.elmb", tmp_path / "b.elmb"
    save(model_a, path_a)
    save(model_b, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()

    reloaded = load(path_a)
    x_new = make_dataset(rng, 60, 12, 3).x
    assert np.array_equal(predict_scores(model_a, x_new), predict_scores(reloaded, x_new))
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _pass(4, f"files byte-identical, reload predicts bitwise, {elapsed:.2f}s")


def test_criterion_5_collision_identity():
    """Empirical sign-hash collisions track 1 - theta/pi at the binomial rate."""
    started = time.perf_counter()
    j = 10000
    dim = 50
    thetas = [0.0, np.pi / 6, np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi]
    u = np.zeros(dim)
    v = np.zeros(dim)
    u[0] = 1.0
    v[1] = 1.0
    worst = 0.0
    for i, theta in enumerate(thetas):
        if theta == 0.0:
            other = u.copy()
        elif theta == np.pi:
            other = -u
        else:
            other = np.cos(theta) * u + np.sin(theta) * v
        analytic = collision_probability(u, other)
        empirical = estimate_collision_rate(u, other, j, seed=500 + i)
        if theta in (0.0, np.pi):
            assert analytic == (1.0 if theta == 0.0 else 0.0)
            assert empirical == analytic
        else:
            bound = 3 * np.sqrt(analytic * (1 - analytic) / j)
            assert abs(empirical - analytic) <= bound, f"theta={theta}"
            worst = max(worst, abs(empirical - analytic) / bound)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _pass(5, f"endpoints exact, interior within 3 sigma (worst {worst:.2f}), {elapsed:.2f}s")


def _level_accuracy(model, test):
    """Held-out accuracy after each level, from one scoring pass."""
    return [
        accuracy(classify(scores), test.labels)
        for _, scores in iter_level_scores(model, test.x)
    ]


def test_criterion_6_desk_scale_mnist_accuracy():
    """10k-sample MNIST training reaches 96% and improves across levels."""
    root = mnist_dir("mnist")
    if root is None:
        pytest.skip(
            "MNIST IDX files not found under $ELMBOOST_DATA_DIR (default ./data); "
            "see README for the expected layout"
        )
    raw_train = _load_split(root, "mnist", "train")
    raw_test = _load_split(root, "mnist", "test")
    assert raw_train.images.shape == (60000, 784)
    assert raw_test.images.shape == (10000, 784)
    raw_train = RawDataset(
        images=raw_train.images[:10000], labels=raw_train.labels[:10000], num_classes=10
    )
    tr = normalize(raw_train)
    te = normalize(raw_test)
    hyper = HyperParams(
        lam=1.0, alpha=0.5, t_steps=20, levels=5, hidden=784,
        activation=Activation.TANH, master_seed=0,
    )
    started = time.perf_counter()
    model, _ = train(tr, one_hot_encode(tr.labels, 10), hyper)
    elapsed = time.perf_counter() - started
    eta = _level_accuracy(model, te)
    assert eta[-1] >= 0.96, f"final accuracy {eta[-1]:.4f}"
    assert eta[4] > eta[0], f"no improvement: {eta}"
    _pass(6, f"test accuracy {eta[-1]:.4f} (level 0: {eta[0]:.4f}), {elapsed:.0f}s")


def _reference_config(activation, seed=0):
    return HyperParams(
        lam=1.0, alpha=0.5, t_steps=50, levels=8, hidden=784,
        activation=activation, master_seed=seed,
    )


@pytest.fixture(scope="module")
def full_run_cache():
    return {}


def _full_run(cache, dataset, activation):
    key = (dataset, activation)
    if key not in cache:
        root = mnist_dir(dataset)
        if root is None:
            pytest.skip(f"{dataset} IDX files not found; see README for the expected layout")
        tr = normalize(_load_split(root, dataset, "train"))
        te = normalize(_load_split(root, dataset, "test"))
        model, _ = train(tr, one_hot_encode(tr.labels, 10), _reference_config(activation))
        cache[key] = (model, _level_accuracy(model, te))
    return cache[key]


@pytest.mark.slow
def test_criterion_7_full_mnist_tanh(full_run_cache):
    _, eta = _full_run(full_run_cache, "mnist", Activation.TANH)
    assert all(e >= 0.985 for e in eta[7:]), f"levels 7+: {eta[7:]}"
    _pass(7, f"full MNIST tanh accuracy {eta[-1]:.4f} at level 7+")


@pytest.mark.slow
def test_criterion_7_full_fmnist_tanh(full_run_cache):
    _, eta = _full_run(full_run_cache, "fmnist", Activation.TANH)
    assert all(e >= 0.91 for e in eta[7:]), f"levels 7+: {eta[7:]}"
    _pass(7, f"full fMNIST tanh accuracy {eta[-1]:.4f} at level 7+")


@pytest.mark.slow
def test_criterion_7_sign_within_half_point_of_tanh(full_run_cache):
    _, eta_tanh = _full_run(full_run_cache, "mnist", Activation.TANH)
    _, eta_sign = _full_run(full_run_cache, "mnist", Activation.SIGN)
    gap = eta_tanh[-1] - eta_sign[-1]
    assert gap <= 0.01, f"sign activation trails tanh by {gap:.4f}"
    _pass(7, f"sign saturation within {gap:.4f} of tanh")


@pytest.mark.slow
def test_criterion_7_noise_robustness(full_run_cache):
    for dataset, floor in (("mnist", 0.975), ("fmnist", 0.895)):
        model, _ = _full_run(full_run_cache, dataset, Activation.TANH)
        root = mnist_dir(dataset)
        assert root is not None
        noisy = normalize(zero_pixel_noise(_load_split(root, dataset, "test"), 0.1, seed=0))
        eta = accuracy(classify(predict_scores(model, noisy.x)), noisy.labels)
        assert eta >= floor, f"{dataset} with 10% dropout: {eta:.4f}"
        _pass(7, f"{dataset} 10% pixel dropout accuracy {eta:.4f}")


def test_criterion_8_argmax_one_hot_properties():
    """classify inverts one-hot and ignores per-row positive affine transforms."""
    rng = np.random.default_rng(808)
    started = time.perf_counter()
    labels = rng.integers(0, 10, 1000)
    assert np.array_equal(classify(one_hot_encode(labels, 10)), labels)

    scores = rng.standard_normal((1000, 10))
    base = classify(scores)
    scale = rng.uniform(0.05, 20.0, (1000, 1))
    shift = rng.standard_normal((1000, 1)) * 5.0
    assert np.array_equal(base, classify(scores * scale + shift))
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _pass(8, f"1000-row one-hot inversion and affine invariance, {elapsed:.2f}s")
