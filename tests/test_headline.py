"""The paper's headline claim on synthetic data: boosting beats a plain and a wide ELM.

The images come from helpers.gaussian_blob_splits.  Three models share
lambda = 1 and take the data seed as master seed:

- plain ELM: J = 196, one level of one step, alpha = 1;
- wide ELM: J = 1 568 (8 × 196), one level of one step, alpha = 1.  It is the
  control: does the gain come from boosting or only from more hidden units
  in one solve?
- boosted: J = 196, L = 8, T = 5, alpha = 0.5.

Each is scored on the clean test split and on a copy with 10 % of the
pixels zeroed (noise seed = data seed + 100), in one pass.  The boosted
model keeps the highest accuracy under noise but also loses the most, so
both are reported (run with -s) and no relative robustness is asserted.
"""

import pytest

from elmboost.boost import HyperParams, accuracy, classify, iter_level_scores, train
from elmboost.dataset import normalize, zero_pixel_noise

from helpers import gaussian_blob_splits


def _configs(seed):
    return {
        "plain": HyperParams(lam=1.0, alpha=1.0, t_steps=1, levels=1, hidden=196, master_seed=seed),
        "wide": HyperParams(lam=1.0, alpha=1.0, t_steps=1, levels=1, hidden=1568, master_seed=seed),
        "boosted": HyperParams(lam=1.0, alpha=0.5, t_steps=5, levels=8, hidden=196, master_seed=seed),
    }


def _level_accuracies(seed):
    """{model name: (clean accuracy per level, 10 %-noise accuracy per level)}."""
    raw_train, raw_test = gaussian_blob_splits(seed)
    data = normalize(raw_train)
    models = {name: train(data, hyper)[0] for name, hyper in _configs(seed).items()}
    inputs = (normalize(raw_test), normalize(zero_pixel_noise(raw_test, 0.1, seed + 100)))
    jobs = [(model, test.x) for model in models.values() for test in inputs]
    curves = [[] for _ in jobs]
    for i, _, scores in iter_level_scores(jobs):
        curves[i].append(accuracy(classify(scores), raw_test.labels))
    return {name: (curves[2 * j], curves[2 * j + 1]) for j, name in enumerate(models)}


@pytest.mark.parametrize(
    "seed", [100, 101, 102, *(pytest.param(s, marks=pytest.mark.slow) for s in (103, 104))]
)
def test_boosting_beats_plain_and_wide_elm(seed):
    curves = _level_accuracies(seed)
    clean = {name: levels[-1] for name, (levels, _) in curves.items()}
    noisy = {name: levels[-1] for name, (_, levels) in curves.items()}
    boosted_levels = curves["boosted"][0]
    summary = ", ".join(
        f"{name} {clean[name]:.3f} clean, {noisy[name]:.3f} at 10 % "
        f"(loss {clean[name] - noisy[name]:.3f})"
        for name in curves
    )
    print(f"[headline] seed {seed}: {summary}; boosted per level "
          + " ".join(f"{eta:.3f}" for eta in boosted_levels))
    assert clean["boosted"] - clean["plain"] >= 0.25, summary
    assert clean["boosted"] - clean["wide"] >= 0.10, summary
    assert noisy["boosted"] - noisy["plain"] >= 0.15, summary
    assert noisy["boosted"] - noisy["wide"] >= 0.10, summary
    assert boosted_levels[7] > boosted_levels[0], boosted_levels
