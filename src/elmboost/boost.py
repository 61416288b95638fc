"""Multi-level, multi-step ridge boosting on random-projection encodings.

Training runs a single logical sequence over (level, step) pairs.  Each step
fits one closed-form ridge regression of the hidden encoding against the
current residual, then discounts the residual by alpha times the step's
fit.  Levels matter in two ways only: each (level, step) pair seeds its own
projection matrix, and held-out accuracy is reported once per level.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import linalg
from .dataset import Dataset
from .projection import Activation, ProjectionSpec, encode, generate_projection

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class HyperParams:
    """Training configuration; with the master seed it fully determines a model.

    alpha is the discount applied to every fitted term; 1.0 is admitted so
    a (levels=1, t_steps=1, alpha=1) model reduces to a plain single-solve
    ELM.  hidden is the width J of every random encoding.
    """

    lam: float = 1.0
    alpha: float = 0.5
    t_steps: int = 50
    levels: int = 8
    hidden: int = 784
    activation: Activation = Activation.TANH
    master_seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.t_steps < 1:
            raise ValueError(f"t_steps must be >= 1, got {self.t_steps}")
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")
        if self.hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {self.hidden}")
        if not isinstance(self.activation, Activation):
            raise ValueError(f"activation must be an Activation, got {self.activation!r}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must fit in an unsigned 64-bit integer")


@dataclass
class BoostedModel:
    """Trained ensemble: hyperparameters plus the level × step grid of weights.

    Projection matrices are regenerated from the stored seed, never kept,
    so the model alone suffices for prediction.
    """

    hyper: HyperParams
    weights: list[list[np.ndarray]]  # levels x t_steps, each hidden x num_classes
    num_classes: int
    input_width: int

    def __post_init__(self):
        if self.num_classes < 1 or self.input_width < 1:
            raise ValueError("num_classes and input_width must be >= 1")
        if len(self.weights) != self.hyper.levels:
            raise ValueError(
                f"weight grid has {len(self.weights)} levels, expected {self.hyper.levels}"
            )
        shape = (self.hyper.hidden, self.num_classes)
        for level_weights in self.weights:
            if len(level_weights) != self.hyper.t_steps:
                raise ValueError(
                    f"weight grid row has {len(level_weights)} steps, "
                    f"expected {self.hyper.t_steps}"
                )
            for w in level_weights:
                if w.shape != shape:
                    raise ValueError(f"weight matrix has shape {w.shape}, expected {shape}")

    def projection_spec(self) -> ProjectionSpec:
        return ProjectionSpec(
            master_seed=self.hyper.master_seed, j=self.hyper.hidden, m=self.input_width
        )


@dataclass
class TrainReport:
    """Training residual norm after every (level, step), plus optional held-out accuracy.

    The flattened residual_norms sequence is non-increasing (up to rounding):
    each ridge step can only shrink the training residual.
    """

    residual_norms: np.ndarray  # levels x t_steps
    level_accuracy: list[float] | None = None


def train(
    data: Dataset,
    targets: np.ndarray,
    hyper: HyperParams,
    eval_set: Dataset | None = None,
) -> tuple[BoostedModel, TrainReport]:
    """Fit the boosted ridge ensemble.

    Maintains a running residual initialized to the targets.  For every
    (level, step) in order: generate that slot's projection, encode the
    samples, ridge-solve against the residual, and subtract alpha times the
    fitted scores from the residual.  This is identical to fitting each step
    against the level residual minus alpha times the level's accumulated
    prediction, with the residual rolled forward at level boundaries.

    Parameters
    ----------
    data : Dataset
        Normalized training samples.
    targets : ndarray
        N x K one-hot target matrix.
    hyper : HyperParams
        Training configuration.
    eval_set : Dataset, optional
        Held-out samples and labels; when given, the report records the
        partial-prediction accuracy after each level.

    Returns
    -------
    (BoostedModel, TrainReport)
    """
    x = data.x
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim != 2 or targets.shape[0] != x.shape[0]:
        raise ValueError(
            f"targets must be 2-D with one row per sample: samples {x.shape}, "
            f"targets {targets.shape}"
        )
    if eval_set is not None and eval_set.x.shape[1] != x.shape[1]:
        raise ValueError(
            f"eval set width {eval_set.x.shape[1]} differs from training width {x.shape[1]}"
        )
    k = targets.shape[1]
    spec = ProjectionSpec(master_seed=hyper.master_seed, j=hyper.hidden, m=x.shape[1])

    residual = targets.copy()
    residual_norms = np.zeros((hyper.levels, hyper.t_steps))
    weights: list[list[np.ndarray]] = []
    eval_scores: np.ndarray | None = None
    level_accuracy: list[float] | None = [] if eval_set is not None else None

    for lv in range(hyper.levels):
        level_weights: list[np.ndarray] = []
        for t in range(hyper.t_steps):
            r = generate_projection(spec, lv, t)
            h = encode(x, r, hyper.activation)
            try:
                w = linalg.ridge_solve(h, residual, hyper.lam)
            except linalg.NotPositiveDefiniteError as exc:
                raise linalg.NotPositiveDefiniteError(
                    exc.pivot_index, context=f"at boosting level {lv}, step {t}"
                ) from exc
            if not np.isfinite(w).all():
                raise FloatingPointError(
                    f"ridge solve gave non-finite weights at boosting level {lv}, step {t}"
                )
            residual = linalg.add_scaled(residual, linalg.matmul(h, w), -hyper.alpha)
            del h
            if eval_set is not None:
                term = linalg.matmul(encode(eval_set.x, r, hyper.activation), w)
                eval_scores = term if eval_scores is None else eval_scores + term
            level_weights.append(w)
            residual_norms[lv, t] = linalg.frobenius_norm(residual)
        weights.append(level_weights)
        if level_accuracy is not None:
            assert eval_set is not None and eval_scores is not None
            predicted = classify(hyper.alpha * eval_scores)
            level_accuracy.append(accuracy(predicted, eval_set.labels))
            log.info(
                "level %d/%d: train residual %.6g, eval accuracy %.4f",
                lv, hyper.levels, residual_norms[lv, -1], level_accuracy[-1],
            )
        else:
            log.info("level %d/%d: train residual %.6g", lv, hyper.levels, residual_norms[lv, -1])

    model = BoostedModel(
        hyper=hyper, weights=weights, num_classes=k, input_width=x.shape[1]
    )
    return model, TrainReport(residual_norms=residual_norms, level_accuracy=level_accuracy)


def iter_level_scores(model: BoostedModel, x_new: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (level, cumulative scores through that level) for each level.

    Scores accumulate in (level, step) order with the projections regenerated
    from the stored seed, so consuming the final item is exactly
    predict_scores; intermediate items feed accuracy-versus-level curves.
    """
    x_new = np.ascontiguousarray(x_new, dtype=np.float64)
    if x_new.ndim != 2 or x_new.shape[1] != model.input_width:
        raise ValueError(
            f"input width mismatch: samples are {x_new.shape}, "
            f"model expects {model.input_width} columns"
        )
    spec = model.projection_spec()
    act = model.hyper.activation
    scores: np.ndarray | None = None
    for lv in range(model.hyper.levels):
        for t in range(model.hyper.t_steps):
            r = generate_projection(spec, lv, t)
            term = linalg.matmul(encode(x_new, r, act), model.weights[lv][t])
            scores = term if scores is None else scores + term
        yield lv, model.hyper.alpha * scores


def predict_scores(
    model: BoostedModel, x_new: np.ndarray, up_to_level: int | None = None
) -> np.ndarray:
    """N' x K score matrix for new samples, already normalized like the training data.

    Sums alpha-discounted encoding-times-weights terms over all steps of
    levels 0..up_to_level (default: every level).
    """
    last = model.hyper.levels - 1 if up_to_level is None else up_to_level
    if not 0 <= last < model.hyper.levels:
        raise ValueError(
            f"up_to_level {up_to_level} out of range for {model.hyper.levels} levels"
        )
    for lv, scores in iter_level_scores(model, x_new):
        if lv == last:
            return scores
    raise AssertionError("unreachable: level iterator ended early")


def classify(scores: np.ndarray) -> np.ndarray:
    """Per-row argmax of the score matrix; ties go to the lowest class index."""
    scores = np.asarray(scores)
    if scores.ndim != 2 or scores.size == 0:
        raise ValueError(f"scores must be a nonempty 2-D matrix, got shape {scores.shape}")
    return np.argmax(scores, axis=1).astype(np.int64)


def accuracy(predicted, truth) -> float:
    """Fraction of exactly matching labels."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape:
        raise ValueError(f"length mismatch: {predicted.shape} vs {truth.shape}")
    if predicted.size == 0:
        raise ValueError("cannot score an empty prediction vector")
    return float(np.mean(predicted == truth))
