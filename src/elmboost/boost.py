"""Multi-level, multi-step ridge boosting on random-projection encodings.

Training runs a single logical sequence over (level, step) slots.  Each step
fits one closed-form ridge regression of the hidden encoding against the
current residual, then discounts the residual by alpha times the step's
fit.  Levels matter in two ways only: each (level, step) slot seeds its own
projection matrix, and held-out accuracy is reported once per level.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import operator
from contextlib import closing
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import lanes, linalg
from .dataset import Dataset
from .projection import Activation, ProjectionSpec, activate, encode, generate_projection

log = logging.getLogger(__name__)


def _check_header_ints(owner, fields) -> None:
    """Raise ValueError unless each (name, low, bits) field of owner lies in [low, 2**bits)."""
    for name, low, bits in fields:
        value = getattr(owner, name)
        try:
            operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if not low <= value < 2**bits:
            raise ValueError(f"{name} must be >= {low} and < 2**{bits}, got {value}")


@dataclass(frozen=True)
class HyperParams:
    """Training configuration; with the master seed it fully determines a model.

    alpha is the discount applied to every fitted term; 1.0 is admitted so
    a (levels=1, t_steps=1, alpha=1) model reduces to a plain single-solve
    ELM.  hidden is the width J of every random encoding.  levels, t_steps
    and hidden must be integers in [1, 2**32) and master_seed an integer in
    [0, 2**64): the model file stores them as u32 and u64 fields.
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
        _check_header_ints(
            self, (("t_steps", 1, 32), ("levels", 1, 32), ("hidden", 1, 32), ("master_seed", 0, 64))
        )
        if not isinstance(self.activation, Activation):
            raise ValueError(f"activation must be an Activation, got {self.activation!r}")


@dataclass
class BoostedModel:
    """Trained ensemble: hyperparameters plus the level × step grid of weights.

    weights is one C-contiguous float64 array of shape
    (levels, t_steps, hidden, num_classes); weights[lv, t] is the J×K output
    matrix of step t in level lv.  Projection matrices are regenerated from
    the stored seed, never kept, so the model alone suffices for prediction.
    num_classes and input_width must be integers in [1, 2**32): the model
    file stores them as u32 fields.
    """

    hyper: HyperParams
    weights: np.ndarray  # levels x t_steps x hidden x num_classes
    num_classes: int
    input_width: int

    def __post_init__(self):
        _check_header_ints(self, (("num_classes", 1, 32), ("input_width", 1, 32)))
        self.weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        hyper = self.hyper
        shape = (hyper.levels, hyper.t_steps, hyper.hidden, self.num_classes)
        if self.weights.shape != shape:
            raise ValueError(f"weight grid has shape {self.weights.shape}, expected {shape}")


def _slots(levels: int, t_steps: int) -> Iterator[tuple[int, int]]:
    """(level, step) of every step of the flat sequence, in order."""
    return itertools.product(range(levels), range(t_steps))


def _slot_factor(x: np.ndarray, spec: ProjectionSpec, hyper: HyperParams, slot: tuple[int, int]):
    """(H, Cholesky factor of HᵀH + λI) of one slot: the half of its fit that ignores the residual."""
    lv, t = slot
    h = encode(x, generate_projection(spec, lv, t), hyper.activation)
    try:
        return h, linalg.ridge_factor(h, hyper.lam)
    except linalg.NotPositiveDefiniteError as exc:
        raise linalg.NotPositiveDefiniteError(
            exc.pivot_index, context=f"at boosting level {lv}, step {t}"
        ) from exc


def train(
    data: Dataset,
    targets: np.ndarray,
    hyper: HyperParams,
) -> tuple[BoostedModel, np.ndarray]:
    """Fit the boosted ridge ensemble.

    Maintains a running residual initialized to the targets.  For every
    (level, step) in order: generate that slot's projection, encode the
    samples, ridge-solve against the residual, and subtract alpha times the
    fitted scores from the residual.  This is identical to fitting each step
    against the level residual minus alpha times the level's accumulated
    prediction, with the residual rolled forward at level boundaries.

    Only HᵀY, the triangular solves and H·W read the residual.  The rest of
    a slot (projection, encoding, Gram + λ and its Cholesky factor) is a
    pure function of the slot, so the slots are walked on two lanes
    (lanes.in_order): the calling thread and one worker thread each take
    the lowest slot nobody has taken, factor it, wait until the slot before
    is solved, then solve theirs against the residual and update it (HᵀY,
    the triangular solves, H·W, the weight store and the norm) on their own
    thread.  The solves run in slot order, so every bit is that of the
    serial walk.  Two N×J encodings are alive at once.  numpy's BLAS runs
    on one thread for the whole walk (lanes.in_order pins it) and LAPACK's
    on one thread in each call (linalg pins it), so no bit depends on the
    caller's thread counts.  An error names the first failing slot in
    order, and the worker is joined before train returns or raises.

    Parameters
    ----------
    data : Dataset
        Normalized training samples.
    targets : ndarray
        N x K one-hot target matrix.
    hyper : HyperParams
        Training configuration.

    Returns
    -------
    (BoostedModel, residual_norms)
        residual_norms is the levels x t_steps array of the training
        residual's norm after each (level, step).  Flattened, it is
        non-increasing (up to rounding): each ridge step can only shrink
        the training residual.
    """
    x = data.x
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim != 2 or targets.shape[0] != x.shape[0]:
        raise ValueError(
            f"targets must be 2-D with one row per sample: samples {x.shape}, "
            f"targets {targets.shape}"
        )
    k = targets.shape[1]
    spec = ProjectionSpec(master_seed=hyper.master_seed, j=hyper.hidden, m=x.shape[1])

    residual = targets.copy()
    residual_norms = np.zeros((hyper.levels, hyper.t_steps))
    weights = np.empty((hyper.levels, hyper.t_steps, hyper.hidden, k))

    def solve(slot: tuple[int, int], factored) -> None:
        nonlocal residual  # updated in place
        lv, t = slot
        h, factor = factored
        w = linalg.factor_solve(factor, h.T @ residual)
        if not np.isfinite(w).all():
            raise FloatingPointError(
                f"ridge solve gave non-finite weights at boosting level {lv}, step {t}"
            )
        # The update multiplies by the solver's own w, not its stored copy:
        # BLAS may round a product differently for another operand layout.
        residual -= hyper.alpha * (h @ w)
        weights[lv, t] = w
        residual_norms[lv, t] = np.linalg.norm(residual)
        if t == hyper.t_steps - 1:
            log.info("level %d/%d: train residual %.6g", lv, hyper.levels, residual_norms[lv, t])

    work = functools.partial(_slot_factor, x, spec, hyper)
    for _ in lanes.in_order(_slots(hyper.levels, hyper.t_steps), work, solve):
        pass  # solve returns nothing; the walk runs to its end

    model = BoostedModel(hyper=hyper, weights=weights, num_classes=k, input_width=x.shape[1])
    return model, residual_norms


def _encodings(
    x: np.ndarray, r: np.ndarray, activations: set[Activation]
) -> dict[Activation, np.ndarray]:
    """Hidden encoding of x under each activation, all from one X·Rᵀ."""
    if Activation.TANH not in activations:
        return {Activation.SIGN: encode(x, r, Activation.SIGN)}
    hidden = {Activation.TANH: encode(x, r, Activation.TANH)}
    if Activation.SIGN in activations:
        # tanh keeps the sign of every z, -0.0 and subnormals included, so
        # sign(tanh(z)) == sign(z) bitwise.
        hidden[Activation.SIGN] = activate(hidden[Activation.TANH], Activation.SIGN)
    return hidden


def _slot_terms(spec: ProjectionSpec, by_input, slot: tuple[int, int]):
    """[(job, model, hidden·W)] of one seed group's (level, step) slot, in job order.

    Generates the slot's projection once and encodes each distinct input
    once; jobs scoring the same input share its encoding.
    """
    lv, t = slot
    r = generate_projection(spec, lv, t)
    terms = []
    for x, sharing in by_input:
        hidden = _encodings(x, r, {model.hyper.activation for _, model in sharing})
        for i, model in sharing:
            terms.append((i, model, hidden[model.hyper.activation] @ model.weights[lv, t]))
        del hidden  # one input's encodings alive at a time
    return sorted(terms, key=operator.itemgetter(0))


def _add_terms(scores: dict, t_steps: int, slot: tuple[int, int], terms):
    """Add a slot's terms to its group's running scores; at a level's last step, its scores.

    The level's scores are [(job, level, alpha * scores)] in job order.
    """
    lv, t = slot
    for i, _, term in terms:
        scores[i] = term if i not in scores else scores[i] + term
    if t == t_steps - 1:
        return [(i, lv, model.hyper.alpha * scores[i]) for i, model, _ in terms]
    return None


def _plan(model, x_new):
    """(single, groups): every decision of one scoring call, made once.

    single is the call shape: one model and its samples, or one list of
    (model, samples) jobs with no separate samples (TypeError otherwise).
    Each distinct input is converted once to a C-contiguous float64 matrix
    and checked once: every job's width first, then every input's
    finiteness (ValueError).  groups holds one (spec, levels, t_steps,
    by_input) per (seed, hidden width, input width, levels, steps), in
    order of first appearance: its models share every projection.
    by_input pairs each distinct input of the group, in order of first
    appearance, with the [(job index, model)] list that passes that input
    object and so shares its X·Rᵀ.
    """
    single = isinstance(model, BoostedModel)
    if single:
        jobs = [(model, x_new)]
    elif x_new is not None:
        raise TypeError("pass a model and its samples, or one list of (model, samples) jobs")
    else:
        jobs = list(model)
    # the job list keeps every input alive, so distinct inputs have distinct ids
    inputs = {id(x): np.ascontiguousarray(x, dtype=np.float64) for _, x in jobs}
    by_key: dict[tuple, dict[int, list]] = {}
    for i, (job_model, given) in enumerate(jobs):
        x = inputs[id(given)]
        if x.ndim != 2 or x.shape[1] != job_model.input_width:
            raise ValueError(
                f"input width mismatch: samples are {x.shape}, "
                f"model expects {job_model.input_width} columns"
            )
        hyper = job_model.hyper
        key = (hyper.master_seed, hyper.hidden, job_model.input_width, hyper.levels, hyper.t_steps)
        by_key.setdefault(key, {}).setdefault(id(given), []).append((i, job_model))
    for x in inputs.values():
        finite = np.isfinite(x).all(axis=1)
        if not finite.all():
            raise ValueError(
                f"samples contain non-finite values (first at row {np.argmin(finite)})"
            )
    groups = [
        (
            ProjectionSpec(master_seed=seed, j=j, m=m), levels, t_steps,
            [(inputs[x_id], sharing) for x_id, sharing in by_input.items()],
        )
        for (seed, j, m, levels, t_steps), by_input in by_key.items()
    ]
    return single, groups


def iter_level_scores(model, x_new=None) -> Iterator[tuple]:
    """Yield (level, cumulative scores through that level) for each level.

    Scores accumulate in (level, step) order with the projections regenerated
    from the stored seed, so consuming the final item is exactly
    predict_scores; intermediate items feed accuracy-versus-level curves.
    Samples must be finite: a NaN or infinite entry raises ValueError.

    Given one explicit job list [(model, x), ...] instead, each item is
    (job index, level, scores) and one pass scores every job: models that
    share seed, widths, levels and steps generate each projection once, and
    jobs that pass the same input object share one X·Rᵀ per step.  Every
    score is bitwise the one a separate call gives, and each job's levels
    come in order.  An empty list yields nothing.

    The call is planned once (_plan), when the generator first runs, so a
    bad call raises there.  Each seed group is then one walk of its own
    (lanes.in_order), the groups one after another in the plan's order.  A
    walk takes the group's (level, step) slots in train's order on two
    lanes: the calling thread, while the generator runs, and one worker
    thread, which keeps walking while the generator is suspended.  Each
    lane computes the slot nobody has taken yet (_slot_terms) and adds its
    terms to the group's running scores in slot order (_add_terms), so at
    most two slots' terms are alive; a level's scores are emitted at its
    last step.  Closing the generator closes the open walk, and a walk
    joins its worker when it finishes, raises or is closed, so a caller
    that wants the scores through level k breaks out of the loop there.
    Each walk holds numpy's BLAS at one thread for as long as it is open.
    """
    single, groups = _plan(model, x_new)
    for spec, levels, t_steps, by_input in groups:
        work = functools.partial(_slot_terms, spec, by_input)
        finish = functools.partial(_add_terms, {}, t_steps)
        with closing(lanes.in_order(_slots(levels, t_steps), work, finish)) as walk:
            for level in walk:
                for i, lv, level_scores in level:
                    yield (lv, level_scores) if single else (i, lv, level_scores)


def predict_scores(model, x_new=None):
    """N' x K score matrix for new samples, already normalized like the training data.

    Sums alpha-discounted encoding-times-weights terms over every step of
    every level: the last scores iter_level_scores yields.  Given a job list
    [(model, x), ...], as iter_level_scores takes it, returns one score
    matrix per job from one pass; an empty list scores to [].
    """
    if isinstance(model, BoostedModel):
        return predict_scores([(model, x_new)])[0]
    final = {i: scores for i, _, scores in iter_level_scores(model, x_new)}
    return [final[i] for i in range(len(final))]


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
