"""Boosted ridge-regression classifiers over seeded random projections.

The library trains an ensemble of closed-form ridge regressions on random
hidden-layer encodings of the input, organized as levels of residual
boosting steps.  Projection matrices are regenerated from a 64-bit seed
instead of being stored, so persisted models stay small and predictions are
bit-reproducible.  A sign-hashing toolkit exposes the same projections as
similarity hashes with their analytic collision probability.
"""

from .boost import (
    BoostedModel,
    HyperParams,
    accuracy,
    classify,
    iter_level_scores,
    predict_scores,
    train,
)
from .dataset import (
    Dataset,
    RawDataset,
    load_idx_images,
    load_idx_labels,
    normalize,
    one_hot_encode,
    zero_pixel_noise,
)
from .linalg import NotPositiveDefiniteError
from .model_store import load as load_model
from .model_store import save as save_model
from .projection import (
    Activation,
    ProjectionSpec,
    collision_probability,
    encode,
    estimate_collision_rate,
    generate_projection,
    hash_signature,
)

__version__ = "0.1.0"

__all__ = [
    "Activation",
    "BoostedModel",
    "Dataset",
    "HyperParams",
    "NotPositiveDefiniteError",
    "ProjectionSpec",
    "RawDataset",
    "accuracy",
    "classify",
    "collision_probability",
    "encode",
    "estimate_collision_rate",
    "generate_projection",
    "hash_signature",
    "iter_level_scores",
    "load_idx_images",
    "load_idx_labels",
    "load_model",
    "normalize",
    "one_hot_encode",
    "predict_scores",
    "save_model",
    "train",
    "zero_pixel_noise",
]
