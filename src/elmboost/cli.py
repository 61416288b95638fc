"""Experiment command line: train, curve, noise, hash-sim.

Every subcommand writes a CSV with a header row; runs with a fixed --seed
are byte-reproducible.  Exit codes: 0 success, 1 usage error (sizes the
machine cannot allocate included), 2 I/O or file format error, 3 numerical
failure.

Each input is checked once, where it is used (HyperParams, RawDataset, the
scorer); main maps the exception type to the exit code and prints one line.
OSError, IdxError and ModelFormatError exit 2; NotPositiveDefiniteError and
FloatingPointError exit 3; MemoryError and every other ValueError, numpy's
"array is too big" included, exit 1.  Anything else (a LAPACK argument
error's RuntimeError, say) is a fault of the program and ends in a traceback.
"""

from __future__ import annotations

import argparse
import csv
import logging
import math
import os
import stat
import sys
import time
from pathlib import Path

import numpy as np

from . import lanes, model_store
from .boost import HyperParams, accuracy, classify, iter_level_scores, predict_scores, train
from .dataset import (
    IdxError,
    RawDataset,
    load_idx_images,
    load_idx_labels,
    normalize,
    one_hot_encode,
    zero_pixel_noise,
)
from .linalg import NotPositiveDefiniteError
from .projection import Activation, collision_probability, estimate_collision_rate

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3

_DEFAULT_THETAS = [0.0, np.pi / 6, np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi]

_IDX_STEMS = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


class UsageError(ValueError):
    """Invalid flag combination; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the CLI contract reserves 2 for I/O.
    def error(self, message):
        raise UsageError(message)


def _seed(text: str) -> int:
    """argparse type for seeds: a nonnegative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be a nonnegative integer, got {text}")
    return value


def _finite_float(text: str) -> float:
    """argparse type for values that must be finite (no nan or inf)."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text}")
    return value


def find_idx_file(dataset_dir, dataset: str, kind: str) -> Path:
    """Locate one of the four IDX files under the dataset directory.

    Tries <dir>/<dataset>/ then <dir>/ itself, with hyphenated and dotted
    stem spellings, raw or gzipped.
    """
    stem = _IDX_STEMS[kind]
    bases = (Path(dataset_dir) / dataset, Path(dataset_dir))
    for base in bases:
        for name in (stem, stem.replace("-idx", ".idx")):
            for suffix in ("", ".gz"):
                path = base / (name + suffix)
                if path.is_file():
                    return path
    raise FileNotFoundError(f"no {stem}[.gz] found under {bases[0]} or {bases[1]}")


def _split_files(args, split: str) -> tuple[Path, Path]:
    """The (images, labels) IDX files of one split, found before any output is checked."""
    return tuple(
        find_idx_file(args.dataset_dir, args.dataset, f"{split}_{kind}") for kind in ("images", "labels")
    )


def _load_split(split: str, files: tuple[Path, Path], num_classes: int) -> RawDataset:
    images_path, labels_path = files
    images = load_idx_images(images_path)
    if images.shape[0] == 0:
        raise IdxError(f"{images_path}: the {split} split has no images")
    labels = load_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise IdxError(
            f"{split} image and label files disagree: {images.shape[0]} images, "
            f"{labels.shape[0]} labels"
        )
    return RawDataset(images=images, labels=labels, num_classes=num_classes)


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)
    log.info("wrote %s", path)


def _file_key(path):
    """Equal for two paths that name one file: its device and inode, or its resolved path.

    A character device such as /dev/null takes any number of writers, so its
    key equals no other.
    """
    try:
        st = os.stat(path)
    except OSError:
        return Path(path).resolve()
    return object() if stat.S_ISCHR(st.st_mode) else (st.st_dev, st.st_ino)


def _check_outputs(outputs, inputs=()) -> None:
    """Refuse the command's output paths before any work.

    Every command calls this before it reads any input, so a mistyped path
    fails at once instead of after the run.  An output whose directory is
    missing raises FileNotFoundError and one that is a directory
    IsADirectoryError (exit 2).  An output that names the same file as one
    of the inputs (the --model files and the IDX files of the split a
    command reads) or as another output raises UsageError (exit 1) instead
    of overwriting it.
    """
    missing = [f"{Path(p).parent} (for {p})" for p in outputs if not Path(p).parent.is_dir()]
    if missing:
        raise FileNotFoundError(f"missing output directory: {'; '.join(missing)}")
    directories = [str(p) for p in outputs if Path(p).is_dir()]
    if directories:
        raise IsADirectoryError(f"output path is a directory: {'; '.join(directories)}")
    named = {_file_key(p): p for p in inputs}
    for path in outputs:
        key = _file_key(path)
        if key in named:
            raise UsageError(f"output {path} is the same file as {named[key]}")
        named[key] = path


def _check_model_matches(model, data) -> None:
    # the scorer checks the input width
    if data.num_classes != model.num_classes:
        raise UsageError(
            f"model has {model.num_classes} classes, dataset declares {data.num_classes}"
        )


def cmd_train(args) -> int:
    files = _split_files(args, "train")
    _check_outputs([args.model, args.out], files)
    raw = _load_split("train", files, args.classes)
    if args.train_subset is not None:
        if args.train_subset < 1:
            raise UsageError("--train-subset must be >= 1")
        raw = RawDataset(
            images=raw.images[: args.train_subset],
            labels=raw.labels[: args.train_subset],
            num_classes=raw.num_classes,
        )
    data = normalize(raw)
    targets = one_hot_encode(data.labels, data.num_classes)
    hidden = args.hidden if args.hidden is not None else data.x.shape[1]
    hyper = HyperParams(
        lam=args.lam,
        alpha=args.alpha,
        t_steps=args.t_steps,
        levels=args.levels,
        hidden=hidden,
        activation=Activation(args.activation),
        master_seed=args.seed,
    )
    log.info(
        "training on %d samples: lambda=%g alpha=%g T=%d L=%d J=%d act=%s seed=%d",
        data.x.shape[0], hyper.lam, hyper.alpha, hyper.t_steps, hyper.levels,
        hyper.hidden, hyper.activation.value, hyper.master_seed,
    )
    started = time.perf_counter()
    model, residual_norms = train(data, targets, hyper)
    log.info("trained in %.1f s", time.perf_counter() - started)
    model_store.save(model, args.model)
    log.info("saved model to %s", args.model)
    rows = [
        (lv, t, residual_norms[lv, t])
        for lv in range(hyper.levels)
        for t in range(hyper.t_steps)
    ]
    _write_csv(args.out, ["level", "step", "residual_norm"], rows)
    return EXIT_OK


def cmd_curve(args) -> int:
    files = _split_files(args, "test")
    _check_outputs([args.out], [*args.model, *files])
    models = [model_store.load(path) for path in args.model]
    data = normalize(_load_split("test", files, args.classes))
    for model in models:
        _check_model_matches(model, data)
    if len(models) > 1:
        if len({m.hyper.activation for m in models}) != len(models):
            raise UsageError("supply at most one model per activation")
        if len({m.hyper.levels for m in models}) != 1:
            raise UsageError("models must agree on the number of levels")
        columns = [f"accuracy_{m.hyper.activation.value}" for m in models]
    else:
        columns = ["accuracy"]
    curves = [[] for _ in models]
    for i, lv, scores in iter_level_scores([(m, data.x) for m in models]):
        curves[i].append(accuracy(classify(scores), data.labels))
        log.info("%s level %d: %.4f", columns[i], lv, curves[i][-1])
    rows = [(lv, *(curve[lv] for curve in curves)) for lv in range(models[0].hyper.levels)]
    _write_csv(args.out, ["level", *columns], rows)
    return EXIT_OK


def cmd_noise(args) -> int:
    files = _split_files(args, "test")
    _check_outputs([args.out], [args.model, *files])
    for fraction in args.noise_fraction:
        if not 0.0 <= fraction <= 1.0:
            raise UsageError(f"--noise-fraction must lie in [0, 1], got {fraction}")
    model = model_store.load(args.model)
    raw = _load_split("test", files, args.classes)
    _check_model_matches(model, raw)

    def noisy(fraction: float):
        return normalize(zero_pixel_noise(raw, fraction, args.seed))

    # Every fraction's input is held at once so that one pass scores them all.
    # The calling thread and one worker build them in parallel.
    inputs = list(lanes.in_order(args.noise_fraction, noisy, lambda _, data: data))
    scores = predict_scores([(model, data.x) for data in inputs])
    rows = []
    for fraction, data, fraction_scores in zip(args.noise_fraction, inputs, scores):
        eta = accuracy(classify(fraction_scores), data.labels)
        log.info("noise fraction %g: accuracy %.4f", fraction, eta)
        rows.append((fraction, eta))
    _write_csv(args.out, ["noise_fraction", "accuracy"], rows)
    return EXIT_OK


def _angled_pair(dim: int, theta: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Unit vector u and a partner at exactly the requested angle."""
    u = rng.standard_normal(dim)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(dim)
    v -= (v @ u) * u
    v /= np.linalg.norm(v)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    # Snap sin(pi) rounding noise so endpoint pairs are exactly (anti)parallel.
    if abs(sin_t) < 1e-12:
        sin_t = 0.0
        cos_t = 1.0 if cos_t > 0 else -1.0
    return u, cos_t * u + sin_t * v


def cmd_hash_sim(args) -> int:
    _check_outputs([args.out])
    if args.dim < 2:
        raise UsageError("--dim must be >= 2")
    if args.hashes < 100:
        raise UsageError("--hashes must be >= 100")
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    thetas = args.theta if args.theta else _DEFAULT_THETAS
    rows = []
    for ti, theta in enumerate(thetas):
        analytic_sum = 0.0
        empirical_sum = 0.0
        for trial in range(args.trials):
            rng = np.random.default_rng([args.seed, ti, trial])
            u, u_other = _angled_pair(args.dim, theta, rng)
            hash_seed = int(rng.integers(0, 2**63))
            analytic_sum += collision_probability(u, u_other)
            empirical_sum += estimate_collision_rate(u, u_other, args.hashes, hash_seed)
        analytic = analytic_sum / args.trials
        empirical = empirical_sum / args.trials
        log.info("theta %.4f: analytic %.4f, empirical %.4f", theta, analytic, empirical)
        rows.append((theta, analytic, empirical, empirical - analytic))
    _write_csv(args.out, ["theta", "analytic", "empirical", "deviation"], rows)
    return EXIT_OK


def _add_dataset_flags(sub) -> None:
    sub.add_argument("--dataset-dir", default="data", help="root directory of the IDX files")
    sub.add_argument(
        "--dataset", choices=("mnist", "fmnist"), default="mnist",
        help="which dataset subdirectory to read",
    )
    sub.add_argument("--classes", type=int, default=10, help="number of classes (default 10)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="elmboost", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a boosted model and save it")
    _add_dataset_flags(p_train)
    p_train.add_argument("--lambda", dest="lam", type=float, default=1.0,
                         help="ridge regularizer (default 1)")
    p_train.add_argument("--alpha", type=float, default=0.5, help="discount factor (default 0.5)")
    p_train.add_argument("--t-steps", type=int, default=50, help="ridge fits per level (default 50)")
    p_train.add_argument("--levels", type=int, default=8,
                         help="boosting levels (default 8; the curves saturate near 7)")
    p_train.add_argument("--hidden", type=int, default=None,
                         help="hidden width J (default: the input width M)")
    p_train.add_argument("--activation", choices=("tanh", "sign"), default="tanh")
    p_train.add_argument("--seed", type=_seed, default=0, help="master seed (default 0)")
    p_train.add_argument("--train-subset", type=int, default=None,
                         help="use only the first N training rows")
    p_train.add_argument("--model", default="model.elmb", help="output model path")
    p_train.add_argument("--out", default="train_report.csv", help="residual-norm CSV path")
    p_train.set_defaults(func=cmd_train)

    p_curve = sub.add_parser("curve", help="accuracy per boosting level on the test set")
    _add_dataset_flags(p_curve)
    p_curve.add_argument("--model", nargs="+", default=["model.elmb"],
                         help="trained model path(s); pass a tanh and a sign model "
                              "to get one accuracy column per activation")
    p_curve.add_argument("--out", default="curve.csv", help="output CSV path")
    p_curve.set_defaults(func=cmd_curve)

    p_noise = sub.add_parser("noise", help="accuracy on test images with pixels zeroed")
    _add_dataset_flags(p_noise)
    p_noise.add_argument("--model", default="model.elmb", help="trained model path")
    p_noise.add_argument("--noise-fraction", type=float, nargs="+", default=[0.1],
                         help="fraction(s) of pixels to zero per image (default 0.1)")
    p_noise.add_argument("--seed", type=_seed, default=0, help="noise position seed (default 0)")
    p_noise.add_argument("--out", default="noise.csv", help="output CSV path")
    p_noise.set_defaults(func=cmd_noise)

    p_hash = sub.add_parser("hash-sim", help="analytic vs empirical hash collision rates")
    p_hash.add_argument("--dim", type=int, default=50, help="vector dimension (default 50)")
    p_hash.add_argument("--hashes", type=int, default=10000,
                        help="number of hash hyperplanes (default 10000)")
    p_hash.add_argument("--trials", type=int, default=1,
                        help="random pairs averaged per angle (default 1)")
    p_hash.add_argument("--theta", type=_finite_float, nargs="+", default=None,
                        help="angles in radians (default: 0, pi/6, pi/4, pi/2, 3pi/4, pi)")
    p_hash.add_argument("--seed", type=_seed, default=0, help="pair/hyperplane seed (default 0)")
    p_hash.add_argument("--out", default="hash_sim.csv", help="output CSV path")
    p_hash.set_defaults(func=cmd_hash_sim)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except MemoryError as exc:
        # a size the machine cannot hold is a usage error, not a crash
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, IdxError, model_store.ModelFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NotPositiveDefiniteError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
