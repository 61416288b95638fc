"""The benchmark's three workloads: seeded inputs, set-up, timed commands and checks.

Every input is generated from the workload seed: synthetic uint8 images of
MNIST's shape drawn around seeded class templates (train and test rows share
the templates, so a trained model must classify the test rows well), and, for
``persist``, a grid of seeded weights.  The program receives
only these inputs, through its public API: ``elmboost.cli.main`` for the
commands and ``elmboost.save_model`` / ``elmboost.load_model`` for
persistence.  Names are looked up on their modules at call time so that the
tracer's wrappers are the ones called.
"""

from __future__ import annotations

import csv
import hashlib
import math
import shutil
import struct
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import elmboost
import elmboost.cli


@dataclass(frozen=True)
class Shape:
    side: int  # images are side x side pixels, so M = side**2
    classes: int
    n_train: int
    n_test: int
    hidden: int
    levels: int
    t_steps: int

    @property
    def width(self) -> int:
        return self.side * self.side


FULL = {
    # Each shape keeps one iteration near a second, so a run holds a few dozen
    # iterations (see run.end_to_end).
    "train": Shape(side=28, classes=10, n_train=5_000, n_test=2_000, hidden=784, levels=2, t_steps=2),
    "evaluate": Shape(side=28, classes=10, n_train=1_000, n_test=1_000, hidden=784, levels=3, t_steps=2),
    # 2.5 MB, 0.6-0.9 s a save and load; the reference size (T = 50, 25 MB)
    # takes 8 s, too long for a few dozen iterations in a run.
    "persist": Shape(side=28, classes=10, n_train=0, n_test=0, hidden=784, levels=8, t_steps=5),
}
SMOKE = {
    "train": Shape(side=12, classes=10, n_train=400, n_test=200, hidden=32, levels=2, t_steps=2),
    "evaluate": Shape(side=12, classes=10, n_train=400, n_test=200, hidden=32, levels=2, t_steps=2),
    "persist": Shape(side=12, classes=10, n_train=0, n_test=0, hidden=32, levels=2, t_steps=3),
}

NOISE_FRACTIONS = ("0.1", "0.3")
# Held-out accuracy every trained model must reach on the templated data.
ACCURACY_FLOOR = 0.9
# Rows scored twice by the bitwise prediction check.
CHECK_ROWS = 500

_CHUNK_ROWS = 2_000
_IMAGE_MAGIC = 0x00000803
_LABEL_MAGIC = 0x00000801


class CommandFailed(RuntimeError):
    """A CLI command returned a non-zero exit code."""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _class_templates(seed: int, shape: Shape) -> np.ndarray:
    rng = np.random.default_rng([seed, 0])
    lit = rng.random((shape.classes, shape.width)) < 0.25
    return np.where(lit, rng.integers(128, 256, (shape.classes, shape.width)), 0)


def _images(seed: int, stream: int, templates: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n images around the class templates: dropped and jittered strokes plus speckle."""
    rng = np.random.default_rng([seed, stream])
    classes, width = templates.shape
    labels = rng.integers(0, classes, n)
    images = np.empty((n, width), dtype=np.uint8)
    for lo in range(0, n, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, n)
        base = templates[labels[lo:hi]] * (rng.random((hi - lo, width)) < 0.85)
        base += rng.integers(-30, 31, (hi - lo, width)) * (base > 0)
        base += (rng.random((hi - lo, width)) < 0.03) * rng.integers(0, 256, (hi - lo, width))
        images[lo:hi] = np.clip(base, 0, 255)
    return images, labels


def _write_idx(directory: Path, stem: str, images: np.ndarray, labels: np.ndarray, side: int) -> None:
    header = struct.pack(">IIII", _IMAGE_MAGIC, images.shape[0], side, side)
    (directory / f"{stem}-images-idx3-ubyte").write_bytes(header + images.tobytes())
    header = struct.pack(">II", _LABEL_MAGIC, labels.shape[0])
    (directory / f"{stem}-labels-idx1-ubyte").write_bytes(header + labels.astype(np.uint8).tobytes())


def _run_cli(argv: list[str]) -> None:
    code = elmboost.cli.main(argv)
    if code != 0:
        raise CommandFailed(f"elmboost {argv[0]} exited with {code}")


def _weight_bits(model) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(model.weights, dtype=np.float64)).view(np.uint64)


def _same_model(saved, loaded) -> bool:
    return (
        saved.hyper == loaded.hyper
        and saved.num_classes == loaded.num_classes
        and saved.input_width == loaded.input_width
        and np.array_equal(_weight_bits(saved), _weight_bits(loaded))
    )


def _model_bytes(shape: Shape) -> int:
    return 57 + 8 * shape.levels * shape.t_steps * shape.hidden * shape.classes + 8


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return (rows[0], rows[1:]) if rows else ([], [])


def _fraction(text: str) -> float | None:
    try:
        value = float(text)
    except ValueError:
        return None
    return value if 0.0 <= value <= 1.0 else None


class Workload:
    """One workload: set-up in the parent process, timed iterations in the child.

    ``commands`` is the timed command sequence of one iteration; ``after``
    runs the untimed round trip and checks and returns failures as
    ``(operation, message)`` pairs, where ``operations`` names the operations
    one iteration attempts.  Save and load timings go to ``samples`` as
    ``(bytes, seconds)``; ``work`` is the fixed work of one iteration.
    """

    name = ""
    operations: tuple[str, ...] = ()

    def __init__(self, seed: int, shape: Shape, workdir: Path):
        self.seed = seed
        self.shape = shape
        self.data = workdir / "data"
        self.out = workdir / "out"
        self.samples: dict[str, list[tuple[int, float]]] = {"save": [], "load": []}
        self.report: dict[str, float] = {}
        self.digests: dict[str, str] = {}
        self._test = None

    # -- set-up ---------------------------------------------------------
    def setup(self) -> dict[str, str]:
        """Build every input from the seed; returns the digests of the files written."""
        if self.data.exists():
            shutil.rmtree(self.data)
        self.data.mkdir(parents=True)
        self._build()
        return {f"data/{p.name}": sha256(p) for p in sorted(self.data.iterdir())}

    def _build(self) -> None:
        shape = self.shape
        templates = _class_templates(self.seed, shape)
        for stem, stream, n in (("train", 1, shape.n_train), ("t10k", 2, shape.n_test)):
            images, labels = _images(self.seed, stream, templates, n)
            _write_idx(self.data, stem, images, labels, shape.side)

    def prepare(self) -> None:
        self.out.mkdir(parents=True, exist_ok=True)

    # -- one iteration --------------------------------------------------
    def commands(self) -> None:
        raise NotImplementedError

    def after(self, first: bool) -> list[tuple[str, str]]:
        raise NotImplementedError

    def work(self) -> dict[str, float]:
        return {}

    # -- shared helpers -------------------------------------------------
    def _dataset_flags(self) -> list[str]:
        return ["--dataset-dir", str(self.data), "--classes", str(self.shape.classes)]

    def _train_flags(self, activation: str) -> list[str]:
        shape = self.shape
        return [
            "train", *self._dataset_flags(), "--seed", str(self.seed),
            "--hidden", str(shape.hidden), "--levels", str(shape.levels),
            "--t-steps", str(shape.t_steps), "--activation", activation,
        ]

    def _test_rows(self):
        if self._test is None:
            raw = elmboost.RawDataset(
                images=elmboost.load_idx_images(self.data / "t10k-images-idx3-ubyte"),
                labels=elmboost.load_idx_labels(self.data / "t10k-labels-idx1-ubyte"),
                num_classes=self.shape.classes,
            )
            self._test = elmboost.normalize(raw)
        return self._test

    def _timed_load(self, path: Path):
        started = time.perf_counter()
        model = elmboost.load_model(path)
        self.samples["load"].append((path.stat().st_size, time.perf_counter() - started))
        return model

    def _timed_save(self, model, path: Path) -> None:
        started = time.perf_counter()
        elmboost.save_model(model, path)
        self.samples["save"].append((path.stat().st_size, time.perf_counter() - started))

    def _check_digests(self, paths: dict[str, str], first: bool) -> list[tuple[str, str]]:
        """Record output digests on the first iteration; later ones must match."""
        failures = []
        for name, op in paths.items():
            digest = sha256(self.out / name)
            if first:
                self.digests[f"out/{name}"] = digest
            elif digest != self.digests[f"out/{name}"]:
                failures.append((op, f"{name} differs from the first iteration's"))
        return failures

    def _round_trip(self, path: Path, first: bool):
        """load, save a copy, load the copy: bytes, weights and scores must agree.

        Returns the failures and the model first loaded.
        """
        failures = []
        model = self._timed_load(path)
        copy = self.out / f"copy-{path.name}"
        self._timed_save(model, copy)
        if copy.read_bytes() != path.read_bytes():
            failures.append(("save", f"re-saving {path.name} changed its bytes"))
        reloaded = self._timed_load(copy)
        if not _same_model(model, reloaded):
            failures.append(("load", f"reloading {path.name} changed the model"))
        if first:
            x = self._test_rows().x[:CHECK_ROWS]
            a = elmboost.predict_scores(model, x)
            b = elmboost.predict_scores(reloaded, x)
            if not np.array_equal(a.view(np.uint64), b.view(np.uint64)):
                failures.append(("load", f"scores of reloaded {path.name} differ bitwise"))
        return failures, model


class TrainWorkload(Workload):
    """``elmboost train`` at N = 10 000: ridge fits and the N×M×J encode dominate."""

    name = "train"
    operations = ("train", "load", "save", "load")

    def commands(self) -> None:
        _run_cli([
            *self._train_flags("tanh"),
            "--model", str(self.out / "model.elmb"), "--out", str(self.out / "residuals.csv"),
        ])

    def after(self, first: bool) -> list[tuple[str, str]]:
        shape = self.shape
        failures = self._check_digests({"model.elmb": "train", "residuals.csv": "train"}, first)
        model_path = self.out / "model.elmb"
        if model_path.stat().st_size != _model_bytes(shape):
            failures.append(("train", "model file size disagrees with the format"))
        failures += _check_residuals(self.out / "residuals.csv", shape)
        round_trip_failures, model = self._round_trip(model_path, first)
        failures += round_trip_failures
        if first:
            test = self._test_rows()
            predicted = elmboost.classify(elmboost.predict_scores(model, test.x))
            held_out = elmboost.accuracy(predicted, test.labels)
            self.report["heldout_accuracy"] = held_out
            if not held_out >= ACCURACY_FLOOR:
                failures.append(("train", f"held-out accuracy {held_out} below floor"))
        return failures

    def work(self) -> dict[str, float]:
        return {"train_steps": self.shape.levels * self.shape.t_steps}


class EvaluateWorkload(Workload):
    """``curve`` on a tanh + sign pair, then two-fraction ``noise``: small-N scoring."""

    name = "evaluate"
    operations = ("curve", "noise", "load", "save", "load")

    def _build(self) -> None:
        super()._build()
        for activation in ("tanh", "sign"):
            _run_cli([
                *self._train_flags(activation),
                "--model", str(self.data / f"{activation}.elmb"),
                "--out", str(self.data / f"{activation}-residuals.csv"),
            ])

    def commands(self) -> None:
        _run_cli([
            "curve", *self._dataset_flags(),
            "--model", str(self.data / "tanh.elmb"), str(self.data / "sign.elmb"),
            "--out", str(self.out / "curve.csv"),
        ])
        _run_cli([
            "noise", *self._dataset_flags(), "--model", str(self.data / "tanh.elmb"),
            "--noise-fraction", *NOISE_FRACTIONS, "--seed", str(self.seed),
            "--out", str(self.out / "noise.csv"),
        ])

    def after(self, first: bool) -> list[tuple[str, str]]:
        failures = self._check_digests({"curve.csv": "curve", "noise.csv": "noise"}, first)
        curve_failures, final = _check_curve(self.out / "curve.csv", self.shape)
        failures += curve_failures
        if final is not None:
            self.report["heldout_accuracy"] = final
        failures += _check_noise(self.out / "noise.csv")
        failures += self._round_trip(self.data / "tanh.elmb", first)[0]
        return failures

    def work(self) -> dict[str, float]:
        steps = self.shape.levels * self.shape.t_steps
        inputs = 2 + len(NOISE_FRACTIONS)  # two models in curve, one input per fraction
        return {"score_row_steps": self.shape.n_test * steps * inputs}


class PersistWorkload(Workload):
    """Save then load a 2.5 MB model of seeded weights: the checksum dominates."""

    name = "persist"
    operations = ("save", "load")

    def _build(self) -> None:
        self.model = reference_model(self.seed, self.shape)

    def prepare(self) -> None:
        super().prepare()
        self.model = reference_model(self.seed, self.shape)

    def commands(self) -> None:
        path = self.out / "reference.elmb"
        self._timed_save(self.model, path)
        self.loaded = self._timed_load(path)

    def after(self, first: bool) -> list[tuple[str, str]]:
        failures = self._check_digests({"reference.elmb": "save"}, first)
        if (self.out / "reference.elmb").stat().st_size != _model_bytes(self.shape):
            failures.append(("save", "model file size disagrees with the format"))
        if not _same_model(self.model, self.loaded):
            failures.append(("load", "loaded model differs from the saved one"))
        self.loaded = None
        return failures


def reference_model(seed: int, shape: Shape):
    """A model of the given shape with seeded weights; nothing is trained."""
    rng = np.random.default_rng([seed, 3])
    weights = rng.standard_normal((shape.levels, shape.t_steps, shape.hidden, shape.classes))
    weights *= 0.01
    hyper = elmboost.HyperParams(
        t_steps=shape.t_steps, levels=shape.levels, hidden=shape.hidden, master_seed=seed
    )
    return elmboost.BoostedModel(
        hyper=hyper, weights=weights, num_classes=shape.classes, input_width=shape.width
    )


def _check_residuals(path: Path, shape: Shape) -> list[tuple[str, str]]:
    header, rows = _read_csv(path)
    if header != ["level", "step", "residual_norm"]:
        return [("train", f"residual CSV header {header}")]
    expected = [(lv, t) for lv in range(shape.levels) for t in range(shape.t_steps)]
    try:
        slots = [(int(row[0]), int(row[1])) for row in rows]
        norms = [float(row[2]) for row in rows]
    except (ValueError, IndexError):
        return [("train", "residual CSV has a malformed row")]
    if slots != expected:
        return [("train", "residual CSV rows are not the (level, step) sequence")]
    if not all(math.isfinite(v) for v in norms):
        return [("train", "residual CSV has a non-finite norm")]
    # Each ridge step can only shrink the residual, up to rounding.
    if any(b > a * (1 + 1e-12) for a, b in zip(norms, norms[1:])):
        return [("train", "residual norm increased")]
    return []


def _check_curve(path: Path, shape: Shape) -> tuple[list[tuple[str, str]], float | None]:
    header, rows = _read_csv(path)
    if header != ["level", "accuracy_tanh", "accuracy_sign"]:
        return [("curve", f"curve CSV header {header}")], None
    if [row[:1] for row in rows] != [[str(lv)] for lv in range(shape.levels)]:
        return [("curve", "curve CSV rows are not one per level")], None
    values = [[_fraction(v) for v in row[1:]] for row in rows]
    if any(len(v) != 2 or None in v for v in values):
        return [("curve", "curve CSV has an accuracy outside [0, 1]")], None
    final_tanh, final_sign = values[-1]
    if not min(final_tanh, final_sign) >= ACCURACY_FLOOR:
        return [("curve", f"final-level accuracy {values[-1]} below floor")], final_tanh
    return [], final_tanh


def _check_noise(path: Path) -> list[tuple[str, str]]:
    header, rows = _read_csv(path)
    if header != ["noise_fraction", "accuracy"]:
        return [("noise", f"noise CSV header {header}")]
    if [row[:1] for row in rows] != [[f] for f in NOISE_FRACTIONS]:
        return [("noise", "noise CSV rows do not match the fractions")]
    accuracies = [_fraction(row[1]) if len(row) == 2 else None for row in rows]
    if None in accuracies or min(accuracies) < ACCURACY_FLOOR:
        return [("noise", f"noise accuracies {accuracies} below floor")]
    return []


WORKLOADS = {w.name: w for w in (TrainWorkload, EvaluateWorkload, PersistWorkload)}


def make(name: str, seed: int, smoke: bool, workdir: Path) -> Workload:
    shapes = SMOKE if smoke else FULL
    return WORKLOADS[name](seed, shapes[name], workdir)
