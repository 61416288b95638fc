"""Span tracing of elmboost's layers from outside the package.

The tracer replaces each traced function under the names its callers look it
up by (``elmboost.boost.generate_projection``, ``elmboost.linalg.gram``, ...)
with a wrapper that records a span: name, start, end and the span that was
open when it was called.  Nothing in the package changes; the original
functions are put back when the recording ends.  Spans and counters stay in
memory and are turned into per-layer metrics, or written out, afterwards.

A layer's self time is the duration of its spans minus the time covered by
their child spans.  A lookup name that no longer exists (a refactor deleted
or renamed it) is skipped and listed in ``Tracer.missing``; a layer with no
lookup name left is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Layer name -> the names callers use to reach it.  Work done inside a layer
# through an untraced helper (for example the residual update inside
# boost.train) is that layer's self time.
LAYERS = {
    "projection.generate_projection": ("elmboost.boost.generate_projection",),
    "projection.encode": ("elmboost.boost.encode",),
    "linalg.ridge_solve": ("elmboost.linalg.ridge_solve",),
    "linalg.gram": ("elmboost.linalg.gram",),
    "linalg.cholesky_solve": ("elmboost.linalg.cholesky_solve",),
    "boost.train": ("elmboost.cli.train",),
    "boost.iter_level_scores": ("elmboost.cli.iter_level_scores", "elmboost.boost.iter_level_scores"),
    "boost.predict_scores": ("elmboost.cli.predict_scores",),
    "model_store.crc64": ("elmboost.model_store.crc64",),
    "model_store.save": ("elmboost.model_store.save", "elmboost.save_model"),
    "model_store.load": ("elmboost.model_store.load", "elmboost.load_model"),
    "dataset.load_idx_images": ("elmboost.cli.load_idx_images",),
    "dataset.normalize": ("elmboost.cli.normalize",),
    "dataset.zero_pixel_noise": ("elmboost.cli.zero_pixel_noise",),
    "cli.main": ("elmboost.cli.main",),
}


def _projection_work(args):
    spec, level, step = args[:3]
    return {"bytes": 8.0 * spec.j * spec.m}, (spec.master_seed, level, step)


def _encode_work(args):
    x, r = args[:2]
    return {"flop": 2.0 * x.shape[0] * x.shape[1] * r.shape[0]}, None


def _gram_work(args):
    n, j = args[0].shape
    return {"flop": float(n) * j * j}, None


def _cholesky_work(args):
    j = args[0].shape[0]
    return {"flop": j**3 / 3.0}, None


def _crc_work(args):
    return {"bytes": float(len(args[0]))}, None


# Computed work per call, from the arguments: (quantities, distinct-slot key).
# These are operation and byte counts derived from array shapes, not
# hardware counters.
_WORK = {
    "projection.generate_projection": _projection_work,
    "projection.encode": _encode_work,
    "linalg.gram": _gram_work,
    "linalg.cholesky_solve": _cholesky_work,
    "model_store.crc64": _crc_work,
}


class Recording:
    """Spans, call counts and computed work of one traced interval."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.calls: Counter = Counter()
        self.work: defaultdict = defaultdict(float)  # (layer, quantity) -> total
        self.keys: defaultdict = defaultdict(set)  # layer -> distinct slots
        self.uncounted: set = set()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        entry = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(entry)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            entry[2] = time.perf_counter()
            self._open.pop()

    def count(self, layer: str, args) -> None:
        self.calls[layer] += 1
        extract = _WORK.get(layer)
        if extract is None:
            return
        try:
            quantities, key = extract(args)
        except (AttributeError, IndexError, TypeError, ValueError):
            # The signature changed; report the layer's work as uncounted.
            self.uncounted.add(layer)
            return
        for quantity, amount in quantities.items():
            self.work[layer, quantity] += amount
        if key is not None:
            self.keys[layer].add(key)

    def self_times(self) -> dict[str, float]:
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: defaultdict = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child_time):
            totals[name] += max(end - start - covered, 0.0)
        return dict(totals)

    def total_times(self) -> dict[str, float]:
        """Inclusive time per layer, counting only its outermost spans."""
        totals: defaultdict = defaultdict(float)
        for name, start, end, parent in self.spans:
            outer = parent
            while outer >= 0 and self.spans[outer][0] != name:
                outer = self.spans[outer][3]
            if outer < 0:
                totals[name] += end - start
        return dict(totals)


def _wrap(original, layer: str, recording: Recording):
    if inspect.isgeneratorfunction(original):

        @functools.wraps(original)
        def generator_wrapper(*args, **kwargs):
            recording.count(layer, args)
            inner = original(*args, **kwargs)
            try:
                while True:
                    # Each resumption is one span: the work runs between yields.
                    with recording.span(layer):
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                    yield item
            finally:
                inner.close()

        return generator_wrapper

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        recording.count(layer, args)
        with recording.span(layer):
            return original(*args, **kwargs)

    return wrapper


def _resolve(lookup: str):
    module_name, attr = lookup.rsplit(".", 1)
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None, None
    return module, getattr(module, attr, None)


class Tracer:
    """Installs span wrappers on every layer for the length of a recording."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.missing = sorted(
            lookup
            for lookups in layers.values()
            for lookup in lookups
            if not callable(_resolve(lookup)[1])
        )
        self.absent = sorted(
            layer
            for layer, lookups in layers.items()
            if all(lookup in self.missing for lookup in lookups)
        )

    @contextmanager
    def recording(self):
        recording = Recording()
        patched = []
        try:
            for layer, lookups in self.layers.items():
                for lookup in lookups:
                    module, original = _resolve(lookup)
                    if not callable(original):
                        continue
                    attr = lookup.rsplit(".", 1)[1]
                    setattr(module, attr, _wrap(original, layer, recording))
                    patched.append((module, attr, original))
            yield recording
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)


_UNITS = {
    "calls": "count",
    "self_s": "s",
    "total_s": "s",
    "wall_s": "s",
    "unique_ratio": "ratio",
    "overhead_ratio": "ratio",
    "mb_computed": "MB",
    "gflop_computed": "GFLOP",
    "gflops": "GFLOP/s",
    "dgemm_peak_gflops": "GFLOP/s",
    "mb_per_s": "MB/s",
}


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from the last part of its name."""
    return _UNITS[metric.rsplit(".", 1)[1]]


def layer_metrics(recording: Recording, absent) -> dict[str, float]:
    """Per-layer metrics of one traced interval, keyed by their benchmark names."""
    self_s = recording.self_times()
    total_s = recording.total_times()
    calls = recording.calls
    work = recording.work
    out: dict[str, float] = {}

    def put(layer, name, value):
        if layer not in absent:
            out[f"{layer}.{name}"] = value

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    for layer in LAYERS:
        put(layer, "self_s", self_s.get(layer, 0.0))
    gen = "projection.generate_projection"
    put(gen, "calls", calls[gen])
    put(gen, "unique_ratio", len(recording.keys[gen]) / calls[gen] if calls[gen] else 1.0)
    put(gen, "mb_computed", work[gen, "bytes"] / 1e6)
    enc = "projection.encode"
    put(enc, "calls", calls[enc])
    put(enc, "gflop_computed", work[enc, "flop"] / 1e9)
    put(enc, "gflops", rate(work[enc, "flop"] / 1e9, self_s.get(enc, 0.0)))
    put("linalg.ridge_solve", "calls", calls["linalg.ridge_solve"])
    put("linalg.ridge_solve", "total_s", total_s.get("linalg.ridge_solve", 0.0))
    put("linalg.gram", "gflop_computed", work["linalg.gram", "flop"] / 1e9)
    put("linalg.gram", "gflops", rate(work["linalg.gram", "flop"] / 1e9, self_s.get("linalg.gram", 0.0)))
    put("linalg.cholesky_solve", "gflop_computed", work["linalg.cholesky_solve", "flop"] / 1e9)
    crc = "model_store.crc64"
    put(crc, "calls", calls[crc])
    put(crc, "mb_computed", work[crc, "bytes"] / 1e6)
    put(crc, "mb_per_s", rate(work[crc, "bytes"] / 1e6, self_s.get(crc, 0.0)))
    return out
