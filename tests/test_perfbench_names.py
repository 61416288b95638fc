"""The package keeps every name the benchmark's tracer looks up.

perfbench/spans.py wraps each traced layer under the names callers reach it
by.  A refactor that drops or renames one of them turns that layer's metrics
into "absent"; this catches it in the fast suite rather than only in
``python3 -m pytest perfbench``.  spans.py is loaded from its file and only
read: its LAYERS table is the source of truth.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

import elmboost.boost
import elmboost.cli  # noqa: F401  (the traced lookups go through this module)
import elmboost.model_store
from elmboost.boost import BoostedModel, HyperParams

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


def _resolves(lookup: str) -> bool:
    module_name, attr = lookup.rsplit(".", 1)
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    return callable(getattr(module, attr, None))


def test_every_layer_resolves_a_lookup_name():
    absent = [
        layer for layer, lookups in _layers().items()
        if not any(_resolves(lookup) for lookup in lookups)
    ]
    assert absent == []


def test_level_scorer_is_a_generator_function():
    # the tracer times a generator function per resumption; a plain function
    # returning a generator would charge the whole walk to its caller
    assert inspect.isgeneratorfunction(elmboost.boost.iter_level_scores)


def test_save_and_load_checksum_through_the_traced_name(monkeypatch, tmp_path):
    # the tracer counts model_store.crc64 calls and bytes under this name; a
    # kernel called directly would leave both at 0 without the layer going absent
    calls = []
    kernel = elmboost.model_store.crc64

    def counting(data, state=0):
        calls.append(memoryview(data).nbytes)
        return kernel(data, state)

    monkeypatch.setattr(elmboost.model_store, "crc64", counting)
    hyper = HyperParams(levels=2, t_steps=3, hidden=4, master_seed=5)
    model = BoostedModel(
        hyper=hyper, weights=np.ones((2, 3, 4, 3)), num_classes=3, input_width=6
    )
    path = tmp_path / "m.elmb"
    elmboost.model_store.save(model, path)
    elmboost.model_store.load(path)
    # header, then the weights chained onto it: once by save, once by load
    payload = path.stat().st_size - 8
    header = elmboost.model_store.HEADER_SIZE
    assert calls == [header, payload - header, header, payload - header]
