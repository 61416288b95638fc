"""Smoke test of the benchmark itself: every workload at tiny shapes.

Run with ``python3 -m pytest perfbench`` from the root of a checkout.  It
checks the result line's schema against BENCHMARK.json and that every
correctness check passes; it asserts nothing about timings.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_matches_the_spec(workload, trace):
    run = _run(workload, trace)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, run.stdout
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        assert trace or metric["value"] > 0


def test_fails_without_sources():
    bare = ROOT / ".perfbench" / "no-sources"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        for path in (ROOT / "perfbench").glob("*.py"):
            shutil.copy(path, bare / "perfbench" / path.name)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        run = _run("train", 0, root=bare)
    finally:
        shutil.rmtree(bare)
    assert run.returncode != 0
    assert run.stdout == ""


def test_tracer_counts_calls_and_reports_missing_layers_absent():
    sys.path.insert(0, str(ROOT / "src"))
    import elmboost.boost
    import spans
    from elmboost.projection import ProjectionSpec

    original = elmboost.boost.generate_projection
    tracer = spans.Tracer({**spans.LAYERS, "linalg.gram": ("elmboost.linalg.no_such_function",)})
    assert tracer.absent == ["linalg.gram"]
    assert tracer.missing == ["elmboost.linalg.no_such_function"]
    spec = ProjectionSpec(master_seed=1, j=4, m=3)
    with tracer.recording() as recording:
        for step in (0, 0, 1):
            elmboost.boost.generate_projection(spec, 0, step)
    assert elmboost.boost.generate_projection is original
    metrics = spans.layer_metrics(recording, tracer.absent)
    assert metrics["projection.generate_projection.calls"] == 3
    assert metrics["projection.generate_projection.unique_ratio"] == 2 / 3
    assert metrics["projection.generate_projection.mb_computed"] == 3 * 8 * 4 * 3 / 1e6
    assert not any(name.startswith("linalg.gram.") for name in metrics)
    assert "linalg.ridge_solve.self_s" in metrics
