"""Timed section of one benchmark run, in a process of its own.

Usage: python3 perfbench/timed.py CONFIG_JSON   (started by run.py)

Repeats the workload's command sequence in a closed loop, one client, each
command starting when the previous one has finished, until the requested
seconds have passed.  After each iteration it runs the untimed round trip and
correctness checks.  With tracing on, iterations alternate between untraced
and traced, so the traced run also yields the tracing overhead.  The raw
samples are written to the result path named in the config.  Set-up ran in
the parent process, so this process's peak resident set is the timed
section's.
"""

from __future__ import annotations

import json
import logging
import resource
import sys
import time
import traceback
from pathlib import Path


def dgemm_peak_gflops(np) -> float:
    """Best rate of a 1024³ float64 matrix product, in GFLOP/s."""
    a = np.random.default_rng(0).standard_normal((1024, 1024))
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        a @ a
        best = min(best, time.perf_counter() - started)
    return 2 * 1024**3 / best / 1e9


def main(config_path: str) -> int:
    config = json.loads(Path(config_path).read_text())
    sys.path.insert(0, config["src"])
    # Silence the CLI's per-level progress lines; cli.main keeps this configuration.
    logging.basicConfig(level=logging.WARNING)
    import numpy as np

    import spans
    import workloads

    workload = workloads.make(
        config["workload"], config["seed"], config["smoke"], Path(config["workdir"])
    )
    workload.prepare()
    trace = config["trace"]
    tracer = spans.Tracer() if trace else None
    walls: dict[str, list[float]] = {"untraced": [], "traced": []}
    layers: list[dict[str, float]] = []
    uncounted: set[str] = set()
    span_log: list[list] = []
    attempted = failed = 0
    failures: list[str] = []
    peak = dgemm_peak_gflops(np) if trace else None

    started = time.perf_counter()
    iteration = 0
    while True:
        traced = bool(trace) and iteration % 2 == 1
        attempted += len(workload.operations)
        try:
            if traced:
                with tracer.recording() as recording:
                    begin = time.perf_counter()
                    workload.commands()
                    wall = time.perf_counter() - begin
                layers.append(spans.layer_metrics(recording, tracer.absent))
                uncounted |= recording.uncounted
                span_log.append([[n, s - begin, e - begin, p] for n, s, e, p in recording.spans])
            else:
                begin = time.perf_counter()
                workload.commands()
                wall = time.perf_counter() - begin
            walls["traced" if traced else "untraced"].append(wall)
            bad = workload.after(first=iteration == 0)
        except Exception as exc:  # a crashed iteration is a failed operation, then stop
            traceback.print_exc()
            bad = [("iteration", f"{type(exc).__name__}: {exc}")]
        failures += [f"iteration {iteration}: {op}: {message}" for op, message in bad]
        failed += min(len({op for op, _ in bad}), len(workload.operations))
        iteration += 1
        if any(op == "iteration" for op, _ in bad):
            break
        if time.perf_counter() - started >= config["seconds"] and (not trace or iteration >= 2):
            break

    result = {
        "iterations": iteration,
        "walls": walls,
        "samples": workload.samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "digests": workload.digests,
        "report": workload.report,
        "work": workload.work(),
        "layers": layers,
        "missing": tracer.missing if tracer else [],
        "absent": tracer.absent if tracer else [],
        "uncounted": sorted(uncounted),
        "dgemm_peak_gflops": peak,
    }
    Path(config["result"]).write_text(json.dumps(result))
    if trace:
        fields = ["name", "start_s", "end_s", "parent_index"]
        Path(config["spans"]).write_text(json.dumps({"fields": fields, "iterations": span_log}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
