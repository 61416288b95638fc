"""Benchmark of elmboost: one workload, one seed, one JSON result line.

Usage, from the root of a source checkout (the package is imported from
./src; nothing needs installing)::

    python3 perfbench/run.py --workload {train,evaluate,persist} --seed N \\
        --seconds S --trace {0,1} [--smoke]

The run builds its inputs from the seed, sets up several times and reports
the median set-up time, then runs the timed section in a child process
(perfbench/timed.py): a closed loop with one client that repeats the
workload's command sequence for S seconds and checks every iteration's
outputs.  BLAS runs one thread: on the 2-vCPU host this was tuned on, a
1024^3 product ran at 65-75 GFLOP/s on one thread and at 38 on two.

With ``--trace 0`` the result carries the end-to-end metrics, measured
untraced.  With ``--trace 1`` it carries the per-layer metrics from traced
iterations (see perfbench/spans.py), the BLAS peak rate measured in the same
run and the tracing overhead.  ``--smoke`` shrinks every shape so a run
takes seconds; it checks the same outputs and is what perfbench/test_smoke.py
runs.

Lines before the last one are for people: the machine, the SHA-256 digest of
every file the workload wrote (identities, for comparing two commits bit for
bit), and every metric with its unit, including the workload-specific ones
that are not part of the result line.  The last line is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Files go under .perfbench/ in the checkout: the work directory, removed at
the end, and results/<workload>-seed<N>-trace<T>.json with everything
printed, plus the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUTPUT = ROOT / ".perfbench"

# Set up at least SETUP_REPEATS times, and more while the repeats have taken
# less than SETUP_MIN_S, so a cheap set-up's median rests on many samples.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 50
# A run must end within 180 s; leave room for the parent's own work.
DEADLINE_S = 170.0

# The result line's metrics; each applies to every workload.  Figures that
# apply to some workloads only are printed beside them (see end_to_end).
END_TO_END_UNITS = {"setup_s": "s", "wall_best_s": "s", "peak_rss_mb": "MB"}
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "evaluate", "persist"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny shapes, for the benchmark's own test")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must lie in [0, 2**32)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def machine(np, scipy) -> dict:
    """What the numbers were measured on."""
    cpu_model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        caches[f"L{level} {kind}"] = _read(index / "size")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "caches": caches,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": BLAS_THREADS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def _another_setup(times: list[float], trace: int) -> bool:
    """A traced run sets up once; it reports no set-up time."""
    if trace:
        return not times
    return len(times) < SETUP_REPEATS or (
        len(times) < SETUP_MAX_REPEATS and sum(times) < SETUP_MIN_S
    )


def end_to_end(setup_times, child) -> tuple[dict, dict]:
    """Result metrics, plus the workload-specific figures printed beside them.

    ``wall_best_s`` is the fastest iteration's wall time.  On a shared host
    other tenants slow a share of the iterations that varies from run to run
    (the same pure-Python loop reads 5 or 7.5 MB/s for seconds at a time), so
    the median moves by up to a third between runs of the same code; the
    fastest of a few dozen iterations reads the program's own speed as long as
    one of them goes undisturbed.  The median, ``wall_s``, is printed beside
    it.  Every iteration does the same work, so the rates below move with the
    wall time.
    """
    wall = statistics.median(child["walls"]["untraced"])
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_best_s": min(child["walls"]["untraced"]),
        "peak_rss_mb": child["peak_rss_mb"],
    }
    extra = {"wall_s": wall}
    extra.update({f"{name}_per_s": amount / wall for name, amount in child["work"].items()})
    for op, samples in child["samples"].items():
        extra[f"{op}_mb_per_s"] = statistics.median(size / 1e6 / s for size, s in samples)
    return metrics, extra


def per_layer(child) -> dict:
    names = sorted({name for row in child["layers"] for name in row})
    metrics = {
        name: statistics.median(row[name] for row in child["layers"] if name in row)
        for name in names
    }
    traced = statistics.median(child["walls"]["traced"])
    metrics["blas.dgemm_peak_gflops"] = child["dgemm_peak_gflops"]
    metrics["trace.wall_s"] = traced
    metrics["trace.overhead_ratio"] = traced / statistics.median(child["walls"]["untraced"])
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "elmboost" / "__init__.py").is_file():
        print(f"error: no elmboost sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    started = time.perf_counter()
    for var in _BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    # Silence the CLI's per-level progress lines; cli.main keeps this configuration.
    logging.basicConfig(level=logging.WARNING)
    import numpy as np
    import scipy

    import spans
    import workloads

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = OUTPUT / "results"
    workdir = OUTPUT / f"work-{tag}-{os.getpid()}"
    results.mkdir(parents=True, exist_ok=True)
    workdir.mkdir(parents=True)
    try:
        workload = workloads.make(args.workload, args.seed, args.smoke, workdir)
        setup_times, input_digests = [], None
        attempted = failed = 0
        failures = []
        while _another_setup(setup_times, args.trace):
            attempted += 1
            begin = time.perf_counter()
            digests = workload.setup()
            setup_times.append(time.perf_counter() - begin)
            input_digests = input_digests or digests
            if digests != input_digests:
                failed += 1
                failures.append("setup: repeated set-up wrote different files")

        config = {
            "src": str(SRC),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "workdir": str(workdir),
            "result": str(workdir / "timed.json"),
            "spans": str(results / f"{args.workload}-seed{args.seed}-spans.json"),
        }
        (workdir / "config.json").write_text(json.dumps(config))
        remaining = DEADLINE_S - (time.perf_counter() - started)
        try:
            child = subprocess.run(
                [sys.executable, str(HERE / "timed.py"), str(workdir / "config.json")],
                stdout=sys.stderr, timeout=max(remaining, 1.0), check=False,
            )
        except subprocess.TimeoutExpired:
            print("error: the timed section overran the run deadline", file=sys.stderr)
            return 1
        if child.returncode != 0:
            print(f"error: the timed section exited with {child.returncode}", file=sys.stderr)
            return 1
        timed = json.loads(Path(config["result"]).read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted += timed["attempted"]
    failed += timed["failed"]
    failures += timed["failures"]
    if not timed["walls"]["untraced"] or (args.trace and not timed["walls"]["traced"]):
        print("error: no iteration completed", file=sys.stderr)
        for failure in failures:
            print(f"failure {failure}", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(timed)
        units = {name: spans.unit(name) for name in metrics}
        extra = {}
    else:
        metrics, extra = end_to_end(setup_times, timed)
        units = dict(END_TO_END_UNITS)
        units.update({name: "MB/s" if name.endswith("_mb_per_s") else "1/s" for name in extra})
        units["wall_s"] = "s"
    extra["failed_ratio"] = failed / attempted
    units["failed_ratio"] = "ratio"
    if "heldout_accuracy" in timed["report"]:
        extra["heldout_accuracy"] = timed["report"]["heldout_accuracy"]
        units["heldout_accuracy"] = "ratio"

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "loop": {"kind": "closed", "clients": 1},
        "machine": machine(np, scipy),
        "iterations": timed["iterations"],
        "setup_s_samples": setup_times,
        "wall_s_quartiles": _quartiles(timed["walls"]["untraced"]),
        "wall_s_samples": timed["walls"],
        "save_load_samples": timed["samples"],
        "input_digests": input_digests,
        "output_digests": timed["digests"],
        "failures": failures,
        "missing_names": timed["missing"],
        "absent_layers": timed["absent"],
        "uncounted_layers": timed["uncounted"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "workload_figures": {name: {"value": value, "unit": units[name]} for name, value in extra.items()},
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1))

    print(f"run workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} loop=closed clients=1 iterations={timed['iterations']}")
    print("machine " + json.dumps(record["machine"]))
    for name, digest in {**input_digests, **timed["digests"]}.items():
        print(f"digest {name} {digest}")
    for failure in failures:
        print(f"failure {failure}")
    for name in timed["missing"]:
        print(f"missing {name}")
    for layer in timed["absent"]:
        print(f"absent {layer}")
    for layer in timed["uncounted"]:
        print(f"uncounted {layer}")
    print("wall_s quartiles " + " ".join(f"{q:.4f}" for q in record["wall_s_quartiles"])
          + f" over {len(timed['walls']['untraced'])} iterations")
    for name, value in {**metrics, **extra}.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
