"""Benchmark: genome-scale scan — persistent scheduler vs per-window services.

Measures what the scan subsystem was built for: N windowed GA runs over one
shared execution substrate versus the naive loop a user would write with a
fresh ``RunScheduler`` per window (one farm spin-up, one shared-memory panel
registration and one cold cache population **per window**).  Records the
trajectory to ``BENCH_scan.json`` (diffable with ``scripts/bench_compare.py``).

Workload
--------
The built-in 249-SNP chromosome-scale panel tiled into overlapping windows
(stride = size - overlap), each searched by a small per-window GA with
deterministic seeds — the CLI ``scan`` command's exact job stream.  Both
contenders execute the identical per-window ``RunRequest`` sequence:

* ``persistent`` — one :class:`repro.runtime.service.RunScheduler` owns the
  backend for the whole scan; windows share the farm, the shared-memory
  segment and the dedup/LRU caches (overlapping windows re-request the same
  global haplotypes).
* ``naive`` — a fresh ``RunScheduler`` on each window view, the pre-scan
  architecture: per-window farm spin-up/teardown and no cross-window reuse.

The headline number — ``persistent_vs_naive_gain_at_<N>_workers`` — is the
wall-clock ratio of the two loops on the ``process-shm`` backend; the serial
ratio is recorded alongside (it isolates the cache-sharing gain from the
farm spin-up gain).

Usage::

    python benchmarks/bench_scan.py                 # full run
    python benchmarks/bench_scan.py --quick         # CI smoke
    python benchmarks/bench_scan.py -o out.json     # custom output path
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.core.config import GAConfig  # noqa: E402
from repro.experiments.datasets import large249  # noqa: E402
from repro.runtime.service import RunRequest, RunScheduler  # noqa: E402
from repro.scan.planner import plan_scan  # noqa: E402
from repro.scan.runner import execute_plan  # noqa: E402

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_scan.json"
)


def scan_ga_config(*, quick: bool) -> GAConfig:
    return GAConfig(
        population_size=10,
        min_haplotype_size=2,
        max_haplotype_size=3,
        termination_stagnation=2,
        max_generations=3 if quick else 4,
        point_mutation_trials=1,
    )


def bench_persistent(dataset, plan, *, backend, n_workers, jobs) -> dict:
    """One scheduler for the whole scan (the scan subsystem's architecture)."""
    start = time.perf_counter()
    with RunScheduler(
        dataset, backend=backend, n_workers=n_workers, jobs=jobs
    ) as scheduler:
        windows = execute_plan(plan, scheduler)
        stats = scheduler.stats
    elapsed = time.perf_counter() - start
    return {
        "mode": "persistent",
        "backend": backend,
        "n_workers": n_workers,
        "jobs": jobs,
        "elapsed_seconds": elapsed,
        "windows_per_second": len(windows) / elapsed if elapsed > 0 else 0.0,
        "n_requests": stats.n_requests,
        "n_evaluations": stats.n_evaluations,
        "reuse_rate": stats.reuse_rate,
        "checksum": round(sum(w.best_fitness for w in windows), 6),
    }


def bench_naive(dataset, plan, *, backend, n_workers) -> dict:
    """A fresh RunScheduler per window view (the pre-scan architecture)."""
    start = time.perf_counter()
    n_requests = n_evaluations = 0
    checksum = 0.0
    n_windows = 0
    for window, request in plan.requests():
        # the naive loop runs each window on its own sub-panel: local indices,
        # a fresh evaluator, and (on farm backends) a fresh farm
        local = RunRequest(
            config=request.config,
            n_runs=request.n_runs,
            seed=request.seed,
            statistic=request.statistic,
        )
        with RunScheduler(
            dataset.window(window.start, window.stop),
            statistic=request.statistic,
            backend=backend,
            n_workers=n_workers,
        ) as view:
            run = view.run(local)
        n_requests += run.stats.n_requests
        n_evaluations += run.stats.n_evaluations
        best = max(
            (ind.fitness_value() for ind in run.best_per_size().values()),
            default=0.0,
        )
        checksum += best
        n_windows += 1
    elapsed = time.perf_counter() - start
    return {
        "mode": "naive",
        "backend": backend,
        "n_workers": n_workers,
        "elapsed_seconds": elapsed,
        "windows_per_second": n_windows / elapsed if elapsed > 0 else 0.0,
        "n_requests": n_requests,
        "n_evaluations": n_evaluations,
        "reuse_rate": 1.0 - (n_evaluations / n_requests) if n_requests else 0.0,
        "checksum": round(checksum, 6),
    }


def run_benchmark(*, quick: bool) -> dict:
    dataset = large249().dataset
    window_size, overlap = (6, 3) if quick else (5, 3)
    config = scan_ga_config(quick=quick)
    plan = plan_scan(
        dataset.n_snps,
        window_size=window_size,
        overlap=overlap,
        config=config,
        seed=2004,
    )
    if quick:  # CI smoke: a slice of the window stream is enough
        from dataclasses import replace

        windows = plan.windows.windows[:16]
        plan = replace(plan, windows=replace(plan.windows, windows=windows))
    worker_counts = (2,) if quick else (2, 4)

    report: dict = {
        "benchmark": "scan_scheduler",
        "dataset": "large249",
        "n_windows": plan.n_windows,
        "window_size": window_size,
        "overlap": overlap,
        "results": {},
        "headline": {},
    }
    results = report["results"]

    def check_parity(persistent: dict, naive: dict) -> None:
        # both architectures must find the exact same per-window results; a
        # checksum divergence is a scheduler determinism regression, not a
        # timing artefact, and must fail the (CI smoke) run loudly
        if persistent["checksum"] != naive["checksum"]:
            raise AssertionError(
                f"persistent/naive scan results diverged: "
                f"{persistent['checksum']} != {naive['checksum']} "
                f"({persistent['backend']}, {persistent['n_workers']} workers)"
            )

    results["persistent_serial"] = bench_persistent(
        dataset, plan, backend="serial", n_workers=None, jobs=1
    )
    results["naive_serial"] = bench_naive(
        dataset, plan, backend="serial", n_workers=None
    )
    check_parity(results["persistent_serial"], results["naive_serial"])
    report["headline"]["persistent_vs_naive_gain_serial"] = (
        results["naive_serial"]["elapsed_seconds"]
        / results["persistent_serial"]["elapsed_seconds"]
    )

    for n_workers in worker_counts:
        persistent = bench_persistent(
            dataset, plan, backend="process-shm", n_workers=n_workers, jobs=2
        )
        naive = bench_naive(
            dataset, plan, backend="process-shm", n_workers=n_workers
        )
        check_parity(persistent, naive)
        results[f"persistent_shm_{n_workers}w"] = persistent
        results[f"naive_shm_{n_workers}w"] = naive
        report["headline"][f"persistent_vs_naive_gain_at_{n_workers}_workers"] = (
            naive["elapsed_seconds"] / persistent["elapsed_seconds"]
        )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized smoke run")
    parser.add_argument("-o", "--output", default=DEFAULT_OUTPUT,
                        help=f"output JSON path (default {DEFAULT_OUTPUT})")
    args = parser.parse_args(argv)

    report = run_benchmark(quick=args.quick)

    for label, result in report["results"].items():
        print(
            f"  {label:24s} {result['elapsed_seconds']:8.2f} s "
            f"({result['windows_per_second']:6.2f} windows/s, "
            f"{result['n_evaluations']} evals, reuse {result['reuse_rate']:.1%})"
        )
    for key, gain in report["headline"].items():
        print(f"{key}: {gain:.2f}x")

    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
