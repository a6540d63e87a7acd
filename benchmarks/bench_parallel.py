"""Benchmark: the chunked master/slave farm vs serial (workers x chunk size).

Measures the parallel evaluation layer end to end on a steady-state GA
workload and records the trajectory to ``BENCH_parallel.json``
(diffable with ``scripts/bench_compare.py``).

Workload
--------
Streams of generation batches mixing *fresh* haplotypes (new offspring) with
*re-requested* ones (elitist survivors, duplicate offspring, repeated
candidates) drawn from a recent-generations window.  The master-side batch
fast path is disabled, exactly as in the bounded-cache regime where
re-requests genuinely travel to the slaves.  Three revisit intensities are
recorded:

* ``ga_trace`` (50% revisits) — a mid-run GA generation mix;
* ``service_steady_state`` (70% revisits) — the re-request-heavy traffic of
  a long-running evaluation service whose bounded master cache cannot hold
  the working set (stagnation phases, many concurrent runs over the same
  panel);
* ``cold`` (0% revisits, worker caches off) — pure evaluation plus dispatch
  overhead.

Contenders
----------
* ``serial`` — the in-process reference evaluator, same stream, same
  disabled master fast path.
* ``chunked`` — per-slave queues with content-affinity routing
  (:class:`repro.parallel.farm.ChunkedWorkerFarm`): a haplotype is always
  routed to the same slave, whose local batch fast path (worker LRU +
  evaluator expansion/result caches) answers re-requests without
  re-evaluating; each slave receives its share of a generation as chunks.

The headline numbers are throughput ratios against serial on the identical
stream at each worker count: ``chunked_vs_serial_gain_at_<N>_workers`` for
``service_steady_state`` and ``<scenario>_chunked_vs_serial_gain_at_<N>_workers``
for the other two (best chunk size per worker count).  A ratio below 1 means
the farm loses to serial on this machine; ``cpu_count`` records how many
cores the numbers were measured on.

Usage::

    python benchmarks/bench_parallel.py                 # full run
    python benchmarks/bench_parallel.py --quick         # CI smoke
    python benchmarks/bench_parallel.py -o out.json     # custom output path
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.experiments.datasets import lille51  # noqa: E402
from repro.parallel.master_slave import MasterSlaveEvaluator  # noqa: E402
from repro.parallel.serial import SerialEvaluator  # noqa: E402
from repro.runtime.spec import EvaluatorSpec  # noqa: E402

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_parallel.json"
)


def generation_stream(
    *,
    n_generations: int,
    batch_size: int,
    revisit_fraction: float,
    n_snps: int,
    sizes=(2, 3, 4, 5),
    window: int = 192,
    seed: int = 2004,
) -> list[list[tuple[int, ...]]]:
    """A deterministic stream of GA-shaped generation batches.

    Each generation draws ``revisit_fraction`` of its batch from the most
    recent ``window`` previously seen haplotypes (the GA's elitism /
    duplicate-offspring / repeated-candidate traffic is recency-local) and
    fills the rest with fresh ones.
    """
    rng = np.random.default_rng(seed)
    seen: list[tuple[int, ...]] = []
    stream: list[list[tuple[int, ...]]] = []

    def fresh() -> tuple[int, ...]:
        size = int(rng.choice(sizes))
        return tuple(sorted(rng.choice(n_snps, size=size, replace=False).tolist()))

    for generation in range(n_generations):
        batch: list[tuple[int, ...]] = []
        for _ in range(batch_size):
            if seen and rng.random() < revisit_fraction:
                pool = seen[-window:]
                batch.append(pool[int(rng.integers(len(pool)))])
            else:
                haplotype = fresh()
                batch.append(haplotype)
                seen.append(haplotype)
        stream.append(batch)
    return stream


def _run_stream(evaluator, stream) -> float:
    start = time.perf_counter()
    for batch in stream:
        evaluator.evaluate_batch(batch)
    return time.perf_counter() - start


def bench_protocol(
    dataset,
    stream,
    *,
    protocol: str,
    n_workers: int,
    chunk_size: int | None,
    worker_cache_size: int | None,
) -> dict:
    """Time one contender over the whole stream (fresh evaluator or farm)."""
    spec = EvaluatorSpec()
    if protocol == "serial":
        evaluator = SerialEvaluator(spec.build(dataset), dedup=False, cache_size=0)
    else:
        evaluator = MasterSlaveEvaluator(
            spec.build(dataset),
            n_workers=n_workers,
            chunk_size=chunk_size,
            worker_cache_size=worker_cache_size,
            dedup=False,
            cache_size=0,
        )
    try:
        evaluator.evaluate_batch(stream[0][: max(2, len(stream[0]) // 4)])  # warm-up
        elapsed = _run_stream(evaluator, stream)
        stats = evaluator.stats.counters()
    finally:
        evaluator.close()
    n_requests = sum(len(batch) for batch in stream)
    return {
        "protocol": protocol,
        "n_workers": n_workers,
        "chunk_size": chunk_size,
        "elapsed_seconds": elapsed,
        "requests_per_second": n_requests / elapsed if elapsed > 0 else 0.0,
        "n_requests": n_requests,
        "n_evaluations": stats["n_evaluations"],
        "n_cache_hits": stats["n_cache_hits"],
    }


def _bench_scenario(
    dataset,
    stream,
    results: dict,
    *,
    worker_counts,
    chunk_sizes,
    worker_cache_size,
) -> dict[int, float]:
    """Run serial and every farm shape over one stream; return the chunked
    vs serial gain per worker count."""
    gains: dict[int, float] = {}
    serial = bench_protocol(
        dataset, stream, protocol="serial", n_workers=1,
        chunk_size=None, worker_cache_size=None,
    )
    results["serial"] = serial
    for n_workers in worker_counts:
        for chunk_size in chunk_sizes:
            label = f"chunked_{n_workers}w_c{chunk_size or 'auto'}"
            results[label] = bench_protocol(
                dataset, stream, protocol="chunked", n_workers=n_workers,
                chunk_size=chunk_size, worker_cache_size=worker_cache_size,
            )
        best_chunked = min(
            value["elapsed_seconds"]
            for key, value in results.items()
            if key.startswith(f"chunked_{n_workers}w")
        )
        gains[n_workers] = serial["elapsed_seconds"] / best_chunked
    return gains


def run_benchmark(*, quick: bool) -> dict:
    study = lille51()
    dataset = study.dataset
    n_generations = 5 if quick else 8
    batch_size = 48 if quick else 64
    worker_counts = (2, 4)
    chunk_sizes = (None,) if quick else (None, 8)

    streams = {
        "ga_trace": generation_stream(
            n_generations=n_generations, batch_size=batch_size,
            revisit_fraction=0.5, n_snps=dataset.n_snps,
        ),
        "service_steady_state": generation_stream(
            n_generations=n_generations, batch_size=batch_size,
            revisit_fraction=0.7, n_snps=dataset.n_snps, seed=2014,
        ),
        "cold": generation_stream(
            n_generations=max(2, n_generations // 2), batch_size=batch_size,
            revisit_fraction=0.0, n_snps=dataset.n_snps, seed=7,
        ),
    }

    report: dict = {
        "benchmark": "parallel_dispatch",
        "dataset": "lille51",
        "cpu_count": os.cpu_count(),
        "n_generations": n_generations,
        "batch_size": batch_size,
        "scenarios": {name: {} for name in streams},
        "headline": {},
    }

    for name, stream in streams.items():
        cold = name == "cold"
        gains = _bench_scenario(
            dataset,
            stream,
            report["scenarios"][name],
            worker_counts=worker_counts,
            # cold isolates dispatch overhead, so slave-side reuse is off
            chunk_sizes=(None,) if cold else chunk_sizes,
            worker_cache_size=0 if cold else None,
        )
        prefix = "" if name == "service_steady_state" else f"{name}_"
        for n_workers, gain in gains.items():
            report["headline"][
                f"{prefix}chunked_vs_serial_gain_at_{n_workers}_workers"
            ] = gain
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized smoke run")
    parser.add_argument("-o", "--output", default=DEFAULT_OUTPUT,
                        help=f"output JSON path (default {DEFAULT_OUTPUT})")
    args = parser.parse_args(argv)

    report = run_benchmark(quick=args.quick)

    for scenario, results in report["scenarios"].items():
        print(f"[{scenario}]")
        for label, result in results.items():
            print(
                f"  {label:24s} {result['elapsed_seconds']*1e3:9.1f} ms "
                f"({result['requests_per_second']:8.1f} req/s, "
                f"{result['n_evaluations']} evals)"
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
