"""The end-to-end performance ledger: one workload, one seed, one run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload scan-serial --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 40 --trace 1
    python3 perfbench/run.py --summary

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
runs the measured phase twice, first untraced, then with layer spans
recorded, and reports the per-layer metrics, the spans' coverage of wall
time and the tracing overhead.  Either way every operation
is checked against a serial in-process reference.  Progress goes to stderr;
stdout ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  ``--summary`` prints the medians of the results saved under
``.perfbench/results`` and the speed-up of ``scan-shm`` over
``scan-serial``.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: End-to-end metrics and their units, in the order of ``BENCHMARK.json``.
END_TO_END_UNITS = {
    "setup_s": "s",
    "windows_per_s": "1/s",
    "scan_p50_s": "s",
    "scan_p90_s": "s",
    "replay_p50_s": "s",
    "peak_rss_mb": "MiB",
}
#: Seconds one run measures, as ``run_seconds`` in ``BENCHMARK.json``.
RUN_SECONDS = 40.0
#: Fresh-interpreter set-ups per run; their median is ``setup_s``.
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small panels for the harness's smoke tests")
    parser.add_argument("--summary", action="store_true",
                        help="summarise the saved results instead of running")
    args = parser.parse_args(argv)
    if not args.summary and not args.workload:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_repro() -> float:
    """Import the checkout's ``repro``; returns the import time (seconds)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'repro'}; "
                         f"run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import repro

    elapsed = time.perf_counter() - start
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    return elapsed


def setup_samples(workload, n: int) -> list[float]:
    """``n`` fresh-interpreter set-ups, each timed from process start to READY."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for index in range(n):
        command = [sys.executable, str(HERE / "setup_probe.py"),
                   "--study", str(workload.study), *workload.setup_probe_args()]
        if "--server" in command:
            command += ["--journal-dir", str(WORK / f"probe-journal-{os.getpid()}-{index}")]
        start = time.perf_counter()
        process = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
        try:
            line = process.stdout.readline()
            elapsed = time.perf_counter() - start
            process.stdout.close()
            code = process.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        if line.strip() != "READY" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}): {' '.join(command)}")
        samples.append(elapsed)
    return samples


def end_to_end(phase, setup: list[float], rss_mb: float) -> dict[str, float]:
    from ledger import median, tail_percentile

    if not phase.latencies or not phase.replay_latencies:
        raise RuntimeError("the measured phase produced no computed or no replayed request")
    return {
        "setup_s": median(setup),
        "windows_per_s": phase.windows_per_s,
        "scan_p50_s": median(phase.latencies),
        "scan_p90_s": tail_percentile(phase.latencies)[1],
        "replay_p50_s": median(phase.replay_latencies),
        "peak_rss_mb": rss_mb + phase.worker_rss_mb,
    }


def run(args) -> int:
    import_s = import_repro()
    from ledger import (environment, log, peak_rss_mb, reset_peak_rss, result_line,
                        tail_percentile, write_json)
    from workloads import Settings, make_workload, worker_count

    settings = Settings(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        scale=args.scale,
        work=WORK,
        n_workers=worker_count(),
    )
    tracer = layers = None
    if args.trace:
        from layers import LayerTrace
        from spans import Tracer

        tracer = Tracer()
        layers = LayerTrace(tracer)
        layers.install()
    record: dict = {"workload": args.workload, "trace": args.trace, "scale": args.scale}
    workload = make_workload(settings, tracer)
    try:
        workload.load()
        record["inputs"] = workload.record()
        record["environment"] = environment(ROOT, n_workers=workload.n_workers)
        if tracer is not None:
            setup_spans = list(tracer.spans)
            tracer.recording = False
        log(f"{args.workload}: reference")
        workload.reference()
        if tracer is None:
            # the peak RSS of the measured phase alone: not of the reference
            # before it, nor of the checks after it
            reset_peak_rss()
            phase = workload.measure(args.seconds)
            rss_mb = peak_rss_mb()
            workload.check(phase)
            setup = setup_samples(workload, 1 if args.scale == "tiny" else SETUP_SAMPLES)
            values = end_to_end(phase, setup, rss_mb)
            metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
            pct, _ = tail_percentile(phase.latencies)
            record["samples"] = {
                "units": phase.units,
                "latencies": len(phase.latencies),
                "scan_p90_s_percentile": pct,
                "replay_latencies": len(phase.replay_latencies),
                "computed_s": phase.computed_s,
                "setup_s": setup,
            }
            outcomes = phase.outcomes
            record["fingerprint"] = phase.fingerprint
        else:
            metrics, outcomes = traced_run(workload, tracer, args, record, import_s, setup_spans)
    finally:
        if layers is not None:
            layers.uninstall()
        workload.close()

    record["outcomes"] = {
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "failed_frac": outcomes.failed_frac,
        "reasons": outcomes.reasons,
    }
    record["metrics"] = {name: value for name, (value, _unit) in metrics.items()}
    write_json(
        WORK / "results" / f"{args.workload}-{args.scale}-trace{args.trace}-seed{args.seed}.json",
        record,
    )
    summary = ", ".join(f"{name}={value:.6g} {unit}" for name, (value, unit) in metrics.items())
    print(f"{args.workload} seed {args.seed}: {summary}; failed_frac={outcomes.failed_frac:.6g}")
    print(json.dumps({"record": record}, sort_keys=True, default=str))
    print(result_line(correct=outcomes.failed == 0, outcomes=outcomes, metrics=metrics))
    return 0


def traced_run(workload, tracer, args, record, import_s, setup_spans):
    """An untraced phase, then a traced one; per-layer metrics from the traced."""
    from layers import PER_LAYER_UNITS, per_layer_metrics
    from ledger import log, median
    from spans import coverage, layer_table

    untraced = workload.measure(args.seconds)
    workload.check(untraced)
    tracer.spans = []
    tracer.recording = True
    traced = workload.measure(args.seconds)
    tracer.recording = False
    spans = tracer.spans
    workload.check(traced)

    substrate = [s.duration for s in spans if s.name == "runtime.substrate.setup"]
    loads = [s.duration for s in setup_spans if s.name == "genetics.load"]
    setup = {
        "runtime.import": import_s,
        "genetics.load": loads[0] if loads else 0.0,
        "runtime.substrate.setup": median(substrate) if substrate else 0.0,
    }
    counters = dict(traced.counters)
    counters["wall_s"] = sum(traced.computed_s)
    counters["n_workers"] = workload.n_workers
    overhead = traced.wall_s / traced.units - untraced.wall_s / untraced.units
    values = per_layer_metrics(
        spans,
        units=traced.units,
        counters=counters,
        setup=setup,
        coverage=coverage(spans),
        overhead_s=overhead,
    )
    table = layer_table(spans)
    record["self_time"] = {
        name: {k: round(v, 6) for k, v in row.items()}
        for name, row in sorted(table.items(), key=lambda item: -item[1]["self_s"])
    }
    record["units"] = {"untraced": untraced.units, "traced": traced.units}
    record["traced_wall_s"] = traced.wall_s
    record["untraced_wall_s_per_unit"] = untraced.wall_s / untraced.units
    record["fingerprint"] = traced.fingerprint
    log(f"{args.workload}: self time by layer ({traced.units} unit(s), "
        f"coverage {values['trace.coverage']:.1%}, overhead {overhead:+.4f} s/unit)")
    for name, row in record["self_time"].items():
        log(f"  {name:28s} {row['calls']:8.0f} calls {row['self_s']:10.4f} s self")
    outcomes = untraced.outcomes
    outcomes.merge(traced.outcomes)
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    return metrics, outcomes


def summary() -> int:
    """Medians of the saved untraced results, and the headline speed-up."""
    import statistics

    by_workload: dict[str, dict[int, dict]] = {}
    for path in sorted((WORK / "results").glob("*-full-trace0-seed*.json")):
        record = json.loads(path.read_text())
        by_workload.setdefault(record["workload"], {})[record["inputs"]["seed"]] = record
    if not by_workload:
        print("no saved results under .perfbench/results")
        return 1
    for workload, runs in sorted(by_workload.items()):
        names = sorted({name for r in runs.values() for name in r["metrics"]})
        cells = ", ".join(
            f"{name}={statistics.median(r['metrics'][name] for r in runs.values()):.6g}"
            for name in names
        )
        print(f"{workload} ({len(runs)} seed(s)): {cells}")
    serial = by_workload.get("scan-serial", {})
    shm = by_workload.get("scan-shm", {})
    common = sorted(set(serial) & set(shm))
    if common:
        ratios = [shm[s]["metrics"]["windows_per_s"] / serial[s]["metrics"]["windows_per_s"]
                  for s in common]
        workers = shm[common[0]]["environment"]["n_workers"]
        print(f"headline: scan-shm vs scan-serial windows_per_s = "
              f"{statistics.median(ratios):.3f}x at {workers} workers "
              f"(median of {len(common)} seed(s); reported, not gated)")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.summary:
        return summary()
    sys.path.insert(0, str(HERE))
    from ledger import adopt_orphans, stop_children

    adopt_orphans()
    try:
        return run(args)
    finally:
        # nothing this run started may outlive it
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
