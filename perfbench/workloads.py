"""The workloads of the performance ledger.

Each workload loads its seeded study directory, computes a reference result
on the serial in-process path (untimed), then runs a measured phase of
*units* for a given number of seconds and checks every operation of it
against the reference.

* ``scan-serial`` / ``scan-shm``: a unit is one computed scan of the
  123-window plan on a fresh :class:`RunScheduler` (cold caches), followed
  by a replay of the same plan on that warm scheduler, where the master
  fitness cache answers every request.  An operation is one window.
* ``serve-mix``: a unit is one scan request of the closed-loop client mix
  against a ``ScanServer``; the phase runs in four rounds, each against a
  fresh server.  An operation is one scan request.

Latency samples are the requests a caller of that interface blocks on: a
window job for the in-process scans (``WindowResult.elapsed_seconds``), a
whole served scan for the daemon.  Throughput comes from the wall clock: the
scans' from the stretches between window completions, which add up to the
scan's wall time, the daemon's from the clients' request latencies.

The host these figures were first taken on (2 vCPUs shared with other
tenants) runs a fixed CPU loop anywhere between 23 and 39 ms, switching
every 5 to 20 seconds, and process CPU time drifts with it.  Every workload
repeats identical rounds, so it reports each request's (and each stretch's)
least disturbed time over the rounds, and throughput from those times.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import random
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from inputs import panel_spec, study_dir
from ledger import Outcomes, log, median, worker_peak_rss_mb

__all__ = ["WORKLOADS", "Settings", "Phase", "make_workload", "worker_count"]

WORKLOADS = ("scan-serial", "scan-shm", "serve-mix")


def worker_count() -> int:
    """``nproc``: the processors this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass(frozen=True)
class Settings:
    workload: str
    seed: int
    seconds: float
    scale: str
    #: the checkout's scratch directory (study cache, journals, results)
    work: Path
    n_workers: int


@dataclass
class Phase:
    """What one measured phase produced."""

    #: seconds of each computed scan (serve-mix: the rounds' wall time)
    computed_s: list[float] = field(default_factory=list)
    windows_per_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    replay_latencies: list[float] = field(default_factory=list)
    #: seconds each whole unit took (computed part, replay and its set-up)
    unit_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    outcomes: Outcomes = field(default_factory=Outcomes)
    #: EvaluationStats fields and service counters summed over the phase
    counters: dict = field(default_factory=dict)
    worker_rss_mb: float = 0.0
    fingerprint: str = ""

    @property
    def units(self) -> int:
        return len(self.unit_s)

    def add_stats(self, stats) -> None:
        for key, value in stats.__dict__.items():
            if isinstance(value, (int, float)) and not key.startswith("_"):
                self.counters[key] = self.counters.get(key, 0) + value


def _scan_key(windows) -> list[tuple]:
    """The per-window fingerprint the correctness gate compares."""
    return [(w.window.index, tuple(w.best_snps), float(w.best_fitness)) for w in windows]


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _deadline_reached(started: float, seconds: float, unit_s: list[float]) -> bool:
    """Stop before a unit that would end past the measured interval."""
    return time.perf_counter() - started + median(unit_s) > seconds


class _Workload:
    panel = ""
    backend = ""

    def __init__(self, settings: Settings, tracer=None) -> None:
        self.s = settings
        self.tracer = tracer
        self.spec = panel_spec(self.panel, settings.scale)
        self.study = study_dir(self.spec, settings.seed, settings.work / "data")
        self.dataset = None

    @property
    def n_workers(self) -> int:
        return 1 if self.backend == "serial" else self.s.n_workers

    def _scheduler_kwargs(self) -> dict:
        if self.backend == "serial":
            return {"backend": "serial"}
        return {"backend": self.backend, "n_workers": self.s.n_workers}

    def load(self) -> None:
        from repro.genetics.io import read_study_tables

        self.dataset, _freq, _ld = read_study_tables(self.study)

    def record(self) -> dict:
        """Inputs for the output record: seed, study and panel shape."""
        return {
            "seed": self.s.seed,
            "panel": self.spec.key(self.s.seed),
            "n_individuals": int(self.dataset.n_individuals),
            "n_snps": int(self.dataset.n_snps),
        }

    def check(self, phase: "Phase") -> None:
        """Checks left until after the measured phase (none by default)."""

    def close(self) -> None:
        """Release what :meth:`reference` kept open (nothing by default)."""

    def _span(self, name: str, parent=None):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, parent=parent)


# ---------------------------------------------------------------------- #
# scans in process
# ---------------------------------------------------------------------- #
class ScanWorkload(_Workload):
    """The ``bench_scan.py`` job stream on one backend."""

    panel = "large249"
    window_size = 5
    overlap = 3

    def __init__(self, settings: Settings, tracer=None, *, backend: str) -> None:
        super().__init__(settings, tracer)
        self.backend = backend

    def config(self):
        from repro.core.config import GAConfig

        # bench_scan.py's per-window GA
        return GAConfig(
            population_size=10,
            min_haplotype_size=2,
            max_haplotype_size=3,
            termination_stagnation=2,
            max_generations=4,
            point_mutation_trials=1,
        )

    def load(self) -> None:
        from repro.scan.planner import plan_scan

        super().load()
        self.plan = plan_scan(
            self.dataset.n_snps,
            window_size=self.window_size,
            overlap=self.overlap,
            config=self.config(),
            seed=self.s.seed,
        )

    def reference(self) -> None:
        from repro.runtime.service import RunScheduler
        from repro.scan.runner import execute_plan

        with RunScheduler(self.dataset, backend="serial") as scheduler:
            windows = execute_plan(self.plan, scheduler)
            self.ref_counters = scheduler.stats.counters()
        self.ref_key = _scan_key(windows)

    def record(self) -> dict:
        return {**super().record(), "n_windows": self.plan.n_windows}

    def _check(self, phase: Phase, windows, *, replay: bool) -> None:
        got = _scan_key(windows)
        if len(got) != len(self.ref_key):
            phase.outcomes.record("missing-windows")
        for mine, ref in zip(got, self.ref_key):
            phase.outcomes.record("" if mine == ref else ("replay-mismatch" if replay else "mismatch"))

    def measure(self, seconds: float) -> Phase:
        phase = Phase(fingerprint=_digest(self.ref_key))
        with self._span("bench.measure"):
            self._loop(phase, seconds)
        return phase

    def _loop(self, phase: Phase, seconds: float) -> None:
        from repro.runtime.service import RunScheduler
        from repro.scan.runner import execute_plan

        # per round: the wall-clock stretches between the scan's start, each
        # window's completion and the scan's return, which sum to the
        # scan's wall time; and each window's job time, computed and replayed
        stretches: list[list[float]] = []
        jobs: list[list[float]] = []
        replay_jobs: list[list[float]] = []
        started = time.perf_counter()
        while not phase.unit_s or not _deadline_reached(started, seconds, phase.unit_s):
            unit_start = time.perf_counter()
            with RunScheduler(self.dataset, **self._scheduler_kwargs()) as scheduler:
                stamps = [time.perf_counter()]
                windows = execute_plan(
                    self.plan, scheduler, progress=lambda _w: stamps.append(time.perf_counter())
                )
                stamps.append(time.perf_counter())
                stats = scheduler.stats
                # the same plan again: every request is a master-cache hit
                replay = execute_plan(self.plan, scheduler)
                t2 = time.perf_counter()
                replay_stats = scheduler.stats.since(stats)
                phase.worker_rss_mb = max(phase.worker_rss_mb, worker_peak_rss_mb())
            phase.unit_s.append(time.perf_counter() - unit_start)
            phase.computed_s.append(stamps[-1] - stamps[0])
            stretches.append([b - a for a, b in zip(stamps, stamps[1:])])
            jobs.append([w.elapsed_seconds for w in windows])
            replay_jobs.append([w.elapsed_seconds for w in replay])
            phase.add_stats(stats)
            self._check(phase, windows, replay=False)
            self._check(phase, replay, replay=True)
            # the scan's totals must match the serial scan's exactly, and the
            # replay must evaluate nothing
            phase.outcomes.record("" if stats.counters() == self.ref_counters else "counters")
            phase.outcomes.record("replay-evaluated" if replay_stats.n_evaluations else "")
            log(f"  {self.s.workload}: scan {phase.computed_s[-1]:.3f} s, "
                f"replay {t2 - stamps[-1]:.3f} s")
        phase.wall_s = time.perf_counter() - started
        # every round does the same work, so each stretch of the scan's wall
        # clock at its least disturbed is its best estimate, and the scan
        # costs their sum; latencies are each window's least disturbed job
        phase.windows_per_s = len(self.ref_key) / sum(min(s) for s in zip(*stretches))
        phase.latencies = [min(times) for times in zip(*jobs)]
        phase.replay_latencies = [min(times) for times in zip(*replay_jobs)]

    def setup_probe_args(self) -> list[str]:
        return ["--scheduler", self.backend, "--workers", str(self.n_workers)]


# ---------------------------------------------------------------------- #
# the daemon under a closed-loop client mix
# ---------------------------------------------------------------------- #
@dataclass
class _Op:
    client: int
    #: position in the client's sequence, the same in every round
    index: int
    kind: str  # "fresh" | "replay"
    seed: int
    latency: float
    report: object = None
    error: str = ""


@dataclass
class _Round:
    ops: list[_Op]
    status: dict
    wall_s: float
    worker_rss_mb: float


class ServeWorkload(_Workload):
    """``nproc`` closed-loop clients against one warm ``ScanServer``.

    Each client runs its own seeded sequence: three of every four scans use
    a seed no scan has used before, the fourth repeats one of that client's
    earlier seeds, which the server answers from its result cache.
    """

    panel = "served60"
    backend = "process-shm"
    window_size = 4
    overlap = 2
    #: every fourth scan of a client repeats one of its earlier seeds
    REPEAT_EVERY = 4
    #: rounds per measured phase, each against a fresh server
    ROUNDS = 4

    def config(self):
        from repro.core.config import GAConfig

        # bench_serve.py's scan recipe: many cheap clamped windows
        return GAConfig(
            population_size=6,
            min_haplotype_size=2,
            max_haplotype_size=2,
            termination_stagnation=1,
            max_generations=2,
            point_mutation_trials=1,
        )

    def reference(self) -> None:
        from repro.runtime.service import RunScheduler

        # references are computed after each phase, for the seeds it used,
        # on one serial scheduler whose caches stay warm across seeds
        self._ref_scheduler = RunScheduler(self.dataset, backend="serial")
        self._ref_keys: dict[int, list[tuple]] = {}

    def _reference_key(self, seed: int) -> list[tuple]:
        from repro.scan.planner import plan_scan
        from repro.scan.runner import execute_plan

        key = self._ref_keys.get(seed)
        if key is None:
            plan = plan_scan(
                self.dataset.n_snps,
                window_size=self.window_size,
                overlap=self.overlap,
                config=self.config(),
                seed=seed,
            )
            key = self._ref_keys[seed] = _scan_key(execute_plan(plan, self._ref_scheduler))
        return key

    def close(self) -> None:
        scheduler = getattr(self, "_ref_scheduler", None)
        if scheduler is not None:
            scheduler.close()

    def _fresh_seed(self, client: int, index: int) -> int:
        # unique across clients, so a fresh scan never meets another
        # client's cached windows
        return self.s.seed * 1_000_000 + index * self.s.n_workers + client

    def _client_loop(self, client_index, address, clock, ops, lock, barrier, root) -> None:
        from repro.runtime.client import ScanClient

        config = self.config()
        rng = random.Random(f"{self.s.seed}:{client_index}")
        fresh_seeds: list[int] = []
        try:
            client = ScanClient(address, client_id=f"client-{client_index}",
                                retry_seed=client_index)
        except BaseException:
            barrier.abort()  # release the other parties instead of hanging them
            raise
        with client:
            barrier.wait()
            with self._span("bench.client", parent=root):
                k = 0
                while time.perf_counter() < clock["deadline"]:
                    if k % self.REPEAT_EVERY == self.REPEAT_EVERY - 1 and fresh_seeds:
                        kind, seed = "replay", rng.choice(fresh_seeds)
                    else:
                        kind, seed = "fresh", self._fresh_seed(client_index, k)
                    start = time.perf_counter()
                    try:
                        report = client.scan(
                            window_size=self.window_size,
                            overlap=self.overlap,
                            config=config,
                            seed=seed,
                        )
                        op = _Op(client_index, k, kind, seed, time.perf_counter() - start,
                                 report)
                    except Exception as exc:  # every failure is counted, none stops the mix
                        op = _Op(client_index, k, kind, seed, time.perf_counter() - start,
                                 error=type(exc).__name__)
                    if kind == "fresh" and not op.error:
                        fresh_seeds.append(seed)
                    with lock:
                        ops.append(op)
                    k += 1

    def measure(self, seconds: float) -> Phase:
        """``ROUNDS`` rounds, each against a fresh server for an equal share
        of ``seconds``; every client replays the same sequence each round."""
        phase = Phase()
        self._rounds = [self._round(seconds / self.ROUNDS) for _ in range(self.ROUNDS)]
        phase.wall_s = sum(r.wall_s for r in self._rounds)
        phase.worker_rss_mb = max(r.worker_rss_mb for r in self._rounds)
        return phase

    def _round(self, seconds: float) -> "_Round":
        from repro.runtime.server import ScanServer

        journal_dir = self.s.work / f"journal-{os.getpid()}"
        shutil.rmtree(journal_dir, ignore_errors=True)
        ops: list[_Op] = []
        lock = threading.Lock()
        n_clients = self.s.n_workers
        clock: dict[str, float] = {}

        def start_clock() -> None:
            # runs once every client has connected, before any is released
            clock["start"] = time.perf_counter()
            clock["deadline"] = clock["start"] + seconds

        barrier = threading.Barrier(n_clients + 1, action=start_clock)
        with ScanServer(
            self.dataset,
            backend=self.backend,
            n_workers=self.s.n_workers,
            journal_dir=str(journal_dir),
        ) as server:
            address = server.start(("127.0.0.1", 0))
            with self._span("bench.measure") as root:
                threads = [
                    threading.Thread(
                        target=self._client_loop,
                        args=(index, address, clock, ops, lock, barrier,
                              None if root is None else root.id),
                        name=f"client-{index}",
                    )
                    for index in range(n_clients)
                ]
                for thread in threads:
                    thread.start()
                try:
                    barrier.wait(timeout=120)
                except threading.BrokenBarrierError:
                    raise RuntimeError("a client could not connect to the server") from None
                for thread in threads:
                    thread.join(timeout=seconds + 120)
                wall = time.perf_counter() - clock["start"]
            if any(thread.is_alive() for thread in threads):
                raise RuntimeError("a client thread did not finish")
            status = server.status()
            worker_rss = worker_peak_rss_mb()
        shutil.rmtree(journal_dir, ignore_errors=True)
        return _Round(ops=ops, status=status, wall_s=wall, worker_rss_mb=worker_rss)

    def check(self, phase: Phase) -> None:
        """Check every request against its serial reference and tally it."""
        from repro.parallel.base import EvaluationStats

        ops = [op for r in self._rounds for op in r.ops]
        for op in ops:
            if op.error:
                reason = "rejected" if op.error == "AdmissionRejected" else f"raised:{op.error}"
                phase.outcomes.record(reason)
                continue
            report = op.report
            problems = [
                "" if _scan_key(report.windows) == self._reference_key(op.seed) else "mismatch",
                "retried" if report.n_client_retries else "",
            ]
            if op.kind == "replay" and report.n_cached_windows != report.n_windows:
                problems.append("replay-not-cached")
            phase.outcomes.record(*problems)
        # each request's least disturbed latency over the rounds that made it
        fastest: dict[tuple[int, int], _Op] = {}
        for op in ops:
            if not op.error:
                best = fastest.get((op.client, op.index))
                if best is None or op.latency < best.latency:
                    fastest[(op.client, op.index)] = op
        phase.latencies = [op.latency for op in fastest.values() if op.kind == "fresh"]
        phase.replay_latencies = [op.latency for op in fastest.values() if op.kind == "replay"]
        # a closed loop of N clients that never pause completes N requests
        # per mean response time (Little's law)
        n_clients = self.s.n_workers
        busy = sum(op.latency for op in fastest.values())
        phase.windows_per_s = n_clients * sum(
            op.report.n_windows for op in fastest.values()) / busy
        phase.unit_s = [op.latency for op in ops]
        phase.computed_s = [phase.wall_s]
        served = [op.report for op in ops if not op.error]
        for r in self._rounds:
            phase.add_stats(EvaluationStats(**r.status["stats"]))
        hits = sum(r.status["result_cache"]["n_hits"] for r in self._rounds)
        lookups = hits + sum(r.status["result_cache"]["n_misses"] for r in self._rounds)
        phase.counters["result_cache_hit_ratio"] = hits / lookups if lookups else 0.0
        phase.counters["admission_wait_s"] = sum(r.admission_wait_seconds for r in served)
        phase.counters["client_retries"] = sum(r.n_client_retries for r in served)
        phase.fingerprint = _digest(sorted(
            (op.seed, _scan_key(op.report.windows)) for op in fastest.values() if op.kind == "fresh"
        ))

    def setup_probe_args(self) -> list[str]:
        return ["--server", "--workers", str(self.s.n_workers), "--clients", str(self.s.n_workers)]


def make_workload(settings: Settings, tracer=None) -> _Workload:
    if settings.workload == "scan-serial":
        return ScanWorkload(settings, tracer, backend="serial")
    if settings.workload == "scan-shm":
        return ScanWorkload(settings, tracer, backend="process-shm")
    if settings.workload == "serve-mix":
        return ServeWorkload(settings, tracer)
    raise ValueError(f"unknown workload {settings.workload!r}; choose from {', '.join(WORKLOADS)}")
