"""Layer spans around the program's public functions, installed from outside.

Nothing under ``src/`` changes: :class:`LayerTrace` replaces each function
or method named in :data:`WRAPS` with a wrapper that records a span, and
puts the originals back on :meth:`LayerTrace.uninstall`.  A module-level
function is replaced in every ``repro`` module that bound it by name (``from
.em import expand_phases``), so callers see the wrapper wherever they look
it up.  Span names start with the ``src/repro`` package the function lives
in, which is the layer.

:func:`per_layer_metrics` turns the recorded spans, plus the counters the
program already returns, into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass
from typing import Callable

from spans import Span, Tracer, layer_table

__all__ = ["WRAPS", "LayerTrace", "per_layer_metrics", "PER_LAYER_UNITS"]


def _batch_size(span: Span, args: tuple, kwargs: dict, result) -> None:
    span.count = len(result)


def _ga_generations(span: Span, args: tuple, kwargs: dict, result) -> None:
    span.count = int(result.n_generations)


def _em_iterations_batch(span: Span, args: tuple, kwargs: dict, result) -> None:
    span.count = sum(int(r.em.n_iterations) for r in result)


def _em_iterations_scalar(span: Span, args: tuple, kwargs: dict, result) -> None:
    span.count = int(result.em.n_iterations)


@dataclass(frozen=True)
class Wrap:
    """One function to wrap: ``module``, dotted ``attr`` and span ``name``.

    ``after`` sees ``(span, args, kwargs, result)`` once the call returns
    and may attach counts to the span.
    """

    module: str
    attr: str
    name: str
    after: Callable | None = None


#: Every layer boundary the benchmark records, grouped by layer.
WRAPS: tuple[Wrap, ...] = (
    # genetics: reading a study directory
    Wrap("repro.genetics.io", "read_study_tables", "genetics.load"),
    # core: the GA engine (its self time is GA planning)
    Wrap("repro.core.ga", "AdaptiveMultiPopulationGA.run", "core.ga", _ga_generations),
    # parallel: dedup + master LRU, then the backend call
    Wrap("repro.parallel.base", "BaseBatchEvaluator.evaluate_batch", "parallel.batch",
         _batch_size),
    Wrap("repro.parallel.serial", "SerialEvaluator._evaluate_distinct_details",
         "parallel.backend"),
    Wrap("repro.parallel.master_slave", "MasterSlaveEvaluator._evaluate_distinct_details",
         "parallel.backend"),
    Wrap("repro.parallel.farm", "ChunkedWorkerFarm.submit", "parallel.farm.submit"),
    Wrap("repro.parallel.farm", "ChunkedWorkerFarm.collect", "parallel.farm.wait"),
    # stats: the fitness function (in this process only)
    Wrap("repro.stats.evaluation", "HaplotypeEvaluator.evaluate_many", "stats.evaluate_many"),
    Wrap("repro.stats.evaluation", "HaplotypeEvaluator.evaluate", "stats.evaluate"),
    Wrap("repro.stats.em", "PhaseExpansionCache.get", "stats.expand_cache"),
    Wrap("repro.stats.em", "expand_phases", "stats.expand"),
    Wrap("repro.stats.em", "expand_phases_packed", "stats.expand"),
    Wrap("repro.stats.ehdiall", "ehdiall_batch", "stats.em.stacked", _em_iterations_batch),
    Wrap("repro.stats.ehdiall", "ehdiall_from_expansion", "stats.em.scalar",
         _em_iterations_scalar),
    Wrap("repro.stats.clump", "clump_statistics", "stats.clump"),
    Wrap("repro.stats.chi2", "chi2_sf", "stats.chi2"),
    # runtime: the scheduler, the daemon and its client
    Wrap("repro.runtime.service", "RunScheduler.__init__", "runtime.substrate.setup"),
    Wrap("repro.runtime.service", "RunScheduler.close", "runtime.substrate.close"),
    Wrap("repro.runtime.service", "RunScheduler._execute", "runtime.scheduler.job"),
    Wrap("repro.runtime.service", "_JobEvaluator.evaluate_batch", "runtime.scheduler.batch"),
    Wrap("repro.runtime.server", "ScanServer.__init__", "runtime.server.setup"),
    Wrap("repro.runtime.server", "ScanServer._serve_scan", "runtime.server.scan"),
    Wrap("repro.runtime.server", "AdmissionController.admit", "runtime.server.admission"),
    Wrap("repro.runtime.server", "WindowResultCache.get", "runtime.server.cache"),
    Wrap("repro.runtime.server", "WindowResultCache.put", "runtime.server.cache"),
    Wrap("repro.runtime.client", "ScanClient.__init__", "runtime.client.connect"),
    Wrap("repro.runtime.client", "ScanClient.scan", "runtime.client.scan"),
    # scan: planning, the runner and the journal
    Wrap("repro.scan.planner", "plan_scan", "scan.plan"),
    Wrap("repro.scan.runner", "execute_plan", "scan.runner"),
    Wrap("repro.scan.checkpoint", "ScanJournal.open", "scan.journal.open"),
    Wrap("repro.scan.checkpoint", "ScanJournal.append", "scan.journal"),
)


class LayerTrace:
    """Installs the :data:`WRAPS` wrappers around one :class:`Tracer`.

    A served scan's handler span is linked to the client span that asked
    for it: the client wrapper records which span is open for its
    ``client_id`` and the server wrapper takes that span as its parent, so
    the client span's self time is what the socket and the client cost.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._restore: list[tuple[object, str, object]] = []
        self._client_spans: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    def _wrapper(self, fn: Callable, wrap: Wrap) -> Callable:
        tracer = self.tracer
        name = wrap.name
        after = wrap.after
        client_spans = self._client_spans
        is_client_scan = name == "runtime.client.scan"
        is_server_scan = name == "runtime.server.scan"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = None
            if is_server_scan:
                # _serve_scan(self, conn, client_id, envelope)
                parent = client_spans.get(args[2] if len(args) > 2 else kwargs.get("client_id"))
            span = tracer.start(name, parent=parent)
            if is_client_scan:
                client_spans[args[0].client_id] = span.id
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("already installed")
        for wrap in WRAPS:
            module = importlib.import_module(wrap.module)
            owner_name, _, attr = wrap.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrapper(raw.__func__, wrap))
                elif isinstance(raw, staticmethod):
                    replacement = staticmethod(self._wrapper(raw.__func__, wrap))
                else:
                    replacement = self._wrapper(raw, wrap)
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, replacement)
                continue
            original = getattr(module, attr)
            replacement = self._wrapper(original, wrap)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, replacement)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTrace":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()


# ---------------------------------------------------------------------- #
# per-layer metrics
# ---------------------------------------------------------------------- #
#: Units of every per-layer metric, in the order they are printed.
PER_LAYER_UNITS: dict[str, str] = {
    "core.ga.self_s": "s",
    "core.ga.generations": "count",
    "parallel.batch.calls": "count",
    "parallel.batch.requests": "count",
    "parallel.batch.self_s": "s",
    "parallel.reuse_ratio": "ratio",
    "parallel.farm.busy_s": "s",
    "parallel.farm.utilisation": "ratio",
    "parallel.stack.mean_problems": "count",
    "stats.evaluate_many.self_s": "s",
    "stats.expand.calls": "count",
    "stats.expand.s": "s",
    "stats.expand_cache.hit_ratio": "ratio",
    "stats.em.stacked_calls": "count",
    "stats.em.stacked_s": "s",
    "stats.em.scalar_calls": "count",
    "stats.em.scalar_s": "s",
    "stats.em.iterations": "count",
    "stats.clump.calls": "count",
    "stats.clump.self_s": "s",
    "stats.chi2.calls": "count",
    "stats.chi2.s": "s",
    "genetics.load_s": "s",
    "runtime.import_s": "s",
    "runtime.substrate.setup_s": "s",
    "runtime.server.exec_s": "s",
    "runtime.server.admission_wait_s": "s",
    "runtime.server.cache_hit_ratio": "ratio",
    "runtime.client.overhead_s": "s",
    "runtime.client.retries": "count",
    "scan.plan_s": "s",
    "scan.runner.self_s": "s",
    "scan.journal.appends": "count",
    "scan.journal.s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


def _row(table: dict, name: str) -> dict:
    return table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})


def per_layer_metrics(
    spans: list[Span],
    *,
    units: int,
    counters: dict,
    setup: dict,
    coverage: float,
    overhead_s: float,
) -> dict[str, float]:
    """The per-layer metrics of one traced phase.

    ``spans`` are the traced phase's spans and ``units`` the number of work
    units it ran (see the workload); times and counts are reported per unit,
    so they compare across runs that fitted a different number of units in
    ``--seconds``.  ``counters`` carries what the program itself returned
    for the phase (``EvaluationStats`` fields, the served reports' admission
    waits and retries, ``ScanServer.status()``'s cache account) and the
    wall time and worker count the farm utilisation divides by.  ``setup``
    holds the one-off set-up spans' times.
    """
    table = layer_table(spans)
    per = 1.0 / max(units, 1)

    def calls(name: str) -> float:
        return _row(table, name)["calls"] * per

    def own(name: str) -> float:
        return _row(table, name)["self_s"] * per

    def count(name: str) -> float:
        return sum(s.count for s in spans if s.name == name) * per

    expand_children = {s.parent for s in spans if s.name == "stats.expand"}
    lookups = [s for s in spans if s.name == "stats.expand_cache"]
    expand_hits = sum(1 for s in lookups if s.id not in expand_children)
    # the scalar kernel also runs inside the stacked one (its fallback);
    # those iterations are already in the stacked span's count
    stacked_ids = {s.id for s in spans if s.name == "stats.em.stacked"}
    em_iterations = count("stats.em.stacked") + sum(
        s.count for s in spans if s.name == "stats.em.scalar" and s.parent not in stacked_ids
    ) * per

    by_id = {s.id: s for s in spans}
    admission_in_scan = sum(
        s.duration
        for s in spans
        if s.name == "runtime.server.admission"
        and by_id.get(s.parent) is not None
        and by_id[s.parent].name == "runtime.server.scan"
    )
    server_exec = (_row(table, "runtime.server.scan")["total_s"] - admission_in_scan) * per

    backend_seconds = counters.get("backend_seconds", 0.0)
    # the serial backend measures no worker time; its busy time is the
    # in-process backend call
    busy = backend_seconds if backend_seconds > 0 else _row(table, "parallel.backend")["total_s"]
    wall = counters.get("wall_s", 0.0)
    n_workers = counters.get("n_workers", 1)
    n_requests = counters.get("n_requests", 0)
    n_stacked = counters.get("n_stacked_em", 0)

    metrics = {
        "core.ga.self_s": own("core.ga"),
        "core.ga.generations": count("core.ga"),
        "parallel.batch.calls": calls("parallel.batch"),
        "parallel.batch.requests": count("parallel.batch"),
        "parallel.batch.self_s": own("parallel.batch"),
        "parallel.reuse_ratio": (
            (n_requests - counters.get("n_evaluations", 0)) / n_requests if n_requests else 0.0
        ),
        "parallel.farm.busy_s": busy * per,
        "parallel.farm.utilisation": busy / (n_workers * wall) if wall > 0 else 0.0,
        "parallel.stack.mean_problems": (
            counters.get("n_stacked_problems", 0) / n_stacked if n_stacked else 0.0
        ),
        "stats.evaluate_many.self_s": own("stats.evaluate_many"),
        "stats.expand.calls": calls("stats.expand"),
        "stats.expand.s": own("stats.expand"),
        "stats.expand_cache.hit_ratio": expand_hits / len(lookups) if lookups else 0.0,
        "stats.em.stacked_calls": calls("stats.em.stacked"),
        "stats.em.stacked_s": own("stats.em.stacked"),
        "stats.em.scalar_calls": calls("stats.em.scalar"),
        "stats.em.scalar_s": own("stats.em.scalar"),
        "stats.em.iterations": em_iterations,
        "stats.clump.calls": calls("stats.clump"),
        "stats.clump.self_s": own("stats.clump"),
        "stats.chi2.calls": calls("stats.chi2"),
        "stats.chi2.s": own("stats.chi2"),
        "genetics.load_s": setup.get("genetics.load", 0.0),
        "runtime.import_s": setup.get("runtime.import", 0.0),
        "runtime.substrate.setup_s": setup.get("runtime.substrate.setup", 0.0),
        "runtime.server.exec_s": server_exec,
        "runtime.server.admission_wait_s": counters.get("admission_wait_s", 0.0) * per,
        "runtime.server.cache_hit_ratio": counters.get("result_cache_hit_ratio", 0.0),
        "runtime.client.overhead_s": own("runtime.client.scan"),
        "runtime.client.retries": counters.get("client_retries", 0) * per,
        "scan.plan_s": own("scan.plan"),
        "scan.runner.self_s": own("scan.runner"),
        "scan.journal.appends": calls("scan.journal"),
        "scan.journal.s": own("scan.journal"),
        "trace.coverage": coverage,
        "trace.overhead_s": overhead_s,
    }
    if set(metrics) != set(PER_LAYER_UNITS):
        raise RuntimeError("per-layer metrics and their unit table disagree")
    return metrics
