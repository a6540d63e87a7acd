"""Edge-case tests of EvaluationStats merge/copy/since — the counter parity
backbone the work-stealing dispatch path must preserve."""

import threading
from dataclasses import fields

import pytest

from repro.parallel.base import EvaluationStats


def _filled(scale: int = 1) -> EvaluationStats:
    """Every field set, each to a distinct value of its own type."""
    return EvaluationStats(
        **{
            field.name: type(field.default)(index * scale)
            for index, field in enumerate(fields(EvaluationStats), start=1)
        }
    )


def test_filled_sets_every_field_to_a_distinct_value():
    values = [getattr(_filled(), field.name) for field in fields(EvaluationStats)]
    assert len(set(values)) == len(values) and 0 not in values


class TestMerge:
    def test_merge_empty_into_empty(self):
        stats = EvaluationStats()
        stats.merge(EvaluationStats())
        assert stats == EvaluationStats()

    def test_merge_empty_is_identity(self):
        stats = _filled()
        stats.merge(EvaluationStats())
        assert stats == _filled()

    def test_merge_into_empty_copies_everything(self):
        stats = EvaluationStats()
        stats.merge(_filled())
        assert stats == _filled()

    def test_merge_accumulates_all_fields(self):
        stats = _filled()
        stats.merge(_filled(2))
        assert stats == _filled(3)

    def test_merge_after_copy_leaves_the_copy_alone(self):
        stats = _filled()
        snapshot = stats.copy()
        stats.merge(_filled())
        assert snapshot == _filled()
        assert stats.n_requests == 2 * snapshot.n_requests

    def test_copy_is_independent_both_ways(self):
        stats = EvaluationStats()
        snapshot = stats.copy()
        snapshot.merge(_filled())
        assert stats == EvaluationStats()


class TestSince:
    def test_since_self_snapshot_is_zero(self):
        stats = _filled()
        assert stats.since(stats.copy()) == EvaluationStats()

    def test_since_empty_snapshot_is_everything(self):
        stats = _filled()
        assert stats.since(EvaluationStats()) == _filled()

    def test_since_scopes_exactly_the_delta(self):
        stats = _filled()
        before = stats.copy()
        stats.record_batch(5, 0.1, n_requests=8, n_dedup_hits=2, n_cache_hits=1,
                           backend_seconds=0.05)
        delta = stats.since(before)
        assert delta.n_evaluations == 5
        assert delta.n_requests == 8
        assert delta.n_batches == 1
        assert delta.n_dedup_hits == 2
        assert delta.n_cache_hits == 1
        assert delta.total_seconds == pytest.approx(0.1)
        assert delta.backend_seconds == pytest.approx(0.05)

    def test_since_scopes_recovery_counters(self):
        stats = _filled()
        before = stats.copy()
        stats.record_batch(
            5, 0.1, n_worker_deaths=2, n_chunks_replayed=3, n_worker_respawns=1
        )
        delta = stats.since(before)
        assert delta.n_worker_deaths == 2
        assert delta.n_chunks_replayed == 3
        assert delta.n_worker_respawns == 1

    def test_reuse_rate_of_empty_stats_is_zero(self):
        assert EvaluationStats().reuse_rate == 0.0
        assert EvaluationStats().mean_seconds_per_evaluation == 0.0
        assert EvaluationStats().mean_seconds_per_request == 0.0


class TestCountersContract:
    def test_counters_exclude_recovery_and_timing_fields(self):
        """counters() is the cross-backend parity contract: recovery events
        (like timings and stacked-EM counters) depend on *which* run survived
        a fault, not on the workload, so they must never enter it."""
        stats = _filled()
        counters = stats.counters()
        assert counters == {
            "n_requests": stats.n_requests,
            "n_evaluations": stats.n_evaluations,
            "n_batches": stats.n_batches,
            "n_dedup_hits": stats.n_dedup_hits,
            "n_cache_hits": stats.n_cache_hits,
        }
        for excluded in ("n_worker_deaths", "n_chunks_replayed", "n_worker_respawns"):
            assert excluded not in counters

    def test_recovery_counters_agree_between_faulty_and_clean_contract(self):
        clean = _filled()
        faulty = _filled()
        faulty.record_batch(0, 0.0, n_worker_deaths=3, n_chunks_replayed=4,
                            n_worker_respawns=2)
        faulty.n_batches -= 1  # undo the bookkeeping batch
        assert faulty.counters() == clean.counters()
        assert faulty != clean


class TestConcurrentJobScoping:
    def test_per_job_deltas_sum_to_substrate_total(self, small_dataset):
        """Concurrent jobs on one scheduler: each job's delta-scoped stats must
        partition the substrate's counters exactly (nothing lost, nothing
        double-counted) — the invariant the steal path leans on."""
        from repro.core.config import GAConfig
        from repro.runtime.service import RunRequest, RunScheduler

        config = GAConfig(
            population_size=12, max_haplotype_size=3,
            termination_stagnation=2, max_generations=3,
        )
        with RunScheduler(small_dataset, jobs=3) as scheduler:
            for i in range(6):
                scheduler.submit(RunRequest(config=config, seed=50 + i))
            results = [result for _job, result in scheduler.as_completed()]
            total = scheduler.stats
        assert sum(r.stats.n_requests for r in results) == total.n_requests
        assert sum(r.stats.n_evaluations for r in results) == total.n_evaluations
        assert sum(r.stats.n_batches for r in results) == total.n_batches
        assert (
            sum(r.stats.n_dedup_hits + r.stats.n_cache_hits for r in results)
            == total.n_dedup_hits + total.n_cache_hits
        )

    def test_interleaved_threads_delta_scope_without_loss(self):
        """since()-based delta scoping under raw thread interleaving."""
        from repro.parallel.serial import SerialEvaluator

        evaluator = SerialEvaluator(lambda snps: float(sum(snps)),
                                    dedup=False, cache_size=0)
        lock = threading.Lock()
        deltas = []

        def job(offset: int) -> None:
            local = EvaluationStats()
            for i in range(25):
                with lock:
                    before = evaluator.stats.copy()
                    evaluator.evaluate_batch([(offset + i,), (offset + i, offset + i + 1)])
                    local.merge(evaluator.stats.since(before))
            deltas.append(local)

        threads = [threading.Thread(target=job, args=(1000 * t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(d.n_requests for d in deltas) == evaluator.stats.n_requests == 200
        assert sum(d.n_evaluations for d in deltas) == evaluator.stats.n_evaluations
        assert sum(d.n_batches for d in deltas) == evaluator.stats.n_batches == 100
