"""Tests of the multiprocessing master/slave evaluator.

The worker pool is real (forked processes), so these tests keep the batches
small; the key property is bit-identical agreement with the serial evaluator.
"""

import os

import pytest

from repro.parallel.master_slave import MasterSlaveEvaluator, default_worker_count
from repro.parallel.serial import SerialEvaluator


def _product_fitness(snps):
    value = 1.0
    for s in snps:
        value *= (s + 1)
    return value


class TestConfiguration:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MasterSlaveEvaluator(_product_fitness, n_workers=0)
        with pytest.raises(ValueError):
            MasterSlaveEvaluator(_product_fitness, chunk_size=0)

    @pytest.mark.parametrize("n_workers", [0, -1, -4, 1.5, True])
    def test_rejects_non_positive_or_non_integer_worker_counts(self, n_workers):
        with pytest.raises(ValueError, match="positive integer"):
            MasterSlaveEvaluator(_product_fitness, n_workers=n_workers)

    def test_rejects_unknown_dispatch(self):
        with pytest.raises(ValueError, match="dispatch"):
            MasterSlaveEvaluator(_product_fitness, dispatch="quantum")

    def test_requires_exactly_one_fitness_source(self):
        with pytest.raises(ValueError):
            MasterSlaveEvaluator()

    def test_default_worker_count_positive(self):
        assert default_worker_count() >= 1

    def test_default_worker_count_honours_cpu_affinity(self, monkeypatch):
        # a process pinned to one CPU (taskset, cgroup cpuset) gets one slave,
        # however many CPUs the machine has
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert default_worker_count() == 1

    def test_default_worker_count_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert default_worker_count() == 3


class TestEvaluation:
    def test_matches_serial_on_toy_fitness(self):
        batch = [(0, 1), (2,), (1, 3, 4), (5, 6)]
        serial = SerialEvaluator(_product_fitness).evaluate_batch(batch)
        with MasterSlaveEvaluator(_product_fitness, n_workers=2) as master_slave:
            parallel = master_slave.evaluate_batch(batch)
        assert parallel == pytest.approx(serial)

    def test_matches_serial_on_real_evaluator(self, small_evaluator):
        batch = [(0, 1), (2, 5, 9), (3, 4), (1, 6, 10)]
        serial = [small_evaluator.evaluate(snps) for snps in batch]
        with MasterSlaveEvaluator(small_evaluator, n_workers=2) as master_slave:
            parallel = master_slave.evaluate_batch(batch)
        assert parallel == pytest.approx(serial, rel=1e-12)

    def test_empty_batch(self):
        with MasterSlaveEvaluator(_product_fitness, n_workers=2) as master_slave:
            assert master_slave.evaluate_batch([]) == []

    def test_stats_and_single_evaluate(self):
        with MasterSlaveEvaluator(_product_fitness, n_workers=2) as master_slave:
            assert master_slave.evaluate((1, 2)) == pytest.approx(6.0)
            master_slave.evaluate_batch([(0,), (1,)])
            assert master_slave.stats.n_evaluations == 3
            assert master_slave.n_workers == 2

    def test_closed_evaluator_rejects_work(self):
        master_slave = MasterSlaveEvaluator(_product_fitness, n_workers=2)
        master_slave.close()
        with pytest.raises(RuntimeError):
            master_slave.evaluate_batch([(1,)])
        master_slave.close()  # idempotent

    def test_terminate_is_idempotent(self):
        master_slave = MasterSlaveEvaluator(_product_fitness, n_workers=2)
        master_slave.terminate()
        master_slave.terminate()

    def test_context_manager_closes_and_close_stays_idempotent(self):
        with MasterSlaveEvaluator(_product_fitness, n_workers=2) as master_slave:
            master_slave.evaluate_batch([(1, 2)])
        with pytest.raises(RuntimeError):
            master_slave.evaluate_batch([(3,)])
        master_slave.close()  # after context exit: still a no-op
        master_slave.terminate()


def _failing_fitness(snps):
    raise RuntimeError("boom on " + repr(tuple(snps)))


def _fail_on_marker_fitness(snps):
    if any(s >= 90 for s in tuple(snps)):
        raise RuntimeError("marker haplotype")
    return float(sum(snps)) + 1.0


class TestChunkedDispatch:
    def test_matches_individual_dispatch(self, small_evaluator):
        batch = [(0, 1), (2, 5, 9), (3, 4), (0, 1), (1, 6, 10)]
        with MasterSlaveEvaluator(small_evaluator, n_workers=2) as individual:
            expected = individual.evaluate_batch(batch)
        with MasterSlaveEvaluator(
            small_evaluator, n_workers=2, dispatch="chunked"
        ) as chunked:
            assert chunked.dispatch == "chunked"
            assert chunked.evaluate_batch(batch) == pytest.approx(expected, rel=1e-12)

    def test_small_chunks_cover_the_whole_batch(self):
        with MasterSlaveEvaluator(
            _product_fitness, n_workers=2, dispatch="chunked", chunk_size=1,
            dedup=False, cache_size=0,
        ) as chunked:
            batch = [(i,) for i in range(7)]
            assert chunked.evaluate_batch(batch) == [float(i + 1) for i in range(7)]

    def test_worker_side_cache_reported_in_merged_stats(self):
        # master fast path off: repeats must travel to the slaves, whose
        # affinity-pinned local LRUs answer them without re-evaluating
        with MasterSlaveEvaluator(
            _product_fitness, n_workers=2, dispatch="chunked",
            dedup=False, cache_size=0,
        ) as chunked:
            chunked.evaluate_batch([(1,), (2,), (3,)])
            chunked.evaluate_batch([(1,), (2,), (4,)])
            assert chunked.stats.n_requests == 6
            assert chunked.stats.n_evaluations == 4
            assert chunked.stats.n_cache_hits == 2
            assert chunked.stats.backend_seconds >= 0.0

    def test_worker_exception_propagates_with_traceback(self):
        with MasterSlaveEvaluator(
            _failing_fitness, n_workers=2, dispatch="chunked"
        ) as chunked:
            with pytest.raises(RuntimeError, match="boom"):
                chunked.evaluate_batch([(1, 2)])

    def test_batches_after_a_worker_error_return_correct_values(self):
        # a failed batch must not leave stale messages (results *or* errors)
        # that a later batch consumes: task ids are farm-unique and stale
        # ids are discarded.  Markers 90-93 error on whichever slaves own
        # them, so the aborted batch leaves stale error tuples behind too.
        with MasterSlaveEvaluator(
            _fail_on_marker_fitness, n_workers=2, dispatch="chunked",
            chunk_size=1, dedup=False, cache_size=0,
        ) as chunked:
            with pytest.raises(RuntimeError, match="marker"):
                chunked.evaluate_batch([(1,), (90,), (91,), (92,), (93,), (2,)])
            assert chunked.evaluate_batch([(5,), (6,), (7,)]) == [6.0, 7.0, 8.0]

    def test_affinity_routing_is_deterministic(self):
        from repro.parallel.farm import affinity_worker

        key = (3, 7, 11)
        assert affinity_worker(key, 4) == affinity_worker(key, 4)
        assert 0 <= affinity_worker(key, 4) < 4


class TestStealDispatch:
    """The work-stealing engine: same values and counters, streamed completions."""

    def _batch(self, n=24):
        return [(i, i + 1, (i * 7) % 50 + 60) for i in range(n)]

    def test_steal_matches_affinity_values_and_counters(self):
        batch = self._batch()
        with MasterSlaveEvaluator(
            _product_fitness, n_workers=3, dispatch="chunked",
            dedup=False, cache_size=0,
        ) as affinity:
            expected = affinity.evaluate_batch(batch)
            counters = affinity.stats.counters()
        with MasterSlaveEvaluator(
            _product_fitness, n_workers=3, dispatch="chunked", steal=True,
            chunk_size=2, dedup=False, cache_size=0,
        ) as stealing:
            assert stealing.steal
            assert stealing.evaluate_batch(batch) == pytest.approx(expected)
            assert stealing.stats.counters() == counters

    def test_steal_requires_chunked_dispatch(self):
        with pytest.raises(ValueError, match="chunked"):
            MasterSlaveEvaluator(_product_fitness, n_workers=2, steal=True,
                                 dispatch="individual")
        with pytest.raises(ValueError, match="max_inflight"):
            from repro.parallel.farm import ChunkedWorkerFarm

            ChunkedWorkerFarm(lambda: _product_fitness, 2, max_inflight=0)

    def test_ticket_streaming_out_of_order_collect(self):
        from repro.parallel.farm import ChunkedWorkerFarm

        class Factory:
            def __call__(self):
                return _product_fitness

        with ChunkedWorkerFarm(Factory(), 2, steal=True, chunk_size=1) as farm:
            batches = [self._batch(6), self._batch(10)[6:], [(1, 2), (3, 4)]]
            tickets = [farm.submit(batch) for batch in batches]
            # collect in reverse submission order: earlier tickets' results
            # arrive meanwhile and are folded into their own state
            for ticket, batch in list(zip(tickets, batches))[::-1]:
                values, stats = farm.collect(ticket)
                assert values == [_product_fitness(snps) for snps in
                                  [tuple(sorted(b)) for b in batch]]
                assert stats.n_requests == len(batch)
            with pytest.raises(KeyError):
                farm.collect(tickets[0])  # already collected

    def test_as_completed_streams_every_ticket(self):
        from repro.parallel.farm import ChunkedWorkerFarm

        class Factory:
            def __call__(self):
                return _product_fitness

        with ChunkedWorkerFarm(Factory(), 2, steal=True, chunk_size=2) as farm:
            batches = {farm.submit(self._batch(8)): 8, farm.submit(self._batch(5)): 5}
            seen = {}
            for ticket, values, stats in farm.as_completed(list(batches)):
                seen[ticket] = len(values)
                # the second batch overlaps the first, so depending on which
                # slave serves a stolen chunk it may be answered entirely from
                # slave caches; only the request total is timing-invariant
                assert stats.n_evaluations + stats.n_cache_hits == len(values)
            assert seen == batches

    def test_concurrent_collects_from_different_threads_both_progress(self):
        """Two threads collecting different tickets must not serialise: the
        blocking outbox wait is taken by one drainer at a time while the
        other waits on the condition, and both tickets complete."""
        import threading

        from repro.parallel.farm import ChunkedWorkerFarm

        class Factory:
            def __call__(self):
                return _product_fitness

        with ChunkedWorkerFarm(Factory(), 2, steal=True, chunk_size=1) as farm:
            first = farm.submit(self._batch(12))
            second = farm.submit(self._batch(20)[12:])
            collected = {}

            def collect(ticket):
                collected[ticket] = farm.collect(ticket)

            threads = [
                threading.Thread(target=collect, args=(t,)) for t in (first, second)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert set(collected) == {first, second}
            assert len(collected[first][0]) == 12
            assert len(collected[second][0]) == 8

    def test_worker_error_under_steal_only_fails_its_ticket(self):
        from repro.parallel.farm import ChunkedWorkerFarm

        class Factory:
            def __call__(self):
                return _fail_on_marker_fitness

        with ChunkedWorkerFarm(Factory(), 2, steal=True, chunk_size=1) as farm:
            good = farm.submit([(1,), (2,), (3,)])
            bad = farm.submit([(4,), (90,), (5,)])
            with pytest.raises(RuntimeError, match="marker"):
                farm.collect(bad)
            values, _stats = farm.collect(good)
            assert values == [2.0, 3.0, 4.0]
            # the farm stays usable after the failed ticket
            values, _stats = farm.evaluate([(6,), (7,)])
            assert values == [7.0, 8.0]

    def test_steal_with_worker_caches_keeps_exact_accounting(self):
        # repeats travel to the slaves; whichever slave answers (owner or
        # thief), the merged counters must balance requests exactly
        with MasterSlaveEvaluator(
            _product_fitness, n_workers=2, dispatch="chunked", steal=True,
            chunk_size=1, dedup=False, cache_size=0,
        ) as stealing:
            stealing.evaluate_batch([(1,), (2,), (3,), (4,)])
            stealing.evaluate_batch([(1,), (2,), (5,)])
            stats = stealing.stats
            assert stats.n_requests == 7
            assert stats.n_evaluations + stats.n_cache_hits == 7


class TestFarmCloseIdempotency:
    """Satellite regression: double context-manager exit and close/terminate
    interleavings must all be safe no-ops after the first."""

    def _farm(self):
        from repro.parallel.farm import ChunkedWorkerFarm

        class Factory:
            def __call__(self):
                return _product_fitness

        return ChunkedWorkerFarm(Factory(), 2)

    def test_double_context_manager_exit(self):
        farm = self._farm()
        with farm:
            with farm:
                farm.evaluate([(1, 2)])
        assert farm.closed
        farm.close()  # and an explicit third close

    def test_close_then_terminate_then_close(self):
        farm = self._farm()
        farm.close()
        farm.terminate()
        farm.close()
        assert farm.closed

    def test_terminate_then_close(self):
        farm = self._farm()
        farm.terminate()
        farm.close()
        assert farm.closed

    def test_closed_farm_rejects_submit_and_evaluate(self):
        farm = self._farm()
        farm.close()
        with pytest.raises(RuntimeError):
            farm.submit([(1,)])
        with pytest.raises(RuntimeError):
            farm.evaluate([(1,)])
