"""Tests of the persistent RunScheduler (one substrate, many runs)."""

import pytest

from repro.core.config import GAConfig
from repro.runtime.service import RunRequest, RunScheduler
from repro.runtime.spec import EvaluatorSpec


@pytest.fixture(scope="module")
def quick_config():
    return GAConfig(
        population_size=12,
        max_haplotype_size=3,
        termination_stagnation=2,
        max_generations=4,
    )


def _requests(quick_config, n=4):
    return [RunRequest(config=quick_config, seed=100 + i) for i in range(n)]


def _result_key(result):
    return [
        (size, ind.snps, ind.fitness_value())
        for size, ind in sorted(result.result.best_per_size.items())
    ]


class TestRunScheduler:
    def test_submit_and_stream(self, small_dataset, quick_config):
        with RunScheduler(small_dataset) as scheduler:
            ids = [scheduler.submit(r) for r in _requests(quick_config, 3)]
            assert ids == [0, 1, 2]
            assert scheduler.n_pending == 3
            seen = dict(scheduler.as_completed())
            assert sorted(seen) == ids
            assert scheduler.n_pending == 0
            assert scheduler.n_completed == 3
            for result in seen.values():
                assert result.backend == "serial"
                assert result.runs

    def test_map_preserves_submission_order(self, small_dataset, quick_config):
        requests = _requests(quick_config, 3)
        with RunScheduler(small_dataset) as scheduler:
            results = scheduler.map(requests)
        assert [r.request.seed for r in results] == [100, 101, 102]

    def test_results_identical_across_jobs(self, small_dataset, quick_config):
        requests = _requests(quick_config, 4)
        with RunScheduler(small_dataset, jobs=1) as scheduler:
            sequential = scheduler.map(requests)
            total_seq = scheduler.stats
        with RunScheduler(small_dataset, jobs=3) as scheduler:
            concurrent = scheduler.map(requests)
            total_con = scheduler.stats
        for a, b in zip(sequential, concurrent):
            assert _result_key(a) == _result_key(b)
        # the work totals are completion-order invariant; only the split
        # between dedup hits and cache hits depends on the interleaving
        assert total_seq.n_requests == total_con.n_requests
        assert total_seq.n_evaluations == total_con.n_evaluations
        assert (
            total_seq.n_dedup_hits + total_seq.n_cache_hits
            == total_con.n_dedup_hits + total_con.n_cache_hits
        )

    def test_matches_standalone_service(self, small_dataset, quick_config):
        """A job queued behind others on a warm substrate equals the same
        request run alone on a fresh one-request scheduler."""
        request = RunRequest(config=quick_config, seed=7)
        with RunScheduler(small_dataset) as scheduler:
            standalone = scheduler.run(request)
        with RunScheduler(small_dataset) as scheduler:
            scheduled = scheduler.map(_requests(quick_config, 2) + [request])[-1]
        assert _result_key(standalone) == _result_key(scheduled)
        assert standalone.stats.n_requests == scheduled.stats.n_requests

    def test_per_job_stats_are_scoped(self, small_dataset, quick_config):
        with RunScheduler(small_dataset) as scheduler:
            first = scheduler.run(RunRequest(config=quick_config, seed=1))
            second = scheduler.run(RunRequest(config=quick_config, seed=1))
            # identical request replayed on a warm substrate: all requests
            # answered by the shared cache, none evaluated again
            assert second.stats.n_requests == first.stats.n_requests
            assert second.stats.n_evaluations == 0
            total = scheduler.stats
        assert total.n_requests == first.stats.n_requests + second.stats.n_requests
        assert total.n_evaluations == first.stats.n_evaluations

    def test_window_restriction_matches_window_view(
        self, small_dataset, quick_config
    ):
        window = (3, 9)
        request = RunRequest(
            config=quick_config, seed=5, snp_indices=tuple(range(*window))
        )
        with RunScheduler(small_dataset) as scheduler:
            windowed = scheduler.run(request)
        with RunScheduler(small_dataset.window(*window)) as view_scheduler:
            on_view = view_scheduler.run(RunRequest(config=quick_config, seed=5))
        assert _result_key(windowed) == _result_key(on_view)

    def test_spec_mismatch_rejected(self, small_dataset, quick_config):
        with RunScheduler(small_dataset, statistic="t1") as scheduler:
            with pytest.raises(ValueError, match="spec"):
                scheduler.submit(RunRequest(config=quick_config, statistic="t2"))
            # a matching explicit spec is accepted
            scheduler.submit(
                RunRequest(config=quick_config, spec=EvaluatorSpec(statistic="t1"))
            )

    def test_spec_comparison_is_normalised(self, small_dataset, quick_config):
        """'T1' vs 't1' (the evaluator lower-cases) must not be a mismatch."""
        with RunScheduler(small_dataset, statistic="T1") as scheduler:
            result = scheduler.run(RunRequest(config=quick_config, seed=1))
        assert result.runs
        with RunScheduler(small_dataset, statistic="t1") as scheduler:
            scheduler.submit(RunRequest(config=quick_config, statistic="T1"))

    def test_abandoned_drain_keeps_unstarted_jobs(self, small_dataset, quick_config):
        with RunScheduler(small_dataset) as scheduler:
            ids = [scheduler.submit(r) for r in _requests(quick_config, 3)]
            for job_id, _result in scheduler.as_completed():
                break  # abandon after the first result
            assert scheduler.n_completed == 1
            assert scheduler.n_pending == 2
            remaining = dict(scheduler.as_completed())
            assert sorted(remaining) == ids[1:]

    def test_abandoned_concurrent_drain_loses_nothing(
        self, small_dataset, quick_config
    ):
        """jobs>1: in-flight jobs finish and surface on the next drain."""
        requests = _requests(quick_config, 4)
        with RunScheduler(small_dataset, jobs=1) as scheduler:
            expected = {
                job_id: _result_key(result)
                for job_id, result in zip(
                    range(4), scheduler.map(list(requests))
                )
            }
        with RunScheduler(small_dataset, jobs=2) as scheduler:
            ids = [scheduler.submit(r) for r in requests]
            collected = {}
            for job_id, result in scheduler.as_completed():
                collected[job_id] = _result_key(result)
                break  # abandon with one job potentially still in flight
            collected.update(
                (job_id, _result_key(result))
                for job_id, result in scheduler.as_completed()
            )
            assert sorted(collected) == ids
            assert scheduler.n_completed == len(ids)
        assert collected == expected

    @staticmethod
    def _fail_once(scheduler, seed):
        """Patch the scheduler to fail ``seed``'s first execution, before any
        substrate work (so per-job stats partitioning stays exact)."""
        original = scheduler._execute
        fired = []

        def flaky(request):
            if request.seed == seed and not fired:
                fired.append(True)
                raise RuntimeError("injected job failure")
            return original(request)

        scheduler._execute = flaky

    def test_failed_job_requeues_at_front_of_serial_drain(
        self, small_dataset, quick_config
    ):
        requests = _requests(quick_config, 3)
        with RunScheduler(small_dataset) as reference:
            expected = [_result_key(r) for r in reference.map(list(requests))]
        with RunScheduler(small_dataset) as scheduler:
            ids = [scheduler.submit(r) for r in requests]
            self._fail_once(scheduler, seed=101)
            collected = {}
            with pytest.raises(RuntimeError, match="injected"):
                for job_id, result in scheduler.as_completed():
                    collected[job_id] = result
            assert sorted(collected) == [ids[0]]
            assert scheduler.n_pending == 2
            assert scheduler._pending[0][0] == ids[1]  # failed job up front
            collected.update(scheduler.as_completed())  # re-runs and finishes
            assert sorted(collected) == ids
        assert [_result_key(collected[i]) for i in ids] == expected

    def test_mid_drain_failure_with_concurrent_jobs(
        self, small_dataset, quick_config
    ):
        """jobs>1: one job failing mid-drain propagates, requeues that job,
        and neither loses nor double-counts the surviving jobs' work."""
        requests = _requests(quick_config, 4)
        with RunScheduler(small_dataset, jobs=1) as reference:
            expected = [_result_key(r) for r in reference.map(list(requests))]
        with RunScheduler(small_dataset, jobs=2) as scheduler:
            ids = [scheduler.submit(r) for r in requests]
            self._fail_once(scheduler, seed=102)
            collected = {}
            with pytest.raises(RuntimeError, match="injected"):
                for job_id, result in scheduler.as_completed():
                    collected[job_id] = result
            # every job is accounted for: yielded, parked unclaimed by the
            # aborted drain, or back in the queue (the failed one included)
            assert ids[2] in [entry[0] for entry in scheduler._pending]
            assert (
                len(collected) + scheduler.n_unclaimed + scheduler.n_pending
                == len(ids)
            )
            collected.update(scheduler.as_completed())
            assert sorted(collected) == ids
            total = scheduler.stats
            # the surviving jobs' delta-scoped stats still partition the
            # substrate exactly (the failed attempt did no substrate work)
            for field in ("n_requests", "n_evaluations", "n_batches"):
                assert sum(
                    getattr(r.stats, field) for r in collected.values()
                ) == getattr(total, field)
        assert [_result_key(collected[i]) for i in ids] == expected

    def test_snp_indices_validation(self, small_dataset, quick_config):
        with RunScheduler(small_dataset) as scheduler:
            with pytest.raises(ValueError, match="at least two"):
                scheduler.submit(RunRequest(config=quick_config, snp_indices=(3,)))
            with pytest.raises(ValueError, match="distinct"):
                scheduler.submit(RunRequest(config=quick_config, snp_indices=(3, 3)))
            with pytest.raises(ValueError, match="range"):
                scheduler.submit(
                    RunRequest(config=quick_config, snp_indices=(0, 99))
                )

    def test_validation(self, small_dataset, quick_config):
        with pytest.raises(ValueError):
            RunScheduler(small_dataset, jobs=0)
        with RunScheduler(small_dataset) as scheduler:
            with pytest.raises(ValueError):
                scheduler.submit(RunRequest(config=quick_config, n_runs=0))
        with pytest.raises(RuntimeError):
            scheduler.submit(RunRequest(config=quick_config))
        scheduler.close()  # idempotent

    def test_probe_evaluator_is_stats_isolated(self, small_dataset, quick_config):
        with RunScheduler(small_dataset) as scheduler:
            probe = scheduler.probe_evaluator()
            values = probe.evaluate_batch([(0, 1), (2, 3)])
            assert len(values) == 2
            assert probe.stats.n_requests == 2
            result = scheduler.run(RunRequest(config=quick_config, seed=2))
            # the probe's work is on the substrate but not in the job's stats
            assert scheduler.stats.n_requests == 2 + result.stats.n_requests

    def test_summary_line_matches_run_format(self, small_dataset, quick_config):
        with RunScheduler(small_dataset) as scheduler:
            result = scheduler.run(RunRequest(config=quick_config, seed=3))
            line = scheduler.summary_line()
        assert line == result.summary_line()


class TestCostAwareExecutor:
    def test_estimate_is_monotone_in_haplotype_size(self, small_dataset):
        from repro.parallel.pvm import EvaluationCostModel
        from repro.runtime.service import estimate_request_cost

        model = EvaluationCostModel()
        cheap = RunRequest(config=GAConfig(max_haplotype_size=2, population_size=10))
        pricey = RunRequest(config=GAConfig(max_haplotype_size=6, population_size=10))
        assert estimate_request_cost(pricey, model) > estimate_request_cost(cheap, model)

    def test_explicit_costs_order_the_concurrent_drain(self, small_dataset, quick_config):
        """jobs=1 with a single job slot... use jobs=2 but serialise via a
        start log: the priciest queued job must start first."""
        import threading

        started = []
        log_lock = threading.Lock()

        with RunScheduler(small_dataset, jobs=2) as scheduler:
            original_execute = scheduler._execute

            def logging_execute(request):
                with log_lock:
                    started.append(request.seed)
                return original_execute(request)

            scheduler._execute = logging_execute
            costs = {100: 1.0, 101: 5.0, 102: 3.0, 103: 4.0}
            for seed, cost in costs.items():
                scheduler.submit(RunRequest(config=quick_config, seed=seed), cost=cost)
            results = dict(scheduler.as_completed())
        assert len(results) == 4
        # the two job threads take the two priciest first; the cheapest
        # queued request must be the last one started
        assert started[-1] == 100

    def test_scheduler_cost_model_orders_without_explicit_costs(self, small_dataset):
        from repro.parallel.pvm import EvaluationCostModel

        with RunScheduler(
            small_dataset, jobs=2, cost_model=EvaluationCostModel()
        ) as scheduler:
            small = GAConfig(population_size=8, max_haplotype_size=2,
                             termination_stagnation=1, max_generations=2)
            big = GAConfig(population_size=8, max_haplotype_size=4,
                           termination_stagnation=1, max_generations=2)
            id_small = scheduler.submit(RunRequest(config=small, seed=1))
            id_big = scheduler.submit(RunRequest(config=big, seed=2))
            entry = scheduler._pop_next()
            assert entry[0] == id_big  # the expensive request outranks FIFO
            # put it back so the drain still runs everything
            with scheduler._queue_lock:
                scheduler._pending.insert(0, entry)
            assert len(dict(scheduler.as_completed())) == 2

    def test_results_identical_with_and_without_cost_priority(
        self, small_dataset, quick_config
    ):
        from repro.parallel.pvm import EvaluationCostModel

        requests = _requests(quick_config, 4)
        with RunScheduler(small_dataset, jobs=2) as scheduler:
            fifo = scheduler.map(list(requests))
        with RunScheduler(
            small_dataset, jobs=2, cost_model=EvaluationCostModel()
        ) as scheduler:
            prioritised = scheduler.map(list(requests))
        for a, b in zip(fifo, prioritised):
            assert _result_key(a) == _result_key(b)

    def test_mid_drain_submission_joins_the_live_drain(
        self, small_dataset, quick_config
    ):
        """The scan runner's bounded-pending pattern: keep topping up while
        streaming, never holding more than the bound in the queue."""
        extra = iter(_requests(quick_config, 6)[2:])
        with RunScheduler(small_dataset, jobs=2) as scheduler:
            for request in _requests(quick_config, 2):
                scheduler.submit(request)
            collected = {}
            max_pending_seen = scheduler.n_pending
            while True:
                drained = False
                for job_id, result in scheduler.as_completed():
                    drained = True
                    collected[job_id] = result
                    request = next(extra, None)
                    if request is not None:
                        scheduler.submit(request)
                    max_pending_seen = max(max_pending_seen, scheduler.n_pending)
                if not drained and scheduler.n_pending == 0:
                    break
            assert len(collected) == 6
            assert scheduler.n_completed == 6
            assert max_pending_seen <= 2

    def test_single_drain_covers_late_submissions(self, small_dataset, quick_config):
        """After the round fix, ONE as_completed() call must yield jobs that
        were submitted while it was already streaming (no re-drain needed)."""
        extra = iter(_requests(quick_config, 5)[2:])
        with RunScheduler(small_dataset, jobs=2) as scheduler:
            for request in _requests(quick_config, 2):
                scheduler.submit(request)
            collected = {}
            for job_id, result in scheduler.as_completed():
                collected[job_id] = result
                request = next(extra, None)
                if request is not None:
                    scheduler.submit(request)
            assert len(collected) == 5
            assert scheduler.n_pending == 0


class TestConcurrentMultiClientScheduler:
    """Many client threads sharing ONE scheduler (the scan-service shape).

    ``RunScheduler.run()`` is documented thread-safe: the scan service runs
    one handler thread per connected client, all submitting against the same
    warm substrate.  These tests pin down the two contracts that serving
    depends on: per-job stats partition the substrate's lifetime counters
    exactly, and every client's results are bit-identical to running its
    scan alone.
    """

    N_CLIENTS = 4

    @staticmethod
    def _client_jobs(n_snps, quick_config, client):
        """Client ``client``'s interleaved scan: its own seed and geometry.

        Clients get different window sizes (hence different clamped configs
        and estimated costs — the mixed-priority traffic an admission queue
        sees) and different seeds, so no two clients submit the same work.
        """
        from repro.scan.planner import plan_scan

        return list(
            plan_scan(
                n_snps,
                window_size=4 + client % 2,
                overlap=2,
                config=quick_config,
                seed=11 + client,
            ).requests()
        )

    def test_interleaved_clients_match_isolated_reference(
        self, small_dataset, quick_config
    ):
        import threading

        from repro.scan.runner import _window_result

        def fingerprint(window, run):
            result = _window_result(window, run)
            return (
                result.window.index,
                result.best_snps,
                result.best_fitness,
                sorted(result.best_per_size.items()),
                result.n_evaluations,
            )

        # reference: each client's scan alone on a fresh, cold scheduler
        reference = {}
        for client in range(self.N_CLIENTS):
            with RunScheduler(small_dataset) as scheduler:
                reference[client] = [
                    fingerprint(window, scheduler.run(request))
                    for window, request in self._client_jobs(
                        small_dataset.n_snps, quick_config, client
                    )
                ]

        served: dict[int, list] = {}
        deltas: dict[int, list] = {}
        errors: list[BaseException] = []
        barrier = threading.Barrier(self.N_CLIENTS)
        with RunScheduler(small_dataset) as scheduler:
            def client_thread(client):
                try:
                    rows, stats = [], []
                    jobs = self._client_jobs(
                        small_dataset.n_snps, quick_config, client
                    )
                    barrier.wait()  # maximise interleaving
                    for window, request in jobs:
                        run = scheduler.run(request)
                        rows.append(fingerprint(window, run))
                        stats.append(run.stats)
                    served[client] = rows
                    deltas[client] = stats
                except BaseException as exc:  # surfaced by the main thread
                    errors.append(exc)

            threads = [
                threading.Thread(target=client_thread, args=(client,))
                for client in range(self.N_CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not errors, errors
            total = scheduler.stats
            assert scheduler.n_completed == sum(
                len(self._client_jobs(small_dataset.n_snps, quick_config, c))
                for c in range(self.N_CLIENTS)
            )

        # bit-identical per-client results despite interleaving: fitness is
        # pure, so whichever cache answers a request returns the same value
        for client in range(self.N_CLIENTS):
            assert served[client] == reference[client]

        # per-job deltas partition the substrate-lifetime counters exactly
        # (each job's since() delta is taken under the evaluation lock)
        for counter in ("n_requests", "n_evaluations", "n_batches"):
            assert sum(
                getattr(s, counter) for stats in deltas.values() for s in stats
            ) == getattr(total, counter), counter
        assert sum(
            s.n_dedup_hits + s.n_cache_hits
            for stats in deltas.values()
            for s in stats
        ) == total.n_dedup_hits + total.n_cache_hits
