"""Tests of the single-population GA baseline."""

import pytest

from repro.search.simple_ga import SimpleGA


def _toy_fitness(snps):
    return float(100.0 - sum(snps))


class TestSimpleGA:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimpleGA(_toy_fitness, n_snps=10, size=0)
        with pytest.raises(ValueError):
            SimpleGA(_toy_fitness, n_snps=10, size=2, population_size=1)
        with pytest.raises(ValueError):
            SimpleGA(_toy_fitness, n_snps=10, size=2, crossover_rate=1.5)
        with pytest.raises(ValueError):
            SimpleGA(_toy_fitness, n_snps=10, size=2, population_size=10, elitism=30)
        ga = SimpleGA(_toy_fitness, n_snps=10, size=2)
        with pytest.raises(ValueError):
            ga.run(n_generations=0)

    def test_optimises_toy_fitness(self):
        ga = SimpleGA(_toy_fitness, n_snps=12, size=3, population_size=20, elitism=2)
        result = ga.run(n_generations=30, seed=1)
        assert result.best_fitness >= _toy_fitness((2, 3, 4))
        assert len(result.best_snps) == 3
        assert result.n_evaluations == ga.n_evaluations
        assert result.evaluations_to_best <= result.n_evaluations

    def test_stagnation_stops_early(self):
        ga = SimpleGA(_toy_fitness, n_snps=8, size=2, population_size=10)
        result = ga.run(n_generations=200, stagnation=3, seed=0)
        assert result.n_generations < 200

    def test_determinism(self):
        runs = [
            SimpleGA(_toy_fitness, n_snps=12, size=3, population_size=15).run(
                n_generations=10, seed=7
            )
            for _ in range(2)
        ]
        assert runs[0].best_snps == runs[1].best_snps
        assert runs[0].n_evaluations == runs[1].n_evaluations

    def test_on_real_evaluator(self, small_evaluator):
        ga = SimpleGA(small_evaluator, n_snps=14, size=3, population_size=12)
        result = ga.run(n_generations=5, seed=2)
        assert len(result.best_snps) == 3
        assert result.best_fitness > 0.0


class TestCloseIdempotency:
    """Satellite regression: double context-manager exit must be a safe no-op
    on every owning path (only the master_slave path asserted this before)."""

    def test_double_context_manager_exit_serial(self):
        ga = SimpleGA(_toy_fitness, n_snps=10, size=2, population_size=8)
        with ga:
            with ga:
                ga.run(n_generations=2, seed=0)
        ga.close()  # explicit third close

    def test_double_close_on_process_backend(self):
        ga = SimpleGA(
            _toy_fitness, n_snps=10, size=2, population_size=8,
            backend="process-shm", backend_options={"n_workers": 2},
        )
        with ga:
            ga.run(n_generations=2, seed=0)
        ga.close()
        ga.close()
        with pytest.raises(RuntimeError):
            ga.evaluator.evaluate_batch([(1, 2)])

    def test_callers_evaluator_survives_double_exit(self):
        from repro.parallel.serial import SerialEvaluator

        evaluator = SerialEvaluator(_toy_fitness)
        ga = SimpleGA(evaluator=evaluator, n_snps=10, size=2, population_size=8)
        with ga:
            with ga:
                ga.run(n_generations=1, seed=0)
        # the caller keeps ownership: still usable afterwards
        assert evaluator.evaluate_batch([(1, 2)])
