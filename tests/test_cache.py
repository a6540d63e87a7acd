"""Tests of the evaluation cache wrapper."""

import pytest

from repro.stats.cache import CachedEvaluator


def _fake_fitness_factory():
    calls = []

    def fitness(snps):
        calls.append(tuple(snps))
        return float(sum(snps))

    return fitness, calls


class TestCachedEvaluator:
    def test_cache_hit_avoids_recomputation(self):
        fitness, calls = _fake_fitness_factory()
        cached = CachedEvaluator(fitness)
        assert cached((3, 1)) == pytest.approx(4.0)
        assert cached((1, 3)) == pytest.approx(4.0)  # same haplotype, different order
        assert len(calls) == 1
        assert cached.statistics.hits == 1
        assert cached.statistics.misses == 1
        assert cached.statistics.hit_rate == pytest.approx(0.5)
        assert cached.n_distinct_evaluations == 1

    def test_contains_and_len(self):
        fitness, _ = _fake_fitness_factory()
        cached = CachedEvaluator(fitness)
        cached((0, 2))
        assert (2, 0) in cached
        assert (0, 1) not in cached
        assert len(cached) == 1

    def test_clear(self):
        fitness, calls = _fake_fitness_factory()
        cached = CachedEvaluator(fitness)
        cached((0, 1))
        cached.clear()
        assert len(cached) == 0
        cached((0, 1))
        assert len(calls) == 2

    def test_max_size_eviction_without_touches_is_insertion_order(self):
        fitness, calls = _fake_fitness_factory()
        cached = CachedEvaluator(fitness, max_size=2)
        cached((0,))
        cached((1,))
        cached((2,))  # evicts (0,), the least recently used
        assert (0,) not in cached
        assert (1,) in cached and (2,) in cached
        cached((0,))  # recomputed
        assert len(calls) == 4

    def test_eviction_is_lru_not_fifo(self):
        fitness, calls = _fake_fitness_factory()
        cached = CachedEvaluator(fitness, max_size=2)
        cached((0,))
        cached((1,))
        cached((0,))  # hit refreshes (0,)'s recency
        cached((2,))  # must evict (1,), not the older-inserted (0,)
        assert (0,) in cached
        assert (1,) not in cached
        assert (2,) in cached
        cached((0,))  # still cached: no recomputation
        assert len(calls) == 3

    def test_zero_fitness_is_cached(self):
        # regression: a dict.get(key) truthiness-style miss test treated a
        # legitimately cached 0.0 (or negative) fitness as a miss forever
        calls = []

        def zero_fitness(snps):
            calls.append(tuple(snps))
            return 0.0

        cached = CachedEvaluator(zero_fitness)
        assert cached((1, 2)) == 0.0
        assert cached((2, 1)) == 0.0
        assert len(calls) == 1
        assert cached.statistics.hits == 1
        assert cached.n_distinct_evaluations == 1

    def test_negative_fitness_is_cached(self):
        calls = []

        def negative_fitness(snps):
            calls.append(tuple(snps))
            return -3.5

        cached = CachedEvaluator(negative_fitness)
        assert cached((4,)) == -3.5
        assert cached((4,)) == -3.5
        assert len(calls) == 1

    def test_invalid_max_size(self):
        fitness, _ = _fake_fitness_factory()
        with pytest.raises(ValueError):
            CachedEvaluator(fitness, max_size=0)

    def test_empty_statistics(self):
        fitness, _ = _fake_fitness_factory()
        cached = CachedEvaluator(fitness)
        assert cached.statistics.hit_rate == 0.0

    def test_wraps_real_evaluator(self, small_evaluator):
        cached = CachedEvaluator(small_evaluator)
        direct = small_evaluator.evaluate((1, 4, 8))
        assert cached((8, 4, 1)) == pytest.approx(direct)
        assert cached((1, 4, 8)) == pytest.approx(direct)
        assert cached.n_distinct_evaluations == 1
