"""Evaluation memoisation.

The paper's cost metric is the *number of evaluations* (Table 2): each
EH-DIALL + CLUMP run is expensive, so repeatedly evaluating the same haplotype
is wasted work.  :class:`CachedEvaluator` wraps any fitness callable with an
exact-match cache keyed on the sorted SNP tuple (bounded entries are evicted
least-recently-used) and keeps hit/miss counters so experiments can report
both the number of *distinct* haplotypes evaluated and the number of fitness
requests issued by the search algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..lru import LRUCache

__all__ = ["CacheStatistics", "CachedEvaluator"]

#: Sentinel distinguishing "not cached" from legitimately cached falsy values
#: (a zero fitness is a perfectly valid CLUMP statistic).
_MISSING = object()


@dataclass(frozen=True)
class CacheStatistics:
    """Hit/miss counters of a :class:`CachedEvaluator`."""

    hits: int
    misses: int

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return 0.0 if self.requests == 0 else self.hits / self.requests


def _key(snps: Sequence[int] | np.ndarray) -> tuple[int, ...]:
    return tuple(sorted(int(s) for s in snps))


class CachedEvaluator:
    """Memoise a fitness callable on the (sorted) SNP tuple.

    Parameters
    ----------
    fitness:
        The underlying fitness callable (typically a
        :class:`~repro.stats.evaluation.HaplotypeEvaluator`).
    max_size:
        Optional bound on the number of cached entries; when exceeded, the
        least-recently-used entry is evicted.  ``None`` means unbounded.
    """

    def __init__(
        self,
        fitness: Callable[[Sequence[int]], float],
        *,
        max_size: int | None = None,
    ) -> None:
        if max_size is not None and max_size <= 0:
            raise ValueError("max_size must be positive or None")
        self._fitness = fitness
        self._max_size = max_size
        self._cache: LRUCache = LRUCache(max_size)
        self._hits = 0
        self._misses = 0

    # ------------------------------------------------------------------ #
    @property
    def statistics(self) -> CacheStatistics:
        return CacheStatistics(hits=self._hits, misses=self._misses)

    @property
    def n_distinct_evaluations(self) -> int:
        """Number of distinct haplotypes whose fitness was actually computed."""
        return self._misses

    def __len__(self) -> int:
        return len(self._cache)

    def __contains__(self, snps: Sequence[int] | np.ndarray) -> bool:
        return _key(snps) in self._cache

    def clear(self) -> None:
        """Drop all cached values and reset the counters."""
        self._cache.clear()
        self._hits = 0
        self._misses = 0

    # ------------------------------------------------------------------ #
    def __call__(self, snps: Sequence[int] | np.ndarray) -> float:
        key = _key(snps)
        # sentinel lookup: 0.0 (or any falsy/negative fitness) is a
        # legitimate cached value and must count as a hit
        cached = self._cache.get(key, _MISSING)
        if cached is not _MISSING:
            self._hits += 1
            return cached
        value = float(self._fitness(snps))
        self._misses += 1
        self._cache.put(key, value)
        return value
