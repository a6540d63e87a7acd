"""Pearson chi-square helpers shared by CLUMP and the LD statistics.

P-values are computed on demand: :func:`chi2_sf` imports ``scipy.stats``
the first time a p-value is requested, so importing :mod:`repro` and
running the GA (whose fitness is a bare statistic) never load scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contingency import ContingencyTable

__all__ = ["Chi2Result", "pearson_chi2", "chi2_sf"]


@dataclass(frozen=True)
class Chi2Result:
    """A chi-square statistic together with its degrees of freedom and p-value."""

    statistic: float
    df: int
    p_value: float

    def __float__(self) -> float:
        return self.statistic


def chi2_sf(statistic: float, df: int) -> float:
    """Survival function of the chi-square distribution (``P[X >= statistic]``)."""
    if df <= 0:
        return 1.0
    # imported here, not at module level: scipy.stats costs ~1 s to import
    # and only p-value reporting needs it
    from scipy import stats

    return float(stats.chi2.sf(statistic, df))


def _pearson(table: ContingencyTable) -> tuple[float, int]:
    """Pearson statistic and degrees of freedom of :func:`pearson_chi2`, no p-value."""
    table = table.drop_empty_columns()
    observed = table.counts
    expected = table.expected()
    # rows with zero total contribute nothing; keep them but avoid dividing by 0
    with np.errstate(invalid="ignore", divide="ignore"):
        cells = np.where(expected > 0, (observed - expected) ** 2 / expected, 0.0)
    statistic = float(cells.sum())
    nonzero_rows = int(np.count_nonzero(table.row_totals > 0))
    df = max((nonzero_rows - 1) * (table.n_columns - 1), 0)
    return statistic, df


def pearson_chi2(table: ContingencyTable | np.ndarray) -> Chi2Result:
    """Pearson chi-square statistic of a two-row contingency table.

    Columns with zero total are dropped first (they contribute nothing and
    would make the expected-count denominator vanish).  The degrees of freedom
    are ``(rows - 1) * (columns - 1)`` computed on the retained columns.
    """
    if not isinstance(table, ContingencyTable):
        table = ContingencyTable(np.asarray(table, dtype=np.float64))
    statistic, df = _pearson(table)
    return Chi2Result(statistic=statistic, df=df, p_value=chi2_sf(statistic, df))
