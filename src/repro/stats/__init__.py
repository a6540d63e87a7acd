"""Statistical evaluation substrate: EH-DIALL, CLUMP and the fitness pipeline.

Implements from scratch the two published procedures the paper delegates its
haplotype evaluation to — EH-DIALL (multi-locus haplotype-frequency estimation
by EM) and CLUMP (contingency-table case/control statistics with Monte-Carlo
significance) — and composes them into the Figure-3 evaluation pipeline that
the GA uses as its objective function.
"""

from .cache import CachedEvaluator, CacheStatistics
from .chi2 import Chi2Result, chi2_sf, pearson_chi2
from .clump import (
    ClumpResult,
    clump_statistic,
    clump_statistics,
    monte_carlo_p_values,
    simulate_table_with_margins,
    t1_statistic,
    t2_statistic,
    t3_statistic,
    t4_statistic,
)
from .contingency import ContingencyTable
from .ehdiall import (
    EHDiallResult,
    ehdiall_batch,
    ehdiall_from_expansion,
    h0_frequencies,
    run_ehdiall,
)
from .em import (
    EMResult,
    PhaseExpansion,
    PhaseExpansionCache,
    StackedExpansion,
    concat_expansions,
    estimate_from_expansion,
    estimate_haplotype_frequencies,
    expand_phases,
    expansion_log_likelihood,
    run_em_stacked,
    stack_expansions,
)
from .evaluation import EvaluationRecord, HaplotypeEvaluator

__all__ = [
    "ContingencyTable",
    "Chi2Result",
    "pearson_chi2",
    "chi2_sf",
    "EMResult",
    "PhaseExpansion",
    "PhaseExpansionCache",
    "StackedExpansion",
    "concat_expansions",
    "estimate_from_expansion",
    "estimate_haplotype_frequencies",
    "expand_phases",
    "expansion_log_likelihood",
    "run_em_stacked",
    "stack_expansions",
    "EHDiallResult",
    "ehdiall_batch",
    "ehdiall_from_expansion",
    "run_ehdiall",
    "h0_frequencies",
    "ClumpResult",
    "clump_statistic",
    "clump_statistics",
    "t1_statistic",
    "t2_statistic",
    "t3_statistic",
    "t4_statistic",
    "simulate_table_with_margins",
    "monte_carlo_p_values",
    "EvaluationRecord",
    "HaplotypeEvaluator",
    "CachedEvaluator",
    "CacheStatistics",
]
