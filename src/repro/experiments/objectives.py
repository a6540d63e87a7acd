"""Comparison of candidate objective functions (paper conclusion).

The paper's conclusion announces the next step of the collaboration:
"different objective functions are going to be used in order to compare them
and to validate their biological interest".  This harness performs that
comparison on the reproduction's data: it scores a common set of candidate
haplotypes under every available objective (the CLUMP statistics T1, T2, T4
and the case/control haplotype-frequency likelihood-ratio test) and reports

* the Spearman rank correlation between every pair of objectives (do they
  order candidate haplotypes the same way?), and
* the top haplotypes under each objective together with how often the planted
  causal SNPs appear in them (do the objectives agree on the biology?).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from ..genetics.simulate import SimulatedStudy
from ..stats.evaluation import HaplotypeEvaluator
from .datasets import DEFAULT_SEED, lille51
from .reporting import format_table

__all__ = ["ObjectiveComparisonResult", "run_objective_comparison", "DEFAULT_OBJECTIVES"]

#: Objectives compared by default.  T3 is omitted because it is T4 restricted
#: to single-column clumps and adds no ranking information on these tables.
DEFAULT_OBJECTIVES: tuple[str, ...] = ("t1", "t2", "t4", "lrt")


@dataclass(frozen=True)
class ObjectiveComparisonResult:
    """Outcome of the objective-function comparison.

    Attributes
    ----------
    objectives:
        The compared objective names.
    haplotypes:
        The evaluated candidate haplotypes (shared by all objectives).
    scores:
        ``{objective: array of scores aligned with haplotypes}``.
    rank_correlations:
        ``{(objective_a, objective_b): Spearman rho}`` for every pair.
    top_haplotypes:
        ``{objective: list of the top-k haplotypes under that objective}``.
    causal_hit_rate:
        ``{objective: fraction of the top-k haplotypes containing at least one
        planted causal SNP}`` (only meaningful on simulated studies).
    """

    objectives: tuple[str, ...]
    haplotypes: tuple[tuple[int, ...], ...]
    scores: dict[str, np.ndarray]
    rank_correlations: dict[tuple[str, str], float]
    top_haplotypes: dict[str, tuple[tuple[int, ...], ...]]
    causal_hit_rate: dict[str, float]

    def correlation(self, objective_a: str, objective_b: str) -> float:
        key = (objective_a, objective_b)
        if key in self.rank_correlations:
            return self.rank_correlations[key]
        return self.rank_correlations[(objective_b, objective_a)]

    def format(self) -> str:
        headers = ["objective pair", "Spearman rho"]
        rows = [[f"{a} vs {b}", rho] for (a, b), rho in sorted(self.rank_correlations.items())]
        parts = [format_table(headers, rows, title="Rank agreement between objectives")]
        hit_headers = ["objective", "top-k haplotypes containing a causal SNP"]
        hit_rows = [[name, rate] for name, rate in self.causal_hit_rate.items()]
        parts.append(format_table(hit_headers, hit_rows, title="Causal-SNP hit rate"))
        return "\n\n".join(parts)


def _sample_haplotypes(
    n_snps: int,
    sizes: Sequence[int],
    n_per_size: int,
    causal: Sequence[int],
    rng: np.random.Generator,
) -> list[tuple[int, ...]]:
    """Candidate haplotypes: random ones plus causal-enriched ones per size."""
    haplotypes: set[tuple[int, ...]] = set()
    causal = [s for s in causal if s < n_snps]
    for size in sizes:
        while len([h for h in haplotypes if len(h) == size]) < n_per_size:
            snps = tuple(sorted(rng.choice(n_snps, size=size, replace=False).tolist()))
            haplotypes.add(snps)
        # add causal-containing candidates so the hit-rate metric has signal to find
        for _ in range(max(n_per_size // 4, 1)):
            anchor = int(rng.choice(causal)) if causal else int(rng.integers(n_snps))
            rest = [s for s in range(n_snps) if s != anchor]
            extra = rng.choice(rest, size=size - 1, replace=False).tolist()
            haplotypes.add(tuple(sorted([anchor, *extra])))
    return sorted(haplotypes)


def run_objective_comparison(
    *,
    study: SimulatedStudy | None = None,
    objectives: Sequence[str] = DEFAULT_OBJECTIVES,
    sizes: Sequence[int] = (2, 3, 4),
    n_per_size: int = 40,
    top_k: int = 10,
    seed: int = DEFAULT_SEED,
    backend: str = "serial",
    n_workers: int | None = None,
) -> ObjectiveComparisonResult:
    """Score a common candidate set under several objectives and compare them.

    With the default ``serial`` backend the T1–T4 family shares a single
    EH-DIALL pipeline run per haplotype; any other backend scores each
    objective through the execution-backend registry (one evaluator spec per
    statistic, batched over all candidates) — the values are identical, the
    dispatch substrate is not.
    """
    if not objectives:
        raise ValueError("at least one objective is required")
    if n_per_size < 2 or top_k < 1:
        raise ValueError("n_per_size must be >= 2 and top_k >= 1")
    study = study or lille51(seed)
    dataset = study.dataset
    rng = np.random.default_rng(seed)
    haplotypes = _sample_haplotypes(dataset.n_snps, sizes, n_per_size,
                                    study.causal_snps, rng)

    if backend == "serial":
        # one evaluator per objective; the T1-T4 family shares a single pipeline run
        base = HaplotypeEvaluator(dataset, statistic="t1")
        scores: dict[str, list[float]] = {name: [] for name in objectives}
        for snps in haplotypes:
            record = base.evaluate_detailed(snps)
            for name in objectives:
                if name == "lrt":
                    scores[name].append(base.case_control_lrt(snps))
                else:
                    scores[name].append(record.clump.statistic(name))
        score_arrays = {name: np.asarray(values) for name, values in scores.items()}
    else:
        from ..runtime.backends import create_evaluator
        from ..runtime.spec import EvaluatorSpec

        score_arrays = {}
        for name in objectives:
            evaluator = create_evaluator(
                backend,
                EvaluatorSpec(statistic=name),
                dataset=dataset,
                n_workers=n_workers,
            )
            try:
                score_arrays[name] = np.asarray(evaluator.evaluate_batch(haplotypes))
            finally:
                evaluator.close()

    # imported here so that importing repro does not load scipy.stats (~1 s)
    from scipy import stats as scipy_stats

    correlations: dict[tuple[str, str], float] = {}
    for a, b in combinations(objectives, 2):
        rho = scipy_stats.spearmanr(score_arrays[a], score_arrays[b]).statistic
        correlations[(a, b)] = float(rho)

    top_haplotypes: dict[str, tuple[tuple[int, ...], ...]] = {}
    causal_hit_rate: dict[str, float] = {}
    causal = set(study.causal_snps)
    for name in objectives:
        order = np.argsort(score_arrays[name])[::-1][:top_k]
        top = tuple(haplotypes[i] for i in order)
        top_haplotypes[name] = top
        causal_hit_rate[name] = float(
            np.mean([bool(set(h) & causal) for h in top]) if top else 0.0
        )

    return ObjectiveComparisonResult(
        objectives=tuple(objectives),
        haplotypes=tuple(haplotypes),
        scores=score_arrays,
        rank_correlations=correlations,
        top_haplotypes=top_haplotypes,
        causal_hit_rate=causal_hit_rate,
    )
