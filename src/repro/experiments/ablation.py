"""Section 5.2 — comparison of the GA schemes (mechanism ablation).

The paper tests its GA "without and with the random immigrant, without and
with the reduction and the augmentation mutation, without and with the
inter-population crossover" and concludes that the mechanisms that link
sub-populations are efficient and allow better solutions, while the random
immigrant reintroduces diversity when the search is blocked.

This harness reruns that study as a controlled ablation: every scheme gets the
same evaluation budget and the same seeds, and is scored by the mean (over
runs and sub-populations) normalised best fitness it reaches, plus the raw
best fitness of the largest sub-population.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.config import GAConfig
from ..genetics.constraints import HaplotypeConstraints
from ..genetics.simulate import SimulatedStudy
from ..runtime.service import RunRequest, RunScheduler
from .datasets import DEFAULT_SEED, lille51
from .reporting import format_table
from .table2 import quick_config

__all__ = ["AblationScheme", "SchemeOutcome", "AblationResult", "default_schemes", "run_ablation"]


@dataclass(frozen=True)
class AblationScheme:
    """One configuration of the Section-5.2 study."""

    name: str
    adaptive: bool
    size_mutations: bool
    inter_population_crossover: bool
    random_immigrants: bool

    def apply(self, base: GAConfig) -> GAConfig:
        return base.with_scheme(
            adaptive=self.adaptive,
            size_mutations=self.size_mutations,
            inter_population_crossover=self.inter_population_crossover,
            random_immigrants=self.random_immigrants,
        )


def default_schemes() -> tuple[AblationScheme, ...]:
    """The cumulative scheme ladder of the paper's Section 5.2 / Table 2."""
    return (
        AblationScheme(
            name="plain multi-population GA",
            adaptive=False, size_mutations=False,
            inter_population_crossover=False, random_immigrants=False,
        ),
        AblationScheme(
            name="+ adaptive operators",
            adaptive=True, size_mutations=False,
            inter_population_crossover=False, random_immigrants=False,
        ),
        AblationScheme(
            name="+ sub-population links (size mutations, inter-pop crossover)",
            adaptive=True, size_mutations=True,
            inter_population_crossover=True, random_immigrants=False,
        ),
        AblationScheme(
            name="+ random immigrants (full algorithm)",
            adaptive=True, size_mutations=True,
            inter_population_crossover=True, random_immigrants=True,
        ),
    )


@dataclass(frozen=True)
class SchemeOutcome:
    """Aggregate outcome of one scheme over the repeated runs."""

    scheme: AblationScheme
    mean_best_fitness_per_size: dict[int, float]
    max_best_fitness_per_size: dict[int, float]
    mean_evaluations: float
    mean_evaluations_to_best: float

    def mean_over_sizes(self) -> float:
        """Mean of the per-size mean best fitnesses (the scheme's headline score)."""
        return float(np.mean(list(self.mean_best_fitness_per_size.values())))

    def largest_size_fitness(self) -> float:
        largest = max(self.mean_best_fitness_per_size)
        return self.mean_best_fitness_per_size[largest]


@dataclass(frozen=True)
class AblationResult:
    """The full scheme-comparison study."""

    outcomes: tuple[SchemeOutcome, ...]
    n_runs: int
    config: GAConfig

    def outcome(self, name: str) -> SchemeOutcome:
        for outcome in self.outcomes:
            if outcome.scheme.name == name:
                return outcome
        raise KeyError(f"no scheme named {name!r}")

    def format(self) -> str:
        sizes = sorted(self.outcomes[0].mean_best_fitness_per_size)
        headers = ["Scheme", *[f"mean best (size {s})" for s in sizes],
                   "mean # eval to best"]
        rows = []
        for outcome in self.outcomes:
            rows.append(
                [
                    outcome.scheme.name,
                    *[outcome.mean_best_fitness_per_size.get(s, float("nan")) for s in sizes],
                    outcome.mean_evaluations_to_best,
                ]
            )
        return format_table(
            headers, rows,
            title=f"Section 5.2 - scheme comparison over {self.n_runs} runs",
        )


def run_ablation(
    *,
    study: SimulatedStudy | None = None,
    config: GAConfig | None = None,
    schemes: Sequence[AblationScheme] | None = None,
    n_runs: int = 3,
    constraints: HaplotypeConstraints | None = None,
    seed: int = DEFAULT_SEED,
    backend: str = "serial",
    n_workers: int | None = None,
    chunk_size: int | None = None,
) -> AblationResult:
    """Run the scheme-comparison study.

    Every scheme runs ``n_runs`` times with seeds ``seed … seed + n_runs - 1``
    under the same configuration except for the toggled mechanisms; every
    scheme is dispatched through the same execution backend
    (:mod:`repro.runtime.backends`), one scheduler for the whole study, so
    the comparison stays controlled.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be positive")
    study = study or lille51(seed)
    config = config or quick_config()
    schemes = tuple(schemes) if schemes is not None else default_schemes()
    n_snps = study.dataset.n_snps
    constraints = constraints or HaplotypeConstraints.unconstrained(n_snps)
    with RunScheduler(
        study.dataset, backend=backend, n_workers=n_workers, chunk_size=chunk_size
    ) as scheduler:
        scheme_runs = [
            scheduler.run(
                RunRequest(
                    config=scheme.apply(config),
                    n_runs=n_runs,
                    seed=seed,
                    constraints=constraints,
                )
            ).runs
            for scheme in schemes
        ]

    outcomes: list[SchemeOutcome] = []
    for scheme, runs in zip(schemes, scheme_runs):
        best_per_size: dict[int, list[float]] = {}
        total_evaluations: list[float] = []
        evaluations_to_best: list[float] = []
        for result in runs:
            total_evaluations.append(result.n_evaluations)
            if result.evaluations_to_best:
                evaluations_to_best.append(
                    float(np.mean(list(result.evaluations_to_best.values())))
                )
            for size, individual in result.best_per_size.items():
                best_per_size.setdefault(size, []).append(individual.fitness_value())
        outcomes.append(
            SchemeOutcome(
                scheme=scheme,
                mean_best_fitness_per_size={
                    size: float(np.mean(values)) for size, values in sorted(best_per_size.items())
                },
                max_best_fitness_per_size={
                    size: float(np.max(values)) for size, values in sorted(best_per_size.items())
                },
                mean_evaluations=float(np.mean(total_evaluations)),
                mean_evaluations_to_best=float(np.mean(evaluations_to_best))
                if evaluations_to_best
                else float("nan"),
            )
        )
    return AblationResult(outcomes=tuple(outcomes), n_runs=n_runs, config=config)
