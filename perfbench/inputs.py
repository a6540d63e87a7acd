"""Seeded input generation: simulated panels written as study directories.

The benchmark hands the program only files.  Each panel is simulated from
the workload seed, written with the program's own ``write_study_tables``
(genotypes, allele frequencies, pairwise LD) and read back by the workload
through ``read_study_tables``, the loader the CLI uses.  Generation is never
timed.  Writing the pairwise-LD table of a 249-SNP panel takes seconds, so
study directories are kept under the checkout's ``.perfbench/data`` and
reused for the same seed.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

__all__ = ["PanelSpec", "panel_spec", "study_dir"]


@dataclass(frozen=True)
class PanelSpec:
    """What to simulate; ``kind`` names the builder."""

    kind: str
    n_snps: int
    n_affected: int
    n_unaffected: int
    n_unknown: int = 0

    def key(self, seed: int) -> str:
        return (
            f"{self.kind}-{self.n_snps}x{self.n_affected}+{self.n_unaffected}"
            f"+{self.n_unknown}-seed{seed}"
        )


#: large249: the 176 x 249 analogue of the paper's larger files (53 affected,
#: 53 unaffected, 70 of unknown status).  served60: the many-cheap-windows
#: panel the service benchmark uses.
PANELS = {
    ("large249", "full"): PanelSpec("large249", 249, 53, 53, 70),
    ("served60", "full"): PanelSpec("served", 60, 25, 25),
    # tiny panels for the harness's own smoke tests
    ("large249", "tiny"): PanelSpec("served", 24, 15, 15),
    ("served60", "tiny"): PanelSpec("served", 16, 12, 12),
}


def panel_spec(name: str, scale: str) -> PanelSpec:
    return PANELS[(name, scale)]


def simulate(spec: PanelSpec, seed: int):
    """The simulated :class:`~repro.genetics.dataset.GenotypeDataset`."""
    from repro.genetics.simulate import (
        DiseaseModel,
        PopulationModel,
        large_study_249,
        simulate_case_control_study,
    )

    if spec.kind == "large249":
        return large_study_249(seed=seed).dataset
    n = spec.n_snps
    model = PopulationModel(n_snps=n, block_size=6, within_block_correlation=0.4)
    disease = DiseaseModel(
        causal_snps=(n // 4, n // 2, (3 * n) // 4),
        risk_alleles=(2, 2, 2),
        baseline_penetrance=0.1,
        relative_risk=6.0,
        risk_haplotype_frequency=0.3,
    )
    return simulate_case_control_study(
        population_model=model,
        disease_model=disease,
        n_affected=spec.n_affected,
        n_unaffected=spec.n_unaffected,
        n_unknown=spec.n_unknown,
        seed=seed,
    ).dataset


def study_dir(spec: PanelSpec, seed: int, data_root: Path) -> Path:
    """The study directory for ``(spec, seed)``, simulated and written if new.

    The directory is built under a temporary name and renamed into place, so
    a run that dies while writing never leaves a half-written study behind.
    """
    target = data_root / spec.key(seed)
    if (target / "genotypes.csv").exists():
        return target
    from repro.genetics.io import write_study_tables

    data_root.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=".tmp-", dir=data_root))
    try:
        write_study_tables(simulate(spec, seed), scratch)
        try:
            os.rename(scratch, target)
        except OSError:
            # another run wrote the same study first; theirs is identical
            if not (target / "genotypes.csv").exists():
                raise
    finally:
        if scratch.exists():
            shutil.rmtree(scratch, ignore_errors=True)
    return target
