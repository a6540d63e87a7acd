"""Smoke tests of the top-level package surface."""

import importlib
import os
import subprocess
import sys

import pytest

import repro


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackages_import(self):
        for module in (
            "repro.genetics",
            "repro.stats",
            "repro.parallel",
            "repro.core",
            "repro.search",
            "repro.experiments",
            "repro.cli",
        ):
            importlib.import_module(module)

    def test_lazy_island_export(self):
        from repro.parallel import IslandModelGA, IslandResult  # noqa: F401

        with pytest.raises(AttributeError):
            getattr(importlib.import_module("repro.parallel"), "NotAThing")

    def test_quickstart_docstring_flow(self, small_dataset):
        """The README/quickstart flow works end to end on a small dataset."""
        from repro import AdaptiveMultiPopulationGA, GAConfig, HaplotypeEvaluator

        evaluator = HaplotypeEvaluator(small_dataset)
        ga = AdaptiveMultiPopulationGA(
            evaluator,
            n_snps=small_dataset.n_snps,
            config=GAConfig(
                population_size=20, max_haplotype_size=3,
                termination_stagnation=3, max_generations=5,
            ),
        )
        result = ga.run()
        assert sorted(result.best_per_size) == [2, 3]


class TestImportCost:
    def test_import_and_scan_load_no_scipy(self):
        # scipy.stats costs about a second to import; only p-values need it,
        # and chi2_sf imports it on first use
        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = (
            "import sys, repro, repro.stats, repro.experiments\n"
            "from repro.scan import run_scan\n"
            "study = repro.lille_like_study(seed=3, n_affected=12, n_unaffected=12,"
            " n_snps=10)\n"
            "config = repro.GAConfig(population_size=6, min_haplotype_size=2,"
            " max_haplotype_size=3, termination_stagnation=1, max_generations=2)\n"
            "run_scan(study.dataset, window_size=5, overlap=2, config=config, seed=1)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "from scipy import stats\n"
            "from repro.stats import chi2_sf\n"
            "for x, df in [(0.0, 1), (3.84, 1), (12.5, 7), (250.0, 60)]:\n"
            "    assert chi2_sf(x, df) == float(stats.chi2.sf(x, df)), (x, df)\n"
            "assert chi2_sf(5.0, 0) == 1.0\n"
            "print('ok')\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split("\n")[:2] == ["[]", "ok"]
