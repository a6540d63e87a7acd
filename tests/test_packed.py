"""Tests of the 2-bit packed genotype substrate.

Layers under test, bottom-up: the packing kernels
(:mod:`repro.genetics.packed`), the packed class-counting fast path
(:func:`repro.stats.em.expand_phases_packed`), the dual-representation
:class:`~repro.genetics.dataset.GenotypeDataset`, packed shared-memory
segments, evaluator/scan bit-identity with ``packed=True``, checkpoint
substrate pinning, and the PLINK ``.bed`` reader/writer feeding the CLI.

The load-bearing contract everywhere is *bit-identity*: every packed code
path must produce byte-for-byte the same PhaseExpansions, LRT values and
scan reports as the byte substrate it shadows.
"""

import os
import pickle

import numpy as np
import pytest

from repro.core.config import GAConfig
from repro.genetics.dataset import (
    GENOTYPE_MISSING,
    GenotypeDataset,
    PackedGenotypeStore,
    as_packed_dataset,
)
from repro.genetics.io import read_bed, write_bed
from repro.genetics.packed import (
    CODE_MISSING,
    PackedPanel,
    pack_genotypes,
    packed_width,
    unpack_genotypes,
)
from repro.runtime.shm import SharedGenotypeStore, _as_contiguous_int8
from repro.scan import CheckpointMismatchError, run_scan
from repro.stats.em import expand_phases, expand_phases_packed
from repro.stats.evaluation import HaplotypeEvaluator


def _random_genotypes(rng, n, m, missing_rate=0.15):
    g = rng.integers(0, 3, size=(n, m)).astype(np.int8)
    if missing_rate:
        g[rng.random(size=g.shape) < missing_rate] = GENOTYPE_MISSING
    return g


def _random_dataset(rng, n, m, missing_rate=0.15):
    status = np.concatenate(
        [np.ones(n // 2, dtype=np.int8), np.zeros(n - n // 2, dtype=np.int8)]
    )
    return GenotypeDataset(_random_genotypes(rng, n, m, missing_rate), status)


def _expansions_equal(a, b):
    assert a.n_loci == b.n_loci
    for field in (
        "class_counts",
        "class_genotypes",
        "pair_a",
        "pair_b",
        "pair_class",
        "pair_multiplicity",
    ):
        left, right = getattr(a, field), getattr(b, field)
        assert left.dtype == right.dtype, field
        np.testing.assert_array_equal(left, right, err_msg=field)


# --------------------------------------------------------------------------- #
# packing kernels
# --------------------------------------------------------------------------- #
class TestPackKernels:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 106])
    def test_round_trip_every_width_residue(self, rng, n):
        g = _random_genotypes(rng, n, 11)
        packed = pack_genotypes(g)
        assert packed.shape == (11, packed_width(n))
        assert packed.dtype == np.uint8
        np.testing.assert_array_equal(unpack_genotypes(packed, n), g)

    def test_padding_bits_are_the_missing_code(self, rng):
        packed = pack_genotypes(np.zeros((5, 3), dtype=np.int8))
        # individuals 5..7 of the last byte are padding: all digits 3
        assert int(packed[0, -1]) >> 2 == 0b111111 & (0b111111 * 0 | 0x3F)
        for snp in range(3):
            assert (int(packed[snp, -1]) >> 2) == 0x3F

    def test_invalid_codes_raise(self):
        bad = np.full((2, 2), 5, dtype=np.int8)
        with pytest.raises(ValueError):
            pack_genotypes(bad)

    def test_column_window_is_zero_copy(self, rng):
        panel = PackedPanel(pack_genotypes(_random_genotypes(rng, 10, 20)), 10)
        window = panel.column_window(4, 12)
        assert window.n_snps == 8
        assert np.shares_memory(window.data, panel.data)
        np.testing.assert_array_equal(window.unpack(), panel.unpack()[:, 4:12])

    @pytest.mark.parametrize("start,stop", [(0, 3), (1, 3), (3, 9), (5, 6), (4, 8)])
    def test_row_window_at_bit_offsets(self, rng, start, stop):
        g = _random_genotypes(rng, 9, 7)
        panel = PackedPanel(pack_genotypes(g), 9)
        window = panel.row_window(start, stop)
        np.testing.assert_array_equal(window.unpack(), g[start:stop])
        counts = window.state_counts()
        for snp in range(7):
            expected = np.bincount(
                np.where(g[start:stop, snp] < 0, 3, g[start:stop, snp]), minlength=4
            )
            np.testing.assert_array_equal(counts[snp], expected)
        np.testing.assert_array_equal(
            window.missing_counts(),
            (g[start:stop] == GENOTYPE_MISSING).sum(axis=0),
        )

    def test_state_and_missing_counts_match_numpy(self, rng):
        g = _random_genotypes(rng, 106, 31, missing_rate=0.3)
        panel = PackedPanel(pack_genotypes(g), 106)
        counts = panel.state_counts()
        digits = np.where(g < 0, 3, g)
        for snp in range(31):
            np.testing.assert_array_equal(
                counts[snp], np.bincount(digits[:, snp], minlength=4)
            )
        np.testing.assert_array_equal(
            panel.missing_counts(), (g == GENOTYPE_MISSING).sum(axis=0)
        )

    def test_codes_match_base4_reference(self, rng):
        g = _random_genotypes(rng, 50, 12)
        panel = PackedPanel(pack_genotypes(g), 50)
        idx = np.array([7, 2, 9], dtype=np.intp)
        digits = np.where(g[:, idx] < 0, 3, g[:, idx]).astype(np.int64)
        expected = digits[:, 0] * 16 + digits[:, 1] * 4 + digits[:, 2]
        np.testing.assert_array_equal(panel.codes(idx), expected)

    def test_reorder_individuals_matches_fancy_indexing(self, rng):
        g = _random_genotypes(rng, 33, 40)
        panel = PackedPanel(pack_genotypes(g), 33)
        order = rng.permutation(33)
        reordered = panel.reorder_individuals(order, chunk_snps=16)
        np.testing.assert_array_equal(reordered.unpack(), g[order])
        assert reordered.row_start == 0


# --------------------------------------------------------------------------- #
# packed class counting (satellite: the missing-genotype 4th state)
# --------------------------------------------------------------------------- #
class TestExpandPhasesPacked:
    @pytest.mark.parametrize("n_loci", [1, 2, 3, 5, 8])
    def test_bitwise_parity_with_missing_genotypes(self, rng, n_loci):
        g = _random_genotypes(rng, 60, 12, missing_rate=0.25)
        panel = PackedPanel(pack_genotypes(g), 60)
        idx = rng.choice(12, size=n_loci, replace=False).astype(np.intp)
        _expansions_equal(
            expand_phases_packed(panel, idx), expand_phases(g[:, idx])
        )

    def test_n_complete_counts_only_fully_typed_rows(self, rng):
        g = _random_genotypes(rng, 40, 6, missing_rate=0.3)
        panel = PackedPanel(pack_genotypes(g), 40)
        idx = np.array([0, 3, 5], dtype=np.intp)
        expansion = expand_phases_packed(panel, idx)
        complete = ~(g[:, idx] == GENOTYPE_MISSING).any(axis=1)
        assert expansion.n_individuals == int(complete.sum())
        assert int(expansion.class_counts.sum()) == int(complete.sum())

    def test_all_missing_column_yields_empty_expansion(self):
        g = np.array([[0, -1], [1, -1], [2, -1]], dtype=np.int8)
        panel = PackedPanel(pack_genotypes(g), 3)
        idx = np.array([0, 1], dtype=np.intp)
        packed = expand_phases_packed(panel, idx)
        byte = expand_phases(g[:, idx])
        _expansions_equal(packed, byte)
        assert packed.n_individuals == 0
        assert packed.class_genotypes.shape == (0, 2)

    def test_no_loci_raises(self, rng):
        panel = PackedPanel(pack_genotypes(_random_genotypes(rng, 4, 4)), 4)
        with pytest.raises(ValueError):
            expand_phases_packed(panel, np.array([], dtype=np.intp))

    def test_row_window_parity(self, rng):
        g = _random_genotypes(rng, 21, 9, missing_rate=0.2)
        panel = PackedPanel(pack_genotypes(g), 21).row_window(5, 18)
        idx = np.array([8, 0, 4], dtype=np.intp)
        _expansions_equal(
            expand_phases_packed(panel, idx), expand_phases(g[5:18][:, idx])
        )


# --------------------------------------------------------------------------- #
# dual-representation dataset
# --------------------------------------------------------------------------- #
class TestPackedDataset:
    def test_store_orders_affected_first_and_round_trips(self, rng):
        g = _random_genotypes(rng, 20, 10)
        status = rng.permutation(
            np.concatenate([np.ones(9, np.int8), np.zeros(9, np.int8),
                            np.full(2, -1, np.int8)])
        )
        source = GenotypeDataset(g, status)
        store = PackedGenotypeStore(source)
        packed_ds = store.dataset()
        assert not packed_ds.is_materialized
        assert packed_ds.n_affected == 9 and packed_ds.n_unaffected == 9
        assert packed_ds.n_unknown == 0
        order = np.concatenate(
            [np.flatnonzero(status == 1), np.flatnonzero(status == 0)]
        )
        np.testing.assert_array_equal(packed_ds.genotypes, g[order])

    def test_as_packed_dataset_is_a_no_op_on_packed_affected_first(self, rng):
        ds = as_packed_dataset(_random_dataset(rng, 16, 8))
        assert as_packed_dataset(ds) is ds

    def test_no_known_status_raises(self, rng):
        g = _random_genotypes(rng, 4, 4)
        with pytest.raises(ValueError):
            PackedGenotypeStore(GenotypeDataset(g, np.full(4, -1, np.int8)))

    def test_materialization_is_lazy_and_cached(self, rng):
        ds = as_packed_dataset(_random_dataset(rng, 12, 6))
        assert not ds.is_materialized
        first = ds.genotypes
        assert ds.is_materialized
        # further reads are views over the one materialised matrix
        assert np.shares_memory(ds.genotypes, first)

    def test_select_snps_and_contiguous_individuals_stay_packed(self, rng):
        ds = as_packed_dataset(_random_dataset(rng, 20, 15))
        window = ds.select_snps(np.arange(3, 11))
        assert not window.is_materialized
        affected = ds.affected()
        assert not affected.is_materialized
        fancy = ds.select_snps(np.array([9, 1, 4]))
        assert not fancy.is_materialized
        np.testing.assert_array_equal(
            fancy.genotypes, ds.genotypes[:, [9, 1, 4]]
        )

    def test_missing_rate_matches_byte_path_without_materializing(self, rng):
        ds = as_packed_dataset(_random_dataset(rng, 30, 9, missing_rate=0.3))
        byte = GenotypeDataset(ds.genotypes.copy(), ds.status.copy())
        repacked = GenotypeDataset(None, ds.status, packed=ds.packed)
        assert repacked.missing_rate == byte.missing_rate
        assert not repacked.is_materialized

    def test_fingerprint_is_representation_independent(self, rng):
        ds = _random_dataset(rng, 25, 33, missing_rate=0.2)
        packed = as_packed_dataset(ds)
        byte = GenotypeDataset(
            packed.genotypes.copy(),
            packed.status.copy(),
            snp_names=packed.snp_names,
            individual_ids=packed.individual_ids,
        )
        assert packed.fingerprint() == byte.fingerprint()

    def test_pickle_of_packed_dataset_drops_the_byte_matrix(self, rng):
        packed = as_packed_dataset(_random_dataset(rng, 64, 120, missing_rate=0.1))
        byte = GenotypeDataset(packed.genotypes.copy(), packed.status.copy())
        packed._materialize()
        packed_blob = pickle.dumps(packed)
        byte_blob = pickle.dumps(byte)
        assert len(packed_blob) < len(byte_blob) / 2
        restored = pickle.loads(packed_blob)
        assert restored == packed


# --------------------------------------------------------------------------- #
# packed shared memory
# --------------------------------------------------------------------------- #
class TestPackedShm:
    def test_as_contiguous_int8_skips_the_copy_when_possible(self):
        a = np.arange(12, dtype=np.int8)
        assert _as_contiguous_int8(a) is a
        sliced = np.arange(24, dtype=np.int8)[::2]
        copied = _as_contiguous_int8(sliced)
        assert copied is not sliced and copied.flags.c_contiguous
        widened = _as_contiguous_int8(np.arange(4, dtype=np.int64))
        assert widened.dtype == np.int8

    def test_packed_segment_is_at_least_3_5x_smaller(self, rng):
        ds = _random_dataset(rng, 106, 201, missing_rate=0.05)
        byte_store = SharedGenotypeStore(ds)
        packed_store = SharedGenotypeStore(ds, packed=True)
        try:
            ratio = byte_store.n_bytes / packed_store.n_bytes
            assert ratio >= 3.5, ratio
        finally:
            byte_store.release()
            packed_store.release()

    def test_packed_load_parity_and_windowing(self, rng):
        ds = _random_dataset(rng, 18, 14, missing_rate=0.2)
        reference = as_packed_dataset(ds)
        store = SharedGenotypeStore(ds, packed=True)
        try:
            view = store.handle.load()
            assert not view.is_materialized
            np.testing.assert_array_equal(view.genotypes, reference.genotypes)
            np.testing.assert_array_equal(view.status, reference.status)
            window_handle = store.handle.window(3, 9)
            windowed = window_handle.load()
            np.testing.assert_array_equal(
                windowed.genotypes, reference.genotypes[:, 3:9]
            )
            del view, windowed
            store.handle.detach()
            window_handle.detach()
        finally:
            store.release()

    def test_packed_handle_survives_pickling(self, rng):
        ds = _random_dataset(rng, 10, 8)
        store = SharedGenotypeStore(ds, packed=True)
        try:
            handle = pickle.loads(pickle.dumps(store.handle))
            view = handle.load()
            np.testing.assert_array_equal(
                view.genotypes, as_packed_dataset(ds).genotypes
            )
            del view
            handle.detach()
        finally:
            store.release()


# --------------------------------------------------------------------------- #
# evaluator and scan bit-identity
# --------------------------------------------------------------------------- #
class TestPackedEvaluator:
    def test_lrt_bitwise_parity_with_missing_genotypes(self, rng):
        ds = _random_dataset(rng, 50, 16, missing_rate=0.2)
        byte_eval = HaplotypeEvaluator(ds, statistic="lrt")
        packed_eval = HaplotypeEvaluator(as_packed_dataset(ds), statistic="lrt")
        for snps in [(0, 1), (3, 7, 11), (15, 2, 8, 5), (9,)]:
            assert byte_eval.evaluate(snps) == packed_eval.evaluate(snps)

    def test_t1_parity_on_the_shared_fixture(self, small_dataset):
        byte_eval = HaplotypeEvaluator(small_dataset)
        packed_eval = HaplotypeEvaluator(as_packed_dataset(small_dataset))
        for snps in [(2, 5), (2, 5, 9), (0, 13), (4, 6, 10)]:
            assert byte_eval.evaluate(snps) == packed_eval.evaluate(snps)


def _scan_key(report):
    return [(w.window.index, w.best_snps, w.best_fitness) for w in report.windows]


@pytest.fixture(scope="module")
def scan_study():
    from repro.genetics.simulate import (
        DiseaseModel,
        PopulationModel,
        simulate_case_control_study,
    )

    model = PopulationModel(n_snps=201, block_size=6, within_block_correlation=0.4)
    disease = DiseaseModel(
        causal_snps=(20, 100, 180),
        risk_alleles=(2, 2, 2),
        baseline_penetrance=0.1,
        relative_risk=6.0,
        risk_haplotype_frequency=0.3,
    )
    return simulate_case_control_study(
        population_model=model,
        disease_model=disease,
        n_affected=20,
        n_unaffected=20,
        seed=31,
    ).dataset


class TestPackedScan:
    CONFIG = GAConfig(
        population_size=6,
        min_haplotype_size=2,
        max_haplotype_size=2,
        termination_stagnation=1,
        max_generations=2,
        point_mutation_trials=1,
    )

    def _scan(self, dataset, **kwargs):
        return run_scan(
            dataset, window_size=4, overlap=2, config=self.CONFIG, seed=17, **kwargs
        )

    def test_fingerprint_unchanged_packed_on_off_across_backends(self, scan_study):
        byte_report = self._scan(scan_study)
        packed_serial = self._scan(scan_study, packed=True)
        packed_shm = self._scan(
            scan_study, packed=True, backend="process-shm", n_workers=2
        )
        packed_async = self._scan(
            scan_study, packed=True, backend="async", n_workers=2
        )
        assert (
            _scan_key(byte_report)
            == _scan_key(packed_serial)
            == _scan_key(packed_shm)
            == _scan_key(packed_async)
        )
        assert byte_report.stats.counters() == packed_serial.stats.counters()

    def test_checkpoint_pins_the_substrate(self, scan_study, tmp_path):
        path = tmp_path / "scan.jsonl"
        self._scan(scan_study, checkpoint_path=path)
        with pytest.raises(CheckpointMismatchError, match="different scan"):
            self._scan(scan_study, checkpoint_path=path, resume=True, packed=True)

    def test_packed_resume_is_bit_identical(self, scan_study, tmp_path):
        path = tmp_path / "packed.jsonl"
        reference = self._scan(scan_study, packed=True, checkpoint_path=path)
        # keep the header and the first 10 journaled windows: a scan killed
        # mid-flight leaves exactly this shape behind
        with open(path) as handle:
            lines = handle.readlines()
        with open(path, "w") as handle:
            handle.writelines(lines[:11])
        resumed = self._scan(
            scan_study, packed=True, checkpoint_path=path, resume=True
        )
        assert _scan_key(resumed) == _scan_key(reference)


# --------------------------------------------------------------------------- #
# PLINK .bed round trip and the CLI
# --------------------------------------------------------------------------- #
class TestBedIO:
    @pytest.mark.parametrize("n", [1, 4, 7, 106])
    def test_round_trip(self, rng, n, tmp_path):
        g = _random_genotypes(rng, n, 13, missing_rate=0.2)
        status = rng.choice(
            np.array([1, 0, -1], dtype=np.int8), size=n
        ).astype(np.int8)
        ds = GenotypeDataset(g, status)
        prefix = str(tmp_path / "study")
        write_bed(ds, prefix)
        back = read_bed(prefix)
        assert back.packed is not None and not back.is_materialized
        np.testing.assert_array_equal(
            np.asarray(back.packed.data), pack_genotypes(g)
        )
        assert back == ds
        assert read_bed(prefix + ".bed", mmap=False) == ds

    def test_validation_errors(self, rng, tmp_path):
        ds = _random_dataset(rng, 6, 5)
        prefix = str(tmp_path / "study")
        bed_path, _bim, _fam = write_bed(ds, prefix)
        with open(bed_path, "r+b") as fh:
            fh.write(b"\x00\x00")
        with pytest.raises(ValueError, match="magic"):
            read_bed(prefix)
        with open(bed_path, "r+b") as fh:
            fh.write(b"\x6c\x1b\x00")
        with pytest.raises(ValueError, match="SNP-major"):
            read_bed(prefix)
        with open(bed_path, "r+b") as fh:
            fh.write(b"\x6c\x1b\x01")
            fh.truncate(5)
        with pytest.raises(ValueError, match="bytes"):
            read_bed(prefix)
        os.remove(bed_path)
        with pytest.raises(FileNotFoundError):
            read_bed(prefix)

    def test_cli_scan_bed(self, rng, tmp_path, capsys):
        from repro.cli import main

        ds = _random_dataset(rng, 20, 24, missing_rate=0.0)
        prefix = str(tmp_path / "panel")
        write_bed(ds, prefix)
        exit_code = main(
            [
                "scan", "--bed", prefix,
                "--window-size", "4", "--window-overlap", "2",
                "--population-size", "6", "--max-size", "2",
                "--stagnation", "1", "--max-generations", "2",
                "--seed", "17", "--top", "3",
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "24 loci" in out

    def test_cli_rejects_study_plus_bed(self, tmp_path, capsys):
        from repro.cli import main

        exit_code = main(["scan", str(tmp_path), "--bed", str(tmp_path / "x")])
        assert exit_code == 2
        assert "not both" in capsys.readouterr().err
