"""Tests of the haplotype-frequency EM (the EH-DIALL computational core)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.genetics.alleles import n_haplotype_states
from repro.genetics.packed import PackedPanel, pack_genotypes
from repro.stats.em import (
    estimate_haplotype_frequencies,
    expand_phases,
    expand_phases_packed,
    _genotype_pairs,
    _log_likelihood,
)


def _genotypes_from_haplotypes(h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    return (h1 + h2).astype(np.int8)


def _haplotype_counts(h: np.ndarray) -> np.ndarray:
    """Exact haplotype state counts of a phased 0/1 haplotype matrix."""
    n_loci = h.shape[1]
    states = (h * (1 << np.arange(n_loci))).sum(axis=1)
    counts = np.bincount(states, minlength=n_haplotype_states(n_loci))
    return counts / counts.sum()


class TestPhaseExpansion:
    def test_homozygote_has_single_pair(self):
        pairs = _genotype_pairs(np.array([0, 2, 0]))
        assert pairs == [(2, 2)]  # allele 2 only at locus 1 -> state 0b010

    def test_single_heterozygote_has_single_pair(self):
        pairs = _genotype_pairs(np.array([1, 0]))
        assert pairs == [(1, 0)]

    def test_double_heterozygote_has_two_pairs(self):
        pairs = _genotype_pairs(np.array([1, 1]))
        assert len(pairs) == 2
        assert {frozenset(p) for p in pairs} == {frozenset({3, 0}), frozenset({1, 2})}

    def test_number_of_pairs_is_exponential_in_heterozygosity(self):
        genotype = np.array([1, 1, 1, 1])
        assert len(_genotype_pairs(genotype)) == 2 ** 3

    def test_expansion_excludes_missing(self):
        genotypes = np.array([[1, 1], [0, -1], [2, 2]], dtype=np.int8)
        expansion = expand_phases(genotypes)
        assert expansion.n_individuals == 2  # the row with missing data is dropped

    def test_expansion_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            expand_phases(np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            expand_phases(np.zeros((3, 0), dtype=np.int8))

    def test_empty_expansion(self):
        expansion = expand_phases(np.full((3, 2), -1, dtype=np.int8))
        assert expansion.n_individuals == 0
        result = estimate_haplotype_frequencies(np.full((3, 2), -1, dtype=np.int8))
        assert result.n_individuals == 0
        assert result.converged


class TestEMCorrectness:
    def test_unambiguous_data_recovers_exact_counts(self, rng):
        # single-locus heterozygotes only: phase is never ambiguous
        h1 = (rng.random((100, 1)) < 0.3).astype(np.int8)
        h2 = (rng.random((100, 1)) < 0.3).astype(np.int8)
        genotypes = _genotypes_from_haplotypes(h1, h2)
        result = estimate_haplotype_frequencies(genotypes)
        truth = _haplotype_counts(np.vstack([h1, h2]))
        np.testing.assert_allclose(result.frequencies, truth, atol=1e-9)

    def test_frequencies_on_simplex(self, rng):
        h1 = (rng.random((80, 4)) < 0.4).astype(np.int8)
        h2 = (rng.random((80, 4)) < 0.4).astype(np.int8)
        result = estimate_haplotype_frequencies(_genotypes_from_haplotypes(h1, h2))
        assert result.frequencies.shape == (16,)
        assert np.all(result.frequencies >= -1e-12)
        assert result.frequencies.sum() == pytest.approx(1.0)
        assert result.expected_counts().sum() == pytest.approx(2 * 80)

    def test_em_recovers_strong_ld_structure(self, rng):
        # population made of only two complementary haplotypes: 000 and 111
        n = 150
        which = rng.random(n) < 0.6
        h1 = np.where(which[:, None], 1, 0) * np.ones((1, 3), dtype=int)
        which2 = rng.random(n) < 0.6
        h2 = np.where(which2[:, None], 1, 0) * np.ones((1, 3), dtype=int)
        genotypes = _genotypes_from_haplotypes(h1.astype(np.int8), h2.astype(np.int8))
        result = estimate_haplotype_frequencies(genotypes)
        # essentially all the mass must sit on states 0 (000) and 7 (111)
        assert result.frequencies[0] + result.frequencies[7] > 0.97

    def test_loglikelihood_monotone_in_iterations(self, rng):
        h1 = (rng.random((60, 3)) < 0.5).astype(np.int8)
        h2 = (rng.random((60, 3)) < 0.5).astype(np.int8)
        genotypes = _genotypes_from_haplotypes(h1, h2)
        expansion = expand_phases(genotypes)
        lls = []
        for max_iter in (1, 2, 5, 20, 100):
            result = estimate_haplotype_frequencies(genotypes, max_iter=max_iter)
            lls.append(result.log_likelihood)
        assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))
        # and the final likelihood beats the uniform starting point
        uniform = np.full(8, 1 / 8)
        assert lls[-1] >= _log_likelihood(expansion, uniform) - 1e-9

    def test_convergence_flag(self, rng):
        h1 = (rng.random((50, 3)) < 0.4).astype(np.int8)
        h2 = (rng.random((50, 3)) < 0.4).astype(np.int8)
        genotypes = _genotypes_from_haplotypes(h1, h2)
        converged = estimate_haplotype_frequencies(genotypes, max_iter=500)
        assert converged.converged
        assert converged.n_iterations <= 500

    def test_initial_frequencies_validation(self, rng):
        genotypes = _genotypes_from_haplotypes(
            (rng.random((10, 2)) < 0.5).astype(np.int8),
            (rng.random((10, 2)) < 0.5).astype(np.int8),
        )
        with pytest.raises(ValueError):
            estimate_haplotype_frequencies(genotypes, initial_frequencies=np.ones(3))
        with pytest.raises(ValueError):
            estimate_haplotype_frequencies(genotypes, initial_frequencies=np.zeros(4))
        with pytest.raises(ValueError):
            estimate_haplotype_frequencies(genotypes,
                                           initial_frequencies=np.array([0.5, -0.5, 0.5, 0.5]))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=2, max_value=4))
    def test_simplex_property(self, seed, n_loci):
        rng = np.random.default_rng(seed)
        p = rng.uniform(0.2, 0.8, size=n_loci)
        h1 = (rng.random((40, n_loci)) < p).astype(np.int8)
        h2 = (rng.random((40, n_loci)) < p).astype(np.int8)
        result = estimate_haplotype_frequencies(_genotypes_from_haplotypes(h1, h2))
        assert np.all(result.frequencies >= -1e-12)
        assert result.frequencies.sum() == pytest.approx(1.0, abs=1e-9)


def _reference_expansion(genotypes: np.ndarray, class_dtype) -> dict[str, np.ndarray]:
    """Brute-force expansion: Python set dedup plus the scalar pair enumeration.

    Shares no code with the radix class counter of :func:`expand_phases`.
    """
    n_loci = genotypes.shape[1]
    rows = [tuple(int(v) for v in row) for row in genotypes.tolist() if -1 not in row]
    classes = sorted(set(rows))
    pair_a, pair_b, pair_class = [], [], []
    for index, genotype in enumerate(classes):
        for a, b in _genotype_pairs(np.array(genotype)):
            pair_a.append(a)
            pair_b.append(b)
            pair_class.append(index)
    return {
        "class_counts": np.array([rows.count(c) for c in classes], dtype=np.int64),
        "class_genotypes": np.array(classes, dtype=class_dtype).reshape(-1, n_loci),
        "pair_a": np.array(pair_a, dtype=np.int64),
        "pair_b": np.array(pair_b, dtype=np.int64),
        "pair_class": np.array(pair_class, dtype=np.int64),
        "pair_multiplicity": np.array(
            [1.0 if a == b else 2.0 for a, b in zip(pair_a, pair_b)], dtype=np.float64
        ),
    }


def _assert_matches_reference(expansion, genotypes: np.ndarray, class_dtype) -> None:
    assert expansion.n_loci == genotypes.shape[1]
    for name, expected in _reference_expansion(genotypes, class_dtype).items():
        actual = getattr(expansion, name)
        assert actual.dtype == expected.dtype, name
        assert actual.shape == expected.shape, name
        np.testing.assert_array_equal(actual, expected, err_msg=name)


class TestExpansionOracle:
    """Byte and packed expansions against an independent brute-force reference."""

    @staticmethod
    def _check(genotypes: np.ndarray) -> None:
        _assert_matches_reference(expand_phases(genotypes), genotypes, genotypes.dtype)
        n = genotypes.shape[0]
        panel = PackedPanel(pack_genotypes(genotypes.astype(np.int8)), n)
        idx = np.arange(genotypes.shape[1], dtype=np.intp)
        _assert_matches_reference(expand_phases_packed(panel, idx), genotypes, np.int8)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=70),
        st.sampled_from([0.0, 0.1, 0.4]),
        st.sampled_from([np.int8, np.int64]),
    )
    def test_random_panels(self, seed, n_loci, n_individuals, missing_rate, dtype):
        rng = np.random.default_rng(seed)
        genotypes = rng.integers(0, 3, size=(n_individuals, n_loci)).astype(dtype)
        genotypes[rng.random(genotypes.shape) < missing_rate] = -1
        self._check(genotypes)

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int64])
    @pytest.mark.parametrize("n_loci", [1, 4, 8, 33])
    def test_all_missing_panel(self, n_loci, dtype):
        genotypes = np.full((5, n_loci), -1, dtype=dtype)
        genotypes[::2, 0] = 1  # typed at one locus only: still incomplete
        if n_loci == 1:
            genotypes[:] = -1
        self._check(genotypes)
        assert expand_phases(genotypes).class_genotypes.shape == (0, n_loci)

    def test_every_genotype_class_of_three_loci(self):
        grid = np.array(np.meshgrid(*[[2, 0, 1]] * 3, indexing="ij")).reshape(3, -1).T
        self._check(np.repeat(grid, 2, axis=0).astype(np.int8)[::-1].copy())

    def test_wide_subset_beyond_the_radix_code(self):
        # 33 loci do not fit the int64 radix code: both paths sort rows
        rng = np.random.default_rng(5)
        genotypes = rng.choice(np.array([0, 2, 1], dtype=np.int8), p=[0.45, 0.45, 0.1],
                               size=(9, 33))
        genotypes[[1, 4], :] = genotypes[0]
        genotypes[7, 3] = -1
        self._check(genotypes)

    def test_invalid_codes_raise(self):
        with pytest.raises(ValueError):
            expand_phases(np.array([[0, 3], [1, 1]], dtype=np.int8))
        with pytest.raises(ValueError):
            expand_phases(np.array([[0, -2]], dtype=np.int64))
