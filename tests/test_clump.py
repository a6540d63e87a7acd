"""Tests of the CLUMP statistics and their Monte-Carlo significance."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

from repro.stats.clump import (
    clump_statistic,
    clump_statistics,
    monte_carlo_p_values,
    simulate_table_with_margins,
    t1_statistic,
    t2_statistic,
    t3_statistic,
    t4_statistic,
)
from repro.stats.contingency import ContingencyTable


@pytest.fixture()
def associated_table():
    # haplotype column 0 is clearly enriched in the affected row
    return ContingencyTable.from_rows(
        [40, 10, 5, 5], [10, 25, 15, 10], ["h0", "h1", "h2", "h3"]
    )


@pytest.fixture()
def null_table():
    return ContingencyTable.from_rows([20, 20, 20], [20, 20, 20])


class TestT1:
    def test_matches_scipy(self, associated_table):
        ours = t1_statistic(associated_table)
        scipy_stat, _, scipy_df, _ = scipy_stats.chi2_contingency(
            associated_table.counts, correction=False
        )
        assert ours.statistic == pytest.approx(scipy_stat)
        assert ours.df == scipy_df

    def test_null_table_is_zero(self, null_table):
        assert t1_statistic(null_table).statistic == pytest.approx(0.0)


class TestT2:
    def test_t2_pools_rare_columns(self):
        table = ContingencyTable.from_rows(
            [40, 30, 1, 0, 1], [20, 45, 0, 2, 1]
        )
        t2 = t2_statistic(table, min_expected=5.0)
        # pooling reduces the degrees of freedom below the raw table's
        assert t2.df < t1_statistic(table).df
        assert t2.statistic >= 0.0

    def test_t2_equals_t1_when_no_rare_columns(self, associated_table):
        assert t2_statistic(associated_table).statistic == pytest.approx(
            t1_statistic(associated_table).statistic
        )


class TestT3T4:
    def test_t3_is_max_single_column_chi2(self, associated_table):
        t3 = t3_statistic(associated_table)
        # manually compute the column-0-vs-rest 2x2 chi-square
        counts = associated_table.counts
        a, c = counts[0, 0], counts[1, 0]
        b, d = counts[0, 1:].sum(), counts[1, 1:].sum()
        manual = scipy_stats.chi2_contingency(
            np.array([[a, b], [c, d]]), correction=False
        )[0]
        assert t3.statistic >= manual - 1e-9
        assert t3.df == 1

    def test_t4_at_least_t3(self, associated_table):
        assert (
            t4_statistic(associated_table).statistic
            >= t3_statistic(associated_table).statistic - 1e-9
        )

    def test_t4_single_column_table(self):
        table = ContingencyTable.from_rows([10], [12])
        assert t4_statistic(table).statistic == pytest.approx(0.0)

    def test_t4_finds_the_two_group_split(self):
        # columns 0 and 1 are "risk" columns, 2 and 3 protective; the best
        # bipartition pools {0,1} vs {2,3} and beats any single column
        table = ContingencyTable.from_rows([30, 28, 5, 6], [10, 12, 25, 24])
        t4 = t4_statistic(table).statistic
        t3 = t3_statistic(table).statistic
        assert t4 > t3


class TestClumpStatistics:
    def test_statistic_lookup(self, associated_table):
        result = clump_statistics(associated_table)
        assert result.statistic("t1") == pytest.approx(result.t1.statistic)
        assert result.statistic("T4") == pytest.approx(result.t4.statistic)
        with pytest.raises(ValueError):
            result.statistic("t9")

    def test_association_scores_higher_than_null(self, associated_table, null_table):
        strong = clump_statistics(associated_table)
        weak = clump_statistics(null_table)
        for name in ("t1", "t2", "t3", "t4"):
            assert strong.statistic(name) >= weak.statistic(name)


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


class TestClumpStatisticFastPath:
    """``clump_statistic`` is the full ``ClumpResult`` lookup, bit for bit."""

    @staticmethod
    def _assert_fast_path_matches(table, min_expected=5.0):
        full = clump_statistics(table, min_expected=min_expected)
        for name in ("t1", "t2", "t3", "t4"):
            fast = clump_statistic(table, name, min_expected=min_expected)
            assert type(fast) is float
            assert _bits(fast) == _bits(full.statistic(name)), name

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.just(0.0), st.floats(0.0, 60.0, allow_nan=False)),
                st.one_of(st.just(0.0), st.floats(0.0, 60.0, allow_nan=False)),
            ),
            min_size=1,
            max_size=16,
        ),
        st.sampled_from([0.5, 5.0, 50.0]),
    )
    def test_matches_clump_statistics_bitwise(self, columns, min_expected):
        counts = np.array(columns, dtype=np.float64).T
        if not (counts.sum(axis=0) > 0).any():
            return  # every column empty: both paths reject the table
        self._assert_fast_path_matches(ContingencyTable(counts), min_expected)

    def test_empty_columns(self):
        table = ContingencyTable.from_rows([0, 12.5, 0, 3, 0], [0, 4, 0, 9.25, 0])
        self._assert_fast_path_matches(table)

    def test_single_column(self):
        self._assert_fast_path_matches(ContingencyTable.from_rows([10], [12]))
        self._assert_fast_path_matches(ContingencyTable.from_rows([0, 7, 0], [0, 3, 0]))

    def test_all_columns_rare_for_t2(self):
        # every expected count is below min_expected, so T2 pools them all
        table = ContingencyTable.from_rows([1, 2, 0.5, 1], [2, 0.25, 1, 1])
        assert table.clump_rare_columns(5.0).n_columns == 1
        self._assert_fast_path_matches(table)

    def test_unknown_name_and_case(self, associated_table):
        with pytest.raises(ValueError):
            clump_statistic(associated_table, "t9")
        assert clump_statistic(associated_table, "T3") == clump_statistic(
            associated_table, "t3"
        )

    def test_all_empty_table_raises_like_clump_statistics(self):
        table = ContingencyTable.from_rows([0, 0], [0, 0])
        for name in ("t1", "t2", "t3", "t4"):
            with pytest.raises(ValueError):
                clump_statistic(table, name)


class TestMonteCarlo:
    def test_simulated_tables_preserve_row_totals(self, associated_table, rng):
        simulated = simulate_table_with_margins(
            associated_table.row_totals,
            associated_table.column_totals / associated_table.total,
            rng,
        )
        np.testing.assert_allclose(simulated.row_totals, associated_table.row_totals)
        assert simulated.counts.shape == associated_table.counts.shape

    @pytest.mark.parametrize("seed", [0, 7])
    def test_pvalues_match_full_statistics_reference(self, seed):
        # the p-values the full ClumpResult path gives for the same seed:
        # same simulated tables, same comparisons, bit-identical result
        table = ContingencyTable.from_rows([30, 0, 12, 3, 1], [18, 0, 20, 6, 2])
        rng = np.random.default_rng(seed)
        kept = table.drop_empty_columns()
        observed = clump_statistics(kept)
        exceed = dict.fromkeys(("t1", "t2", "t3", "t4"), 0)
        for _ in range(150):
            simulated = clump_statistics(
                simulate_table_with_margins(
                    kept.row_totals, kept.column_totals / kept.total, rng
                )
            )
            for name in exceed:
                exceed[name] += simulated.statistic(name) >= observed.statistic(name)
        expected = {name: (1 + n) / 151 for name, n in exceed.items()}
        assert monte_carlo_p_values(table, n_simulations=150, seed=seed) == expected

    def test_pvalues_in_unit_interval_and_reproducible(self, associated_table):
        p1 = monte_carlo_p_values(associated_table, n_simulations=200, seed=1)
        p2 = monte_carlo_p_values(associated_table, n_simulations=200, seed=1)
        assert p1 == p2
        for value in p1.values():
            assert 0.0 < value <= 1.0

    def test_associated_table_is_significant(self, associated_table):
        p = monte_carlo_p_values(associated_table, n_simulations=300, seed=2)
        assert p["t1"] < 0.05

    def test_null_table_is_not_significant(self, null_table):
        p = monte_carlo_p_values(null_table, n_simulations=200, seed=3)
        assert p["t1"] > 0.5

    def test_invalid_inputs(self, associated_table, rng):
        with pytest.raises(ValueError):
            monte_carlo_p_values(associated_table, n_simulations=0)
        with pytest.raises(ValueError):
            simulate_table_with_margins(np.array([-1, 5]), np.array([0.5, 0.5]), rng)
        with pytest.raises(ValueError):
            simulate_table_with_margins(np.array([1, 5]), np.array([0.0, 0.0]), rng)


class TestStatisticsAreNonNegative:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=40), min_size=2, max_size=8),
        st.lists(st.integers(min_value=0, max_value=40), min_size=2, max_size=8),
    )
    def test_all_statistics_non_negative(self, row_a, row_b):
        m = min(len(row_a), len(row_b))
        counts = np.array([row_a[:m], row_b[:m]], dtype=float)
        if counts.sum() == 0 or not (counts.sum(axis=0) > 0).any():
            return
        table = ContingencyTable(counts)
        try:
            result = clump_statistics(table)
        except ValueError:
            return  # fully empty table after dropping columns
        for name in ("t1", "t2", "t3", "t4"):
            assert result.statistic(name) >= 0.0
