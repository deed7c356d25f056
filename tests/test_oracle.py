"""Exhaustive enumerations and the chi-square helper."""

import math

import pytest

import reference_data as ref
from growingtrees.enumeration import t_height_table
from growingtrees.oracle import (
    all_binary_trees,
    all_growth_histories,
    trees_with_profile,
)
from growingtrees.profiles import Profile
from growingtrees.tree_core import profile, stats, validate_growing
from uniformity import ChiSquareResult, chi2_upper_quantile, chi2_upper_tail, chi_square


def test_binary_tree_counts_are_catalan():
    for leaves in range(1, 11):
        trees = all_binary_trees(leaves)
        assert len(trees) == ref.CATALAN[leaves - 1]
        assert len(set(trees)) == len(trees)
        assert all(t.leaf_count == leaves for t in trees)


def test_binary_tree_enumeration_is_stable():
    assert all_binary_trees(4) == all_binary_trees(4)


def test_binary_tree_bounds():
    with pytest.raises(ValueError, match="out of range 1..12: 0"):
        all_binary_trees(0)
    with pytest.raises(ValueError, match="out of range 1..12: 13"):
        all_binary_trees(13)


def test_trees_with_profile():
    assert len(trees_with_profile(Profile((0, 1, 2)))) == 2
    assert len(trees_with_profile(Profile((0, 0, 2, 4)))) == 6
    assert trees_with_profile(Profile((0, 1, 1))) == []
    with pytest.raises(ValueError, match="oracle bound"):
        trees_with_profile(Profile((0,) + (0,) * 10 + (2**11,)))


def test_histories_state_counts():
    assert len(list(all_growth_histories(1))) == 2
    assert len(list(all_growth_histories(2))) == 6
    assert len(list(all_growth_histories(3))) == 30


def test_histories_bounds():
    with pytest.raises(ValueError, match="out of range 1..5: 0"):
        all_growth_histories(0)
    with pytest.raises(ValueError, match="out of range 1..5: 6"):
        all_growth_histories(6)


def test_histories_active_states_count_trees_by_height():
    for steps in range(1, 4):
        active = [t for t, s in all_growth_histories(steps) if s.m and t.step == steps]
        expected = ref.TREES_BY_MAX_HEIGHT[steps] - ref.TREES_BY_MAX_HEIGHT[steps - 1]
        assert len(active) == expected


def test_histories_yield_consistent_states():
    for t, s in all_growth_histories(3):
        assert stats(t) == s
        validate_growing(t)


def test_histories_step4_bucket_matches_height_table():
    bucket = {}
    for t, s in all_growth_histories(4):
        if s.m and t.step == 4:
            cell = (s.n, s.m // 2)
            bucket[cell] = bucket.get(cell, 0) + 1
    assert bucket == ref.STEP4_COUNTS
    assert bucket[(4, 1)] == 8


def test_exhaustive_walk_to_step_five():
    # One deep sweep: every reachable state within five growth steps. The
    # active states at each step must reproduce the fixed-height tables
    # cell by cell; columns that complete within the budget hold each
    # frozen shape exactly twice (once active, once after its death).
    active_buckets: dict[int, dict[tuple[int, int], int]] = {}
    column_totals: dict[int, int] = {}
    total = 0
    for t, s in all_growth_histories(5):
        total += 1
        if s.m:
            cell = (s.n, s.m // 2)
            bucket = active_buckets.setdefault(t.step, {})
            bucket[cell] = bucket.get(cell, 0) + 1
        column_totals[s.n] = column_totals.get(s.n, 0) + 1
        if total % 997 == 0:
            validate_growing(t)
            assert stats(t) == s
    assert total == 459_006
    for step in range(1, 6):
        assert active_buckets[step] == t_height_table(step).entries
    assert column_totals[0] == 1
    for n in range(1, 5):
        assert column_totals[n] == 2 * ref.CATALAN[n]


def test_chi_square_accepts_uniform_counts():
    result = chi_square([100, 100, 100])
    assert isinstance(result, ChiSquareResult)
    assert result.statistic == 0.0
    assert result.dof == 2
    assert result.passed
    assert chi_square([95, 105, 103, 97]).passed


def test_chi_square_rejects_skewed_counts():
    result = chi_square([1000, 0])
    assert not result.passed
    assert result.statistic > result.threshold


# scipy.stats.chi2.ppf(1 - 1e-6, dof), recorded with scipy 1.17.1, for every
# dof the suite's uniformity tests use.
SCIPY_CHI2_THRESHOLDS = {
    1: 23.92812697687947,
    2: 27.631021115871036,
    3: 30.66484970615427,
    4: 33.37684158165888,
    5: 35.88818687961042,
    7: 40.52183123411472,
    11: 48.86564276313385,
    15: 56.49344249969959,
    23: 70.54955713680532,
    31: 83.64251584691797,
    35: 89.94674092368464,
    47: 108.17712869700104,
}


def test_chi_square_thresholds_match_scipy():
    for dof, threshold in SCIPY_CHI2_THRESHOLDS.items():
        assert chi2_upper_quantile(1e-6, dof) == pytest.approx(threshold, rel=1e-10)
        assert chi_square([100] * (dof + 1)).threshold == pytest.approx(threshold, rel=1e-10)


def test_chi_square_tail_closed_forms():
    for x in (0.5, 3.0, 40.0):
        assert chi2_upper_tail(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2)), rel=1e-14)
        assert chi2_upper_tail(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-14)
        assert chi2_upper_tail(x, 4) == pytest.approx(math.exp(-x / 2) * (1 + x / 2), rel=1e-14)


def test_chi_square_guards():
    with pytest.raises(ValueError, match="at least 2 outcomes"):
        chi_square([500])
    with pytest.raises(ValueError, match="insufficient draws: 150 < 100"):
        chi_square([75, 75])

