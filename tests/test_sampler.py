"""Bit source, bounded uniform draws, merge unranking, and tree sampling."""

import math
from math import comb

import pytest

from growingtrees.oracle import trees_with_profile
from growingtrees.profiles import Profile, count_trees
from growingtrees.sampler import (
    BitSource,
    MergePattern,
    SampleStats,
    draw_below,
    entropy_bound,
    sample_merge,
    sample_with_stats,
    uniform_tree,
    unrank_merge,
)
from growingtrees.tree_core import profile, to_json
from uniformity import chi_square


def test_bit_source_is_seeded_and_counts():
    a = BitSource(42)
    b = BitSource(42)
    bits_a = [a.next_bit() for _ in range(64)]
    bits_b = [b.next_bit() for _ in range(64)]
    assert bits_a == bits_b
    assert a.bits_consumed == b.bits_consumed == 64
    assert set(bits_a) <= {0, 1}
    assert BitSource(43).next_bit() in (0, 1)


def test_draw_below_one_is_free():
    src = BitSource(1)
    assert draw_below(src, 1) == 0
    assert src.bits_consumed == 0


def test_draw_below_two_costs_one_bit():
    src = BitSource(5)
    for _ in range(100):
        before = src.bits_consumed
        assert draw_below(src, 2) in (0, 1)
        assert src.bits_consumed == before + 1


def test_draw_below_range_and_guard():
    src = BitSource(9)
    values = [draw_below(src, 5) for _ in range(2000)]
    assert set(values) <= set(range(5))
    counts = [values.count(v) for v in range(5)]
    assert chi_square(counts).passed
    with pytest.raises(ValueError, match="positive"):
        draw_below(src, 0)


def test_draw_below_expected_bits():
    src = BitSource(11)
    draws = 4000
    for _ in range(draws):
        draw_below(src, 5)
    assert src.bits_consumed / draws <= math.log2(5) + 2


def test_merge_pattern_accessors():
    p = MergePattern((0, 1, 1, 0))
    assert p.zeros == 2
    assert p.ones == 2
    assert p.one_positions() == (1, 2)
    with pytest.raises(ValueError, match="0s and 1s"):
        MergePattern((0, 2))


def test_unrank_merge_is_a_lex_bijection():
    for p in range(7):
        for q in range(7):
            total = comb(p + q, q)
            patterns = [unrank_merge(r, p, q) for r in range(total)]
            assert len(set(patterns)) == total
            for pat in patterns:
                assert pat.zeros == p and pat.ones == q
            keys = [pat.one_positions() for pat in patterns]
            assert keys == sorted(keys)


def test_unrank_merge_guards():
    with pytest.raises(ValueError, match=r"rank 6 out of range for binom\(4,2\) = 6"):
        unrank_merge(6, 2, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        unrank_merge(0, -1, 2)


def test_sample_merge_shapes():
    src = BitSource(3)
    for _ in range(50):
        pat = sample_merge(src, 3, 2)
        assert pat.zeros == 3 and pat.ones == 2
    empty = sample_merge(src, 0, 0)
    assert empty.word == ()


def test_single_tree_profiles_cost_no_bits():
    for levels in ((1,), (0, 2), (0, 0, 4), (0, 0, 0, 8)):
        p = Profile(levels)
        assert count_trees(p) == 1
        src = BitSource(17)
        tree, stats = sample_with_stats(p, src)
        assert stats.bits_consumed == 0
        assert src.bits_consumed == 0
        assert profile(tree) == p


def test_sampled_trees_match_profile():
    p = Profile((0, 0, 3, 2))
    src = BitSource(23)
    for _ in range(200):
        assert profile(uniform_tree(p, src)) == p


def test_uniformity_small_profile():
    p = Profile((0, 0, 2, 4))
    support = {to_json(t) for t in trees_with_profile(p)}
    assert len(support) == 6
    src = BitSource(29)
    tally = {}
    for _ in range(3000):
        key = to_json(uniform_tree(p, src))
        tally[key] = tally.get(key, 0) + 1
    assert set(tally) == support
    assert chi_square(list(tally.values())).passed


def test_invalid_profile_rejected_before_bits_flow():
    src = BitSource(31)
    with pytest.raises(ValueError, match=r"invalid profile, kraft sum 3/4 != 1"):
        uniform_tree(Profile((0, 1, 1)), src)
    with pytest.raises(ValueError, match="invalid profile"):
        sample_with_stats(Profile((0, 1, 1)), src)
    assert src.bits_consumed == 0


def test_sample_stats_record():
    p = Profile((0, 1, 2))
    src = BitSource(37)
    tree, stats = sample_with_stats(p, src)
    assert isinstance(stats, SampleStats)
    assert stats.seed == 37
    assert stats.profile == p
    assert stats.node_count == len(tree.nodes) == 2 * 3 - 1
    assert stats.steps == 3 * 3 - 2
    assert stats.bits_consumed == src.bits_consumed


def test_step_counter_is_linear_in_leaves():
    for levels in ((1,), (0, 2), (0, 1, 2), (0, 0, 2, 4), (0, 1, 0, 4), (0, 1, 1, 2)):
        p = Profile(levels)
        leaves = p.total_leaves
        src = BitSource(41)
        tree, stats = sample_with_stats(p, src)
        assert stats.steps == 3 * leaves - 2
        assert stats.node_count == 2 * leaves - 1
        assert tree.leaf_count == leaves


def test_seeded_sampling_is_reproducible():
    p = Profile((0, 1, 0, 2, 4))
    first = [to_json(uniform_tree(p, BitSource(101 + i))) for i in range(10)]
    second = [to_json(uniform_tree(p, BitSource(101 + i))) for i in range(10)]
    assert first == second
    stream = BitSource(7)
    run_a = [to_json(uniform_tree(p, stream)) for _ in range(5)]
    stream2 = BitSource(7)
    run_b = [to_json(uniform_tree(p, stream2)) for _ in range(5)]
    assert run_a == run_b


def test_entropy_bound_examples():
    assert entropy_bound(Profile((0, 2))) == 0.0
    assert entropy_bound(Profile((0, 1, 2))) == 1.0
    assert entropy_bound(Profile((0, 0, 2, 4))) == pytest.approx(math.log2(6))


def test_entropy_bound_handles_huge_counts():
    p = Profile((0,) * 10 + (512, 1024))
    count = count_trees(p)
    assert count == comb(1024, 512)
    assert count.bit_length() > 900
    assert entropy_bound(p) == pytest.approx(math.log2(count), rel=1e-12)


def test_mean_bits_stay_near_entropy_floor():
    p = Profile((0, 0, 2, 4))
    src = BitSource(53)
    draws = 2000
    total = 0
    for _ in range(draws):
        _, stats = sample_with_stats(p, src)
        total += stats.bits_consumed
    assert total / draws <= entropy_bound(p) + 3
