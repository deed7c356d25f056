"""Bit source, bounded uniform draws, merge unranking, and tree sampling."""

import math
import random
from collections import defaultdict
from math import comb, prod

import pytest
from hypothesis import example, given, strategies as st

from growingtrees import cli, profiles, sampler
from growingtrees.oracle import all_binary_trees, trees_with_profile
from growingtrees.profiles import Profile, _product_tree, base_tree, count_trees, internal_profile, level_choices
from growingtrees.sampler import (
    _MEMO_SLOTS,
    BitSource,
    SampleStats,
    _build,
    _mixed_radix,
    _small_merge,
    draw_below,
    entropy_bound,
    sample_with_stats,
    samples,
    uniform_tree,
    unrank_merge,
)
from growingtrees.tree_core import INTERNAL, _in_level_order, profile, to_json
from uniformity import chi_square


def test_bit_source_is_seeded_and_counts():
    a = BitSource(42)
    b = BitSource(42)
    bits_a = [a.next_bits(1) for _ in range(64)]
    bits_b = [b.next_bits(1) for _ in range(64)]
    assert bits_a == bits_b
    assert a.bits_consumed == b.bits_consumed == 64
    assert set(bits_a) <= {0, 1}
    assert BitSource(43).next_bits(1) in (0, 1)
    # random.Random would seed -1 as 1 and replay its bits.
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        BitSource(-1)


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


def _draw_below_bit_by_bit(src, n):
    """draw_below as first written: one single-bit draw per doubling."""
    v, c = 1, 0
    while True:
        while v < n:
            v <<= 1
            c = (c << 1) | src.next_bits(1)
        if c < n:
            return c
        v -= n
        c -= n


class _OneBitAtATime(BitSource):
    """A source whose k-bit blocks are k single bits, most significant first."""

    def next_bits(self, k):
        c = 0
        for _ in range(k):
            c = (c << 1) | BitSource.next_bits(self, 1)
        return c


def test_draw_below_takes_each_shortfall_in_one_block():
    # Same bits in, same values and bit counts out as the bit-by-bit loop.
    for n in (2, 3, 5, 6, 7, 100, 2**61 - 1, 3**200, 2**300 + 1):
        blocks, single = _OneBitAtATime(n % 1000), BitSource(n % 1000)
        for _ in range(50):
            assert draw_below(blocks, n) == _draw_below_bit_by_bit(single, n)
            assert blocks.bits_consumed == single.bits_consumed


def test_next_bits_counts_exactly():
    src = BitSource(13)
    assert src.next_bits(0) == 0 and src.bits_consumed == 0
    assert 0 <= src.next_bits(10_000) < 1 << 10_000
    assert src.bits_consumed == 10_000


def test_draw_below_long_run_stays_under_fast_dice_roller_bound():
    n = 3**6500  # 10,303 bits
    assert n.bit_length() > 10_000
    src = BitSource(59)
    draws = 1000
    for _ in range(draws):
        assert 0 <= draw_below(src, n) < n
    assert src.bits_consumed / draws <= math.log2(n) + 2


def test_unrank_merge_is_a_lex_bijection():
    for p in range(7):
        for q in range(7):
            total = comb(p + q, q)
            patterns = [unrank_merge(r, p, q) for r in range(total)]
            assert len(set(patterns)) == total
            for word in patterns:
                assert len(word) == p + q
                assert word.count(0) == p and word.count(1) == q
            keys = [tuple(i for i, bit in enumerate(word) if bit) for word in patterns]
            assert keys == sorted(keys)
    assert unrank_merge(0, 0, 0) == ()


def _unrank_by_comb(rank, p, q):
    """The merge word by the first formula: a fresh binomial for every slot."""
    slots, ones_left, word = p + q, q, []
    for i in range(slots):
        if ones_left == 0:
            word.append(0)
            continue
        here = comb(slots - i - 1, ones_left - 1)
        if rank < here:
            word.append(1)
            ones_left -= 1
        else:
            rank -= here
            word.append(0)
    return tuple(word)


def test_unrank_merge_matches_the_binomial_per_slot_formula():
    for p in range(9):
        for q in range(9):
            for r in range(comb(p + q, q)):
                assert unrank_merge(r, p, q) == _unrank_by_comb(r, p, q)
    rng = random.Random(61)
    for _ in range(200):
        p, q = rng.randint(0, 300), rng.randint(0, 300)
        total = comb(p + q, q)
        for r in (0, total - 1, rng.randrange(total)):
            assert unrank_merge(r, p, q) == _unrank_by_comb(r, p, q)


def test_unrank_merge_guards():
    with pytest.raises(ValueError, match=r"rank 6 out of range for binom\(4,2\) = 6"):
        unrank_merge(6, 2, 2)
    # Ranks and totals past the 4,300-digit str() limit still print.
    with pytest.raises(ValueError, match=r"out of range for binom\(30000,15000\) = \d{9000}"):
        unrank_merge(comb(30000, 15000), 15000, 15000)
    with pytest.raises(ValueError, match="nonnegative"):
        unrank_merge(0, -1, 2)


def _rank_word(word):
    """The lex rank of a 0/1 word among the words of its length and ones:
    the inverse of unrank_merge."""
    rank, ones_left = 0, word.count(1)
    for slot, letter in enumerate(word):
        if ones_left == 0:
            break
        if letter:
            ones_left -= 1
        else:
            rank += comb(len(word) - slot - 1, ones_left - 1)
    return rank


def _rank_tree(p, tree):
    """The rank whose build is `tree`: each depth's word read off tree.nodes
    (0 = internal, 1 = leaf), ranked, and the digits recombined, depth 1
    most significant."""
    assert _in_level_order(tree)
    rank, start, width = 0, 1, 2
    for base in level_choices(p)[:-1]:
        word = [0 if kind == INTERNAL else 1 for kind in tree.nodes[start:start + width]]
        rank = rank * base + _rank_word(word)
        start, width = start + width, 2 * word.count(0)
    return rank


def test_build_is_a_bijection_from_ranks_to_trees():
    # The oracle's trees of n leaves grouped by profile: trees_with_profile
    # for every valid profile with n leaves at once.
    checked = 0
    for leaves in range(1, 11):
        by_profile = defaultdict(set)
        for tree in all_binary_trees(leaves):
            by_profile[profile(tree)].add(tree)
        for p, support in by_profile.items():
            radix = base_tree(p)
            count = radix[-1][0]
            assert count == count_trees(p)
            built = [_build(p, _mixed_radix(r, radix))[0] for r in range(count)]
            assert len(set(built)) == count, p
            assert set(built) == support, p
            assert [_rank_tree(p, tree) for tree in built] == list(range(count)), p
            checked += 1
    assert checked == 116


def test_words_read_off_built_trees_give_back_the_rank():
    rng = random.Random(73)
    both_sides = 0
    for _ in range(100):
        p = _random_split_profile(rng, rng.randint(2, 400))
        radix = base_tree(p)
        count = radix[-1][0]
        for rank in (0, count - 1, rng.randrange(count)):
            assert _rank_tree(p, _build(p, _mixed_radix(rank, radix))[0]) == rank
        # Depth d's word has 2 * i_{d-1} slots.
        widths = [2 * i for i in internal_profile(p)[:-1]]
        both_sides += bool(widths) and min(widths) <= _MEMO_SLOTS < max(widths)
    assert both_sides >= 50, both_sides


def test_build_rejects_a_digit_list_of_another_length():
    p = Profile((0, 1, 0, 2, 4))
    digits = _mixed_radix(0, base_tree(p))
    assert len(digits) == p.height - 1
    for wrong in (digits[:-1], digits + [0]):
        with pytest.raises(ValueError, match="zip"):
            _build(p, wrong)


def test_mixed_radix_rejects_ranks_out_of_range():
    for levels in ((1,), (0, 2), (0, 0, 2, 4), (0, 1, 0, 2, 4)):
        p = Profile(levels)
        radix = base_tree(p)
        for rank in (-1, count_trees(p)):
            with pytest.raises(ValueError, match="rank out of range"):
                _mixed_radix(rank, radix)


def _digits_one_by_one(rank, bases):
    digits = []
    for base in bases:
        rank, digit = divmod(rank, base)
        digits.append(digit)
    assert rank == 0
    return digits


@given(st.lists(st.integers(1, 1 << 70), max_size=40))
@example([]).via("no factors: an empty level 0 under the root 1")
@example([2, 3, 5]).via("an odd last entry carried up")
def test_product_tree_pairs_adjacent_entries(factors):
    tree = _product_tree(factors)
    assert tree[0] == factors
    assert tree[-1] == [math.prod(factors)]
    for below, above in zip(tree, tree[1:]):
        # Adjacent pairs multiply; an odd last entry is carried up as it is.
        assert above == ([math.prod(below[c:c + 2]) for c in range(0, len(below), 2)] or [1])


@given(st.data())
def test_mixed_radix_matches_digit_by_digit_division(data):
    # Small bases and bases of up to 300 bits, including none at all; lengths
    # on both sides of the product tree's odd and even splits.
    base = st.one_of(st.integers(1, 6), st.integers(1, 1 << 300))
    bases = data.draw(st.lists(base, max_size=70))
    tree = _product_tree(bases)
    n = prod(bases)
    for rank in (0, n - 1, data.draw(st.integers(0, n - 1))):
        assert _mixed_radix(rank, tree) == _digits_one_by_one(rank, bases)
    for rank in (-1, n):
        with pytest.raises(ValueError, match="rank out of range"):
            _mixed_radix(rank, tree)


def test_mixed_radix_on_long_random_ranks():
    rng = random.Random(71)
    for height in (300, 3000):
        p = _narrow_profile(rng, height)
        tree = base_tree(p)
        bases = level_choices(p)[-2::-1]
        n = prod(bases)
        for _ in range(3):
            rank = rng.randrange(n)
            assert _mixed_radix(rank, tree) == _digits_one_by_one(rank, bases)


def test_memoized_words_are_unrank_merge():
    words = 0
    for slots in range(1, _MEMO_SLOTS + 1):
        for q in range(slots + 1):
            for rank in range(comb(slots, q)):
                assert _small_merge(rank, slots - q, q) == unrank_merge(rank, slots - q, q)
                words += 1
    assert words == 510
    # Errors pass through unchanged and are not remembered as results.
    for _ in range(2):
        with pytest.raises(ValueError, match=r"rank 6 out of range for binom\(4,2\) = 6"):
            _small_merge(6, 2, 2)


def _narrow_profile(rng, height):
    levels, internal = [0], 1
    for _ in range(1, height):
        leaves = rng.choice([l for l in range(4) if 1 <= 2 * internal - l <= 2])
        levels.append(leaves)
        internal = 2 * internal - leaves
    return Profile(tuple(levels) + (2 * internal,))


def _random_split_profile(rng, leaves):
    depths, stack = defaultdict(int), [(leaves, 0)]
    while stack:
        n, depth = stack.pop()
        if n == 1:
            depths[depth] += 1
        else:
            left = rng.randint(1, n - 1)
            stack += [(left, depth + 1), (n - left, depth + 1)]
    return Profile(tuple(depths[d] for d in range(max(depths) + 1)))


def test_samples_match_repeated_sample_with_stats():
    rng = random.Random(61)
    narrow = _narrow_profile(rng, 120)
    wide = _random_split_profile(rng, 60)
    # The random-split profile has levels on both sides of the memo cutoff.
    internals, widths = 1, []
    for l in wide.levels[1:]:
        widths.append(2 * internals)
        internals = 2 * internals - l
    assert min(widths) <= _MEMO_SLOTS < max(widths)
    for p in (narrow, wide):
        draws = samples(p, BitSource(67))
        one_by_one = BitSource(67)
        for _ in range(8):
            tree, stats = next(draws)
            again, again_stats = sample_with_stats(p, one_by_one)
            assert to_json(tree) == to_json(again)
            assert stats == again_stats
            assert profile(tree) == p


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


def test_one_level_choices_call_per_sampling_command(monkeypatch, capsys):
    calls = []

    def counted(p):
        calls.append(p)
        return level_choices(p)

    monkeypatch.setattr(profiles, "level_choices", counted)
    monkeypatch.setattr(sampler, "level_choices", counted, raising=False)
    for argv in (["sample", "--profile", "0,1,2", "--count", "3", "--seed", "1"],
                 ["sample", "--profile", "0,1,2", "--count", "3", "--seed", "1", "--format", "dot"],
                 ["bench-bits", "--profile", "0,1,2", "--samples", "3", "--seed", "1"]):
        calls.clear()
        assert cli.run(argv) == 0
        assert calls == [Profile((0, 1, 2))]
    capsys.readouterr()


def test_one_product_tree_per_sampling_command(monkeypatch, capsys):
    built = []

    def counted(factors):
        built.append(list(factors))
        return _product_tree(factors)

    monkeypatch.setattr(profiles, "_product_tree", counted)
    for argv in (["sample", "--profile", "0,0,2,4", "--count", "3", "--seed", "1"],
                 ["sample", "--profile", "0,0,2,4", "--count", "3", "--seed", "1", "--format", "dot"],
                 ["bench-bits", "--profile", "0,0,2,4", "--samples", "3", "--seed", "1"]):
        built.clear()
        assert cli.run(argv) == 0
        assert built == [level_choices(Profile((0, 0, 2, 4)))[-2::-1]]
    capsys.readouterr()


def test_invalid_profile_rejected_before_bits_flow():
    src = BitSource(31)
    with pytest.raises(ValueError, match=r"invalid profile, kraft sum 3/4 != 1"):
        uniform_tree(Profile((0, 1, 1)), src)
    with pytest.raises(ValueError, match="invalid profile"):
        sample_with_stats(Profile((0, 1, 1)), src)
    with pytest.raises(ValueError, match="invalid profile"):
        samples(Profile((0, 1, 1)), src)
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
