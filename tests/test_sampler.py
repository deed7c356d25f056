"""Bit source, bounded uniform draws, merge unranking, and tree sampling."""

import math
import random
from collections import defaultdict
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import example, given, strategies as st

from growingtrees import cli, profiles, sampler
from growingtrees.oracle import all_binary_trees, trees_with_profile
from growingtrees.profiles import Profile, _comb, _product_tree, base_tree, count_trees, internal_profile, level_choices
from growingtrees.sampler import (
    _NARROW_SLOTS,
    _WIDE_SLOTS,
    BitSource,
    _build,
    _mixed_radix,
    _narrow_row,
    _rank_wide,
    _rows,
    _unrank_wide,
    draw_below,
    entropy_bound,
    rank_tree,
    samples,
    unrank_merge,
)
from growingtrees.tree_core import INTERNAL, LEAF, Tree, profile, to_json
from random_profiles import narrow_profile, random_split_profile
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
            radix, rows = base_tree(p), _rows(p)
            count = radix[-1][0]
            assert count == count_trees(p)
            built = [_build(p, rows, _mixed_radix(r, radix)) for r in range(count)]
            assert len(set(built)) == count, p
            assert set(built) == support, p
            assert [_rank_tree(p, tree) for tree in built] == list(range(count)), p
            assert [rank_tree(p, tree) for tree in built] == list(range(count)), p
            checked += 1
    assert checked == 116


def test_words_read_off_built_trees_give_back_the_rank():
    rng = random.Random(73)
    both_sides = 0
    for _ in range(100):
        p = random_split_profile(rng, rng.randint(2, 400))
        radix, rows = base_tree(p), _rows(p)
        count = radix[-1][0]
        for rank in (0, count - 1, rng.randrange(count)):
            tree = _build(p, rows, _mixed_radix(rank, radix))
            assert _rank_tree(p, tree) == rank
            assert rank_tree(p, tree) == rank
        # Depth d's word has 2 * i_{d-1} slots.
        widths = [2 * i for i in internal_profile(p)[:-1]]
        both_sides += bool(widths) and min(widths) <= _NARROW_SLOTS < max(widths)
    assert both_sides >= 50, both_sides


def test_build_rejects_a_digit_list_of_another_length():
    p = Profile((0, 1, 0, 2, 4))
    digits = _mixed_radix(0, base_tree(p))
    assert len(digits) == p.height - 1
    for wrong in (digits[:-1], digits + [0]):
        with pytest.raises(ValueError, match="digits for 3 merge levels"):
            _build(p, _rows(p), wrong)


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
        p = narrow_profile(rng, height)
        tree = base_tree(p)
        bases = level_choices(p)[-2::-1]
        n = prod(bases)
        for _ in range(3):
            rank = rng.randrange(n)
            assert _mixed_radix(rank, tree) == _digits_one_by_one(rank, bases)


def test_narrow_rows_are_unrank_merge():
    words = 0
    for slots in range(_NARROW_SLOTS + 1):
        for q in range(slots + 1):
            row = _narrow_row(slots - q, q)
            letters = [bytes(unrank_merge(r, slots - q, q)) for r in range(comb(slots, q))]
            assert row == tuple(word.replace(b"\0", bytes((INTERNAL,))).replace(b"\1", bytes((LEAF,)))
                                for word in letters)
            words += len(row)
    assert words == 2 ** (_NARROW_SLOTS + 1) - 1
    # A row is built once, on first use.
    assert _narrow_row(3, 1) is _narrow_row(3, 1)


def test_build_rejects_digits_outside_their_row():
    # Depth 1 of this profile has a narrow row (2 slots, 2 words); depth 12
    # has a wide one (2048 slots, binom(2048, 1000) words).
    p = Profile((0, 1) + (0,) * 10 + (1000, 2 * 1048))
    rows = _rows(p)
    assert len(rows[0]) == 2 and rows[-1].p + rows[-1].q == 2048 > _WIDE_SLOTS
    base = comb(2048, 1000)
    assert base_tree(p)[0][0] == base
    for row, wrong in ((0, -1), (0, 2), (-1, -1), (-1, base)):
        digits = [0] * len(rows)
        digits[-1 - row] = wrong  # digits run deepest level first
        with pytest.raises(ValueError, match="out of range"):
            _build(p, rows, digits)


def test_split_order_is_a_bijection(monkeypatch):
    # With the cutoff lowered to 4, words of up to 16 slots split up to twice.
    cutoff = 4
    monkeypatch.setattr(sampler, "_WIDE_SLOTS", cutoff)
    for p in range(9):
        for q in range(9):
            total = comb(p + q, q)
            words = [_unrank_wide(r, p, q) for r in range(total)]
            assert len(set(words)) == total, (p, q)
            # Kind bytes: p INTERNAL and q LEAF codes, nothing else.
            assert all(len(word) == p + q and word.count(LEAF) == q and word.count(INTERNAL) == p
                       for word in words)
            if p + q <= cutoff:
                assert words == [bytes(INTERNAL if letter == 0 else LEAF for letter in unrank_merge(r, p, q))
                                 for r in range(total)]
            assert [_rank_wide(word) for word in words] == list(range(total)), (p, q)
            for rank in (-1, total):
                with pytest.raises(ValueError, match="out of range"):
                    _unrank_wide(rank, p, q)


def test_rank_tree_inverts_wide_rows():
    rng = random.Random(89)
    profiles_seen = [
        Profile((0,) * 11 + (1000, 2 * 1048)),  # one 2048-slot row
        random_split_profile(rng, 6000),
    ]
    for p in profiles_seen:
        assert max(2 * i for i in internal_profile(p)) > _WIDE_SLOTS
        radix, rows = base_tree(p), _rows(p)
        count = radix[-1][0]
        for rank in (0, count - 1, rng.randrange(count), rng.randrange(count)):
            tree = _build(p, rows, _mixed_radix(rank, radix))
            assert profile(tree) == p
            assert rank_tree(p, tree) == rank


def test_rank_tree_inverts_every_split_level(monkeypatch):
    # A low cutoff (still above the narrow rows, which are always in lex
    # order) sends the wider rows of these profiles through several splits.
    monkeypatch.setattr(sampler, "_WIDE_SLOTS", 10)
    rng = random.Random(97)
    for _ in range(30):
        p = random_split_profile(rng, rng.randint(2, 120))
        radix, rows = base_tree(p), _rows(p)
        count = radix[-1][0]
        for rank in (0, count - 1, rng.randrange(count)):
            assert rank_tree(p, _build(p, rows, _mixed_radix(rank, radix))) == rank


def test_rank_tree_rejects_another_profile():
    tree = next(samples(Profile((0, 0, 2, 4)), BitSource(3), 1))
    with pytest.raises(ValueError, match="tree of profile 0,0,2,4, not 0,1,2"):
        rank_tree(Profile((0, 1, 2)), tree)
    with pytest.raises(ValueError, match="missing"):
        rank_tree(Profile((0, 2)), Tree(bytes((INTERNAL, LEAF))))


@given(st.integers(0, 12_000), st.fractions(0, 1))
@example(8000, Fraction(1, 2)).via("past the cutoff on both sides of k")
def test_comb_is_math_comb(n, share):
    k = round(n * share)
    assert _comb(n, k) == comb(n, k)


def test_samples_build_the_trees_of_their_drawn_ranks():
    rng = random.Random(61)
    narrow = narrow_profile(rng, 120)
    wide = random_split_profile(rng, 60)
    # The random-split profile has levels on both sides of the narrow cutoff.
    internals, widths = 1, []
    for l in wide.levels[1:]:
        widths.append(2 * internals)
        internals = 2 * internals - l
    assert min(widths) <= _NARROW_SLOTS < max(widths)
    for p in (narrow, wide):
        radix, rows = base_tree(p), _rows(p)
        n = radix[-1][0]
        # One batch of 8 trees: one rank below N^8, split into 8 sample ranks.
        assert 8 * n.bit_length() <= sampler._BATCH_BITS
        ranks = _mixed_radix(draw_below(BitSource(67), n ** 8), _product_tree([n] * 8))
        one_by_one, again = BitSource(67), BitSource(67)
        for tree, rank in zip(samples(p, BitSource(67), 8), ranks, strict=True):
            assert tree == _build(p, rows, _mixed_radix(rank, radix))
            assert profile(tree) == p
            assert rank_tree(p, tree) == rank
            # One tree at a time: one draw below N each.
            alone = next(samples(p, one_by_one, 1))
            assert rank_tree(p, alone) == draw_below(again, n)
            assert one_by_one.bits_consumed == again.bits_consumed


def test_single_tree_profiles_cost_no_bits():
    for levels in ((1,), (0, 2), (0, 0, 4), (0, 0, 0, 8)):
        p = Profile(levels)
        assert count_trees(p) == 1
        src = BitSource(17)
        tree = next(samples(p, src, 1))
        assert src.bits_consumed == 0
        assert profile(tree) == p


def test_sampled_trees_match_profile():
    p = Profile((0, 0, 3, 2))
    src = BitSource(23)
    for tree in samples(p, src, 200):
        assert profile(tree) == p


def test_uniformity_small_profile():
    p = Profile((0, 0, 2, 4))
    support = {to_json(t) for t in trees_with_profile(p)}
    assert len(support) == 6
    src = BitSource(29)
    tally = {}
    for _ in range(3000):
        key = to_json(next(samples(p, src, 1)))
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
    monkeypatch.setattr(sampler, "_product_tree", counted)
    bases = level_choices(Profile((0, 0, 2, 4)))[-2::-1]
    for argv in (["sample", "--profile", "0,0,2,4", "--count", "3", "--seed", "1"],
                 ["sample", "--profile", "0,0,2,4", "--count", "3", "--seed", "1", "--format", "dot"],
                 ["bench-bits", "--profile", "0,0,2,4", "--samples", "3", "--seed", "1"]):
        built.clear()
        assert cli.run(argv) == 0
        # The level bases once; the other trees are batch trees over copies
        # of the count.
        assert built.count(bases) == 1
        assert all(factors == [6] * len(factors) for factors in built if factors != bases)
    capsys.readouterr()


def test_batch_ranks_split_one_to_one_into_sample_ranks():
    split = _product_tree([6] * 3)
    assert split[-1] == [216]
    ranks = [tuple(_mixed_radix(r, split)) for r in range(216)]
    assert sorted(ranks) == [(a, b, c) for a in range(6) for b in range(6) for c in range(6)]


def test_batched_streams_stay_above_the_floor_and_account_every_bit(monkeypatch):
    # Small caps make batches of a few trees, so counts cross the cap and end
    # on a short last batch; the cap the package ships is in the mix too.
    rng = random.Random(79)
    cases = 0
    for cap in (1 << 4, 1 << 6, 1 << 8, sampler._BATCH_BITS):
        monkeypatch.setattr(sampler, "_BATCH_BITS", cap)
        for _ in range(60):
            p = random_split_profile(rng, rng.randint(1, 60))
            n = count_trees(p)
            count = rng.randint(1, 40)
            batch = max(1, cap // n.bit_length())
            src = BitSource(rng.randrange(1 << 32))
            # The bits each tree's next() drew.
            bits, drawn = [], 0
            for tree in samples(p, src, count):
                assert profile(tree) == p
                bits.append(src.bits_consumed - drawn)
                drawn = src.bits_consumed
            assert len(bits) == count
            # Each batch's first tree carries its one draw, of at least
            # log2(N^g) bits: 2^bits >= N^count exactly, for every seed.
            assert all(b == 0 for i, b in enumerate(bits) if i % batch)
            assert 1 << src.bits_consumed >= n ** count
            cases += 1
    assert cases >= 200


def test_uniformity_of_consecutive_pairs_within_a_batch():
    p = Profile((0, 0, 2, 4))
    support = sorted(to_json(t) for t in trees_with_profile(p))
    index = {key: i for i, key in enumerate(support)}
    pairs = 4000
    # One batch of 2 * pairs trees: 6^8000 has 20,680 bits, under the cap.
    trees = [index[to_json(tree)] for tree in samples(p, BitSource(83), 2 * pairs)]
    tally = [0] * 36
    for first, second in zip(trees[::2], trees[1::2]):
        tally[6 * first + second] += 1
    assert chi_square(tally).passed


def test_invalid_profile_rejected_before_bits_flow():
    src = BitSource(31)
    with pytest.raises(ValueError, match=r"invalid profile, kraft sum 3/4 != 1"):
        samples(Profile((0, 1, 1)), src, 1)
    with pytest.raises(ValueError, match="invalid profile"):
        samples(Profile((0, 1, 1)), src, 5)
    assert src.bits_consumed == 0


def test_sample_stats_record():
    # What the deleted per-tree record held, read from the tree and the source.
    p = Profile((0, 1, 2))
    src, check = BitSource(37), BitSource(37)
    tree = next(samples(p, src, 1))
    assert isinstance(tree, Tree)
    assert profile(tree) == p
    assert len(tree.nodes) == 2 * 3 - 1
    # The source counted exactly the bits of one draw below the count.
    draw_below(check, count_trees(p))
    assert src.bits_consumed == check.bits_consumed


def test_step_counter_is_linear_in_leaves():
    # The build writes one node code per node: 2L - 1 of them, L leaves.
    for levels in ((1,), (0, 2), (0, 1, 2), (0, 0, 2, 4), (0, 1, 0, 4), (0, 1, 1, 2)):
        p = Profile(levels)
        leaves = p.total_leaves
        src = BitSource(41)
        tree = next(samples(p, src, 1))
        assert profile(tree) == p
        assert len(tree.nodes) == 2 * leaves - 1
        assert tree.leaf_count == leaves


def test_seeded_sampling_is_reproducible():
    p = Profile((0, 1, 0, 2, 4))
    first = [to_json(next(samples(p, BitSource(101 + i), 1))) for i in range(10)]
    second = [to_json(next(samples(p, BitSource(101 + i), 1))) for i in range(10)]
    assert first == second
    stream = BitSource(7)
    run_a = [to_json(next(samples(p, stream, 1))) for _ in range(5)]
    stream2 = BitSource(7)
    run_b = [to_json(next(samples(p, stream2, 1))) for _ in range(5)]
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
    for _ in range(draws):
        next(samples(p, src, 1))
    assert src.bits_consumed / draws <= entropy_bound(p) + 3
