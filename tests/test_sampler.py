"""Bit source, bounded uniform draws, merge unranking, and tree sampling."""

import json
import math
import random
from collections import Counter, defaultdict
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import example, given, strategies as st

from growingtrees import cli, profiles, sampler, tree_core
from growingtrees.oracle import all_binary_trees, trees_with_profile
from growingtrees.profiles import Profile, _comb, _product_tree, count_trees, internal_profile, level_choices
from growingtrees.sampler import (
    _NARROW_SLOTS,
    _WIDE_SLOTS,
    BitSource,
    Setup,
    _blocks,
    _build,
    _draw,
    _mixed_radix,
    _merge_word,
    _narrow_row,
    _rank_merge,
    _rank_wide,
    _unrank_wide,
    entropy_bound,
    rank_tree,
    ranks,
    samples,
    unrank_merge,
)
from growingtrees.tree_core import INTERNAL, LEAF, Tree, profile, to_json
from random_profiles import narrow_profile, random_split_profile
from reference_routes import valid_profiles
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


def _draw_below(src, n):
    """One draw below n from a fresh state: a stream of one rank."""
    return next(ranks(n, src, 1))


def test_draw_below_one_is_free():
    src = BitSource(1)
    assert _draw_below(src, 1) == 0
    assert src.bits_consumed == 0


def test_draw_below_two_costs_one_bit():
    src = BitSource(5)
    for _ in range(100):
        before = src.bits_consumed
        assert _draw_below(src, 2) in (0, 1)
        assert src.bits_consumed == before + 1


def test_draw_below_range_and_guard():
    src = BitSource(9)
    values = [_draw_below(src, 5) for _ in range(2000)]
    assert set(values) <= set(range(5))
    counts = [values.count(v) for v in range(5)]
    assert chi_square(counts).passed
    with pytest.raises(ValueError, match="positive"):
        _draw_below(src, 0)


def test_draw_below_expected_bits():
    src = BitSource(11)
    draws = 4000
    for _ in range(draws):
        _draw_below(src, 5)
    assert src.bits_consumed / draws <= math.log2(5) + 2


def _draw_below_bit_by_bit(src, n):
    """One draw below n as first written: one single-bit draw per doubling."""
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
            assert _draw_below(blocks, n) == _draw_below_bit_by_bit(single, n)
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
        assert 0 <= _draw_below(src, n) < n
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


def test_merge_words_are_kind_codes_that_rank_merge_reads_back():
    for slots in range(11):
        for q in range(slots + 1):
            total = comb(slots, q)
            for r in range(total):
                word = _merge_word(r, slots - q, q, total)
                assert type(word) is bytes and _rank_merge(word) == r, (slots, q, r)


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
    for base in level_choices(p)[1][:-1]:
        word = [0 if kind == INTERNAL else 1 for kind in tree.nodes[start:start + width]]
        rank = rank * base + _rank_word(word)
        start, width = start + width, 2 * word.count(0)
    return rank


def test_build_is_a_bijection_from_ranks_to_trees():
    # Every valid profile with n leaves, listed by the sweep of
    # reference_routes, against the oracle's trees of n leaves grouped by
    # profile: trees_with_profile for all of them at once. The sweep and the
    # oracle agree on the profiles, and each rank builds a distinct tree of
    # its profile (its group), every tree of the group once.
    checked = trees = 0
    for leaves in range(1, 11):
        by_profile = defaultdict(set)
        for tree in all_binary_trees(leaves):
            by_profile[profile(tree)].add(tree)
        swept = [Profile(levels) for levels in valid_profiles(leaves)]
        assert len(swept) == len(by_profile) and set(swept) == set(by_profile), leaves
        for p in swept:
            setup = Setup(p)
            count = setup.count
            assert count == count_trees(p)
            built = [_build(setup, _mixed_radix(r, setup.tree)) for r in range(count)]
            assert len(set(built)) == count, p
            assert set(built) == by_profile[p], p
            assert [_rank_tree(p, tree) for tree in built] == list(range(count)), p
            assert [rank_tree(p, tree) for tree in built] == list(range(count)), p
            checked += 1
            trees += count
    assert (checked, trees) == (116, 6918)


def test_words_read_off_built_trees_give_back_the_rank():
    rng = random.Random(73)
    both_sides = 0
    for _ in range(100):
        p = random_split_profile(rng, rng.randint(2, 400))
        setup = Setup(p)
        count = setup.count
        for rank in (0, count - 1, rng.randrange(count)):
            tree = _build(setup, _mixed_radix(rank, setup.tree))
            assert _rank_tree(p, tree) == rank
            assert rank_tree(p, tree) == rank
        # Depth d's word has 2 * i_{d-1} slots.
        widths = [2 * i for i in internal_profile(p)[:-1]]
        both_sides += bool(widths) and min(widths) <= _NARROW_SLOTS < max(widths)
    assert both_sides >= 50, both_sides


def test_build_rejects_a_digit_list_of_another_length():
    # Depths 1, 2 and 3 have one row each.
    p = Profile((0, 1, 0, 2, 4))
    setup = Setup(p)
    digits = _mixed_radix(0, setup.tree)
    assert len(digits) == p.height - 1 == 3
    for wrong in (digits[:-1], digits + [0], [0] * p.height):
        with pytest.raises(ValueError, match=f"{len(wrong)} digits for 3 depths"):
            _build(setup, wrong)


def test_mixed_radix_rejects_ranks_out_of_range():
    for levels in ((1,), (0, 2), (0, 0, 2, 4), (0, 1, 0, 2, 4)):
        p = Profile(levels)
        radix = Setup(p).tree
        for rank in (-1, count_trees(p)):
            with pytest.raises(ValueError, match="rank out of range"):
                _mixed_radix(rank, radix)


def _digits_one_by_one(rank, bases):
    """rank's digits in the bases, most significant first: one divmod per
    base, from the last, least significant one."""
    digits = []
    for base in reversed(bases):
        rank, digit = divmod(rank, base)
        digits.append(digit)
    assert rank == 0
    return digits[::-1]


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
        bases = level_choices(p)[1][:-1]
        tree = _product_tree(bases)
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


def test_rank_tree_inverts_the_depth_path():
    rng = random.Random(101)
    # Each profile with the slots of its depths' words, top-down.
    cases = [
        # Height 0, 1 and 2: no depth row, and one row.
        ((1,), []),
        ((0, 2), []),
        ((0, 1, 2), [2]),
        ((0, 0, 4), [2]),
        # Narrow runs of odd length: 3 and 5 depths.
        ((0, 0, 0, 1, 14), [2, 4, 8]),
        ((0, 1, 1, 1, 1, 1, 2), [2, 2, 2, 2, 2]),
        # Narrow depths on both sides of a 16-slot depth ...
        ((0, 0, 0, 0, 14, 2, 3, 0, 4), [2, 4, 8, 16, 4, 4, 2]),
        # ... and on both sides of 16- to 2048-slot depths.
        ((0,) + (0,) * 10 + (2046, 1, 4, 4), [2, 4, 8] + [2 ** d for d in range(4, 12)] + [4, 6]),
    ]
    for levels, slots in cases:
        p = Profile(levels)
        setup = Setup(p)
        assert [len(row[0]) for row in setup.rows] == slots, levels
        # The row bases, in depth order, are the level walk's choices.
        assert setup.tree[0] == level_choices(p)[1][:-1], levels
        assert setup.count == count_trees(p) == math.prod(setup.tree[0])
        count = setup.count
        ranks = range(count) if count <= 500 else [0, count - 1] + [rng.randrange(count) for _ in range(20)]
        for rank in ranks:
            tree = _build(setup, _mixed_radix(rank, setup.tree))
            assert profile(tree) == p
            assert rank_tree(p, tree) == rank
    # 1,999 narrow depths, one row each.
    deep = narrow_profile(rng, 2000)
    setup = Setup(deep)
    assert len(setup.rows) == 1999
    assert setup.tree[0] == level_choices(deep)[1][:-1]
    for rank in [0, setup.count - 1] + [rng.randrange(setup.count) for _ in range(10)]:
        tree = _build(setup, _mixed_radix(rank, setup.tree))
        assert rank_tree(deep, tree) == _rank_tree(deep, tree) == rank


def test_build_rejects_digits_outside_their_row():
    # Depths 1 and 2 of this profile have 2 slots each (2 and 1 words),
    # depths 3 and 4 have 4 and 8 slots (1 word each); depth 12 has a wide
    # row (2048 slots, binom(2048, 1000) words).
    p = Profile((0, 1) + (0,) * 10 + (1000, 2 * 1048))
    setup = Setup(p)
    rows = setup.rows
    assert rows[0] is _narrow_row(1, 1) and len(rows[0]) == 2
    assert rows[1] is _narrow_row(2, 0) and len(rows[1]) == 1
    assert rows[3] is _narrow_row(8, 0) and len(rows[3]) == 1
    assert rows[-1].p + rows[-1].q == 2048 > _WIDE_SLOTS and len(rows) == 12
    base = comb(2048, 1000)
    assert rows[-1].base == setup.tree[0][-1] == base
    for row, wrong in ((0, -1), (0, 2), (1, 1), (3, 1), (-1, -1), (-1, base)):
        digits = [0] * len(rows)
        digits[row] = wrong  # digits run in depth order
        with pytest.raises(ValueError, match="out of range"):
            _build(setup, digits)


def test_split_order_is_a_bijection(monkeypatch):
    # With the cutoff lowered to 4, words of up to 16 slots split up to twice.
    cutoff = 4
    monkeypatch.setattr(sampler, "_WIDE_SLOTS", cutoff)
    for p in range(9):
        for q in range(9):
            total = comb(p + q, q)
            words = [_unrank_wide(r, p, q, total) for r in range(total)]
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
                    _unrank_wide(rank, p, q, total)


def test_blocks_run_from_the_mode_outward():
    # The split order's blocks, written out: the hypergeometric mode j0, then
    # j0 + 1, j0 - 1, j0 + 2, ..., each within the left half's possible j.
    for w1 in range(25):
        for w2 in range(25):
            for q in range(w1 + w2 + 1):
                lo, hi = max(0, q - w2), min(q, w1)
                j0 = (q + 1) * (w1 + 1) // (w1 + w2 + 2)
                order = [j0]
                for step in range(1, w1 + w2 + 1):
                    order += [j for j in (j0 + step, j0 - step) if lo <= j <= hi]
                expected = [(j, comb(w1, j) * comb(w2, q - j), comb(w2, q - j)) for j in order]
                assert list(_blocks(w1, w2, q)) == expected, (w1, w2, q)


def test_rank_tree_inverts_wide_rows():
    rng = random.Random(89)
    profiles_seen = [
        Profile((0,) * 11 + (1000, 2 * 1048)),  # one 2048-slot row
        random_split_profile(rng, 6000),
    ]
    for p in profiles_seen:
        assert max(2 * i for i in internal_profile(p)) > _WIDE_SLOTS
        setup = Setup(p)
        count = setup.count
        for rank in (0, count - 1, rng.randrange(count), rng.randrange(count)):
            tree = _build(setup, _mixed_radix(rank, setup.tree))
            assert profile(tree) == p
            assert rank_tree(p, tree) == rank


def test_rank_tree_inverts_every_split_level(monkeypatch):
    # A low cutoff (still above the narrow rows, which are always in lex
    # order) sends the wider rows of these profiles through several splits.
    monkeypatch.setattr(sampler, "_WIDE_SLOTS", 10)
    rng = random.Random(97)
    for _ in range(30):
        p = random_split_profile(rng, rng.randint(2, 120))
        setup = Setup(p)
        for rank in (0, setup.count - 1, rng.randrange(setup.count)):
            assert rank_tree(p, _build(setup, _mixed_radix(rank, setup.tree))) == rank


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
        setup = Setup(p)
        n = setup.count
        # A call of 8 trees: 8 draws below N from one state, the last tight.
        replay, state = BitSource(67), [0, 1]
        ranks = [_draw(replay, state, n, min(16, later * (n.bit_length() - 1))) for later in range(7, -1, -1)]
        src, one_by_one, again = BitSource(67), BitSource(67), BitSource(67)
        for tree, rank in zip(samples(p, src, 8), ranks, strict=True):
            assert tree == _build(setup, _mixed_radix(rank, setup.tree))
            assert profile(tree) == p
            assert rank_tree(p, tree) == rank
            # One tree at a time: one draw below N each.
            alone = next(samples(p, one_by_one, 1))
            assert rank_tree(p, alone) == _draw_below(again, n)
            assert one_by_one.bits_consumed == again.bits_consumed
        assert src.bits_consumed == replay.bits_consumed


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


# Depths 1-3 are a narrow run of odd length; depth 4 (16 slots) is wide and
# depths 5-7 are narrow again.
_SAMPLING_COMMANDS = [
    (levels, argv + ["--profile", ",".join(map(str, levels)), "--seed", "1"])
    for levels in ((0, 1, 2), (0, 0, 0, 0, 14, 2, 3, 0, 4))
    for argv in (["sample", "--count", "3"], ["sample", "--count", "3", "--format", "dot"],
                 ["bench-bits", "--samples", "3"])
]


def test_one_setup_walk_per_sampling_command(monkeypatch, capsys):
    setups, validated, walked = [], [], []
    real_is_valid, real_walk = profiles.is_valid, profiles._level_walk

    class Counted(Setup):
        __slots__ = ()

        def __init__(self, p):
            setups.append(p)
            super().__init__(p)

    def counted_is_valid(p):
        validated.append(p)
        return real_is_valid(p)

    def counted_walk(p):
        walked.append(p)
        return real_walk(p)

    monkeypatch.setattr(sampler, "Setup", Counted)
    monkeypatch.setattr(profiles, "_level_walk", counted_walk)
    for module in (profiles, sampler):
        monkeypatch.setattr(module, "is_valid", counted_is_valid)
    drawn = list(dict.fromkeys(levels for levels, _ in _SAMPLING_COMMANDS))
    profile_commands = [
        (levels, ["profile", which, "--profile", ",".join(map(str, levels))] + extra)
        for levels in drawn
        for which, extra in (("count", []), ("internal", []), ("truncate", ["--level", "0"]))
    ]
    # The oracle's formula on a valid profile and on an invalid one, whose
    # count is 0 on both sides.
    oracle_commands = [(levels, ["oracle", "profile-count", "--profile", ",".join(map(str, levels))])
                       for levels in ((0, 1, 2), (0, 1, 1))]
    for levels, argv in _SAMPLING_COMMANDS + profile_commands + oracle_commands:
        setups.clear()
        validated.clear()
        walked.clear()
        assert cli.run(argv) == 0
        p = Profile(levels)
        # One walk of the levels, which is the validation: count_trees's for
        # bench-bits and profile count, Setup's for sample, internal_profile's
        # for profile internal. profile truncate asks is_valid once and makes
        # no walk. oracle profile-count asks is_valid once and walks only the
        # valid profile, for count_trees.
        if argv[0] == "oracle":
            assert (setups, validated, walked) == ([], [p], [p] if levels == (0, 1, 2) else []), argv
        elif argv[1] == "truncate":
            assert (setups, validated, walked) == ([], [p], []), argv
        else:
            sets_up = [p] if argv[0] == "sample" else []
            assert (setups, validated, walked) == (sets_up, [], [p]), argv
    # rank_tree walks the profile once more, on its own.
    for levels in drawn:
        p = Profile(levels)
        tree = next(samples(p, BitSource(1), 1))
        validated.clear()
        walked.clear()
        rank_tree(p, tree)
        assert (validated, walked) == ([], [p]), levels
    capsys.readouterr()


def test_one_product_tree_per_sampling_command(monkeypatch, capsys):
    built = []

    def counted(factors):
        built.append(list(factors))
        return _product_tree(factors)

    monkeypatch.setattr(profiles, "_product_tree", counted)
    monkeypatch.setattr(sampler, "_product_tree", counted)
    for levels, argv in _SAMPLING_COMMANDS:
        p = Profile(levels)
        # sample splits every tree's rank down the tree of the depth bases;
        # bench-bits only needs the count, the root of the powers of the
        # distinct level binomials.
        choices = Counter(level_choices(p)[1])
        factors = [c ** e for c, e in choices.items()] if argv[0] == "bench-bits" else Setup(p).tree[0]
        built.clear()
        assert cli.run(argv) == 0
        # One product tree per command, whose root is the count.
        assert built == [factors], argv
        assert math.prod(factors) == count_trees(p)
    capsys.readouterr()


def test_bench_bits_builds_no_tree(monkeypatch, capsys):
    def no_tree(*args):
        raise AssertionError("bench-bits turned a rank into a tree")

    for module, name in ((sampler, "_build"), (sampler, "_mixed_radix"),
                         (tree_core, "to_json"), (tree_core, "to_dot")):
        monkeypatch.setattr(module, name, no_tree)
    deep = narrow_profile(random.Random(97), 2000)
    profiles_drawn = [levels for levels, argv in _SAMPLING_COMMANDS if argv[0] == "bench-bits"]
    assert len(profiles_drawn) == 2
    for levels in profiles_drawn + [deep.levels]:
        argv = ["bench-bits", "--samples", "5", "--seed", "1", "--profile", ",".join(map(str, levels))]
        assert cli.run(argv) == 0, levels
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["samples"] == 5


def test_ranks_replay_the_draws_of_samples():
    rng = random.Random(101)
    for make in (random_split_profile, narrow_profile):
        for _ in range(30):
            p = make(rng, rng.randint(1, 80))
            count, seed = rng.randint(1, 20), rng.randrange(1 << 32)
            src, trees_src = BitSource(seed), BitSource(seed)
            drawn = list(ranks(count_trees(p), src, count))
            assert drawn == [rank_tree(p, tree) for tree in samples(p, trees_src, count)]
            assert src.bits_consumed == trees_src.bits_consumed
    # One outcome: five zeros, no bit.
    src = BitSource(103)
    assert list(ranks(1, src, 5)) == [0] * 5
    assert src.bits_consumed == 0


def test_batch_ranks_split_one_to_one_into_sample_ranks():
    split = _product_tree([6] * 3)
    assert split[-1] == [216]
    ranks = [tuple(_mixed_radix(r, split)) for r in range(216)]
    assert sorted(ranks) == [(a, b, c) for a in range(6) for b in range(6) for c in range(6)]


def test_streams_stay_above_the_floor_and_account_every_bit():
    rng = random.Random(79)
    for _ in range(240):
        p = random_split_profile(rng, rng.randint(1, 60))
        n = count_trees(p)
        count = rng.randint(1, 40)
        src = BitSource(rng.randrange(1 << 32))
        # The bits each tree's next() drew.
        bits, drawn = [], 0
        for tree in samples(p, src, count):
            assert profile(tree) == p
            bits.append(src.bits_consumed - drawn)
            drawn = src.bits_consumed
            # A tree may use bits an earlier one drew, but every prefix of
            # the stream draws at least log2(N) per tree: 2^bits >= N^trees
            # exactly, for every seed.
            assert 1 << drawn >= n ** len(bits)
        assert len(bits) == count
        # Nothing is drawn after the last tree.
        assert sum(bits) == src.bits_consumed


def test_power_of_two_counts_draw_exactly_their_bits():
    # With N = 2^k every draw accepts, so a stream whose spare bits never
    # outrun its later draws costs exactly k bits per tree, for any count.
    for levels in ((0, 1, 0, 4), (0, 0, 3, 2), (0,) + (1,) * 30 + (2,)):
        p = Profile(levels)
        k = count_trees(p).bit_length() - 1
        assert count_trees(p) == 1 << k
        for count in range(1, 51):
            src = BitSource(count)
            assert len(list(samples(p, src, count))) == count
            assert src.bits_consumed == count * k, (levels, count)


def test_uniformity_of_consecutive_pairs_within_a_stream():
    p = Profile((0, 0, 2, 4))
    support = sorted(to_json(t) for t in trees_with_profile(p))
    index = {key: i for i, key in enumerate(support)}
    pairs = 4000
    # One stream of 2 * pairs trees, all drawn from one state.
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
    # Valid, but its one tree has 2^64 - 1 nodes, more than a bytes object
    # can hold.
    with pytest.raises(MemoryError):
        samples(Profile((0,) * 63 + (2**63,)), src, 1)
    assert src.bits_consumed == 0


def test_zero_count_streams_are_empty_and_draw_nothing():
    src = BitSource(43)
    assert list(ranks(5, src, 0)) == []
    assert list(samples(Profile((0, 1, 2)), src, 0)) == []
    assert src.bits_consumed == 0
    # The profile is still checked at the call, with nothing to draw.
    with pytest.raises(ValueError, match=r"invalid profile, kraft sum 3/4 != 1"):
        samples(Profile((0, 1, 1)), src, 0)


def test_sample_stats_record():
    # What the deleted per-tree record held, read from the tree and the source.
    p = Profile((0, 1, 2))
    src, check = BitSource(37), BitSource(37)
    tree = next(samples(p, src, 1))
    assert isinstance(tree, Tree)
    assert profile(tree) == p
    assert len(tree.nodes) == 2 * 3 - 1
    # The source counted exactly the bits of one draw below the count.
    _draw_below(check, count_trees(p))
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
