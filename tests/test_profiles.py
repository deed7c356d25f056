"""Leaf-profile validity, internal profiles, counting, and truncation."""

import itertools
import json
import math
import random
import sys
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from growingtrees import profiles, tree_core
from growingtrees.enumeration import t_height_table
from growingtrees.oracle import all_binary_trees
from growingtrees.profiles import (
    Profile,
    count_trees,
    exact_text,
    internal_profile,
    is_valid,
    kraft_sum,
    level_choices,
    truncate_profile,
)
import reference_data as ref
from random_profiles import narrow_profile, random_split_profile
from reference_routes import kraft_sum_horner, valid_profiles, valid_profiles_of_height
from test_cli import _loaded_modules


def test_kraft_sum_examples():
    assert kraft_sum(Profile((0, 2))) == 1
    assert kraft_sum(Profile((1,))) == 1
    assert kraft_sum(Profile((0, 1, 1))) == Fraction(3, 4)
    assert is_valid(Profile((0, 2)))
    assert not is_valid(Profile((0, 1, 1)))


def _kraft_by_level(p):
    return sum((Fraction(l, 1 << i) for i, l in enumerate(p.levels)), Fraction(0))


def test_kraft_sum_equals_the_sum_by_level():
    small = [Profile((0,) + tail) for h in range(1, 5) for tail in _level_tuples(h, 6) if tail[-1]]
    assert any(is_valid(p) for p in small) and not all(is_valid(p) for p in small)
    tall = [
        Profile((0,) + (1,) * 2999 + (2,)),  # valid, 3,001 levels
        Profile((0,) + (1,) * 3000),  # invalid
        Profile((0, 3) + (0,) * 2997 + (5, 7)),  # invalid, Kraft sum above 1
    ]
    for p in [Profile((1,))] + small + tall:
        assert kraft_sum(p) == _kraft_by_level(p), p
        assert is_valid(p) == (_kraft_by_level(p) == 1), p


def test_kraft_sum_equals_the_horner_numerator():
    # The balanced sum of shifted halves against Horner's rule: every valid
    # profile of up to 12 leaves, seeded invalid ones of entries 0-3 (level
    # counts odd, even and powers of two, so the pairing rounds pad a zero
    # term in front or not), and the 150,000-level invalid profile 0,1,...,1,1.
    rng = random.Random(7)
    valid = [Profile(levels) for leaves in range(1, 13) for levels in valid_profiles(leaves)]
    heights = [1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 1023, 1024, 1025, 2000] + rng.sample(range(1, 2001), 20)
    drawn = [Profile((0,) + tuple(rng.randrange(4) for _ in range(h - 1)) + (rng.randrange(1, 4),))
             for h in heights]
    invalid = [p for p in drawn if kraft_sum_horner(p.levels) != 1]
    assert len(valid) > 300 and len(invalid) >= len(drawn) - 2
    deep = Profile((0,) + (1,) * 150000)
    assert all(kraft_sum(p) == 1 for p in valid)
    for p in valid + invalid + [deep]:
        assert kraft_sum(p) == kraft_sum_horner(p.levels), p.levels[:20]


def _random_split(rng, height):
    # A valid profile: each level keeps at least one of its slots internal.
    levels, slots = [0], 2
    for depth in range(1, height + 1):
        leaves = slots if depth == height else rng.randrange(slots)
        levels.append(leaves)
        slots = 2 * (slots - leaves)
    return levels


@given(st.randoms(use_true_random=False), st.integers(1, 60), st.integers(0, 3))
def test_is_valid_is_the_kraft_test(rng, height, nudge):
    # Valid profiles from random splits, then one level moved off by nudge,
    # which leaves the profile valid only when nudge is 0.
    levels = _random_split(rng, height)
    level = rng.randrange(1, height + 1)
    levels[level] += nudge
    p = Profile(tuple(levels))
    assert is_valid(p) == (kraft_sum(p) == 1) == (nudge == 0)
    narrow = Profile((0,) + (1,) * (height - 1) + (2 + nudge,))
    assert is_valid(narrow) == (nudge == 0)


def test_is_valid_reads_the_kraft_numerator_without_a_walk(monkeypatch):
    # The complete profile of height 40,000 and its neighbour one leaf short
    # at the last level. The level walk would keep 40,000 internal counts of
    # up to 40,000 bits (a 104 MiB peak); the numerator holds one list of
    # the levels.
    complete = (0,) * 40_000 + (2**40_000,)
    for levels, valid in ((complete, True), (complete[:-1] + (2**40_000 - 1,), False)):
        p = Profile(levels)
        tracemalloc.start()
        try:
            assert is_valid(p) is valid
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, (valid, peak)

    def no_walk(p):
        raise AssertionError("walked")

    monkeypatch.setattr(profiles, "_level_walk", no_walk)
    assert is_valid(Profile((0, 1, 2))) and not is_valid(Profile((0, 1, 1)))
    # Nor does it build a Fraction: fractions, and decimal with it, stay
    # unloaded in a fresh interpreter.
    for levels, valid in (((0, 1, 2), True), ((0, 1, 1), False)):
        statements = ("from growingtrees.profiles import Profile, is_valid; "
                      f"assert is_valid(Profile({levels!r})) is {valid}")
        loaded = _loaded_modules(statements).splitlines()[-1]
        assert "growingtrees.profiles" in loaded
        assert "decimal" not in loaded and "fractions" not in loaded, (levels, loaded)


def test_structural_constraints():
    with pytest.raises(ValueError, match="empty"):
        Profile(())
    with pytest.raises(ValueError, match="nonnegative"):
        Profile((0, -1, 4))
    with pytest.raises(ValueError, match="trailing zero"):
        Profile((0, 2, 0))
    with pytest.raises(ValueError, match="height-0"):
        Profile((2,))
    with pytest.raises(ValueError, match="l_0 = 0"):
        Profile((1, 2))


def test_parse_and_str():
    p = Profile((0, 0, 2, 4))
    assert p.levels == (0, 0, 2, 4)
    assert str(p) == "0,0,2,4"
    assert p.height == 3
    assert p.total_leaves == 6


def test_str_is_str_of_each_entry():
    # Also under the lowest int-to-str digit limit a program can set.
    limit = sys.get_int_max_str_digits()
    for max_digits in (limit, 640):
        sys.set_int_max_str_digits(max_digits)
        try:
            rng = random.Random(max_digits)
            for _ in range(20):
                for p in (narrow_profile(rng, rng.randint(1, 2000)),
                          random_split_profile(rng, rng.randint(1, 5000))):
                    assert str(p) == ",".join(map(str, p.levels))
                    assert profiles.read_levels(str(p)) == p.levels
        finally:
            sys.set_int_max_str_digits(limit)


def test_str_writes_each_distinct_entry_once(monkeypatch):
    calls = []

    def counting(n):
        calls.append(n)
        return str(n)

    monkeypatch.setattr(profiles, "exact_text", counting)
    p = narrow_profile(random.Random(2000), 1999)
    assert str(p) == ",".join(map(str, p.levels))
    assert sorted(calls) == sorted(set(p.levels))
    calls.clear()
    assert str(p) == ",".join(map(str, p.levels))  # nothing kept between calls
    assert len(calls) == len(set(p.levels))


def test_entries_past_the_str_digit_limit_are_written_exactly():
    limit = sys.get_int_max_str_digits()
    for max_digits in (limit, 640):
        sys.set_int_max_str_digits(max_digits)
        try:
            for bits in (2200, 14300, 50_001):
                p = Profile((0,) * bits + (2**bits,))
                assert str(p) == "0," * bits + str(Decimal(2**bits))
                assert profiles.read_levels(str(p)) == p.levels
        finally:
            sys.set_int_max_str_digits(limit)


def test_levels_given_as_a_list_are_the_same_profile():
    p = Profile([0, 2])
    assert p.levels == (0, 2)
    assert p == Profile((0, 2))
    assert hash(p) == hash(Profile((0, 2)))
    cherry = tree_core.Tree(bytes((tree_core.INTERNAL, tree_core.LEAF, tree_core.LEAF)))
    assert tree_core.profile(cherry) == Profile([0, 2])
    with pytest.raises(ValueError, match="empty"):
        Profile([])


def test_internal_profile_examples():
    assert internal_profile(Profile((0, 1, 2))) == (1, 1)
    assert internal_profile(Profile((0, 0, 4))) == (1, 2)
    assert internal_profile(Profile((0, 0, 2, 4))) == (1, 2, 2)


def test_internal_profile_errors():
    # An invalid profile raises what count_trees raises.
    with pytest.raises(ValueError, match="^invalid profile, kraft sum 3/4 != 1$"):
        internal_profile(Profile((0, 1, 1)))
    with pytest.raises(ValueError, match="^invalid profile, kraft sum 2 != 1$"):
        internal_profile(Profile((0, 4)))
    with pytest.raises(ValueError, match="no internal levels"):
        internal_profile(Profile((1,)))


def test_exact_text_is_the_decimal_text():
    # Around the 4,096-bit pieces that exact_text converts directly, and far
    # past them; also under the lowest int-to-str digit limit a program can
    # set, which 4,096 bits (1,234 digits) exceeds.
    limit = sys.get_int_max_str_digits()
    for max_digits in (limit, 640):
        sys.set_int_max_str_digits(max_digits)
        try:
            rng = random.Random(73)
            for bits in (0, 1, 64, 4095, 4096, 4097, 8191, 8192, 8193, 50_001):
                for n in (2**bits - 1, 2**bits, rng.getrandbits(bits) | 2**bits):
                    assert exact_text(n) == str(Decimal(n))
                    assert exact_text(-n) == str(Decimal(-n))
            assert exact_text(Fraction(-3, 2**5000)) == f"-3/{Decimal(2**5000)}"
            assert exact_text(Fraction(2**5000 + 1, 3)) == f"{Decimal(2**5000 + 1)}/3"
        finally:
            sys.set_int_max_str_digits(limit)


def test_bool_entries_are_rejected():
    # True == 1, so such a profile would compare equal to (0, 1, 2) yet print "0,True,2".
    for levels in ((0, True, 2), (True,), (0, 0, 2, True * 4, False)):
        with pytest.raises(ValueError, match="nonnegative integers"):
            Profile(levels)


def test_count_is_the_product_of_level_choices():
    # Odd and even numbers of factors, so the pairwise rounds carry a last one.
    rng = random.Random(71)
    for height in (1, 2, 3, 5, 8, 13):
        p = Profile(tuple(_random_split(rng, height)))
        assert count_trees(p) == math.prod(level_choices(p)[1])
    for height in (64, 65, 1001):
        # A caterpillar: each of its h - 1 single leaves picks one of two slots.
        assert count_trees(Profile((0,) + (1,) * (height - 1) + (2,))) == 2 ** (height - 1)


def test_count_examples():
    assert count_trees(Profile((0, 2))) == 1
    assert count_trees(Profile((0, 1, 2))) == 2
    assert count_trees(Profile((0, 0, 2, 4))) == 6
    assert count_trees(Profile((1,))) == 1


def test_count_rejects_invalid():
    with pytest.raises(ValueError, match=r"kraft sum 2 != 1"):
        count_trees(Profile((0, 4)))
    with pytest.raises(ValueError, match=r"kraft sum 3/4 != 1"):
        count_trees(Profile((0, 1, 1)))


def _raised(f, p):
    """The message of the ValueError f(p) raises, or None if it returns."""
    try:
        f(p)
    except ValueError as exc:
        return str(exc)
    return None


def test_the_counting_walk_raises_iff_the_profile_is_invalid(monkeypatch):
    # Random profiles, valid and with one level moved off, name their Kraft
    # sum in the error; internal_profile and truncate_profile raise the same.
    rng = random.Random(113)
    drawn = [make(rng, rng.randint(1, 300)) for make in (narrow_profile, random_split_profile) for _ in range(40)]
    for p in [Profile((1,))] + drawn:
        levels = list(p.levels)
        if p.height:
            k = rng.randint(1, p.height)
            levels[k] += 1 if k == p.height or levels[k] == 0 else rng.choice((-1, 1, 2))
        for q in (p, Profile(levels)):
            kraft = kraft_sum(q)
            expected = None if kraft == 1 else f"invalid profile, kraft sum {exact_text(kraft)} != 1"
            assert _raised(level_choices, q) == _raised(count_trees, q) == expected, q
            if q.height:
                assert _raised(internal_profile, q) == expected, q
                assert _raised(lambda q: truncate_profile(q, q.height // 2), q) == expected, q
    # Every profile of height <= 6 with entries <= 8, valid iff its Kraft
    # sum, an integer over 2^h, is 2^h. The error holds the profile instead
    # of naming its Kraft sum, whose text costs more than the walk.
    monkeypatch.setattr(profiles, "_invalid_profile", ValueError)
    for h in range(1, 7):
        for tail in itertools.product(range(9), repeat=h):
            if tail[-1]:
                p = Profile((0,) + tail)
                valid = sum(l << (h - k) for k, l in enumerate(tail, 1)) == 1 << h
                for f in (level_choices, count_trees):
                    try:
                        f(p)
                    except ValueError as exc:
                        assert not valid and exc.args == (p,), (f.__name__, p)
                    else:
                        assert valid, (f.__name__, p)


def test_the_counting_walk_rejects_invalid_profiles_early():
    # 0,...,0,1: the walk stops at depth 1, where i_1 = 2 is above the leaf
    # total, rather than doubling for 100,000 levels.
    lone = Profile((0,) * 100_000 + (1,))
    # 2^21 slots at depth 21 hold 2^20 leaves, then the tail leaves one
    # internal node open: no binomial of that depth is formed.
    wide = Profile((0,) * 21 + (1 << 20, (1 << 21) - 1, 1))
    for p in (lone, wide):
        for f in (level_choices, count_trees):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="invalid profile, kraft sum"):
                f(p)
            assert time.perf_counter() - start < 0.1, (f.__name__, p.height)


def test_the_validity_queries_form_no_wide_binomial(monkeypatch):
    # Depth 21 splits 2^21 slots into 2^20 leaves and 2^20 internal nodes,
    # whose 2^21 children are the last level's leaves. Only count_trees and
    # level_choices need binom(2^21, 2^20); the validity queries form none.
    def no_comb(n, k):
        raise AssertionError(f"binom({n}, {k}) formed")

    monkeypatch.setattr(profiles, "_comb", no_comb)
    p = Profile((0,) * 21 + (1 << 20, 1 << 21))
    assert is_valid(p)
    assert internal_profile(p) == tuple(1 << k for k in range(21)) + (1 << 20,)
    assert truncate_profile(p, 20) == Profile((0,) * 21 + (1 << 21,))
    with pytest.raises(AssertionError, match="formed"):
        count_trees(p)


def test_truncation_reads_one_internal_count():
    # i_{k+1} is 2^{k+1} less the Kraft numerator of l_0, ..., l_{k+1}; the
    # level walk's internal counts are the reference.
    rng = random.Random(47)
    drawn = [narrow_profile(rng, rng.randint(2, 60)) for _ in range(40)]
    drawn += [random_split_profile(rng, rng.randint(2, 60)) for _ in range(40)]
    for p in drawn:
        internals = internal_profile(p) + (0,)
        for k in range(p.height):
            assert truncate_profile(p, k) == Profile(p.levels[:k + 1] + (internals[k + 1] + p.levels[k + 1],))
    # The complete 40,000-level profile cut halfway: the walk would keep
    # all 40,000 counts, of up to 40,000 bits (a 104 MiB peak).
    complete = Profile((0,) * 40_000 + (2**40_000,))
    tracemalloc.start()
    try:
        cut = truncate_profile(complete, 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cut == Profile((0,) * 20_001 + (2**20_001,))
    assert peak < 4 << 20, peak


def test_truncate_examples():
    p = Profile((0, 0, 2, 4))
    assert truncate_profile(p, 1) == Profile((0, 0, 4))
    assert truncate_profile(p, 0) == Profile((0, 2))
    assert truncate_profile(Profile((0, 2)), 0) == Profile((0, 2))


def test_truncate_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        truncate_profile(Profile((0, 2)), 1)
    with pytest.raises(ValueError, match="out of range"):
        truncate_profile(Profile((0, 0, 2, 4)), -1)
    with pytest.raises(ValueError, match="^a height-0 profile has no level to truncate at$"):
        truncate_profile(Profile((1,)), 0)


def _level_tuples(length, budget):
    if length == 0:
        yield ()
        return
    for first in range(budget + 1):
        for rest in _level_tuples(length - 1, budget - first):
            yield (first,) + rest


def test_validity_iff_internal_profile_succeeds():
    # Exhaustive over heights 1..5 and total leaf count <= 12:
    # internal_profile succeeds exactly on the Kraft-valid profiles.
    for h in range(1, 6):
        for tail in _level_tuples(h, 12):
            if tail[-1] == 0:
                continue
            p = Profile((0,) + tail)
            try:
                internal = internal_profile(p)
                succeeded = True
            except ValueError:
                succeeded = False
            assert succeeded == (kraft_sum(p) == 1), p
            if succeeded:
                assert internal[0] == 1
                assert all(i >= 1 for i in internal)
                assert 2 * internal[-1] == p.levels[-1]
                # The top-down recurrence i_k = 2*i_{k-1} - l_k holds too.
                assert all(internal[k] == 2 * internal[k - 1] - p.levels[k] for k in range(1, h)), p
                # So does the bottom-up one, i_k = (i_{k+1} + l_{k+1}) / 2.
                assert all(2 * internal[k] == internal[k + 1] + p.levels[k + 1] for k in range(h - 1)), p


@given(st.lists(st.integers(0, 8), min_size=1, max_size=11))
@example([1] * 9 + [2]).via("valid, of height 10: few random lists are valid")
@example([0, 1, 3, 6]).via("valid, with an odd leaf count at a middle depth")
def test_validity_equivalence_random_tall(tail):
    while tail and tail[-1] == 0:
        tail = tail[:-1]
    if not tail:
        return
    p = Profile((0, *tail))
    try:
        internal = internal_profile(p)
    except ValueError:
        internal = None
    # Checked against the exact Kraft sum and the bottom-up relation, not
    # against is_valid, which reads the same Kraft numerator.
    assert (internal is not None) == (kraft_sum(p) == 1), p
    if internal is not None:
        below = internal[1:] + (0,)
        assert all(2 * i == i_next + l for i, i_next, l in zip(internal, below, p.levels[1:], strict=True)), p


def test_counting_matches_enumeration_small():
    for leaves in range(2, 8):
        buckets = {}
        for t in all_binary_trees(leaves):
            buckets.setdefault(tree_core.profile(t), 0)
            buckets[tree_core.profile(t)] += 1
        for p, observed in buckets.items():
            assert count_trees(p) == observed
        assert sum(buckets.values()) == len(all_binary_trees(leaves))


def test_counts_over_the_swept_profiles_sum_to_catalan():
    # Each tree with L leaves has one valid profile, so the counts of the
    # valid profiles with L leaves, listed by a walk of reference_routes
    # that shares no code with count_trees, sum to catalan(L - 1).
    for leaves in range(1, 21):
        swept = valid_profiles(leaves)
        assert len(swept) == ref.VALID_PROFILES_BY_LEAVES[leaves - 1], leaves
        assert sum(count_trees(Profile(levels)) for levels in swept) == ref.CATALAN[leaves - 1], leaves


def test_counts_over_the_swept_profiles_of_a_height_sum_to_the_height_table():
    # Each tree of height h has one valid profile of height h, so the counts
    # of the valid profiles of height h, listed by a walk of reference_routes,
    # sum to the trees of height h: t_height_table(h).total(), the sum over
    # the cells of the Taylor-shift transfer, which shares no code with
    # count_trees's binomials.
    assert ref.TREES_OF_HEIGHT[:5] == tuple(
        b - a for a, b in zip(ref.TREES_BY_MAX_HEIGHT, ref.TREES_BY_MAX_HEIGHT[1:]))
    for h in range(1, 7):
        swept = valid_profiles_of_height(h)
        assert len(swept) == ref.VALID_PROFILES_BY_HEIGHT[h - 1], h
        assert all(Profile(levels).height == h for levels in swept), h
        total = sum(count_trees(Profile(levels)) for levels in swept)
        assert total == t_height_table(h).total() == ref.TREES_OF_HEIGHT[h - 1], h


def test_truncation_preserves_validity():
    seen = set()
    for leaves in range(2, 9):
        for t in all_binary_trees(leaves):
            seen.add(tree_core.profile(t))
    for p in seen:
        for k in range(p.height):
            cut = truncate_profile(p, k)
            assert is_valid(cut)
            assert cut.height == k + 1


def _shape_doc(shape):
    if shape is None:
        return {"leaf": True}
    return {"l": _shape_doc(shape[0]), "r": _shape_doc(shape[1])}


@given(st.recursive(st.none(), lambda s: st.tuples(s, s), max_leaves=40))
def test_profile_properties_random_trees(shape):
    tree = tree_core.from_json(json.dumps(_shape_doc(shape)))
    p = tree_core.profile(tree)
    assert kraft_sum(p) == 1
    assert p.total_leaves == tree.leaf_count
    assert count_trees(p) >= 1
    if p.height >= 1:
        internal = internal_profile(p)
        assert sum(internal) == tree.internal_count
        for k in range(p.height):
            assert is_valid(truncate_profile(p, k))
