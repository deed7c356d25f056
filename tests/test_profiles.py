"""Leaf-profile validity, internal profiles, counting, and truncation."""

import json
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from growingtrees import tree_core
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


def test_levels_given_as_a_list_are_the_same_profile():
    p = Profile([0, 2])
    assert p.levels == (0, 2)
    assert p == Profile((0, 2))
    assert hash(p) == hash(Profile((0, 2)))
    cherry = tree_core.Tree(bytes((tree_core.INTERNAL, tree_core.LEAF, tree_core.LEAF)), (1, -1, -1), (2, -1, -1), 0)
    assert tree_core.profile(cherry) == Profile([0, 2])
    with pytest.raises(ValueError, match="empty"):
        Profile([])


def test_internal_profile_examples():
    assert internal_profile(Profile((0, 1, 2))) == (1, 1)
    assert internal_profile(Profile((0, 0, 4))) == (1, 2)
    assert internal_profile(Profile((0, 0, 2, 4))) == (1, 2, 2)


def test_internal_profile_errors():
    with pytest.raises(ValueError, match="parity violation"):
        internal_profile(Profile((0, 1, 1)))
    with pytest.raises(ValueError, match="kraft violation"):
        internal_profile(Profile((0, 4)))
    with pytest.raises(ValueError, match="no internal levels"):
        internal_profile(Profile((1,)))


def test_exact_text_is_the_decimal_text():
    # Around the 4,096-bit pieces that exact_text converts directly, and far past them.
    rng = random.Random(73)
    for bits in (0, 1, 64, 4095, 4096, 4097, 8191, 8192, 8193, 50_001):
        for n in (2**bits - 1, 2**bits, rng.getrandbits(bits) | 2**bits):
            assert exact_text(n) == str(Decimal(n))
            assert exact_text(-n) == str(Decimal(-n))
    assert exact_text(Fraction(-3, 2**5000)) == f"-3/{Decimal(2**5000)}"


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
        assert count_trees(p) == math.prod(level_choices(p))
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


def _level_tuples(length, budget):
    if length == 0:
        yield ()
        return
    for first in range(budget + 1):
        for rest in _level_tuples(length - 1, budget - first):
            yield (first,) + rest


def test_validity_iff_internal_profile_succeeds():
    # Exhaustive over heights 1..5 and total leaf count <= 12: the bottom-up
    # halving pass succeeds exactly on the Kraft-valid profiles.
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
            assert succeeded == is_valid(p), p
            if succeeded:
                assert internal[0] == 1
                assert all(i >= 1 for i in internal)
                assert 2 * internal[-1] == p.levels[-1]


@given(st.lists(st.integers(0, 8), min_size=1, max_size=11))
def test_validity_equivalence_random_tall(tail):
    while tail and tail[-1] == 0:
        tail = tail[:-1]
    if not tail:
        return
    p = Profile((0, *tail))
    try:
        internal_profile(p)
        succeeded = True
    except ValueError:
        succeeded = False
    assert succeeded == is_valid(p)


def test_counting_matches_enumeration_small():
    for leaves in range(2, 8):
        buckets = {}
        for t in all_binary_trees(leaves):
            buckets.setdefault(tree_core.profile(t), 0)
            buckets[tree_core.profile(t)] += 1
        for p, observed in buckets.items():
            assert count_trees(p) == observed
        assert sum(buckets.values()) == len(all_binary_trees(leaves))


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
