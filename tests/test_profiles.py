"""Leaf-profile validity, internal profiles, counting, and truncation."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from growingtrees import tree_core
from growingtrees.oracle import all_binary_trees
from growingtrees.profiles import (
    Profile,
    count_trees,
    internal_profile,
    is_valid,
    kraft_sum,
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
