"""Brute-force enumerators: independent ground truth for the fast paths.

Everything here counts by exhaustive construction and never consults the
recurrence- or formula-based modules, so agreement between the two routes is
evidence, not circularity. Hard size guards (at most 12 leaves, at most 5
growth steps) keep every enumeration at desk scale; the oracle is a test
fixture, not a feature.

The growth-history walk yields every distinct reachable state: an active
tree is yielded at each step it survives, an inactive one exactly once, at
the step its last anchors die. Bucketing the yielded active states by
(internal nodes, anchors, height) therefore reproduces the height-indexed
counts, and columns whose histories all resolve within the step bound are
completed to Catalan numbers by the inactive states.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Iterator
from functools import cache

from ._record import Record
from .profiles import Profile
from .tree_core import (
    INTERNAL,
    LEAF,
    GrowthChoice,
    Tree,
    TreeStats,
    grow_step,
    new_seed,
    profile,
)

MAX_ORACLE_LEAVES = 12
MAX_ORACLE_STEPS = 5

@cache
def _shapes(n_leaves: int) -> tuple:
    """Every nested-pair shape with n_leaves leaves: None is a leaf, (l, r)
    an internal node. Shapes are immutable, so calls share them."""
    if n_leaves == 1:
        return (None,)
    return tuple((left, right) for i in range(1, n_leaves)
                 for left in _shapes(i) for right in _shapes(n_leaves - i))


def _tree_of_shape(shape) -> Tree:
    """The flat tree of a nested-pair shape, numbered in level order."""
    queue = [shape]
    for s in queue:
        if s is not None:
            queue.extend(s)
    return Tree(bytes([LEAF if s is None else INTERNAL for s in queue]))


def all_binary_trees(n_leaves: int) -> list[Tree]:
    """Every plane binary tree with the given number of leaves, no duplicates.

    Enumerated by root split in increasing left-size order; the result has
    Catalan(n_leaves - 1) trees and the order is stable across calls.
    """
    if not 1 <= n_leaves <= MAX_ORACLE_LEAVES:
        raise ValueError(f"n_leaves out of range 1..{MAX_ORACLE_LEAVES}: {n_leaves}")
    return [_tree_of_shape(s) for s in _shapes(n_leaves)]


def trees_with_profile(p: Profile) -> list[Tree]:
    """Every binary tree whose leaf profile equals p; empty for invalid p."""
    leaves = p.total_leaves
    if leaves > MAX_ORACLE_LEAVES:
        raise ValueError(f"profile has {leaves} leaves, oracle bound is {MAX_ORACLE_LEAVES}")
    return [t for t in all_binary_trees(leaves) if profile(t) == p]


_CHOICE_PAIR = (GrowthChoice.DIE, GrowthChoice.BRANCH)


def all_growth_histories(h_steps: int) -> Iterator[tuple[Tree, TreeStats]]:
    """Every state reachable from the seed within h_steps growth steps.

    Counts in the yielded stats are maintained incrementally (branching b of
    the m anchors adds b internal nodes, leaves 2b anchors, and kills m - b);
    the height is the step for active states and step - 1 for a tree whose
    anchors all just died.
    """
    if not 1 <= h_steps <= MAX_ORACLE_STEPS:
        raise ValueError(f"h_steps out of range 1..{MAX_ORACLE_STEPS}: {h_steps}")
    return _expand(new_seed(), 0, 0, h_steps)


def _expand(t: Tree, n: int, ell: int, h_steps: int) -> Iterator[tuple[Tree, TreeStats]]:
    m = t.anchor_count
    for choices in itertools.product(_CHOICE_PAIR, repeat=m):
        child = grow_step(t, choices)
        branched = sum(1 for c in choices if c is GrowthChoice.BRANCH)
        child_n = n + branched
        child_m = 2 * branched
        child_ell = ell + (m - branched)
        height = child.step if child_m else child.step - 1
        yield child, TreeStats(n=child_n, m=child_m, ell=child_ell, h=height)
        if child_m and child.step < h_steps:
            yield from _expand(child, child_n, child_ell, h_steps)


class OracleReport(Record):
    """One expected-versus-actual comparison, serializable as a JSON line."""

    __slots__ = ("checked", "expected", "actual", "passed")
    checked: str
    expected: object
    actual: object
    passed: bool

    @classmethod
    def compare(cls, checked: str, expected: object, actual: object) -> "OracleReport":
        return cls(checked=checked, expected=expected, actual=actual, passed=expected == actual)

    def to_json(self) -> str:
        return json.dumps(
            {
                "checked": self.checked,
                "expected": _jsonable(self.expected),
                "actual": _jsonable(self.actual),
                "pass": self.passed,
            },
            separators=(",", ":"),
        )


def _jsonable(value: object) -> object:
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, dict):
        return [[_jsonable(k), _jsonable(v)] for k, v in sorted(value.items())]
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return value
