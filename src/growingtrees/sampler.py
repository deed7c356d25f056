"""Uniform random sampling of binary trees with a prescribed leaf profile.

The construction is bottom-up. The deepest level of a valid profile holds
l_h leaves, which pair into l_h/2 subtrees of two leaves each. Then for each
level i = h-1 down to 1 the current subtree sequence is interleaved with l_i
fresh leaves (a uniformly chosen merge pattern, order-preserving on both
sides) and consecutive elements of the interleaving are paired under new
internal nodes. After the top level a single root remains. Each level's
merge has binom(2*i_{i-1}, l_i) patterns and the pattern vector determines
the tree uniquely, so uniform independent patterns give a uniform tree and
the product of the pattern counts is the tree count.

Randomness flows through a BitSource, which hands out one fair bit at a time
and counts every bit drawn. Uniform integers come from draw_below, a
rejection sampler on the smallest binary range holding N that recycles the
rejected remainder instead of discarding it, so a draw costs log2(N) + 2
bits on average and a single-outcome draw costs none. Merge patterns are
drawn by unranking one such integer through the combinadic order, which
keeps per-sample bit accounting tight against the log2(count) entropy floor.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from math import comb

from .profiles import Profile, count_trees, exact_text, is_valid, kraft_sum
from .tree_core import INTERNAL, LEAF, Tree


class BitSource:
    """A seeded stream of fair bits with an exact consumption counter.

    One source serves one sampling call at a time; concurrent samplers
    should each own a source. Same seed, same call sequence: same bits.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.bits_consumed = 0
        self._rng = random.Random(seed)

    def next_bit(self) -> int:
        self.bits_consumed += 1
        return self._rng.getrandbits(1)


def draw_below(src: BitSource, n: int) -> int:
    """A uniform integer in [0, n), consuming expected <= log2(n) + 2 bits.

    Grows a uniform value bit by bit until its range covers n, accepts when
    it lands under n, and on rejection keeps the excess as the start of the
    next attempt (the leftover value is still uniform on its range). n = 1
    consumes no bits.
    """
    if n < 1:
        raise ValueError("n must be positive")
    v, c = 1, 0
    while True:
        while v < n:
            v <<= 1
            c = (c << 1) | src.next_bit()
        if c < n:
            return c
        v -= n
        c -= n


@dataclass(frozen=True)
class MergePattern:
    """An interleaving of two ordered sequences, as a 0/1 word.

    Zeros take the next item of the first sequence (length p), ones the next
    item of the second (length q).
    """

    word: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(bit not in (0, 1) for bit in self.word):
            raise ValueError("pattern word must consist of 0s and 1s")

    @property
    def zeros(self) -> int:
        return len(self.word) - sum(self.word)

    @property
    def ones(self) -> int:
        return sum(self.word)

    def one_positions(self) -> tuple[int, ...]:
        return tuple(i for i, bit in enumerate(self.word) if bit)


def unrank_merge(rank: int, p: int, q: int) -> MergePattern:
    """The rank-th merge pattern of p zeros and q ones.

    Patterns are ordered lexicographically by their sorted tuple of
    one-positions; rank runs over [0, binom(p+q, q)). Walking the word left
    to right, a one at the current slot accounts for binom(slots_left - 1,
    ones_left - 1) patterns, which tells whether rank falls inside.
    """
    if p < 0 or q < 0:
        raise ValueError("p and q must be nonnegative")
    total = comb(p + q, q)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} out of range for binom({p + q},{q}) = {total}")
    slots = p + q
    ones_left = q
    word = []
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
    return MergePattern(word=tuple(word))


def sample_merge(src: BitSource, p: int, q: int) -> MergePattern:
    """A uniformly random merge pattern of p zeros and q ones."""
    if p < 0 or q < 0:
        raise ValueError("p and q must be nonnegative")
    return unrank_merge(draw_below(src, comb(p + q, q)), p, q)


_PAIR = bytes((LEAF, LEAF, INTERNAL))


def _build(p: Profile, src: BitSource) -> tuple[Tree, int]:
    """Construct one tree; returns it with the elementary-step count.

    Steps: 1 per leaf created, 2 per internal node (one pointer hookup per
    child), so a tree with L leaves costs exactly L + 2*(L-1) = 3L - 2.
    Nodes are numbered in creation order, which the DOT output shows.
    """
    kinds = bytearray()
    left: list[int] = []
    right: list[int] = []
    steps = 0
    levels = p.levels
    h = p.height
    if h == 0:
        return Tree(bytes((LEAF,)), (-1,), (-1,), 0), 1
    seq: list[int] = []
    for _ in range(levels[h] // 2):
        k = len(kinds)
        kinds += _PAIR
        left += (-1, -1, k)
        right += (-1, -1, k + 1)
        steps += 4
        seq.append(k + 2)
    for i in range(h - 1, 0, -1):
        pattern = sample_merge(src, len(seq), levels[i])
        merged: list[int] = []
        carried = iter(seq)
        for bit in pattern.word:
            if bit:
                kinds.append(LEAF)
                left.append(-1)
                right.append(-1)
                steps += 1
                merged.append(len(kinds) - 1)
            else:
                merged.append(next(carried))
        seq = []
        for j in range(0, len(merged), 2):
            kinds.append(INTERNAL)
            left.append(merged[j])
            right.append(merged[j + 1])
            steps += 2
            seq.append(len(kinds) - 1)
    # A valid profile always reduces to the single root: i_0 = 1.
    assert len(seq) == 1
    return Tree(bytes(kinds), tuple(left), tuple(right), seq[0]), steps


def uniform_tree(p: Profile, src: BitSource) -> Tree:
    """A uniformly random binary tree with profile p.

    The profile is validated before any bits are drawn; the single-leaf
    profile (1,) returns the one-node tree for free.
    """
    return sample_with_stats(p, src)[0]


@dataclass(frozen=True)
class SampleStats:
    """Per-sample accounting: source seed, profile, bits, sizes."""

    seed: int
    profile: Profile
    bits_consumed: int
    node_count: int
    steps: int


def sample_with_stats(p: Profile, src: BitSource) -> tuple[Tree, SampleStats]:
    """uniform_tree plus the bookkeeping record for this one sample."""
    if not is_valid(p):
        raise ValueError(f"invalid profile, kraft sum {exact_text(kraft_sum(p))} != 1")
    before = src.bits_consumed
    tree, steps = _build(p, src)
    record = SampleStats(
        seed=src.seed,
        profile=p,
        bits_consumed=src.bits_consumed - before,
        node_count=len(tree.nodes),
        steps=steps,
    )
    return tree, record


def entropy_bound(p: Profile) -> float:
    """log2 of the number of trees with profile p: the random-bit floor.

    Exact to well under 1e-9 relative error even for astronomically large
    counts (the count is split into a float-safe mantissa and a shift).
    """
    n = count_trees(p)
    if n.bit_length() <= 900:
        return math.log2(n)
    shift = n.bit_length() - 900
    return math.log2(n >> shift) + shift
