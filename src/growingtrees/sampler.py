"""Uniform random sampling of binary trees with a prescribed leaf profile.

The construction is bottom-up. The deepest level of a valid profile holds
l_h leaves, which pair into l_h/2 subtrees of two leaves each. Then for each
level i = h-1 down to 1 the current subtree sequence is interleaved with l_i
fresh leaves (a merge pattern, order-preserving on both sides) and
consecutive elements of the interleaving are paired under new internal
nodes. After the top level a single root remains. Each level's merge has
binom(2*i_{i-1}, l_i) patterns and the pattern vector determines the tree
uniquely, so the product of the pattern counts is the tree count N.

A tree is therefore named by one rank r in [0, N): _build splits r
mixed-radix, one digit per level with that level's pattern count as the
base (deepest level least significant), and unranks each digit into a merge
pattern in combinadic order, keeping the running binomial so that a slot
costs one small multiply and one exact divide. Distinct ranks give distinct
trees, so a sample draws one uniform rank and gets a uniform tree.

Randomness flows through a BitSource, which hands out fair bits and counts
every bit drawn. Uniform integers come from draw_below, a rejection sampler
on the smallest binary range holding N that recycles the rejected remainder
instead of discarding it, so a draw costs under log2(N) + 2 bits on average
and a single-outcome draw costs none. One draw per tree keeps a sample
within 2 bits of the log2(N) entropy floor at any height.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from math import comb, prod

# is_valid is not called here (count_trees validates), but benchmark/tracing.py
# wraps it under this module's name.
from .profiles import Profile, count_trees, exact_text, is_valid, level_choices  # noqa: F401
from .tree_core import INTERNAL, LEAF, Tree


class BitSource:
    """A seeded stream of fair bits with an exact consumption counter.

    One source serves one sampling call at a time; concurrent samplers
    should each own a source. Same seed, same call sequence: same bits.
    """

    def __init__(self, seed: int):
        # random.Random seeds by abs(seed): -5 would replay the bits of 5.
        if seed < 0:
            raise ValueError(f"seed must be nonnegative, got {seed}")
        self.seed = seed
        self.bits_consumed = 0
        self._rng = random.Random(seed)

    def next_bits(self, k: int) -> int:
        """k fair bits at once, as an integer in [0, 2^k)."""
        self.bits_consumed += k
        return self._rng.getrandbits(k)


def draw_below(src: BitSource, n: int) -> int:
    """A uniform integer in [0, n), consuming expected <= log2(n) + 2 bits.

    Extends a uniform value c on [0, v) by the fewest fair bits that make
    its range cover n, accepts when it lands under n, and on rejection keeps
    the excess as the start of the next attempt (the leftover value is still
    uniform on its range). n = 1 consumes no bits.
    """
    if n < 1:
        raise ValueError("n must be positive")
    v, c = 1, 0
    while True:
        if v < n:
            k = n.bit_length() - v.bit_length()
            if v << k < n:
                k += 1
            v <<= k
            c = (c << k) | src.next_bits(k)
        if c < n:
            return c
        v -= n
        c -= n


def unrank_merge(rank: int, p: int, q: int) -> tuple[int, ...]:
    """The rank-th merge pattern of p zeros and q ones, as a 0/1 word: an
    interleaving of two ordered sequences in which zeros take the next item
    of the first sequence (length p) and ones the next item of the second
    (length q).

    Patterns are ordered lexicographically by their sorted tuple of
    one-positions; rank runs over [0, binom(p+q, q)). Walking the word left
    to right with total = binom(slots_left, ones_left) patterns still open, a
    one at the current slot accounts for binom(slots_left - 1, ones_left - 1)
    = total * ones_left / slots_left of them, which tells whether rank falls
    inside; total then shrinks to the branch taken.
    """
    if p < 0 or q < 0:
        raise ValueError("p and q must be nonnegative")
    total = comb(p + q, q)
    if not 0 <= rank < total:
        raise ValueError(f"rank {exact_text(rank)} out of range for binom({p + q},{q}) = {exact_text(total)}")
    word = []
    ones_left = q
    for slots_left in range(p + q, 0, -1):
        if ones_left == 0:
            word += [0] * slots_left
            break
        here = total * ones_left // slots_left
        if rank < here:
            word.append(1)
            ones_left -= 1
            total = here
        else:
            word.append(0)
            rank -= here
            total -= here
    return tuple(word)


_PAIR = bytes((LEAF, LEAF, INTERNAL))


def _mixed_radix(rank: int, bases: list[int]) -> list[int]:
    """The digits of rank in the mixed radix `bases`, least significant first.

    Consecutive bases are grouped into blocks of at least 64 bits, so the
    wide rank is divided once per block rather than once per base.
    """
    digits = []
    i = 0
    while i < len(bases):
        j, block = i, 1
        while j < len(bases) and block.bit_length() < 64:
            block *= bases[j]
            j += 1
        rank, low = divmod(rank, block)
        for base in bases[i:j]:
            low, digit = divmod(low, base)
            digits.append(digit)
        i = j
    if rank != 0:
        raise ValueError(f"rank out of range for {exact_text(prod(bases))} trees")
    return digits


def _build(p: Profile, rank: int) -> tuple[Tree, int]:
    """The tree of rank `rank` in [0, count_trees(p)) for a valid profile p,
    with its elementary-step count; distinct ranks give distinct trees.

    Steps: 1 per leaf created, 2 per internal node (one pointer hookup per
    child), so a tree with L leaves costs exactly L + 2*(L-1) = 3L - 2.
    Nodes are numbered in creation order, which the DOT output shows.
    """
    # The deepest level's choice is always binom(l_h, l_h) = 1.
    digits = _mixed_radix(rank, level_choices(p)[-2::-1])
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
    for i, digit in zip(range(h - 1, 0, -1), digits):
        merged: list[int] = []
        carried = iter(seq)
        for bit in unrank_merge(digit, len(seq), levels[i]):
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
    """uniform_tree plus the bookkeeping record for this one sample: one
    uniform rank below count_trees(p), which rejects an invalid profile
    before any bit is drawn, built into its tree."""
    before = src.bits_consumed
    tree, steps = _build(p, draw_below(src, count_trees(p)))
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
