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

The setup belongs to the profile, not to the sample: samples(p, src)
validates p once and computes its level choices once, which give both the
count and the level bases, then yields samples for as long as the caller
asks, so a command that draws k trees of one profile pays for the profile
once. Narrow levels keep asking for the same few words, so words of at most
8 slots (510 in all) are memoized; wider words are unranked afresh. Either
way the word is the same.

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
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from math import comb

# is_valid is not called here (_valid_level_choices validates), but
# benchmark/tracing.py wraps it under this module's name.
from .profiles import Profile, _product, _valid_level_choices, count_trees, exact_text, is_valid  # noqa: F401
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


# Every word of at most this many slots is memoized: 2 + 4 + ... + 2^8 = 510.
_MEMO_SLOTS = 8


@lru_cache(maxsize=1 << (_MEMO_SLOTS + 1))
def _small_merge(rank: int, p: int, q: int) -> tuple[int, ...]:
    """unrank_merge for words of at most _MEMO_SLOTS slots, memoized.

    A miss calls unrank_merge, so the order and the errors are its own; an
    error is raised, never cached.
    """
    return unrank_merge(rank, p, q)


_PAIR = bytes((LEAF, LEAF, INTERNAL))


def _mixed_radix(rank: int, bases: list[int]) -> list[int]:
    """The digits of rank in the mixed radix `bases`, least significant first.

    Consecutive bases are grouped into blocks of at least 64 bits. The rank
    is split top-down by a product tree of the blocks: a node's value is
    divided by the product of its lower half, the remainder going to that
    half and the quotient to the upper one, so every division is between
    numbers of comparable size and none divides the whole rank by a small
    block. Each block's value is then split into its digits one base at a
    time.
    """
    blocks = []  # (first base, end, product)
    i = 0
    while i < len(bases):
        j, block = i, 1
        while j < len(bases) and block.bit_length() < 64:
            block *= bases[j]
            j += 1
        blocks.append((i, j, block))
        i = j
    # tree[0] holds the block products; tree[k + 1][c] = tree[k][2c] * tree[k][2c + 1].
    tree = [[block for _, _, block in blocks] or [1]]
    while len(tree[-1]) > 1:
        below = tree[-1]
        tree.append([a * b for a, b in zip(below[::2], below[1::2])] + below[len(below) & ~1:])
    if not 0 <= rank < tree[-1][0]:
        raise ValueError(f"rank out of range for {exact_text(tree[-1][0])} trees")
    values = [rank]
    for below in reversed(tree[:-1]):
        split = []
        for c, value in enumerate(values):
            if 2 * c + 1 < len(below):
                high, low = divmod(value, below[2 * c])
                split += (low, high)
            else:
                split.append(value)
        values = split
    digits = []
    for (i, j, _), low in zip(blocks, values):
        for base in bases[i:j]:
            low, digit = divmod(low, base)
            digits.append(digit)
    return digits


def _build(p: Profile, rank: int, bases: list[int]) -> tuple[Tree, int]:
    """The tree of rank `rank` in [0, count_trees(p)) for a valid profile p,
    with its elementary-step count; distinct ranks give distinct trees.
    `bases` is level_choices(p)[-2::-1], the pattern counts deepest level
    first (the deepest level's own choice, binom(l_h, l_h) = 1, is left out).

    Steps: 1 per leaf created, 2 per internal node (one pointer hookup per
    child), so a tree with L leaves costs exactly L + 2*(L-1) = 3L - 2.
    Nodes are numbered in creation order, which the DOT output shows.
    """
    digits = _mixed_radix(rank, bases)
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
        merge = _small_merge if len(seq) + levels[i] <= _MEMO_SLOTS else unrank_merge
        for bit in merge(digit, len(seq), levels[i]):
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


def samples(p: Profile, src: BitSource) -> Iterator[tuple[Tree, SampleStats]]:
    """Uniform trees with profile p drawn from src, each with its record,
    for as long as the caller asks.

    An invalid profile is rejected here, at the call, before any bit is
    drawn, with count_trees's error; the level choices are computed once and
    give both the count and the level bases for every sample.
    """
    choices = _valid_level_choices(p)
    return _samples(p, src, _product(choices), choices)


def _samples(p: Profile, src: BitSource, n: int, choices: list[int]) -> Iterator[tuple[Tree, SampleStats]]:
    """samples(p, src) for a valid p whose level_choices(p) and count n, their
    product, the caller already holds."""
    bases = choices[-2::-1]
    while True:
        before = src.bits_consumed
        tree, steps = _build(p, draw_below(src, n), bases)
        yield tree, SampleStats(
            seed=src.seed,
            profile=p,
            bits_consumed=src.bits_consumed - before,
            node_count=len(tree.nodes),
            steps=steps,
        )


def sample_with_stats(p: Profile, src: BitSource) -> tuple[Tree, SampleStats]:
    """uniform_tree plus the bookkeeping record for this one sample. Each
    call pays the profile's setup; draw several trees through samples()."""
    return next(samples(p, src))


def entropy_bound(p: Profile) -> float:
    """log2 of the number of trees with profile p: the random-bit floor."""
    return _log2(count_trees(p))


def _log2(n: int) -> float:
    """log2 of a positive integer of any size.

    Exact to well under 1e-9 relative error even for astronomically large
    counts (the count is split into a float-safe mantissa and a shift).
    """
    if n.bit_length() <= 900:
        return math.log2(n)
    shift = n.bit_length() - 900
    return math.log2(n >> shift) + shift
