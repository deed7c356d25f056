"""Uniform random sampling of binary trees with a prescribed leaf profile.

The construction is top-down, in level order. A valid profile fixes how
many nodes each depth holds: the root is internal, depth i (0 < i < h) holds
2*i_{i-1} nodes, l_i of them leaves and i_i internal, and depth h holds its
l_h leaves. What a tree adds to its profile is the order of each depth's
row, a word of i_i zeros (internal nodes) and l_i ones (leaves) read left to
right: a merge pattern of the row's internal nodes with its leaves. Giving
the k-th internal node of the rows, read in order, the children 2k+1 and
2k+2 turns any choice of one word per depth into exactly one tree, numbered
in level order, and every tree arises so. Depth i has binom(2*i_{i-1}, l_i)
words, so the product of the word counts is the tree count N.

A tree is therefore named by one rank r in [0, N). A sample draws r, splits
it mixed-radix into one digit per level with that level's word count as the
base (deepest level least significant), and builds the tree, unranking each
digit into its level's word in combinadic order with a running binomial,
so a slot costs one small multiply and one exact divide. Distinct ranks give
distinct trees, so a uniform rank gives a uniform tree.

The setup belongs to the profile, not to the sample: samples(p, src)
validates p and builds the product tree of its level bases once
(profiles.base_tree). Its root is N, and every rank is split down the same
tree, so a command that draws k trees of one profile pays for the profile
once. Narrow levels keep asking for the same few words, so words of at most
8 slots (510 in all) are memoized; wider words are unranked afresh. Either
way the word is the same.

Randomness flows through a BitSource, which hands out fair bits and counts
every bit drawn. Uniform integers come from draw_below, a rejection sampler
on the smallest binary range holding N that recycles the rejected remainder
instead of discarding it, so a draw costs under log2(N) + 2 bits on average,
never less than log2(N), and a single-outcome draw costs none. A command
that names its count of trees draws them in batches: g trees share one rank
below N^g, split mixed-radix into g sample ranks, so a tree costs under
log2(N) + 2/g bits. g grows until the batch rank reaches about 2^15 bits,
which keeps its split cheap; one tree on its own is one draw below N.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from math import comb

# is_valid is not called here (base_tree validates), but
# benchmark/tracing.py wraps it under this module's name.
from .profiles import Profile, _product_tree, base_tree, count_trees, exact_text, is_valid  # noqa: F401
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


# Word letters to kind codes: 0 -> INTERNAL, 1 -> LEAF.
_KIND_OF_LETTER = bytes.maketrans(bytes((0, 1)), bytes((INTERNAL, LEAF)))


def _mixed_radix(rank: int, tree: list[list[int]]) -> list[int]:
    """The digits of rank, least significant first, in the mixed radix of the
    bases at the leaves of their product tree `tree` (profiles._product_tree).

    The rank is split top-down: a node's value is divided by the product of
    its lower half, the remainder going to that half and the quotient to the
    upper one, so every division is between numbers of comparable size and
    none divides the whole rank by a small base.
    """
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
    # No bases: the root 1 stands above an empty level and yields no digit.
    return values[:len(tree[0])]


def _build(p: Profile, digits: list[int]) -> Tree:
    """The tree of a valid profile p. `digits` are its merge ranks, deepest
    level first: a rank's digits in the bases level_choices(p)[-2::-1] (the
    deepest level's choice, binom(l_h, l_h) = 1, has none). Distinct digits
    give distinct trees; a digit list of another length raises ValueError.

    The tree is written top-down in level order: the root, then the word of
    each depth 1..h-1, then the l_h deepest leaves. That is its kind string,
    the whole of a tree_core.Tree.
    """
    levels = p.levels
    words = [bytes((0,))] if p.height else []
    internal = 1
    for leaves, digit in zip(levels[1:-1], reversed(digits), strict=True):
        merge = _small_merge if 2 * internal <= _MEMO_SLOTS else unrank_merge
        internal = 2 * internal - leaves
        words.append(bytes(merge(digit, internal, leaves)))
    words.append(bytes((1,)) * levels[-1])
    letters = b"".join(words)
    n, inner = len(letters), letters.count(0)
    # A valid profile closes: the deepest row holds exactly the children of
    # the last internal nodes, so every child index 2k+2 is a node.
    assert n == 2 * inner + 1
    return Tree(letters.translate(_KIND_OF_LETTER))


def uniform_tree(p: Profile, src: BitSource) -> Tree:
    """A uniformly random binary tree with profile p: the one tree of
    samples(p, src, 1)."""
    return next(samples(p, src, 1))[0]


@dataclass(frozen=True)
class SampleStats:
    """Per-sample accounting: source seed, profile, bits, sizes.

    bits_consumed counts the bits drawn while producing this record: the
    first record of a batch carries the batch's one draw and the others read
    0, so the records of a stream sum to the bits its source gave out.
    Every tree with L leaves has node_count = 2L - 1 nodes, and its build
    costs steps = 3L - 2 elementary steps: 1 per leaf and 2 per internal
    node (one hookup per child).
    """

    seed: int
    profile: Profile
    bits_consumed: int
    node_count: int
    steps: int


# A batch of g > 1 trees draws one rank below N^g of at most this many bits.
# Splitting it into g sample ranks takes time quadratic in its size under
# schoolbook long division, so the cap bounds that cost per batch.
_BATCH_BITS = 1 << 15


def samples(p: Profile, src: BitSource, count: int | None = None,
            tree: list[list[int]] | None = None) -> Iterator[tuple[Tree, SampleStats]]:
    """Uniform, independent trees with profile p drawn from src, each with
    its record: count of them, or as many as the caller asks for when count
    is None.

    An invalid profile is rejected here, at the call, before any bit is
    drawn, with count_trees's error. The product tree of the level bases,
    base_tree(p), is built once (a caller that already holds it passes it as
    `tree`) and serves every sample: its root N is the count, and it splits
    each sample rank into the level digits.

    Without a count every tree draws its own rank below N. With one, the
    trees are drawn in batches of g = min(trees left, _BATCH_BITS //
    bit_length(N)) (at least 1): one rank below N^g, split by the product
    tree of g copies of N into g sample ranks. One draw costs under
    log2(N^g) + 2 bits on average, so a batch pays the draw's overhead once
    for g trees; a batch of one is the same stream as no count.
    """
    if tree is None:
        tree = base_tree(p)
    n = tree[-1][0]
    node_count, steps = 2 * p.total_leaves - 1, 3 * p.total_leaves - 2
    if count is None:
        sizes = itertools.repeat(1)
    else:
        batch = max(1, _BATCH_BITS // n.bit_length())
        sizes = (min(batch, count - done) for done in range(0, count, batch))

    def stream() -> Iterator[tuple[Tree, SampleStats]]:
        # Rebuilt when the batch size changes: at most twice, for the full
        # batches and the short last one.
        batch_tree = [[]]
        for g in sizes:
            if len(batch_tree[0]) != g:
                batch_tree = _product_tree([n] * g)
            before = src.bits_consumed
            ranks = _mixed_radix(draw_below(src, batch_tree[-1][0]), batch_tree)
            drawn = src.bits_consumed - before
            for rank in ranks:
                yield _build(p, _mixed_radix(rank, tree)), SampleStats(
                    seed=src.seed,
                    profile=p,
                    bits_consumed=drawn,
                    node_count=node_count,
                    steps=steps,
                )
                drawn = 0

    return stream()


def sample_with_stats(p: Profile, src: BitSource) -> tuple[Tree, SampleStats]:
    """uniform_tree plus the bookkeeping record for this one sample. Each
    call pays the profile's setup; draw several trees through samples()."""
    return next(samples(p, src, 1))


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
