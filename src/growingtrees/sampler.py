"""Uniform random sampling of binary trees with a prescribed leaf profile.

The construction is top-down, in level order. A valid profile fixes how
many nodes each depth holds: the root is internal, depth i (0 < i < h) holds
2*i_{i-1} nodes, l_i of them leaves and i_i internal, and depth h holds its
l_h leaves. What a tree adds to its profile is the order of each depth's
row, a word of i_i INTERNAL and l_i LEAF kind bytes (tree_core) read left
to right: a merge pattern of the row's internal nodes with its leaves. Giving
the k-th internal node of the rows, read in order, the children 2k+1 and
2k+2 turns any choice of one word per depth into exactly one tree, numbered
in level order, and every tree arises so. Depth i has binom(2*i_{i-1}, l_i)
words, so the product of the word counts is the tree count N.

A tree is therefore named by one rank r in [0, N). A sample draws r, splits
it mixed-radix into one digit per level with that level's word count as the
base (depth 1 most significant, so the digits come in depth order), and
builds the tree by looking each digit up in its depth's row: the words of
that depth, indexed by rank.
Distinct ranks give distinct trees, so a uniform rank gives a uniform tree;
rank_tree is the inverse. The split and the build draw no bit: ranks(n,
src, count) is the stream of drawn ranks on its own, and a caller that only
counts bits (bench-bits) drains it and builds no tree.

The setup belongs to the profile, not to the sample: samples(p, src, count),
the one sampling call, validates p and sets it up once (Setup). Each depth
1..h-1 gets one row, whose counts and base, the word count, come from the
one walk of profiles.level_choices, which is also the validation. The
product tree of those bases, whose root is N, splits every rank, one pass
of divmod per tree level, and the build is one join of the rows' words, so
a command that draws k trees of one profile pays for the profile once. A
row of at most 8 slots (a narrow depth) is a table of all its words in
combinadic (lex) order, built on first use and shared by every profile (510
words in all), so a sample joins its narrow depths with no Python-level
step. A wider row (_WideRow) unranks its word when asked, one Python call
per wide depth with a loop over its slots: in lex order with a running
binomial up to 1,024 slots (_merge_word), in split order above
(_unrank_wide), where a word is cut in halves whose ranks are combined by
blocks, so a wide level costs well under the O(W^2) bit operations of one
running binomial across W slots.

Randomness flows through a BitSource, which hands out fair bits and counts
every bit drawn. Every uniform integer comes from one routine, _draw, which
keeps a uniform state (c, v), c uniform on [0, v), and recycles both what a
draw rejects and what it leaves unused (the interval algorithm of Han and
Hoshi; randomness recycling). One draw, ranks(n, src, 1), starts from a
fresh state: it costs under log2(n) + 2 bits on average, never less than
log2(n), and nothing for n = 1. ranks draws all its ranks from one state,
so k trees cost close to k * log2(N) bits: only the last draw pays the
rounding up to whole bits.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from collections.abc import Iterator
from functools import cache
from math import comb
from operator import getitem

from .profiles import Profile, _comb, _product_tree, count_trees, exact_text, level_choices
from .profiles import is_valid  # kept for benchmark/tracing.py only; ROADMAP.md item 4 deletes it
from .tree_core import INTERNAL, LEAF, Tree, freeze, profile


class BitSource:
    """A seeded stream of fair bits with an exact consumption counter.

    bits_consumed, every bit drawn, is the package's one account of bits: a
    call costs its change. samples draws each tree when it is asked for, so
    a tree's cost is the change across its next(); a tree may use bits an
    earlier one drew, so one tree's cost can be under log2(N), while the
    total never is.

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


def _draw(src: BitSource, state: list[int], n: int, spare: int) -> int:
    """A uniform integer in [0, n) from the state [c, v], c uniform on
    [0, v), which is left in place as a uniform state independent of the
    result.

    Fresh bits extend v to at least n * 2^spare. With v = q*n + r, c < q*n
    accepts, returns c mod n and keeps [c // n, q]; otherwise [c - q*n, r]
    is kept and the draw repeats. spare 0 draws the fewest bits that answer.
    """
    if n < 1:
        raise ValueError("n must be positive")
    c, v = state
    need = n << spare
    while True:
        if v < need:
            k = need.bit_length() - v.bit_length()
            if v << k < need:
                k += 1
            v <<= k
            c = (c << k) | src.next_bits(k)
        q, r = divmod(v, n)
        if c < v - r:
            c, result = divmod(c, n)
            state[:] = c, q
            return result
        c, v = c - (v - r), r


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
    return tuple(int(kind == LEAF) for kind in _merge_word(rank, p, q, comb(p + q, q)))


def _merge_word(rank: int, p: int, q: int, total: int) -> bytes:
    """unrank_merge(rank, p, q)'s word in kind codes, INTERNAL for its 0 and
    LEAF for its 1, which _rank_merge reads back, for a caller that already
    holds its total = binom(p+q, q), with the same range check."""
    if not 0 <= rank < total:
        raise ValueError(f"rank {exact_text(rank)} out of range for binom({p + q},{q}) = {exact_text(total)}")
    word = bytearray()
    ones_left = q
    for slots_left in range(p + q, 0, -1):
        if ones_left == 0:
            word += bytes((INTERNAL,)) * slots_left
            break
        here = total * ones_left // slots_left
        if rank < here:
            word.append(LEAF)
            ones_left -= 1
            total = here
        else:
            word.append(INTERNAL)
            rank -= here
            total -= here
    return bytes(word)


# Rows of at most this many slots are tables of all their words: 2 + 4 + ...
# + 2^8 = 510 words at most, built on first use.
_NARROW_SLOTS = 8
# Words of more than this many slots are unranked by halves (_unrank_wide).
_WIDE_SLOTS = 1024


def _blocks(w1: int, w2: int, q: int) -> Iterator[tuple[int, int, int]]:
    """The blocks of the words of w1 + w2 slots with q ones, split after slot
    w1, in split order: (j, size, right) for the words with j ones in the
    left half, size = binom(w1, j) * binom(w2, q - j) of them and right =
    binom(w2, q - j). The order runs from the mode of j outward: j0, j0 + 1,
    j0 - 1, j0 + 2, ..., so a uniform rank meets its block after O(sqrt(w1 +
    w2)) blocks on average. Each side steps its size and right by small
    ratios: a multiply and an exact divide each."""
    lo, hi = max(0, q - w2), min(q, w1)
    j0 = (q + 1) * (w1 + 1) // (w1 + w2 + 2)  # the hypergeometric mode
    right = _comb(w2, q - j0)
    size = _comb(w1, j0) * right
    yield j0, size, right
    up, up_size, up_right = down, down_size, down_right = j0, size, right
    while up < hi or down > lo:
        if up < hi:
            a, b = w1 - up, q - up
            up += 1
            up_size = up_size * a * b // (up * (w2 - b + 1))
            up_right = up_right * b // (w2 - b + 1)
            yield up, up_size, up_right
        if down > lo:
            a, b = down, w2 - q + down
            down -= 1
            down_size = down_size * a * b // ((w1 - down) * (q - down))
            down_right = down_right * b // (q - down)
            yield down, down_size, down_right


def _unrank_wide(rank: int, p: int, q: int, total: int) -> bytes:
    """The rank-th merge word of p INTERNAL and q LEAF codes in split order;
    rank runs over [0, total), total = binom(p+q, q).

    A word of at most _WIDE_SLOTS slots is _merge_word's, in lex order. A
    wider one is split after its first w1 = (p+q) // 2 slots: its block
    (_blocks) fixes the leaves j in the left half, and within the block the
    rank is left_rank * binom(w2, q - j) + right_rank. Each half is unranked
    by a recursive call, handed the word count its block has already formed,
    so no binomial is formed twice. The recursion halves one word, so it is
    ceil(log2(w / _WIDE_SLOTS)) calls deep, at most 53 for any word an index
    can hold. A split walks O(sqrt(w)) blocks of w-bit steps and makes one
    divmod, against the w steps of a running binomial across the whole word.
    """
    if rank < 0:
        raise ValueError(f"rank {exact_text(rank)} out of range: negative")
    w = p + q
    if w <= _WIDE_SLOTS:
        return _merge_word(rank, p, q, total)
    w1 = w // 2
    for j, size, right in _blocks(w1, w - w1, q):
        if rank < size:
            break
        rank -= size
    else:
        raise ValueError(f"rank out of range for binom({w},{q})")
    left, rest = divmod(rank, right)
    return _unrank_wide(left, w1 - j, j, size // right) + _unrank_wide(rest, w - w1 - q + j, q - j, right)


def _rank_merge(word: bytes) -> int:
    """The rank of a word of INTERNAL and LEAF codes in _merge_word's lex
    order, which is unrank_merge's with LEAF for its 1: _merge_word's
    inverse, with the same running binomial."""
    ones_left = word.count(LEAF)
    total = comb(len(word), ones_left)
    rank = 0
    for slots_left, kind in zip(range(len(word), 0, -1), word):
        if ones_left == 0:
            break
        here = total * ones_left // slots_left
        if kind == LEAF:
            ones_left -= 1
            total = here
        else:
            rank += here
            total -= here
    return rank


def _rank_wide(word: bytes) -> int:
    """The rank of a word of INTERNAL and LEAF codes in _unrank_wide's split
    order: its inverse. A word of more than _WIDE_SLOTS slots is ranked as
    the offset of the block its left half's leaf count names, plus the halves'
    ranks, each by a recursive call, combined as _unrank_wide splits them:
    ceil(log2(w / _WIDE_SLOTS)) calls deep, at most 53."""
    if len(word) <= _WIDE_SLOTS:
        return _rank_merge(word)
    w1 = len(word) // 2
    left_ones = word.count(LEAF, 0, w1)
    offset = 0
    for j, size, right in _blocks(w1, len(word) - w1, word.count(LEAF)):
        if j == left_ones:
            break
        offset += size
    return offset + _rank_wide(word[:w1]) * right + _rank_wide(word[w1:])


@cache
def _narrow_row(p: int, q: int) -> tuple[bytes, ...]:
    """Every merge word of p INTERNAL and q LEAF codes, indexed by its
    unrank_merge rank: the row of a depth of at most _NARROW_SLOTS slots."""
    total = comb(p + q, q)
    return tuple(_merge_word(r, p, q, total) for r in range(total))


class _WideRow:
    """The row of a depth of more than _NARROW_SLOTS slots: row[rank] is the
    rank-th merge word of p INTERNAL and q LEAF codes in split order,
    unranked when asked for. base = binom(p+q, q), its word count, is handed
    in by the level walk that formed it. A rank out of range raises
    ValueError."""

    __slots__ = ("p", "q", "base")

    def __init__(self, p: int, q: int, base: int):
        self.p, self.q, self.base = p, q, base

    def __getitem__(self, rank: int) -> bytes:
        return _unrank_wide(rank, self.p, self.q, self.base)


class Setup:
    """A valid profile p set up for sampling, one row per depth.

    `rows` holds one row per depth 1..h-1, top-down: its _narrow_row, or a
    _WideRow past _NARROW_SLOTS slots. Their counts and bases, the word
    counts, are level_choices(p) (the last choice, binom(l_h, l_h), is 1),
    and that walk is the validation: an invalid p raises ValueError naming
    its Kraft sum. A valid p whose trees have more nodes than an index can
    hold raises MemoryError. `tree` is the product tree of the bases in the
    same depth order (profiles._product_tree), and `count`, its root, is N.
    """

    __slots__ = ("profile", "rows", "tree", "count")

    def __init__(self, p: Profile):
        internals, choices = level_choices(p)
        # The kind string of a tree's 2L - 1 nodes must fit one bytes object.
        if 2 * p.total_leaves - 1 > sys.maxsize:
            raise MemoryError("a tree of this profile has more nodes than an index can hold")
        bases = choices[:-1]
        # Depth k's i_k + l_k slots are the 2 * i_{k-1} children above it.
        self.profile, self.rows = p, [
            _narrow_row(internal, leaves) if internal + leaves <= _NARROW_SLOTS
            else _WideRow(internal, leaves, base)
            for internal, leaves, base in zip(internals[1:], p.levels[1:-1], bases)]
        self.tree = _product_tree(bases)
        self.count = self.tree[-1][0]


def _mixed_radix(rank: int, tree: list[list[int]]) -> list[int]:
    """The digits of rank, most significant first, in the mixed radix of the
    bases at the leaves of their product tree `tree` (profiles._product_tree),
    each digit in the place of its base.

    The rank is split top-down: a node's value is divided by the product of
    its right, less significant, half, the quotient going to the left half
    and the remainder to the right one, so every division is between numbers
    of comparable size and none divides the whole rank by a small base. Each
    level of the tree is one pass of divmod over its values.
    """
    if not 0 <= rank < tree[-1][0]:
        raise ValueError(f"rank out of range for {exact_text(tree[-1][0])} trees")
    values = [rank]
    for below in reversed(tree[:-1]):
        # Value c splits by below[2c + 1]; an odd last value is carried as it
        # is (map stops at the shorter input), and no bases leave no value.
        split = list(itertools.chain.from_iterable(map(divmod, values, below[1::2])))
        if len(below) & 1:
            split.append(values[-1])
        values = split
    return values


def _build(setup: Setup, digits: list[int]) -> Tree:
    """The tree of setup.profile whose level digits are `digits`, in depth
    order, most significant first: a rank's digits in the bases
    setup.tree[0]. Distinct digits give distinct trees; a digit list of
    another length, or a digit outside its depth's row, raises ValueError.

    The tree is written top-down in level order: the root, then each depth's
    word looked up in its row, then the l_h deepest leaves. That is its kind
    string, the whole of a tree_core.Tree.
    """
    p, rows = setup.profile, setup.rows
    if len(digits) != len(rows):
        raise ValueError(f"{len(digits)} digits for {len(rows)} depths")
    # A negative index would read a narrow row from its end.
    if min(digits, default=0) < 0:
        raise ValueError(f"digit {min(digits)} out of range: negative")
    root = bytes((INTERNAL,)) if p.height else b""
    try:
        nodes = b"".join(itertools.chain((root,), map(getitem, rows, digits),
                                         (bytes((LEAF,)) * p.levels[-1],)))
    except IndexError:
        raise ValueError("digit out of range: past the word count of its depth") from None
    # A valid profile closes: the deepest row holds exactly the children of
    # the last internal nodes, so every child index 2k+2 is a node.
    assert len(nodes) == 2 * nodes.count(INTERNAL) + 1
    return Tree(nodes)


def rank_tree(p: Profile, tree: Tree) -> int:
    """The rank in [0, count_trees(p)) whose tree is `tree`: the inverse of
    the sampler's map from ranks to trees with the valid profile p. A
    growing tree is ranked by its shape; a tree of another profile raises
    ValueError.

    Depth k's word is the 2*i_{k-1} slots of the frozen kind string after
    the rows above it (level_choices), ranked in its row's order (lex up to
    _WIDE_SLOTS slots, split order above), and the digits are combined
    mixed-radix, depth 1 most significant.
    """
    if profile(tree) != p:
        raise ValueError(f"tree of profile {profile(tree)}, not {p}")
    nodes = freeze(tree).nodes
    internals, choices = level_choices(p)
    rank, start = 0, 1
    for internal, base in zip(internals, choices[:-1]):
        rank = rank * base + _rank_wide(nodes[start:start + 2 * internal])
        start += 2 * internal
    return rank


def ranks(n: int, src: BitSource, count: int) -> Iterator[int]:
    """count uniform, independent ranks in [0, n) drawn from src, each when
    it is asked for.

    Every rank is one _draw below n from a state shared by the whole stream.
    A draw keeps up to 16 spare bits in the state, never more than the later
    draws use, and the last draw asks for none, so the stream draws a few
    bits over count * log2(n) in all. n = 1 draws no bit.
    """
    state = [0, 1]
    for later in range(count - 1, -1, -1):
        # The later draws surely use bit_length(n) - 1 bits each.
        yield _draw(src, state, n, min(16, later * (n.bit_length() - 1)))


def samples(p: Profile, src: BitSource, count: int) -> Iterator[Tree]:
    """count uniform, independent trees with profile p drawn from src: the
    trees of the ranks(N, src, count) stream.

    An invalid profile is rejected here, at the call, before any bit is
    drawn, by the walk and with the error of count_trees. The profile is set
    up once (Setup): the product tree of the depth bases, whose root N is
    the count, splits each rank into one digit per depth, and each tree is
    one lookup per row. Each tree's rank is drawn when it is asked for.
    """
    setup = Setup(p)
    return (_build(setup, _mixed_radix(rank, setup.tree)) for rank in ranks(setup.count, src, count))


# Kept for benchmark/tracing.py and calibrate.py only; ROADMAP.md item 4 deletes it.
def sample_with_stats(p: Profile, src: BitSource) -> Tree:
    return next(samples(p, src, 1))


# Kept for benchmark/tracing.py only; ROADMAP.md item 4 deletes it.
def draw_below(src: BitSource, n: int) -> int:
    return next(ranks(n, src, 1))


def entropy_bound(p: Profile) -> float:
    """log2 of the number of trees with profile p: the random-bit floor (math.log2 takes any int)."""
    return math.log2(count_trees(p))
