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
base (deepest level least significant), and builds the tree by looking each
digit up in its depth's row: the words of that depth, indexed by rank.
Distinct ranks give distinct trees, so a uniform rank gives a uniform tree;
rank_tree is the inverse.

The setup belongs to the profile, not to the sample: samples(p, src)
validates p and builds, once, the product tree of its level bases
(profiles.base_tree), whose root is N, and the rows of its depths. Every
rank is split down the same product tree, one pass of divmod per tree
level, and the build is one join of the rows' words, so a command that
draws k trees of one profile pays for the profile once and a sample runs
no Python loop per level. A row of at most 8 slots is a table of all its
words in combinadic (lex) order, built on first use and shared by every
profile (510 words in all). A wider row unranks its word when asked:
in lex order with a running binomial up to 1,024 slots (unrank_merge), in
split order above (_unrank_wide), where a word is cut in halves whose ranks
are combined by blocks, so a wide level costs well under the O(W^2) bit
operations of one running binomial across W slots.

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
from functools import cache
from math import comb
from operator import getitem

# is_valid is not called here (base_tree validates), but
# benchmark/tracing.py wraps it under this module's name.
from .profiles import Profile, _comb, _product_tree, base_tree, count_trees, exact_text, is_valid, level_choices  # noqa: F401
from .tree_core import INTERNAL, LEAF, Tree, freeze, profile


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


# Rows of at most this many slots are tables of all their words: 2 + 4 + ...
# + 2^8 = 510 words at most, built on first use.
_NARROW_SLOTS = 8
# Words of more than this many slots are unranked by halves (_unrank_wide).
_WIDE_SLOTS = 1024

# unrank_merge's letters to kind codes: 0 -> INTERNAL, 1 -> LEAF.
_KIND_OF_LETTER = bytes.maketrans(bytes((0, 1)), bytes((INTERNAL, LEAF)))


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

    def up(j: int, size: int, right: int) -> Iterator[tuple[int, int, int]]:
        while j < hi:
            a, b = w1 - j, q - j
            j += 1
            size = size * a * b // (j * (w2 - b + 1))
            right = right * b // (w2 - b + 1)
            yield j, size, right

    def down(j: int, size: int, right: int) -> Iterator[tuple[int, int, int]]:
        while j > lo:
            a, b = j, w2 - q + j
            j -= 1
            size = size * a * b // ((w1 - j) * (q - j))
            right = right * b // (q - j)
            yield j, size, right

    both = itertools.zip_longest(up(j0, size, right), down(j0, size, right))
    return itertools.chain([(j0, size, right)], filter(None, itertools.chain.from_iterable(both)))


def _unrank_wide(rank: int, p: int, q: int) -> bytes:
    """The rank-th merge word of p INTERNAL and q LEAF codes in split order;
    rank runs over [0, binom(p+q, q)).

    A word of at most _WIDE_SLOTS slots is unrank_merge's, in kind codes. A
    wider one is split after its first w1 = (p+q) // 2 slots: its block
    (_blocks) fixes the leaves j in the left half, and within the block the
    rank is left_rank * binom(w2, q - j) + right_rank, each half ranked in
    split order again. The halves wait on an explicit stack. A split walks
    O(sqrt(w)) blocks of w-bit steps and makes one divmod, against the w
    steps of a running binomial across the whole word.
    """
    if rank < 0:
        raise ValueError(f"rank {exact_text(rank)} out of range: negative")
    words = []
    stack = [(rank, p, q)]
    while stack:
        rank, p, q = stack.pop()
        w = p + q
        if w <= _WIDE_SLOTS:
            words.append(bytes(unrank_merge(rank, p, q)).translate(_KIND_OF_LETTER))
            continue
        w1 = w // 2
        for j, size, right in _blocks(w1, w - w1, q):
            if rank < size:
                break
            rank -= size
        else:
            raise ValueError(f"rank out of range for binom({w},{q})")
        left, rest = divmod(rank, right)
        stack += ((rest, w - w1 - q + j, q - j), (left, w1 - j, j))
    return b"".join(words)


def _rank_merge(word: bytes) -> int:
    """The rank of a word of INTERNAL and LEAF codes in unrank_merge's lex
    order, LEAF for its 1: its inverse, with the same running binomial."""
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
    order: its inverse. The spans of the split are listed top-down, each
    before its halves, and ranked bottom-up."""
    spans = [(0, len(word))]
    for a, b in spans:  # the loop reaches the halves it appends
        if b - a > _WIDE_SLOTS:
            spans += ((a, a + (b - a) // 2), (a + (b - a) // 2, b))
    ranks = {}
    for a, b in reversed(spans):
        if b - a <= _WIDE_SLOTS:
            ranks[a, b] = _rank_merge(word[a:b])
            continue
        m = a + (b - a) // 2
        left_ones = word.count(LEAF, a, m)
        offset = 0
        for j, size, right in _blocks(m - a, b - m, word.count(LEAF, a, b)):
            if j == left_ones:
                break
            offset += size
        ranks[a, b] = offset + ranks[a, m] * right + ranks[m, b]
    return ranks[0, len(word)]


@cache
def _narrow_row(p: int, q: int) -> tuple[bytes, ...]:
    """Every merge word of p INTERNAL and q LEAF codes, indexed by its
    unrank_merge rank: the row of a depth of at most _NARROW_SLOTS slots."""
    return tuple(bytes(unrank_merge(r, p, q)).translate(_KIND_OF_LETTER) for r in range(comb(p + q, q)))


class _WideRow:
    """The row of a depth of more than _NARROW_SLOTS slots: row[rank] is the
    rank-th merge word of p INTERNAL and q LEAF codes in split order,
    unranked when asked for. A rank out of range raises ValueError."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        self.p, self.q = p, q

    def __getitem__(self, rank: int) -> bytes:
        return _unrank_wide(rank, self.p, self.q)


def _rows(p: Profile) -> list[tuple[bytes, ...] | _WideRow]:
    """The rows of depths 1..h-1 of a valid profile p, top-down: depth i's
    row holds its binom(2*i_{i-1}, l_i) words, indexed by digit."""
    rows = []
    internal = 1
    for leaves in p.levels[1:-1]:
        slots, internal = 2 * internal, 2 * internal - leaves
        rows.append(_narrow_row(internal, leaves) if slots <= _NARROW_SLOTS else _WideRow(internal, leaves))
    return rows


def _mixed_radix(rank: int, tree: list[list[int]]) -> list[int]:
    """The digits of rank, least significant first, in the mixed radix of the
    bases at the leaves of their product tree `tree` (profiles._product_tree).

    The rank is split top-down: a node's value is divided by the product of
    its lower half, the remainder going to that half and the quotient to the
    upper one, so every division is between numbers of comparable size and
    none divides the whole rank by a small base. Each level of the tree is
    one pass of divmod over its values.
    """
    if not 0 <= rank < tree[-1][0]:
        raise ValueError(f"rank out of range for {exact_text(tree[-1][0])} trees")
    values = [rank]
    for below in reversed(tree[:-1]):
        # Value c splits by below[2c]; an odd last value is carried as it is.
        split = list(itertools.chain.from_iterable(map(divmod, values, below[:len(below) & ~1:2])))
        split[::2], split[1::2] = split[1::2], split[::2]  # (high, low) -> (low, high)
        if len(below) & 1:
            split.append(values[-1])
        values = split
    # No bases: the root 1 stands above an empty level and yields no digit.
    return values[:len(tree[0])]


def _build(p: Profile, rows: list[tuple[bytes, ...] | _WideRow], digits: list[int]) -> Tree:
    """The tree of a valid profile p with rows _rows(p). `digits` are its
    merge ranks, deepest level first: a rank's digits in the bases
    level_choices(p)[-2::-1] (the deepest level's choice, binom(l_h, l_h) =
    1, has none). Distinct digits give distinct trees; a digit list of
    another length, or a digit outside its row, raises ValueError.

    The tree is written top-down in level order: the root, then the word of
    each depth 1..h-1 looked up in its row, then the l_h deepest leaves.
    That is its kind string, the whole of a tree_core.Tree.
    """
    if len(digits) != len(rows):
        raise ValueError(f"{len(digits)} digits for {len(rows)} merge levels")
    # A negative index would read a narrow row from its end.
    if min(digits, default=0) < 0:
        raise ValueError(f"digit {min(digits)} out of range: negative")
    root = bytes((INTERNAL,)) if p.height else b""
    try:
        nodes = b"".join(itertools.chain((root,), map(getitem, rows, reversed(digits)),
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

    Depth i's word is the slice of the frozen kind string after the rows
    above it, ranked in its row's order (lex up to _WIDE_SLOTS slots, split
    order above), and the digits are combined mixed-radix, depth 1 most
    significant.
    """
    if profile(tree) != p:
        raise ValueError(f"tree of profile {profile(tree)}, not {p}")
    nodes = freeze(tree).nodes
    rank, start, width = 0, 1, 2
    for base in level_choices(p)[:-1]:
        word = nodes[start:start + width]
        rank = rank * base + _rank_wide(word)
        start, width = start + width, 2 * word.count(INTERNAL)
    return rank


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
    each sample rank into the level digits. The rows of the depths, _rows(p),
    are built once too, and each sample's tree is one lookup per row.

    Without a count every tree draws its own rank below N. With one, the
    trees are drawn in batches of g = min(trees left, _BATCH_BITS //
    bit_length(N)) (at least 1): one rank below N^g, split by the product
    tree of g copies of N into g sample ranks. One draw costs under
    log2(N^g) + 2 bits on average, so a batch pays the draw's overhead once
    for g trees; a batch of one is the same stream as no count.
    """
    if tree is None:
        tree = base_tree(p)
    rows = _rows(p)
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
                yield _build(p, rows, _mixed_radix(rank, tree)), SampleStats(
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
    """log2 of the number of trees with profile p: the random-bit floor (math.log2 takes any int)."""
    return math.log2(count_trees(p))
