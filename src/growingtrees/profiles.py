"""Leaf profiles of binary trees: validity, internal profiles, counting, truncation.

The profile of a binary tree of height h is the sequence (l_0, ..., l_h) in
which l_i counts the leaves at depth i. Such a sequence of nonnegative
integers with l_h > 0 is realized by at least one binary tree exactly when
its Kraft sum

    sum_{i=0}^{h} l_i / 2^i  =  1

holds with equality (the Kraft-McMillan condition for complete prefix codes).
A valid profile forces the number i_k of internal nodes at each depth k,
top-down: i_0 = 1 and i_k = 2*i_{k-1} - l_k.

The number of binary trees realizing a valid profile is the product

    prod_{k=0}^{h-1} binom(2*i_k, l_{k+1}),

one independent choice per level: the l_{k+1} leaves at depth k+1 pick their
positions among the 2*i_k children slots of the depth-k internal nodes.

Validity is one test, the Kraft equality: the numerator
sum_i l_i * 2^{h-i}, a balanced sum of shifted halves, equals 2^h.
is_valid compares the two integers; kraft_sum reports the exact sum as a
fractions.Fraction for messages and profile validate. One walk of the
levels (_level_walk) forms the internal counts and level binomials in
small exact integers. internal_profile, level_choices, count_trees and
the sampler derive from it, and it rejects an invalid profile with the one
error that names its Kraft sum. truncate_profile needs only i_{k+1}, which
it reads off the Kraft numerator of l_0, ..., l_{k+1}. exact_text writes
numbers past str()'s digit limit through decimal. fractions and decimal
are imported only where they are needed, so importing the package loads
neither. Counts are exact big integers. read_levels and write_levels turn
a profile's comma-separated text into its levels and back, exactly at any
size, converting each distinct entry once.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress
from math import comb, isqrt

from ._record import Record


class Profile(Record):
    """Per-level leaf counts (l_0, ..., l_h) of a binary tree, l_h > 0.

    Structural constraints are enforced on construction: entries are
    nonnegative integers, the last entry is positive (so the height h is
    well defined and trailing zeros are rejected rather than normalized),
    a profile of height 0 is exactly (1), and a profile of height >= 1 has
    l_0 = 0 since a tree with internal nodes has no leaf at the root.

    Kraft validity is deliberately not enforced here: invalid profiles are
    legal values. is_valid and kraft_sum report on them; internal_profile,
    truncate_profile, level_choices, count_trees and the sampler reject
    them with the ValueError that names their Kraft sum.
    """

    __slots__ = ("levels",)
    levels: tuple[int, ...]

    def __init__(self, levels: tuple[int, ...] | list[int]) -> None:
        # A list of levels is the same profile as the tuple: equal and hashable.
        levels = tuple(levels)
        if not levels:
            raise ValueError("empty profile")
        # bool is an int subclass, but True is not a leaf count.
        if set(map(type, levels)) != {int} or min(levels) < 0:
            raise ValueError("profile entries must be nonnegative integers")
        if levels[-1] == 0:
            raise ValueError("trailing zero: the last profile entry l_h must be positive")
        if len(levels) == 1 and levels != (1,):
            raise ValueError("a height-0 profile must be (1)")
        if len(levels) > 1 and levels[0] != 0:
            raise ValueError("a profile of positive height must start with l_0 = 0")
        object.__setattr__(self, "levels", levels)

    @property
    def height(self) -> int:
        return len(self.levels) - 1

    @property
    def total_leaves(self) -> int:
        return sum(self.levels)

    def __str__(self) -> str:
        """The levels as write_levels writes them: "0,0,2,4"."""
        return write_levels(self.levels)


class _Memo(dict):
    """convert(key) for each key looked up, kept: a miss calls convert once
    (__missing__), a hit is one dict lookup in C, and a conversion that
    raises keeps nothing. Each use makes a fresh one (per call of
    read_levels, write_levels or exact_text's decimal route, per tree that
    tree_core writes, and per document that tree_core._canonical_tree
    reads), so it holds one call's keys and nothing more."""

    __slots__ = ("convert",)

    def __init__(self, convert: Callable[[object], object]) -> None:
        self.convert = convert

    def __missing__(self, key: object) -> object:
        self[key] = value = self.convert(key)
        return value


def read_levels(text: str) -> tuple[int, ...]:
    """The integers of a comma-separated text, each entry read as int()
    reads it (surrounding spaces, a sign, leading zeros and digit
    underscores allowed), at any number of digits. A deep profile repeats a
    few values, so each distinct entry is converted once. Raises ValueError
    on an entry int() rejects for anything but its length."""
    return tuple(map(_Memo(_read_int).__getitem__, text.split(",")))


def write_levels(levels: tuple[int, ...]) -> str:
    """Comma-separated decimal text of integers, exact at any size:
    exact_text of each distinct value once."""
    return ",".join(map(_Memo(exact_text).__getitem__, levels))


def _read_int(token: str) -> int:
    """int(token), also past the int/str digit limit. Where int() refuses,
    it reads the token again with its first digit group replaced by the
    digit 1, which int() accepts exactly when it would accept the token
    without the limit, and which gives the sign. A token refused for its
    length alone is then read by _digits_value; any other keeps int()'s
    error."""
    try:
        return int(token)
    except ValueError as refused:
        import re

        group = re.search(r"\d(?:_?\d)*", token)
        if group is None:
            raise
        try:
            sign = int(token[:group.start()] + "1" + token[group.end():])
        except ValueError:
            raise refused from None
        return sign * _digits_value(group[0].replace("_", ""))


def _digits_value(digits: str) -> int:
    """int(digits) for decimal digits of any length: int() reads pieces of
    at most sys.int_info.str_digits_check_threshold (640) digits, the lowest
    limit a program can set, and the halves meet in one multiply each
    (40 ms on CPython 3.11 at 131,000 digits, about the longest single
    argument Linux passes to a program)."""
    import sys

    if len(digits) <= sys.int_info.str_digits_check_threshold:
        return int(digits)
    half = len(digits) >> 1
    return _digits_value(digits[:half]) * 10 ** (len(digits) - half) + _digits_value(digits[half:])


def exact_text(x: int | Fraction) -> str:
    """Exact decimal text of an int or a Fraction "p/q": str() of each int,
    and where str() refuses it (past 4,300 digits by default, and a program
    may lower that limit to 640) the text of Decimal, which has no such
    limit. decimal is imported only then, not with the package."""
    if x.denominator != 1:
        return f"{exact_text(x.numerator)}/{exact_text(x.denominator)}"
    n = int(x)
    try:
        return str(n)
    except ValueError:
        pass
    from decimal import MAX_EMAX, MAX_PREC, Decimal, Inexact, localcontext

    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.traps[Inexact] = MAX_PREC, MAX_EMAX, True
        # 2^w, also built by halving w, in the same context as _decimal.
        powers = _Memo(lambda w: Decimal(2) ** w if w <= _DECIMAL_LEAF_BITS
                       else powers[w >> 1] * powers[w - (w >> 1)])
        return "-" * (n < 0) + str(_decimal(abs(n), n.bit_length(), powers))


# Decimal(n) takes time quadratic in the digits (37 ms at 140,000 bits, 1.9 s
# at 1,000,000), so _decimal converts pieces of at most this many bits only.
_DECIMAL_LEAF_BITS = 4096


def _decimal(n: int, bits: int, powers: _Memo) -> Decimal:
    """Decimal(n) for 0 <= n < 2^bits, as lo + hi * 2^half with both halves
    converted the same way, so the work lands in Decimal's fast big multiply
    (8 ms at 140,000 bits). Needs an exact, unbounded context; `powers[w]`
    is the Decimal 2^w, made in that context. The depth is log2 of
    bits / 4096."""
    from decimal import Decimal

    if bits <= _DECIMAL_LEAF_BITS:
        return Decimal(n)
    half = bits >> 1
    hi = n >> half
    lo = _decimal(n - (hi << half), half, powers)
    return lo + _decimal(hi, bits - half, powers) * powers[half]


def _kraft_numerator(levels: tuple[int, ...]) -> int:
    """The Kraft sum's numerator over 2^h, sum_i l_i * 2^{h-i}, for the
    levels (l_0, ..., l_h). The numerator of levels a..b-1 is a balanced sum
    of shifted halves, numer(a:b) = numer(a:m) * 2^{b-m} + numer(m:b), so
    each round of pairs is linear in the bits it holds and the sum takes
    O(h log h) bit operations, not Horner's O(h^2)."""
    # Each term is the numerator of `width` consecutive levels; a zero term
    # in front of an odd count stands for empty levels above level 0.
    terms, width = list(levels), 1
    while len(terms) > 1:
        if len(terms) & 1:
            terms.insert(0, 0)
        terms = [(hi << width) + lo for hi, lo in zip(terms[::2], terms[1::2])]
        width *= 2
    return terms[0]


def kraft_sum(p: Profile) -> Fraction:
    """Exact Kraft sum sum_i l_i / 2^i of a profile, as a Fraction: its
    numerator over 2^h. It serves messages and profile validate; is_valid
    compares the same numerator with 2^h and needs no Fraction. fractions
    (which imports decimal) is imported here, on the first call, not with
    the package."""
    from fractions import Fraction

    return Fraction(_kraft_numerator(p.levels), 1 << p.height)


def is_valid(p: Profile) -> bool:
    """True iff some binary tree realizes p: iff its Kraft sum is 1, that
    is, iff its numerator equals 2^h. It makes no level walk, so it keeps
    no internal count, and builds no Fraction."""
    return _kraft_numerator(p.levels) == 1 << p.height


def internal_profile(p: Profile) -> tuple[int, ...]:
    """Internal-node counts (i_0, ..., i_{h-1}), i_0 = 1, forced by a valid
    profile of height >= 1: the level walk's, all positive. An invalid p
    raises the walk's ValueError, naming its Kraft sum."""
    if p.height < 1:
        raise ValueError("a height-0 profile has no internal levels")
    return tuple(_level_walk(p)[0])


# math.comb divides big numbers, so its time grows with the square of its
# result's size (70 ms for binom(58494, 29247) on CPython 3.11). Past this
# min(k, n - k), _comb multiplies out the prime factorization instead (4 ms).
_COMB_DIRECT = 2048


def _comb(n: int, k: int) -> int:
    """binom(n, k), equal to math.comb(n, k), for 0 <= k <= n.

    A large one is the product of p^e over the primes p <= n, where
    e = sum_i floor(n/p^i) - floor(k/p^i) - floor((n-k)/p^i) by Legendre's
    formula. The prime powers meet in a balanced product tree, so no big
    division is made.
    """
    m = n - k
    if min(k, m) <= _COMB_DIRECT:
        return comb(n, k)
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = bytes(2)
    for i in range(2, isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, n + 1, i)))
    powers = []
    for p in compress(range(n + 1), sieve):
        e, power = 0, p
        while power <= n:
            e += n // power - k // power - m // power
            power *= p
        powers.append(p ** e)
    return _product_tree(powers)[-1][0]


def _level_walk(p: Profile) -> tuple[list[int], list[int]]:
    """The internal-node counts [i_0, ..., i_{h-1}] of a valid p and its
    binomials binom(2*i_k, l_{k+1}), with 0 for those of more than
    _COMB_DIRECT slots, which level_choices forms. An invalid p raises
    _invalid_profile(p).

    The counts come top-down, i_0 = 1 (none for the profile (1)) and
    i_k = 2*i_{k-1} - l_k, so that i_k = 2^k * (1 - sum_{j<=k} l_j / 2^j)
    and p is valid iff i_h = 0. A count below 0 stays below 0, and one above
    the leaf total L never comes back down to 0, so the walk stops at the
    first such depth and its integers never exceed 2L. It keeps all h
    counts, which its callers return or use.
    """
    levels = p.levels
    top = p.total_leaves
    internals, choices = [], []
    internal = 1 if len(levels) > 1 else 0
    for l in levels[1:]:
        internals.append(internal)
        slots = 2 * internal
        internal = slots - l
        if not 0 <= internal <= top:
            break
        # Narrow levels skip the call: _comb would hand them to math.comb.
        choices.append(comb(slots, l) if slots <= _COMB_DIRECT else 0)
    else:
        if not internal:
            return internals, choices
    raise _invalid_profile(p)


def level_choices(p: Profile) -> tuple[list[int], list[int]]:
    """The internal-node counts [i_0, ..., i_{h-1}] and the choices
    binom(2*i_k, l_{k+1}), k = 0..h-1, the ways level k+1's leaves can sit
    among the 2*i_k child slots of depth k: the level walk with its wide
    binomials formed. An invalid p raises ValueError naming its Kraft sum."""
    internals, choices = _level_walk(p)
    if not all(choices):
        for k, choice in enumerate(choices):
            if not choice:
                choices[k] = _comb(2 * internals[k], p.levels[k + 1])
    return internals, choices


def _product_tree(factors: list[int]) -> list[list[int]]:
    """The balanced product tree of factors: level 0 holds the factors, each
    level above the products of adjacent pairs (an odd last entry carried up
    unchanged), and the last level the one root, their product (1 for no
    factors). Big factors meet big factors: at 100,000 small factors the root
    costs a tenth of multiplying one by one."""
    tree = [factors]
    while len(tree[-1]) != 1:
        below = tree[-1]
        tree.append([a * b for a, b in zip(below[::2], below[1::2])] + below[len(below) & ~1:] or [1])
    return tree


def _invalid_profile(p: Profile) -> ValueError:
    """The error that rejects an invalid profile p, naming its Kraft sum."""
    return ValueError(f"invalid profile, kraft sum {exact_text(kraft_sum(p))} != 1")


def count_trees(p: Profile) -> int:
    """Exact number of binary trees with profile p: the product of its
    level_choices, as powers of the distinct ones in a balanced product
    tree. That walk is the validation: an invalid p raises ValueError."""
    return _product_tree([c ** e for c, e in Counter(level_choices(p)[1]).items()])[-1][0]


def truncate_profile(p: Profile, k: int) -> Profile:
    """Cut a valid profile at level k, absorbing everything below.

    The result (l_0, ..., l_k, i_{k+1} + l_{k+1}) replaces each depth-(k+1)
    subtree root slot by a leaf, so it is again a valid profile, of height
    exactly k + 1. For k = h-1 the profile is returned unchanged (i_h = 0).

    i_{k+1} = 2^{k+1} * (1 - sum_{j<=k+1} l_j / 2^j) is 2^{k+1} less the
    Kraft numerator of l_0, ..., l_{k+1}, so no level walk is made and no
    other internal count is kept. An invalid p raises ValueError naming its
    Kraft sum.
    """
    h = p.height
    if h < 1:
        raise ValueError("a height-0 profile has no level to truncate at")
    if not 0 <= k <= h - 1:
        raise ValueError(f"level {k} out of range: need 0 <= k <= {h - 1}")
    if not is_valid(p):
        raise _invalid_profile(p)
    below = (1 << k + 1) - _kraft_numerator(p.levels[:k + 2])
    return Profile(p.levels[: k + 1] + (below + p.levels[k + 1],))
