"""Leaf profiles of binary trees: validity, internal profiles, counting, truncation.

The profile of a binary tree of height h is the sequence (l_0, ..., l_h) in
which l_i counts the leaves at depth i. Such a sequence of nonnegative
integers with l_h > 0 is realized by at least one binary tree exactly when
its Kraft sum

    sum_{i=0}^{h} l_i / 2^i  =  1

holds with equality (the Kraft-McMillan condition for complete prefix codes).
A valid profile forces the number i_k of internal nodes at each depth k:
top-down, i_0 = 1 and i_k = 2*i_{k-1} - l_k; bottom-up, i_{h-1} = l_h / 2 and
i_k = (i_{k+1} + l_{k+1}) / 2, where a halving that is not integral or an
i_0 other than 1 shows the profile invalid.

The number of binary trees realizing a valid profile is the product

    prod_{k=0}^{h-1} binom(2*i_k, l_{k+1}),

one independent choice per level: the l_{k+1} leaves at depth k+1 pick their
positions among the 2*i_k children slots of the depth-k internal nodes.

The validity test is exact integer arithmetic; kraft_sum reports the exact
sum as a fractions.Fraction for messages, and exact_text writes big numbers
through decimal. Both modules are imported inside those functions only, so
importing the package loads neither. Counts are exact big integers.
"""

from __future__ import annotations

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
    legal values (they simply count zero trees) and several operations
    report on them.
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
        return ",".join(map(str, self.levels))


def exact_text(x: int | Fraction) -> str:
    """Exact decimal text of an int or a Fraction "p/q": unlike str(), Decimal
    has no limit on the number of digits (str() stops at 4,300 by default).
    decimal is imported here, on the first call, not with the package."""
    from decimal import MAX_EMAX, MAX_PREC, Inexact, localcontext

    if x.denominator != 1:
        return f"{exact_text(x.numerator)}/{exact_text(x.denominator)}"
    n = int(x)
    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.traps[Inexact] = MAX_PREC, MAX_EMAX, True
        return "-" * (n < 0) + str(_decimal(abs(n), n.bit_length(), {}))


# Decimal(n) takes time quadratic in the digits (37 ms at 140,000 bits, 1.9 s
# at 1,000,000), so _decimal converts pieces of at most this many bits only.
_DECIMAL_LEAF_BITS = 4096


def _decimal(n: int, bits: int, powers: dict[int, Decimal]) -> Decimal:
    """Decimal(n) for 0 <= n < 2^bits, as lo + hi * 2^half with both halves
    converted the same way, so the work lands in Decimal's fast big multiply
    (8 ms at 140,000 bits). Needs an exact, unbounded context; `powers`
    keeps the 2^w it builds, also by halving w. The depth is log2 of
    bits / 4096."""
    from decimal import Decimal

    if bits <= _DECIMAL_LEAF_BITS:
        return Decimal(n)
    half = bits >> 1
    hi = n >> half
    lo = _decimal(n - (hi << half), half, powers)
    return lo + _decimal(hi, bits - half, powers) * _power_of_two(half, powers)


def _power_of_two(w: int, powers: dict[int, Decimal]) -> Decimal:
    """Decimal 2^w, kept in `powers`; under the same context as _decimal."""
    from decimal import Decimal

    if w not in powers:
        if w <= _DECIMAL_LEAF_BITS:
            powers[w] = Decimal(2) ** w
        else:
            powers[w] = _power_of_two(w >> 1, powers) * _power_of_two(w - (w >> 1), powers)
    return powers[w]


def kraft_sum(p: Profile) -> Fraction:
    """Exact Kraft sum sum_i l_i / 2^i of a profile: sum_i l_i * 2^{h-i} by
    Horner's rule, over 2^h. Its numerator grows to h bits, so it serves
    messages only, not is_valid. fractions is imported here, on the first
    call, not with the package."""
    from fractions import Fraction

    numerator = 0
    for l in p.levels:
        numerator = 2 * numerator + l
    return Fraction(numerator, 1 << p.height)


def is_valid(p: Profile) -> bool:
    """True iff the profile is realized by some binary tree (Kraft sum = 1).

    Bottom-up carry test in O(h) with small integers: carry starts at l_h
    and, level by level going up, must be even before it halves and takes
    in l_k; the profile is valid iff the carry ends at 1. The carry at depth
    k is the node count i_k + l_k of the forced internal profile.
    """
    levels = p.levels
    carry = levels[-1]
    for l in reversed(levels[:-1]):
        if carry & 1:
            return False
        carry = (carry >> 1) + l
    return carry == 1


def internal_profile(p: Profile) -> tuple[int, ...]:
    """Internal-node counts (i_0, ..., i_{h-1}), i_0 = 1, forced by a valid
    profile of height >= 1.

    Computed bottom-up (i_{h-1} = l_h / 2, then i_k = (i_{k+1} + l_{k+1}) / 2);
    on a valid profile every entry is a positive integer.

    Raises ValueError "parity violation" when a bottom-up halving step is not
    integral, and "kraft violation" when the steps are integral but the
    profile is still invalid (the bottom-up pass then ends at i_0 != 1).
    Either error implies the profile is invalid.
    """
    h = p.height
    if h < 1:
        raise ValueError("a height-0 profile has no internal levels")
    l = p.levels
    internals = [0] * h
    carry = l[h]
    # carry holds i_{k+1} + l_{k+1} while walking k = h-1 down to 0.
    for k in range(h - 1, -1, -1):
        if carry % 2 != 0:
            raise ValueError(f"parity violation at level {k}: i_{k} = {carry}/2 is not integral")
        internals[k] = carry // 2
        carry = internals[k] + l[k]
    if internals[0] != 1:
        raise ValueError(f"kraft violation: bottom-up pass gives i_0 = {internals[0]}, kraft sum {exact_text(kraft_sum(p))}")
    return tuple(internals)


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


def level_choices(p: Profile) -> list[int]:
    """binom(2*i_k, l_{k+1}) for k = 0..h-1: the number of ways level k+1's
    leaves can sit among the 2*i_k child slots of depth k, for a valid p.

    The internal-node counts come top-down (i_0 = 1, i_k = 2*i_{k-1} - l_k),
    which a valid profile forces; callers check validity first.
    """
    choices = []
    internals = 1
    for l in p.levels[1:]:
        slots = 2 * internals
        # Narrow levels skip the call: _comb would hand them to math.comb.
        choices.append(comb(slots, l) if slots <= _COMB_DIRECT else _comb(slots, l))
        internals = slots - l
    return choices


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


def base_tree(p: Profile) -> list[list[int]]:
    """The product tree of p's level bases, level_choices(p)[-2::-1]: the
    pattern counts deepest level first, the deepest level's own choice,
    binom(l_h, l_h) = 1, left out. Its root is count_trees(p). An invalid p
    raises ValueError naming its Kraft sum."""
    if not is_valid(p):
        raise ValueError(f"invalid profile, kraft sum {exact_text(kraft_sum(p))} != 1")
    return _product_tree(level_choices(p)[-2::-1])


def count_trees(p: Profile) -> int:
    """Exact number of binary trees with profile p: the root of base_tree(p),
    the product of its level_choices. The Kraft test is the only validation."""
    return base_tree(p)[-1][0]


def truncate_profile(p: Profile, k: int) -> Profile:
    """Cut a valid profile at level k, absorbing everything below.

    The result (l_0, ..., l_k, i_{k+1} + l_{k+1}) replaces each depth-(k+1)
    subtree root slot by a leaf, so it is again a valid profile, of height
    exactly k + 1. For k = h-1 the profile is returned unchanged (i_h = 0).
    """
    h = p.height
    if h < 1:
        raise ValueError("a height-0 profile has no level to truncate at")
    if not 0 <= k <= h - 1:
        raise ValueError(f"level {k} out of range: need 0 <= k <= {h - 1}")
    internals = internal_profile(p)
    below = internals[k + 1] if k + 1 < h else 0
    return Profile(p.levels[: k + 1] + (below + p.levels[k + 1],))
