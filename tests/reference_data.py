"""Frozen reference values shared across the test suite.

Everything here is small enough to audit by hand. The count tables were
cross-checked cell by cell against exhaustive enumeration at freeze time;
the sequences are short prefixes that the recurrences must reproduce. Tests
compare computed objects against these literals rather than re-deriving
them, so a regression in the library cannot silently re-freeze its own
output.
"""

# Catalan numbers C_0..C_20.
CATALAN = (
    1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796,
    58786, 208012, 742900, 2674440, 9694845, 35357670,
    129644790, 477638700, 1767263190, 6564120420,
)

# Valid leaf profiles with L leaves, L = 1..20 (OEIS A002572): the complete
# binary prefix codes of L words, by their length distributions.
VALID_PROFILES_BY_LEAVES = (
    1, 1, 1, 2, 3, 5, 9, 16, 28, 50,
    89, 159, 285, 510, 914, 1639, 2938, 5269, 9451, 16952,
)


def _row(k, n_start, values):
    return {(n_start + i, k): v for i, v in enumerate(values)}


# Counts of active trees with n internal nodes and 2k anchors, n <= 14,
# keyed by (n, k). Every column sums to CATALAN[n].
ACTIVE_COUNTS_14 = {
    **_row(1, 1, [1, 2, 4, 12, 32, 104, 328, 1080, 3648, 12544,
                  43600, 153504, 546272, 1960368]),
    **_row(2, 3, [1, 2, 10, 24, 92, 308, 1028, 3584, 12736, 45160,
                  161152, 581632]),
    **_row(3, 6, [4, 8, 40, 176, 584, 2144, 8192, 30720, 112496]),
    **_row(4, 7, [1, 2, 10, 84, 282, 1048, 4368, 18224]),
    **_row(5, 11, [24, 104, 352, 1616]),
    **_row(6, 12, [4, 36, 96]),
    **_row(7, 14, [8]),
}

# Counts of active trees of height exactly 4, keyed by (n, k); 24 cells
# summing to 651.
STEP4_COUNTS = {
    (4, 1): 8, (5, 1): 16, (5, 2): 4, (6, 1): 24, (6, 2): 16,
    (7, 1): 24, (7, 2): 36, (7, 3): 8, (8, 1): 8, (8, 2): 60,
    (8, 3): 24, (8, 4): 2, (9, 2): 28, (9, 3): 80, (9, 4): 6,
    (10, 3): 56, (10, 4): 60, (11, 4): 70, (11, 5): 24,
    (12, 5): 56, (12, 6): 4, (13, 6): 28, (14, 7): 8, (15, 8): 1,
}

# Counts of active trees of height exactly 3, keyed by (n, k); sums to 21.
STEP3_COUNTS = {
    (3, 1): 4, (4, 1): 4, (4, 2): 2, (5, 2): 6, (6, 3): 4, (7, 4): 1,
}

# a_0..a_27: the largest anchor-pair count among active trees with n
# internal nodes (a_0 = 1 is the generating-function convention).
A_PREFIX = (1, 1, 1, 2, 2, 2, 3, 4, 4, 4, 4, 5, 6, 6, 7,
            8, 8, 8, 8, 8, 9, 10, 10, 11, 12, 12, 12, 13)

# b_1..b_16 (index 0 padded): how often the value n occurs in the a
# sequence.
B_PREFIX = (0, 2, 3, 1, 4, 1, 2, 1, 5, 1, 2, 1, 3, 1, 2, 1, 6)

# Ruler function b_hat_1..b_hat_8 (index 0 padded).
RULER_PREFIX = (0, 1, 2, 1, 3, 1, 2, 1, 4)

# Companion a_hat_1..a_hat_12 (index 0 padded).
A_HAT_PREFIX = (0, 1, 2, 2, 3, 4, 4, 4, 5, 6, 6, 7, 8)

# Upper boundaries of the fixed-height cell regions.
LAMBDA_3 = ((3, 1), (4, 2), (5, 2), (6, 3), (7, 4))
LAMBDA_4 = ((4, 1), (5, 2), (6, 2), (7, 3), (8, 4), (9, 4),
            (10, 4), (11, 5), (12, 6), (13, 6), (14, 7), (15, 8))

# Number of binary trees of height at most h, h = 0..5; successive values
# obey e_{h+1} = e_h^2 + 1.
TREES_BY_MAX_HEIGHT = (1, 2, 5, 26, 677, 458330)

# Binary trees of height exactly h, h = 1..6 (OEIS A001699): the differences
# of TREES_BY_MAX_HEIGHT, and 458330^2 + 1 - 458330 at h = 6.
TREES_OF_HEIGHT = (1, 3, 21, 651, 457653, 210065930571)

# Valid leaf profiles of height h, h = 1..6 (OEIS A002449, the number of
# different types of binary trees of height h).
VALID_PROFILES_BY_HEIGHT = (1, 2, 6, 26, 166, 1626)

# A five-step growth history ("B" = branch, "D" = die, one letter per
# anchor, left to right) and the tree statistics (n, m, ell, height) after
# each step.
GROWTH_EXAMPLE = ("B", "BB", "BDDB", "BBBD", "BDBDBB")
GROWTH_EXAMPLE_STATS = (
    (1, 2, 0, 1), (3, 4, 0, 2), (5, 4, 2, 3), (8, 6, 3, 4), (12, 8, 5, 5),
)

# Measured scaling-limit deviations, pinned to four significant digits.
SCALING_DEV_PINS = {
    2: 1.3416, 3: 0.9024, 4: 0.5713, 5: 0.3466, 14: 0.001768,
}
