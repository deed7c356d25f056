"""Seeded random valid profiles for the sampler and CLI tests."""

from collections import defaultdict

from growingtrees.profiles import Profile


def narrow_profile(rng, height):
    """A valid profile of the given height with 1-2 internal nodes per level."""
    levels, internal = [0], 1
    for _ in range(1, height):
        leaves = rng.choice([l for l in range(4) if 1 <= 2 * internal - l <= 2])
        levels.append(leaves)
        internal = 2 * internal - leaves
    return Profile(tuple(levels) + (2 * internal,))


def random_split_profile(rng, leaves):
    """The profile of a random-split tree: each node of n > 1 leaves sends a
    uniform 1..n-1 of them to its left subtree."""
    depths, stack = defaultdict(int), [(leaves, 0)]
    while stack:
        n, depth = stack.pop()
        if n == 1:
            depths[depth] += 1
        else:
            left = rng.randint(1, n - 1)
            stack += [(left, depth + 1), (n - left, depth + 1)]
    return Profile(tuple(depths[d] for d in range(max(depths) + 1)))
