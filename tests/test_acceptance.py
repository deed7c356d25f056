"""End-to-end acceptance checks, one test per criterion.

Each test registers a one-line pass/fail verdict that the terminal summary
prints after the run. The checks here are deliberately cross-route: tables
against frozen references and exhaustive replays, formulas against brute
extraction, samplers against chi-square statistics on enumerated supports.
"""

import math
import time
from collections import defaultdict

import reference_data as ref
from reference_routes import a_gf_coeffs, a_seq_meta
from uniformity import chi_square
from growingtrees import enumeration, sequences
from growingtrees.oracle import all_binary_trees, trees_with_profile
from growingtrees.profiles import Profile, count_trees, is_valid
from growingtrees.sampler import BitSource, entropy_bound, samples
from growingtrees.tree_core import (
    GrowthChoice,
    NodeKind,
    freeze,
    grow_history,
    profile,
    to_json,
    unfreeze,
)


def test_count_table_reproduction(criterion):
    with criterion(1, "14-column count table matches the frozen reference exactly in under 1 s"):
        start = time.perf_counter()
        table = enumeration.t_table(14)
        elapsed = time.perf_counter() - start
        assert table.entries == ref.ACTIVE_COUNTS_14
        assert elapsed < 1.0, f"t_table(14) took {elapsed:.3f} s"


def _replay_choices(bt):
    # The branching history of a shape is forced: at step j every depth
    # j-1 node is replaced, internal nodes branch, leaves die. bt.nodes
    # lists the depths in turn, and depth j holds two nodes per internal
    # node of depth j-1.
    levels = []
    start, width = 0, 1
    while width:
        level = bt.nodes[start:start + width]
        levels.append(level)
        start, width = start + width, 2 * level.count(NodeKind.INTERNAL)
    assert start == len(bt.nodes)
    return [
        [GrowthChoice.BRANCH if kind == NodeKind.INTERNAL else GrowthChoice.DIE for kind in level]
        for level in levels[:-1]
    ]


def test_catalan_identity(criterion):
    with criterion(2, "column sums equal the Catalan numbers for n <= 20, replay-verified to n = 8"):
        table = enumeration.t_table(20)
        for n in range(1, 21):
            assert table.column_sum(n) == enumeration.catalan(n) == ref.CATALAN[n]
        # Every shape with n internal nodes replays to exactly one active
        # state, so the inactive remainder C_n - column_sum is zero; the
        # per-k buckets must reproduce the table columns.
        for n in range(1, 9):
            buckets: dict[int, int] = defaultdict(int)
            finals = set()
            for bt in all_binary_trees(n + 1):
                final = grow_history(_replay_choices(bt))
                assert final.is_active
                assert freeze(final) == bt
                assert final == unfreeze(bt)
                finals.add(final)
                buckets[final.anchor_count // 2] += 1
            assert len(finals) == ref.CATALAN[n]
            column = {k: v for (cn, k), v in table.entries.items() if cn == n}
            assert dict(buckets) == column


def test_fixed_height_table_reproduction(criterion):
    with criterion(3, "height-4 table matches the frozen reference; supports match the cell regions for h <= 7"):
        assert enumeration.t_height_table(4).entries == ref.STEP4_COUNTS
        for h in range(1, 8):
            support = set(enumeration.t_height_table(h).entries)
            assert support == sequences.s_domain(h).cells()


def test_boundary_formulas(criterion):
    with criterion(4, "boundary formulas equal brute extraction for h <= 7; cardinalities hold to h = 12"):
        start = time.perf_counter()
        for h in range(1, 8):
            support = set(enumeration.t_height_table(h).entries)
            right = {(n, k) for n, k in support if (n + 1, k) not in support}
            upper = {(n, k) for n, k in support if (n, k + 1) not in support}
            assert right == sequences.gamma(h).cells()
            assert upper == sequences.lambda_upper(h).cells()
        assert time.perf_counter() - start < 10.0
        for h in range(2, 13):
            assert len(sequences.lambda_upper(h)) == (1 << h) - h
            measured = len(sequences.s_domain(h))
            assert measured == sequences.s_area_formula(h)
            assert measured == (1 << (h - 2)) * ((1 << (h - 1)) - h + 2)


def test_sequence_coherence(criterion):
    with criterion(5, "sequence routes agree: recurrences, table maxima, closed form, series, density"):
        n_max = 10_000
        inner = sequences.a_seq(n_max)
        assert inner == a_seq_meta(n_max)
        table = enumeration.t_table(14)
        for n in range(1, 15):
            assert table.max_k(n) == inner[n]
        counts = sequences.b_seq(100_000)
        for n in range(1, 100_001):
            assert counts[n] == sequences.b_formula(n)
        assert a_gf_coeffs(512)[1:] == inner[1:513]
        big = 1 << 20
        density = sequences.a_seq(big)[big] / big
        assert abs(density - 0.5) < 1e-3


def test_quadratic_map_layer(criterion):
    with criterion(6, "quadratic-map identity, weighted column sums, and probe regimes hold"):
        z = enumeration.PolySeries.of([0, 1], 64)
        for h in range(11):
            m_h = enumeration.mandelbrot(h)
            assert enumeration.mandelbrot(h + 1) == m_h * m_h + z
        series = enumeration.cumulative_anchor_series(trunc=14)
        table = enumeration.t_table(14)
        for n in range(1, 15):
            weighted = sum(2 * k * v for (cn, k), v in table.entries.items() if cn == n)
            assert series.coeff(n) == weighted
        for value in (0.0, 0.1, 0.2, 0.24):
            assert enumeration.fixed_point_probe(value).converged
        for value in (0.26, 0.3):
            assert enumeration.fixed_point_probe(value).diverged


def test_profile_counting(criterion):
    with criterion(7, "profile counts match exhaustive enumeration; Kraft validity iff realizable"):
        arising: dict[int, dict[Profile, int]] = {}
        for leaves in range(1, 11):
            buckets: dict[Profile, int] = defaultdict(int)
            for bt in all_binary_trees(leaves):
                buckets[profile(bt)] += 1
            arising[leaves] = dict(buckets)
            for p, observed in buckets.items():
                assert count_trees(p) == observed
            assert sum(buckets.values()) == ref.CATALAN[leaves - 1]
        # Kraft validity iff some tree realizes the profile: compare the
        # arising profiles against a direct enumeration of level tuples.
        def level_tuples(length, budget):
            if length == 0:
                yield ()
                return
            for first in range(budget + 1):
                for rest in level_tuples(length - 1, budget - first):
                    yield (first,) + rest

        for leaves in range(1, 11):
            realized = set(arising[leaves])
            valid = set()
            if leaves == 1:
                valid.add(Profile((1,)))
            for h in range(1, leaves):
                for tail in level_tuples(h, leaves):
                    if sum(tail) == leaves and tail[-1] > 0:
                        p = Profile((0,) + tail)
                        if is_valid(p):
                            valid.add(p)
            assert realized == valid


def test_sampler_uniformity(criterion):
    with criterion(8, "sampler is uniform per profile (chi-square at 1e-6), hits full support, keeps profiles"):
        by_profile: dict[Profile, list] = defaultdict(list)
        for leaves in range(1, 9):
            for bt in all_binary_trees(leaves):
                by_profile[profile(bt)].append(bt)
        src = BitSource(20_260_822)
        tested = 0
        for p, trees in sorted(by_profile.items(), key=lambda item: str(item[0])):
            count = len(trees)
            if count > 60:
                continue
            assert count_trees(p) == count
            support = {to_json(t) for t in trees}
            if count == 1:
                before = src.bits_consumed
                for _ in range(3):
                    tree = next(samples(p, src, 1))
                    assert to_json(tree) in support
                assert src.bits_consumed == before
                continue
            draws = max(200, 100 * count)
            tally: dict[str, int] = defaultdict(int)
            for _ in range(draws):
                tree = next(samples(p, src, 1))
                assert profile(tree) == p
                tally[to_json(tree)] += 1
            assert set(tally) == support
            assert chi_square(list(tally.values())).passed, p
            tested += 1
        assert tested >= 10


def test_entropy_accounting(criterion):
    with criterion(9, "mean bit cost within 3 of the entropy floor; forced trees free; seeded reruns identical"):
        for levels in ((0, 1, 2), (0, 0, 2, 4), (0, 1, 0, 4)):
            p = Profile(levels)
            src = BitSource(4242)
            for _ in range(10_000):
                next(samples(p, src, 1))
            assert src.bits_consumed / 10_000 <= entropy_bound(p) + 3
        for levels in ((1,), (0, 2), (0, 0, 0, 8)):
            src = BitSource(77)
            next(samples(Profile(levels), src, 1))
            assert src.bits_consumed == 0
        p = Profile((0, 1, 0, 2, 4))
        runs = []
        for _ in range(2):
            src = BitSource(555)
            runs.append([
                (to_json(next(samples(p, src, 1))), src.bits_consumed)
                for _ in range(50)
            ])
        assert runs[0] == runs[1]


def test_construction_linearity(criterion):
    with criterion(10, "the build writes 2 * 2^h - 1 node codes for 0 bits on complete profiles, h = 6..12"):
        for h in range(6, 13):
            leaves = 1 << h
            p = Profile((0,) * h + (leaves,))
            src = BitSource(h)
            tree = next(samples(p, src, 1))
            assert len(tree.nodes) == 2 * leaves - 1
            assert tree.nodes.count(NodeKind.INTERNAL) == leaves - 1
            assert tree.leaf_count == leaves
            assert profile(tree) == p
            assert src.bits_consumed == 0


def test_scaling_limit_diagnostic(criterion):
    with criterion(11, "scaling deviation decreases (5% tolerance) and ends below 0.05 at h = 14"):
        devs = {h: sequences.scaling_limit_deviation(h) for h in range(4, 15)}
        for h in range(4, 14):
            assert devs[h + 1] <= devs[h] * 1.05, (h, devs[h], devs[h + 1])
        assert devs[14] < 0.05
        assert not math.isnan(devs[14])
