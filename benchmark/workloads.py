"""Seeded workloads: input generators, the timed operation, and output checks.

Each workload turns a seed into an endless stream of operations, in blocks
of `block` operations. Every block draws its sizes from each stratum of the
size range once, in a seeded order, so two seeds give different inputs with
the same size mix. That keeps percentiles steady across seeds without fixing
the inputs. `rate` is the workload's operations per second, checks included,
on a machine where the reference work of speed.py takes REFERENCE_S; the
harness sizes a run from it, not from the clock.

`execute` is the timed part and calls the library's public entry points:
`growingtrees.cli.run([...])` with stdout captured, or the `tree_core` growth
API. `check` verifies the result against facts that survive legitimate
algorithm changes and raises `CheckFailed` when one does not hold.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path

from growingtrees import cli, tree_core
from growingtrees.tree_core import GrowthChoice

# Output digests of every `tables` operation, recorded with record_digests.py.
DIGESTS = Path(__file__).with_name("digests.json")
TABLE_NMAX = (100, 200)
HEIGHT_TABLE_H = 8


class CheckFailed(Exception):
    """An operation returned normally but its output is wrong."""


@dataclass
class Op:
    """One operation: the arguments it runs with and what its check needs."""

    kind: str
    args: object
    expect: dict


@dataclass
class Outcome:
    """What a finished operation reports to the harness."""

    cli_bytes: int
    overhead_bits: float | None = None


def stratified(rng: random.Random, k: int):
    """Endless draws in [0, 1): each run of k is the grid (j + u)/k, j < k, in
    a seeded order. The offset u starts uniform and steps by the golden ratio
    from one run to the next, so successive grids interleave evenly."""
    offset = rng.random()
    while True:
        strata = list(range(k))
        rng.shuffle(strata)
        for j in strata:
            yield (j + offset) / k
        offset = (offset + 0.6180339887498949) % 1.0


def schedule(rng: random.Random, kinds: list[str]):
    """Endless kinds: each block is a seeded shuffle of `kinds`."""
    while True:
        block = list(kinds)
        rng.shuffle(block)
        yield from block


def run_cli(argv: list[str]) -> str:
    """`cli.run` in-process; a nonzero exit raises with the captured stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    if code != 0:
        raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


# The checks recompute Catalan numbers, internal profiles and tree counts
# from their closed forms rather than call the library code they check.

def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def internal_levels(levels: tuple[int, ...]) -> list[int]:
    """Internal nodes per depth forced by a valid profile, bottom-up."""
    h = len(levels) - 1
    internals = [0] * h
    carry = levels[h]
    for k in range(h - 1, -1, -1):
        internals[k] = carry // 2
        carry = internals[k] + levels[k]
    return internals


def log2_int(n: int) -> float:
    """log2 of a positive integer of any size, to double precision."""
    shift = max(0, n.bit_length() - 64)
    return math.log2(n >> shift) + shift


def entropy_floor(levels: tuple[int, ...]) -> float:
    """log2 of the number of trees with this profile, from the product formula."""
    count = 1
    for k, i in enumerate(internal_levels(levels)):
        count *= comb(2 * i, levels[k + 1])
    return log2_int(count)


def profile_text(levels: tuple[int, ...]) -> str:
    return ",".join(map(str, levels))


# ---------------------------------------------------------------------------
# Profile generators
# ---------------------------------------------------------------------------

def random_split_profile(rng: random.Random, leaves: int) -> tuple[int, ...]:
    """Leaf depths of a random-split tree (the binary-search-tree model)."""
    counts: dict[int, int] = {}
    stack = [(leaves, 0)]
    while stack:
        n, depth = stack.pop()
        if n == 1:
            counts[depth] = counts.get(depth, 0) + 1
        else:
            left = rng.randint(1, n - 1)
            stack.append((left, depth + 1))
            stack.append((n - left, depth + 1))
    return tuple(counts.get(d, 0) for d in range(max(counts) + 1))


def narrow_profile(rng: random.Random, height: int) -> tuple[int, ...]:
    """A caterpillar-like valid profile: 0-3 leaves per level, 1-2 internal nodes."""
    levels = [0]
    internal = 1
    for _ in range(1, height):
        leaves = rng.choice([l for l in range(4) if 1 <= 2 * internal - l <= 2])
        levels.append(leaves)
        internal = 2 * internal - leaves
    levels.append(2 * internal)
    return tuple(levels)


# ---------------------------------------------------------------------------
# Output checks shared by the sampling workloads
# ---------------------------------------------------------------------------

def dot_profile(text: str) -> tuple[int, tuple[int, ...]]:
    """Node count and leaf profile of a DOT tree, walked iteratively."""
    children: dict[str, list[str]] = {}
    nodes = []
    for line in text.splitlines():
        line = line.strip()
        if " -> " in line:
            a, b = line.rstrip(";").split(" -> ")
            children.setdefault(a, []).append(b)
        elif line.startswith("n") and "[" in line:
            nodes.append(line.split(" ", 1)[0])
    targets = {b for kids in children.values() for b in kids}
    roots = [n for n in nodes if n not in targets]
    if len(roots) != 1:
        raise CheckFailed(f"DOT output has {len(roots)} roots")
    counts: dict[int, int] = {}
    stack = [(roots[0], 0)]
    while stack:
        node, depth = stack.pop()
        kids = children.get(node, [])
        if not kids:
            counts[depth] = counts.get(depth, 0) + 1
        elif len(kids) != 2:
            raise CheckFailed(f"DOT node {node} has {len(kids)} children")
        stack.extend((kid, depth + 1) for kid in kids)
    return len(nodes), tuple(counts.get(d, 0) for d in range(max(counts) + 1))


def check_sample(op: Op, text: str, fmt: str) -> Outcome:
    """One sampled tree: its profile, its size 2L-1, and bits at or above the floor."""
    levels = op.expect["levels"]
    node_count = 2 * sum(levels) - 1
    if fmt == "dot":
        header, _, body = text.partition("\n")
        stats = dict(part.split("=") for part in header.lstrip("/ ").split())
        bits = int(stats["bits_consumed"])
        nodes, got = dot_profile(body)
        if int(stats["node_count"]) != node_count:
            raise CheckFailed(f"DOT header node_count {stats['node_count']} != {node_count}")
    else:
        record = json.loads(text)
        if record["profile"] != profile_text(levels):
            raise CheckFailed("sample record names another profile")
        bits = record["bits_consumed"]
        tree = tree_core.from_json(json.dumps(record["tree"], separators=(",", ":")))
        got = tree_core.profile(tree).levels
        nodes = len(tree.nodes)
        if record["node_count"] != node_count:
            raise CheckFailed(f"record node_count {record['node_count']} != {node_count}")
    if got != levels:
        raise CheckFailed("sampled tree has another profile than requested")
    if nodes != node_count:
        raise CheckFailed(f"sampled tree has {nodes} nodes, expected {node_count}")
    floor = op.expect["floor"]
    if bits < floor - 1e-9:
        raise CheckFailed(f"{bits} bits drawn, below the entropy floor {floor}")
    return Outcome(len(text), bits - floor)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Tables:
    """`table --nmax N` and `height-table --h 8` in CSV and JSON.

    Chosen because it is the only workload where `enumeration` does the work
    (the binomial transfer, the column scan in `t_table`, `to_csv`), so
    sampler, profile and tree changes should leave it unchanged. One op in
    four is a height table, all at h = 8, and N spreads evenly over 100-200
    for each format, so p50 and p90 fall among the table ops, whose costs
    form a continuum, and not in the gap between two fixed-cost kinds, where
    a half-and-half mix put them. The range stops at 200 so that a 20 s run
    holds over 100 ops.
    """

    name = "tables"
    block = 20
    rate = 6.5

    def __init__(self) -> None:
        self.digests = json.loads(DIGESTS.read_text())

    def ops(self, seed: int):
        rng = random.Random(seed)
        sizes = {"csv": stratified(random.Random(rng.getrandbits(64)), 8),
                 "json": stratified(random.Random(rng.getrandbits(64)), 7)}
        kinds = schedule(random.Random(rng.getrandbits(64)),
                         ["table csv", "table json"] * 7 + ["table csv"]
                         + ["height-table csv", "height-table json"] * 2 + ["height-table csv"])
        lo, hi = TABLE_NMAX
        while True:
            command, fmt = next(kinds).split()
            if command == "table":
                size = lo + int(next(sizes[fmt]) * (hi - lo + 1))
                argv = ["table", "--nmax", str(size), "--format", fmt]
            else:
                argv = ["height-table", "--h", str(HEIGHT_TABLE_H), "--format", fmt]
            yield Op(command, argv, {"key": " ".join(argv[:3] + [fmt])})

    def execute(self, op: Op) -> str:
        return run_cli(op.args)

    def check(self, op: Op, text: str) -> Outcome:
        if digest(text) != self.digests[op.expect["key"]]:
            raise CheckFailed(f"{op.expect['key']}: output differs from the recorded digest")
        if op.kind == "table":
            sums = column_sums(text, op.args[-1])
            for n, total in enumerate(sums, start=1):
                if total != catalan(n):
                    raise CheckFailed(f"column {n} sums to {total}, not catalan({n})")
        return Outcome(len(text))


def column_sums(text: str, fmt: str) -> list[int]:
    if fmt == "json":
        doc = json.loads(text)
        sums = [0] * doc["n_max"]
        for n, _, value in doc["cells"]:
            sums[n - 1] += value
        return sums
    rows = text.splitlines()
    sums = [0] * (len(rows[0].split(",")) - 1)
    for row in rows[1:]:
        for i, cell in enumerate(row.split(",")[1:]):
            if cell:
                sums[i] += int(cell)
    return sums


class SampleWide:
    """`sample --count 1` on random-split profiles of 2,000-5,000 leaves.

    Chosen for the merge unranking: these shapes are only 20-35 levels deep
    but merge hundreds to thousands of slots per level, so
    `sampler.unrank_merge` and the `tree_core` writers dominate while the
    per-level draws and profile validation stay small. One op in five writes
    DOT, the rest JSON; each format draws its sizes from its own strata, so
    both span the size range evenly in every block.
    """

    name = "sample-wide"
    block = 20
    rate = 6.1

    def ops(self, seed: int):
        rng = random.Random(seed)
        sizes = {"json": stratified(random.Random(rng.getrandbits(64)), 16),
                 "dot": stratified(random.Random(rng.getrandbits(64)), 4)}
        formats = schedule(random.Random(rng.getrandbits(64)), ["json"] * 16 + ["dot"] * 4)
        while True:
            fmt = next(formats)
            levels = random_split_profile(rng, 2000 + int(next(sizes[fmt]) * 3001))
            argv = ["sample", "--profile", profile_text(levels), "--count", "1",
                    "--seed", str(rng.getrandbits(63)), "--format", fmt]
            yield Op(fmt, argv, {"levels": levels, "floor": entropy_floor(levels)})

    def execute(self, op: Op) -> str:
        return run_cli(op.args)

    def check(self, op: Op, text: str) -> Outcome:
        return check_sample(op, text, op.kind)


class BitsDeep:
    """`bench-bits --samples 5` on narrow profiles 300-2,000 levels deep.

    Chosen for the random-bit cost: one `draw_below` per level and a
    `Fraction` Kraft validation of a long profile on every sample, with merges
    too small for unranking to matter. The bit overhead grows with height, so
    `bits_over_floor` is large here. One op in ten is `sample --count 1` on the
    same kind of profile, so deep-tree serialization is measured too: each
    block has one 300-900 levels deep and one 1,100-2,000 levels deep. The
    deep ones fail today with `RecursionError` (the limit lies near 1,000
    levels), and the gap between the two bands keeps heights off that limit,
    so the failed share is the same for every seed.
    """

    name = "bits-deep"
    block = 20
    rate = 8.3
    samples = 5
    heights = {"bench-bits": (300, 2000), "sample shallow": (300, 900), "sample deep": (1100, 2000)}

    def ops(self, seed: int):
        rng = random.Random(seed)
        draws = {"bench-bits": stratified(random.Random(rng.getrandbits(64)), 18),
                 "sample shallow": stratified(random.Random(rng.getrandbits(64)), 5),
                 "sample deep": stratified(random.Random(rng.getrandbits(64)), 5)}
        kinds = schedule(random.Random(rng.getrandbits(64)),
                         ["bench-bits"] * 18 + ["sample shallow", "sample deep"])
        while True:
            band = next(kinds)
            kind = band.split()[0]
            lo, hi = self.heights[band]
            levels = narrow_profile(rng, lo + int(next(draws[band]) * (hi - lo + 1)))
            text = profile_text(levels)
            seed_arg = str(rng.getrandbits(63))
            if kind == "bench-bits":
                argv = ["bench-bits", "--profile", text, "--samples", str(self.samples), "--seed", seed_arg]
            else:
                argv = ["sample", "--profile", text, "--count", "1", "--seed", seed_arg]
            yield Op(kind, argv, {"levels": levels, "floor": entropy_floor(levels)})

    def execute(self, op: Op) -> str:
        return run_cli(op.args)

    def check(self, op: Op, text: str) -> Outcome:
        if op.kind == "sample":
            return check_sample(op, text, "json")
        record = json.loads(text)
        floor = op.expect["floor"]
        if record["profile"] != profile_text(op.expect["levels"]) or record["samples"] != self.samples:
            raise CheckFailed("bench-bits record names another profile or sample count")
        if abs(record["entropy_bound"] - floor) > 1e-6:
            raise CheckFailed(f"entropy_bound {record['entropy_bound']} != log2 count {floor}")
        if record["mean_bits"] < floor - 1e-6:
            raise CheckFailed(f"mean {record['mean_bits']} bits is below the floor {floor}")
        return Outcome(len(text), record["mean_bits"] - floor)


class Growth:
    """Survival-conditioned growth histories through `new_seed`/`grow_step`.

    Chosen because it is the only workload that writes trees step by step,
    which is `tree_core`'s growth path; the sampling workloads build trees from
    a profile and read them out. Each anchor branches with probability 3/4,
    and a step that would kill every anchor is drawn again, so the tree stays
    active. A history stops at its node target of 3,000-12,000, about 20
    steps: in the step that reaches it, the anchors after the branch that
    reaches it die, so the tree has the target's size and not up to half as
    much again. Each op then freezes the tree and runs it through `to_json`,
    `from_json` and `profile`.
    """

    name = "growth"
    block = 20
    rate = 7.8
    branch_p = 0.75

    def ops(self, seed: int):
        rng = random.Random(seed)
        targets = stratified(random.Random(rng.getrandbits(64)), self.block)
        while True:
            target = 3000 + int(next(targets) * 9001)
            history = self.history(rng, target)
            yield Op("growth", history, reference_growth(history))

    def history(self, rng: random.Random, target: int) -> list[list[GrowthChoice]]:
        history = []
        anchors, nodes = 1, 1
        while nodes < target:
            branches = 0
            while branches == 0:
                step = [rng.random() < self.branch_p for _ in range(anchors)]
                branches = sum(step)
            needed = (target - nodes + 1) // 2
            if branches > needed:
                last = [i for i, b in enumerate(step) if b][needed - 1]
                step[last + 1:] = [False] * (anchors - last - 1)
                branches = needed
            history.append([GrowthChoice.BRANCH if b else GrowthChoice.DIE for b in step])
            anchors, nodes = 2 * branches, nodes + 2 * branches
        return history

    def execute(self, op: Op):
        grown = tree_core.new_seed()
        for choices in op.args:
            grown = tree_core.grow_step(grown, choices)
        text = tree_core.to_json(tree_core.freeze(grown))
        return grown, text, tree_core.profile(tree_core.from_json(text))

    def check(self, op: Op, result) -> Outcome:
        grown, text, profile = result
        expect = op.expect
        if digest(text) != expect["digest"]:
            raise CheckFailed("frozen JSON differs from the reference growth")
        if profile.levels != expect["levels"]:
            raise CheckFailed("round-tripped profile differs from the reference growth")
        st = tree_core.stats(grown)
        if (st.n, st.m, st.ell) != (expect["n"], expect["m"], expect["ell"]) or st.ell != st.n - st.m + 1:
            raise CheckFailed(f"counts n={st.n} m={st.m} l={st.ell} break l = n - m + 1 or the reference")
        return Outcome(0)


def reference_growth(history: list[list[GrowthChoice]]) -> dict:
    """Replay a history on nested lists, independently of `tree_core`.

    Returns the digest of the frozen tree's JSON, its leaf profile and the
    counts of internal nodes, anchors and dead leaves.
    """
    root = ["anchor"]
    anchors = [root]
    for choices in history:
        grown = []
        for node, choice in zip(anchors, choices):
            if choice is GrowthChoice.BRANCH:
                node[:] = ["internal", ["anchor"], ["anchor"]]
                grown.extend(node[1:])
            else:
                node[0] = "dead"
        anchors = grown
    parts, depths = [], {}
    kinds = {"internal": 0, "anchor": 0, "dead": 0}
    stack = [(root, 0)]
    while stack:
        item, depth = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        kinds[item[0]] += 1
        if item[0] == "internal":
            parts.append('{"l":')
            stack.extend([("}", 0), (item[2], depth + 1), (',"r":', 0), (item[1], depth + 1)])
        else:
            parts.append('{"leaf":true}')
            depths[depth] = depths.get(depth, 0) + 1
    levels = tuple(depths.get(d, 0) for d in range(max(depths) + 1))
    return {"digest": digest("".join(parts)), "levels": levels,
            "n": kinds["internal"], "m": kinds["anchor"], "ell": kinds["dead"]}


WORKLOADS = {w.name: w for w in (Tables, SampleWide, BitsDeep, Growth)}
