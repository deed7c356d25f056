"""Command-line front end: tables, sequences, domains, profiles, sampling.

Output conventions: machine-readable results on stdout, diagnostics on
stderr. Exit codes: 0 success, 1 domain errors (invalid profile, out-of-range
sizes), running out of memory and an output pipe closed early, 2 usage
errors. Commands that draw randomness take --seed and echo the seed in every
record, so a rerun with the same arguments and seed is byte-identical. The
count tables and cell regions print their own text: CSV tables use the grid
layout of CountTable.to_csv.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

# Each command imports the submodules it uses, so a fresh process loads only
# its own command's code, and calls through the module (enumeration.t_table),
# so a wrapper set on the module attribute sees the call. math and random
# load where they are used, and json only for oracle, whose reports nest
# lists: every other record is written as its own text.


def _levels_arg(text: str) -> tuple[int, ...]:
    """Comma-separated integers, each read as int() reads it but at any
    length, and each distinct one once (profiles.read_levels); structural
    profile checks happen later."""
    from . import profiles

    try:
        return profiles.read_levels(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _positive_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


def _check_size(name: str, value: int, top: int, hint: str = "") -> None:
    """The command line's one size guard: value above top exits 1. The
    parser's _positive_arg has already checked value >= 1."""
    if value > top:
        raise ValueError(f"{name} out of range 1..{top} for the command line{hint}")


def _fresh_seed() -> int:
    """63 bits from the operating system's generator: secrets.randbits,
    without the hmac and hashlib imports that loading secrets costs."""
    import random

    return random.SystemRandom().getrandbits(63)


def cmd_table(args: argparse.Namespace) -> int:
    """table and height-table: one count table, as CSV or JSON."""
    from . import enumeration

    # Each command's size argument, its bound, the noun of its error hint,
    # and its builder.
    name, top, larger, build = {
        "table": ("nmax", 300, "tables", enumeration.t_table),
        "height-table": ("h", 10, "heights", enumeration.t_height_table)}[args.command]
    size = getattr(args, name)
    _check_size(name, size, top, f"; use the library for larger {larger}")
    table = build(size)
    if args.format == "json":
        print(table.to_json())
    else:
        print(table.to_csv(), end="")
    return 0


def cmd_seq(args: argparse.Namespace) -> int:
    from . import sequences

    # Output size only: the library itself goes further.
    _check_size("nmax", args.nmax, 100_000)
    # Each builder's list starts at n = 0, which the command leaves out; the
    # ruler function has no n = 0 term.
    build = {"a": sequences.a_seq, "b": sequences.b_seq, "ahat": sequences.a_hat_seq,
             "bhat": lambda n: [None, *map(sequences.ruler, range(1, n + 1))]}[args.which]
    text = ",".join(map(str, build(args.nmax)[1:]))
    print(f"[{text}]" if args.format == "json" else text)
    return 0


def cmd_domain(args: argparse.Namespace) -> int:
    from . import sequences

    # Each region's --h bound and builder.
    top, build = {"cells": (10, sequences.s_domain), "gamma": (16, sequences.gamma),
                  "lambda": (16, sequences.lambda_upper),
                  "area": (100_000, sequences.s_area_formula)}[args.which]
    _check_size("h", args.h, top)
    result = build(args.h)
    if args.which == "area":
        from . import profiles

        print(profiles.exact_text(result))
    elif args.format == "json":
        print(result.to_json())
    else:
        print(result.to_csv(), end="")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from . import profiles

    p = profiles.Profile(args.profile)
    if args.which == "validate":
        q = profiles.kraft_sum(p)
        print(f"{'valid' if q == 1 else 'invalid'}, kraft={profiles.exact_text(q)}")
        return 0
    if args.which == "count":
        print(profiles.exact_text(profiles.count_trees(p)))
        return 0
    if args.which == "internal":
        print(profiles.write_levels(profiles.internal_profile(p)))
        return 0
    if args.level is None:
        print("error: truncate requires --level", file=sys.stderr)
        return 2
    print(profiles.truncate_profile(p, args.level))
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    from . import profiles, sampler, tree_core

    p = profiles.Profile(args.profile)
    seed = args.seed if args.seed is not None else _fresh_seed()
    src, drawn = sampler.BitSource(seed), 0
    node_count = 2 * p.total_leaves - 1
    # The profile's text is the same in every record: written once.
    head = f'{{"seed":{seed},"profile":"{p}","index":'
    for index, tree in enumerate(sampler.samples(p, src, args.count)):
        # What this tree's next() drew; it may use bits an earlier tree drew.
        bits, drawn = src.bits_consumed - drawn, src.bits_consumed
        if args.format == "dot":
            print(f"// seed={seed} index={index} "
                  f"bits_consumed={bits} node_count={node_count}")
            print(tree_core.to_dot(tree), end="")
        else:
            print(f'{head}{index},"bits_consumed":{bits},"node_count":{node_count},'
                  f'"tree":{tree_core.to_json(tree)}}}')
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    import json
    from collections import Counter

    from . import enumeration, oracle, profiles

    # (checked, expected, actual) triples, all computed before any is printed,
    # so a size out of range prints nothing.
    checks: list[tuple[str, object, object]] = []
    if args.which == "catalan":
        for leaves in range(1, args.nmax + 1):
            checks.append((f"binary trees with {leaves} leaves",
                           enumeration.catalan(leaves - 1),
                           len(oracle.all_binary_trees(leaves))))
    elif args.which == "profile-count":
        if args.profile is None:
            print("error: profile-count requires --profile", file=sys.stderr)
            return 2
        p = profiles.Profile(args.profile)
        # The oracle's leaf bound is checked first: past it, no level walk.
        trees = len(oracle.trees_with_profile(p))
        checks.append((f"trees with profile {p}", profiles.count_trees(p) if profiles.is_valid(p) else 0, trees))
    else:
        # One pass over the states, counting as they stream by: active
        # states by (height, (n, anchors)), and every state by its column n.
        active, by_column = Counter(), Counter()
        for _, st in oracle.all_growth_histories(args.steps):
            if st.m:
                active[st.h, (st.n, st.m)] += 1
            by_column[st.n] += 1
        # Cell counts as sorted ((n, anchors), count) pairs, which json
        # writes as [[n, anchors], count].
        for h in range(1, args.steps + 1):
            expected = sorted(((n, 2 * k), v)
                              for (n, k), v in enumeration.t_height_table(h).entries.items())
            checks.append((f"active states at step {h} by (n, anchors)",
                           expected,
                           sorted((cell, v) for (g, cell), v in active.items() if g == h)))
        # Columns whose histories all finish within the step budget (shapes
        # with n internal nodes die by step n+1): every shape appears once
        # active and once fully dead.
        for n in range(1, args.steps):
            checks.append((f"column {n} states vs 2*catalan",
                           2 * enumeration.catalan(n),
                           by_column[n]))
    for checked, expected, actual in checks:
        print(json.dumps({"checked": checked, "expected": expected, "actual": actual,
                          "pass": expected == actual}, separators=(",", ":")))
    return 0 if all(expected == actual for _, expected, actual in checks) else 1


def cmd_bench_bits(args: argparse.Namespace) -> int:
    import math

    from . import profiles, sampler

    p = profiles.Profile(args.profile)
    seed = args.seed if args.seed is not None else _fresh_seed()
    # N comes from one validating walk of the profile's levels, before the
    # source, so a profile error comes before a seed error. Only the ranks
    # are drawn: a rank names its tree one-to-one, and the split and the
    # build that would turn it into the tree draw no bit, so the profile is
    # not set up for them.
    n = profiles.count_trees(p)
    src = sampler.BitSource(seed)
    for _ in sampler.ranks(n, src, args.samples):
        pass
    mean_bits = src.bits_consumed / args.samples
    bound = math.log2(n)
    # The profile's text is digits and commas, and a finite float's repr is
    # what JSON writes for it.
    print(f'{{"profile":"{p}","samples":{args.samples},"seed":{seed},'
          f'"mean_bits":{round(mean_bits, 6)!r},"entropy_bound":{round(bound, 6)!r},'
          f'"overhead_bits":{round(mean_bits - bound, 6)!r}}}')
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="growingtrees",
        description="Exact enumeration, boundary sequences, and uniform sampling "
                    "of growing binary trees.",
        # @path stands for the file's lines, one argument each: a profile past
        # Linux's 131,072 bytes per argument comes in as --profile @path.
        fromfile_prefix_chars="@",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser(
        "table",
        help="counts of active trees by internal nodes and anchor count",
        description="Print the table of counts of active growing trees with n "
                    "internal nodes and 2k anchors, for n up to --nmax. Columns "
                    "are n, row labels are the anchor counts 2k.",
    )
    p_table.add_argument("--nmax", type=_positive_arg, required=True)
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.set_defaults(handler=cmd_table)

    p_ht = sub.add_parser(
        "height-table",
        help="counts of active trees of one fixed height",
        description="Print the table of counts of active trees of height exactly "
                    "--h, by internal nodes and anchor count.",
    )
    p_ht.add_argument("--h", type=_positive_arg, required=True)
    p_ht.add_argument("--format", choices=("csv", "json"), default="csv")
    p_ht.set_defaults(handler=cmd_table)

    p_seq = sub.add_parser(
        "seq",
        help="boundary sequences",
        description="Print one of the boundary sequences: a (largest anchor-pair "
                    "count per column), b (its repetition counts), ahat (the "
                    "height-table companion), bhat (the ruler function).",
    )
    p_seq.add_argument("which", choices=("a", "b", "ahat", "bhat"))
    p_seq.add_argument("--nmax", type=_positive_arg, required=True)
    p_seq.add_argument("--format", choices=("plain", "json"), default="plain")
    p_seq.set_defaults(handler=cmd_seq)

    p_dom = sub.add_parser(
        "domain",
        help="nonzero-cell regions and boundaries at a fixed height",
        description="Print the cell region of the fixed-height table: gamma "
                    "(right boundary diagonal), lambda (upper boundary), cells "
                    "(the whole region), or area (its closed-form cell count).",
    )
    p_dom.add_argument("which", choices=("gamma", "lambda", "cells", "area"))
    p_dom.add_argument("--h", type=_positive_arg, required=True)
    p_dom.add_argument("--format", choices=("plain", "json"), default="plain")
    p_dom.set_defaults(handler=cmd_domain)

    p_prof = sub.add_parser(
        "profile",
        help="leaf-profile tools",
        description="Validate a leaf profile (Kraft sum), count the binary trees "
                    "realizing it, derive its internal-node profile, or truncate "
                    "it at a level.",
    )
    p_prof.add_argument("which", choices=("validate", "count", "internal", "truncate"))
    p_prof.add_argument("--profile", type=_levels_arg, required=True,
                        metavar="L0,L1,...", help="leaf counts per level")
    p_prof.add_argument("--level", type=int, default=None,
                        help="truncation level (truncate only)")
    p_prof.set_defaults(handler=cmd_profile)

    p_sample = sub.add_parser(
        "sample",
        help="uniform random trees with a prescribed profile",
        description="Sample trees uniformly among all binary trees with the "
                    "given leaf profile. JSON output is one record per line "
                    "with the tree and its random-bit cost; DOT output prefixes "
                    "each graph with a stats comment.",
    )
    p_sample.add_argument("--profile", type=_levels_arg, required=True,
                          metavar="L0,L1,...", help="leaf counts per level")
    p_sample.add_argument("--count", type=_positive_arg, default=1)
    p_sample.add_argument("--seed", type=int, default=None)
    p_sample.add_argument("--format", choices=("json", "dot"), default="json")
    p_sample.set_defaults(handler=cmd_sample)

    p_oracle = sub.add_parser(
        "oracle",
        help="brute-force cross-checks",
        description="Run an exhaustive-enumeration cross-check and print one "
                    "JSON report line per comparison: catalan (tree counts), "
                    "profile-count (per-profile counts), histories (growth-state "
                    "buckets against the height tables).",
    )
    p_oracle.add_argument("which", choices=("catalan", "profile-count", "histories"))
    p_oracle.add_argument("--nmax", type=_positive_arg, default=8,
                          help="leaf bound for catalan (default 8)")
    p_oracle.add_argument("--profile", type=_levels_arg, default=None,
                          metavar="L0,L1,...")
    p_oracle.add_argument("--steps", type=_positive_arg, default=3,
                          help="growth steps for histories (default 3)")
    p_oracle.set_defaults(handler=cmd_oracle)

    p_bench = sub.add_parser(
        "bench-bits",
        help="random-bit cost of sampling against the entropy floor",
        description="Draw the ranks of --samples uniform trees of a profile and "
                    "report mean bits consumed per tree next to the "
                    "information-theoretic lower bound. A rank names its tree "
                    "one-to-one, so its bits are the tree's.",
    )
    p_bench.add_argument("--profile", type=_levels_arg, required=True,
                         metavar="L0,L1,...", help="leaf counts per level")
    p_bench.add_argument("--samples", type=_positive_arg, required=True)
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.set_defaults(handler=cmd_bench_bits)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `run` uses. Building one costs about 2 ms (each
    add_argument formats a usage line), and parse_args leaves the parser as
    it was, so one serves every call in the process."""
    return build_parser()


def run(argv: list[str] | None = None) -> int:
    """Parse and execute; returns the process exit code without exiting.

    The parser is built on the first call and reused by every later one, so
    an in-process caller pays only for its command; the output and the exit
    code are those of a freshly built parser.
    """
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # Unwinding has freed what the command held, so the line can be
        # written. Records already written stay written.
        print("error: out of memory", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe shows here, inside the try
    except BrokenPipeError:
        # The reader left early (`| head`): point stdout at devnull so that
        # Python's own flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: output pipe closed", file=sys.stderr)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
