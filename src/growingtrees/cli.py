"""Command-line front end: tables, sequences, domains, profiles, sampling.

Output conventions: machine-readable results on stdout, diagnostics on
stderr. Exit codes: 0 success, 1 domain errors (invalid profile, out-of-range
sizes), 2 usage errors. Commands that draw randomness take --seed and echo
the seed in every record, so a rerun with the same arguments and seed is
byte-identical. CSV tables use the grid layout: header row "n,<n values>",
then one row per anchor count 2k with blank cells for zeros.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

# Each command imports the submodules it uses, so a fresh process loads only
# its own command's code, and calls through the module (enumeration.t_table),
# so a wrapper set on the module attribute sees the call. json, math and
# random load where they are used.

# Output-size guards for the unbounded-growth commands. The library itself
# goes further; these only keep terminal use sane.
MAX_CLI_TABLE_NMAX = 300
MAX_CLI_HEIGHT_TABLE = 10
MAX_CLI_SEQ_NMAX = 100_000
MAX_CLI_CELLS = 10
MAX_CLI_BOUNDARY = 16
MAX_CLI_AREA_H = 100_000


def _levels_arg(text: str) -> tuple[int, ...]:
    """Comma-separated integers; structural profile checks happen later."""
    try:
        return tuple(map(int, text.split(",")))  # int() skips surrounding spaces
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


def _fresh_seed() -> int:
    """63 bits from the operating system's generator: secrets.randbits,
    without the hmac and hashlib imports that loading secrets costs."""
    import random

    return random.SystemRandom().getrandbits(63)


def _emit_cells(cells: "sequences.CellSet", fmt: str) -> None:
    pairs = sorted(cells)
    if fmt == "json":
        import json

        print(json.dumps([[n, k] for n, k in pairs], separators=(",", ":")))
    else:
        for n, k in pairs:
            print(f"{n},{k}")


def _emit_table(table: "enumeration.CountTable", header: tuple[str, int], fmt: str) -> None:
    """Print a count table as CSV, or as JSON with the header pair and [n, 2k, value] cells."""
    if fmt == "json":
        cells = ",".join([f"[{n},{2 * k},{v}]" for n in sorted(table.columns)
                          for k, v in enumerate(table.columns[n], 1) if v])
        print(f'{{"{header[0]}":{header[1]},"cells":[{cells}]}}')
    else:
        print(table.to_csv(), end="")


def cmd_table(args: argparse.Namespace) -> int:
    from . import enumeration

    if args.nmax > MAX_CLI_TABLE_NMAX:
        raise ValueError(
            f"nmax out of range 1..{MAX_CLI_TABLE_NMAX} for the command line; "
            "use the library for larger tables"
        )
    _emit_table(enumeration.t_table(args.nmax), ("n_max", args.nmax), args.format)
    return 0


def cmd_height_table(args: argparse.Namespace) -> int:
    from . import enumeration

    if not 1 <= args.h <= MAX_CLI_HEIGHT_TABLE:
        raise ValueError(
            f"h out of range 1..{MAX_CLI_HEIGHT_TABLE} for the command line; "
            "use the library for larger heights"
        )
    _emit_table(enumeration.t_height_table(args.h), ("h", args.h), args.format)
    return 0


def cmd_seq(args: argparse.Namespace) -> int:
    from . import sequences

    n_max = args.nmax
    if n_max > MAX_CLI_SEQ_NMAX:
        raise ValueError(f"nmax out of range 1..{MAX_CLI_SEQ_NMAX} for the command line")
    if args.which == "a":
        values = sequences.a_seq(n_max)[1:]
    elif args.which == "b":
        values = sequences.b_seq(n_max)[1:]
    elif args.which == "ahat":
        values = sequences.a_hat_seq(n_max)[1:]
    else:
        values = [sequences.ruler(n) for n in range(1, n_max + 1)]
    if args.format == "json":
        import json

        print(json.dumps(values, separators=(",", ":")))
    else:
        print(",".join(str(v) for v in values))
    return 0


def cmd_domain(args: argparse.Namespace) -> int:
    from . import sequences

    h = args.h
    if args.which == "area":
        if h > MAX_CLI_AREA_H:
            raise ValueError(f"h out of range 1..{MAX_CLI_AREA_H} for the command line")
        from . import profiles

        print(profiles.exact_text(sequences.s_area_formula(h)))
        return 0
    if args.which == "cells":
        if h > MAX_CLI_CELLS:
            raise ValueError(f"h out of range 1..{MAX_CLI_CELLS} for the command line")
        _emit_cells(sequences.s_domain(h), args.format)
        return 0
    if h > MAX_CLI_BOUNDARY:
        raise ValueError(f"h out of range 1..{MAX_CLI_BOUNDARY} for the command line")
    cells = sequences.gamma(h) if args.which == "gamma" else sequences.lambda_upper(h)
    _emit_cells(cells, args.format)
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
        print(",".join(map(str, profiles.internal_profile(p))))
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
    for index, tree in enumerate(sampler.samples(p, src, args.count)):
        # What this tree's next() drew; it may use bits an earlier tree drew.
        bits, drawn = src.bits_consumed - drawn, src.bits_consumed
        if args.format == "dot":
            print(f"// seed={seed} index={index} "
                  f"bits_consumed={bits} node_count={node_count}")
            print(tree_core.to_dot(tree), end="")
        else:
            print(f'{{"seed":{seed},"profile":"{p}","index":{index},'
                  f'"bits_consumed":{bits},"node_count":{node_count},'
                  f'"tree":{tree_core.to_json(tree)}}}')
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    import json

    from . import enumeration, oracle, profiles

    # (checked, expected, actual) triples, all computed before any is printed,
    # so a size out of range prints nothing.
    checks: list[tuple[str, object, object]] = []
    if args.which == "catalan":
        n_max = args.nmax if args.nmax is not None else 8
        for leaves in range(1, n_max + 1):
            checks.append((f"binary trees with {leaves} leaves",
                           enumeration.catalan(leaves - 1),
                           len(oracle.all_binary_trees(leaves))))
    elif args.which == "profile-count":
        if args.profile is None:
            print("error: profile-count requires --profile", file=sys.stderr)
            return 2
        p = profiles.Profile(args.profile)
        formula = profiles.count_trees(p) if profiles.is_valid(p) else 0
        checks.append((f"trees with profile {p}", formula, len(oracle.trees_with_profile(p))))
    else:
        steps = args.steps if args.steps is not None else 3
        by_height: dict[int, dict[tuple[int, int], int]] = {}
        by_column_total: dict[int, int] = {}
        for _, st in oracle.all_growth_histories(steps):
            if st.m:
                bucket = by_height.setdefault(st.h, {})
                cell = (st.n, st.m)
                bucket[cell] = bucket.get(cell, 0) + 1
            by_column_total[st.n] = by_column_total.get(st.n, 0) + 1
        # Cell counts as sorted ((n, anchors), count) pairs, which json
        # writes as [[n, anchors], count].
        for h in range(1, steps + 1):
            expected = sorted(((n, 2 * k), v)
                              for (n, k), v in enumeration.t_height_table(h).entries.items())
            checks.append((f"active states at step {h} by (n, anchors)",
                           expected,
                           sorted(by_height.get(h, {}).items())))
        # Columns whose histories all finish within the step budget (shapes
        # with n internal nodes die by step n+1): every shape appears once
        # active and once fully dead.
        for n in range(1, steps):
            checks.append((f"column {n} states vs 2*catalan",
                           2 * enumeration.catalan(n),
                           by_column_total.get(n, 0)))
    for checked, expected, actual in checks:
        print(json.dumps({"checked": checked, "expected": expected, "actual": actual,
                          "pass": expected == actual}, separators=(",", ":")))
    return 0 if all(expected == actual for _, expected, actual in checks) else 1


def cmd_bench_bits(args: argparse.Namespace) -> int:
    import json
    import math

    from . import profiles, sampler

    p = profiles.Profile(args.profile)
    seed = args.seed if args.seed is not None else _fresh_seed()
    # One setup of the profile serves the draws, the rank splits and,
    # through its count, the entropy bound.
    setup = sampler.Setup(p)
    src = sampler.BitSource(seed)
    for _ in sampler.samples(setup, src, args.samples):
        pass
    mean_bits = src.bits_consumed / args.samples
    bound = math.log2(setup.count)
    print(json.dumps({
        "profile": str(p),
        "samples": args.samples,
        "seed": seed,
        "mean_bits": round(mean_bits, 6),
        "entropy_bound": round(bound, 6),
        "overhead_bits": round(mean_bits - bound, 6),
    }, separators=(",", ":")))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="growingtrees",
        description="Exact enumeration, boundary sequences, and uniform sampling "
                    "of growing binary trees.",
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
    p_ht.set_defaults(handler=cmd_height_table)

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
    p_oracle.add_argument("--nmax", type=_positive_arg, default=None,
                          help="leaf bound for catalan (default 8)")
    p_oracle.add_argument("--profile", type=_levels_arg, default=None,
                          metavar="L0,L1,...")
    p_oracle.add_argument("--steps", type=_positive_arg, default=None,
                          help="growth steps for histories (default 3)")
    p_oracle.set_defaults(handler=cmd_oracle)

    p_bench = sub.add_parser(
        "bench-bits",
        help="random-bit cost of sampling against the entropy floor",
        description="Sample a profile repeatedly and report mean bits consumed "
                    "per tree next to the information-theoretic lower bound.",
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
