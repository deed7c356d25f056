"""Command-line behavior: formats, exit codes, determinism, seed echo."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import growingtrees
import reference_data as ref
from growingtrees.cli import run
from growingtrees.tree_core import from_json, profile, to_json
from growingtrees.profiles import Profile
from growingtrees.sampler import BitSource, sample_with_stats


def _render_grid(entries, n_lo, n_hi):
    # Independent rendering of the documented CSV layout: header row
    # "n,<columns>", then one row per anchor count 2k with blanks for zeros.
    k_top = max(k for _, k in entries)
    lines = ["n," + ",".join(str(n) for n in range(n_lo, n_hi + 1))]
    for k in range(1, k_top + 1):
        cells = [str(entries[(n, k)]) if (n, k) in entries else ""
                 for n in range(n_lo, n_hi + 1)]
        lines.append(f"{2 * k}," + ",".join(cells))
    return "\n".join(lines) + "\n"


def test_table_csv_small(capsys):
    assert run(["table", "--nmax", "4"]) == 0
    assert capsys.readouterr().out == "n,1,2,3,4\n2,1,2,4,12\n4,,,1,2\n"


def test_table_csv_reference_grid(capsys):
    assert run(["table", "--nmax", "14"]) == 0
    assert capsys.readouterr().out == _render_grid(ref.ACTIVE_COUNTS_14, 1, 14)


def test_table_json(capsys):
    assert run(["table", "--nmax", "4", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_max"] == 4
    assert doc["cells"][0] == [1, 2, 1]
    assert [4, 4, 2] in doc["cells"]


def test_table_rejects_bad_nmax(capsys):
    assert run(["table", "--nmax", "0"]) == 2
    assert run(["table", "--nmax", "x"]) == 2


def test_table_cli_bound(capsys):
    assert run(["table", "--nmax", "301"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: nmax out of range 1..300")
    assert "library" in err


def test_height_table_csv(capsys):
    assert run(["height-table", "--h", "2"]) == 0
    assert capsys.readouterr().out == "n,2,3\n2,2,\n4,,1\n"


def test_height_table_json_matches_reference(capsys):
    assert run(["height-table", "--h", "4", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["h"] == 4
    cells = {(n, two_k // 2): v for n, two_k, v in doc["cells"]}
    assert cells == ref.STEP4_COUNTS


def test_large_table_bytes_are_pinned(capsys):
    # SHA-256 of stdout, recorded with the per-cell binomial transfer.
    pinned = {
        ("height-table", "--h", "9"): "fb16154411fcb6fa2e0f30e686cb884d51476e562a4d34ae401ea9ce534adb9f",
        ("table", "--nmax", "300", "--format", "json"):
            "6c12a4f26655996d386fd2fb56922527eb8fdd6a73af51fc1481582653f85cb0",
    }
    for argv, digest in pinned.items():
        assert run(list(argv)) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, argv


def test_height_table_cli_bound(capsys):
    assert run(["height-table", "--h", "11"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: h out of range 1..10")
    assert "library" in err


def test_seq_outputs(capsys):
    assert run(["seq", "a", "--nmax", "27"]) == 0
    assert capsys.readouterr().out.strip() == ",".join(str(v) for v in ref.A_PREFIX[1:])
    assert run(["seq", "b", "--nmax", "16"]) == 0
    assert capsys.readouterr().out.strip() == ",".join(str(v) for v in ref.B_PREFIX[1:])
    assert run(["seq", "bhat", "--nmax", "8"]) == 0
    assert capsys.readouterr().out.strip() == ",".join(str(v) for v in ref.RULER_PREFIX[1:])
    assert run(["seq", "ahat", "--nmax", "12", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == list(ref.A_HAT_PREFIX[1:])


def test_seq_rejects_unknown_name(capsys):
    assert run(["seq", "c", "--nmax", "5"]) == 2


def test_seq_cli_bound(capsys):
    for which in ("a", "b", "ahat", "bhat"):
        assert run(["seq", which, "--nmax", "100001"]) == 1
        assert capsys.readouterr().err.startswith("error: nmax out of range 1..100000")


def test_domain_outputs(capsys):
    assert run(["domain", "gamma", "--h", "3"]) == 0
    assert capsys.readouterr().out == "4,1\n5,2\n6,3\n7,4\n"
    assert run(["domain", "lambda", "--h", "3", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == [list(c) for c in ref.LAMBDA_3]
    assert run(["domain", "cells", "--h", "3"]) == 0
    assert capsys.readouterr().out == "3,1\n4,1\n4,2\n5,2\n6,3\n7,4\n"
    assert run(["domain", "area", "--h", "5"]) == 0
    assert capsys.readouterr().out == "104\n"


def test_domain_cli_bounds(capsys):
    assert run(["domain", "cells", "--h", "11"]) == 1
    assert "out of range" in capsys.readouterr().err
    assert run(["domain", "lambda", "--h", "17"]) == 1
    assert "out of range" in capsys.readouterr().err
    assert run(["domain", "gamma", "--h", "16"]) == 0
    capsys.readouterr()
    assert run(["domain", "area", "--h", "100001"]) == 1
    assert capsys.readouterr().err.startswith("error: h out of range 1..100000")


def test_domain_area_past_the_str_digit_limit(capsys):
    # |S_20000| has 12,041 digits, past the default str() limit.
    assert run(["domain", "area", "--h", "20000"]) == 0
    out = capsys.readouterr().out
    assert len(out) == 12042
    assert Decimal(out) == (1 << 19998) * ((1 << 19999) - 19998)


def test_profile_commands(capsys):
    assert run(["profile", "validate", "--profile", "0,1,2"]) == 0
    assert capsys.readouterr().out == "valid, kraft=1\n"
    assert run(["profile", "validate", "--profile", "0,1,1"]) == 0
    assert capsys.readouterr().out == "invalid, kraft=3/4\n"
    assert run(["profile", "count", "--profile", "0,0,2,4"]) == 0
    assert capsys.readouterr().out == "6\n"
    assert run(["profile", "internal", "--profile", "0,0,2,4"]) == 0
    assert capsys.readouterr().out == "1,2,2\n"
    assert run(["profile", "truncate", "--profile", "0,0,2,4", "--level", "1"]) == 0
    assert capsys.readouterr().out == "0,0,4\n"


def test_profile_error_paths(capsys):
    assert run(["profile", "truncate", "--profile", "0,0,2,4"]) == 2
    assert capsys.readouterr().err == "error: truncate requires --level\n"
    assert run(["profile", "count", "--profile", "0,1,1"]) == 1
    assert "kraft sum 3/4" in capsys.readouterr().err
    assert run(["profile", "count", "--profile", "1,2"]) == 1
    assert "l_0 = 0" in capsys.readouterr().err
    assert run(["profile", "count", "--profile", "0,x"]) == 2


def test_profile_numbers_past_the_str_digit_limit(capsys):
    # binom(16384, 8192) has 4,930 digits, past the default str() limit.
    assert run(["profile", "count", "--profile", ",".join(["0"] * 14 + ["8192", "16384"])]) == 0
    out = capsys.readouterr().out
    assert len(out) == 4931
    assert Decimal(out) == math.comb(16384, 8192)
    # The invalid 15,001-level profile 0,1,...,1 has a Kraft sum of
    # (2^15000 - 1) / 2^15000, over 4,500 digits on each side. Decimal reads
    # texts of any length, where int() stops at the same limit.
    deep = ",".join(["0"] + ["1"] * 15000)
    assert run(["profile", "validate", "--profile", deep]) == 0
    out = capsys.readouterr().out
    assert out.startswith("invalid, kraft=")
    num, den = out[len("invalid, kraft="):].split("/")
    assert (Decimal(num), Decimal(den)) == ((1 << 15000) - 1, 1 << 15000)
    assert run(["profile", "count", "--profile", deep]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid profile, kraft sum ") and err.endswith(" != 1\n")
    assert run(["sample", "--profile", deep]) == 1
    assert capsys.readouterr().err == err


def test_sample_json_records(capsys):
    assert run(["sample", "--profile", "0,0,2,4", "--count", "3", "--seed", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    for index, line in enumerate(lines):
        record = json.loads(line)
        assert record["seed"] == 7
        assert record["profile"] == "0,0,2,4"
        assert record["index"] == index
        assert record["bits_consumed"] >= 0
        assert record["node_count"] == 11
        tree = from_json(json.dumps(record["tree"]))
        assert profile(tree) == Profile((0, 0, 2, 4))


def test_sample_is_deterministic_per_seed(capsys):
    assert run(["sample", "--profile", "0,1,0,4", "--count", "5", "--seed", "99"]) == 0
    first = capsys.readouterr().out
    assert run(["sample", "--profile", "0,1,0,4", "--count", "5", "--seed", "99"]) == 0
    assert capsys.readouterr().out == first


def test_sample_deep_profile(capsys):
    # 1,501 levels: deeper than the json module can nest, so the record
    # carries the tree text exactly as to_json writes it.
    p = Profile((0,) + (1,) * 1499 + (2,))
    assert run(["sample", "--profile", str(p), "--seed", "5"]) == 0
    tree, stats = sample_with_stats(p, BitSource(5))
    assert profile(tree) == p
    assert capsys.readouterr().out == (
        f'{{"seed":5,"profile":"{p}","index":0,"bits_consumed":{stats.bits_consumed},'
        f'"node_count":{stats.node_count},"tree":{to_json(tree)}}}\n'
    )


def test_sample_generates_seed_when_absent(capsys):
    assert run(["sample", "--profile", "0,2"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert isinstance(record["seed"], int)


def test_sample_dot_format(capsys):
    assert run(["sample", "--profile", "0,1,2", "--seed", "3", "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("// seed=3 index=0 bits_consumed=")
    assert "digraph tree {" in out
    assert out.count("->") == 4


def test_sample_invalid_profile(capsys):
    assert run(["sample", "--profile", "0,1,1"]) == 1
    assert "invalid profile" in capsys.readouterr().err


def test_negative_seeds_are_rejected(capsys):
    # random.Random seeds by abs(seed), so -5 would print the trees of 5.
    for argv in (["sample", "--seed", "-5"], ["bench-bits", "--samples", "3", "--seed", "-1"]):
        assert run(argv + ["--profile", "0,0,2,4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: seed must be nonnegative")


def test_oracle_catalan_reports(capsys):
    assert run(["oracle", "catalan", "--nmax", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    for line in lines:
        doc = json.loads(line)
        assert doc["pass"] is True
    assert json.loads(lines[4])["expected"] == ref.CATALAN[4]


def test_oracle_profile_count(capsys):
    assert run(["oracle", "profile-count", "--profile", "0,1,2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True and doc["expected"] == 2
    assert run(["oracle", "profile-count"]) == 2
    assert "requires --profile" in capsys.readouterr().err


def test_oracle_histories(capsys):
    assert run(["oracle", "histories", "--steps", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    docs = [json.loads(line) for line in lines]
    assert len(docs) == 5
    assert all(doc["pass"] for doc in docs)
    assert docs[3]["expected"] == 2 * ref.CATALAN[1]


def test_bench_bits(capsys):
    assert run(["bench-bits", "--profile", "0,0,2,4", "--samples", "50", "--seed", "13"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["samples"] == 50 and doc["seed"] == 13
    assert doc["mean_bits"] >= 0
    assert doc["entropy_bound"] == pytest.approx(2.584963, abs=1e-6)
    assert doc["overhead_bits"] == pytest.approx(doc["mean_bits"] - doc["entropy_bound"], abs=5e-6)


def test_bench_bits_deep_profile_stays_near_the_floor(capsys):
    # One draw per tree: the overhead does not grow with the 200 levels.
    levels = ",".join(["0", "0"] + ["2"] * 198 + ["4"])
    assert run(["bench-bits", "--profile", levels, "--samples", "1000", "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["samples"] == 1000
    assert 0 <= doc["overhead_bits"] < 2


def test_closed_output_pipe_is_one_error_line():
    # The reader takes one line and leaves, as `| head -n 1` does.
    env = dict(os.environ, PYTHONPATH=str(Path(growingtrees.__file__).parents[1]))
    for argv in (["sample", "--profile", "0,0,2,4", "--count", "20000", "--seed", "1"],
                 ["sample", "--profile", "0,0,2,4", "--count", "20000", "--seed", "1", "--format", "dot"]):
        proc = subprocess.Popen([sys.executable, "-m", "growingtrees.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err
        assert err == "error: output pipe closed\n"


def test_usage_errors_and_help(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()
    assert run([]) == 2
    capsys.readouterr()
    assert run(["no-such-command"]) == 2
    capsys.readouterr()
    assert run(["sample"]) == 2
    capsys.readouterr()


def _random_split_profile(seed, leaves):
    """Leaf depths of a random-split tree, as CLI profile text."""
    rng = random.Random(seed)
    counts = {}
    stack = [(leaves, 0)]
    while stack:
        n, depth = stack.pop()
        if n == 1:
            counts[depth] = counts.get(depth, 0) + 1
        else:
            left = rng.randint(1, n - 1)
            stack += [(left, depth + 1), (n - left, depth + 1)]
    return ",".join(str(counts.get(d, 0)) for d in range(max(counts) + 1))


def _narrow_profile(seed, height):
    """A valid profile with 1-2 internal nodes per level, as CLI profile text."""
    rng = random.Random(seed)
    levels, internal = [0], 1
    for _ in range(1, height):
        leaves = rng.choice([l for l in range(4) if 1 <= 2 * internal - l <= 2])
        levels.append(leaves)
        internal = 2 * internal - leaves
    levels.append(2 * internal)
    return ",".join(map(str, levels))


# SHA-256 of the stdout of each command with --seed 11: seeded output bytes
# stay fixed within a version. DOT numbers nodes in _build's creation order,
# so the DOT digests pin that order as well as the trees and bit counts.
_PINNED_OUTPUTS = {
    "small": {
        "sample": "dbf614e91e6831bdb920ce42ae7463337c26619f9594a1a30fc13bc953b219c1",
        "dot": "4edbea30a6346117131d22df50e3b756624105e3843fc20db2449ac1fc98372a",
        "bench-bits": "bc15cb863d30c6bd3ee763b411b442a3de8feb0c59ec6d2d0e20517f25ac545b",
    },
    "split": {
        "sample": "db5473d5e124bef8283a72513ff2df35e65a1947e41bb6db009e719b88bc86ea",
        "dot": "a5c32b68f024846adc651471db15580dff21ae0bd9286e291ab34eff2fd25141",
        "bench-bits": "e4465bf3084f059fabd7b49640dd0a19f7a349a75f04d09283bf4b3cc270d664",
    },
    "narrow": {
        "sample": "cd4ace9f95f0019a3e1e2572fcc9468fec1ad4108108444277264bc66a0ba86a",
        "dot": "5f0ea501ef8c6b63df087e69c29e7ac274b77799d37f24f5cc3b225532b110b1",
        "bench-bits": "5daabc8c775c00bf80ae7d2995c5c8554614fe5e8975a3d7bdf487d8317e9607",
    },
}


def test_seeded_output_bytes_are_pinned(capsys):
    texts = {
        "small": "0,0,2,4",
        "split": _random_split_profile(3, 300),
        "narrow": _narrow_profile(5, 500),
    }
    shapes = {name: Profile(tuple(map(int, text.split(",")))) for name, text in texts.items()}
    assert (shapes["split"].total_leaves, shapes["split"].height) == (300, 21)
    assert (shapes["narrow"].total_leaves, shapes["narrow"].height) == (734, 500)
    commands = {
        "sample": ["sample", "--count", "3"],
        "dot": ["sample", "--count", "3", "--format", "dot"],
        "bench-bits": ["bench-bits", "--samples", "20"],
    }
    for name, text in texts.items():
        for command, argv in commands.items():
            assert run(argv + ["--seed", "11", "--profile", text]) == 0
            digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
            assert digest == _PINNED_OUTPUTS[name][command], (name, command)
