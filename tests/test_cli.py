"""Command-line behavior: formats, exit codes, determinism, seed echo."""

import argparse
import hashlib
import itertools
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
from random_profiles import narrow_profile, random_split_profile
from growingtrees import cli, oracle, profiles, sampler, sequences
from growingtrees.cli import run
from growingtrees.enumeration import t_height_table
from growingtrees.tree_core import from_json, profile, to_json
from growingtrees.profiles import Profile
from growingtrees.sampler import BitSource, samples


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


@pytest.mark.parametrize("n_max", [1, 2, 50])
def test_seq_bytes_in_both_formats(n_max, capsys):
    # Plain is the terms joined by commas; json is what json.dumps writes
    # for the same list of ints.
    for which, values in (("a", sequences.a_seq(n_max)[1:]), ("b", sequences.b_seq(n_max)[1:]),
                          ("ahat", sequences.a_hat_seq(n_max)[1:]),
                          ("bhat", [sequences.ruler(n) for n in range(1, n_max + 1)])):
        assert run(["seq", which, "--nmax", str(n_max)]) == 0
        assert capsys.readouterr() == (",".join(map(str, values)) + "\n", "")
        assert run(["seq", which, "--nmax", str(n_max), "--format", "json"]) == 0
        assert capsys.readouterr() == (json.dumps(values, separators=(",", ":")) + "\n", "")


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


@pytest.mark.parametrize("argv, line", [
    (["table", "--nmax", "301"],
     "nmax out of range 1..300 for the command line; use the library for larger tables"),
    (["height-table", "--h", "11"],
     "h out of range 1..10 for the command line; use the library for larger heights"),
    (["seq", "a", "--nmax", "100001"], "nmax out of range 1..100000 for the command line"),
    (["domain", "cells", "--h", "11"], "h out of range 1..10 for the command line"),
    (["domain", "gamma", "--h", "17"], "h out of range 1..16 for the command line"),
    (["domain", "lambda", "--h", "17"], "h out of range 1..16 for the command line"),
    (["domain", "area", "--h", "100001"], "h out of range 1..100000 for the command line"),
], ids=" ".join)
def test_each_size_guard_writes_its_whole_line(argv, line, capsys):
    assert run(argv) == 1
    assert capsys.readouterr() == ("", f"error: {line}\n")


def test_oracle_sizes_default_to_their_help_text(capsys):
    # --help says "default 8" for catalan's --nmax and "default 3" for
    # histories' --steps; the parser holds those defaults.
    assert run(["oracle", "catalan"]) == 0
    docs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [doc["checked"] for doc in docs] == [f"binary trees with {n} leaves" for n in range(1, 9)]
    assert all(doc["pass"] for doc in docs)
    assert run(["oracle", "histories"]) == 0
    docs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [doc["checked"] for doc in docs] == [
        *(f"active states at step {h} by (n, anchors)" for h in (1, 2, 3)),
        *(f"column {n} states vs 2*catalan" for n in (1, 2))]
    assert all(doc["pass"] for doc in docs)


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
    capsys.readouterr()
    assert run(["profile", "truncate", "--profile", "1", "--level", "0"]) == 1
    assert capsys.readouterr().err == "error: a height-0 profile has no level to truncate at\n"


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


def _int_list(text):
    """The reference reading of a profile: int() on each comma-separated
    entry, with the digit limit lifted; the error line where it fails."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return tuple(map(int, text.split(",")))
    except ValueError:
        return f"not a comma-separated integer list: {text!r}"
    finally:
        sys.set_int_max_str_digits(limit)


def _levels_arg_or_error(text):
    try:
        return cli._levels_arg(text)
    except argparse.ArgumentTypeError as exc:
        return str(exc)


def test_levels_arg_reads_as_int_does():
    # Every entry reads as int() reads it, at any length: 4,301 digits is
    # past the default limit and 641 past the lowest a program can set.
    huge = str(Decimal(2**14300))
    corpus = ["0,0,2,4", " 0, 1 ,\t2\n", "+1", "0,+1,2", "007", "0,01,02", "1_0", "1__0",
              "_1", "1_", "١٢", "0,٣_٣", "", ",", "0,,1", "-1", "0,-1,3",
              "1.0", "x", "0,x", "1e3", "0x1", "+ 1", "+-1", "1 2", " 3 ", "3\x00",
              "\x1c3", "3\x1c", huge, f"0,{huge}", f" +{huge} ", f"-{huge}", f"0{huge}",
              f"{huge}x", f"x{huge}", f"{huge}_", f"{huge[:99]}_{huge[99:]}", f"{huge} 1",
              f"{huge}.0", "9" * 4301, "9" * 641, "١" * 5000]
    limit = sys.get_int_max_str_digits()
    for max_digits in (limit, 640):
        sys.set_int_max_str_digits(max_digits)
        try:
            for text in corpus:
                assert _levels_arg_or_error(text) == _int_list(text), text[:40]
        finally:
            sys.set_int_max_str_digits(limit)


def test_levels_arg_converts_each_distinct_entry_once(monkeypatch):
    calls = []

    def counting(token):
        calls.append(token)
        return int(token)

    monkeypatch.setattr(profiles, "_read_int", counting)
    levels = narrow_profile(random.Random(2000), 1999).levels
    text = ",".join(map(str, levels))
    assert cli._levels_arg(text) == levels
    assert sorted(calls) == sorted(set(text.split(",")))
    # Nothing is kept between calls.
    calls.clear()
    assert cli._levels_arg(text) == levels
    assert len(calls) == len(set(levels))


def test_a_failed_entry_is_converted_again(monkeypatch):
    calls = []

    def counting(token):
        calls.append(token)
        return int(token)

    monkeypatch.setattr(profiles, "_read_int", counting)
    for _ in range(2):
        with pytest.raises(argparse.ArgumentTypeError, match="integer list"):
            cli._levels_arg("0,1,x")
    assert calls == ["0", "1", "x"] * 2
    memo = profiles._Memo(counting)
    for _ in range(2):
        with pytest.raises(ValueError):
            memo["x"]
    assert "x" not in memo and calls[-2:] == ["x", "x"]


def test_profile_entries_past_the_str_digit_limit(capsys):
    # 14,300 empty levels, then all 2^14300 leaves at the bottom: one tree,
    # whose last entry has 4,305 digits.
    huge = ",".join(["0"] * 14300 + [str(Decimal(2**14300))])
    assert run(["profile", "count", "--profile", huge]) == 0
    assert capsys.readouterr() == ("1\n", "")
    assert run(["bench-bits", "--profile", huge, "--samples", "2", "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["profile"], doc["mean_bits"], doc["entropy_bound"]) == (huge, 0, 0)
    # Under the lowest limit a program can set, 2^2200 (663 digits) is past
    # it, and so are the internal counts 2^2127 and up.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        levels = (0,) * 2200 + (2**2200,)
        text = ",".join(map(str, map(Decimal, levels)))
        assert run(["profile", "internal", "--profile", text]) == 0
        assert capsys.readouterr().out == ",".join(str(Decimal(2**k)) for k in range(2200)) + "\n"
        assert run(["profile", "truncate", "--profile", text, "--level", "2198"]) == 0
        assert capsys.readouterr().out == ",".join(["0"] * 2199 + [str(Decimal(2**2199))]) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)


def test_records_write_the_profile_back_canonical(capsys):
    # Spaces, a plus sign and leading zeros are read as int() reads them;
    # the records name the profile as Profile writes it.
    assert run(["bench-bits", "--profile", " 0, 01,+2", "--samples", "2", "--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["profile"] == "0,1,2"
    assert run(["sample", "--profile", " 0, 01,+2", "--seed", "3"]) == 0
    assert capsys.readouterr().out.startswith('{"seed":3,"profile":"0,1,2","index":0,')
    assert run(["profile", "truncate", "--profile", "0, 0,+02, 004", "--level", "1"]) == 0
    assert capsys.readouterr().out == "0,0,4\n"


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
    src = BitSource(5)
    tree = next(samples(p, src, 1))
    assert profile(tree) == p
    assert capsys.readouterr().out == (
        f'{{"seed":5,"profile":"{p}","index":0,"bits_consumed":{src.bits_consumed},'
        f'"node_count":{2 * p.total_leaves - 1},"tree":{to_json(tree)}}}\n'
    )


def test_a_profile_past_the_argument_limit_reads_from_a_file(tmp_path, capsys):
    # 150,000 narrow levels are 300,002 bytes of text: more than Linux
    # passes as one argument (131,072 bytes), so it comes as --profile @path,
    # which reads the same as the text given in place.
    p = Profile((0,) + (1,) * 149_999 + (2,))
    path = tmp_path / "profile.txt"
    path.write_text(f"{p}\n")
    for argv in (["sample", "--seed", "1"], ["bench-bits", "--samples", "3", "--seed", "1"],
                 ["profile", "count"]):
        assert run(argv + ["--profile", f"@{path}"]) == 0, argv
        from_file = capsys.readouterr()
        assert run(argv + ["--profile", str(p)]) == 0, argv
        assert capsys.readouterr() == from_file, argv
        if argv[0] == "profile":
            assert from_file.out == profiles.exact_text(1 << 149_999) + "\n"
        if argv[0] == "bench-bits":
            assert json.loads(from_file.out)["overhead_bits"] == 0
    assert run(["sample", "--profile", f"@{tmp_path / 'missing.txt'}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: growingtrees") and "missing.txt" in err


def test_sample_records_and_bench_bits_account_the_source_bits(capsys):
    rng = random.Random(89)
    cases = 0
    for make in (random_split_profile, narrow_profile):
        for _ in range(21):
            p = make(rng, rng.randint(1, 60))
            n = profiles.count_trees(p)
            k, seed = rng.randint(1, 25), rng.randrange(1 << 32)
            src = BitSource(seed)
            assert len(list(samples(p, src, k))) == k
            argv = ["--profile", str(p), "--seed", str(seed)]
            assert run(["sample", "--count", str(k)] + argv) == 0
            bits = [json.loads(line)["bits_consumed"] for line in capsys.readouterr().out.splitlines()]
            assert sum(bits) == src.bits_consumed
            # The first i records drew at least log2(N^i) bits; N = 1 costs none.
            assert all(1 << b >= n ** i for i, b in enumerate(itertools.accumulate(bits), 1))
            assert n > 1 or not any(bits)
            assert run(["bench-bits", "--samples", str(k)] + argv) == 0
            assert json.loads(capsys.readouterr().out)["mean_bits"] == round(sum(bits) / k, 6)
            cases += 1
    assert cases == 42


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


def test_sample_past_the_index_size_is_one_error_line(capsys):
    # A valid profile whose one tree has 2^64 - 1 nodes, more than a bytes
    # object can hold: one line, exit 1, no traceback.
    assert run(["sample", "--profile", ",".join(["0"] * 63 + [str(2**63)])]) == 1
    assert capsys.readouterr() == ("", "error: out of memory\n")


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


def test_oracle_bound_error_past_the_str_digit_limit(capsys):
    # 14,300 empty levels, then 2^14300 leaves (valid) or one more (invalid):
    # the leaf total in the error has 4,305 digits either way.
    for total in (2**14300, 2**14300 + 1):
        digits = str(Decimal(total))
        assert run(["oracle", "profile-count", "--profile", "0," * 14300 + digits]) == 1
        assert capsys.readouterr() == ("", f"error: profile has {digits} leaves, oracle bound is 12\n")


def test_oracle_bound_is_checked_before_the_formula_counts(monkeypatch, capsys):
    # A valid 13-leaf profile is past the oracle's bound, which answers
    # before count_trees walks the levels.
    def no_count(p):
        raise AssertionError("counted")

    monkeypatch.setattr(profiles, "count_trees", no_count)
    assert run(["oracle", "profile-count", "--profile", "0" + ",1" * 11 + ",2"]) == 1
    assert capsys.readouterr() == ("", "error: profile has 13 leaves, oracle bound is 12\n")


def test_oracle_histories(capsys):
    assert run(["oracle", "histories", "--steps", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    docs = [json.loads(line) for line in lines]
    assert len(docs) == 5
    assert all(doc["pass"] for doc in docs)
    assert docs[3]["expected"] == 2 * ref.CATALAN[1]


def test_oracle_histories_writes_cells_as_sorted_pairs(capsys):
    assert run(["oracle", "histories", "--steps", "3"]) == 0
    docs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    for h, doc in enumerate(docs[:3], 1):
        assert doc["pass"] is True
        cells = sorted(t_height_table(h).entries.items())
        assert doc["expected"] == [[[n, 2 * k], v] for (n, k), v in cells]


def test_oracle_mismatch_fails_with_the_formula_as_expected(monkeypatch, capsys):
    real = oracle.trees_with_profile
    monkeypatch.setattr(oracle, "trees_with_profile", lambda p: real(p)[1:])
    assert run(["oracle", "profile-count", "--profile", "0,0,2,4"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "checked": "trees with profile 0,0,2,4", "expected": 6, "actual": 5, "pass": False}


def test_bench_bits(capsys):
    assert run(["bench-bits", "--profile", "0,0,2,4", "--samples", "50", "--seed", "13"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["samples"] == 50 and doc["seed"] == 13
    # Every command draws at least log2 of the count per tree.
    assert doc["mean_bits"] >= doc["entropy_bound"] - 1e-6
    assert doc["entropy_bound"] == pytest.approx(2.584963, abs=1e-6)
    assert doc["overhead_bits"] == pytest.approx(doc["mean_bits"] - doc["entropy_bound"], abs=5e-6)


def test_bench_bits_deep_profile_stays_near_the_floor(capsys):
    # Trees drawn from one state pay the rounding to whole bits about once
    # per command, at any height.
    for height, bound in ((10, 0.05), (50, 0.05), (200, 0.05), (2000, 0.01)):
        levels = ",".join(["0", "0"] + ["2"] * (height - 2) + ["4"])
        assert run(["bench-bits", "--profile", levels, "--samples", "1000", "--seed", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["samples"] == 1000
        assert 0 <= doc["overhead_bits"] < bound, height


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


def test_running_out_of_memory_is_one_error_line():
    # A complete profile of 2^22 leaves has one tree, of 8,388,607 nodes,
    # which peaks near 580 MiB; the child may map 256 MiB. The limit acts
    # on the child alone.
    resource = pytest.importorskip("resource")
    cap = 256 << 20

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    levels = ",".join(["0"] * 22 + [str(1 << 22)])
    code = "import sys; sys.path.insert(0, sys.argv.pop(1)); from growingtrees.cli import main; main()"
    src = str(Path(growingtrees.__file__).parents[1])
    done = subprocess.run([sys.executable, "-I", "-c", code, src, "sample", "--profile", levels, "--seed", "1"],
                          capture_output=True, text=True, preexec_fn=limit_memory, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (1, "", "error: out of memory\n")


def test_usage_errors_and_help(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()
    assert run([]) == 2
    capsys.readouterr()
    assert run(["no-such-command"]) == 2
    capsys.readouterr()
    assert run(["sample"]) == 2
    capsys.readouterr()


def test_run_reuses_one_parser_with_fresh_parser_output(capsys, monkeypatch):
    # Output, errors and exit codes, after whatever ran before in the
    # process, against a run with a parser built for that call alone.
    first = ["sample", "--profile", "0,0,2,4", "--count", "2", "--seed", "11"]
    sequence = [first, ["sample"], ["sample", "--profile", "0,1", "--seed", "1"], ["--help"], first]
    reused = []
    for argv in sequence:
        reused.append((run(argv), *capsys.readouterr()))
    assert [code for code, _, _ in reused] == [0, 2, 1, 0, 0]
    assert reused[4][1] == reused[0][1]
    for argv, result in zip(sequence, reused):
        cli._parser.cache_clear()
        assert (run(argv), *capsys.readouterr()) == result, argv

    assert cli.build_parser() is not cli.build_parser()
    builds = []

    def counted():
        builds.append(1)
        return build_parser()

    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    for argv in sequence * 2:
        run(argv)
    capsys.readouterr()
    assert len(builds) == 1


# SHA-256 of the stdout of each command with --seed 11: seeded output bytes
# stay fixed within a version. DOT names each node by its index, and sampled
# trees are numbered in level order, so the DOT digests pin that numbering
# as well as the trees and bit counts.
_PINNED_OUTPUTS = {
    "small": {
        "sample": "87dcb0d8e3d4fcf9858e14f37482c16e5148123b8f341460a78e60a9636b8b47",
        "dot": "16a36651092c461ccde884998ccc5e6450c29d1bf51aa799d10bcc88362efd62",
        "bench-bits": "3488af8d9d23e879c708ca9b4b517aac5b3923802c36d64a5021c5d251613891",
        "sample-1": "e3f888a0e6043f750a5680d96680a83758a9a20315930a28f4bd8d39ccfca068",
        "dot-1": "a0bfc4d7914d6a395297b297531ed7fae3544ed9199485b0e669b49a5b5409f4",
    },
    "split": {
        "sample": "b65e9c5af9b2e79e5266eccdf09c39a15d6aba8379d581996bdb331f491b06db",
        "dot": "b8032ea18775249d6136a74ad4214d0dbecbc5a6f1e9f67be5910f36cde2abed",
        "bench-bits": "e4e204b958f632c8baf4366c25180ce93e9e61bb44890665abe776b9fd08ddbf",
        "sample-1": "6651e2a79f8a98a5002955753dfd4a19942d874ec3bc3872b6fbe9a60507b5de",
        "dot-1": "e88cae2b1ba93bd02b1d9bc8b2c2dbbb486b20d7627144a691bd52b8c15f979a",
    },
    "narrow": {
        "sample": "340cce84320f498c944b38042bdedd4be903946b65286be09a8f306f8fb0b5ae",
        "dot": "4ed20f016d2ba7f21509a900b7f1e08e156107179c585bacd156db7a1ef3b621",
        "bench-bits": "99d211f48b525e580f7a36d812e02aad2b28dba0234450aba3ea83829bd15989",
        "sample-1": "6b15e3411b4673b3a2326b56aa891a271545dc0765d01acbfc829e28fd3d859d",
        "dot-1": "344913adf818532929a5bf9dd23faa9e5a3619078c877dd519325c1f5383eaf8",
    },
}


def test_seeded_output_bytes_are_pinned(capsys):
    shapes = {
        "small": Profile((0, 0, 2, 4)),
        "split": random_split_profile(random.Random(3), 300),
        "narrow": narrow_profile(random.Random(5), 500),
    }
    assert (shapes["split"].total_leaves, shapes["split"].height) == (300, 21)
    assert (shapes["narrow"].total_leaves, shapes["narrow"].height) == (734, 500)
    commands = {
        "sample": ["sample", "--count", "3"],
        "dot": ["sample", "--count", "3", "--format", "dot"],
        "bench-bits": ["bench-bits", "--samples", "20"],
        "sample-1": ["sample", "--count", "1"],
        "dot-1": ["sample", "--count", "1", "--format", "dot"],
    }
    for name, p in shapes.items():
        for command, argv in commands.items():
            assert run(argv + ["--seed", "11", "--profile", str(p)]) == 0
            digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
            assert digest == _PINNED_OUTPUTS[name][command], (name, command)


def test_seeded_output_past_the_wide_cutoff_is_pinned(capsys):
    # Five rows of this profile are wider than _WIDE_SLOTS, so the digest
    # pins the split order of _unrank_wide as well as the tree.
    p = random_split_profile(random.Random(7), 6000)
    assert sum(2 * i > sampler._WIDE_SLOTS for i in profiles.internal_profile(p)) == 5
    assert run(["sample", "--count", "1", "--seed", "11", "--profile", str(p)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "20d2e64392e1eeb86a30374a496a79a3c9469eb1a5c9273c97659d52c41d27c9"


def _loaded_modules(statements: str) -> str:
    """The sorted growingtrees.* and listed standard-library modules loaded
    after `statements` run in a fresh isolated interpreter. -S: site's .pth
    hooks may import typing and more before any user code runs."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); " + statements + "; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'growingtrees' or m in "
            "{'secrets', 'hashlib', '_hashlib', 'hmac', 'dataclasses', 'inspect', 'typing', "
            "'decimal', 'fractions', 'json', 'random'}))")
    src = str(Path(growingtrees.__file__).parents[1])
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code, src],
                          capture_output=True, text=True, check=True)
    return done.stdout


def test_import_leaves_secrets_and_hashlib_unloaded():
    # The default seed comes from random.SystemRandom, not from secrets,
    # whose import loads hmac and hashlib.
    assert _loaded_modules("import growingtrees.cli; growingtrees.cli._fresh_seed()") == \
        "['growingtrees', 'growingtrees.cli', 'random']\n"


def test_import_and_parser_leave_dataclasses_typing_decimal_fractions_unloaded():
    # The parser needs none of the submodules, json or random: each command
    # imports its own. A bare package import loads no submodule at all.
    statements = "import growingtrees.cli; growingtrees.cli.build_parser()"
    assert _loaded_modules(statements) == "['growingtrees', 'growingtrees.cli']\n"
    assert _loaded_modules("import growingtrees") == "['growingtrees']\n"


def test_only_oracle_loads_json():
    # The count tables, cell regions, sequences and bench-bits records write
    # their own text, without the json module; oracle's reports nest lists
    # and go through it.
    for argv in (["table", "--nmax", "3"], ["height-table", "--h", "3"],
                 ["domain", "cells", "--h", "3"], ["table", "--nmax", "3", "--format", "json"],
                 ["domain", "cells", "--h", "3", "--format", "json"],
                 ["seq", "a", "--nmax", "8", "--format", "json"],
                 ["bench-bits", "--profile", "0,0,2,4", "--samples", "3", "--seed", "1"],
                 ["oracle", "catalan", "--nmax", "3"]):
        statements = f"import growingtrees.cli; growingtrees.cli.run({argv!r})"
        loaded = _loaded_modules(statements).splitlines()[-1]
        assert ("'json'" in loaded) == (argv[0] == "oracle"), (argv, loaded)


def test_profile_commands_leave_decimal_and_fractions_unloaded():
    # exact_text tries str() before it imports decimal, and only an invalid
    # profile's message needs fractions.
    for argv in (["sample", "--seed", "1"], ["bench-bits", "--samples", "3", "--seed", "1"],
                 ["profile", "count"], ["profile", "internal"]):
        statements = f"import growingtrees.cli; growingtrees.cli.run({argv + ['--profile', '0,0,2,4']!r})"
        loaded = _loaded_modules(statements).splitlines()[-1]
        assert "growingtrees.profiles" in loaded
        assert "decimal" not in loaded and "fractions" not in loaded, (argv, loaded)


@pytest.mark.parametrize("argv", [
    ["sample"],
    ["bench-bits", "--samples", "3"],
    ["profile", "count"],
    ["profile", "internal"],
    ["profile", "truncate", "--level", "0"],
], ids=" ".join)
def test_every_profile_command_gives_the_one_invalid_profile_error(argv, capsys):
    assert run(argv + ["--profile", "0,1,1"]) == 1
    assert capsys.readouterr() == ("", "error: invalid profile, kraft sum 3/4 != 1\n")


@pytest.mark.parametrize("argv", [
    ["table", "--nmax", "4"],
    ["height-table", "--h", "3", "--format", "json"],
    ["seq", "a", "--nmax", "8", "--format", "json"],
    ["seq", "bhat", "--nmax", "8", "--format", "json"],
    ["seq", "b", "--nmax", "8"],
    ["domain", "area", "--h", "5"],
    ["domain", "cells", "--h", "3"],
    ["domain", "gamma", "--h", "3", "--format", "json"],
    ["table", "--nmax", "4", "--format", "json"],
    ["profile", "validate", "--profile", "0,1,2"],
    ["sample", "--profile", "0,0,2,4", "--count", "2", "--seed", "7"],
    ["sample", "--profile", "0,0,2,4", "--seed", "7", "--format", "dot"],
    ["oracle", "catalan", "--nmax", "5"],
    ["bench-bits", "--profile", "0,0,2,4", "--samples", "3", "--seed", "1"],
    ["bench-bits", "--profile", " 0, 01,+2", "--samples", "3", "--seed", "1"],
    ["--help"],
], ids=" ".join)
def test_each_command_runs_alone_in_a_fresh_interpreter(argv, capsys, monkeypatch):
    # Each command imports its own submodules. In this process earlier tests
    # have loaded them all, so only a fresh one shows a missing import.
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps at the terminal width
    code = "import sys; sys.path.insert(0, sys.argv.pop(1)); from growingtrees.cli import main; main()"
    src = str(Path(growingtrees.__file__).parents[1])
    done = subprocess.run([sys.executable, "-I", "-c", code, src, *argv],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (run(argv), *capsys.readouterr())
