"""Command-line behavior: formats, exit codes, determinism, seed echo."""

import json

import pytest

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


def test_height_table_csv(capsys):
    assert run(["height-table", "--h", "2"]) == 0
    assert capsys.readouterr().out == "n,2,3\n2,2,\n4,,1\n"


def test_height_table_json_matches_reference(capsys):
    assert run(["height-table", "--h", "4", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["h"] == 4
    cells = {(n, two_k // 2): v for n, two_k, v in doc["cells"]}
    assert cells == ref.STEP4_COUNTS


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


def test_usage_errors_and_help(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()
    assert run([]) == 2
    capsys.readouterr()
    assert run(["no-such-command"]) == 2
    capsys.readouterr()
    assert run(["sample"]) == 2
    capsys.readouterr()
