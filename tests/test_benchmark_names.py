"""The names the benchmark harness looks up in the package still exist.

benchmark/tracing.py wraps package functions by name and calibrate.py calls
the sampler by name, so a renamed or deleted function breaks the benchmark
while every other test passes. The harness is imported here read-only: no
bytecode is written, and its modules leave sys.modules afterwards.
"""

import ast
import importlib
import sys
from pathlib import Path

import growingtrees
from growingtrees import sampler

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


def test_every_traced_name_is_its_owners_own(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCHMARK))
    try:
        tracing = importlib.import_module("tracing")
    finally:
        for name in ("tracing", "workloads"):
            sys.modules.pop(name, None)
    assert tracing.TRACED
    for owner, attr, _, _ in tracing.TRACED:
        # Tracer.install reads owner.__dict__[attr]: an inherited or
        # module-level __getattr__ name would not do.
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"


def test_every_sampler_name_calibrate_calls_exists():
    tree = ast.parse((BENCHMARK / "calibrate.py").read_text())
    names = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "sampler"}
    assert "sample_with_stats" in names
    for name in names:
        assert callable(getattr(sampler, name, None)), f"sampler.{name}"


def test_names_kept_only_for_the_harness_are_not_exported():
    # src/ keeps these for benchmark/ alone, so deleting them later changes
    # no public name.
    for owner, name in (("sampler", "draw_below"), ("sampler", "sample_with_stats"),
                        ("enumeration", "HeightTable")):
        assert name in vars(importlib.import_module(f"growingtrees.{owner}")), f"{owner}.{name}"
        assert name not in growingtrees.__all__, name
