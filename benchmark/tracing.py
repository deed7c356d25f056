"""Span tracing for the benchmark's traced run, installed from outside `src/`.

`Tracer.install()` replaces each traced function by a wrapper under the name
its callers look it up with: the `cli` module calls `enumeration.t_table`,
`sampler` calls its own imported `is_valid` and `draw_below`, and the table
classes are called through `to_csv` on the class. Every wrapped call records
one span (name, start, end, parent) into flat arrays held in memory until the
run ends, plus counters taken at the same boundary. `metrics()` then turns
spans into per-layer self times: a span's duration minus the time its child
spans cover.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter

from growingtrees import cli, enumeration, profiles, sampler, tree_core

from workloads import log2_int


def _count_table(counts: dict, args, result) -> None:
    counts["cells"] += len(result.entries)
    top = max((v.bit_length() for v in result.entries.values()), default=0)
    counts["max_int_bits"] = max(counts["max_int_bits"], top)


def _count_merge(counts: dict, args, result) -> None:
    counts["slots"] += args[1] + args[2]


def _count_json(counts: dict, args, result) -> None:
    counts["json_bytes"] += len(result)


def _count_growth(counts: dict, args, result) -> None:
    counts["grown_nodes"] += len(result.nodes)


# (owner, attribute, span name, counter). Owners are modules or classes; a
# span name appears once for each place a caller resolves the function.
# draw_below's bit count needs the source's counter from before the call, so
# the wrapper takes it itself.
TRACED = (
    (cli, "run", "cli.run", None),
    (enumeration, "t_table", "enumeration.t_table", _count_table),
    (enumeration, "t_height_table", "enumeration.t_height_table", _count_table),
    (enumeration.CountTable, "to_csv", "enumeration.to_csv", None),
    (enumeration.HeightTable, "to_csv", "enumeration.to_csv", None),
    (profiles, "is_valid", "profiles.is_valid", None),
    (sampler, "is_valid", "profiles.is_valid", None),
    (profiles, "count_trees", "profiles.count_trees", None),
    (sampler, "count_trees", "profiles.count_trees", None),
    (sampler, "sample_with_stats", "sampler.sample_with_stats", None),
    (sampler, "entropy_bound", "sampler.entropy_bound", None),
    (sampler, "unrank_merge", "sampler.unrank_merge", _count_merge),
    (sampler, "draw_below", "sampler.draw_below", None),
    (tree_core, "to_json", "tree_core.to_json", _count_json),
    (tree_core, "to_dot", "tree_core.to_dot", None),
    (tree_core, "from_json", "tree_core.from_json", None),
    (tree_core, "grow_step", "tree_core.grow_step", _count_growth),
    (tree_core, "freeze", "tree_core.freeze", None),
    (tree_core, "profile", "tree_core.profile", None),
)

SPAN_NAMES = sorted({name for _, _, name, _ in TRACED})


class Tracer:
    """Records spans while `recording` is set; counters accumulate alongside."""

    def __init__(self) -> None:
        self.recording = False
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.counts = {"cells": 0, "max_int_bits": 0, "slots": 0, "bits": 0,
                       "log2_n": 0.0, "json_bytes": 0, "grown_nodes": 0}
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attr, name, counter in TRACED:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrap(self, fn, name: str, counter):
        code = SPAN_NAMES.index(name)
        counts = self.counts
        draws = name == "sampler.draw_below"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(self.start)
            self.name.append(code)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(index)
            bits_before = args[0].bits_consumed if draws else 0
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                self._stack.pop()
            self.calls[name] += 1
            if draws:
                counts["bits"] += args[0].bits_consumed - bits_before
                counts["log2_n"] += log2_int(args[1])
            elif counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Total self time per span name over every recorded span."""
        covered = [0.0] * len(self.start)
        totals = dict.fromkeys(SPAN_NAMES, 0.0)
        for i in range(len(self.start) - 1, -1, -1):
            duration = self.end[i] - self.start[i]
            totals[SPAN_NAMES[self.name[i]]] += duration - covered[i]
            if self.parent[i] >= 0:
                covered[self.parent[i]] += duration
        return totals

    def metrics(self, output_bytes: int, untraced_s: float, traced_s: float) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, keyed as in BENCHMARK.json, with units."""
        self_s = self.self_times()
        c = self.counts
        table_s = self_s["enumeration.t_table"] + self_s["enumeration.t_height_table"]
        out = {"cli.output_bytes": (output_bytes, "B")}
        for name in SPAN_NAMES:
            out[f"{name}.self_s"] = (self_s[name], "s")
        out.update({
            "enumeration.cells": (c["cells"], "count"),
            "enumeration.max_int_bits": (c["max_int_bits"], "bit"),
            "enumeration.s_per_cell": (table_s / c["cells"] if c["cells"] else 0.0, "s/cell"),
            "profiles.is_valid.calls": (self.calls["profiles.is_valid"], "count"),
            "sampler.unrank_merge.calls": (self.calls["sampler.unrank_merge"], "count"),
            "sampler.unrank_merge.slots": (c["slots"], "count"),
            "sampler.draw_below.calls": (self.calls["sampler.draw_below"], "count"),
            "sampler.bits": (c["bits"], "bit"),
            "sampler.draw_below.bits_ratio": (c["bits"] / c["log2_n"] if c["log2_n"] else 0.0, "ratio"),
            "tree_core.to_json.bytes": (c["json_bytes"], "B"),
            "tree_core.grow_step.calls": (self.calls["tree_core.grow_step"], "count"),
            "tree_core.grow_step.nodes": (c["grown_nodes"], "count"),
            "trace.overhead_frac": ((traced_s - untraced_s) / untraced_s, "ratio"),
        })
        return out
