"""The growingtrees benchmark: one seeded, closed-loop workload per run.

    python3 benchmark/run.py --workload tables --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports `growingtrees` from `src/`.
One client runs in this process on one thread and sends its next operation
only when the previous one has finished. The number of operations depends
only on the workload and `--seconds`, never on the clock: it is what the
workload's nominal rate fits into `--seconds` (see `op_count`), so a seed
gives the same operations, failures and counts on every run. Every output
is checked; an operation that raises, exits nonzero or fails its check
counts as failed, scores +inf latency, and the run goes on.

With `--trace 0` the last line of stdout is a JSON object holding the
end-to-end metrics of BENCHMARK.json. Their times are wall times corrected
for machine-speed drift by reference work run between operations (see
speed.py). With `--trace 1` the first WINDOW operations run twice each,
once plain and once with spans recorded around each layer's public
functions (see tracing.py), and the object holds the per-layer metrics. A
summary of the run and of every failure goes to stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from speed import REFERENCE_S, corrected, reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Every run makes at least this many operations, so p90 has 10 samples above
# it. The traced run covers exactly these first operations.
WINDOW = 100
SETUP_RUNS = 7
SETUP_CODE = """\
import statistics, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import growingtrees.cli
growingtrees.cli.build_parser()
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
from speed import reference_seconds
print(elapsed, statistics.median(reference_seconds() for _ in range(3)))
"""


@dataclass
class Result:
    seconds: float
    outcome: object = None  # workloads.Outcome when the op succeeded
    error: str = ""


def run_op(workload, op, tracer=None) -> Result:
    """Time one operation, then check it outside the timed region."""
    from workloads import CheckFailed

    if tracer is not None:
        tracer.recording = True
    start = time.perf_counter()
    try:
        result = workload.execute(op)
    except Exception as exc:  # any failure of the program is counted, and the run goes on
        return Result(time.perf_counter() - start, error=f"{op.kind}: {type(exc).__name__}")
    finally:
        if tracer is not None:
            tracer.recording = False
    seconds = time.perf_counter() - start
    try:
        return Result(seconds, outcome=workload.check(op, result))
    except CheckFailed as exc:
        return Result(seconds, error=f"{op.kind}: wrong output: {exc}")
    except Exception as exc:  # e.g. from_json cannot read back a deep tree: a failure, not a wrong output
        return Result(seconds, error=f"{op.kind}: check raised {type(exc).__name__}")


def plain_seconds(workload, op) -> float:
    """Time one operation without tracing; the traced pass checks it."""
    start = time.perf_counter()
    try:
        workload.execute(op)
    except Exception:  # the traced pass of the same op records the failure
        pass
    return time.perf_counter() - start


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered)) - 1]


def measure_setup() -> float:
    """Median time to import growingtrees and build the CLI parser in a fresh
    interpreter, each corrected by reference timings taken in that interpreter."""
    samples = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(HERE)],
                              capture_output=True, text=True, check=True, timeout=60)
        elapsed, reference = map(float, done.stdout.split())
        samples.append(elapsed * REFERENCE_S / reference)
    return statistics.median(samples)


def summarize(results: list[Result], elapsed: float) -> None:
    failures: dict[str, int] = {}
    for r in results:
        if r.error:
            failures[r.error] = failures.get(r.error, 0) + 1
    print(f"{len(results)} ops in {elapsed:.1f} s, {sum(failures.values())} failed", file=sys.stderr)
    for error, count in sorted(failures.items()):
        print(f"  {count} x {error}", file=sys.stderr)


def op_count(workload, seconds: float) -> int:
    """Whole blocks that fill `seconds` at the workload's nominal rate, and
    at least WINDOW operations."""
    blocks = max(math.ceil(seconds * workload.rate / workload.block),
                 math.ceil(WINDOW / workload.block))
    return blocks * workload.block


def end_to_end(workload, seed: int, seconds: float) -> tuple[list[Result], dict]:
    setup_s = measure_setup()
    results: list[Result] = []
    references = [reference_seconds()]
    start = time.perf_counter()
    for op in itertools.islice(workload.ops(seed), op_count(workload, seconds)):
        results.append(run_op(workload, op))
        references.append(reference_seconds())
    summarize(results, time.perf_counter() - start)
    print(f"reference work: median {statistics.median(references) * 1e3:.2f} ms, "
          f"nominal {REFERENCE_S * 1e3:.2f} ms", file=sys.stderr)
    times = corrected([r.seconds for r in results], references)
    ok = [r for r in results if not r.error]
    latencies = [t if not r.error else math.inf for t, r in zip(times, results)]
    overheads = [r.outcome.overhead_bits for r in ok if r.outcome.overhead_bits is not None]
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_p50_s": (quantile(latencies, 0.5), "s"),
        "latency_p90_s": (quantile(latencies, 0.9), "s"),
        "throughput_ops_s": (len(ok) / sum(times), "1/s"),
        "ok_frac": (len(ok) / len(results), "ratio"),
        # Workloads that sample no tree draw no random bits; they report the
        # constant 1.0 because a metric must be present and nonzero.
        "bits_over_floor": (statistics.fmean(overheads) if overheads else 1.0, "bit"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return results, metrics


def per_layer(workload, seed: int) -> tuple[list[Result], dict]:
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    ops = workload.ops(seed)
    results: list[Result] = []
    untraced_s = traced_s = 0.0
    output_bytes = 0
    start = time.perf_counter()
    try:
        for i in range(WINDOW):
            op = next(ops)
            # Alternate which pass goes first, so warm caches favour neither.
            if i % 2:
                traced = run_op(workload, op, tracer)
                untraced_s += plain_seconds(workload, op)
            else:
                untraced_s += plain_seconds(workload, op)
                traced = run_op(workload, op, tracer)
            traced_s += traced.seconds
            results.append(traced)
            if not traced.error:
                output_bytes += traced.outcome.cli_bytes
    finally:
        tracer.uninstall()
    summarize(results, time.perf_counter() - start)
    return results, tracer.metrics(output_bytes, untraced_s, traced_s)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "growingtrees" / "__init__.py").is_file():
        print(f"error: no growingtrees package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    if args.trace:
        results, metrics = per_layer(workload, args.seed)
    else:
        results, metrics = end_to_end(workload, args.seed, args.seconds)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    reported = {name: unit for name, (_, unit) in metrics.items()}
    if reported != expected:
        print(f"error: metrics {sorted(reported.items())} do not match BENCHMARK.json "
              f"{sorted(expected.items())}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not any("wrong output" in r.error for r in results),
        "attempted": len(results),
        "failed": sum(1 for r in results if r.error),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
