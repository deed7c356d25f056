"""One-off calibration against the baseline rows of ROADMAP.md.

    python3 benchmark/calibrate.py

Measures `height-table --h 9`, a random-split sample of 5,000 and 20,000
leaves, and the `bench-bits` overhead on the profile 0,0,2,...,2,4 at heights
10, 50 and 200. Each time is the median of three runs of plain wall time,
with no speed correction; the record holds the reference work's time (see
speed.py) to show how fast the machine ran. Writes calibration.json next to
this file, flagging every row that differs from the ROADMAP figure by more
than 30%. The ROADMAP's h = 9 row times the library call, 0.78-1.06 s,
compared here at its midpoint; the CLI adds the CSV output.
"""

import json
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from growingtrees import Profile, sampler  # noqa: E402
from speed import reference_seconds  # noqa: E402
from workloads import random_split_profile, run_cli  # noqa: E402

OUT = Path(__file__).with_name("calibration.json")
REPEATS = 3
BITS_SAMPLES = 200


def timed(fn) -> float:
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def sample_seconds(leaves: int) -> float:
    p = Profile(random_split_profile(random.Random(leaves), leaves))
    return timed(lambda: sampler.sample_with_stats(p, sampler.BitSource(1)))


def bits_overhead(h: int) -> float:
    levels = ",".join(["0", "0"] + ["2"] * (h - 2) + ["4"])
    record = json.loads(run_cli(["bench-bits", "--profile", levels,
                                 "--samples", str(BITS_SAMPLES), "--seed", "1"]))
    return record["overhead_bits"]


def main() -> None:
    rows = [
        ("height-table --h 9 (CLI, csv)", "s", 0.92,
         timed(lambda: run_cli(["height-table", "--h", "9"]))),
        ("sample_with_stats, random-split profile, 5,000 leaves", "s", 0.137, sample_seconds(5000)),
        ("sample_with_stats, random-split profile, 20,000 leaves", "s", 5.0, sample_seconds(20000)),
    ]
    for h, roadmap in ((10, 8.7), (50, 52.0), (200, 215.0)):
        rows.append((f"bench-bits overhead, 0,0,2,...,2,4 at h = {h}, {BITS_SAMPLES} samples",
                     "bit", roadmap, bits_overhead(h)))
    record = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "reference_work_ms": round(statistics.median(reference_seconds() for _ in range(50)) * 1e3, 3),
        "rows": [{"what": what, "unit": unit, "roadmap": roadmap, "measured": round(measured, 4),
                  "ratio": round(measured / roadmap, 3),
                  "differs_over_30pct": abs(measured / roadmap - 1) > 0.3}
                 for what, unit, roadmap, measured in rows],
    }
    OUT.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))


if __name__ == "__main__":
    main()
