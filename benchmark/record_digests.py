"""Record the output digest of every `tables` operation into digests.json.

    python3 benchmark/record_digests.py

Table entries are the exact contract, so the digests are recorded once from
a trusted version of the code and the benchmark compares every `tables`
output against them. Rerun only when the output format changes on purpose.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import DIGESTS, HEIGHT_TABLE_H, TABLE_NMAX, digest, run_cli  # noqa: E402


def main() -> None:
    digests = {}
    for fmt in ("csv", "json"):
        argv = ["height-table", "--h", str(HEIGHT_TABLE_H), "--format", fmt]
        digests[" ".join(argv[:3] + [fmt])] = digest(run_cli(argv))
        for n in range(TABLE_NMAX[0], TABLE_NMAX[1] + 1):
            argv = ["table", "--nmax", str(n), "--format", fmt]
            digests[" ".join(argv[:3] + [fmt])] = digest(run_cli(argv))
    DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {DIGESTS.name}")


if __name__ == "__main__":
    main()
