#!/usr/bin/env python3
"""Classify every complete three-variable collection up to relabeling and
write the census as JSON plus a per-orbit CSV next to this script."""

import csv
import json
import sys
import time
from pathlib import Path

from mllp.census import census


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("census_out")
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    report = census(3)
    elapsed = time.perf_counter() - t0

    rows = report.pop("rows")
    report["elapsed_seconds"] = round(elapsed, 3)
    (out_dir / "census.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    with open(out_dir / "census_orbits.csv", "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["orbit", "spec", "margins", "verdict", "first_rule", "chain"]
        )
        writer.writeheader()
        for row in rows:
            row = dict(row)
            row["chain"] = " -> ".join(row["chain"])
            writer.writerow(row)

    print(f"census of {report['complete_orbits']} orbits in {elapsed:.2f}s")
    buckets = ("hierarchical_orbits", "two_margin_extra", "proven_smooth_total",
               "unknown_orbits")
    for key, value in report.items():
        if key in buckets or key.endswith("_first"):
            print(f"  {key}: {value}")
    print(f"wrote {out_dir}/census.json and {out_dir}/census_orbits.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
