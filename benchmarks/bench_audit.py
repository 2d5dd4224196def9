#!/usr/bin/env python3
"""Wall time of the closure audit per degree, in this process.

Per degree 14..40 it times closure_audit on a complete synthetic table
(every algorithm-B case of the degree as non_special), and records the
target count, the gap count and the median and quartiles over --repeats
calls.  Results go to BENCH_audit.json at the repository root.  The
`audit-closure -d 14` process on a real log is timed against another tree
by benchmarks/bench_pool.py.

Usage:
    python benchmarks/bench_audit.py [--repeats 5]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "BENCH_audit.json"
DEGREES = range(14, 41)


def quartiles(times: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


class Table:
    """Store stand-in holding every algorithm-B case of a degree as non_special."""

    def __init__(self, d: int):
        from fatpoints.enumeration import algorithm_b_cases

        self.rows = [(case, case.conditions_total, "non_special") for case in algorithm_b_cases(d)]

    def cases(self, d: int):
        return self.rows


def per_degree(repeats: int) -> list[dict]:
    from fatpoints.reduction import GLUE_RULES, KnownResults, closure_audit, validate_glue_rule

    known = KnownResults.bootstrap()
    # certify the glue rules' base systems before the clock, which times the audit alone
    if not all(validate_glue_rule(rule, known) for rule in GLUE_RULES):
        raise RuntimeError("a glue rule's base system did not certify")
    rows = []
    for d in DEGREES:
        table = Table(d)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            report = closure_audit(d, table, known=known)
            times.append(time.perf_counter() - t0)
        row = {"degree": d, "cases": len(table.rows), "targets": report.targets_checked,
               "gaps": len(report.gaps), "audit_s": quartiles(times)}
        rows.append(row)
        print(f"d={d:2}: {row['targets']:>11} targets, {row['gaps']} gaps,"
              f" {row['audit_s']['median']:.3f} s", flush=True)
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)
    if args.repeats < 3:
        ap.error("--repeats must be at least 3 to give quartiles")

    data = {"cpu_count": os.cpu_count(), "timing": "median and quartiles, seconds"}
    sys.path.insert(0, str(SRC))
    data["per_degree"] = per_degree(args.repeats)
    data["total_targets"] = sum(row["targets"] for row in data["per_degree"])
    data["total_median_s"] = round(sum(row["audit_s"]["median"] for row in data["per_degree"]), 3)
    OUT.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
