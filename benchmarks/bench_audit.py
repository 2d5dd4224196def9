#!/usr/bin/env python3
"""Wall time of the closure audit, per degree and on a real d = 14 log.

Per degree 14..40 it times closure_audit in this process on a complete
synthetic table (every algorithm-B case of the degree as non_special), and
records the target count, the gap count and the median and quartiles over
--repeats calls.

On a real log it times the `audit-closure -d 14 --json` process of two
source trees, the tree given by --before and this one, and records its
peak RSS, in --pairs pairs whose order alternates (before first, then
after first), so that the machine's drift falls on both sides alike.
Every pair must print the same stdout.  The log is written by `campaign
--degrees 14` of this tree.  Results go to BENCH_audit.json at the
repository root:

    git archive <parent> | tar -x -C <dir>
    python benchmarks/bench_audit.py --before <dir>/src

Usage:
    python benchmarks/bench_audit.py [--before DIR] [--pairs 10] [--repeats 5]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "BENCH_audit.json"
DEGREES = range(14, 41)
LOG_SEED = 14


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
    from fatpoints.reduction import KnownResults, closure_audit

    known = KnownResults.bootstrap()
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


def audit_process(src: Path, log: Path) -> tuple[float, float, bytes]:
    """Wall seconds, peak RSS in MiB and stdout of one audit-closure process."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "fatpoints.cli", "--json", "audit-closure", "-d", "14",
           "--results", str(log)]
    with tempfile.TemporaryFile() as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{cmd} under {src} exited {proc.returncode}")
    return wall, usage.ru_maxrss / 1024, stdout


def d14_pairs(before: Path, log: Path, pairs: int) -> dict:
    sides = {"before": before, "after": SRC}
    wall = {side: [] for side in sides}
    rss = {side: [] for side in sides}
    for i in range(pairs):
        order = ("before", "after") if i % 2 == 0 else ("after", "before")
        outputs = {}
        for side in order:
            t, mib, outputs[side] = audit_process(sides[side], log)
            wall[side].append(round(t, 4))
            rss[side].append(round(mib, 1))
        if outputs["before"] != outputs["after"]:
            raise RuntimeError(f"pair {i}: the two trees print different audits")
        print(f"pair {i + 1}/{pairs} ({order[0]} first): before {wall['before'][-1]:.3f} s,"
              f" after {wall['after'][-1]:.3f} s", flush=True)
    report = json.loads(outputs["after"])
    return {
        "log": f"campaign --degrees 14 --seed {LOG_SEED}",
        "targets": report["targets"],
        "gaps": len(report["gaps"]),
        "pairs": pairs,
        "after_faster_pairs": sum(a < b for a, b in zip(wall["after"], wall["before"])),
        "wall_s": {side: {**quartiles(wall[side]), "runs": wall[side]} for side in sides},
        "peak_rss_mib": {side: max(rss[side]) for side in sides},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", type=Path, help="source tree timed against this one")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)
    if args.repeats < 3 or args.pairs < 3:
        ap.error("--repeats and --pairs must be at least 3 to give quartiles")

    data = {"cpu_count": os.cpu_count(), "timing": "median and quartiles, seconds"}
    # the audit processes first: a child's peak RSS counts the memory it was
    # forked with, so this process must not hold numpy yet
    if args.before:
        with tempfile.TemporaryDirectory() as tmp:
            log = Path(tmp) / "d14.jsonl"
            subprocess.run([sys.executable, "-m", "fatpoints.cli", "campaign", "--degrees", "14",
                            "--seed", str(LOG_SEED), "--out", str(log)],
                           env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            data["d14_log"] = d14_pairs(args.before.resolve(), log, args.pairs)
    sys.path.insert(0, str(SRC))
    data["per_degree"] = per_degree(args.repeats)
    data["total_targets"] = sum(row["targets"] for row in data["per_degree"])
    data["total_median_s"] = round(sum(row["audit_s"]["median"] for row in data["per_degree"]), 3)
    OUT.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
