#!/usr/bin/env python3
"""Wall time and peak RSS of the campaign, verify and audit processes, two trees.

Times four CLI processes of two source trees, the tree given by --before
and this one:

- `campaign --degrees 14` (261 cases in 71 families),
- `verify --full` on the log that campaign wrote,
- `audit-closure -d 14` on the same log (85100 signatures),
- `campaign --degrees 30 --shard 1/35` (three ~4590x4576 families),

in --pairs pairs whose order alternates (before first, then after first),
so that the machine's drift falls on both sides alike.  In every pair both
trees must write the same records (elapsed_ms aside; headers are not
compared), verify must replay all 261 of them with no mismatch, and both
trees must print the same audit with no gap.  Peak RSS is what wait4 reports,
the largest single process among the CLI and the workers it waited for.
Results are merged into BENCH_pool.json at the repository root under
"against-LABEL", so that a comparison keeps the earlier ones:

    git archive <parent> | tar -x -C <dir>
    python benchmarks/bench_pool.py --before <dir>/src --label block-inverse

Usage:
    python benchmarks/bench_pool.py --before DIR [--label NAME] [--pairs 10]
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
OUT = ROOT / "BENCH_pool.json"
STAGES = ("campaign_d14", "verify_d14", "audit_d14", "campaign_d30_shard")
SEED = 14  # campaign --seed of both d = 14 and d = 30


def quartiles(times: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def cli_process(src: Path, args: list[str]) -> tuple[float, float, str]:
    """Wall seconds, peak RSS in MiB and stdout of one fatpoints process."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "fatpoints.cli", *args]
    with tempfile.TemporaryFile() as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode()
    if code != 0:
        raise RuntimeError(f"{cmd} under {src} exited {code}")
    return wall, usage.ru_maxrss / 1024, stdout


def records(log: Path) -> list[dict]:
    """The log's records without elapsed_ms, in log order."""
    out = []
    for line in log.read_text().splitlines():
        data = json.loads(line)
        if not data.get("header"):
            data.pop("elapsed_ms", None)
            out.append(data)
    return out


def one_side(src: Path, tmp: Path) -> tuple[dict, dict, dict]:
    """(wall s, peak RSS MiB, outputs) per stage of one tree."""
    d14, d30 = tmp / "d14.jsonl", tmp / "d30.jsonl"
    runs = {
        "campaign_d14": ["campaign", "--degrees", "14", "--seed", str(SEED), "--out", str(d14)],
        "verify_d14": ["--json", "verify", "--full", str(d14)],
        "audit_d14": ["--json", "audit-closure", "-d", "14", "--results", str(d14)],
        "campaign_d30_shard": ["campaign", "--degrees", "30", "--shard", "1/35",
                               "--seed", str(SEED), "--out", str(d30)],
    }
    wall, rss, outs = {}, {}, {}
    for stage, args in runs.items():
        wall[stage], rss[stage], stdout = cli_process(src, args)
        outs[stage] = stdout
    report = json.loads(outs["verify_d14"].strip().splitlines()[-1])
    if not report["ok"] or report["replayed"] != 261 or report["mismatches"]:
        raise RuntimeError(f"verify under {src}: {report}")
    audit = json.loads(outs["audit_d14"])
    if not audit["ok"] or audit["targets"] != 85100:
        raise RuntimeError(f"audit under {src}: {len(audit['gaps'])} gaps of {audit['targets']}")
    outs["campaign_d14"], outs["campaign_d30_shard"] = records(d14), records(d30)
    outs["header"] = json.loads(d14.read_text().splitlines()[0])
    return wall, rss, outs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", type=Path, required=True, help="source tree timed against this one")
    ap.add_argument("--label", default="change", help="results are stored under against-NAME")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 3:
        ap.error("--pairs must be at least 3 to give quartiles")

    sides = {"before": args.before.resolve(), "after": SRC}
    wall = {side: {stage: [] for stage in STAGES} for side in sides}
    rss = {side: {stage: [] for stage in STAGES} for side in sides}
    for i in range(args.pairs):
        order = ("before", "after") if i % 2 == 0 else ("after", "before")
        outs = {}
        for side in order:
            with tempfile.TemporaryDirectory() as tmp:
                t, mib, outs[side] = one_side(sides[side], Path(tmp))
            for stage in STAGES:
                wall[side][stage].append(round(t[stage], 4))
                rss[side][stage].append(round(mib[stage], 1))
        for stage in ("campaign_d14", "audit_d14", "campaign_d30_shard"):
            got = [outs[side][stage] for side in sides]
            if got[0] != got[1]:
                raise RuntimeError(f"pair {i}: the two trees write different {stage} output")
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first): "
              + ", ".join(f"{stage} {wall['before'][stage][-1]:.2f} -> {wall['after'][stage][-1]:.2f} s"
                          for stage in STAGES), flush=True)

    data = {
        "cpu_count": os.cpu_count(),
        "timing": "median and quartiles, seconds; peak RSS the largest of the pairs, MiB",
        "seed": SEED,
        "pairs": args.pairs,
        "after_env": outs["after"]["header"].get("env"),
        "stages": {},
    }
    for stage in STAGES:
        data["stages"][stage] = {
            "after_faster_pairs": sum(a < b for a, b in zip(wall["after"][stage],
                                                            wall["before"][stage])),
            "wall_s": {side: {**quartiles(wall[side][stage]), "runs": wall[side][stage]}
                       for side in sides},
            "peak_rss_mib": {side: max(rss[side][stage]) for side in sides},
        }
    key = f"against-{args.label}"
    merged = json.loads(OUT.read_text()) if OUT.exists() else {}
    merged[key] = data
    OUT.write_text(json.dumps(merged, indent=2) + "\n")
    print(f"wrote {OUT} [{key}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
