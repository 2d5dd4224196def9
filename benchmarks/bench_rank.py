#!/usr/bin/env python3
"""Micro-benchmark of the prime-field rank kernel against the BLAS ceiling.

For each shape it times gfp.rank on a seeded random matrix mod p and a
float64 (m x n) @ (n x n) product on the same machine, and reports both in
GFLOP/s.  A rank call is counted as F(m, n) = 2 sum_{k<min(m,n)} (m-k)(n-k)
flops, as in perfbench/README.md; the product as 2 m n^2.  The shapes are the
largest matrices of d = 14, 26 and 30 after the fundamental reduction, and a
square 1330 x 1330 one.

Results are merged into BENCH_rank.json at the repository root under a
label, so one file holds the numbers before and after a change:

    python benchmarks/bench_rank.py --label parent --src <parent checkout>/src
    python benchmarks/bench_rank.py --label change

Usage:
    python benchmarks/bench_rank.py [--label NAME] [--src DIR] [--repeats 3]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_rank.json"
SHAPES = ((448, 430), (1330, 1330), (2792, 2774), (4590, 4576))
PRIME = 32003


def rank_flops(m: int, n: int) -> int:
    return 2 * sum((m - k) * (n - k) for k in range(min(m, n)))


def best_time(fn, repeats: int) -> tuple[float, object]:
    best, out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", default="change", help="key the results are stored under")
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="source tree whose fatpoints package is timed")
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(args.src.resolve()))
    from fatpoints import gfp

    rng = np.random.default_rng(20261018)
    rows = []
    for m, n in SHAPES:
        mat = rng.integers(0, PRIME, (m, n)).astype(np.float64)
        gfp.rank(mat[:40, :40], PRIME)  # warm-up
        t_rank, r = best_time(lambda: gfp.rank(mat, PRIME), args.repeats)
        b = rng.random((n, n))
        t_mm, _ = best_time(lambda: mat @ b, max(2, args.repeats))
        row = {
            "m": m, "n": n, "rank": int(r), "rank_s": round(t_rank, 4),
            "rank_gflops": round(rank_flops(m, n) / t_rank / 1e9, 2),
            "matmul_s": round(t_mm, 4),
            "matmul_gflops": round(2 * m * n * n / t_mm / 1e9, 2),
        }
        rows.append(row)
        print(f"{m:>5}x{n:<5} rank {t_rank:8.3f} s {row['rank_gflops']:7.2f} GFLOP/s"
              f"   a@b {row['matmul_gflops']:7.2f} GFLOP/s   rank={r}", flush=True)

    data = json.loads(OUT.read_text()) if OUT.exists() else {}
    data.setdefault("runs", {})[args.label] = {
        "prime": PRIME,
        "repeats": args.repeats,
        "timing": "best of repeats, single process",
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "shapes": rows,
    }
    OUT.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {OUT} [{args.label}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
