#!/usr/bin/env python3
"""Micro-benchmark of the prime-field rank kernel against the BLAS ceiling.

For each shape it times gfp.rank on a seeded random matrix mod p and a
float64 (m x n) @ (n x n) product on the same machine, and reports both in
GFLOP/s.  A rank call is counted as F(m, n) = 2 sum_{k<min(m,n)} (m-k)(n-k)
flops, as in perfbench/README.md; the product as 2 m n^2.  The shapes are the
largest matrices of d = 14, 26 and 30 after the fundamental reduction, and a
square 1330 x 1330 one.

One more row times a d = 14 family: the transposed matrix of the head of
the largest (q, x, y) family, ranked once with the ranks of every member's
leading block (rank's leading), against ranking each member's block on its
own, which is what a case-by-case run costs in the kernel.  A source tree
whose rank has no leading reports only the second.

Every timing is repeated; the median and the quartiles are recorded, and
GFLOP/s is taken from the median.  Results are merged into BENCH_rank.json
at the repository root under a label, so one file holds the numbers before
and after a change:

    python benchmarks/bench_rank.py --label parent --src <parent checkout>/src
    python benchmarks/bench_rank.py --label change

Usage:
    python benchmarks/bench_rank.py [--label NAME] [--src DIR] [--repeats 5]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_rank.json"
SHAPES = ((448, 430), (1330, 1330), (2792, 2774), (4590, 4576))
PRIME = 32003
FAMILY_DEGREE = 14
FAMILY_SEED = 20261018


def rank_flops(m: int, n: int) -> int:
    return 2 * sum((m - k) * (n - k) for k in range(min(m, n)))


def timed(fn, repeats: int) -> tuple[dict, object]:
    """Median and quartiles of repeats calls of fn, in seconds, and its last result."""
    times, out = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    q1, med, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}, out


def family_head() -> tuple[str, np.ndarray, list[int]]:
    """The largest d = 14 family: its head's case, transposed matrix and member row counts."""
    from fatpoints.enumeration import algorithm_b_cases
    from fatpoints.interpolation import (
        _coordinate_point,
        _greedy_assignment,
        _sample_distinct,
        build_matrix,
        reduce_fundamental,
    )
    from fatpoints.monomials import monomial_basis

    groups: dict = {}
    for case in algorithm_b_cases(FAMILY_DEGREE):
        groups.setdefault((case.q, case.x, case.y), []).append(case)
    family = max(groups.values(), key=lambda fam: (len(fam), fam[-1].conditions_total))
    head = family[-1].to_system()
    assignment = _greedy_assignment(head)
    deleted, residual = reduce_fundamental(head, assignment)
    basis = np.delete(monomial_basis(FAMILY_DEGREE), deleted, axis=0)
    pts = _sample_distinct(residual.r, PRIME, FAMILY_SEED,
                           avoid=[_coordinate_point(slot) for slot in range(len(assignment))])
    mat = np.ascontiguousarray(build_matrix(residual, pts, PRIME, basis=basis).T)
    pinned = head.conditions_total - residual.conditions_total
    rows = [case.conditions_total - pinned for case in family]
    return str(family[-1].key()), mat, rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", default="change", help="key the results are stored under")
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="source tree whose fatpoints package is timed")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)
    if args.repeats < 3:
        ap.error("--repeats must be at least 3 to give quartiles")

    sys.path.insert(0, str(args.src.resolve()))
    from fatpoints import gfp

    rng = np.random.default_rng(20261018)
    rows = []
    for m, n in SHAPES:
        mat = rng.integers(0, PRIME, (m, n)).astype(np.float64)
        gfp.rank(mat[:40, :40], PRIME)  # warm-up
        t_rank, r = timed(lambda: gfp.rank(mat, PRIME), args.repeats)
        b = rng.random((n, n))
        t_mm, _ = timed(lambda: mat @ b, args.repeats)
        row = {
            "m": m, "n": n, "rank": int(r), "rank_s": t_rank,
            "rank_gflops": round(rank_flops(m, n) / t_rank["median"] / 1e9, 2),
            "matmul_s": t_mm,
            "matmul_gflops": round(2 * m * n * n / t_mm["median"] / 1e9, 2),
        }
        rows.append(row)
        print(f"{m:>5}x{n:<5} rank {t_rank['median']:8.3f} s"
              f" [{t_rank['q1']:.3f}, {t_rank['q3']:.3f}] {row['rank_gflops']:7.2f} GFLOP/s"
              f"   a@b {row['matmul_gflops']:7.2f} GFLOP/s   rank={r}", flush=True)

    case, mat, members = family_head()
    t_each, each = timed(lambda: [gfp.rank(mat[:, :k], PRIME) for k in members], args.repeats)
    family = {"case": case, "m": mat.shape[0], "n": mat.shape[1], "members": members,
              "ranks": each, "each_member_s": t_each}
    try:
        t_once, once = timed(lambda: gfp.rank(mat, PRIME, leading=members), args.repeats)
    except TypeError:  # a rank without leading
        print(f"family {case}: each member {t_each['median']:.3f} s; no leading ranks")
    else:
        assert once == each, (once, each)
        family["leading_s"] = t_once
        print(f"family {case} ({mat.shape[0]}x{mat.shape[1]}, {len(members)} members):"
              f" one elimination {t_once['median']:.3f} s"
              f" [{t_once['q1']:.3f}, {t_once['q3']:.3f}],"
              f" each member {t_each['median']:.3f} s"
              f" [{t_each['q1']:.3f}, {t_each['q3']:.3f}]", flush=True)

    data = json.loads(OUT.read_text()) if OUT.exists() else {}
    data.setdefault("runs", {})[args.label] = {
        "prime": PRIME,
        "repeats": args.repeats,
        "timing": "median and quartiles of repeats, seconds, single process",
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "shapes": rows,
        "family": family,
    }
    OUT.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {OUT} [{args.label}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
