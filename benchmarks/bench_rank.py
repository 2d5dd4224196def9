#!/usr/bin/env python3
"""Micro-benchmark of the prime-field rank kernel against the BLAS ceiling.

For each shape it times gfp.rank on a seeded random matrix mod p = 32003
(ranked in float64) and a float64 (m x n) @ (n x n) product on the same
machine, and reports both in GFLOP/s.  A rank call is counted as
F(m, n) = 2 sum_{k<min(m,n)} (m-k)(n-k) flops, as in perfbench/README.md;
the product as 2 m n^2.  The shapes are the largest matrices of d = 14, 26
and 30 after the fundamental reduction, and a square 1330 x 1330 one.

One row times a d = 14 family: the transposed matrix of the head of the
largest (q, x, y) family, ranked once with the ranks of every member's
leading block (rank's leading), against ranking each member's block on its
own, which is what a case-by-case run costs in the kernel.

The CASES rows time one real check each, as a campaign runs it:
_transposed_matrix (point sampling and matrix assembly), then rank.  "d30"
and "d30_p73" are D30_CASE, the first case of `campaign --degrees 30
--shard 1/35` (4576 x 4576 after the fundamental reduction), at 32003,
ranked in float64, and at 73, the campaign's first prime, ranked in float32
by a tree that picks the dtype from the shape.  "d37_p73" is D37_CASE, the
head of a d = 37 family (9000 x 9018), at 73.

The "d14.heads" row times the small systems: all 71 d = 14 family heads,
each built as the campaign's attempt 1 builds it (base seed 0, the
family's seed and prime) by _transposed_matrix, point sampling and matrix
assembly, timed as assembly_s, and then ranked in place with the leading
row counts of its members, timed as rank_s.

The rank time of these rows is split into the leaves (_Elimination._panel:
the block steps, each with its block inverse, the steps declined and the
one-column pivot searches), the triangular solves (the outermost
_Elimination._trsm calls) and the rest, which is the trailing GEMMs, the
entry reduction and the halving of the ranges the leaves decline; the
split is timed by wrappers this script installs (phase_split).  Leaves do
not nest and no leaf solves, so no time is counted twice.

Every measurement runs in a fresh process whose BLAS is pinned to one
thread, as in a campaign's worker processes.  Every timing is repeated;
the median and the quartiles are recorded, and GFLOP/s is taken from the
median.  Results are merged into BENCH_rank.json at the repository root
under a label, so one file holds the numbers before and after a change:

    python benchmarks/bench_rank.py --label parent --src <parent checkout>/src
    python benchmarks/bench_rank.py --label change

The machine drifts more between two runs than within one, so two trees are
best compared with --against: it measures this tree (--src) and the tree
DIR in fresh processes, alternately, --pairs times, and records per timing
the median and quartiles of each side's per-run medians and the pairs each
side won, under "against-LABEL" in BENCH_rank.json, so that a comparison
keeps the earlier ones:

    python benchmarks/bench_rank.py --against <parent checkout>/src --label one-panel-path

--reduce times the two paths of gfp._reduce, the floor-based one and the
one through np.remainder, on vectors of REDUCE_SIZES entries in float32 and
float64, and records the microseconds per call and the smallest size from
which the floor-based path is the faster under "reduce": the crossover that
gfp._SHORT_REDUCE is set from.

Usage:
    python benchmarks/bench_rank.py [--label NAME] [--src DIR] [--repeats 5]
    python benchmarks/bench_rank.py --against DIR [--label NAME] [--src DIR] [--pairs 10]
                  [--repeats 3]
    python benchmarks/bench_rank.py --reduce [--repeats 15]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_rank.json"
SHAPES = ((448, 430), (1330, 1330), (2792, 2774), (4590, 4576))
PRIME = 32003
FAMILY_DEGREE = 14
FAMILY_SEED = 20261018
D30_CASE = "30; 10^24,3^16,2^4"
D37_CASE = "37; 10^44,3^21,2^2"
# Row key, case and prime of each single-check row.
CASES = (("d30", D30_CASE, 32003), ("d30_p73", D30_CASE, 73), ("d37_p73", D37_CASE, 73))
PHASES = ("rank_s", "panel_s", "trsm_s", "rest_s")
REDUCE_SIZES = (16, 32, 48, 64, 80, 96, 128, 192, 256, 512)
REDUCE_PRIME = 73
# Set to one in every measuring process, as campaign and verify workers run.
PINNED_BLAS = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def rank_flops(m: int, n: int) -> int:
    return 2 * sum((m - k) * (n - k) for k in range(min(m, n)))


def quartiles(times: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def timed(fn, repeats: int) -> tuple[dict, object]:
    """Median and quartiles of repeats calls of fn, in seconds, and its last result."""
    times, out = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return quartiles(times), out


def shape_row(gfp, m: int, n: int, repeats: int, rng) -> dict:
    """Rank of a random m x n matrix mod PRIME against a same-shape float64 product."""
    mat = rng.integers(0, PRIME, (m, n)).astype(np.float64)
    gfp.rank(mat[:40, :40], PRIME)  # warm-up
    t_rank, r = timed(lambda: gfp.rank(mat, PRIME), repeats)
    b = rng.random((n, n))
    t_mm, _ = timed(lambda: mat @ b, repeats)
    row = {
        "m": m, "n": n, "rank": int(r), "rank_s": t_rank,
        "rank_gflops": round(rank_flops(m, n) / t_rank["median"] / 1e9, 2),
        "matmul_s": t_mm,
        "matmul_gflops": round(2 * m * n * n / t_mm["median"] / 1e9, 2),
    }
    print(f"{m:>5}x{n:<5} rank {t_rank['median']:8.3f} s"
          f" [{t_rank['q1']:.3f}, {t_rank['q3']:.3f}] {row['rank_gflops']:7.2f} GFLOP/s"
          f"   a@b {row['matmul_gflops']:7.2f} GFLOP/s   rank={r}", file=sys.stderr, flush=True)
    return row


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


def family_row(gfp, repeats: int) -> dict:
    case, mat, members = family_head()
    t_each, each = timed(lambda: [gfp.rank(mat[:, :k], PRIME) for k in members], repeats)
    family = {"case": case, "m": mat.shape[0], "n": mat.shape[1], "members": members,
              "ranks": each, "each_member_s": t_each}
    t_once, once = timed(lambda: gfp.rank(mat, PRIME, leading=members), repeats)
    assert once == each, (once, each)
    family["leading_s"] = t_once
    print(f"family {case} ({mat.shape[0]}x{mat.shape[1]}, {len(members)} members):"
          f" one elimination {t_once['median']:.3f} s"
          f" [{t_once['q1']:.3f}, {t_once['q3']:.3f}],"
          f" each member {t_each['median']:.3f} s"
          f" [{t_each['q1']:.3f}, {t_each['q3']:.3f}]", file=sys.stderr, flush=True)
    return family


@contextlib.contextmanager
def phase_split(gfp):
    """Wrap _Elimination._panel and _trsm; yields their busy seconds, reset by the caller.

    Only the outermost _trsm call of a nest is timed.  The methods are
    restored on exit.
    """
    elim = gfp._Elimination
    panel_fn, trsm_fn = elim._panel, elim._trsm
    busy = {"panel": 0.0, "trsm": 0.0}
    depth = [0]

    def panel(self, *args):
        t0 = time.perf_counter()
        try:
            return panel_fn(self, *args)
        finally:
            busy["panel"] += time.perf_counter() - t0

    def trsm(self, *args):
        t0 = time.perf_counter()
        depth[0] += 1
        try:
            return trsm_fn(self, *args)
        finally:
            depth[0] -= 1
            if not depth[0]:
                busy["trsm"] += time.perf_counter() - t0

    elim._panel, elim._trsm = panel, trsm
    try:
        yield busy
    finally:
        elim._panel, elim._trsm = panel_fn, trsm_fn


def _split(times: dict, busy: dict, rank_s: float):
    """Append one run's rank time and its phase split to times."""
    times["rank_s"].append(rank_s)
    times["panel_s"].append(busy["panel"])
    times["trsm_s"].append(busy["trsm"])
    times["rest_s"].append(rank_s - busy["panel"] - busy["trsm"])


def case_row(gfp, repeats: int, case: str, prime: int) -> dict:
    """Assembly and rank of case's transposed matrix at prime, the rank split by phase."""
    from fatpoints import interpolation
    from fatpoints.model import parse_system

    spec = parse_system(case)
    assignment = interpolation._greedy_assignment(spec)
    times = {key: [] for key in ("assembly_s", *PHASES)}
    with phase_split(gfp) as busy:
        for _ in range(repeats):
            t0 = time.perf_counter()
            mat, n_deleted = interpolation._transposed_matrix(spec, prime, FAMILY_SEED, assignment)
            t1 = time.perf_counter()
            busy.update(panel=0.0, trsm=0.0)
            got = gfp.rank(mat, prime, overwrite=True) + n_deleted
            times["assembly_s"].append(t1 - t0)
            _split(times, busy, time.perf_counter() - t1)
    row = {"case": case, "prime": prime, "dtype": str(mat.dtype), "m": mat.shape[0],
           "n": mat.shape[1], "rank": got, **{key: quartiles(vals) for key, vals in times.items()}}
    print(f"{case} ({mat.shape[0]}x{mat.shape[1]}, p = {prime}, {mat.dtype}): "
          + ", ".join(f"{key[:-2]} {row[key]['median']:.3f} s" for key in times),
          file=sys.stderr, flush=True)
    return row


def head_checks(limit: Optional[int] = None) -> list[tuple]:
    """The d = 14 family heads' attempt 1 checks, largest first.

    One (head system, prime, seed, fundamental assignment, member row counts
    after the reduction) per family, at base seed 0; limit keeps the first few.
    """
    from fatpoints import campaign, interpolation
    from fatpoints.enumeration import algorithm_b_cases
    from fatpoints.model import conditions_count

    cases = algorithm_b_cases(FAMILY_DEGREE)
    checks = []
    for first, family in campaign._families(list(enumerate(cases)))[:limit]:
        specs = [case.to_system() for _, case in family]
        prime, seed = interpolation.attempt_schedule(1, campaign._seed(0, first),
                                                     campaign._seed(0, family[-1][0]))
        assignment = interpolation._greedy_assignment(specs[-1])
        pinned = sum(conditions_count(m) for _, m in assignment)
        checks.append((specs[-1], prime, seed, assignment,
                       [spec.conditions_total - pinned for spec in specs]))
    return checks


def heads_row(gfp, repeats: int, limit: Optional[int] = None) -> dict:
    """Assembly and rank of every d = 14 family head (the first limit), the rank split by phase."""
    from fatpoints import interpolation

    checks = head_checks(limit=limit)
    times = {key: [] for key in ("assembly_s", *PHASES)}
    with phase_split(gfp) as busy:
        for _ in range(repeats):
            t0 = time.perf_counter()
            mats = [interpolation._transposed_matrix(spec, prime, seed, assignment)[0]
                    for spec, prime, seed, assignment, _ in checks]
            t1 = time.perf_counter()
            busy.update(panel=0.0, trsm=0.0)
            ranks = [gfp.rank(work, check[1], overwrite=True, leading=check[4])[-1]
                     for work, check in zip(mats, checks)]
            times["assembly_s"].append(t1 - t0)
            _split(times, busy, time.perf_counter() - t1)
    row = {"degree": FAMILY_DEGREE, "heads": len(checks), "primes": sorted({c[1] for c in checks}),
           "rank_sum": sum(ranks), **{key: quartiles(vals) for key, vals in times.items()}}
    print(f"d{FAMILY_DEGREE} heads ({len(checks)}): "
          + ", ".join(f"{key[:-2]} {row[key]['median']:.3f} s" for key in times),
          file=sys.stderr, flush=True)
    return row


def measure(src: Path, repeats: int) -> dict:
    """Every row, timed with the fatpoints package of the source tree src, in this process."""
    sys.path.insert(0, str(Path(src).resolve()))
    from fatpoints import gfp

    rng = np.random.default_rng(20261018)
    return {
        "shapes": [shape_row(gfp, m, n, repeats, rng) for m, n in SHAPES],
        "family": family_row(gfp, repeats),
        "d14.heads": heads_row(gfp, repeats),
        **{key: case_row(gfp, repeats, case, prime) for key, case, prime in CASES},
    }


def medians(result: dict) -> dict[str, float]:
    """The median of every timing of one measure() result, by name."""
    out = {}
    for row in result["shapes"]:
        out[f"{row['m']}x{row['n']}.rank_s"] = row["rank_s"]["median"]
    for key in ("each_member_s", "leading_s"):
        out[f"family.{key}"] = result["family"][key]["median"]
    for row in ("d14.heads", *(key for key, _, _ in CASES)):
        for key in result[row]:
            if key.endswith("_s"):
                out[f"{row}.{key}"] = result[row][key]["median"]
    return out


def measure_in_subprocess(src: Path, repeats: int) -> dict:
    """measure(src, repeats) in a fresh process with its BLAS pinned to one thread."""
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import bench_rank;"
            " print(json.dumps(bench_rank.measure(sys.argv[2], int(sys.argv[3]))))")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(Path(__file__).resolve().parent), str(src), str(repeats)],
        check=True, stdout=subprocess.PIPE, text=True, env={**os.environ, **PINNED_BLAS},
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reduce_rows(gfp, repeats: int, sizes=REDUCE_SIZES, calls: int = 2000) -> dict:
    """Microseconds per gfp._reduce call on each path, dtype and size, and the crossover.

    Each path is forced by setting gfp._SHORT_REDUCE to 0 (floor-based) or
    past every size (np.remainder); the calls of the two paths alternate,
    and the fastest of repeats batches of calls is kept, as the machine's
    noise only ever adds time.
    """
    p = REDUCE_PRIME
    rows = {}
    saved = gfp._SHORT_REDUCE
    try:
        for dtype in ("float32", "float64"):
            x = np.random.default_rng(0).integers(-2**20, 2**20, max(sizes)).astype(dtype)
            out = np.empty_like(x)
            per_size = []
            for n in sizes:
                best = {"floor_us": float("inf"), "remainder_us": float("inf")}
                for _ in range(repeats):
                    for key, short in (("floor_us", 0), ("remainder_us", n + 1)):
                        gfp._SHORT_REDUCE = short
                        t0 = time.perf_counter()
                        for _ in range(calls):
                            gfp._reduce(x[:n], p, out=out[:n])
                        best[key] = min(best[key], (time.perf_counter() - t0) / calls * 1e6)
                per_size.append({"size": n, **{k: round(v, 3) for k, v in best.items()}})
                print(f"{dtype} {n:>4}: floor {best['floor_us']:.2f} us,"
                      f" remainder {best['remainder_us']:.2f} us", file=sys.stderr, flush=True)
            floor_wins = [row["size"] for row in per_size if row["floor_us"] < row["remainder_us"]]
            rows[dtype] = {
                "per_size": per_size,
                "crossover": min((n for n in floor_wins
                                  if all(m in floor_wins for m in sizes if m >= n)), default=None),
            }
    finally:
        gfp._SHORT_REDUCE = saved
    return {"prime": p, "calls": calls, "repeats": repeats,
            "timing": "fastest batch of calls, microseconds per call", **rows}


def against(this: Path, other: Path, pairs: int, repeats: int) -> dict:
    """Alternated pairs of fresh-process runs of two trees: per timing, quartiles and wins."""
    sides = {"against": other, "this": this}
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    for i in range(pairs):
        order = ("against", "this") if i % 2 == 0 else ("this", "against")
        for side in order:
            runs[side].append(medians(measure_in_subprocess(sides[side], repeats)))
        print(f"pair {i + 1}/{pairs} ({order[0]} first): rank "
              + ", ".join(f"{row} {runs['against'][-1][f'{row}.rank_s']:.3f}"
                          f" -> {runs['this'][-1][f'{row}.rank_s']:.3f} s"
                          for row in ("d14.heads", *(key for key, _, _ in CASES))),
              file=sys.stderr, flush=True)
    rows = {}
    for key in runs["this"][0]:
        if not all(key in run for side in sides for run in runs[side]):
            continue
        vals = {side: [run[key] for run in runs[side]] for side in sides}
        rows[key] = {
            **{side: {**quartiles(vals[side]), "runs": vals[side]} for side in sides},
            "this_faster_pairs": sum(a < b for a, b in zip(vals["this"], vals["against"])),
            "against_faster_pairs": sum(b < a for a, b in zip(vals["this"], vals["against"])),
        }
    return {
        "pairs": pairs,
        "repeats": repeats,
        "timing": "per side, median and quartiles of the per-run medians, seconds;"
                  " each run a fresh process with one BLAS thread, sides alternating"
                  " which runs first",
        "rows": rows,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", default="change",
                    help="key the results are stored under (against-NAME with --against)")
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="source tree whose fatpoints package is timed")
    ap.add_argument("--repeats", type=int, default=None,
                    help="timings per row and run (default 5, or 3 with --against)")
    ap.add_argument("--against", type=Path, default=None,
                    help="source tree timed against --src, in alternated fresh processes")
    ap.add_argument("--pairs", type=int, default=10, help="pairs of runs with --against")
    ap.add_argument("--reduce", action="store_true",
                    help="time the two paths of gfp._reduce instead (this tree)")
    args = ap.parse_args(argv)
    repeats = args.repeats or (15 if args.reduce else 3 if args.against else 5)
    if repeats < 3:
        ap.error("--repeats must be at least 3 to give quartiles")
    if args.against is not None and args.pairs < 3:
        ap.error("--pairs must be at least 3 to give quartiles")

    data = json.loads(OUT.read_text()) if OUT.exists() else {}
    if args.reduce:
        sys.path.insert(0, str(args.src.resolve()))
        from fatpoints import gfp

        data["reduce"] = reduce_rows(gfp, repeats)
        OUT.write_text(json.dumps(data, indent=2) + "\n")
        print(f"wrote {OUT} [reduce]")
        return 0
    if args.against is not None:
        key = f"against-{args.label}"
        data[key] = against(args.src.resolve(), args.against.resolve(), args.pairs, repeats)
        OUT.write_text(json.dumps(data, indent=2) + "\n")
        print(f"wrote {OUT} [{key}]")
        return 0
    result = measure_in_subprocess(args.src, repeats)
    data.setdefault("runs", {})[args.label] = {
        "prime": PRIME,
        "repeats": repeats,
        "timing": "median and quartiles of repeats, seconds, single process, one BLAS thread",
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        **result,
    }
    OUT.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {OUT} [{args.label}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
