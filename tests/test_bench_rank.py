"""Smoke test of benchmarks/bench_rank.py: it still runs against the package.

The script imports private helpers of fatpoints (_sample_distinct,
_greedy_assignment, _coordinate_point, gfp._Elimination); a rename breaks
this test rather than the next benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np

from fatpoints import gfp

ROOT = Path(__file__).resolve().parent.parent


def _bench_files() -> dict:
    return {path.name: path.stat().st_mtime_ns for path in ROOT.glob("BENCH_*.json")}


def test_bench_rank_runs_one_shape_and_the_family_head():
    before = _bench_files()
    spec = importlib.util.spec_from_file_location("bench_rank", ROOT / "benchmarks" / "bench_rank.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    row = bench.shape_row(gfp, 300, 280, 3, np.random.default_rng(0))
    assert (row["m"], row["n"], row["rank"]) == (300, 280, 280)
    assert row["rank_s"]["q1"] <= row["rank_s"]["median"] <= row["rank_s"]["q3"]
    case, mat, members = bench.family_head()
    assert mat.flags.c_contiguous and mat.shape[1] == max(members)
    assert gfp.rank(mat, bench.PRIME, leading=members) == [
        gfp.rank(mat[:, :k], bench.PRIME) for k in members]
    short = gfp._SHORT_REDUCE
    rows = bench.reduce_rows(gfp, 3, sizes=(16, 96), calls=10)
    assert gfp._SHORT_REDUCE == short
    assert [row["size"] for row in rows["float32"]["per_size"]] == [16, 96]
    assert rows["float64"]["crossover"] in (16, 96, None)
    assert _bench_files() == before
