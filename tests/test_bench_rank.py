"""Smoke test of benchmarks/bench_rank.py: it still runs against the package.

The script imports private helpers of fatpoints (_sample_distinct,
_greedy_assignment, _coordinate_point, _transposed_matrix,
campaign._families, gfp._Elimination) and wraps _Elimination._panel and
_trsm, whatever their arguments, to split the rank time; a rename breaks
this test rather than the next benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np

from fatpoints import gfp

ROOT = Path(__file__).resolve().parent.parent


def _bench_files() -> dict:
    return {path.name: path.stat().st_mtime_ns for path in ROOT.glob("BENCH_*.json")}


def _bench():
    spec = importlib.util.spec_from_file_location("bench_rank", ROOT / "benchmarks" / "bench_rank.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_rank_runs_one_shape_and_the_family_head():
    before = _bench_files()
    bench = _bench()
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


def test_bench_rank_splits_the_rank_of_family_heads_by_phase(monkeypatch):
    before = _bench_files()
    bench = _bench()
    methods = (gfp._Elimination._panel, gfp._Elimination._trsm)
    runs = []
    split = bench._split

    def spy(times, busy, rank_s):
        runs.append((busy["panel"], busy["trsm"], rank_s))
        split(times, busy, rank_s)

    monkeypatch.setattr(bench, "_split", spy)
    row = bench.heads_row(gfp, 3, limit=3)
    assert (gfp._Elimination._panel, gfp._Elimination._trsm) == methods
    assert row["heads"] == 3 and row["primes"] == [gfp.PRIME_LADDER[0]]
    # every run's panel and solve time lies within its rank time
    assert len(runs) == 3
    assert all(0 < panel and 0 < trsm and panel + trsm <= rank_s for panel, trsm, rank_s in runs)
    with bench.phase_split(gfp):
        assert (gfp._Elimination._panel, gfp._Elimination._trsm) != methods
    assert (gfp._Elimination._panel, gfp._Elimination._trsm) == methods
    assert _bench_files() == before
