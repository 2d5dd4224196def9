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
import pytest

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
    # a CASES row, on a d = 14 case: its traced temporaries, in MiB and as a share of the matrix
    row = bench.case_row(gfp, 3, "14; 10^1,3^47,2^2", gfp.PRIME_LADDER[0])
    assert (row["m"], row["n"], row["dtype"]) == (430, 448, "float32")
    assert 0 < row["temp_peak_mib"] * 2**20 == pytest.approx(row["temp_share"] * 430 * 448 * 4, rel=1e-2)
    result = {"shapes": [], "family": {"each_member_s": row["rank_s"], "leading_s": row["rank_s"]},
              "d14.heads": {}, **{key: row for key, _, _ in bench.CASES}}
    assert bench.medians(result)["d30_p73.temp_share"] == row["temp_share"]
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
