"""Smoke test of benchmarks/bench_pool.py: one side of a pair still runs on this tree.

The script times four CLI processes (campaign and verify --full at d = 14,
audit-closure -d 14, and the d = 30 shard 1/35 campaign) and checks their
output; a change to the CLI, the log format or the audit's JSON that breaks
it fails here rather than in the next comparison of two trees.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bench_files() -> dict:
    return {path.name: path.stat().st_mtime_ns for path in ROOT.glob("BENCH_*.json")}


def _bench():
    spec = importlib.util.spec_from_file_location("bench_pool", ROOT / "benchmarks" / "bench_pool.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_pool_runs_one_side_on_this_tree(tmp_path):
    before = _bench_files()
    bench = _bench()
    wall, rss, outs = bench.one_side(bench.SRC, tmp_path)
    assert set(wall) == set(rss) == set(bench.STAGES)
    assert all(wall[stage] > 0 and rss[stage] > 0 for stage in bench.STAGES)
    report = json.loads(outs["verify_d14"].strip().splitlines()[-1])
    assert report["ok"] and report["replayed"] == 261
    audit = json.loads(outs["audit_d14"])
    assert audit["ok"] and audit["targets"] == 85100
    assert len(outs["campaign_d14"]) == 261
    assert len(outs["campaign_d30_shard"]) == 3
    assert not any("elapsed_ms" in record for record in outs["campaign_d14"])
    assert outs["header"]["config"]["base_seed"] == bench.SEED
    assert _bench_files() == before
