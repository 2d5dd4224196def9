"""Acceptance suite: one test per shipping criterion, at the stated budgets.

Each test prints a PASS line with its measurement; run with -s to watch.
Criterion 8 is the extended sweep (degrees 15-18 plus one d=40 case) and is
marked slow; it still runs by default and can be skipped with -m "not slow".
"""

import json
import random
import time

import pytest

from fatpoints.campaign import (
    CampaignConfig,
    ResultStore,
    run_campaign,
    verify_log,
)
from fatpoints.enumeration import (
    algorithm_b_cases,
    count_algorithm_a,
    count_algorithm_b,
)
from fatpoints.interpolation import check_case, check_family
from fatpoints.model import SystemSpec, conditions_count, edim, vdim
from fatpoints.reduction import closure_audit

from _oracles import rational_oracle


def _random_small_spec(rng):
    d = rng.randrange(1, 5)
    counts = {}
    total = 0
    while True:
        m = rng.choice((1, 2, 3, 4))
        if total + conditions_count(m) > 40:
            break
        counts[m] = counts.get(m, 0) + 1
        total += conditions_count(m)
        if rng.random() < 0.2:
            break
    return SystemSpec(d, counts)


def test_criterion_1_dimension_identities():
    t0 = time.perf_counter()
    assert vdim(SystemSpec(3, {2: 5})) == -1
    pairs = [(a, 22 - 2 * a) for a in range(12)]
    assert len(pairs) == 12
    for a, b in pairs:
        assert vdim(SystemSpec(9, {4: a, 3: b})) == -1
    for degree, total in ((13, 56), (14, 68), (17, 114), (19, 154)):
        for a in range(total // 2 + 1):
            assert vdim(SystemSpec(degree, {4: a, 3: total - 2 * a})) == -1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: dimension identities exact ({elapsed:.3f}s < 1s)")


def test_criterion_2_enumeration_counts():
    t0 = time.perf_counter()
    assert count_algorithm_a(14) == 6816
    assert count_algorithm_b(14) == 261
    assert count_algorithm_a(40) == 2294011
    cases40 = algorithm_b_cases(40)
    assert len(cases40) == 22
    assert all(case.q == 56 for case in cases40)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(
        "\nPASS criterion 2: counts 6816/261/2294011/22 (all q=56)"
        f" ({elapsed:.2f}s < 5s)"
    )


def test_criterion_3_d14_rank_verification(d14_run):
    stats = d14_run["summary"]["degrees"][14]
    assert stats["expected"] == 261
    assert stats["non_special"] == 261
    assert stats["inconclusive"] == 0
    assert set(stats) == {"expected", "done", "non_special", "inconclusive"}
    store = ResultStore.load(d14_run["path"])
    assert store.tally(14) == {"non_special": 261, "inconclusive": 0}
    assert d14_run["elapsed"] < 1800
    print(
        "\nPASS criterion 3: all 261 d=14 cases non-special"
        f" ({d14_run['elapsed']:.0f}s < 1800s)"
    )


def test_criterion_4_special_system_sensitivity():
    t0 = time.perf_counter()
    plane_pair = check_case(SystemSpec(2, {2: 2}), seed=2)
    assert plane_pair.verdict == "inconclusive"
    assert plane_pair.rank == 7 < 8
    assert plane_pair.N - 1 - plane_pair.rank == 2 > edim(SystemSpec(2, {2: 2})) == 1

    double_quadric = check_case(SystemSpec(4, {2: 9}), seed=2)
    assert double_quadric.verdict == "inconclusive"
    assert double_quadric.rank <= 34 < 35
    assert double_quadric.N - 1 - double_quadric.rank >= 0 > -1 == edim(SystemSpec(4, {2: 9}))
    for seed in range(5):
        cert = check_family([SystemSpec(4, {2: 9})], seed)[0]
        assert cert.verdict == "inconclusive" and cert.rank <= 34
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    print(
        "\nPASS criterion 4: special systems stay uncertified"
        f" (ranks 7<8 and <=34<35; {elapsed:.2f}s < 60s)"
    )


def test_criterion_5_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(20260808)
    checked = 0
    while checked < 100:
        spec = _random_small_spec(rng)
        cert = check_case(spec, seed=rng.randrange(10**9))
        dim_modular = cert.N - 1 - cert.rank
        dim_rational = rational_oracle(spec, seed=rng.randrange(10**9))
        assert dim_modular == dim_rational, f"{spec}: {dim_modular} != {dim_rational}"
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    print(
        f"\nPASS criterion 5: prime-field dim == rational dim on {checked} specs"
        f" ({elapsed:.1f}s < 300s)"
    )


def test_criterion_6_certificate_replay(d14_run, tmp_path):
    t0 = time.perf_counter()
    report = verify_log(d14_run["path"], full=True)
    assert report.total == report.replayed == 261
    assert report.ok, report.to_dict()

    lines = d14_run["path"].read_text().splitlines()
    record = json.loads(lines[130])
    forged = dict(record, rank=record["rank"] - 1, verdict="inconclusive")
    faulty = tmp_path / "faulty.jsonl"
    faulty.write_text("\n".join(lines[:130] + [json.dumps(forged)] + lines[131:]) + "\n")
    bad = verify_log(faulty, full=True)
    assert len(bad.mismatches) == 1
    assert bad.mismatches[0]["case"] == forged["case"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    print(
        "\nPASS criterion 6: full replay clean, fault injection caught"
        f" ({elapsed:.0f}s < 600s)"
    )


def test_criterion_7_closure_audit(d14_run):
    t0 = time.perf_counter()
    store = ResultStore.load(d14_run["path"])
    report = closure_audit(14, store)
    assert report.gaps == []
    assert report.targets_checked > 80000
    elapsed = time.perf_counter() - t0
    assert elapsed < 1200
    print(
        f"\nPASS criterion 7: closure audit of {report.targets_checked} signatures,"
        f" zero gaps ({elapsed:.0f}s < 1200s)"
    )


@pytest.mark.slow
def test_criterion_8_extended_campaign(d14_run, tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "d15to18.jsonl"
    summary = run_campaign(
        CampaignConfig(degrees=(15, 18), out=out, base_seed=2026)
    )
    assert summary["ok"], summary
    for d in range(15, 18 + 1):
        stats = summary["degrees"][d]
        assert stats["expected"] == stats["non_special"]
        assert stats["inconclusive"] == 0
    sweep_elapsed = time.perf_counter() - t0 + d14_run["elapsed"]
    assert sweep_elapsed < 8 * 3600

    t1 = time.perf_counter()
    # one of the sweep's widest matrices, at the campaign's first prime:
    # float32 near its bound (min(rows, columns) = 11 458, of the 12 945
    # that p = 73 admits)
    case = algorithm_b_cases(40)[0]
    cert = check_case(case.to_system(), seed=40)
    d40_elapsed = time.perf_counter() - t1
    assert cert.verdict == "non_special"
    assert cert.N == 12341
    assert d40_elapsed < 3600
    print(
        "\nPASS criterion 8: degrees 14-18 all non-special"
        f" ({sweep_elapsed:.0f}s < 8h), one d=40 case ({case.key()})"
        f" non-special ({d40_elapsed:.0f}s < 3600s)"
    )
