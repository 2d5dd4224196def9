import json
import multiprocessing
import os

import pytest

from fatpoints import campaign
from fatpoints import interpolation
from fatpoints.campaign import (
    CampaignConfig,
    CertRecord,
    ResultStore,
    _family_firsts,
    _shard_indices,
    run_campaign,
    status,
    verify_log,
)
from fatpoints.enumeration import algorithm_b_cases
from fatpoints.interpolation import Certificate, check_case, replay_certificate
from fatpoints.model import CaseSignature

SHARD = (5, 87)  # 3 of the 261 d=14 cases: keeps unit runs quick
# 131 d=14 cases in families of up to 3: family (1, 0, 46) holds cases 3..7,
# of which 4 and 6 are in this shard; family (1, 1, 44) holds 14, 16 and 18
FAMILY_SHARD = (1, 2)


# The header a campaign wrote for _tiny_config before headers carried env
PRE_ENV_HEADER = {
    "header": True, "version": "0.1.0", "numpy": "2.4.6", "digest": "840c83116bc0e93a",
    "config": {"degrees": [14, 14], "primes": [32003, 65537, 104729], "base_seed": 7,
               "max_attempts": 3, "shard": [5, 87], "fundamental": True, "seed_rule": "family"},
}


def _family_seed(case_key, base_seed=7, max_attempts=3):
    d, q, x, y, _ = case_key
    return base_seed + _family_firsts(algorithm_b_cases(d))[(q, x, y)] * max_attempts


def _strip(lines):
    """Records of a log, without elapsed_ms, in case index order."""
    records = [json.loads(line) for line in lines if not json.loads(line).get("header")]
    for rec in records:
        rec.pop("elapsed_ms", None)
    return sorted(records, key=lambda r: r["index"])


def _tiny_config(out, **kw):
    defaults = dict(degrees=(14, 14), out=out, shard=SHARD, base_seed=7)
    defaults.update(kw)
    return CampaignConfig(**defaults)


def test_config_validation(tmp_path):
    with pytest.raises(ValueError):
        CampaignConfig(degrees=(12, 14), out=tmp_path / "x.jsonl")
    with pytest.raises(ValueError):
        CampaignConfig(degrees=(14, 14), out=tmp_path / "x.jsonl", shard=(0, 4))
    with pytest.raises(ValueError):
        CampaignConfig(degrees=(14, 14), out=tmp_path / "x.jsonl", shard=(5, 4))
    with pytest.raises(ValueError):
        CampaignConfig(degrees=(14, 14), out=tmp_path / "x.jsonl", max_attempts=0)
    with pytest.raises(ValueError, match="base_seed"):
        CampaignConfig(degrees=(14, 14), out=tmp_path / "x.jsonl", base_seed=-1)
    digest = CampaignConfig(degrees=(14, 14), out=tmp_path / "x.jsonl").digest()
    assert len(digest) == 16


def test_sharding_is_a_partition():
    for total in (1, 5, 261, 1000):
        for n in (1, 2, 3, 7, 87):
            shards = [_shard_indices(total, (i, n)) for i in range(1, n + 1)]
            flat = sorted(idx for shard in shards for idx in shard)
            assert flat == list(range(total))


def _families_in_log(records):
    """The log's records cut into runs of one (q, x, y), in log order."""
    families = []
    for rec in records:
        if families and families[-1][-1]["case"][1:4] == rec["case"][1:4]:
            families[-1].append(rec)
        else:
            families.append([rec])
    return families


def test_run_campaign_and_log_shape(tmp_path):
    out = tmp_path / "log.jsonl"
    summary = run_campaign(_tiny_config(out))
    stats = summary["degrees"][14]
    assert stats["expected"] == 3
    assert stats["non_special"] == 3
    assert stats["inconclusive"] == stats["error"] == 0
    assert summary["computed"] == 3
    assert summary["ok"]

    lines = out.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["header"] is True
    assert header["digest"] == _tiny_config(out).digest()
    records = [json.loads(line) for line in lines[1:]]
    assert len(records) == 3
    expected_keys = {tuple(algorithm_b_cases(14)[i].key()) for i in _shard_indices(261, SHARD)}
    assert {tuple(r["case"]) for r in records} == expected_keys
    # three families of one, written biggest head first whichever worker
    # finished first
    families = _families_in_log(records)
    assert len(families) == 3
    heads = [max(r["S"] for r in family) for family in families]
    assert heads == sorted(heads, reverse=True)


def test_header_env_leaves_the_digest_alone(tmp_path):
    out = tmp_path / "log.jsonl"
    config = _tiny_config(out)
    run_campaign(config)
    header = json.loads(out.read_text().splitlines()[0])
    env = header["env"]
    assert set(env) == {"workers", "blas_threads_per_worker", "cpus", "mem_available_bytes"}
    assert env["workers"] == config.effective_threads()
    assert env["blas_threads_per_worker"] == (1 if env["workers"] > 1 else None)
    assert env["cpus"] >= 1 and env["mem_available_bytes"] > 0
    assert "env" not in header["config"]
    # the digest of this config in a log written before the env field
    assert header["digest"] == config.digest() == "840c83116bc0e93a"

    # a log written before the env field is resumed, not refused
    old = tmp_path / "old.jsonl"
    old.write_text(json.dumps(PRE_ENV_HEADER) + "\n")
    summary = run_campaign(_tiny_config(old, resume=True))
    assert summary["computed"] == 3 and summary["ok"], summary
    lines = old.read_text().splitlines()
    assert json.loads(lines[0]) == PRE_ENV_HEADER
    assert _strip(lines) == _strip(out.read_text().splitlines())
    assert verify_log(old, full=True).ok


def test_refuses_to_clobber_existing_log(tmp_path):
    out = tmp_path / "log.jsonl"
    run_campaign(_tiny_config(out))
    with pytest.raises(FileExistsError):
        run_campaign(_tiny_config(out))


def test_resume_is_idempotent(tmp_path):
    out = tmp_path / "log.jsonl"
    first = run_campaign(_tiny_config(out))
    assert first["computed"] == 3
    again = run_campaign(_tiny_config(out, resume=True))
    assert again["computed"] == 0
    assert again["ok"]
    store = ResultStore.load(out)
    assert len(store) == 3


def test_resume_after_truncated_line(tmp_path):
    out = tmp_path / "log.jsonl"
    run_campaign(_tiny_config(out))
    text = out.read_text()
    last = text.rstrip("\n").rfind("\n") + 1
    out.write_text(text[: last + (len(text) - last) // 2])  # killed mid-write
    assert len(ResultStore.load(out)) == 2
    summary = run_campaign(_tiny_config(out, resume=True))
    assert summary["computed"] == 1
    assert len(ResultStore.load(out)) == 3
    report = verify_log(out)
    assert report.total == 3 and not report.corrupt and report.ok
    assert run_campaign(_tiny_config(out, resume=True))["computed"] == 0


def test_resume_refuses_a_log_of_another_config(tmp_path):
    out = tmp_path / "log.jsonl"
    run_campaign(_tiny_config(out))
    before = out.read_bytes()
    other = _tiny_config(out, shard=(6, 87), base_seed=999, max_attempts=1, resume=True)
    with pytest.raises(ValueError, match="another config"):
        run_campaign(other)
    assert out.read_bytes() == before

    headless = tmp_path / "headless.jsonl"
    headless.write_bytes(before[before.index(b"\n") + 1:])
    with pytest.raises(ValueError, match="no header"):
        run_campaign(_tiny_config(headless, resume=True))
    assert headless.read_bytes() == before[before.index(b"\n") + 1:]

    # a run killed while writing its header left no records: resume starts afresh
    cut = tmp_path / "cut.jsonl"
    cut.write_bytes(before[: before.index(b"\n") // 2])
    assert run_campaign(_tiny_config(cut, resume=True))["computed"] == 3
    assert json.loads(cut.read_text().splitlines()[0])["digest"] == _tiny_config(cut).digest()


def test_shard_certificates_match_unsharded_seeds(tmp_path):
    # same base seed: a sharded run must produce identical logs, line for line
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    run_campaign(_tiny_config(out_a))
    run_campaign(_tiny_config(out_b))
    # elapsed_ms and the header's env (free memory, say) describe the run, not the proof
    strip = lambda lines: [
        {k: v for k, v in json.loads(l).items() if k not in ("elapsed_ms", "env")} for l in lines
    ]
    assert strip(out_a.read_text().splitlines()) == strip(out_b.read_text().splitlines())


def test_store_duplicate_detection():
    store = ResultStore()
    case = CaseSignature(14, 1, 0, 44, 3)
    store.add(CertRecord(case, 0, None, "boom"))
    assert store.cases(14)[0][2] == "error" and not store.finished(case.key())
    # a retry may follow error records; the latest wins
    store.add(CertRecord(case, 0, None, "again"))
    cert = check_case(case.to_system(), seed=1, fundamental=True)
    store.add(CertRecord(case, 0, cert))
    assert len(store) == 1 and store.finished(case.key())
    assert store.cases(14)[0][2] == "non_special"
    # after a record that is not an error, any further record is a duplicate
    for later in (CertRecord(case, 0, cert), CertRecord(case, 0, None, "late")):
        with pytest.raises(ValueError):
            store.add(later)


def test_verify_log_clean_and_faulty(tmp_path):
    out = tmp_path / "log.jsonl"
    run_campaign(_tiny_config(out))
    report = verify_log(out, full=True)
    assert report.total == 3
    assert report.replayed == 3
    assert report.ok

    lines = out.read_text().splitlines()
    record = json.loads(lines[1])
    # structural fault: rank no longer matches the verdict
    broken = dict(record, rank=record["rank"] - 1)
    (tmp_path / "structural.jsonl").write_text(
        "\n".join([lines[0], json.dumps(broken)] + lines[2:]) + "\n"
    )
    rep = verify_log(tmp_path / "structural.jsonl", full=True)
    assert len(rep.structural) == 1 and not rep.ok

    # replay fault: consistent on paper, wrong rank underneath
    forged = dict(record, rank=record["rank"] - 1, verdict="inconclusive")
    (tmp_path / "forged.jsonl").write_text(
        "\n".join([lines[0], json.dumps(forged)] + lines[2:]) + "\n"
    )
    rep = verify_log(tmp_path / "forged.jsonl", full=True)
    assert len(rep.mismatches) == 1
    assert rep.mismatches[0]["replayed_rank"] == record["rank"]

    # corrupt interior line is reported with its number
    (tmp_path / "corrupt.jsonl").write_text(
        "\n".join([lines[0], "not json at all"] + lines[2:]) + "\n"
    )
    rep = verify_log(tmp_path / "corrupt.jsonl", full=True)
    assert rep.corrupt == [{"line": 2, "error": rep.corrupt[0]["error"]}]
    assert "JSON" in rep.corrupt[0]["error"]

    # duplicate case
    (tmp_path / "dup.jsonl").write_text(
        "\n".join([lines[0], lines[1], lines[1]] + lines[2:]) + "\n"
    )
    rep = verify_log(tmp_path / "dup.jsonl", full=True)
    assert any("duplicate" in c["error"] for c in rep.corrupt)


def test_verify_checks_seed_and_prime_against_header(tmp_path):
    out = tmp_path / "log.jsonl"
    run_campaign(_tiny_config(out))
    lines = out.read_text().splitlines()
    record = json.loads(lines[1])
    assert record["attempts"] == 1 and record["seed"] == _family_seed(record["case"])
    for name, bad in (
        ("seed", dict(record, seed=record["seed"] + 1000)),
        # a prime that rank refuses is reported, not replayed
        ("prime", dict(record, prime=2**31 - 1)),
    ):
        path = tmp_path / f"{name}.jsonl"
        path.write_text("\n".join([lines[0], json.dumps(bad)] + lines[2:]) + "\n")
        rep = verify_log(path, full=True)
        assert len(rep.structural) == 1 and rep.replayed == 2, rep.to_dict()
        assert rep.structural[0]["line"] == 2 and name in rep.structural[0]["error"]

    # without a header, no record has a seed and prime to be checked against
    (tmp_path / "headless.jsonl").write_text("\n".join(lines[1:]) + "\n")
    rep = verify_log(tmp_path / "headless.jsonl", full=True)
    assert len(rep.structural) == 3 and rep.replayed == 0

    # a concatenation of shard logs checks each record against its own header
    other = tmp_path / "other.jsonl"
    run_campaign(_tiny_config(other, shard=(6, 87), base_seed=11))
    both = tmp_path / "both.jsonl"
    both.write_text(out.read_text() + other.read_text())
    rep = verify_log(both, full=True)
    assert rep.ok and rep.replayed == 6, rep.to_dict()


def test_verify_empty_log(tmp_path):
    out = tmp_path / "empty.jsonl"
    out.write_text('{"header": true}\n')
    report = verify_log(out, full=True)
    assert report.total == 0 and report.ok


def test_status_counts(tmp_path):
    rows = status(tmp_path / "missing.jsonl", (14, 14))
    assert rows == [
        {
            "degree": 14,
            "expected": 261,
            "done": 0,
            "non_special": 0,
            "inconclusive": 0,
            "errors": 0,
            "pending": 261,
        }
    ]
    out = tmp_path / "log.jsonl"
    run_campaign(_tiny_config(out))
    row = status(out, (14, 14))[0]
    assert row["done"] == 3
    assert row["done"] + row["pending"] == row["expected"] == 261
    assert row["non_special"] == 3


def test_family_seed_rule_verifies(tmp_path):
    out = tmp_path / "log.jsonl"
    run_campaign(_tiny_config(out, shard=FAMILY_SHARD))
    lines = out.read_text().splitlines()
    assert json.loads(lines[0])["config"]["seed_rule"] == "family"
    # each family's records are together, in ascending z, biggest head first
    families = _families_in_log([json.loads(line) for line in lines[1:]])
    assert len(families) == len({tuple(f[0]["case"][1:4]) for f in families})
    for family in families:
        assert [r["case"][4] for r in family] == sorted(r["case"][4] for r in family)
    heads = [family[-1]["S"] for family in families]
    assert heads == sorted(heads, reverse=True)
    records = _strip(lines[1:])
    assert len(records) == 131
    for rec in records:
        assert rec["attempts"] == 1 and rec["seed"] == _family_seed(rec["case"])
    by_index = {rec["index"]: rec for rec in records}
    # members of one family share the seed, also when the family's first case
    # is in another shard
    assert len({by_index[i]["seed"] for i in (14, 16, 18)}) == 1
    assert by_index[4]["seed"] == by_index[6]["seed"] == 7 + 3 * 3
    report = verify_log(out, full=True)
    assert report.ok and report.replayed == 131, report.to_dict()

    # a member carrying its per-case seed under a family header is structural
    line = next(i for i, text in enumerate(lines) if json.loads(text).get("index") == 6)
    rec = json.loads(lines[line])
    per_case = dict(rec, seed=7 + 6 * 3)
    assert per_case["seed"] != rec["seed"]
    bad = tmp_path / "per_case.jsonl"
    bad.write_text("\n".join(lines[:line] + [json.dumps(per_case)] + lines[line + 1:]) + "\n")
    rep = verify_log(bad)
    assert [p["line"] for p in rep.structural] == [line + 1]
    assert "seed" in rep.structural[0]["error"]


def test_shard_logs_concatenate_whatever_the_families(tmp_path):
    # shards 1/4 and 3/4 split shard 1/2 and its families differently
    half = tmp_path / "half.jsonl"
    run_campaign(_tiny_config(half, shard=FAMILY_SHARD))
    quarters = []
    for i in (1, 3):
        part = tmp_path / f"quarter{i}.jsonl"
        run_campaign(_tiny_config(part, shard=(i, 4)))
        quarters += part.read_text().splitlines()
    assert _strip(quarters) == _strip(half.read_text().splitlines())


def test_old_header_logs_keep_the_per_case_rule(tmp_path):
    # a log written before families: no seed_rule, check_case per case
    config = _tiny_config(tmp_path / "old.jsonl")
    fields = config.digest_fields()
    del fields["seed_rule"]
    lines = [json.dumps({"header": True, "config": fields})]
    cases = algorithm_b_cases(14)
    for idx in _shard_indices(len(cases), SHARD):
        cert = check_case(cases[idx].to_system(), prime=32003, seed=7 + idx * 3,
                          max_attempts=3, fundamental=True)
        lines.append(CertRecord(cases[idx], idx, cert).to_line())
    config.out.write_text("\n".join(lines) + "\n")
    report = verify_log(config.out, full=True)
    assert report.ok and report.replayed == 3 and not report.structural, report.to_dict()
    # it cannot be resumed: the digest differs
    with pytest.raises(ValueError):
        run_campaign(_tiny_config(config.out, resume=True))


def test_short_member_is_retried_alone(tmp_path, monkeypatch):
    real_rank = interpolation.rank

    def short_prefix(mat, *args, leading=None, **kwargs):
        ranks = real_rank(mat, *args, leading=leading, **kwargs)
        if leading is not None and len(leading) > 1:
            ranks[0] -= 1  # the smallest member of a real family falls short
        return ranks

    # the patch reaches no spawned worker: one worker runs the families'
    # units, _family_unit, in this process
    monkeypatch.setattr(interpolation, "rank", short_prefix)
    monkeypatch.setattr(campaign, "worker_count", lambda peaks: 1)
    out = tmp_path / "log.jsonl"
    summary = run_campaign(_tiny_config(out, shard=FAMILY_SHARD))
    assert summary["ok"], summary
    records = {rec["index"]: rec for rec in _strip(out.read_text().splitlines()[1:])}
    # the smallest shard member of family (1, 0, 46) ran again at its own seed
    assert records[4]["attempts"] == 2 and records[4]["seed"] == 7 + 4 * 3 + 1
    assert records[6]["attempts"] == 1 and records[6]["seed"] == 7 + 3 * 3
    assert records[16]["attempts"] == records[18]["attempts"] == 1
    monkeypatch.undo()
    report = verify_log(out)
    assert report.ok and report.total == 131, report.to_dict()
    assert replay_certificate(Certificate.from_dict(dict(records[4], elapsed_ms=0))) == records[4]["rank"]


def test_error_records_are_retried_on_resume(tmp_path):
    out = tmp_path / "log.jsonl"
    run_campaign(_tiny_config(out))
    lines = out.read_text().splitlines()
    record = json.loads(lines[2])
    error = {"case": record["case"], "index": record["index"], "error": "out of memory: x"}
    out.write_text("\n".join(lines[:2] + [json.dumps(error)] + lines[3:]) + "\n")
    assert not ResultStore.load(out).finished(record["case"])

    summary = run_campaign(_tiny_config(out, resume=True))
    assert summary["computed"] == 1 and summary["ok"], summary
    assert summary["degrees"][14]["non_special"] == 3
    lines = out.read_text().splitlines()
    assert len(lines) == 5  # header, two records, the error and its retry
    retry = json.loads(lines[-1])
    assert retry["case"] == record["case"] and retry["verdict"] == "non_special"
    store = ResultStore.load(out)
    assert len(store) == 3 and all(r.cert is not None for r in store.records())
    report = verify_log(out, full=True)
    assert report.ok and report.total == report.replayed == 3, report.to_dict()
    assert run_campaign(_tiny_config(out, resume=True))["computed"] == 0

    # two records of one case that are not errors stay a duplicate
    dup = tmp_path / "dup.jsonl"
    dup.write_text("\n".join(lines + [lines[-1]]) + "\n")
    with pytest.raises(ValueError, match="duplicate"):
        ResultStore.load(dup)
    assert any("duplicate" in c["error"] for c in verify_log(dup).corrupt)


@pytest.mark.parametrize("caller", [None, "4"])
def test_workers_run_blas_on_one_thread(monkeypatch, caller):
    if caller is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", caller)
    before = dict(os.environ)
    tasks = [("OPENBLAS_NUM_THREADS",)] * 4
    assert [got() for got in campaign._run_units(os.getenv, tasks, 2)] == ["1"] * 4
    assert dict(os.environ) == before
    # one worker is this process, with the caller's own setting
    assert [got() for got in campaign._run_units(os.getenv, tasks, 1)] == [caller] * 4


def test_worker_count(monkeypatch):
    gib = 2**30
    monkeypatch.setattr(campaign, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(campaign, "_mem_available", lambda: 7 * gib)
    assert campaign.worker_count([]) == 1
    assert campaign.worker_count([gib] * 3) == 3  # no more workers than units
    assert campaign.worker_count([gib] * 20) == 7  # memory for 7 of the largest
    assert campaign.worker_count([gib] * 19 + [2 * gib]) == 3
    assert campaign.worker_count([8 * gib, gib]) == 1
    monkeypatch.setattr(campaign, "_usable_cpus", lambda: 2)
    assert campaign.worker_count([gib] * 20) == 2
    # two d = 40 cases fit in 7 GiB
    d40 = max(algorithm_b_cases(40), key=lambda case: case.conditions_total)
    assert campaign.worker_count([interpolation.peak_bytes(d40.to_system())] * 4) == 2
    # a replaced callee would not be seen by a worker: the units run here
    monkeypatch.setattr(campaign, "replay_certificate", lambda cert: 0)
    assert campaign.worker_count([gib] * 20) == 1


def test_resume_counts_workers_over_the_families_left(tmp_path, monkeypatch):
    out = tmp_path / "log.jsonl"
    monkeypatch.setattr(campaign, "_usable_cpus", lambda: 2)
    config = _tiny_config(out)
    assert config.effective_threads() == 2  # three families of one
    run_campaign(config)
    lines = out.read_text().splitlines()
    out.write_text("\n".join(lines[:-1]) + "\n")  # the last family is left
    resumed = _tiny_config(out, resume=True)
    assert resumed.effective_threads() == 1

    real_run_units = campaign._run_units
    seen = []

    def run_units(fn, tasks, workers):
        seen.append((len(tasks), workers))
        return real_run_units(fn, tasks, workers)

    monkeypatch.setattr(campaign, "_run_units", run_units)
    summary = run_campaign(resumed)
    assert summary["ok"] and summary["computed"] == 1, summary
    assert seen == [(1, 1)]  # in this process, with its own BLAS threads
    assert out.read_text().splitlines()[:-1] == lines[:-1]


def _write_cgroup(group, limit, usage, cache, names):
    group.mkdir(parents=True, exist_ok=True)
    limit_file, usage_file, cache_key = names
    (group / limit_file).write_text(f"{limit}\n")
    (group / usage_file).write_text(f"{usage}\n")
    (group / "memory.stat").write_text(f"anon {usage - cache}\n{cache_key} {cache}\n")


def test_memory_cgroup_limits_bound_available_memory(tmp_path, monkeypatch):
    gib = 2**30
    mount = tmp_path / "cgroup"
    self_cgroup = tmp_path / "self_cgroup"
    monkeypatch.setattr(campaign, "_CGROUP_MOUNT", mount)
    monkeypatch.setattr(campaign, "_SELF_CGROUP", self_cgroup)
    v2 = ("memory.max", "memory.current", "inactive_file")
    self_cgroup.write_text("0::/box/job\n")
    _write_cgroup(mount / "box" / "job", "max", gib, 0, v2)
    assert campaign._cgroup_headroom() is None  # no limit anywhere
    # an ancestor's limit binds; inactive page cache counts as free
    _write_cgroup(mount / "box", 3 * gib, 2 * gib, gib // 2, v2)
    assert campaign._cgroup_headroom() == 3 * gib // 2
    _write_cgroup(mount / "box" / "job", 2 * gib, 2 * gib, 0, v2)
    assert campaign._cgroup_headroom() == 0
    assert campaign._mem_available() == 0
    assert campaign.worker_count([gib] * 4) == 1

    # the v1 memory controller, next to a v2 line without the controller
    v1 = ("memory.limit_in_bytes", "memory.usage_in_bytes", "total_inactive_file")
    self_cgroup.write_text("4:memory:/box\n1:cpu:/other\n0::/\n")
    _write_cgroup(mount / "memory" / "box", 5 * gib, gib, 0, v1)
    assert campaign._cgroup_headroom() == 4 * gib
    assert campaign._mem_available() <= 4 * gib


def _dying_family_unit(config, first, family):
    """The campaign's unit, except that the worker of the biggest family dies."""
    if family[-1][1].key() == DYING_HEAD:
        assert multiprocessing.parent_process() is not None, "must not end the test process"
        os._exit(3)
    return campaign._family_unit(config, first, family)


# the biggest family of SHARD, the one submitted first
DYING_HEAD = max((algorithm_b_cases(14)[i] for i in _shard_indices(261, SHARD)),
                 key=lambda case: case.conditions_total).key()


def test_dead_worker_leaves_error_records_that_resume_retries(tmp_path, monkeypatch):
    out = tmp_path / "log.jsonl"
    if _tiny_config(out).effective_threads() < 2:
        pytest.skip("one worker runs the units in this process")
    monkeypatch.setattr(campaign, "_family_unit", _dying_family_unit)
    summary = run_campaign(_tiny_config(out))
    assert not summary["ok"] and summary["computed"] == 3
    assert 1 <= summary["errors"] == summary["degrees"][14]["error"] <= 3
    records = [json.loads(line) for line in out.read_text().splitlines()[1:]]
    assert records[0]["case"] == list(DYING_HEAD)
    assert "BrokenProcessPool" in records[0]["error"]
    assert sum("error" in r for r in records) == summary["errors"]
    monkeypatch.undo()

    again = run_campaign(_tiny_config(out, resume=True))
    assert again["ok"] and again["computed"] == summary["errors"], again
    assert len(ResultStore.load(out)) == 3
    report = verify_log(out, full=True)
    assert report.ok and report.replayed == 3, report.to_dict()


def test_verify_reports_mismatches_in_line_order(tmp_path):
    out = tmp_path / "log.jsonl"
    run_campaign(_tiny_config(out, shard=(3, 29)))  # 9 records
    lines = out.read_text().splitlines()
    forged_at = [2, 5, 9]
    for i in forged_at:
        rec = json.loads(lines[i])
        lines[i] = json.dumps(dict(rec, rank=rec["rank"] - 1, verdict="inconclusive"))
    out.write_text("\n".join(lines) + "\n")
    report = verify_log(out, full=True)
    assert report.replayed == 9 and not report.structural, report.to_dict()
    assert [m["line"] for m in report.mismatches] == [i + 1 for i in forged_at]
