import json

import pytest

from fatpoints import campaign
from fatpoints.campaign import (
    CampaignConfig,
    CertRecord,
    ResultStore,
    _shard_indices,
    run_campaign,
    status,
    verify_log,
)
from fatpoints.enumeration import algorithm_b_cases
from fatpoints.interpolation import check_case
from fatpoints.model import CaseSignature

SHARD = (5, 87)  # 3 of the 261 d=14 cases: keeps unit runs quick


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
    digest = CampaignConfig(degrees=(14, 14), out=tmp_path / "x.jsonl").digest()
    assert len(digest) == 16


def test_sharding_is_a_partition():
    for total in (1, 5, 261, 1000):
        for n in (1, 2, 3, 7, 87):
            shards = [_shard_indices(total, (i, n)) for i in range(1, n + 1)]
            flat = sorted(idx for shard in shards for idx in shard)
            assert flat == list(range(total))


def test_run_campaign_and_log_shape(tmp_path, monkeypatch):
    # The log is written in completion order, which depends on timing once
    # cases overlap; the schedule is observed where each case starts.
    started = []

    def recording_check_case(spec, *args, **kwargs):
        started.append(spec.conditions_total)
        return check_case(spec, *args, **kwargs)

    monkeypatch.setattr(campaign, "check_case", recording_check_case)
    out = tmp_path / "log.jsonl"
    summary = run_campaign(_tiny_config(out, threads=1))
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
    # biggest condition totals started first
    assert len(started) == 3
    assert started == sorted(started, reverse=True)


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
    other = _tiny_config(out, shard=(6, 87), base_seed=999, max_attempts=1,
                         fundamental=False, resume=True)
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
    # same base seed: a sharded run must produce byte-identical certificates
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    run_campaign(_tiny_config(out_a))
    run_campaign(_tiny_config(out_b))
    strip = lambda lines: [
        {k: v for k, v in json.loads(l).items() if k != "elapsed_ms"}
        for l in lines
        if not json.loads(l).get("header")
    ]
    a = sorted(strip(out_a.read_text().splitlines()), key=lambda r: r["index"])
    b = sorted(strip(out_b.read_text().splitlines()), key=lambda r: r["index"])
    assert a == b


def test_store_duplicate_detection():
    store = ResultStore()
    case = CaseSignature(14, 1, 0, 44, 3)
    rec = CertRecord(case, 0, None, "boom")
    store.add(rec)
    with pytest.raises(ValueError):
        store.add(CertRecord(case, 1, None, "again"))
    assert store.cases(14)[0][2] == "error"


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
    assert record["seed"] == 7 + record["index"] * 3 + record["attempts"] - 1
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
