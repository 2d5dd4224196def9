import hashlib
import json
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import pytest

from fatpoints import campaign, interpolation
from fatpoints.campaign import (
    CampaignConfig,
    CertRecord,
    ResultStore,
    _degree_cases,
    _in_shard,
    run_campaign,
    status,
    verify_log,
)
from fatpoints.cli import main
from fatpoints.enumeration import algorithm_b_cases
from fatpoints.gfp import PRIME_LADDER
from fatpoints.interpolation import (
    Certificate,
    MatrixTooLargeError,
    check_case,
    replay_certificate,
)
from fatpoints.model import CaseSignature, SystemSpec

SHARD = (5, 87)  # 3 of the 261 d=14 cases: keeps unit runs quick
# 131 d=14 cases in families of up to 3: family (1, 0, 46) holds cases 3..7,
# of which 4 and 6 are in this shard; family (1, 1, 44) holds 14, 16 and 18
FAMILY_SHARD = (1, 2)


def _family_seed(case_key, base_seed=7, max_attempts=3):
    d, q, x, y, _ = case_key
    return base_seed + _degree_cases(d)[1][tuple(case_key)][1] * max_attempts


def _shard_indices(n_cases, shard):
    """The indices of a degree's n_cases cases that shard runs."""
    return [idx for idx in range(n_cases) if _in_shard(idx, shard)]


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


def test_the_checker_accepts_a_planned_case_under_its_shard_alone():
    # rank-free: the cases _plan gives shard i, each with the attempt-1
    # certificate its family seed schedules, pass under shard i's header only
    for n in (1, 2, 8, 35):
        configs = [CampaignConfig(degrees=(13, 40), out="x.jsonl", base_seed=7, shard=(i, n))
                   for i in range(1, n + 1)]
        for config in configs:
            for _, _, family in campaign._plan(config, ResultStore())[1]:
                for idx, case in family:
                    prime, seed = interpolation.attempt_schedule(1, _family_seed(case.key()), 0)
                    cert = Certificate(case.to_system().to_text(), prime, seed, (), 0, 0, 0,
                                       "non_special", 1, 0)
                    record = CertRecord(case, idx, cert)
                    for other in configs:
                        problems = campaign._header_problems(record, other)
                        if other is config:
                            assert problems == [], (case, config.shard)
                        else:
                            i, _ = other.shard
                            assert problems == [f"case index {idx} is outside the header's"
                                                f" shard {i}/{n}"], (case, other.shard)


def test_degree_cases_index_each_case_at_its_position_and_family_first():
    for d in range(13, 41):
        cases, positions = _degree_cases(d)
        assert cases == tuple(algorithm_b_cases(d))
        assert list(positions) == [case.key() for case in cases]
        lowest = {}
        for idx in reversed(range(len(cases))):
            lowest[cases[idx].q, cases[idx].x, cases[idx].y] = idx
        for idx, case in enumerate(cases):
            assert positions[case.key()] == (idx, lowest[case.q, case.x, case.y]), case
    # a degree outside the sweep raises on every call, not once
    for _ in range(2):
        with pytest.raises(ValueError, match="degree must be in"):
            _degree_cases(12)


def test_families_group_by_q_x_y_largest_head_first():
    for d in (14, 30):
        cases = algorithm_b_cases(d)
        groups: dict = {}
        for idx, case in enumerate(cases):
            groups.setdefault((case.q, case.x, case.y), []).append((idx, case))
        want = sorted(((group[0][0], sorted(group, key=lambda pair: pair[1].z))
                       for group in groups.values()),
                      key=lambda fam: (-fam[1][-1][1].conditions_total, fam[0]))
        todo = list(enumerate(cases))
        assert campaign._families(todo) == want
        assert campaign._families(todo[::-1]) == want


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
    assert stats == {"expected": 3, "done": 3, "non_special": 3, "inconclusive": 0}
    assert summary["computed"] == 3 and summary["inconclusive"] == 0
    assert summary["ok"] and "errors" not in summary

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
    assert set(env) == {"workers", "blas_threads_per_worker", "start_method", "cpus",
                        "mem_available_bytes"}
    assert env["workers"] == config.effective_threads()
    assert env["blas_threads_per_worker"] == (1 if env["workers"] > 1 else None)
    assert env["start_method"] == (campaign._start_method(2) if env["workers"] > 1 else None)
    assert env["start_method"] in (None, "fork", "spawn")
    assert env["cpus"] >= 1 and env["mem_available_bytes"] > 0
    assert "env" not in header["config"]
    assert header["digest"] == config.digest() == "841cb4cd9e7b04ab"

    # a log whose header has no env field is resumed, not refused
    del header["env"]
    old = tmp_path / "old.jsonl"
    old.write_text(json.dumps(header) + "\n")
    summary = run_campaign(_tiny_config(old, resume=True))
    assert summary["computed"] == 3 and summary["ok"], summary
    lines = old.read_text().splitlines()
    assert json.loads(lines[0]) == header
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
    assert ResultStore.load(out).tally(14) == {"non_special": 3, "inconclusive": 0}


def test_resume_after_truncated_line(tmp_path):
    out = tmp_path / "log.jsonl"
    run_campaign(_tiny_config(out))
    text = out.read_text()
    last = text.rstrip("\n").rfind("\n") + 1
    out.write_text(text[: last + (len(text) - last) // 2])  # killed mid-write
    assert sum(ResultStore.load(out).tally(14).values()) == 2
    summary = run_campaign(_tiny_config(out, resume=True))
    assert summary["computed"] == 1
    assert sum(ResultStore.load(out).tally(14).values()) == 3
    report = verify_log(out)
    assert report.total == 3 and not report.corrupt and report.ok
    assert run_campaign(_tiny_config(out, resume=True))["computed"] == 0


def test_a_complete_bad_last_line_stops_load_and_resume(tmp_path, capsys):
    out = tmp_path / "log.jsonl"
    run_campaign(_tiny_config(out))
    lines = out.read_bytes().splitlines(keepends=True)
    # the last family is left to compute, after a complete line that is no record
    out.write_bytes(b"".join(lines[:-1]) + b"garbage\n")
    before = out.read_bytes()
    with pytest.raises(ValueError, match=f"{out}:4: JSONDecodeError"):
        ResultStore.load(out)
    args = ["campaign", "--degrees", "14", "--shard", "5/87", "--seed", "7", "--out", str(out)]
    assert main([*args, "--resume"]) == 2
    assert f"{out}:4: " in capsys.readouterr().err
    assert out.read_bytes() == before


def test_a_record_without_spec_stops_status_and_the_audit_at_its_line(tmp_path, capsys):
    out = tmp_path / "log.jsonl"
    run_campaign(_tiny_config(out))
    good = out.read_text().splitlines()
    lines = list(good)
    lines[1] = json.dumps({k: v for k, v in json.loads(lines[1]).items() if k != "spec"})
    out.write_text("\n".join(lines) + "\n")
    for args in (["status", str(out), "--degrees", "14"],
                 ["audit-closure", "-d", "14", "--results", str(out)]):
        assert main(args) == 2
        assert f"{out}:2: KeyError: 'spec'" in capsys.readouterr().err
    assert [c["line"] for c in verify_log(out).corrupt] == [2]

    # a number this version writes as a JSON integer, in a form int() would take
    rec = json.loads(good[1])
    (i, m), *pinned = rec["fundamental_assignment"]
    for name, value in (("rank", rec["rank"] + 0.9), ("N", rec["N"] + 0.5),
                        ("index", float(rec["index"])), ("seed", str(rec["seed"])),
                        ("case", rec["case"][:4] + [float(rec["case"][4])]),
                        ("fundamental_assignment", [[i, float(m)], *pinned])):
        # the last family is left, so that a resume would append
        forged = _write(tmp_path / f"{name}.jsonl",
                        [good[0], json.dumps(dict(rec, **{name: value}))] + good[2:-1])
        report = verify_log(forged, full=True)
        assert [c["line"] for c in report.corrupt] == [2], name
        assert f"{name} must be an integer" in report.corrupt[0]["error"]
        _assert_refused(forged, capsys, 2, f"{name} must be an integer")


def test_lines_that_hold_no_record_are_corrupt_at_their_line(tmp_path):
    out = tmp_path / "log.jsonl"
    run_campaign(_tiny_config(out))
    lines = out.read_bytes().splitlines(keepends=True)
    bad = tmp_path / "bad.jsonl"
    # not an object (three kinds), not UTF-8, and an object without 'case'
    for line in (b"5\n", b"[1, 2]\n", b'"a case"\n', b"\xff\xfe\n", b'{"index": 3}\n'):
        bad.write_bytes(b"".join(lines[:2] + [line] + lines[2:]))
        report = verify_log(bad, full=True)
        assert [c["line"] for c in report.corrupt] == [3], line
        assert report.total == report.replayed == 3 and not report.ok
        with pytest.raises(ValueError, match=f"{bad}:3: "):
            ResultStore.load(bad)


def test_an_unterminated_last_line_counts_only_in_verify(tmp_path):
    out = tmp_path / "log.jsonl"
    run_campaign(_tiny_config(out))
    cut = tmp_path / "cut.jsonl"
    cut.write_bytes(out.read_bytes()[:-1])  # the last record whole but for its newline
    assert sum(ResultStore.load(cut).tally(14).values()) == 2
    assert status(cut, (14, 14))[0]["done"] == 2
    report = verify_log(cut, full=True)
    assert report.corrupt == [{"line": 4, "error": "unterminated last line"}]
    assert report.total == report.replayed == 2 and not report.ok


def test_resume_refuses_a_log_of_another_config(tmp_path):
    out = tmp_path / "log.jsonl"
    run_campaign(_tiny_config(out))
    before = out.read_bytes()
    other = _tiny_config(out, shard=(6, 87), base_seed=999, resume=True)
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
    assert not store.finished(case.key())
    cert = check_case(case.to_system(), seed=1)
    store.add(CertRecord(case, 0, cert))
    assert store.finished(case.key())
    assert store.cases(14) == [(case, cert.S, "non_special")]
    # any second record of a case is a duplicate, whatever its verdict
    for later in (cert, replace(cert, rank=cert.rank - 1, verdict="inconclusive")):
        with pytest.raises(ValueError, match="duplicate"):
            store.add(CertRecord(case, 0, later))
    assert store.cases(14) == [(case, cert.S, "non_special")]


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
    with pytest.raises(ValueError, match="dup.jsonl:3: duplicate"):
        ResultStore.load(tmp_path / "dup.jsonl")


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
        # at the seed and prime an attempt 4 would have, but the header allows 3
        ("attempt", dict(record, attempts=4, seed=7 + 3 * record["index"] + 3)),
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
    with pytest.raises(FileNotFoundError):
        status(tmp_path / "missing.jsonl", (14, 14))
    out = tmp_path / "log.jsonl"
    run_campaign(_tiny_config(out))
    assert status(out, (14, 14)) == [
        {
            "degree": 14,
            "expected": 261,
            "done": 3,
            "non_special": 3,
            "inconclusive": 0,
            "pending": 258,
        }
    ]


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
    # at p = 73 four cases fall short at their family's seed; each is
    # retried alone at its own seed
    assert [rec["index"] for rec in records if rec["attempts"] > 1] == [14, 36, 176, 234]
    for rec in records:
        if rec["attempts"] == 1:
            assert rec["seed"] == _family_seed(rec["case"])
        else:
            assert rec["seed"] == 7 + rec["index"] * 3 + rec["attempts"] - 1
    by_index = {rec["index"]: rec for rec in records}
    # members of one family share the seed, also when the family's first case
    # is in another shard
    assert by_index[16]["seed"] == by_index[18]["seed"] == _family_seed(by_index[14]["case"])
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


def test_member_short_twice_escalates_on_its_last_attempt(tmp_path, monkeypatch):
    real_rank = interpolation.rank
    short = []

    def short_at_first_prime(mat, p, *, leading, **kwargs):
        ranks = real_rank(mat, p, leading=leading, **kwargs)
        if len(leading) > 1:
            short.append(leading[0])  # the smallest member of the family
        return [r - (p == PRIME_LADDER[0] and k in short) for r, k in zip(ranks, leading)]

    # family (1, 0, 46) starts at case 3; case 4 falls short at 73, at the
    # family's seed and again at its own retry seed, and passes at 32003
    monkeypatch.setattr(interpolation, "rank", short_at_first_prime)
    config = _tiny_config(tmp_path / "log.jsonl", shard=FAMILY_SHARD)
    cases = algorithm_b_cases(14)
    records = campaign._family_unit(config, 3, [(4, cases[4]), (6, cases[6])])
    monkeypatch.undo()
    four, six = (record.cert for record in records)
    assert (four.verdict, four.attempts) == ("non_special", 3)
    assert (four.prime, four.seed) == interpolation.attempt_schedule(3, 7 + 3 * 3, 7 + 4 * 3)
    assert (four.prime, four.seed) == (PRIME_LADDER[1], 7 + 4 * 3 + 2)
    assert (six.attempts, six.prime, six.seed) == (1, PRIME_LADDER[0], 7 + 3 * 3)
    header = json.dumps({"header": True, "digest": config.digest(),
                         "config": config.digest_fields()})
    report = verify_log(_write(config.out, [header] + [r.to_line() for r in records]), full=True)
    assert report.ok and report.replayed == 2, report.to_dict()


def _blas_threads(name):
    """The environment variable name's value, and numpy's OpenBLAS thread count (None: no getter)."""
    getter = campaign._openblas("get")
    return os.getenv(name), getter and getter()


@pytest.mark.parametrize("method", ["fork", "spawn"])
@pytest.mark.parametrize("caller", [None, "4"])
def test_workers_run_blas_on_one_thread(monkeypatch, caller, method):
    if caller is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", caller)
    getter = campaign._openblas("get")
    threads = getter and getter()
    if method == "spawn":  # as where no setter is found; a spawned worker looks up afresh
        monkeypatch.setattr(campaign, "_openblas", lambda verb: None)
    elif campaign._start_method(2) != "fork":
        pytest.skip("no OpenBLAS thread setter found: workers are spawned here")
    assert campaign._start_method(2) == method
    before = dict(os.environ)
    tasks = [("OPENBLAS_NUM_THREADS",)] * 4
    got = [result() for result in campaign._run_units(_blas_threads, tasks, 2)]
    assert [env for env, _ in got] == ["1"] * 4
    if getter is not None:  # the library's own count, not just the variable
        assert [count for _, count in got] == [1] * 4
        assert getter() == threads  # the caller's BLAS keeps its threads
    assert dict(os.environ) == before
    # one worker is this process, with the caller's own setting
    assert [got() for got in campaign._run_units(os.getenv, tasks, 1)] == [caller] * 4


def test_worker_count(monkeypatch):
    gib = 2**30
    monkeypatch.setattr(campaign, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(interpolation, "_mem_available", lambda: 7 * gib)
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
    # between 2 and 4 units: one worker each when sharing the CPUs ends sooner
    # and memory fits them all
    monkeypatch.setattr(interpolation, "_mem_available", lambda: 16 * gib)
    assert campaign.worker_count([gib] * 3) == 3
    # one unit costs more than the other two together: the pool ends sooner
    assert campaign.worker_count([4 * gib, gib, gib]) == 2
    assert campaign.worker_count([gib] * 4) == 2
    monkeypatch.setattr(interpolation, "_mem_available", lambda: 2 * gib)
    assert campaign.worker_count([gib] * 3) == 2  # memory for two
    # a replaced callee would not be seen by a worker: the units run here
    monkeypatch.setattr(campaign, "replay_certificate", lambda cert: 0)
    assert campaign.worker_count([gib] * 20) == 1


def _never_sampled(*args, **kwargs):
    raise AssertionError("points sampled for a matrix over the memory budget")


def test_one_memory_budget_sizes_the_pool_and_refuses_a_check(monkeypatch):
    gib = 2**30
    monkeypatch.setattr(interpolation, "_mem_available", lambda: 2 * gib)
    monkeypatch.setattr(interpolation, "_sample_distinct", _never_sampled)
    monkeypatch.setattr(campaign, "_usable_cpus", lambda: 8)
    assert campaign.worker_count([gib] * 4) == 2
    # its estimate, about 2.8 GiB, exceeds the room
    spec = SystemSpec(40, {2: 10000})
    with pytest.raises(MatrixTooLargeError,
                       match=r"^40000 x 12341 matrix needs about 2\.8 GiB, 2\.0 GiB available$"):
        check_case(spec, 0)


def test_an_escalated_retry_can_be_refused_where_its_first_attempt_fits(monkeypatch):
    spec = SystemSpec(40, {2: 1000})
    first, last = (interpolation.peak_bytes(spec, p) - interpolation._PROCESS_BYTES
                   for p in PRIME_LADDER)
    assert 2 * first - last < 2**20  # float64 at the escalation prime, twice the float32 matrix
    room = (first + last) // 2
    monkeypatch.setattr(interpolation, "_mem_available", lambda: room)
    monkeypatch.setattr(interpolation, "_sample_distinct", _never_sampled)
    monkeypatch.setattr(campaign, "_usable_cpus", lambda: 8)
    assert campaign.worker_count([interpolation.peak_bytes(spec)]) == 1
    # attempt 1 passes the budget and goes on to sample its points
    with pytest.raises(AssertionError, match="points sampled"):
        check_case(spec, 0)
    # after two rank deficits at PRIME_LADDER[0] the last attempt is refused
    deficient = interpolation._certificate(spec, PRIME_LADDER[0], 0, [(0, 2)], 0, 2, 0)
    assert deficient.verdict == "inconclusive"
    with pytest.raises(MatrixTooLargeError,
                       match=r"^4000 x 12341 matrix needs about 0\.6 GiB, 0\.4 GiB available$"):
        check_case(spec, 0, first=deficient)


def test_resume_counts_workers_over_the_families_left(tmp_path, monkeypatch):
    out = tmp_path / "log.jsonl"
    monkeypatch.setattr(campaign, "_usable_cpus", lambda: 2)
    config = _tiny_config(out)
    assert config.effective_threads() == 3  # three families of one, sharing 2 CPUs
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


def test_three_workers_on_two_cpus_write_the_records_of_one(tmp_path, monkeypatch):
    def records(path):
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        for rec in lines[1:]:
            rec.pop("elapsed_ms")
        return lines[0]["env"], lines[1:]

    monkeypatch.setattr(campaign, "_usable_cpus", lambda: 2)
    shared = _tiny_config(tmp_path / "shared.jsonl")
    run_campaign(shared)
    env, written = records(shared.out)
    assert (env["workers"], env["cpus"]) == (3, 2)  # three families of one
    monkeypatch.setattr(campaign, "worker_count", lambda peaks: 1)
    alone = _tiny_config(tmp_path / "alone.jsonl")
    run_campaign(alone)
    assert records(alone.out)[1] == written  # in log order


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
    monkeypatch.setattr(interpolation, "_CGROUP_MOUNT", mount)
    monkeypatch.setattr(interpolation, "_SELF_CGROUP", self_cgroup)
    v2 = ("memory.max", "memory.current", "inactive_file")
    self_cgroup.write_text("0::/box/job\n")
    _write_cgroup(mount / "box" / "job", "max", gib, 0, v2)
    assert interpolation._cgroup_headroom() is None  # no limit anywhere
    # an ancestor's limit binds; inactive page cache counts as free
    _write_cgroup(mount / "box", 3 * gib, 2 * gib, gib // 2, v2)
    assert interpolation._cgroup_headroom() == 3 * gib // 2
    _write_cgroup(mount / "box" / "job", 2 * gib, 2 * gib, 0, v2)
    assert interpolation._cgroup_headroom() == 0
    assert interpolation._mem_available() == 0
    assert campaign.worker_count([gib] * 4) == 1

    # the v1 memory controller, next to a v2 line without the controller
    v1 = ("memory.limit_in_bytes", "memory.usage_in_bytes", "total_inactive_file")
    self_cgroup.write_text("4:memory:/box\n1:cpu:/other\n0::/\n")
    _write_cgroup(mount / "memory" / "box", 5 * gib, gib, 0, v1)
    assert interpolation._cgroup_headroom() == 4 * gib
    assert interpolation._mem_available() <= 4 * gib


def test_available_memory_without_meminfo(monkeypatch):
    def no_meminfo(*args, **kwargs):
        raise OSError("no /proc/meminfo")

    pages = {"SC_AVPHYS_PAGES": 3, "SC_PHYS_PAGES": 5, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(interpolation, "open", no_meminfo, raising=False)
    monkeypatch.setattr(interpolation, "_cgroup_headroom", lambda: None)
    monkeypatch.setattr(interpolation.os, "sysconf", pages.__getitem__)
    monkeypatch.setattr(interpolation.os, "sysconf_names", dict(pages))
    assert interpolation._mem_available() == 3 * 4096  # the free pages
    del interpolation.os.sysconf_names["SC_AVPHYS_PAGES"]  # as on macOS
    assert interpolation._mem_available() == 5 * 4096  # the physical pages


# the unit as imported: a forked worker inherits the patch below, and
# _dying_family_unit calling campaign._family_unit there would call itself
_real_family_unit = campaign._family_unit


def _dying_family_unit(config, first, family):
    """The campaign's unit, except that the worker of the smallest family dies."""
    if family[-1][1].key() == DYING_HEAD:
        assert multiprocessing.parent_process() is not None, "must not end the test process"
        os._exit(3)
    return _real_family_unit(config, first, family)


# the smallest family of SHARD, the one submitted last
DYING_HEAD = min((algorithm_b_cases(14)[i] for i in _shard_indices(261, SHARD)),
                 key=lambda case: case.conditions_total).key()


def test_dead_worker_stops_the_run_and_resume_completes_it(tmp_path, monkeypatch):
    out = tmp_path / "log.jsonl"
    config = _tiny_config(out)
    if config.effective_threads() < 2:
        pytest.skip("one worker runs the units in this process")
    submitted = [family[-1][1].key() for _, _, family in campaign._plan(config, ResultStore())[1]]
    assert submitted[-1] == DYING_HEAD
    monkeypatch.setattr(campaign, "_family_unit", _dying_family_unit)
    with pytest.raises(BrokenProcessPool):
        run_campaign(config)
    assert multiprocessing.active_children() == []
    # the header, then the families returned before the kill, in submission order
    lines = out.read_text().splitlines()
    assert json.loads(lines[0])["header"]
    written = [json.loads(line) for line in lines[1:]]
    assert [tuple(rec["case"]) for rec in written] == submitted[:len(written)]
    assert all(rec["verdict"] == "non_special" for rec in written)
    monkeypatch.undo()

    again = run_campaign(_tiny_config(out, resume=True))
    assert again["ok"] and again["computed"] == 3 - len(written), again
    assert out.read_text().splitlines()[:len(lines)] == lines
    report = verify_log(out, full=True)
    assert report.ok and report.replayed == 3 and not report.mismatches, report.to_dict()


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


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


def _forged(line):
    """line's record claiming one rank less, consistent on paper."""
    rec = json.loads(line)
    return json.dumps(dict(rec, rank=rec["rank"] - 1, verdict="inconclusive"))


@pytest.fixture(scope="module")
def family_lines(tmp_path_factory):
    """The lines of a FAMILY_SHARD log: 131 records, in 49 families of 2 or 3 and 22 of 1."""
    out = tmp_path_factory.mktemp("family") / "log.jsonl"
    run_campaign(_tiny_config(out, shard=FAMILY_SHARD))
    return out.read_text().splitlines()


def _non_head_lines(lines):
    """Line numbers of the attempt-1 records that are not their family's head, in line order.

    A family's records are together in ascending z, so its head is the last
    of its attempt-1 records; a retry replays alone.
    """
    out, line = [], 2
    for family in _families_in_log([json.loads(text) for text in lines[1:]]):
        firsts = [line + i for i, rec in enumerate(family) if rec["attempts"] == 1]
        out += firsts[:-1]
        line += len(family)
    return out


def _count_replays(monkeypatch, family=None):
    """Run verify's units in this process and record the certificates each replay gets.

    family, if given, stands in for replay_family.
    """
    calls = {"family": [], "alone": []}
    real_family = family or campaign.replay_family
    real_alone = campaign.replay_certificate

    def replay_family(certs):
        calls["family"].append(list(certs))
        return real_family(certs)

    def replay_alone(cert):
        calls["alone"].append(cert)
        return real_alone(cert)

    monkeypatch.setattr(campaign, "worker_count", lambda peaks: 1)
    monkeypatch.setattr(campaign, "replay_family", replay_family)
    monkeypatch.setattr(campaign, "replay_certificate", replay_alone)
    return calls


def _schedule_rows(lines):
    """(case, index, prime, seed, attempts, rank, fundamental_assignment) of a log's records."""
    return sorted([rec["case"], rec["index"], rec["prime"], rec["seed"], rec["attempts"],
                   rec["rank"], rec["fundamental_assignment"]] for rec in _strip(lines))


def test_logs_keep_their_schedule(tmp_path, family_lines):
    # the records the campaign wrote before one function set every attempt's
    # prime and seed
    out = tmp_path / "log.jsonl"
    run_campaign(_tiny_config(out))
    lines = out.read_text().splitlines()
    assert json.loads(lines[0])["digest"] == "841cb4cd9e7b04ab"
    assert _schedule_rows(lines[1:]) == [
        [[14, 1, 0, 46, 1], 4, 73, 16, 1, 680, [[0, 10], [1, 3], [2, 3], [3, 3]]],
        [[14, 1, 8, 30, 0], 91, 73, 281, 2, 680, [[0, 10], [1, 4], [2, 4], [3, 4]]],
        [[14, 1, 16, 13, 4], 178, 73, 535, 1, 680, [[0, 10], [1, 4], [2, 4], [3, 4]]],
    ]
    assert json.loads(family_lines[0])["digest"] == "5c8aca161eddbadd"
    rows = _schedule_rows(family_lines[1:])
    assert [row for row in rows if row[4] > 1] == [
        [[14, 1, 1, 44, 0], 14, 73, 50, 2, 680, [[0, 10], [1, 4], [2, 3], [3, 3]]],
        [[14, 1, 3, 40, 0], 36, 73, 116, 2, 680, [[0, 10], [1, 4], [2, 4], [3, 4]]],
        [[14, 1, 16, 13, 2], 176, 73, 536, 2, 678, [[0, 10], [1, 4], [2, 4], [3, 4]]],
        [[14, 1, 21, 4, 0], 234, 73, 710, 2, 680, [[0, 10], [1, 4], [2, 4], [3, 4]]],
    ]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "90f02dadb56b6eb2537f9dbd5207981f0e12d2b6d8ed7fc8f2093ce33016832e"


def test_check_at_a_family_seed_reproduces_the_record(family_lines, capsys):
    # a family head and a member of it, each checked alone at the family seed
    records = [json.loads(text) for text in family_lines[1:]]
    family = next(f for f in _families_in_log(records)
                  if len(f) > 1 and all(rec["attempts"] == 1 for rec in f))
    for rec in (family[0], family[-1]):
        mults = rec["spec"].split("; ")[1]
        args = ["--json", "check", "-d", "14", "--mults", mults, "--seed", str(rec["seed"])]
        assert main(args) == 0
        cert = json.loads(capsys.readouterr().out)
        keys = ("prime", "seed", "fundamental_assignment", "rank", "attempts")
        assert {key: cert[key] for key in keys} == {key: rec[key] for key in keys}


def test_forged_family_member_is_a_mismatch_at_its_line(tmp_path, family_lines):
    members = _non_head_lines(family_lines)
    line = members[1]  # ranked by its head's elimination only, not also alone
    assert line not in members[::campaign._CROSS_CHECK]
    lines = list(family_lines)
    rec = json.loads(lines[line - 1])
    lines[line - 1] = _forged(lines[line - 1])
    report = verify_log(_write(tmp_path / "forged.jsonl", lines), full=True)
    assert report.replayed == 131 and not report.structural and not report.corrupt
    assert report.mismatches == [{"line": line, "case": rec["case"],
                                  "recorded_rank": rec["rank"] - 1, "replayed_rank": rec["rank"]}]


def test_mismatches_over_several_families_come_in_line_order(tmp_path, family_lines):
    members = _non_head_lines(family_lines)
    heads = [line for line in range(2, len(family_lines) + 1) if line not in members]
    # a member, a head, a member also replayed alone and a family of one
    alone = next(line for line in heads if line - 1 not in members)
    forged = [members[-1], heads[len(heads) // 2], members[0], alone]
    assert len(set(forged)) == 4
    lines = list(family_lines)
    for line in forged:
        lines[line - 1] = _forged(lines[line - 1])
    report = verify_log(_write(tmp_path / "forged.jsonl", lines), full=True)
    assert report.replayed == 131 and not report.structural, report.to_dict()
    assert [m["line"] for m in report.mismatches] == sorted(forged)
    for m in report.mismatches:
        assert m["replayed_rank"] == json.loads(family_lines[m["line"] - 1])["rank"]
        assert "family_rank" not in m


def test_bad_fundamental_assignment_is_structural_at_its_line(tmp_path, family_lines, capsys):
    # point 0 of every d = 14 case is its 10-point, so (0, 3) names no point
    line = _non_head_lines(family_lines)[0]
    lines = list(family_lines)
    rec = json.loads(lines[line - 1])
    lines[line - 1] = json.dumps(dict(rec, fundamental_assignment=[[0, 3]]))
    assert main(["--json", "verify", "--full", str(_write(tmp_path / "bad.jsonl", lines))]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [p["line"] for p in report["structural"]] == [line]
    assert "bad fundamental assignment" in report["structural"][0]["error"]
    assert report["replayed"] == 130 and not report["mismatches"] and not report["corrupt"]


def test_verify_replays_each_family_once_and_retries_alone(tmp_path, family_lines, monkeypatch):
    # case 14, the smallest shard member of family (1, 1, 44) with 16 and
    # 18, logged as a retry at its own seed
    lines = list(family_lines)
    at = next(i for i, text in enumerate(lines) if json.loads(text).get("index") == 14)
    rec = json.loads(lines[at])
    case = CaseSignature(*rec["case"])
    spec, seed = case.to_system(), 7 + 14 * 3 + 1
    assignment = [tuple(pair) for pair in rec["fundamental_assignment"]]
    got = interpolation._run_family(spec, [spec], PRIME_LADDER[0], seed, assignment)[0]
    retry = interpolation._certificate(spec, PRIME_LADDER[0], seed, assignment, got, 2, 0)
    lines[at] = CertRecord(case, 14, retry).to_line()
    calls = _count_replays(monkeypatch)
    report = verify_log(_write(tmp_path / "retry.jsonl", lines), full=True)
    assert report.ok and report.replayed == 131, report.to_dict()
    retries = [Certificate.from_dict(rec) for rec in map(json.loads, lines[1:])
               if rec["attempts"] > 1]

    def qxy(cert):
        sig = CaseSignature.from_system(interpolation.parse_system(cert.spec))
        return sig.q, sig.x, sig.y

    # one call per family of two or more attempt-1 records, and only those
    sizes: dict = {}
    for text in lines[1:]:
        r = json.loads(text)
        if r["attempts"] == 1:
            sizes[tuple(r["case"][1:4])] = sizes.get(tuple(r["case"][1:4]), 0) + 1
    assert sorted(len(certs) for certs in calls["family"]) == sorted(
        n for n in sizes.values() if n > 1)
    for certs in calls["family"]:
        assert {qxy(c) for c in certs} == {qxy(certs[0])}
        assert all(c.attempts == 1 for c in certs)
    assert len({qxy(certs[0]) for certs in calls["family"]}) == len(calls["family"])
    # the retries replay alone; 16 and 18 still share one elimination
    assert [c for c in calls["alone"] if c.attempts > 1] == retries and retry in retries
    assert [len(certs) for certs in calls["family"] if qxy(certs[0]) == qxy(retry)] == [2]
    # the rest alone: families of one and every _CROSS_CHECK-th member again
    in_family = [c for certs in calls["family"] for c in certs]
    cross = [c for c in calls["alone"] if c in in_family]
    members = sum(len(certs) - 1 for certs in calls["family"])
    assert len(cross) == -(-members // campaign._CROSS_CHECK)
    assert len(calls["alone"]) == 131 - len(in_family) + len(cross)


def test_members_replayed_alone_check_the_family_ranks(tmp_path, family_lines, monkeypatch):
    # a family replay that echoed the recorded ranks would pass every forged
    # member; those also replayed alone still show the forgery
    members = _non_head_lines(family_lines)
    lines = list(family_lines)
    for line in members:
        lines[line - 1] = _forged(lines[line - 1])
    _count_replays(monkeypatch, family=lambda certs: [cert.rank for cert in certs])
    report = verify_log(_write(tmp_path / "forged.jsonl", lines), full=True)
    assert report.replayed == 131 and not report.structural, report.to_dict()
    assert [m["line"] for m in report.mismatches] == members[::campaign._CROSS_CHECK]
    for m in report.mismatches:
        assert m["family_rank"] == m["recorded_rank"] == m["replayed_rank"] - 1


_RESUME = ["campaign", "--degrees", "14", "--shard", "5/87", "--seed", "7", "--resume"]


def _digested(header, fields):
    blob = json.dumps(fields, sort_keys=True).encode()
    return dict(header, config=fields, digest=hashlib.sha256(blob).hexdigest()[:16])


def _assert_refused(path, capsys, line, refusal=""):
    """status, audit-closure and a resume each exit 2 with nothing on stdout,
    naming path:line and refusal, and leave the log as it was."""
    before = path.read_bytes()
    for args in (["status", str(path), "--degrees", "14"],
                 ["audit-closure", "-d", "14", "--results", str(path)],
                 [*_RESUME, "--out", str(path)]):
        assert main(args) == 2, args
        captured = capsys.readouterr()
        assert captured.out == "", args
        assert f"{path}:{line}: " in captured.err and refusal in captured.err, args
    assert path.read_bytes() == before


def _assert_unread(path, capsys, records, refusal="another config"):
    """Every record of the log at path is structural, none is replayed, and
    status, audit-closure and a resume refuse the log at its first line."""
    report = verify_log(path, full=True)
    assert report.total == len(report.structural) == records, report.to_dict()
    assert report.replayed == 0 and not report.corrupt
    assert {p["error"] for p in report.structural} == {
        "no header of this version above the record"}
    _assert_refused(path, capsys, 1, refusal)


def test_logs_of_the_previous_format_are_structural_and_refuse_a_resume(tmp_path, capsys):
    out = tmp_path / "log.jsonl"
    config = _tiny_config(out)
    run_campaign(config)
    lines = out.read_text().splitlines()
    # the previous format: four primes and "fundamental", under its own digest
    fields = dict(config.digest_fields(), primes=[73, 32003, 65537, 104729], fundamental=True)
    previous = _digested(json.loads(lines[0]), fields)
    assert previous["digest"] == "0edd5b884c53cda9"
    # the last family is left, so that a resume would append
    _assert_unread(_write(tmp_path / "previous.jsonl", [json.dumps(previous)] + lines[1:-1]),
                   capsys, 2)
    # the header this version writes
    assert verify_log(_write(tmp_path / "this.jsonl", lines), full=True).ok


def test_logs_under_a_header_without_seed_rule_are_structural_and_refuse_a_resume(
        tmp_path, capsys):
    # a log written before families: no seed_rule and no digest, check_case per case
    config = _tiny_config(tmp_path / "old.jsonl")
    fields = config.digest_fields()
    del fields["seed_rule"]
    lines = [json.dumps({"header": True, "config": fields})]
    cases = algorithm_b_cases(14)
    for idx in _shard_indices(len(cases), SHARD)[:-1]:
        cert = check_case(cases[idx].to_system(), 7 + idx * 3)
        lines.append(CertRecord(cases[idx], idx, cert).to_line())
    _assert_unread(_write(config.out, lines), capsys, 2)


def test_records_under_a_header_without_seed_rule_are_not_replayed(tmp_path, monkeypatch):
    out = tmp_path / "log.jsonl"
    config = _tiny_config(out)
    run_campaign(config)
    header = json.loads(out.read_text().splitlines()[0])
    fields = {k: v for k, v in config.digest_fields().items() if k != "seed_rule"}
    lines = [json.dumps(_digested(header, fields))]
    cases = algorithm_b_cases(14)
    for idx in range(3, 8):  # family (1, 0, 46), each case at its own seed
        cert = check_case(cases[idx].to_system(), 7 + idx * 3)
        lines.append(CertRecord(cases[idx], idx, cert).to_line())
    calls = _count_replays(monkeypatch)
    report = verify_log(_write(tmp_path / "old.jsonl", lines), full=True)
    assert [p["line"] for p in report.structural] == [2, 3, 4, 5, 6], report.to_dict()
    assert report.replayed == 0 and calls == {"family": [], "alone": []}


def test_a_header_of_other_primes_attempts_or_digest_is_structural(tmp_path, capsys):
    out = tmp_path / "log.jsonl"
    config = _tiny_config(out)
    run_campaign(config)
    lines = out.read_text().splitlines()
    header = json.loads(lines[0])
    fields = config.digest_fields()
    headers = {
        "primes": _digested(header, dict(fields, primes=[65537, 104729])),
        "max_attempts": _digested(header, dict(fields, max_attempts=2)),
        "digest": dict(header, digest="0" * 16),
        # numbers this version writes as JSON integers, digested as written
        "shard": _digested(header, dict(fields, shard=[5, 87.0])),
        "base_seed": _digested(header, dict(fields, base_seed=False)),
        "degrees": _digested(header, dict(fields, degrees=[14, 14.0])),
    }
    for name, h in headers.items():
        _assert_unread(_write(tmp_path / f"{name}.jsonl", [json.dumps(h)] + lines[1:-1]),
                       capsys, 2)
    _assert_unread(_write(tmp_path / "none.jsonl", lines[1:-1]), capsys, 2, "no header")


def test_verify_checks_index_degree_and_shard_against_the_header(tmp_path):
    out = tmp_path / "log.jsonl"
    config = _tiny_config(out)
    run_campaign(config)
    lines = out.read_text().splitlines()
    rec = json.loads(lines[1])
    # a record at another case's index of its shard, and records computed on
    # their schedule for a case outside the shard and one outside the degrees
    wrong_index = json.dumps(dict(rec, index=rec["index"] + 87))
    cases = algorithm_b_cases(14)
    assert _degree_cases(14)[1][cases[5].key()] == (5, 3)
    outside_shard = campaign._family_unit(config, 3, [(5, cases[5])])[0].to_line()
    d15 = _tiny_config(tmp_path / "d15.jsonl", degrees=(15, 15))
    case = algorithm_b_cases(15)[4]
    first = _degree_cases(15)[1][case.key()][1]
    outside_degrees = campaign._family_unit(d15, first, [(4, case)])[0].to_line()
    bad = _write(tmp_path / "bad.jsonl",
                 [lines[0], wrong_index, outside_shard, outside_degrees] + lines[2:])
    report = verify_log(bad, full=True)
    assert report.structural == [
        {"line": 2, "error": f"index {rec['index'] + 87} is not the case's {rec['index']}"},
        {"line": 3, "error": "case index 5 is outside the header's shard 5/87"},
        {"line": 4, "error": "degree 15 is outside the header's 14..14"},
    ]
    assert report.replayed == 2 and not report.mismatches and not report.corrupt

    # under its own header the d = 15 record verifies, and so do shard logs
    # concatenated together
    d15_header = json.dumps({"header": True, "digest": d15.digest(),
                             "config": d15.digest_fields()})
    other = tmp_path / "other.jsonl"
    run_campaign(_tiny_config(other, shard=(6, 87)))
    both = _write(tmp_path / "both.jsonl",
                  lines + other.read_text().splitlines() + [d15_header, outside_degrees])
    report = verify_log(both, full=True)
    assert report.ok and report.replayed == 7, report.to_dict()


def test_a_record_of_no_algorithm_b_case_is_structural(tmp_path):
    out = tmp_path / "log.jsonl"
    run_campaign(_tiny_config(out))
    lines = out.read_text().splitlines()
    # a degree below the sweep's, and z = 5 where algorithm B stops at 4;
    # both checked honestly, so only the case itself is at fault
    extra = [CertRecord(case, 0, check_case(case.to_system(), 7)).to_line()
             for case in (CaseSignature(12, 0, 10, 20, 3), CaseSignature(14, 1, 0, 44, 5))]
    report = verify_log(_write(tmp_path / "bad.jsonl", lines + extra), full=True)
    assert report.structural == [{"line": 5, "error": "not an algorithm-B case"},
                                 {"line": 6, "error": "not an algorithm-B case"}]
    assert report.replayed == 3 and not report.mismatches and not report.corrupt


def test_a_record_short_of_its_verdicts_rank_is_refused_by_every_reader(tmp_path, capsys):
    out = tmp_path / "log.jsonl"
    run_campaign(_tiny_config(out))
    lines = out.read_text().splitlines()
    rec = json.loads(lines[2])
    # one rank less, still called non_special; the last family is left to compute
    lines[2] = json.dumps(dict(rec, rank=rec["rank"] - 1))
    short = _write(tmp_path / "short.jsonl", lines[:-1])
    report = verify_log(short, full=True)
    error = f"verdict non_special inconsistent with rank {rec['rank'] - 1}"
    assert report.structural == [{"line": 3, "error": error}], report.to_dict()
    assert report.total == 2 and report.replayed == 1 and not report.corrupt
    _assert_refused(short, capsys, 3, error)


def test_resume_refuses_concatenated_shard_logs(tmp_path, capsys):
    out = tmp_path / "log.jsonl"
    other = tmp_path / "other.jsonl"
    run_campaign(_tiny_config(out))
    run_campaign(_tiny_config(other, shard=(6, 87)))
    lines = out.read_text().splitlines()
    # the last family of this shard is left, so that a resume would append
    both = _write(tmp_path / "both.jsonl", lines[:-1] + other.read_text().splitlines())
    assert verify_log(both, full=True).ok
    assert len(ResultStore.load(both).configs) == 2
    before = both.read_bytes()
    assert main([*_RESUME, "--out", str(both)]) == 2
    assert "another config" in capsys.readouterr().err
    assert both.read_bytes() == before
