import json
import shlex
from pathlib import Path

from fatpoints import campaign, interpolation
from fatpoints.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_vdim_output(capsys):
    assert main(["vdim", "-d", "9", "--mults", "4^11"]) == 0
    out = capsys.readouterr()
    assert out.out.strip() == "-1"
    assert "vdim=-1" in out.err


def test_vdim_json(capsys):
    assert main(["--json", "vdim", "-d", "3", "--mults", "2^5"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"spec": "3; 2^5", "N": 20, "S": 20, "vdim": -1, "edim": -1}


def test_enumerate_count_only(capsys):
    assert main(["enumerate", "--alg", "b", "-d", "40", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "22"
    assert main(["--json", "enumerate", "--alg", "a", "-d", "14", "--count-only"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 6816


def test_enumerate_stream_and_csv(capsys, tmp_path):
    assert main(["enumerate", "--alg", "b", "-d", "14"]) == 0
    out = capsys.readouterr()
    lines = out.out.strip().splitlines()
    assert len(lines) == 261
    assert lines[0].split() == ["14", "1", "0", "45", "2"]
    csv_path = tmp_path / "cases.csv"
    assert main(["enumerate", "--alg", "b", "-d", "14", "--csv", str(csv_path)]) == 0
    capsys.readouterr()
    assert csv_path.exists()


def test_check_non_special_exit_zero(capsys):
    assert main(["check", "-d", "3", "--mults", "2^5", "--seed", "5"]) == 0
    out = capsys.readouterr()
    assert out.out.strip() == "non_special"
    assert "verdict=non_special" in out.err


def test_check_special_exit_one(capsys):
    assert main(["check", "-d", "2", "--mults", "2^2"]) == 1
    out = capsys.readouterr()
    assert out.out.strip() == "inconclusive"
    assert "evidence, not proof" in out.err


def test_check_json_certificate(capsys):
    assert main(["--json", "check", "-d", "3", "--mults", "2^5"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["verdict"] == "non_special"
    assert cert["spec"] == "3; 2^5"
    # pairs must satisfy m_i + m_j <= d, so only one 2-point fits at d = 3
    assert cert["fundamental_assignment"] == [[0, 2]]


def _never_sampled(*args, **kwargs):
    raise AssertionError("points sampled for a matrix over the memory budget")


def test_check_refuses_a_matrix_over_the_memory_budget(capsys, monkeypatch):
    # a fixed room, so that no machine builds the 55 GiB matrix
    monkeypatch.setattr(interpolation, "_mem_available", lambda: 16 * 2**30)
    monkeypatch.setattr(interpolation, "_sample_distinct", _never_sampled)
    # a refusal, exit 2, not the exit 1 of an inconclusive verdict
    assert main(["check", "-d", "40", "--mults", "2^200000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: 800000 x 12341 matrix needs about 55.2 GiB" in captured.err


def test_check_refuses_a_matrix_over_the_free_memory(capsys, monkeypatch):
    monkeypatch.setattr(interpolation, "_mem_available", lambda: 2 * 2**30)
    monkeypatch.setattr(interpolation, "_sample_distinct", _never_sampled)
    assert main(["check", "-d", "40", "--mults", "2^30000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("error: 120000 x 12341 matrix needs about 8.3 GiB, 2.0 GiB available"
            in captured.err)


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["vdim"]) == 2  # missing -d
    assert main(["enumerate", "--alg", "c", "-d", "14"]) == 2
    assert main(["check", "-d", "14", "--mults", "4^^2"]) == 2
    capsys.readouterr()


def test_campaign_verify_status_audit_cycle(capsys, tmp_path):
    out = tmp_path / "log.jsonl"
    code = main([
        "--json", "campaign", "--degrees", "14", "--shard", "5/87",
        "--out", str(out), "--seed", "7",
    ])
    captured = capsys.readouterr()
    assert code == 0
    summary = json.loads(captured.out)
    assert summary["ok"] is True
    assert summary["degrees"]["14"]["non_special"] == 3

    assert main(["verify", str(out), "--full"]) == 0
    assert capsys.readouterr().out.strip() == "ok"

    assert main(["--json", "status", str(out), "--degrees", "14..14"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["done"] == 3

    # 3 certificates cannot close the whole degree
    assert main(["audit-closure", "-d", "14", "--results", str(out)]) == 1
    assert capsys.readouterr().out.strip() == "gaps"


def test_status_of_a_missing_log_exits_two(capsys, tmp_path):
    # as verify and audit-closure do, rather than report every case pending
    assert main(["status", str(tmp_path / "no-such.jsonl"), "--degrees", "14"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no-such.jsonl" in captured.err


def test_status_refuses_a_degree_range_a_campaign_refuses(capsys, tmp_path):
    out = tmp_path / "log.jsonl"
    assert main(["campaign", "--degrees", "14", "--shard", "5/87", "--out", str(out)]) == 0
    capsys.readouterr()
    for degrees in ("10", "40..14"):
        assert main(["--json", "status", str(out), "--degrees", degrees]) == 2, degrees
        captured = capsys.readouterr()
        assert captured.out == "", degrees
        assert "degrees must lie in [13, 40]" in captured.err, degrees
        assert main(["campaign", "--degrees", degrees, "--out", str(tmp_path / "x.jsonl")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "degrees must lie in [13, 40]" in captured.err, degrees
        assert main(["--json", "audit-closure", "-d", degrees, "--results", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "degrees must lie in [13, 40]" in captured.err, degrees
        assert "audited" not in captured.err, degrees
    # a malformed range or shard is named, not reported as a failed int()
    for argv, message in (
            (["campaign", "--degrees", "14..", "--out", str(tmp_path / "x.jsonl")],
             "--degrees takes D or A..B, got '14..'"),
            (["status", str(out), "--degrees", "14..x"], "--degrees takes D or A..B, got '14..x'"),
            (["audit-closure", "-d", "14..", "--results", str(out)],
             "--degree takes D or A..B, got '14..'"),
            (["campaign", "--degrees", "14", "--shard", "3", "--out", str(tmp_path / "x.jsonl")],
             "--shard takes I/N, got '3'")):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: {message}" in captured.err, argv
    assert not (tmp_path / "x.jsonl").exists()


def _audit_of_d14_shard(capsys, tmp_path) -> dict:
    """The --json audit-closure of d = 14 over a campaign of its shard 5/87; it exits 1."""
    out = tmp_path / "log.jsonl"
    assert main(["campaign", "--degrees", "14", "--shard", "5/87", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["--json", "audit-closure", "-d", "14", "--results", str(out)]) == 1
    return json.loads(capsys.readouterr().out)


def test_audit_closure_without_a_certified_base_system_lists_every_target(
        capsys, tmp_path, short_base_system):
    # L(9; 4^11) is inconclusive, so 4^a,3^b->10 is not valid and nothing deduces
    report = _audit_of_d14_shard(capsys, tmp_path)
    assert report["targets"] == len(report["gaps"]) == 85100


def test_audit_closure_without_a_certified_bootstrap_system_lists_every_target(
        capsys, tmp_path, short_bootstrap_system):
    # L(3; 2^5) is inconclusive, so 2^5->4 is not valid: a gap at every target, not an error
    report = _audit_of_d14_shard(capsys, tmp_path)
    assert report["targets"] == len(report["gaps"]) == 85100


def test_audit_closure_refuses_a_degree_the_log_lacks(capsys, tmp_path):
    out = tmp_path / "log.jsonl"
    assert main(["campaign", "--degrees", "14", "--shard", "5/87", "--out", str(out)]) == 0
    capsys.readouterr()
    # the same records, each one short of maximal rank, so none of them proven
    header, *lines = out.read_text().splitlines()
    short = [json.dumps(dict(rec, rank=min(rec["N"], rec["S"]) - 1, verdict="inconclusive"))
             for rec in map(json.loads, lines)]
    doubtful = tmp_path / "inconclusive.jsonl"
    doubtful.write_text("\n".join([header, *short]) + "\n")
    # every target would be a gap: 397 405 430 tuples at d = 40
    for log, degrees, d in ((out, "15", 15), (out, "40", 40), (doubtful, "14", 14),
                            (out, "14..15", 15)):
        assert main(["--json", "audit-closure", "-d", degrees, "--results", str(log)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"holds no non_special record of degree {d}" in captured.err
        assert "audited" not in captured.err  # d = 14 of 14..15 neither


def test_audit_closure_of_a_range_prints_each_degree_as_its_own_run(capsys, tmp_path):
    out = tmp_path / "log.jsonl"
    assert main(["campaign", "--degrees", "13..15", "--shard", "5/87", "--out", str(out)]) == 0
    capsys.readouterr()
    assert len(out.read_text().splitlines()) == 1 + 10
    for flags in ([], ["--json"]):
        alone_out, alone_err = "", []
        for d in ("13", "14", "15"):
            assert main([*flags, "audit-closure", "-d", d, "--results", str(out)]) == 1
            captured = capsys.readouterr()
            alone_out += captured.out
            alone_err += [line for line in captured.err.splitlines() if line.startswith("d=")]
        assert main([*flags, "audit-closure", "-d", "13..15", "--results", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == alone_out
        assert [line for line in captured.err.splitlines() if line.startswith("d=")] == alone_err
    # a handful of records leaves gaps at every degree
    assert [json.loads(line)["ok"] for line in alone_out.splitlines()] == [False] * 3


def test_audit_closure_refuses_a_record_whose_S_is_not_its_cases(capsys, tmp_path):
    out = tmp_path / "log.jsonl"
    assert main(["campaign", "--degrees", "14", "--shard", "5/87", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    rec = json.loads(lines[2])
    # S mirrored about N, as verify's "S mismatch" would report it
    lines[2] = json.dumps(dict(rec, S=2 * rec["N"] - rec["S"]))
    forged = tmp_path / "forged.jsonl"
    forged.write_text("\n".join(lines) + "\n")
    assert main(["--json", "audit-closure", "-d", "14", "--results", str(forged)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the log's reader refuses it before the audit's own S guard would
    assert f"{forged}:3: S mismatch: {rec['S']} != {2 * rec['N'] - rec['S']}" in captured.err


def test_a_campaign_whose_family_raises_exits_two_and_leaves_its_cases_pending(
        capsys, tmp_path, monkeypatch):
    def planted(specs, seed):
        raise ArithmeticError("planted failure")

    # a replaced callee also keeps the units in this process, where they see it
    monkeypatch.setattr(campaign, "check_family", planted)
    out = tmp_path / "log.jsonl"
    assert main(["campaign", "--degrees", "14", "--shard", "5/87", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: ArithmeticError: planted failure" in captured.err
    assert len(out.read_text().splitlines()) == 1  # the header alone
    assert main(["--json", "status", str(out), "--degrees", "14"]) == 0
    row = json.loads(capsys.readouterr().out)[0]
    assert (row["done"], row["pending"]) == (0, 261) and "errors" not in row


def test_campaign_refuses_existing_log(capsys, tmp_path):
    out = tmp_path / "log.jsonl"
    assert main(["campaign", "--degrees", "14", "--shard", "5/87", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["campaign", "--degrees", "14", "--shard", "5/87", "--out", str(out)]) == 2
    assert "exists" in capsys.readouterr().err


def test_campaign_refuses_a_negative_seed_before_writing(capsys, tmp_path):
    out = tmp_path / "log.jsonl"
    args = ["campaign", "--degrees", "14", "--shard", "1/40", "--out", str(out), "--seed", "-1"]
    assert main(args) == 2
    assert "base_seed" in capsys.readouterr().err
    assert not out.exists()


def test_config_echoed(capsys):
    main(["vdim", "-d", "3", "--mults", "2^5"])
    err = capsys.readouterr().err
    assert "fatpoints" in err and "vdim" in err


def test_readme_cli_block_parses():
    # every command README shows must still be accepted, so a removed option
    # cannot leave the usage text stale; nothing is run
    text = README.read_text()
    block = text[text.index("## CLI"):].split("```")[1]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()
                if line.startswith("fatpoints ")]
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])  # exits on an unknown command or option
