import json

from fatpoints.cli import main


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
    assert main(["--json", "check", "-d", "3", "--mults", "2^5", "--fundamental"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["verdict"] == "non_special"
    assert cert["spec"] == "3; 2^5"
    # pairs must satisfy m_i + m_j <= d, so only one 2-point fits at d = 3
    assert cert["fundamental_assignment"] == [[0, 2]]


def test_check_refuses_a_prime_too_large_for_float64(capsys):
    assert main(["check", "-d", "14", "--mults", "4^10", "--prime", "2147483647"]) == 2
    assert "admits min(rows, columns) <= 0" in capsys.readouterr().err
    assert main(["check", "-d", "14", "--mults", "4^10", "--prime", "65537"]) == 0
    capsys.readouterr()


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
