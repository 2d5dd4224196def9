"""The benchmark's entry points under perfbench/ still run against the package.

perfbench/traced_cli.py replaces package functions it looks up by name, and
perfbench/setup_probe.py imports and calls the package; a rename in src/
fails here rather than in a benchmark round.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300)


def test_traced_cli_and_setup_probe_run(tmp_path):
    spans = tmp_path / "spans.json"
    log = str(tmp_path / "log.jsonl")
    proc = _run([str(BENCH / "traced_cli.py"), str(spans), "campaign", "--degrees", "14",
                 "--shard", "5/87", "--out", log], tmp_path)
    assert proc.returncode == 0, proc.stderr
    # rank spans are recorded only where the units ran in the traced process
    names = {span[0] for span in json.loads(spans.read_text())["spans"]}
    assert {"gfp.rank", "campaign.run_campaign"} <= names, sorted(names)

    # 3 records verify; they cannot close the degree, so the audit may exit 1
    for args, wanted in ((["verify", "--full", log], {"campaign.verify_log"}),
                         (["audit-closure", "-d", "14", "--results", log],
                          {"campaign.ResultStore.load", "reduction.closure_audit"})):
        proc = _run([str(BENCH / "traced_cli.py"), str(spans), "--json", *args], tmp_path)
        assert proc.returncode in (0, 1), proc.stderr
        names = {span[0] for span in json.loads(spans.read_text())["spans"]}
        assert wanted <= names, sorted(names)

    proc = _run([str(BENCH / "setup_probe.py"), "14"], tmp_path)
    assert proc.returncode == 0, proc.stderr
