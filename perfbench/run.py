#!/usr/bin/env python3
"""End-to-end benchmark of the fatpoints proof pipeline, run through its CLI.

usage: python3 perfbench/run.py --workload {d14_proof,d30_shard} --seed N
                                --seconds S --trace {0,1}

Run it from the root of a source checkout: the program is imported from
src/ and nothing is installed.  Work files go to .perfbench_out/.  The last
line of stdout is one JSON object with correct, attempted, failed and the
metrics: the end-to-end ones with --trace 0, the per-layer ones (taken from
spans recorded by traced_cli.py) with --trace 1.  README.md in this
directory describes the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Set-up probes per batch; a run times one batch before its rounds, one after
# them and one after the checks, so that its median spans the whole run.
SETUP_BATCH = 3
# Columns of the d=30 matrix given to the planted-deficit check: a tall
# 512-column slice keeps the check to seconds and still spans two column
# blocks, so the trailing update runs.
PLANTED_COLUMNS = 512


@dataclass(frozen=True)
class Workload:
    degree: int
    shard: tuple[int, int]
    stages: tuple[str, ...]
    published_cases: Optional[int] = None
    independent_cases: int = 0
    forged_record: bool = False


WORKLOADS = {
    # The whole proof of one degree: many small matrices, log I/O, replay
    # and the closure audit.
    "d14_proof": Workload(14, (1, 1), ("campaign", "verify", "audit"),
                          published_cases=checks.D14_PUBLISHED_CASES,
                          independent_cases=2, forged_record=True),
    # Three ~4590 x 4576 matrices on two workers: BLAS-bound elimination and
    # its memory.  Replaying them (35 s) or auditing d=30 (35 M targets)
    # would not fit the run, so the shard is campaign only.
    "d30_shard": Workload(30, (1, 35), ("campaign",)),
}


def child_env() -> dict:
    env = dict(os.environ)
    for name in ("FATPOINTS_THREADS", "FATPOINTS_BACKEND"):
        env.pop(name, None)  # the program's defaults, not the caller's
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_process(cmd: list[str], stem: Path) -> tuple[float, float, int, str]:
    """Run cmd to completion: (wall s, peak RSS MiB, exit code, stdout)."""
    with open(f"{stem}.out", "w") as out, open(f"{stem}.err", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode, Path(f"{stem}.out").read_text()


def cli_args(stage: str, wl: Workload, seed: int, log: Path) -> list[str]:
    if stage == "campaign":
        i, n = wl.shard
        return ["campaign", "--degrees", str(wl.degree), "--shard", f"{i}/{n}",
                "--seed", str(seed), "--out", str(log)]
    if stage == "verify":
        return ["--json", "verify", "--full", str(log)]
    return ["--json", "audit-closure", "-d", str(wl.degree), "--results", str(log)]


def run_cli(args: list[str], stem: Path, spans: Optional[Path] = None):
    if spans is None:
        cmd = [sys.executable, "-m", "fatpoints.cli", *args]
    else:
        cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(spans), *args]
    wall, rss, code, text = run_process(cmd, stem)
    lines = text.strip().splitlines()
    if code not in (0, 1) or not lines:  # 1 reports failed cases, 2 an error
        raise RuntimeError(f"fatpoints {' '.join(args)} exited with {code}; see {stem}.err")
    return wall, rss, json.loads(lines[-1])


def run_round(wl: Workload, seed: int, rdir: Path, traced: bool) -> dict:
    """One pass over the workload's stages; timings are per stage."""
    rdir.mkdir(parents=True)
    rnd = {"dir": rdir, "log": rdir / "campaign.log", "wall": {}, "rss_mib": 0.0,
           "out": {}, "spans": {}}
    for stage in wl.stages:
        spans = rdir / f"{stage}.spans.json" if traced else None
        wall, rss, out = run_cli(cli_args(stage, wl, seed, rnd["log"]), rdir / stage, spans)
        rnd["wall"][stage] = wall
        rnd["rss_mib"] = max(rnd["rss_mib"], rss)
        rnd["out"][stage] = out
        if spans is not None:
            rnd["spans"][stage] = json.loads(spans.read_text())["spans"]
    return rnd


def read_records(log: Path) -> list[dict]:
    records = []
    for line in log.read_text().splitlines():
        data = json.loads(line)
        if not data.get("header"):
            records.append(data)
    return records


def tally(wl: Workload, rnd: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) of one round, from its outputs and log."""
    expected = checks.shard_cases(wl.degree, wl.shard)
    problems = []
    if wl.published_cases is not None and len(expected) != wl.published_cases:
        problems.append(f"own enumeration gives {len(expected)} cases,"
                        f" published {wl.published_cases}")
    records = read_records(rnd["log"])
    failed, found = checks.check_certificates(records, expected)
    problems += found
    attempted = len(expected)
    if "verify" in rnd["out"]:
        rep = rnd["out"]["verify"]
        attempted += len(records)
        failed += len(rep["mismatches"])
        if rep["replayed"] != len(records) or rep["corrupt"] or rep["structural"]:
            problems.append(f"verify replayed {rep['replayed']} of {len(records)} records,"
                            f" corrupt {rep['corrupt']}, structural {rep['structural']}")
    if "audit" in rnd["out"]:
        audit = rnd["out"]["audit"]
        want = checks.audit_target_count(wl.degree)
        attempted += want
        failed += len(audit["gaps"])
        if audit["targets"] != want:
            problems.append(f"audit checked {audit['targets']} targets, expected {want}")
    return attempted, failed, problems


def fatpoints_rank(mat: np.ndarray, p: int) -> int:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from fatpoints.gfp import rank

    return rank(mat, p)


def spot_checks(wl: Workload, rnd: dict, seed: int) -> list[str]:
    """The checks outside the timed region that recompute ranks."""
    rng = random.Random(f"perfbench-{seed}")
    problems = []
    # sorted, since workers append records in the order they finish
    records = sorted((r for r in read_records(rnd["log"]) if r.get("verdict") == "non_special"),
                     key=lambda r: r["case"])
    for rec in rng.sample(records, min(wl.independent_cases, len(records))):
        case = tuple(rec["case"])
        want = min(checks.n_monomials(case[0]), checks.conditions(*case[1:]))
        got = checks.independent_rank(case, rng)
        if got != want:
            problems.append(f"independent elimination of {case}: rank {got}, expected {want}")

    tall = [c for c in checks.shard_cases(wl.degree, wl.shard)
            if checks.conditions(*c[1:]) > checks.n_monomials(wl.degree)]
    case = rng.choice(tall)
    N = checks.n_monomials(wl.degree)
    cols = None if N <= PLANTED_COLUMNS else np.array(sorted(rng.sample(range(N), PLANTED_COLUMNS)))
    mat = checks.interpolation_matrix(wl.degree, checks.case_counts(case), rng, columns=cols)
    if cols is None and checks.rank_mod_p(mat) != N:
        problems.append(f"own elimination of the planted-deficit matrix of {case} is not full rank")
    problems += checks.planted_deficit(fatpoints_rank, mat, rng.randint(2, 8), rng)

    if wl.forged_record and records:
        rec = rng.choice(records)
        forged = rnd["dir"] / "forged.log"
        header = rnd["log"].read_text().splitlines()[0]
        forged.write_text(header + "\n" + json.dumps(checks.forge_record(rec)) + "\n")
        _, _, report = run_cli(["--json", "verify", "--full", str(forged)], rnd["dir"] / "forged")
        problems += checks.forged_record_problems(report, rec)
    return problems


def setup_probes(wl: Workload, workdir: Path, times: list[float]):
    """Append the wall times, spawn to exit, of SETUP_BATCH set-up probes."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(wl.degree)]
    for _ in range(SETUP_BATCH):
        stem = workdir / f"setup{len(times)}"
        wall, _, code, _ = run_process(cmd, stem)
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}; see {stem}.err")
        times.append(wall)


def end_to_end(rnd: dict) -> dict:
    return {
        "campaign_s": rnd["wall"]["campaign"],
        "proof_s": sum(rnd["wall"].values()),
        "peak_rss_mib": rnd["rss_mib"],
    }


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of a traced round
# ---------------------------------------------------------------------------

def elimination_flops(m: int, n: int) -> int:
    """2 * sum_{k < min(m, n)} (m - k)(n - k); 2/3 n^3 for a square matrix."""
    s = min(m, n)
    return 2 * (s * m * n - (m + n) * s * (s - 1) // 2 + (s - 1) * s * (2 * s - 1) // 6)


def matmul_gflops(m: int, n: int) -> float:
    """Best rate of a float64 (m x n) @ (n x n) product, at least 2 calls and 1 s."""
    gen = np.random.default_rng(0)
    a = gen.integers(0, checks.PRIME, (m, n)).astype(np.float64)
    b = gen.integers(0, checks.PRIME, (n, n)).astype(np.float64)
    times = []
    while len(times) < 2 or sum(times) < 1.0:
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return 2 * m * n * n / min(times) / 1e9


def layer_metrics(rnd: dict) -> dict:
    spans = [s for stage_spans in rnd["spans"].values() for s in stage_spans]

    def dur(s):
        return s[2] - s[1]

    def busy(name):
        return sum(dur(s) for s in spans if s[0] == name)

    def count(name):
        return sum(1 for s in spans if s[0] == name)

    ranks = [s for s in spans if s[0] == "gfp.rank"]
    flops = sum(elimination_flops(*s[5]["shape"]) for s in ranks)
    largest = max((s[5]["shape"] for s in ranks), key=lambda shape: elimination_flops(*shape))

    campaign_spans = rnd["spans"]["campaign"]
    children = [0.0] * len(campaign_spans)
    for s in campaign_spans:
        if s[3] is not None:
            children[s[3]] += dur(s)
    cases = [(i, s) for i, s in enumerate(campaign_spans) if s[0] == "interpolation.check_case"]
    run = next(s for s in campaign_spans if s[0] == "campaign.run_campaign")
    records = read_records(rnd["log"])

    return {
        "gfp.rank.calls": (len(ranks), "count"),
        "gfp.rank.busy_s": (busy("gfp.rank"), "s"),
        "gfp.rank.gflops": (flops / busy("gfp.rank") / 1e9, "GFLOP/s"),
        "gfp.matmul_ceiling.gflops": (matmul_gflops(*largest), "GFLOP/s"),
        "interpolation.check_case.calls": (len(cases), "count"),
        "interpolation.check_case.busy_s": (busy("interpolation.check_case"), "s"),
        "interpolation.check_case.self_s": (sum(dur(s) - children[i] for i, s in cases), "s"),
        "interpolation.build_matrix.busy_s": (busy("interpolation.build_matrix"), "s"),
        "interpolation.reduce_fundamental.busy_s": (busy("interpolation.reduce_fundamental"), "s"),
        "interpolation.attempts_per_case": (
            statistics.mean(r.get("attempts", 0) for r in records), "attempts/case"),
        "interpolation.replay_certificate.busy_s": (busy("interpolation.replay_certificate"), "s"),
        "monomials.monomial_basis.calls": (count("monomials.monomial_basis"), "count"),
        "monomials.monomial_basis.busy_s": (busy("monomials.monomial_basis"), "s"),
        "enumeration.algorithm_b_cases.busy_s": (busy("enumeration.algorithm_b_cases"), "s"),
        "campaign.run_campaign.wall_s": (dur(run), "s"),
        "campaign.idle_worker_s": (
            run[5]["threads"] * dur(run) - busy("interpolation.check_case"), "s"),
        "campaign.log_bytes": (rnd["log"].stat().st_size, "bytes"),
        "campaign.verify_log.wall_s": (busy("campaign.verify_log"), "s"),
        "campaign.ResultStore.load.busy_s": (busy("campaign.ResultStore.load"), "s"),
        "reduction.closure_audit.wall_s": (busy("reduction.closure_audit"), "s"),
        "reduction.deduce.calls": (count("reduction.deduce"), "count"),
        "reduction.deduce.busy_s": (busy("reduction.deduce"), "s"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int,
                        help="passed to campaign --seed; also seeds the checks")
    parser.add_argument("--seconds", required=True, type=int,
                        help="repeat whole rounds until this much time has passed")
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fatpoints" / "cli.py").is_file():
        print(f"error: no fatpoints sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    workdir = OUT / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    setup = []

    def probe():
        if not args.trace:
            setup_probes(wl, workdir, setup)

    probe()
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < args.seconds:
        rounds.append(run_round(wl, args.seed, workdir / f"round{len(rounds)}", False))
    traced = run_round(wl, args.seed, workdir / "traced", True) if args.trace else None
    probe()

    attempted = failed = 0
    problems = []
    for rnd in rounds + ([traced] if traced else []):
        a, f, p = tally(wl, rnd)
        attempted, failed, problems = attempted + a, failed + f, problems + p
    problems += spot_checks(wl, rounds[-1], args.seed)
    probe()

    plain = {name: statistics.median(end_to_end(r)[name] for r in rounds)
             for name in end_to_end(rounds[0])}
    stages = {s: statistics.median(r["wall"][s] for r in rounds) for s in wl.stages}
    print(f"{args.workload} seed {args.seed}: {len(rounds)} round(s), stage wall s "
          + ", ".join(f"{s} {t:.3f}" for s, t in stages.items()), file=sys.stderr)
    if traced:
        metrics = layer_metrics(traced)
        for name, value in end_to_end(traced).items():
            if name.endswith("_s"):
                metrics[f"trace.overhead.{name}"] = (value - plain[name], "s")
    else:
        metrics = {name: (value, "MiB" if name == "peak_rss_mib" else "s")
                   for name, value in plain.items()}
        metrics["setup_s"] = (statistics.median(setup), "s")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
