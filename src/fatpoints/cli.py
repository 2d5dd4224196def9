"""Command-line surface for batch verification runs.

Convention: human-readable progress and diagnostics go to stderr; the
primary result goes to stdout, as a plain value normally or as one JSON
object when --json is passed.  Exit codes: 0 success, 1 inconclusive or
failed verification, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ._version import __version__
from .campaign import CampaignConfig, ResultStore, run_campaign, status, verify_log
from .enumeration import count_cases, export_csv, iter_cases
from .gfp import DEFAULT_PRIME
from .interpolation import check_case
from .model import SystemSpec, VERDICT_NON_SPECIAL, edim, parse_mults, vdim
from .reduction import closure_audit


def _eprint(*args):
    print(*args, file=sys.stderr)


def _parse_degrees(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    d = int(text)
    return d, d


def _parse_shard(text: str) -> tuple[int, int]:
    i, n = text.split("/", 1)
    return int(i), int(n)


def _system_from_args(args) -> SystemSpec:
    return SystemSpec(args.degree, parse_mults(args.mults).items())


def _echo_config(name: str, args):
    shown = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    _eprint(f"fatpoints {__version__} {name}: {shown}")


def _cmd_vdim(args) -> int:
    spec = _system_from_args(args)
    N, S, v, e = spec.n_monomials, spec.conditions_total, vdim(spec), edim(spec)
    _eprint(f"{spec}: N={N} S={S} vdim={v} edim={e}")
    if args.json:
        print(json.dumps({"spec": spec.to_text(), "N": N, "S": S, "vdim": v, "edim": e}))
    else:
        print(v)
    return 0


def _cmd_enumerate(args) -> int:
    if args.count_only:
        n = count_cases(args.alg, args.degree)
        _eprint(f"algorithm {args.alg.upper()} d={args.degree}: {n} cases")
        print(json.dumps({"alg": args.alg, "degree": args.degree, "count": n})
              if args.json else n)
        return 0
    if args.csv:
        n = export_csv(args.csv, args.alg, args.degree)
        _eprint(f"wrote {n} cases to {args.csv}")
        print(json.dumps({"alg": args.alg, "degree": args.degree, "count": n,
                          "csv": str(args.csv)}) if args.json else n)
        return 0
    count = 0
    for case in iter_cases(args.alg, args.degree):
        count += 1
        line = f"{case.degree} {case.q} {case.x} {case.y} {case.z}"
        print(json.dumps(list(case.key())) if args.json else line)
    _eprint(f"{count} cases")
    return 0


def _cmd_check(args) -> int:
    spec = _system_from_args(args)
    cert = check_case(
        spec,
        prime=args.prime,
        seed=args.seed,
        max_attempts=args.attempts,
        fundamental=args.fundamental,
    )
    dim = cert.N - 1 - cert.rank
    _eprint(
        f"{spec}: verdict={cert.verdict} rank={cert.rank} of {min(cert.N, cert.S)}"
        f" dim={dim} (N={cert.N}, S={cert.S}, prime={cert.prime}, seed={cert.seed},"
        f" attempts={cert.attempts}, {cert.elapsed_ms} ms)"
    )
    if cert.verdict != VERDICT_NON_SPECIAL:
        _eprint(
            "note: a rank deficit at random points is evidence, not proof, of"
            " speciality; only maximal rank certifies"
        )
    if args.json:
        print(cert.to_json())
    else:
        print(cert.verdict)
    return 0 if cert.verdict == VERDICT_NON_SPECIAL else 1


def _cmd_campaign(args) -> int:
    config = CampaignConfig(
        degrees=_parse_degrees(args.degrees),
        out=Path(args.out),
        base_seed=args.seed,
        max_attempts=args.attempts,
        shard=_parse_shard(args.shard),
        resume=args.resume,
    )
    summary = run_campaign(config)
    for d, stats in summary["degrees"].items():
        _eprint(
            f"d={d}: {stats['non_special']}/{stats['expected']} non-special,"
            f" {stats['inconclusive']} inconclusive, {stats['error']} errors"
        )
    if summary["inconclusive"] or summary["errors"]:
        _eprint("ATTENTION: inconclusive or failed cases present; see the log")
    print(json.dumps(summary))
    return 0 if summary["ok"] else 1


def _cmd_verify(args) -> int:
    report = verify_log(args.path, full=args.full)
    _eprint(
        f"{args.path}: {report.total} records, {report.replayed} replayed,"
        f" {len(report.mismatches)} mismatches, {len(report.corrupt)} corrupt,"
        f" {len(report.structural)} structural problems"
    )
    if args.json:
        print(json.dumps(report.to_dict()))
    else:
        print("ok" if report.ok else "failed")
    return 0 if report.ok else 1


def _cmd_status(args) -> int:
    rows = status(args.path, _parse_degrees(args.degrees))
    for row in rows:
        _eprint(
            f"d={row['degree']}: {row['done']}/{row['expected']} done,"
            f" {row['pending']} pending, {row['inconclusive']} inconclusive,"
            f" {row['errors']} errors"
        )
    if args.json:
        print(json.dumps(rows))
    return 0


def _cmd_audit_closure(args) -> int:
    store = ResultStore.load(args.results)
    report = closure_audit(args.degree, store)
    _eprint(
        f"d={args.degree}: audited {report.targets_checked} signatures,"
        f" {len(report.gaps)} gaps"
    )
    if args.json:
        print(json.dumps({"degree": report.degree, "targets": report.targets_checked,
                          "gaps": [list(g) for g in report.gaps], "ok": report.ok}))
    else:
        print("ok" if report.ok else "gaps")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fatpoints",
        description="non-specialty verification of fat-point systems on P^3",
    )
    parser.add_argument("--json", action="store_true", help="JSON result on stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vdim", help="virtual dimension of one system")
    p.add_argument("-d", "--degree", type=int, required=True)
    p.add_argument("--mults", default="", help="multiplicities, e.g. 10^1,4^20,3^5")
    p.set_defaults(func=_cmd_vdim)

    p = sub.add_parser("enumerate", help="list or count the window cases")
    p.add_argument("--alg", choices=("a", "b"), required=True)
    p.add_argument("-d", "--degree", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--csv", metavar="PATH")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("check", help="rank-check one system")
    p.add_argument("-d", "--degree", type=int, required=True)
    p.add_argument("--mults", default="")
    p.add_argument("--prime", type=int, default=DEFAULT_PRIME,
                   help="prime modulus; a matrix is checked only if"
                        " min(rows, columns) * p^2 + p <= 2^53")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--attempts", type=int, default=3)
    p.add_argument("--fundamental", action="store_true",
                   help="pin up to 4 points at the coordinate points")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("campaign", help="run the sweep for a degree range")
    p.add_argument("--degrees", required=True, metavar="A..B")
    p.add_argument("--shard", default="1/1", metavar="I/N")
    p.add_argument("--out", required=True, metavar="PATH")
    p.add_argument("--resume", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--attempts", type=int, default=3)
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser("verify", help="replay a result log")
    p.add_argument("path")
    p.add_argument("--full", action="store_true", help="replay every record")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("status", help="progress per degree")
    p.add_argument("path")
    p.add_argument("--degrees", required=True, metavar="A..B")
    p.set_defaults(func=_cmd_status)

    p = sub.add_parser("audit-closure", help="check deduction coverage of a degree")
    p.add_argument("-d", "--degree", type=int, required=True)
    p.add_argument("--results", required=True, metavar="PATH")
    p.set_defaults(func=_cmd_audit_closure)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    _echo_config(args.command, args)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, FileExistsError, RuntimeError) as exc:
        _eprint(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
