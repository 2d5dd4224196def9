#!/usr/bin/env python3
"""The functions and statements of src/fatpoints that a typical run never reaches.

Runs, in this process under sys.settrace, the README's CLI examples at
d = 14/15 (vdim, enumerate --alg a/b, the three checks, campaign --degrees
14, a sharded 14..15 campaign and its --resume, verify with and without
--full, status, audit-closure plain and --json), the commands of the two
perfbench workloads (d14_proof and d30_shard), perfbench's direct
gfp.rank of a float64 matrix and setup_probe.py's calls.  The units of
those campaigns and verifies run in this process, where the tracer sees
them: campaign._callees_replaced is patched to say so, as a tracer that
replaces a unit's callee does.  Then campaign --degrees 14 and the
d30_shard campaign run once more unpatched, so that the pool's parent side
is traced too (its forked workers are not): with 71 units, and with three,
which on 2 CPUs is the count worker_count gives one worker each.

Prints every function of src/fatpoints whose body never ran, then per
module the statements never reached, as line ranges.  A statement counts as
reached when a line of its own (a compound statement's header, not its
body) ran.  Nothing is written; the run takes about 20 s on 2 cores.

Usage:
    python benchmarks/unreached.py
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fatpoints"
SEED = 14  # campaign --seed of both workloads


def commands(tmp: Path) -> list[list[str]]:
    """The CLI commands traced, in order, with their logs under tmp."""
    run, shard, d14, d30 = (str(tmp / name) for name in ("run.jsonl", "shard.jsonl",
                                                          "d14.jsonl", "d30.jsonl"))
    return [
        # README
        ["vdim", "-d", "9", "--mults", "4^11"],
        ["enumerate", "--alg", "b", "-d", "15", "--count-only"],
        ["enumerate", "--alg", "a", "-d", "14", "--count-only"],
        ["enumerate", "--alg", "a", "-d", "14", "--csv", str(tmp / "cases.csv")],
        ["enumerate", "--alg", "b", "-d", "14"],
        ["check", "-d", "3", "--mults", "2^5"],
        ["check", "-d", "2", "--mults", "2^2"],
        ["--json", "check", "-d", "14", "--mults", "10^1,4^21,3^3,2^2", "--seed", "621"],
        ["campaign", "--degrees", "14", "--out", run],
        ["campaign", "--degrees", "14..15", "--shard", "2/8", "--out", shard],
        ["campaign", "--degrees", "14..15", "--shard", "2/8", "--out", shard, "--resume"],
        ["verify", run],
        ["verify", run, "--full"],
        ["status", run, "--degrees", "14..15"],
        ["audit-closure", "-d", "14", "--results", run],
        ["--json", "audit-closure", "-d", "14", "--results", run],
        # perfbench d14_proof and d30_shard
        ["campaign", "--degrees", "14", "--shard", "1/1", "--seed", str(SEED), "--out", d14],
        ["--json", "verify", "--full", d14],
        ["--json", "audit-closure", "-d", "14", "--results", d14],
        ["campaign", "--degrees", "30", "--shard", "1/35", "--seed", str(SEED), "--out", d30],
    ]


def cut_for_resume(log: Path):
    """Keep the header and first record of log, then half a line, as a killed run leaves it."""
    header, record, *_ = log.read_text().splitlines(keepends=True)
    log.write_text(header + record + record[: len(record) // 2])


class Coverage:
    """The lines that ran and the code objects entered, per file of the package."""

    def __init__(self):
        self.lines: dict[str, set[int]] = {}
        self.entered: set[tuple[str, int]] = set()

    def trace(self, frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(str(PACKAGE)):
            return None
        self.entered.add((path, frame.f_code.co_firstlineno))
        lines = self.lines.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local


def own_lines(node: ast.stmt) -> range:
    """The lines of a statement that run as its own, not as a statement of its body."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        first = min([d.lineno for d in node.decorator_list] + [node.lineno])
        return range(first, node.body[0].lineno)
    if isinstance(node, (ast.If, ast.While)):
        return range(node.lineno, node.test.end_lineno + 1)
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return range(node.lineno, node.iter.end_lineno + 1)
    if isinstance(node, (ast.With, ast.AsyncWith)):
        return range(node.lineno, node.items[-1].context_expr.end_lineno + 1)
    return range(node.lineno, node.end_lineno + 1)


def statements(body: list, qualname: str = ""):
    """Yield (statement, qualified name of the def or class it is in or "", own lines) under body.

    Docstrings and global declarations compile to nothing that runs, so they
    are left out, and so is a try, whose except clauses count as statements.
    """
    for i, node in enumerate(body):
        if isinstance(node, (ast.Global, ast.Nonlocal)) or (
                i == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue
        if isinstance(node, ast.Try):
            yield from statements(node.body, qualname)
            for handler in node.handlers:
                header_end = handler.type.end_lineno if handler.type else handler.lineno
                yield handler, qualname, range(handler.lineno, header_end + 1)
                yield from statements(handler.body, qualname)
            yield from statements(node.orelse, qualname)
            yield from statements(node.finalbody, qualname)
            continue
        yield node, qualname, own_lines(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{qualname}.{node.name}" if qualname else node.name
            yield from statements(node.body, inner)
        else:
            for field in ("body", "orelse"):
                yield from statements(getattr(node, field, []), qualname)


def spans(lines: list[int]) -> str:
    """1, 2, 3, 7 as "1-3, 7"."""
    out, start = [], None
    for i, line in enumerate(lines):
        if start is None:
            start = line
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            out.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(out)


def report(cov: Coverage) -> str:
    """The unentered functions, then per module the unreached statements."""
    functions, modules = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        ran = cov.lines.get(str(path), set())
        total, missed = 0, []
        for node, qualname, lines in statements(ast.parse(path.read_text()).body):
            total += 1
            if not ran.intersection(lines):
                missed.append(lines)
            # a def's code object starts at its first decorator, where its lines start
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and (str(path), lines.start) not in cov.entered):
                name = f"{qualname}.{node.name}" if qualname else node.name
                functions.append(f"  {path.stem}.{name} (line {node.lineno})")
        listed = sorted({line for lines in missed for line in lines})
        modules.append(f"  {path.name}: {len(missed)} of {total}"
                       + (f" (lines {spans(listed)})" if listed else ""))
    return "\n".join([f"functions never entered ({len(functions)}):", *functions,
                      "statements never reached, per module:", *modules])


def run(tmp: Path) -> list[tuple[list[str], int]]:
    """Run the module docstring's commands and calls; each command's exit code."""
    import numpy as np

    import fatpoints.campaign as campaign
    from fatpoints import gfp
    from fatpoints.cli import main
    from fatpoints.enumeration import algorithm_b_cases
    from fatpoints.reduction import KnownResults

    codes = []

    def cli(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append((argv, main(argv)))

    algorithm_b_cases(14)  # setup_probe.py
    KnownResults.bootstrap()
    rng = np.random.default_rng(SEED)
    gfp.rank(rng.integers(0, 73, size=(60, 50)).astype(np.float64), 73)  # perfbench's own call
    pooled = campaign._callees_replaced
    campaign._callees_replaced = lambda: True
    try:
        for argv in commands(tmp):
            if "--resume" in argv:
                cut_for_resume(Path(argv[argv.index("--out") + 1]))
            cli(argv)
    finally:
        campaign._callees_replaced = pooled
    # the pool's parent side, on 71 units and on three
    cli(["campaign", "--degrees", "14", "--out", str(tmp / "pooled.jsonl")])
    cli(["campaign", "--degrees", "30", "--shard", "1/35", "--seed", str(SEED),
         "--out", str(tmp / "pooled_d30.jsonl")])
    return codes


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    sys.path.insert(0, str(PACKAGE.parent))
    cov = Coverage()
    with tempfile.TemporaryDirectory() as tmp:
        sys.settrace(cov.trace)
        try:
            codes = run(Path(tmp))
        finally:
            sys.settrace(None)
    for argv, code in codes:
        print(f"exit {code}: fatpoints {' '.join(argv)}", file=sys.stderr)
    print(report(cov))
    return 0


if __name__ == "__main__":
    sys.exit(main())
