"""Run one fatpoints CLI command with a span around each layer's public functions.

usage: python perfbench/traced_cli.py SPANS.json <fatpoints arguments ...>

Each wrapper is installed at the name the calling module looks up (for
example fatpoints.interpolation.rank, which is gfp.rank as _run_one sees
it), so no file of the program changes.  Spans stay in memory and are
written to SPANS.json when the command ends, as a list of
[name, start, end, parent index or null, thread id, attributes or null].
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time


class Recorder:
    """In-memory spans with parent links along each thread's call stack.

    A span opened on a thread with no open span of its own (a campaign
    worker) takes the outermost open span of the main thread as its parent.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = None

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            on_main = threading.current_thread() is threading.main_thread()
            parent = stack[-1] if stack else (None if on_main else self._root)
            span = [name, 0.0, 0.0, parent, threading.get_ident(),
                    attrs(*args, **kwargs) if attrs else None]
            with self._lock:
                idx = len(self.spans)
                self.spans.append(span)
            if on_main and not stack:
                self._root = idx
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced


def install(rec: Recorder):
    import fatpoints.campaign as campaign
    import fatpoints.cli as cli
    import fatpoints.interpolation as interpolation
    import fatpoints.reduction as reduction

    targets = [
        (cli, "run_campaign", "campaign.run_campaign",
         lambda config: {"threads": config.effective_threads()}),
        (cli, "verify_log", "campaign.verify_log", None),
        (cli, "closure_audit", "reduction.closure_audit", None),
        (campaign, "check_case", "interpolation.check_case", None),
        (campaign, "replay_certificate", "interpolation.replay_certificate", None),
        (campaign, "algorithm_b_cases", "enumeration.algorithm_b_cases", None),
        (interpolation, "rank", "gfp.rank",
         lambda mat, *args, **kwargs: {"shape": list(mat.shape)}),
        (interpolation, "build_matrix", "interpolation.build_matrix", None),
        (interpolation, "reduce_fundamental", "interpolation.reduce_fundamental", None),
        (interpolation, "monomial_basis", "monomials.monomial_basis", None),
        (reduction, "deduce", "reduction.deduce", None),
    ]
    for module, attr, name, attrs in targets:
        setattr(module, attr, rec.wrap(name, getattr(module, attr), attrs))
    load = campaign.ResultStore.load.__func__
    campaign.ResultStore.load = classmethod(rec.wrap("campaign.ResultStore.load", load))


def main(argv: list[str]) -> int:
    out, args = argv[0], argv[1:]
    rec = Recorder()
    install(rec)
    from fatpoints.cli import main as cli_main

    try:
        return cli_main(args)
    finally:
        with open(out, "w") as fh:
            json.dump({"spans": rec.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
