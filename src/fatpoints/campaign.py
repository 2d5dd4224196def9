"""Campaign orchestration: run the case sweeps, persist and replay certificates.

The result log is JSON-lines: a header record first, then one certificate
record per case, appended family by family in the order the families run.
Append-only writing keeps the log usable after a crash (a partial trailing
line is cut off on resume), one run writes a log at a time (_lock_log), and
a resume refuses a log with a header of another config; sharded runs on
separate machines produce disjoint logs whose concatenation equals the
unsharded log up to ordering.  A family that raises, or whose worker dies,
ends the run with that exception; the families written before it stay in
the log, and a resume computes the rest.

The units of work are independent: a family in run_campaign, a family's
replay or one record's in verify_log.  Both run them in a pool of worker
processes (forked on Linux with numpy's OpenBLAS, else spawned), each with
its BLAS on one thread, and consume the results in submission order, so the
log and verify's report keep their order.  The worker count is worker_count's:
max(1, min(usable CPUs, units, available memory // the largest unit's peak
estimate)), or one worker per unit when the units number between the CPUs
and twice as many and fit in memory together.  With one worker the units run
in the calling process with its own BLAS threads; shard splits the work
across processes or machines.

Cases run by family: the cases of one (q, x, y) inside a shard.  Their
systems differ only in the number z of 2-points, which come last, so at one
seed each case's matrix is a leading row block of the largest one's, and
one elimination gives every rank (interpolation.check_family).  check_case
then retries any case that fell short.  interpolation.attempt_schedule
gives each attempt its prime and seed.  A case's first seed is its family
seed, base_seed + first * MAX_ATTEMPTS, where first (the family first) is
the lowest index of its (q, x, y) in algorithm_b_cases(d), so it does not
depend on the shard; its retry seed is base_seed + index * MAX_ATTEMPTS.
Both indices come from one per-degree index, _degree_cases, the seeds from
_seed and a shard's cases from _in_shard, for the log's writer and checker.

Every reader takes a log by one rule, _read_log's.  A header counts only if
this version writes it (_header_config); under any other header, or none,
every record is structural.  verify_log reports the corrupt and structural
lines and replays the sound records; ResultStore.load, so status,
audit-closure and a resume, refuses the log at the first of them or at a
header of another format, but ignores an unterminated last line.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
from contextlib import closing, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import gfp, interpolation
from ._version import __version__
from .enumeration import B_DEGREE_MAX, B_DEGREE_MIN, algorithm_b_cases
from .interpolation import (
    MAX_ATTEMPTS,
    Certificate,
    attempt_schedule,
    check_case,
    check_assignment,
    check_family,
    peak_bytes,
    replay_certificate,
    replay_family,
)
from .model import (
    CaseSignature,
    VERDICT_INCONCLUSIVE,
    VERDICT_NON_SPECIAL,
    json_int,
    parse_system,
)

# verify_log also replays every _CROSS_CHECK-th member of a family other than
# its head alone, in line order, so that each full verify compares the ranks
# read off a head's elimination with the ranks of the members' own matrices.
_CROSS_CHECK = 10


def _check_degrees(degrees: tuple[int, int]):
    """Raise ValueError unless degrees is an integer range lo..hi in B_DEGREE_MIN..B_DEGREE_MAX."""
    lo, hi = (json_int(d, "degrees") for d in degrees)
    if not (B_DEGREE_MIN <= lo <= hi <= B_DEGREE_MAX):
        raise ValueError(f"degrees must lie in [{B_DEGREE_MIN}, {B_DEGREE_MAX}],"
                         f" got {degrees}")


@functools.lru_cache(maxsize=None)
def _degree_cases(d: int) -> tuple[tuple[CaseSignature, ...], dict]:
    """algorithm_b_cases(d), and each case key's (index, family first); shared, so read-only."""
    cases = tuple(algorithm_b_cases(d))
    firsts, positions = {}, {}
    for idx, case in enumerate(cases):
        positions[case.key()] = (idx, firsts.setdefault((case.q, case.x, case.y), idx))
    return cases, positions


@dataclass
class CampaignConfig:
    """Everything one sweep needs; identical configs replay identically."""

    degrees: tuple[int, int]
    out: Path
    base_seed: int = 0
    shard: tuple[int, int] = (1, 1)
    resume: bool = False

    def __post_init__(self):
        _check_degrees(self.degrees)
        i, n = (json_int(k, "shard") for k in self.shard)
        if not 1 <= i <= n:
            raise ValueError(f"shard must satisfy 1 <= i <= n, got {i}/{n}")
        if json_int(self.base_seed, "base_seed") < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        self.out = Path(self.out)

    def effective_threads(self, plan: Optional[list] = None) -> int:
        """Worker processes the run uses: worker_count over the families it computes.

        plan is _plan's for this config, made here from the log the run
        starts from when not given; on a resume it holds only the families
        that log does not finish.  The pool, the log header's env and the
        benchmark tracer read it.
        """
        if plan is None:
            plan = _plan(self, _start_store(self))[1]
        return worker_count([peak_bytes(family[-1][1].to_system()) for _, _, family in plan])

    def digest_fields(self) -> dict:
        return {
            "degrees": list(self.degrees),
            # the primes attempt_schedule reads
            "primes": list(interpolation.PRIME_LADDER),
            "base_seed": self.base_seed,
            "max_attempts": MAX_ATTEMPTS,
            "shard": list(self.shard),
            # a case's first seed is its family's
            "seed_rule": "family",
        }

    def digest(self) -> str:
        blob = json.dumps(self.digest_fields(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class CertRecord:
    case: CaseSignature
    index: int
    cert: Certificate

    def to_line(self) -> str:
        return json.dumps({"case": list(self.case.key()), "index": self.index,
                           **self.cert.to_dict()})

    @classmethod
    def from_dict(cls, data: dict) -> "CertRecord":
        case = CaseSignature(*(json_int(k, "case") for k in data["case"]))
        return cls(case, json_int(data["index"], "index"), Certificate.from_dict(data))


def _header_config(header: dict, out) -> Optional[CampaignConfig]:
    """The config a header line of this version names, or None for any other header.

    The header's config must parse into a CampaignConfig (its constructor
    validates it) whose digest_fields() it equals, and its digest must be
    that config's digest().
    """
    try:
        fields = header["config"]
        config = CampaignConfig(tuple(fields["degrees"]), out, fields["base_seed"],
                                tuple(fields["shard"]))
    except (KeyError, TypeError, ValueError):
        return None
    if config.digest_fields() != fields or config.digest() != header.get("digest"):
        return None
    return config


# the error _read_log gives the bytes after a log's last newline
_UNTERMINATED = "unterminated last line"


def _read_log(path) -> Iterator[tuple[int, str, object]]:
    """Yield (lineno, kind, detail) for each line of the log at path but blank ones.

    A line counts once it ends in a newline.  kind is one of
    - "header", with the config _header_config gives it, None for another format;
    - "corrupt", with the error: no UTF-8, no JSON object, no record
      CertRecord.from_dict accepts, a second record of a case, or the bytes
      after the last newline (_UNTERMINATED);
    - "structural", with the error: a record whose spec does not parse or
      that _record_problems faults under the nearest header above;
    - "sound", with (record, its parsed spec, that header's config).
    """
    config, seen = None, set()
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.endswith(b"\n"):
                yield lineno, "corrupt", _UNTERMINATED
                return
            if not raw.strip():
                continue
            try:
                data = json.loads(raw.decode("utf-8"))
                if isinstance(data, dict) and data.get("header"):
                    config = _header_config(data, path)
                    yield lineno, "header", config
                    continue
                if not isinstance(data, dict) or "case" not in data:
                    raise ValueError("no JSON object with a 'case'")
                record = CertRecord.from_dict(data)
            except Exception as exc:
                yield lineno, "corrupt", f"{type(exc).__name__}: {exc}"
                continue
            key = record.case.key()
            if key in seen:
                yield lineno, "corrupt", f"duplicate case {key}"
                continue
            seen.add(key)
            try:
                spec = parse_system(record.cert.spec)
            except ValueError as exc:
                yield lineno, "structural", f"bad spec: {exc}"
                continue
            problems = _record_problems(record, spec, config)
            if problems:
                yield lineno, "structural", "; ".join(problems)
            else:
                yield lineno, "sound", (record, spec, config)


class ResultStore:
    """Certificate records keyed by case identity, and the configs of load's headers."""

    def __init__(self):
        self._records: dict[tuple, CertRecord] = {}
        self.configs: list[CampaignConfig] = []

    def add(self, record: CertRecord):
        """Index record; a second record of its case is a duplicate."""
        key = record.case.key()
        if key in self._records:
            raise ValueError(f"duplicate record for case {key}")
        self._records[key] = record

    def finished(self, key) -> bool:
        """Whether the case has a record."""
        return tuple(key) in self._records

    def cases(self, d: int) -> list[tuple[CaseSignature, int, str]]:
        """Reduction-facing view: (signature, condition total, verdict)."""
        return [(rec.case, rec.cert.S, rec.cert.verdict)
                for rec in self._records.values() if rec.case.degree == d]

    @classmethod
    def load(cls, path) -> "ResultStore":
        """The records of the log at path that verify_log accepts, and its headers' configs.

        Strict: raises ValueError("path:line: ...") at the first corrupt or
        structural line (_read_log) and at a header this version does not
        write.  An unterminated last line (a killed writer's) is ignored.
        """
        store = cls()
        for lineno, kind, detail in _read_log(path):
            if kind == "sound":
                store.add(detail[0])
            elif kind == "header" and detail is not None:
                store.configs.append(detail)
            elif detail != _UNTERMINATED:
                detail = detail or "a header of another config or format"
                raise ValueError(f"{path}:{lineno}: {detail}")
        return store

    def tally(self, d: int) -> dict[str, int]:
        """The number of records of degree d per verdict."""
        counts = dict.fromkeys((VERDICT_NON_SPECIAL, VERDICT_INCONCLUSIVE), 0)
        for _, _, verdict in self.cases(d):
            counts[verdict] = counts.get(verdict, 0) + 1
        return counts


def _trim_partial_line(path: Path):
    """Cut the file after its last newline, dropping a killed writer's partial line.

    Appending onto such a fragment would glue the next record to it.
    """
    data = path.read_bytes()
    keep = data.rfind(b"\n") + 1
    if keep < len(data):
        with open(path, "r+b") as fh:
            fh.truncate(keep)


def _in_shard(index: int, shard: tuple[int, int]) -> bool:
    """Whether shard i/n runs the case at index of its degree: index % n == i - 1."""
    i, n = shard
    return index % n == i - 1


def _seed(base_seed: int, index: int) -> int:
    """A family's first seed, at index its family first, or a case's retry seed, at its index."""
    return base_seed + index * MAX_ATTEMPTS


def _families(
    todo: list[tuple[int, CaseSignature]]
) -> list[tuple[int, list[tuple[int, CaseSignature]]]]:
    """todo, (index, case) pairs of one degree, grouped by (q, x, y), largest head first.

    Each family comes with its family first (_degree_cases), and its members
    are in ascending z, so the last one is the head.
    """
    groups: dict[int, list[tuple[int, CaseSignature]]] = {}
    for idx, case in todo:
        first = _degree_cases(case.degree)[1][case.key()][1]
        groups.setdefault(first, []).append((idx, case))
    families = [(first, sorted(group, key=lambda pair: pair[1].z))
                for first, group in groups.items()]
    families.sort(key=lambda fam: (-fam[1][-1][1].conditions_total, fam[0]))
    return families


def _lock_log(fh, path: Path):
    """Hold an exclusive advisory lock on the log open as fh until fh closes; ValueError if taken.

    One run writes a log at a time: a second one, resuming into the same log
    say, is refused before it reads or changes a byte of it.  Readers take
    no lock, as they ignore an unterminated last line.  Forked workers
    inherit fh, and the lock with it.  Without fcntl (outside POSIX) no lock
    is taken.
    """
    try:
        import fcntl
    except ImportError:
        return
    try:
        fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        raise ValueError(f"{path} is being written by another run; refusing to write into it"
                         ) from None


def _start_store(config: CampaignConfig) -> ResultStore:
    """The records a run of config starts from: its log's, if it resumes into one."""
    out = config.out
    if config.resume and out.exists() and out.stat().st_size > 0:
        return ResultStore.load(out)
    return ResultStore()


def _plan(config: CampaignConfig, done: ResultStore) -> tuple[dict[int, int], list]:
    """The shard's case count per degree, and the families done leaves to compute.

    The families come as (degree, first, family) in run order: degree by
    degree, largest head first (_families).
    """
    expected, plan = {}, []
    for d in range(config.degrees[0], config.degrees[1] + 1):
        cases = _degree_cases(d)[0]
        mine = [idx for idx in range(len(cases)) if _in_shard(idx, config.shard)]
        todo = [(idx, cases[idx]) for idx in mine if not done.finished(cases[idx].key())]
        expected[d] = len(mine)
        plan += [(d, first, family) for first, family in _families(todo)]
    return expected, plan


# BLAS libraries read these when they load, so they pin a spawned worker's
# BLAS; a forked worker inherits the loaded one, which _openblas("set") pins.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@functools.lru_cache(maxsize=None)
def _openblas(verb: str):
    """numpy's OpenBLAS `verb`_num_threads ("set" or "get"), found by gfp._numpy_blas; None off Linux."""
    found = gfp._numpy_blas([f"{prefix}_{verb}_num_threads{tail}"
                             for prefix in ("scipy_openblas", "openblas") for tail in ("64_", "")])
    if found is None:
        return None
    import ctypes  # here, as multiprocessing is in _run_units
    fn = found[1]
    fn.argtypes, fn.restype = ([ctypes.c_int], None) if verb == "set" else ([], ctypes.c_int)
    return fn


def _start_method(workers: int) -> Optional[str]:
    """How _run_units starts its workers: "fork", "spawn", or None when the units run here."""
    return None if workers <= 1 else "spawn" if _openblas("set") is None else "fork"


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        return os.cpu_count() or 1


def _callees_replaced() -> bool:
    """Whether this process replaced a function the units call, as a tracer does.

    A spawned worker imports the package afresh, so the replacement would see
    none of the units' calls; a forked one's would not report back.
    """
    return any(globals()[name] is not getattr(interpolation, name)
               for name in ("check_family", "check_case", "replay_certificate", "replay_family"))


def _worker_init(parent: int):
    """Set up a pool worker of the process parent: one BLAS thread, and no life past parent's.

    numpy's OpenBLAS goes to one thread where _openblas finds its setter (a
    spawned worker's BLAS reads _BLAS_THREAD_VARS instead).  On Linux the
    worker asks for SIGKILL when its parent dies (prctl PR_SET_PDEATHSIG),
    and exits if that has already happened, so a killed run leaves no idle
    worker holding its memory.  The signal follows the thread that forked
    the worker, not its process: the pool forks every worker at its first
    submission, from the thread that submits, which is the main thread in
    the CLI (_run_units).
    """
    set_threads = _openblas("set")
    if set_threads is not None:
        set_threads(1)
    if sys.platform == "linux":
        import ctypes
        import signal
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(1, signal.SIGKILL)  # 1 is PR_SET_PDEATHSIG; it cannot fail for a valid signal
        if os.getppid() != parent:
            os._exit(1)


def worker_count(peaks: Sequence[int]) -> int:
    """Worker processes for units with these peak memory estimates (peak_bytes).

    max(1, min(usable CPUs, units, interpolation._mem_available() // the
    largest peak)): the units fit in memory together, and a check is refused
    against the same budget, so a retry escalated to PRIME_LADDER[1] (up to
    twice its peak) can be refused.  One case more: with U units, CPUs <
    U < 2 CPUs and memory for U workers, it is U, every unit at once on
    CPUs the kernel shares, so that no core idles through a short last
    round.  From 2 CPUs units on the pool runs two rounds or more, largest
    first.  It is 1 while a function the units call is replaced in this
    process, so that the units run here.
    """
    if not peaks or _callees_replaced():
        return 1
    cpus, units = _usable_cpus(), len(peaks)
    fits = interpolation._mem_available() // max(peaks)
    if cpus < units < 2 * cpus and units <= fits:
        return units
    return max(1, min(cpus, units, fits))


@contextmanager
def _blas_pinned():
    """Set every _BLAS_THREAD_VARS to 1 in the environment; restore the caller's values after."""
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _run_units(fn, tasks: Sequence[tuple], workers: int) -> Iterator[Callable[[], object]]:
    """For each task in order, a function that returns fn(*task) or raises what it raised.

    With one worker each task runs in this process when its function is
    called.  With more, the tasks go to a pool of that many worker
    processes, which pickles fn by reference, so fn must be a module-level
    function.  Every task is submitted at once, and the workers start during
    submission, under _blas_pinned.  They are forked (_start_method), all at
    the first submission, before the pool's manager thread starts, and each
    runs _worker_init, which pins numpy's OpenBLAS to one thread and ends
    the worker with this process; spawned ones import the caller's main
    module, which needs an `if __name__ == "__main__":` guard.
    numpy.random, which every unit's point sampling needs, is imported
    first, so that forked workers inherit it loaded.
    A worker that dies breaks the pool: each task without a result then
    raises BrokenProcessPool.  Closing the generator (contextlib.closing)
    shuts the pool down and waits for its workers, so a caller that stops
    early leaves no process behind.
    """
    if workers <= 1:
        for task in tasks:
            yield functools.partial(fn, *task)
        return
    import multiprocessing  # here, so that importing the CLI does not pay for the pool
    from concurrent.futures import ProcessPoolExecutor

    import numpy.random  # noqa: F401  (once, before the fork, not in each worker's first draw)

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context(_start_method(workers)),
                               initializer=_worker_init, initargs=(os.getpid(),))
    try:
        with _blas_pinned():
            futures = [pool.submit(fn, *task) for task in tasks]
        for future in futures:
            yield future.result
    finally:
        pool.shutdown(cancel_futures=True)


def _family_unit(
    config: CampaignConfig, first: int, family: list[tuple[int, CaseSignature]]
) -> list[CertRecord]:
    """The records of one family: attempt 1 by check_family, the retries by check_case."""
    specs = [case.to_system() for _, case in family]
    tried = check_family(specs, _seed(config.base_seed, first))
    return [
        CertRecord(case, idx, check_case(spec, _seed(config.base_seed, idx), cert))
        for (idx, case), spec, cert in zip(family, specs, tried)
    ]


def run_campaign(config: CampaignConfig) -> dict:
    """Sweep every degree in range, appending certificates to the log.

    The run holds the log's lock (_lock_log) from before it reads the log
    until it ends, so a second run into the same log is refused.  Degree by
    degree, largest head first within a degree (_plan), the families left go
    to config.effective_threads(plan) workers (_run_units).  Each family's
    records are appended and flushed in that order as its results arrive,
    so a log's records are in family order whatever the worker count.  A
    family that raises, or whose worker dies (BrokenProcessPool), ends the
    run with that exception once the pool is shut down; the families written
    before it stay, and a resume computes the rest.  Returns a summary with
    the log's per-degree counts after the run; any inconclusive case is
    surfaced there and must be treated as a red flag.
    """
    out = config.out
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "a") as fh:
        _lock_log(fh, out)  # held until fh closes, after the pool has shut down
        if out.stat().st_size > 0 and not config.resume:
            raise FileExistsError(f"{out} exists; pass resume to continue into it")
        done = _start_store(config)  # raises on a bad line before the log is touched
        for written in done.configs:
            if written.digest() != config.digest():
                raise ValueError(
                    f"{out} was written under another config (digest {written.digest()},"
                    f" this run's is {config.digest()}); refusing to resume into it"
                )
        _trim_partial_line(out)
        expected, plan = _plan(config, done)
        workers = config.effective_threads(plan)
        if not done.configs:  # nor records, which load refuses above every header
            header = {
                "header": True,
                "version": __version__,
                "numpy": np.__version__,
                "digest": config.digest(),
                "config": config.digest_fields(),
                # what the run had; outside config, so the digest ignores it
                "env": {
                    "workers": workers,
                    "blas_threads_per_worker": 1 if workers > 1 else None,  # None: the caller's own
                    "start_method": _start_method(workers),  # None: in this process
                    "cpus": _usable_cpus(),
                    "mem_available_bytes": interpolation._mem_available(),
                },
            }
            fh.write(json.dumps(header) + "\n")
            fh.flush()  # before the pool forks workers that copy fh's buffer

        computed = 0
        tasks = [(config, first, family) for _, first, family in plan]
        with closing(_run_units(_family_unit, tasks, workers)) as results:
            for result in results:
                records = result()
                for record in records:
                    fh.write(record.to_line() + "\n")
                    done.add(record)
                computed += len(records)
                fh.flush()
    degrees = {}
    for d, n in expected.items():
        tally = done.tally(d)
        degrees[d] = {"expected": n, "done": sum(tally.values()), **tally}
    inconclusive = sum(stats[VERDICT_INCONCLUSIVE] for stats in degrees.values())
    return {"degrees": degrees, "computed": computed, "inconclusive": inconclusive,
            "shard": list(config.shard), "ok": not inconclusive}


@dataclass
class VerifyReport:
    total: int = 0
    replayed: int = 0
    mismatches: list = field(default_factory=list)
    corrupt: list = field(default_factory=list)
    structural: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.mismatches or self.corrupt or self.structural)

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "replayed": self.replayed,
            "mismatches": self.mismatches,
            "corrupt": self.corrupt,
            "structural": self.structural,
            "ok": self.ok,
        }


def _header_problems(record: CertRecord, config: Optional[CampaignConfig]) -> list[str]:
    """Where a record differs from what its header's config assigns it.

    The case must be an algorithm-B case (_degree_cases) of the header's
    degrees and shard, logged at its index, and its attempt must run at the
    prime and seed attempt_schedule gives it from the header's base seed.
    """
    if config is None:
        return ["no header of this version above the record"]
    case, cert = record.case, record.cert
    try:
        position = _degree_cases(case.degree)[1].get(case.key())
    except ValueError:  # a degree outside the sweep
        position = None
    if position is None:
        return ["not an algorithm-B case"]
    index, first = position
    problems = []
    lo, hi = config.degrees
    if not lo <= case.degree <= hi:
        problems.append(f"degree {case.degree} is outside the header's {lo}..{hi}")
    if record.index != index:
        problems.append(f"index {record.index} is not the case's {index}")
    if not _in_shard(index, config.shard):
        i, n = config.shard
        problems.append(f"case index {index} is outside the header's shard {i}/{n}")
    base = config.base_seed
    scheduled = attempt_schedule(cert.attempts, _seed(base, first), _seed(base, index))
    if scheduled is None:
        return problems + [f"attempt {cert.attempts} is outside 1..{MAX_ATTEMPTS}"]
    prime, seed = scheduled
    if cert.seed != seed:
        problems.append(f"seed {cert.seed} is not the header's {seed}")
    if cert.prime != prime:
        problems.append(f"prime {cert.prime} is not the header's {prime}")
    return problems


def _record_problems(record: CertRecord, spec, config) -> list[str]:
    """Where a record of the parsed spec contradicts itself or its header's config.

    N and S must be the spec's, the case its identity, the fundamental
    assignment one check_assignment accepts, and the verdict non_special
    exactly when the rank is maximal; then _header_problems.
    """
    cert = record.cert
    problems = []
    if CaseSignature.from_system(spec).key() != record.case.key():
        problems.append("case identity does not match spec")
    if spec.n_monomials != cert.N:
        problems.append(f"N mismatch: {spec.n_monomials} != {cert.N}")
    if spec.conditions_total != cert.S:
        problems.append(f"S mismatch: {spec.conditions_total} != {cert.S}")
    try:
        check_assignment(spec, cert.fundamental_assignment)
    except ValueError as exc:
        problems.append(f"bad fundamental assignment: {exc}")
    maximal = cert.rank == min(cert.N, cert.S)
    if (cert.verdict == VERDICT_NON_SPECIAL) != maximal:
        problems.append(f"verdict {cert.verdict} inconsistent with rank {cert.rank}")
    return problems + _header_problems(record, config)


def _replay_unit(certs: list[Certificate]) -> list[int]:
    """The recomputed ranks of certs: one record's replay, or a family's (replay_family)."""
    if len(certs) == 1:
        return [replay_certificate(certs[0])]
    return replay_family(certs)


def _replay_units(picked: list[tuple]) -> list[list[tuple]]:
    """picked, (line, record, spec, family key or None) in line order, cut into replay units.

    The records of one family key form one unit and every other record a
    unit of its own, in the order of their first lines; then every
    _CROSS_CHECK-th member of a family other than its head, in line order,
    forms a unit of its own as well.
    """
    groups: dict = {}
    for entry in picked:
        lineno, _, _, family = entry
        groups.setdefault(lineno if family is None else family, []).append(entry)
    units = list(groups.values())
    members = sorted((entry for unit in units if len(unit) > 1
                      for entry in sorted(unit, key=lambda e: e[2].r)[:-1]),
                     key=lambda entry: entry[0])
    return units + [[entry] for entry in members[::_CROSS_CHECK]]


def verify_log(path, full: bool = False) -> VerifyReport:
    """Validate a result log and replay certificates against fresh ranks.

    _read_log's corrupt and structural lines (_record_problems) are listed
    in corrupt and structural, and only its sound records are replayed.
    Ranks are recomputed for every record with full=True, else for a
    deterministic evenly-spaced sample.  Records replay by family, as
    run_campaign computed them: the attempt-1 records that share degree, q,
    x, y, prime, seed and fundamental assignment are one unit, which
    replay_family ranks with one elimination of the largest one's matrix.
    Retries and escalated primes replay alone (replay_certificate), and so
    does every _CROSS_CHECK-th member of a family other than its head, as a
    check of the family's rank; a record is a mismatch if any of its replays
    differs from its rank.  The units run on worker_count's workers
    (_run_units), and mismatches are reported in line order.
    """
    report = VerifyReport()
    checkable = []
    for lineno, kind, detail in _read_log(path):
        if kind == "header":
            continue
        if kind == "corrupt":
            report.corrupt.append({"line": lineno, "error": detail})
            continue
        report.total += 1
        if kind == "structural":
            report.structural.append({"line": lineno, "error": detail})
            continue
        record, spec, _ = detail
        cert, family = record.cert, None
        if cert.attempts == 1:
            case = record.case
            family = (case.degree, case.q, case.x, case.y, cert.prime, cert.seed,
                      tuple(cert.fundamental_assignment))
        checkable.append((lineno, record, spec, family))

    if checkable:
        if full:
            picked = checkable
        else:
            want = min(len(checkable), max(10, len(checkable) // 10))
            step = max(1, len(checkable) // want)
            picked = checkable[::step][:want]
        units = _replay_units(picked)
        workers = worker_count([max(peak_bytes(spec, record.cert.prime)
                                    for _, record, spec, _ in unit) for unit in units])
        tasks = [([record.cert for _, record, _, _ in unit],) for unit in units]
        replays: dict[int, dict[str, int]] = {}
        with closing(_run_units(_replay_unit, tasks, workers)) as results:
            for result, unit in zip(results, units):
                how = "alone" if len(unit) == 1 else "family"
                for (lineno, _, _, _), got in zip(unit, result()):
                    replays.setdefault(lineno, {})[how] = got
        for lineno, record, _, _ in picked:
            got = replays[lineno]
            report.replayed += 1
            if set(got.values()) != {record.cert.rank}:
                mismatch = {
                    "line": lineno,
                    "case": list(record.case.key()),
                    "recorded_rank": record.cert.rank,
                    "replayed_rank": got.get("alone", got.get("family")),
                }
                if len(set(got.values())) > 1:
                    mismatch["family_rank"] = got["family"]
                report.mismatches.append(mismatch)
    return report


def status(path, degrees: tuple[int, int]) -> list[dict]:
    """Per-degree progress of the log at path against the enumerator's expected totals."""
    _check_degrees(degrees)
    store = ResultStore.load(path)
    rows = []
    for d in range(degrees[0], degrees[1] + 1):
        expected = len(_degree_cases(d)[0])
        tally = store.tally(d)
        done = sum(tally.values())
        rows.append({"degree": d, "expected": expected, "done": done,
                     "non_special": tally[VERDICT_NON_SPECIAL],
                     "inconclusive": tally[VERDICT_INCONCLUSIVE], "pending": expected - done})
    return rows
