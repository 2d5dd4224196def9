"""Campaign orchestration: run the case sweeps, persist and replay certificates.

The result log is JSON-lines: a header record first, then one record per
case, appended family by family in the order the families run.  Append-only
writing keeps the log usable after a crash (a partial trailing line is cut
off on resume), and a resume refuses a log whose header names another
config; sharded runs on separate machines produce disjoint logs whose
concatenation equals the unsharded log up to ordering.

The units of work are independent: a family in run_campaign, a record's
replay in verify_log.  Both run them in a pool of spawned worker processes,
each with its BLAS pinned to one thread, and consume the results in
submission order, so the log and verify's report keep their order.  The
worker count is worker_count's: max(1, min(usable CPUs, units, available
memory // the largest unit's peak estimate)).  With one worker the units
run in the calling process with its own BLAS threads; shard splits the work
across processes or machines.

Cases run by family: the cases of one (q, x, y) inside a shard.  Their
systems differ only in the number z of 2-points, which come last, so at one
seed each case's matrix is a leading row block of the largest one's, and
one elimination gives every rank (interpolation.check_family).  check_case
then retries any case that fell short.  Attempt 1
of every case of a family uses the family seed, base_seed + first *
max_attempts, where first is the lowest index of its (q, x, y) in
algorithm_b_cases(d); it does not depend on the shard.  A case short of
maximal rank is retried alone under the per-case rule: attempt a uses
base_seed + index * max_attempts + a - 1.  Headers say which rule their
records follow ("seed_rule"); headers without the field, written before
families, follow the per-case rule for every attempt.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import interpolation
from ._version import __version__
from .enumeration import algorithm_b_cases
from .gfp import PRIME_LADDER
from .interpolation import (
    Certificate,
    check_case,
    check_family,
    peak_bytes,
    replay_certificate,
)
from .model import (
    CaseSignature,
    VERDICT_INCONCLUSIVE,
    VERDICT_NON_SPECIAL,
    parse_system,
)

VERDICT_ERROR = "error"
SEED_RULE = "family"


@dataclass
class CampaignConfig:
    """Everything one sweep needs; identical configs replay identically."""

    degrees: tuple[int, int]
    out: Path
    base_seed: int = 0
    max_attempts: int = 3
    shard: tuple[int, int] = (1, 1)
    resume: bool = False

    def __post_init__(self):
        lo, hi = self.degrees
        if not (13 <= lo <= hi <= 40):
            raise ValueError(f"degrees must lie in [13, 40], got {self.degrees}")
        i, n = self.shard
        if not 1 <= i <= n:
            raise ValueError(f"shard must satisfy 1 <= i <= n, got {i}/{n}")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_seed < 0:
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
            # every run starts at PRIME_LADDER[0] and escalates along it
            "primes": list(PRIME_LADDER),
            "base_seed": self.base_seed,
            "max_attempts": self.max_attempts,
            "shard": list(self.shard),
            "fundamental": True,  # always on; kept so digests match older logs
            "seed_rule": SEED_RULE,
        }

    def digest(self) -> str:
        blob = json.dumps(self.digest_fields(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class CertRecord:
    case: CaseSignature
    index: int
    cert: Optional[Certificate]
    error: str = ""

    @property
    def verdict(self) -> str:
        return self.cert.verdict if self.cert else VERDICT_ERROR

    def to_line(self) -> str:
        body = {"case": list(self.case.key()), "index": self.index}
        if self.cert:
            body.update(self.cert.to_dict())
        else:
            body["error"] = self.error
        return json.dumps(body)

    @classmethod
    def from_dict(cls, data: dict) -> "CertRecord":
        case = CaseSignature(*data["case"])
        if "error" in data:
            return cls(case, int(data.get("index", -1)), None, data["error"])
        return cls(case, int(data.get("index", -1)), Certificate.from_dict(data))


def _scan_lines(path) -> Iterator[tuple[int, Optional[dict], str]]:
    """Yield (lineno, parsed record or header or None, error message) per log line."""
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                yield lineno, None, f"unparseable JSON: {exc}"
                continue
            if "case" not in data and not data.get("header"):
                yield lineno, None, "record missing 'case'"
                continue
            yield lineno, data, ""


class ResultStore:
    """In-memory index of certificate records, keyed by case identity."""

    def __init__(self):
        self._records: dict[tuple, CertRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key) -> bool:
        return tuple(key) in self._records

    def add(self, record: CertRecord):
        """Index record; it replaces an earlier record of its case only if that is an error."""
        key = record.case.key()
        if key in self._records and self._records[key].cert is not None:
            raise ValueError(f"duplicate record for case {key}")
        self._records[key] = record

    def finished(self, key) -> bool:
        """Whether the case has a record other than an error, which a resume retries."""
        rec = self._records.get(tuple(key))
        return rec is not None and rec.cert is not None

    def records(self) -> list[CertRecord]:
        return list(self._records.values())

    def cases(self, d: int) -> list[tuple[CaseSignature, int, str]]:
        """Reduction-facing view: (signature, condition total, verdict)."""
        out = []
        for rec in self._records.values():
            if rec.case.degree == d:
                s = rec.cert.S if rec.cert else rec.case.conditions_total
                out.append((rec.case, s, rec.verdict))
        return out

    @classmethod
    def load(cls, path) -> "ResultStore":
        """Strict load: raises on corrupt interior lines or duplicates.

        A truncated final line (crash artifact) is tolerated and ignored.  A
        later record of a case is no duplicate while every earlier one is an
        error record; the latest then wins.
        """
        store = cls()
        entries = list(_scan_lines(path))
        for pos, (lineno, data, err) in enumerate(entries):
            if err:
                if pos == len(entries) - 1:
                    continue  # partial trailing write from a killed run
                raise ValueError(f"{path}:{lineno}: {err}")
            if not data.get("header"):
                store.add(CertRecord.from_dict(data))
        return store


def _check_header(path: Path, config: CampaignConfig):
    """Refuse to resume a log whose header is missing or names another config.

    A log holding nothing but a partial first line is a crash before the
    header was complete; it is left for _trim_partial_line to cut.
    """
    with open(path, "rb") as fh:
        first = fh.readline()
    if not first.endswith(b"\n"):
        return
    try:
        header = json.loads(first)
    except json.JSONDecodeError:
        header = None
    if not isinstance(header, dict) or not header.get("header"):
        raise ValueError(f"{path} has no header line; refusing to resume into it")
    if header.get("digest") != config.digest():
        raise ValueError(
            f"{path} was written under another config (digest {header.get('digest')},"
            f" this run's is {config.digest()}); refusing to resume into it"
        )


def _trim_partial_line(path: Path):
    """Cut the file after its last newline, dropping a killed writer's partial line.

    Appending onto such a fragment would glue the next record to it.
    """
    data = path.read_bytes()
    keep = data.rfind(b"\n") + 1
    if keep < len(data):
        with open(path, "r+b") as fh:
            fh.truncate(keep)


def _shard_indices(n_cases: int, shard: tuple[int, int]) -> list[int]:
    i, n = shard
    return [idx for idx in range(n_cases) if idx % n == i - 1]


def _family_firsts(cases: list[CaseSignature]) -> dict[tuple[int, int, int], int]:
    """Lowest case index of each (q, x, y) family."""
    first: dict[tuple[int, int, int], int] = {}
    for idx, case in enumerate(cases):
        first.setdefault((case.q, case.x, case.y), idx)
    return first


def _families(
    cases: list[CaseSignature], todo: list[tuple[int, CaseSignature]]
) -> list[tuple[int, list[tuple[int, CaseSignature]]]]:
    """todo grouped by (q, x, y), largest head first.

    Each family comes with the lowest index of its (q, x, y) in cases, and
    its members are in ascending z, so the last one is the head.
    """
    firsts = _family_firsts(cases)
    groups: dict[tuple[int, int, int], list[tuple[int, CaseSignature]]] = {}
    for idx, case in todo:
        groups.setdefault((case.q, case.x, case.y), []).append((idx, case))
    families = [(firsts[qxy], sorted(group, key=lambda pair: pair[1].z))
                for qxy, group in groups.items()]
    families.sort(key=lambda fam: (-fam[1][-1][1].conditions_total, fam[0]))
    return families


def _start_store(config: CampaignConfig) -> ResultStore:
    """The records a run of config starts from: its log's, if it resumes into one."""
    out = config.out
    if config.resume and out.exists() and out.stat().st_size > 0:
        return ResultStore.load(out)
    return ResultStore()


def _plan(config: CampaignConfig, done: ResultStore) -> tuple[dict, list]:
    """Per-degree counts of what done holds, and the families left to compute.

    The families come as (degree, first, family) in run order: degree by
    degree, largest head first (_families).  A case whose only records are
    errors is left to compute, and its errors are not counted.
    """
    degrees, plan = {}, []
    for d in range(config.degrees[0], config.degrees[1] + 1):
        cases = algorithm_b_cases(d)
        mine = _shard_indices(len(cases), config.shard)
        todo = [(idx, cases[idx]) for idx in mine if not done.finished(cases[idx].key())]
        stats = {"expected": len(mine), "done": len(mine) - len(todo),
                 VERDICT_NON_SPECIAL: 0, VERDICT_INCONCLUSIVE: 0, VERDICT_ERROR: 0}
        for case, _, verdict in done.cases(d):
            if verdict != VERDICT_ERROR:
                stats[verdict] = stats.get(verdict, 0) + 1
        degrees[d] = stats
        plan += [(d, first, family) for first, family in _families(cases, todo)]
    return degrees, plan


# BLAS libraries read these when they load.  A spawned worker loads numpy
# before it runs a unit, so they are set while the workers start.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        return os.cpu_count() or 1


_SELF_CGROUP = Path("/proc/self/cgroup")
_CGROUP_MOUNT = Path("/sys/fs/cgroup")
# (directories under _CGROUP_MOUNT, limit file, usage file, memory.stat key of
# the reclaimable page cache) for the v2 hierarchy and the v1 memory controller
_CGROUP_V2 = (("", "unified"), "memory.max", "memory.current", "inactive_file")
_CGROUP_V1 = (("memory",), "memory.limit_in_bytes", "memory.usage_in_bytes", "total_inactive_file")


def _cgroup_room(group: Path, limit_file: str, usage_file: str, cache_key: str) -> Optional[int]:
    """Bytes group's memory limit leaves, counting inactive page cache as free; None without one."""
    try:
        limit = int((group / limit_file).read_text())  # "max" (no limit) raises
        usage = int((group / usage_file).read_text())
        stat = dict(line.split() for line in (group / "memory.stat").read_text().splitlines())
        return max(0, limit - usage + int(stat.get(cache_key, 0)))
    except (OSError, ValueError):
        return None


def _cgroup_headroom() -> Optional[int]:
    """Bytes this process's memory cgroups leave, or None if none of them has a limit.

    The least room over the process's cgroup and its ancestors, since a
    limit on any of them binds, in the v2 hierarchy and the v1 memory
    controller.  MemAvailable does not see these limits.
    """
    try:
        entries = [line.split(":", 2) for line in _SELF_CGROUP.read_text().splitlines()]
    except OSError:
        return None
    rooms = []
    for _, controllers, path in entries:
        if not controllers:
            dirs, *files = _CGROUP_V2
        elif "memory" in controllers.split(","):
            dirs, *files = _CGROUP_V1
        else:
            continue
        for top in (_CGROUP_MOUNT / name for name in dirs):
            group = top / path.lstrip("/")
            while True:
                rooms.append(_cgroup_room(group, *files))
                if group == top or top not in group.parents:
                    break
                group = group.parent
    rooms = [room for room in rooms if room is not None]
    return min(rooms) if rooms else None


def _mem_available() -> int:
    """Bytes that can be allocated without swapping.

    MemAvailable, else the free pages, and no more than the memory cgroups
    leave (_cgroup_headroom).
    """
    avail = None
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    avail = int(line.split()[1]) * 1024
                    break
    except OSError:
        pass
    if avail is None:
        avail = os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    room = _cgroup_headroom()
    return avail if room is None else min(avail, room)


def _callees_replaced() -> bool:
    """Whether this process replaced a function the units call, as a tracer does.

    A spawned worker imports the package afresh, so the replacement would
    see none of the units' calls.
    """
    return any(globals()[name] is not getattr(interpolation, name)
               for name in ("check_family", "check_case", "replay_certificate"))


def worker_count(peaks: Sequence[int]) -> int:
    """Worker processes for units with these peak memory estimates (peak_bytes).

    max(1, min(usable CPUs, units, available memory // the largest peak)), so
    the units in flight fit in memory together.  It is 1 while a function
    the units call is replaced in this process, so that the units run here.
    """
    if not peaks or _callees_replaced():
        return 1
    return max(1, min(_usable_cpus(), len(peaks), _mem_available() // max(peaks)))


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
    called.  With more, the tasks go to a pool of that many spawned worker
    processes, which pickles fn by reference, so fn must be a module-level
    function.  Every task is submitted at once, and the workers start during
    submission, under _blas_pinned.  A worker that dies breaks the pool:
    each task without a result then raises BrokenProcessPool.
    """
    if workers <= 1:
        for task in tasks:
            yield functools.partial(fn, *task)
        return
    import multiprocessing  # here, so that importing the CLI does not pay for the pool
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))
    try:
        with _blas_pinned():
            futures = [pool.submit(fn, *task) for task in tasks]
        for future in futures:
            yield future.result
    finally:
        pool.shutdown(cancel_futures=True)


def _error_records(family: list[tuple[int, CaseSignature]], error: str) -> list[CertRecord]:
    return [CertRecord(case, idx, None, error) for idx, case in family]


def _family_unit(
    config: CampaignConfig, first: int, family: list[tuple[int, CaseSignature]]
) -> list[CertRecord]:
    """The records of one family: attempt 1 by check_family, the retries by check_case.

    A pool unit: a failure comes back as error records, not as an exception.
    """
    try:
        specs = [case.to_system() for _, case in family]
        tried = check_family(
            specs,
            prime=PRIME_LADDER[0],
            seed=config.base_seed + first * config.max_attempts,
            fundamental=True,
        )
        return [
            CertRecord(case, idx, check_case(
                spec,
                prime=PRIME_LADDER[0],
                seed=config.base_seed + idx * config.max_attempts,
                max_attempts=config.max_attempts,
                fundamental=True,
                first=cert,
            ))
            for (idx, case), spec, cert in zip(family, specs, tried)
        ]
    except MemoryError as exc:  # pragma: no cover - depends on host RAM
        return _error_records(family, f"out of memory: {exc}")
    except Exception as exc:
        return _error_records(family, f"{type(exc).__name__}: {exc}")


def run_campaign(config: CampaignConfig) -> dict:
    """Sweep every degree in range, appending certificates to the log.

    Degree by degree, largest head first within a degree (_plan), the
    families left go to config.effective_threads(plan) workers
    (_run_units).  Each family's records are appended and flushed in that
    order as its results arrive, so a log's records are in family order
    whatever the worker count.  A family whose worker died gets error
    records.  A case whose only records are errors is computed again.
    Returns a summary with per-degree counts; any inconclusive or failed
    case is surfaced there and must be treated as a red flag.
    """
    out = config.out
    out.parent.mkdir(parents=True, exist_ok=True)
    if out.exists() and out.stat().st_size > 0:
        if not config.resume:
            raise FileExistsError(f"{out} exists; pass resume to continue into it")
        _check_header(out, config)
        _trim_partial_line(out)
    done = _start_store(config)
    degrees, plan = _plan(config, done)
    workers = config.effective_threads(plan)
    if not (out.exists() and out.stat().st_size > 0):
        with open(out, "a") as fh:
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
                    "cpus": _usable_cpus(),
                    "mem_available_bytes": _mem_available(),
                },
            }
            fh.write(json.dumps(header) + "\n")

    summary = {
        "degrees": degrees,
        "computed": 0,
        "inconclusive": 0,
        "errors": 0,
        "shard": list(config.shard),
    }
    tasks = [(config, first, family) for _, first, family in plan]
    with open(out, "a") as fh:
        # _run_units first, so that zip runs it to its end, which shuts its pool down
        for result, (d, _, family) in zip(_run_units(_family_unit, tasks, workers), plan):
            try:
                records = result()
            except Exception as exc:  # the pool broke, e.g. a worker was killed
                records = _error_records(family, f"{type(exc).__name__}: {exc}")
            stats = summary["degrees"][d]
            for record in records:
                fh.write(record.to_line() + "\n")
                done.add(record)
                stats[record.verdict] = stats.get(record.verdict, 0) + 1
                summary["computed"] += 1
            fh.flush()
    for stats in summary["degrees"].values():
        stats["done"] = stats[VERDICT_NON_SPECIAL] + stats[VERDICT_INCONCLUSIVE] + stats[VERDICT_ERROR]
        summary["inconclusive"] += stats[VERDICT_INCONCLUSIVE]
        summary["errors"] += stats[VERDICT_ERROR]
    summary["ok"] = summary["inconclusive"] == 0 and summary["errors"] == 0
    return summary


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


def _family_first(case: CaseSignature, cache: dict) -> Optional[int]:
    """Lowest index of case's (q, x, y) in algorithm_b_cases, or None if it is no such case."""
    d = case.degree
    if d not in cache:
        try:
            cases = algorithm_b_cases(d)
        except ValueError:
            cases = []
        cache[d] = (_family_firsts(cases), {c.key() for c in cases})
    firsts, keys = cache[d]
    return firsts[(case.q, case.x, case.y)] if case.key() in keys else None


def _schedule_problems(record: CertRecord, config: Optional[dict], firsts: dict) -> list[str]:
    """Where a record's seed and prime differ from the ones its header's config assigns.

    firsts caches _family_first per degree.
    """
    cert = record.cert
    try:
        max_attempts = int(config["max_attempts"])
        base = int(config["base_seed"])
        rule = config.get("seed_rule", "per_case")
    except (KeyError, TypeError, ValueError):
        return ["no header config above the record"]
    if rule not in ("per_case", SEED_RULE):
        return [f"unknown seed rule {rule!r} in the header"]
    if rule == SEED_RULE and cert.attempts == 1:
        first = _family_first(record.case, firsts)
        if first is None:
            return ["not an algorithm-B case, so it has no family seed"]
        seed = base + first * max_attempts
    else:
        seed = base + record.index * max_attempts + cert.attempts - 1
    escalated = max_attempts > 1 and cert.attempts == max_attempts
    prime = PRIME_LADDER[1 if escalated else 0]
    problems = []
    if cert.seed != seed:
        problems.append(f"seed {cert.seed} is not the header's {seed}")
    if cert.prime != prime:
        problems.append(f"prime {cert.prime} is not the header's {prime}")
    return problems


def verify_log(path, full: bool = False) -> VerifyReport:
    """Validate a result log and replay certificates against fresh ranks.

    Every record is checked structurally (N, S recomputed from the system,
    verdict consistent with the recorded rank, case identity matching the
    spec, seed and prime the ones the nearest header above assigns, no
    duplicates).  A later record of a case is no duplicate while every
    earlier one is an error record, and the latest is the one checked.
    Ranks are recomputed for every record with full=True, else for a
    deterministic evenly-spaced sample.  A replay ranks the record's own
    matrix, never a family's; the replays run on worker_count's workers
    (_run_units), and mismatches are reported in line order.
    """
    report = VerifyReport()
    latest: dict[tuple, tuple[int, CertRecord, Optional[dict]]] = {}
    config = None
    for lineno, data, err in _scan_lines(path):
        if err:
            report.corrupt.append({"line": lineno, "error": err})
            continue
        if data.get("header"):
            config = data.get("config")
            continue
        try:
            record = CertRecord.from_dict(data)
        except Exception as exc:
            report.corrupt.append({"line": lineno, "error": f"bad record: {exc}"})
            continue
        key = record.case.key()
        if key in latest and latest[key][1].cert is not None:
            report.corrupt.append({"line": lineno, "error": f"duplicate case {key}"})
            continue
        latest[key] = (lineno, record, config)
    records = sorted(latest.values(), key=lambda entry: entry[0])
    report.total = len(records)

    checkable = []
    firsts: dict = {}
    for lineno, record, config in records:
        if record.cert is None:
            continue
        cert = record.cert
        try:
            spec = parse_system(cert.spec)
        except ValueError as exc:
            report.structural.append({"line": lineno, "error": f"bad spec: {exc}"})
            continue
        problems = []
        if CaseSignature.from_system(spec).key() != record.case.key():
            problems.append("case identity does not match spec")
        if spec.n_monomials != cert.N:
            problems.append(f"N mismatch: {spec.n_monomials} != {cert.N}")
        if spec.conditions_total != cert.S:
            problems.append(f"S mismatch: {spec.conditions_total} != {cert.S}")
        maximal = cert.rank == min(cert.N, cert.S)
        if (cert.verdict == VERDICT_NON_SPECIAL) != maximal:
            problems.append(f"verdict {cert.verdict} inconsistent with rank {cert.rank}")
        problems += _schedule_problems(record, config, firsts)
        if problems:
            report.structural.append({"line": lineno, "error": "; ".join(problems)})
            continue
        checkable.append((lineno, record, spec))

    if checkable:
        if full:
            picked = checkable
        else:
            want = min(len(checkable), max(10, len(checkable) // 10))
            step = max(1, len(checkable) // want)
            picked = checkable[::step][:want]
        workers = worker_count([peak_bytes(spec) for _, _, spec in picked])
        replays = _run_units(replay_certificate, [(record.cert,) for _, record, _ in picked], workers)
        for replay, (lineno, record, _) in zip(replays, picked):
            got = replay()
            report.replayed += 1
            if got != record.cert.rank:
                report.mismatches.append(
                    {
                        "line": lineno,
                        "case": list(record.case.key()),
                        "recorded_rank": record.cert.rank,
                        "replayed_rank": got,
                    }
                )
    return report


def status(path, degrees: tuple[int, int]) -> list[dict]:
    """Per-degree progress against the enumerator's expected totals."""
    store = ResultStore()
    if path and Path(path).exists():
        store = ResultStore.load(path)
    rows = []
    for d in range(degrees[0], degrees[1] + 1):
        expected = len(algorithm_b_cases(d))
        recs = store.cases(d)
        non_special = sum(1 for _, _, v in recs if v == VERDICT_NON_SPECIAL)
        inconclusive = sum(1 for _, _, v in recs if v == VERDICT_INCONCLUSIVE)
        errors = sum(1 for _, _, v in recs if v == VERDICT_ERROR)
        rows.append(
            {
                "degree": d,
                "expected": expected,
                "done": len(recs),
                "non_special": non_special,
                "inconclusive": inconclusive,
                "errors": errors,
                "pending": expected - len(recs),
            }
        )
    return rows
