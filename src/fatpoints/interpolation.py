"""Interpolation matrices at random points, rank checks, and certificates.

A rank check is one-sided: maximal rank at any special point set certifies
maximal rank at generic points (rank is lower-semicontinuous), so the system
is non-special.  A rank deficit at random points is only evidence of
speciality and yields the verdict "inconclusive" after retries.

Every check is replayable: the certificate records the prime, the seed and
the fundamental-point assignment, and regenerating the matrix from those
reproduces the identical rank.  One function, attempt_schedule, assigns
every attempt its prime and seed.

Systems that differ only in trailing points share one elimination (a
family).  Points are listed in descending multiplicity and drawn one by one
from one seeded generator, and row block j of a matrix belongs to point j.
So at the same prime, seed and fundamental assignment, a system whose
expanded point list is a prefix of another's has as its matrix the leading
row block of the other's matrix.  The matrix is built transposed, its
elimination yields the column rank profile, and the rank of every leading
row block follows by counting pivots (gfp.rank's leading).  A replay uses
it the same way (replay_family): it checks each record's prime, seed,
assignment and point list against the largest record's before it reads the
record's rank off that one elimination, and replays any other record alone
(replay_certificate), rebuilding the one system's own matrix.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .gfp import PRIME_LADDER, _exact_dtype, rank
from .model import (
    SystemSpec,
    VERDICT_INCONCLUSIVE,
    VERDICT_NON_SPECIAL,
    conditions_count,
    json_int,
    parse_system,
)
from .monomials import derivative_orders, monomial_basis

# Resident size of a process with the package and numpy loaded, rounded up.
_PROCESS_BYTES = 64 * 2**20


def _matrix_dtype(prime: int, rows: int, cols: int) -> np.dtype:
    """The dtype rank takes a rows x cols matrix in at prime; float64 for a shape it refuses."""
    return _exact_dtype(prime, min(rows, cols)) or np.dtype(np.float64)


def peak_bytes(spec: SystemSpec, prime: int = PRIME_LADDER[0]) -> int:
    """Estimated peak memory of a process that builds and ranks spec's matrix at prime.

    The unreduced N x S matrix in the dtype rank picks for its shape, half
    as much again for the kernel's workspace, and the interpreter.  At
    PRIME_LADDER[0] every matrix of the sweep is float32: the largest d = 40
    case comes to 937 MiB and its process peaks at 715 MiB (11480 x 11461
    after reduction), and a d = 30 shard's worker peaks at 155 MiB against
    an estimate of 234 MiB.  At 32003 they are float64, twice the matrix
    (1810 MiB for that d = 40 case): a retry escalated there can take that.
    worker_count sizes the pool by it and _transposed_matrix refuses a matrix by
    it less _PROCESS_BYTES, both against the one budget, _mem_available.
    """
    n, s = spec.n_monomials, spec.conditions_total
    return 3 * _matrix_dtype(prime, n, s).itemsize * n * s // 2 + _PROCESS_BYTES


_SELF_CGROUP = Path("/proc/self/cgroup")
_CGROUP_MOUNT = Path("/sys/fs/cgroup")
# (directories under _CGROUP_MOUNT, limit file, usage file, memory.stat key of
# the reclaimable page cache) for the v2 hierarchy and the v1 memory controller
_CGROUP_V2 = (("", "unified"), "memory.max", "memory.current", "inactive_file")
_CGROUP_V1 = (("memory",), "memory.limit_in_bytes", "memory.usage_in_bytes", "total_inactive_file")


def _cgroup_room(group: Path, limit_file: str, usage_file: str, cache_key: str,
                 ceiling: Optional[int] = None) -> Optional[int]:
    """Bytes group's memory limit leaves, counting inactive page cache as free.

    None without a limit, or with one of at least ceiling, which is then
    not read further.
    """
    try:
        limit = int((group / limit_file).read_text())  # "max" (no limit) raises
        if ceiling is not None and limit >= ceiling:
            return None
        usage = int((group / usage_file).read_text())
        stat = dict(line.split() for line in (group / "memory.stat").read_text().splitlines())
        return max(0, limit - usage + int(stat.get(cache_key, 0)))
    except (OSError, ValueError):
        return None


def _cgroup_headroom(ceiling: Optional[int] = None) -> Optional[int]:
    """Bytes this process's memory cgroups leave, or None if none of them has a limit.

    The least room over the process's cgroup and its ancestors, since a
    limit on any of them binds, in the v2 hierarchy and the v1 memory
    controller.  MemAvailable does not see these limits.  A limit of at
    least ceiling counts as none (_cgroup_room).
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
                rooms.append(_cgroup_room(group, *files, ceiling))
                if group == top or top not in group.parents:
                    break
                group = group.parent
    rooms = [room for room in rooms if room is not None]
    return min(rooms) if rooms else None


def _mem_available() -> int:
    """Bytes that can be allocated without swapping: the one memory budget.

    MemAvailable, else the free pages (the physical pages where none are
    counted), and no more than the memory cgroups leave (_cgroup_headroom).
    A cgroup's usage is at most MemTotal, so a limit of MemTotal +
    MemAvailable or more leaves at least MemAvailable and is not read
    further.
    """
    info = {}
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key in ("MemTotal", "MemAvailable"):
                    info[key] = int(value.split()[0]) * 1024
                    if len(info) == 2:
                        break
    except OSError:
        pass
    avail = info.get("MemAvailable")
    if avail is None:
        free = "SC_AVPHYS_PAGES" if "SC_AVPHYS_PAGES" in os.sysconf_names else "SC_PHYS_PAGES"
        avail = os.sysconf(free) * os.sysconf("SC_PAGE_SIZE")
    total = info.get("MemTotal")
    room = _cgroup_headroom() if total is None else _cgroup_headroom(total + avail)
    return avail if room is None else min(avail, room)


# Attempts of one rank check (attempt_schedule).
MAX_ATTEMPTS = 3

_MAX_RESAMPLE = 1000

# Rows build_matrix assembles at once: one 10-point's.
_RUN_ROWS = conditions_count(10)


class MatrixTooLargeError(ValueError):
    """Raised when a matrix would not fit in the free memory, _mem_available()."""


def _inverses(x: np.ndarray, p: int) -> np.ndarray:
    """x^(p - 2) mod p elementwise, for 0 <= x < p < 2**31: the inverse of every nonzero x, 0 at 0."""
    out, base, e = np.ones_like(x), x.copy(), p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def _projective_keys(pts: np.ndarray, p: int) -> list[tuple]:
    """Each row of pts mod p scaled so that its first nonzero coordinate is 1; a zero row stays 0."""
    pts = np.asarray(pts, dtype=np.int64).reshape(-1, 4) % p
    lead = pts[np.arange(len(pts)), np.argmax(pts != 0, axis=1)]
    return list(map(tuple, (pts * _inverses(lead, p)[:, None] % p).tolist()))


def _coordinate_point(slot: int) -> np.ndarray:
    pt = np.zeros(4, dtype=np.int64)
    pt[slot] = 1
    return pt


def _sample_distinct(count: int, prime: int, seed: int, avoid=()) -> np.ndarray:
    """count distinct random projective points, deterministic in seed.

    Candidates are rows of integers(0, prime, 4) from Generator(PCG64(seed)),
    taken in order: a zero row, or a row projectively equal to a point of
    avoid or to one taken before, is skipped, and after _MAX_RESAMPLE skipped
    rows in a row the call fails.  The rows are drawn in batches of the
    points still missing, which is the stream of as many single draws.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    seen = {(0, 0, 0, 0), *_projective_keys(avoid, prime)}
    out = np.empty((count, 4), dtype=np.int64)
    done = skipped = 0
    while done < count:
        cand = rng.integers(0, prime, (count - done, 4), dtype=np.int64)
        taken = []
        for i, key in enumerate(_projective_keys(cand, prime)):
            if key not in seen:
                seen.add(key)
                taken.append(i)
                skipped = 0
                continue
            skipped += 1
            if skipped == _MAX_RESAMPLE:
                raise RuntimeError(
                    f"could not sample {count} distinct points mod {prime}; prime too small"
                )
        out[done:done + len(taken)] = cand[taken]
        done += len(taken)
    return out


# The coordinates other than each chart's, in ascending order.
_OTHER = np.array([[j for j in range(4) if j != chart] for chart in range(4)])


def _residues(x: np.ndarray, fp: float, out: Optional[np.ndarray] = None,
              scratch: Optional[np.ndarray] = None):
    """x mod p into [0, p), into out (default x), for integer-valued 0 <= x <= L.

    L is 2**24 in float32 and 2**53 in float64.  x - floor(x / p) * p:
    floor(fl(x / p)) = floor(x / p) on that range, and the product, at most
    x, is exact.  The quotient goes to scratch, an array of x's shape, if
    given.
    """
    q = np.divide(x, fp, out=scratch)
    np.floor(q, out=q)
    q *= fp
    np.subtract(x, q, out=x if out is None else out)


@lru_cache(maxsize=None)
def _falling(mult: int, degree: int, p: int) -> np.ndarray:
    """F[b, e] = e!/(e-b)! mod p for b < mult and e <= degree, as read-only float64."""
    erange = np.arange(degree + 1, dtype=np.int64)
    fall = np.zeros((mult, degree + 1), dtype=np.int64)
    fall[0] = 1
    for b in range(1, mult):
        # factor e-b+1 hits zero at e = b-1 and the zero then propagates,
        # so no negative factor ever multiplies a nonzero entry
        fall[b] = fall[b - 1] * (erange - (b - 1)) % p
    out = fall.astype(np.float64)
    out.setflags(write=False)
    return out


def build_matrix(
    spec: SystemSpec,
    points: np.ndarray,
    prime: int,
    basis: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Assemble the interpolation matrix of spec at the given points.

    Row block j holds the conditions of point j (derivative orders up to its
    multiplicity minus one, in the fixed order of derivative_orders), columns
    follow monomial_basis(d).  Entries are residues in [0, p), stored in
    Fortran order in the dtype rank takes for the output's shape (float32
    or float64, gfp._exact_dtype; float64 for a shape rank refuses), so the
    transpose is a C-contiguous array that rank(..., overwrite=True)
    consumes without a copy.
    Each point is dehomogenized in the chart of its first nonzero coordinate.
    A basis subset may be passed to restrict columns (fundamental-point reduction).

    The entry of order b at monomial x^e is prod_i G_i[b_i, e_i] over the
    three affine coordinates u_i, with G_i[b, e] = e!/(e-b)! * u_i^(e-b) mod p.
    The arithmetic is on residues, exact while every product stays within
    the exact range of its dtype: float32 when the output is float32 and
    p^3 < 2^24 (p = 73), else float64, where a product of two residues is
    reduced before the third factor joins it unless p^3 < 2^53 (both
    ladder primes).  A prime whose product of two residues can pass 2^53
    ((p - 1)^2 > 2^53) is refused.  The rows of a run of consecutive points
    with the same multiplicity and chart, up to _RUN_ROWS of them, are
    gathered, multiplied and reduced by one set of calls: each entry takes
    the same operations as alone, so the output does not depend on the runs.
    """
    d = spec.degree
    if prime <= d:
        raise ValueError(f"prime must exceed the degree ({d}), got {prime}")
    mults = spec.points()
    points = np.asarray(points, dtype=np.int64)
    if points.shape != (len(mults), 4):
        raise ValueError(f"expected {len(mults)} points of 4 coordinates, got {points.shape}")
    if basis is None:
        basis = monomial_basis(d)
    if mults and basis.shape[0] and (prime - 1) ** 2 > 2**53:
        raise ValueError(f"p = {prime}: a product of two residues can leave the exact range"
                         " of float64")
    pts = points % prime
    chart = np.where(pts.any(axis=1), np.argmax(pts != 0, axis=1), -1)
    if (chart < 0).any():
        raise ValueError(f"point {int(np.argmin(chart))} has no usable chart (chart=-1)")
    out = np.empty((spec.conditions_total, basis.shape[0]),
                   dtype=_matrix_dtype(prime, spec.conditions_total, basis.shape[0]), order="F")
    work = out.dtype if prime**3 < 2**24 else np.dtype(np.float64)
    fp = float(prime)
    once = prime**3 < 2**53
    inv = _inverses(pts[np.arange(len(mults)), chart], prime)
    affine = (np.take_along_axis(pts, _OTHER[chart], axis=1) * inv[:, None] % prime).astype(work)
    powers = np.empty((len(mults), 3, d + 1), dtype=work)  # powers[j, i, e] = u_ji^e mod p
    powers[:, :, 0] = 1.0
    for e in range(1, d + 1):
        np.multiply(powers[:, :, e - 1], affine, out=powers[:, :, e])
        np.remainder(powers[:, :, e], fp, out=powers[:, :, e])
    exps = {int(c): np.ascontiguousarray(basis[:, _OTHER[c]].T) for c in set(chart.tolist())}

    block = out.T  # C-contiguous: row block j of out is the column slab block[:, rows]
    runs = []  # (first point, points, multiplicity, chart): alike and consecutive
    first = 0
    for (m, c), group in itertools.groupby(zip(mults, chart.tolist())):
        n, step = len(list(group)), max(1, _RUN_ROWS // conditions_count(m))
        runs += [(first + i, min(step, n - i), m, c) for i in range(0, n, step)]
        first += n
    size = basis.shape[0] * max((k * conditions_count(m) for _, k, m, _ in runs), default=0)
    prod, factor = np.empty(size, dtype=work), np.empty(size, dtype=work)
    row = 0
    for first, k, m, c in runs:
        orders = derivative_orders(m)
        rows = k * orders.shape[0]
        shift = np.maximum(np.arange(d + 1) - np.arange(m)[:, None], 0)
        # g[i, e, j, b] = e!/(e-b)! * u^(e-b) mod p at coordinate i of point first + j
        g = np.multiply(_falling(m, d, prime).T[:, None],
                        powers[first:first + k][:, :, shift.T].transpose(1, 2, 0, 3), dtype=work)
        _residues(g, fp)
        ex = exps[c]
        x = prod[: basis.shape[0] * rows].reshape(-1, rows)
        y = factor[: basis.shape[0] * rows].reshape(-1, rows)
        np.take(g[0][:, :, orders[:, 0]].reshape(d + 1, rows), ex[0], axis=0, out=x, mode="clip")
        np.take(g[1][:, :, orders[:, 1]].reshape(d + 1, rows), ex[1], axis=0, out=y, mode="clip")
        x *= y
        if not once:
            _residues(x, fp, scratch=y)
        np.take(g[2][:, :, orders[:, 2]].reshape(d + 1, rows), ex[2], axis=0, out=y, mode="clip")
        x *= y
        _residues(x, fp, out=block[:, row:row + rows], scratch=y)
        row += rows
    return out


FundamentalAssignment = list[tuple[int, int]]


@lru_cache(maxsize=None)
def _pinned_columns(d: int, mults: tuple[int, ...]) -> tuple[int, ...]:
    """Ascending columns deleted by pinning points of mults at coordinate points."""
    basis = monomial_basis(d)
    deleted: list[int] = []
    for slot, m in enumerate(mults):
        cols = np.nonzero(basis[:, slot] > d - m)[0]
        assert cols.size == conditions_count(m)
        deleted.extend(cols.tolist())
    assert len(set(deleted)) == len(deleted), "deletion sets overlap"
    return tuple(sorted(deleted))


def check_assignment(spec: SystemSpec, assignment: Sequence) -> FundamentalAssignment:
    """assignment's (point index, multiplicity) pairs as ints; ValueError unless spec has them."""
    d = spec.degree
    expansion = spec.points()
    pairs = [(int(i), int(m)) for i, m in assignment]
    if len(pairs) > 4:
        raise ValueError("at most 4 points can sit at coordinate points")
    indices = [i for i, _ in pairs]
    if len(set(indices)) != len(indices):
        raise ValueError("assignment reuses a point index")
    for i, m in pairs:
        if not 0 <= i < len(expansion) or expansion[i] != m:
            raise ValueError(f"assignment ({i}, {m}) does not match the point list")
        if m > d:
            raise ValueError(f"multiplicity {m} exceeds the degree {d}")
    for (_, m1), (_, m2) in itertools.combinations(pairs, 2):  # so no deletion sets overlap
        if m1 + m2 > d:
            raise ValueError(f"multiplicities {m1} + {m2} exceed degree {d}")
    return pairs


def reduce_fundamental(
    spec: SystemSpec, assignment: Sequence[tuple[int, int]]
) -> tuple[list[int], SystemSpec]:
    """Column deletions and residual system for points pinned at coordinate points.

    assignment lists (point index, multiplicity) pairs; the j-th pair is
    placed at the j-th coordinate point.  A point of multiplicity m at
    coordinate j turns into the deletion of the C(m+2,3) columns whose j-th
    exponent exceeds d-m, and its rows leave the matrix.  Every call checks
    the assignment (check_assignment); _pinned_columns computes the columns
    once per (d, multiplicities).
    """
    d = spec.degree
    pairs = check_assignment(spec, assignment)
    counts = spec.as_dict()
    for _, m in pairs:
        counts[m] -= 1
    residual = SystemSpec(d, counts.items())
    return list(_pinned_columns(d, tuple(m for _, m in pairs))), residual


def _greedy_assignment(spec: SystemSpec) -> FundamentalAssignment:
    """Up to four points at coordinate points, largest multiplicities first."""
    d = spec.degree
    chosen: FundamentalAssignment = []
    for idx, m in enumerate(spec.points()):
        if len(chosen) == 4:
            break
        if m > d:
            continue
        if all(m + mm <= d for _, mm in chosen):
            chosen.append((idx, m))
    return chosen


@dataclass
class Certificate:
    """Replayable record of one rank check."""

    spec: str
    prime: int
    seed: int
    fundamental_assignment: FundamentalAssignment
    N: int
    S: int
    rank: int
    verdict: str
    attempts: int
    elapsed_ms: int

    def to_dict(self) -> dict:
        return {
            "spec": self.spec,
            "prime": self.prime,
            "seed": self.seed,
            "fundamental_assignment": [list(pair) for pair in self.fundamental_assignment],
            "N": self.N,
            "S": self.S,
            "rank": self.rank,
            "verdict": self.verdict,
            "attempts": self.attempts,
            "elapsed_ms": self.elapsed_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "Certificate":
        """The certificate to_dict gave data; every number must be a JSON integer (json_int)."""
        numbers = {name: json_int(data[name], name)
                   for name in ("prime", "seed", "N", "S", "rank", "attempts", "elapsed_ms")}
        pairs = [(json_int(i, "fundamental_assignment"), json_int(m, "fundamental_assignment"))
                 for i, m in data["fundamental_assignment"]]
        return cls(spec=data["spec"], fundamental_assignment=pairs, verdict=data["verdict"],
                   **numbers)


def _transposed_matrix(
    spec: SystemSpec,
    prime: int,
    seed: int,
    assignment: FundamentalAssignment,
) -> tuple[np.ndarray, int]:
    """(columns x conditions) matrix of spec's residual system, and the columns deleted."""
    need, room = peak_bytes(spec, prime) - _PROCESS_BYTES, _mem_available()
    if need > room:
        raise MatrixTooLargeError(f"{spec.conditions_total} x {spec.n_monomials} matrix needs about"
                                  f" {need / 2**30:.1f} GiB, {room / 2**30:.1f} GiB available")
    deleted, residual = reduce_fundamental(spec, assignment)
    keep = np.ones(spec.n_monomials, dtype=bool)
    keep[deleted] = False
    avoid = [_coordinate_point(slot) for slot in range(len(assignment))]
    pts = _sample_distinct(residual.r, prime, seed, avoid=avoid)
    basis = monomial_basis(spec.degree)[keep]
    return build_matrix(residual, pts, prime, basis=basis).T, len(deleted)


def _run_family(
    head: SystemSpec,
    members: Sequence[SystemSpec],
    prime: int,
    seed: int,
    assignment: FundamentalAssignment,
) -> list[int]:
    """Ranks of the members, each a leading row block of head's matrix, from one elimination.

    A single system is the family [spec] of its own head.
    """
    mat, n_deleted = _transposed_matrix(head, prime, seed, assignment)
    rows = [member.conditions_total - n_deleted for member in members]
    return [r + n_deleted for r in rank(mat, prime, overwrite=True, leading=rows)]


def _certificate(
    spec: SystemSpec,
    prime: int,
    seed: int,
    assignment: FundamentalAssignment,
    got_rank: int,
    attempts: int,
    elapsed_ms: int,
) -> Certificate:
    maximal = got_rank == min(spec.n_monomials, spec.conditions_total)
    return Certificate(
        spec=spec.to_text(),
        prime=prime,
        seed=seed,
        fundamental_assignment=assignment,
        N=spec.n_monomials,
        S=spec.conditions_total,
        rank=got_rank,
        verdict=VERDICT_NON_SPECIAL if maximal else VERDICT_INCONCLUSIVE,
        attempts=attempts,
        elapsed_ms=elapsed_ms,
    )


def _ranks_by_family(
    specs: Sequence[SystemSpec],
    primes: Sequence[int],
    seeds: Sequence[int],
    assignments: Sequence[FundamentalAssignment],
) -> list[int]:
    """Ranks of the systems, each at its own prime, seed and assignment.

    The system with the most points is the head.  A system at the head's
    degree, prime, seed and assignment whose point list is a prefix of the
    head's, holding every assigned point, gets its rank from the head's one
    elimination; any other runs alone.
    """
    head = max(range(len(specs)), key=lambda i: specs[i].r)
    head_points = specs[head].points()
    members = [
        i for i, spec in enumerate(specs)
        if spec.degree == specs[head].degree
        and (primes[i], seeds[i]) == (primes[head], seeds[head])
        and assignments[i] == assignments[head]
        and spec.points() == head_points[: spec.r]
        and all(idx < spec.r for idx, _ in assignments[i])
    ]
    got = dict(zip(members, _run_family(
        specs[head], [specs[i] for i in members], primes[head], seeds[head], assignments[head]
    )))
    return [
        got[i] if i in got else _run_family(spec, [spec], primes[i], seeds[i], assignments[i])[0]
        for i, spec in enumerate(specs)
    ]


def attempt_schedule(attempt: int, first_seed: int, retry_seed: int) -> Optional[tuple[int, int]]:
    """The (prime, seed) of attempt `attempt` of a rank check, or None outside 1..MAX_ATTEMPTS.

    Attempt 1 runs at (PRIME_LADDER[0], first_seed), attempt a >= 2 at seed
    retry_seed + a - 1 and PRIME_LADDER[0], but the last attempt escalates
    to PRIME_LADDER[1].  PRIME_LADDER is read at call time.
    """
    if not 1 <= attempt <= MAX_ATTEMPTS:
        return None
    if attempt == 1:
        return PRIME_LADDER[0], first_seed
    return PRIME_LADDER[1 if attempt == MAX_ATTEMPTS else 0], retry_seed + attempt - 1


def check_family(specs: Sequence[SystemSpec], seed: int) -> list[Certificate]:
    """Attempt 1 of the rank checks of systems that share their leading points, at seed.

    The prime is attempt 1's (attempt_schedule).  Each system pins up to
    four points at the coordinate points (_greedy_assignment, largest
    multiplicities first); four general points are projectively equivalent
    to them, so the verdict is the unpinned one.  Every system whose point
    list is a prefix of the head's (the one with the most points) and whose
    assignment equals the head's gets its rank from the head's one
    elimination; any other runs alone at the same seed (_ranks_by_family).
    Each certificate's elapsed_ms is the wall time of the whole family.
    check_case continues from these certificates.
    """
    prime, seed = attempt_schedule(1, seed, seed)
    assignments = [_greedy_assignment(spec) for spec in specs]
    t0 = time.perf_counter()
    got = _ranks_by_family(specs, [prime] * len(specs), [seed] * len(specs), assignments)
    elapsed = int((time.perf_counter() - t0) * 1000)
    return [
        _certificate(spec, prime, seed, assignments[i], got[i], 1, elapsed)
        for i, spec in enumerate(specs)
    ]


def check_case(spec: SystemSpec, seed: int, first: Optional[Certificate] = None) -> Certificate:
    """Rank-check one system and certify it.

    Attempt 1 is a family of one (check_family at seed), or first, spec's
    certificate from a family's attempt 1, when given.  On a rank deficit
    the system is retried alone, as a family of one with attempt 1's
    fundamental assignment, at the primes and seeds of attempt_schedule
    with seed as the retry seed: attempt a uses seed + a - 1, and the last
    attempt escalates to PRIME_LADDER[1].  Verdict "non_special"
    means a maximal rank was witnessed; "inconclusive" means every attempt
    fell short.  elapsed_ms includes first's.
    """
    if first is not None and first.spec != spec.to_text():
        raise ValueError(f"certificate of {first.spec!r} given for {spec.to_text()!r}")
    spent_ms = first.elapsed_ms if first is not None else 0
    t0 = time.perf_counter()
    cert = first if first is not None else check_family([spec], seed)[0]
    while cert.verdict != VERDICT_NON_SPECIAL:
        attempt = cert.attempts + 1
        scheduled = attempt_schedule(attempt, seed, seed)
        if scheduled is None:
            break
        prime, used_seed = scheduled
        assignment = cert.fundamental_assignment
        got_rank = _run_family(spec, [spec], prime, used_seed, assignment)[0]
        cert = _certificate(spec, prime, used_seed, assignment, got_rank, attempt, 0)
    return replace(cert, elapsed_ms=spent_ms + int((time.perf_counter() - t0) * 1000))


def replay_certificate(cert: Certificate) -> int:
    """Regenerate the recorded attempt and return the recomputed rank."""
    return replay_family([cert])[0]


def replay_family(certs: Sequence[Certificate]) -> list[int]:
    """Recomputed ranks of the recorded attempts, from one elimination where they share it.

    The largest system's matrix is rebuilt once and ranked once; a record at
    its prime, seed and assignment whose point list is a prefix of its own
    reads its rank off the column rank profile, as check_family computed
    it.  Any other record is replayed alone, as a family of one.
    """
    return _ranks_by_family(
        [parse_system(cert.spec) for cert in certs],
        [cert.prime for cert in certs],
        [cert.seed for cert in certs],
        [list(cert.fundamental_assignment) for cert in certs],
    )
