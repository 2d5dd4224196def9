"""Interpolation matrices at random points, rank checks, and certificates.

A rank check is one-sided: maximal rank at any special point set certifies
maximal rank at generic points (rank is lower-semicontinuous), so the system
is non-special.  A rank deficit at random points is only evidence of
speciality and yields the verdict "inconclusive" after retries.

Every check is replayable: the certificate records the prime, the seed and
the fundamental-point assignment, and regenerating the matrix from those
reproduces the identical rank.

Systems that differ only in trailing points share one elimination (a
family).  Points are listed in descending multiplicity and drawn one by one
from one seeded generator, and row block j of a matrix belongs to point j.
So at the same prime, seed and fundamental assignment, a system whose
expanded point list is a prefix of another's has as its matrix the leading
row block of the other's matrix.  The matrix is built transposed, its
elimination yields the column rank profile, and the rank of every leading
row block follows by counting pivots (gfp.rank's leading).  A replay never
relies on this: it rebuilds the one system's own matrix and ranks it.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .gfp import DEFAULT_PRIME, next_ladder_prime, rank
from .model import (
    SystemSpec,
    VERDICT_INCONCLUSIVE,
    VERDICT_NON_SPECIAL,
    conditions_count,
    parse_system,
)
from .monomials import derivative_orders, monomial_basis

# Refuse to sample points for a matrix whose float64 copy would exceed this.
MEMORY_LIMIT_BYTES = 16 * 2**30

# Resident size of a process with the package and numpy loaded, rounded up.
_PROCESS_BYTES = 64 * 2**20


def peak_bytes(spec: SystemSpec) -> int:
    """Estimated peak memory of a process that builds and ranks spec's matrix.

    The unreduced N x S float64 matrix, half as much again for the kernel's
    workspace, and the interpreter.  The largest d = 40 case comes to 1810
    MiB; its process peaks at 1357 MiB (11480 x 11461 after reduction), and
    a d = 30 shard's worker at 273 MiB against an estimate of 405 MiB.
    """
    return 12 * spec.n_monomials * spec.conditions_total + _PROCESS_BYTES


DEFAULT_MAX_ATTEMPTS = 3

_MAX_RESAMPLE = 1000


class MatrixTooLargeError(Exception):
    """Raised when a matrix would exceed the configured memory budget."""


def _projective_key(coords, p: int) -> tuple:
    lead = next(int(c) for c in coords if int(c) % p != 0)
    inv = pow(lead % p, -1, p)
    return tuple(int(c) * inv % p for c in coords)


def _coordinate_point(slot: int) -> np.ndarray:
    pt = np.zeros(4, dtype=np.int64)
    pt[slot] = 1
    return pt


def _sample_distinct(count: int, prime: int, seed: int, avoid=()) -> np.ndarray:
    """count distinct random projective points, deterministic in seed."""
    rng = np.random.Generator(np.random.PCG64(seed))
    seen = {_projective_key(a, prime) for a in avoid}
    out = np.empty((count, 4), dtype=np.int64)
    for i in range(count):
        for _ in range(_MAX_RESAMPLE):
            cand = rng.integers(0, prime, size=4, dtype=np.int64)
            if not cand.any():
                continue
            key = _projective_key(cand, prime)
            if key in seen:
                continue
            seen.add(key)
            out[i] = cand
            break
        else:
            raise RuntimeError(
                f"could not sample {count} distinct points mod {prime}; prime too small"
            )
    return out


def _chart_tables(mult: int, degree: int, affine: np.ndarray, p: int) -> list[np.ndarray]:
    """Per-variable lookup tables G[b, e] = e!/(e-b)! * u^(e-b) mod p."""
    erange = np.arange(degree + 1, dtype=np.int64)
    tables = []
    for u in affine:
        fall = np.zeros((mult, degree + 1), dtype=np.int64)
        fall[0] = 1
        for b in range(1, mult):
            # factor e-b+1 hits zero at e = b-1 and the zero then propagates,
            # so no negative factor ever multiplies a nonzero entry
            fall[b] = fall[b - 1] * (erange - (b - 1)) % p
        pw = np.empty(degree + 1, dtype=np.int64)
        pw[0] = 1
        for e in range(1, degree + 1):
            pw[e] = pw[e - 1] * u % p
        table = np.zeros_like(fall)
        for b in range(mult):
            table[b, b:] = fall[b, b:] * pw[: degree + 1 - b] % p
        tables.append(table)
    return tables


def build_matrix(
    spec: SystemSpec,
    points: np.ndarray,
    prime: int = DEFAULT_PRIME,
    charts: Optional[Sequence[int]] = None,
    basis: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Assemble the interpolation matrix of spec at the given points.

    Row block j holds the conditions of point j (derivative orders up to its
    multiplicity minus one, in the fixed order of derivative_orders), columns
    follow monomial_basis(d).  Entries are reduced residues stored as float64
    in Fortran order, so the transpose is a C-contiguous array that
    rank(..., overwrite=True) consumes without a copy.
    Each point is dehomogenized in the chart of its first nonzero coordinate
    unless charts overrides the choice.  A basis subset may be passed to
    restrict columns (fundamental-point reduction).
    """
    d = spec.degree
    if prime <= d:
        raise ValueError(f"prime must exceed the degree ({d}), got {prime}")
    mults = spec.points()
    points = np.asarray(points, dtype=np.int64)
    if points.shape != (len(mults), 4):
        raise ValueError(f"expected {len(mults)} points of 4 coordinates, got {points.shape}")
    if charts is not None and len(charts) != len(mults):
        raise ValueError("charts must give one chart index per point")
    if basis is None:
        basis = monomial_basis(d)
    out = np.empty((spec.conditions_total, basis.shape[0]), dtype=np.float64, order="F")
    row = 0
    for idx, m in enumerate(mults):
        pt = points[idx] % prime
        if charts is None:
            chart = int(np.nonzero(pt)[0][0]) if pt.any() else -1
        else:
            chart = int(charts[idx])
        if chart < 0 or chart > 3 or pt[chart] == 0:
            raise ValueError(f"point {idx} has no usable chart (chart={chart})")
        inv = pow(int(pt[chart]), -1, prime)
        other = [i for i in range(4) if i != chart]
        affine = np.array([int(pt[i]) * inv % prime for i in other], dtype=np.int64)
        exps = basis[:, other]  # (ncols, 3) affine exponents in this chart
        orders = derivative_orders(m)
        tables = _chart_tables(m, d, affine, prime)
        block = tables[0][orders[:, 0]][:, exps[:, 0]]
        block = block * tables[1][orders[:, 1]][:, exps[:, 1]] % prime
        block = block * tables[2][orders[:, 2]][:, exps[:, 2]] % prime
        out[row : row + orders.shape[0]] = block
        row += orders.shape[0]
    return out


FundamentalAssignment = list[tuple[int, int]]


def reduce_fundamental(
    spec: SystemSpec, assignment: Sequence[tuple[int, int]]
) -> tuple[list[int], SystemSpec]:
    """Column deletions and residual system for points pinned at coordinate points.

    assignment lists (point index, multiplicity) pairs; the j-th pair is
    placed at the j-th coordinate point.  A point of multiplicity m at
    coordinate j turns into the deletion of the C(m+2,3) columns whose j-th
    exponent exceeds d-m, and its rows leave the matrix.  Assigned pairs must
    satisfy m_i + m_j <= d so the deletion sets cannot overlap.
    """
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
    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            if pairs[a][1] + pairs[b][1] > d:
                raise ValueError(
                    f"multiplicities {pairs[a][1]} + {pairs[b][1]} exceed degree {d}"
                )
    basis = monomial_basis(d)
    deleted: list[int] = []
    for slot, (_, m) in enumerate(pairs):
        cols = np.nonzero(basis[:, slot] > d - m)[0]
        assert cols.size == conditions_count(m)
        deleted.extend(int(c) for c in cols)
    assert len(set(deleted)) == len(deleted), "deletion sets overlap"

    counts = spec.as_dict()
    for _, m in pairs:
        counts[m] -= 1
    residual = SystemSpec(d, counts.items())
    return sorted(deleted), residual


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
        return cls(
            spec=data["spec"],
            prime=int(data["prime"]),
            seed=int(data["seed"]),
            fundamental_assignment=[
                (int(i), int(m)) for i, m in data.get("fundamental_assignment", [])
            ],
            N=int(data["N"]),
            S=int(data["S"]),
            rank=int(data["rank"]),
            verdict=data["verdict"],
            attempts=int(data["attempts"]),
            elapsed_ms=int(data["elapsed_ms"]),
        )


def _transposed_matrix(
    spec: SystemSpec,
    prime: int,
    seed: int,
    assignment: FundamentalAssignment,
) -> tuple[np.ndarray, int]:
    """(columns x conditions) matrix of spec's residual system, and the columns deleted."""
    d = spec.degree
    if assignment:
        deleted, residual = reduce_fundamental(spec, assignment)
        basis = monomial_basis(d)
        keep = np.ones(basis.shape[0], dtype=bool)
        keep[deleted] = False
        basis = basis[keep]
        avoid = [_coordinate_point(slot) for slot in range(len(assignment))]
        n_deleted = len(deleted)
    else:
        residual = spec
        basis = None
        avoid = []
        n_deleted = 0
    ncols = spec.n_monomials - n_deleted
    nrows = residual.conditions_total
    if nrows * ncols * 8 > MEMORY_LIMIT_BYTES:
        raise MatrixTooLargeError(
            f"{nrows} x {ncols} matrix needs about {nrows * ncols * 8 / 2**30:.1f} GiB"
        )
    pts = _sample_distinct(residual.r, prime, seed, avoid=avoid)
    return build_matrix(residual, pts, prime, basis=basis).T, n_deleted


def _run_one(
    spec: SystemSpec,
    prime: int,
    seed: int,
    assignment: FundamentalAssignment,
) -> int:
    """Rank of spec's own (possibly reduced) matrix, reported against the full system."""
    mat, n_deleted = _transposed_matrix(spec, prime, seed, assignment)
    return rank(mat, prime, overwrite=True) + n_deleted


def _run_family(
    head: SystemSpec,
    members: Sequence[SystemSpec],
    prime: int,
    seed: int,
    assignment: FundamentalAssignment,
) -> list[int]:
    """Ranks of the members, each a leading row block of head's matrix, from one elimination."""
    mat, n_deleted = _transposed_matrix(head, prime, seed, assignment)
    pinned = sum(conditions_count(m) for _, m in assignment)
    rows = [member.conditions_total - pinned for member in members]
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


def check_family(
    specs: Sequence[SystemSpec],
    prime: int = DEFAULT_PRIME,
    seed: int = 0,
    fundamental: bool = False,
) -> list[Certificate]:
    """Attempt 1 of the rank checks of systems that share their leading points.

    The system with the most points is the head.  Every system whose point
    list is a prefix of the head's and whose fundamental assignment equals
    the head's gets its rank from the head's one elimination; any other runs
    alone at the same seed.  Each certificate's elapsed_ms is the wall time
    of the whole family.  check_case continues from these certificates.
    """
    assignments = [_greedy_assignment(spec) if fundamental else [] for spec in specs]
    head = max(range(len(specs)), key=lambda i: len(specs[i].points()))
    head_points = specs[head].points()
    members = [
        i for i, spec in enumerate(specs)
        if spec.degree == specs[head].degree
        and spec.points() == head_points[: spec.r]
        and assignments[i] == assignments[head]
    ]
    t0 = time.perf_counter()
    got = dict(zip(members, _run_family(
        specs[head], [specs[i] for i in members], prime, seed, assignments[head]
    )))
    for i, spec in enumerate(specs):
        if i not in got:
            got[i] = _run_one(spec, prime, seed, assignments[i])
    elapsed = int((time.perf_counter() - t0) * 1000)
    return [
        _certificate(spec, prime, seed, assignments[i], got[i], 1, elapsed)
        for i, spec in enumerate(specs)
    ]


def check_case(
    spec: SystemSpec,
    prime: int = DEFAULT_PRIME,
    seed: int = 0,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    fundamental: bool = False,
    first: Optional[Certificate] = None,
) -> Certificate:
    """Rank-check one system and certify it.

    Attempt 1 is a family of one (check_family at seed), or first, spec's
    certificate from a family's attempt 1, when given.  On a rank deficit
    the system is retried alone: attempt a uses seed + a - 1, and the final
    attempt escalates to the next prime in the ladder.  Verdict
    "non_special" means a maximal rank was witnessed; "inconclusive" means
    every attempt fell short.  elapsed_ms includes first's.
    """
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    if first is not None and first.spec != spec.to_text():
        raise ValueError(f"certificate of {first.spec!r} given for {spec.to_text()!r}")
    spent_ms = first.elapsed_ms if first is not None else 0
    t0 = time.perf_counter()
    cert = first if first is not None else check_family([spec], prime, seed, fundamental)[0]
    while cert.verdict != VERDICT_NON_SPECIAL and cert.attempts < max_attempts:
        attempt = cert.attempts + 1
        used_prime = next_ladder_prime(prime) if attempt == max_attempts else prime
        used_seed = seed + attempt - 1
        assignment = cert.fundamental_assignment
        got_rank = _run_one(spec, used_prime, used_seed, assignment)
        cert = _certificate(spec, used_prime, used_seed, assignment, got_rank, attempt, 0)
    return replace(cert, elapsed_ms=spent_ms + int((time.perf_counter() - t0) * 1000))


def replay_certificate(cert: Certificate) -> int:
    """Regenerate the recorded attempt and return the recomputed rank."""
    spec = parse_system(cert.spec)
    return _run_one(spec, cert.prime, cert.seed, list(cert.fundamental_assignment))


# ---------------------------------------------------------------------------
# exact rational oracle for small systems
# ---------------------------------------------------------------------------

_ORACLE_LIMIT = 200
_ORACLE_COORD = 10**9


def rational_oracle(spec: SystemSpec, seed: int = 0) -> int:
    """Dimension of a small system by exact elimination over the rationals.

    Independent of the prime-field path: its own point sampling, per-entry
    integer assembly and Fraction elimination.  Row for order beta at point x
    with chart c is scaled by x_c^d, which makes every entry the integer
    falling(a', b) * prod_i x_i^(a'_i - b_i) * x_c^(a_c + |b|).
    """
    if spec.n_monomials > _ORACLE_LIMIT:
        raise ValueError(
            f"rational oracle is limited to N <= {_ORACLE_LIMIT}, got N = {spec.n_monomials}"
        )
    d = spec.degree
    rng = random.Random(seed)
    mults = spec.points()
    pts: list[tuple[int, int, int, int]] = []
    seen = set()
    while len(pts) < len(mults):
        cand = tuple(rng.randrange(-_ORACLE_COORD, _ORACLE_COORD + 1) for _ in range(4))
        if not any(cand):
            continue
        lead = next(c for c in cand if c)
        key = tuple(Fraction(c, lead) for c in cand)
        if key in seen:
            continue
        seen.add(key)
        pts.append(cand)

    basis = monomial_basis(d)
    rows: list[list[int]] = []
    for pt, m in zip(pts, mults):
        chart = next(i for i in range(4) if pt[i])
        other = [i for i in range(4) if i != chart]
        for beta in derivative_orders(m):
            border = [int(beta[0]), int(beta[1]), int(beta[2])]
            btot = sum(border)
            row = []
            for alpha in basis:
                aff = [int(alpha[i]) for i in other]
                entry = 1
                for a, b in zip(aff, border):
                    if b > a:
                        entry = 0
                        break
                    for step in range(b):
                        entry *= a - step
                if entry:
                    for i, b in zip(other, border):
                        entry *= pt[i] ** (int(alpha[i]) - b)
                    entry *= pt[chart] ** (int(alpha[chart]) + btot)
                row.append(entry)
            rows.append(row)

    return spec.n_monomials - 1 - _fraction_rank(rows)


def _fraction_rank(rows: list[list[int]]) -> int:
    if not rows or not rows[0]:
        return 0
    mat = [[Fraction(v) for v in row] for row in rows]
    m, n = len(mat), len(mat[0])
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = 1 / mat[r][c]
        for i in range(r + 1, m):
            if mat[i][c]:
                f = mat[i][c] * inv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == m:
            break
    return r
