"""Correctness checks of the benchmark, independent of the program.

Nothing here imports fatpoints: the counts, the case lists, the
interpolation matrices and the mod-p elimination are the benchmark's own,
written from the definitions in the paper.  The only program code a check
touches is the function it is handed (a rank function, a verify command),
so a test can hand it a wrong one and see the check fail.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Iterable, Optional

import numpy as np

# The prime every campaign starts at; products of two residues fit in int64.
PRIME = 32003

# Published algorithm-B case count of degree 14 (one 10-point, z <= 4).
D14_PUBLISHED_CASES = 261

# 10-points per degree where the paper fixes their number (13 <= d <= 21);
# from d = 22 on the count is free and 2x + y <= 21.
_FIXED_Q = {13: 1, 14: 1, 15: 1, 16: 1, 17: 1, 18: 1, 19: 5, 20: 7, 21: 8}

# Multiplicities of the q, x, y and z points of a case (d, q, x, y, z).
_MULTS = (10, 4, 3, 2)


def n_monomials(d: int) -> int:
    """N = C(d + 3, 3), the number of degree-d monomials in 4 variables."""
    return math.comb(d + 3, 3)


def conditions(q: int, x: int, y: int, z: int) -> int:
    """S = 220 q + 20 x + 10 y + 4 z for the system 10^q, 4^x, 3^y, 2^z."""
    return 220 * q + 20 * x + 10 * y + 4 * z


def window_cases(d: int) -> list[tuple[int, int, int, int, int]]:
    """Algorithm-B cases (d, q, x, y, z) of degree d in ascending (q, x, y, z).

    N - 3 <= S <= N + 19 and z <= 4; the position in this list is the case
    index that shards and seeds are taken from.
    """
    N = n_monomials(d)
    lo, hi = N - 3, N + 19
    if d in _FIXED_Q:
        qs = [_FIXED_Q[d]]
    elif d >= 22:
        qs = range(math.ceil(N / 220) + 1)
    else:
        qs = [0]
    out = []
    for q in qs:
        for x in range(max(0, hi - 220 * q) // 20 + 1):
            ymax = (hi - 220 * q - 20 * x) // 10
            if d >= 22:
                ymax = min(ymax, 21 - 2 * x)
            for y in range(ymax + 1):
                for z in range(5):
                    if lo <= conditions(q, x, y, z) <= hi:
                        out.append((d, q, x, y, z))
    return out


def shard_cases(d: int, shard: tuple[int, int]) -> list[tuple[int, int, int, int, int]]:
    """The cases shard i/n owns: every index congruent to i - 1 mod n."""
    i, n = shard
    return [case for idx, case in enumerate(window_cases(d)) if idx % n == i - 1]


def audit_target_count(d: int) -> int:
    """Number of (x, y, z) >= 0 with 20 x + 10 y + 4 z <= N + 44."""
    bound = n_monomials(d) + 44
    return sum(
        (bound - 20 * x - 10 * y) // 4 + 1
        for x in range(bound // 20 + 1)
        for y in range((bound - 20 * x) // 10 + 1)
    )


def check_certificates(records: Iterable[dict], expected: list[tuple]) -> tuple[int, list[str]]:
    """Check the records of a campaign log against recomputed N and S.

    Returns (failed, problems).  A record whose verdict is not non_special
    is a failed operation; every other record must carry the recomputed N
    and S and rank = min(N, S).  The set of cases must be exactly expected.
    """
    failed = 0
    problems = []
    seen = set()
    for rec in records:
        key = tuple(rec["case"])
        if key in seen:
            problems.append(f"case {key} logged twice")
        seen.add(key)
        d, q, x, y, z = key
        N, S = n_monomials(d), conditions(q, x, y, z)
        if rec.get("verdict") != "non_special":
            failed += 1
            continue
        if (rec["N"], rec["S"]) != (N, S):
            problems.append(f"case {key}: logged N, S = {rec['N']}, {rec['S']}, expected {N}, {S}")
        if rec["rank"] != min(N, S):
            problems.append(f"case {key}: non_special with rank {rec['rank']} != min(N, S) = {min(N, S)}")
    if seen != set(expected):
        problems.append(
            f"log holds {len(seen)} cases, expected {len(expected)}:"
            f" {len(seen - set(expected))} unexpected, {len(set(expected) - seen)} missing"
        )
    return failed, problems


# ---------------------------------------------------------------------------
# interpolation matrices and elimination mod p
# ---------------------------------------------------------------------------

def _exponents(d: int) -> np.ndarray:
    """Affine exponents (a1, a2, a3), a1 + a2 + a3 <= d, of x0^a0 x1^a1 x2^a2 x3^a3."""
    return np.array(
        [(a1, a2, a3) for a1 in range(d + 1) for a2 in range(d + 1 - a1)
         for a3 in range(d + 1 - a1 - a2)],
        dtype=np.int64,
    )


def _orders(m: int) -> np.ndarray:
    """Derivative orders (b1, b2, b3) with b1 + b2 + b3 <= m - 1."""
    return np.array(
        [(b1, b2, b3) for b1 in range(m) for b2 in range(m - b1) for b3 in range(m - b1 - b2)],
        dtype=np.int64,
    )


def _derivative_table(u: int, m: int, d: int, p: int) -> np.ndarray:
    """T[b, e] = e (e - 1) ... (e - b + 1) u^(e - b) mod p, zero for e < b."""
    table = np.zeros((m, d + 1), dtype=np.int64)
    for b in range(m):
        for e in range(b, d + 1):
            table[b, e] = math.perm(e, b) * pow(u, e - b, p) % p
    return table


def interpolation_matrix(
    d: int,
    counts: dict[int, int],
    rng: random.Random,
    p: int = PRIME,
    columns: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Conditions of fat points at random points of the chart x0 = 1, mod p.

    counts maps a multiplicity to its number of points.  A point (1, u1, u2,
    u3) of multiplicity m contributes one row per derivative order b with
    |b| <= m - 1; the entry for the monomial with affine exponents a is
    prod_i a_i!/(a_i - b_i)! u_i^(a_i - b_i).  columns picks a subset of the
    monomials.  Returns int64 residues.
    """
    exps = _exponents(d)
    if columns is not None:
        exps = exps[columns]
    blocks = []
    for m in sorted(counts, reverse=True):
        orders = _orders(m)
        for _ in range(counts[m]):
            block = np.ones((orders.shape[0], exps.shape[0]), dtype=np.int64)
            for i in range(3):
                table = _derivative_table(rng.randrange(1, p), m, d, p)
                block = block * table[orders[:, i]][:, exps[:, i]] % p
            blocks.append(block)
    return np.vstack(blocks)


def rank_mod_p(mat, p: int = PRIME) -> int:
    """Rank over F_p by row reduction on int64 residues."""
    a = np.array(mat, dtype=np.int64) % p
    m, n = a.shape
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        f = a[r + 1:, c] * pow(int(a[r, c]), p - 2, p) % p
        a[r + 1:, c + 1:] = (a[r + 1:, c + 1:] - f[:, None] * a[r, c + 1:]) % p
        a[r + 1:, c] = 0
        r += 1
    return r


def case_counts(case) -> dict[int, int]:
    _, q, x, y, z = case
    return {m: c for m, c in zip(_MULTS, (q, x, y, z)) if c}


def independent_rank(case, rng: random.Random, attempts: int = 3, p: int = PRIME) -> int:
    """Rank of the case's full matrix at the benchmark's own random points.

    Maximal rank at any points proves it, so a shortfall is retried at fresh
    points; the best rank seen is returned.
    """
    d = case[0]
    target = min(n_monomials(d), conditions(*case[1:]))
    best = -1
    for _ in range(attempts):
        best = max(best, rank_mod_p(interpolation_matrix(d, case_counts(case), rng, p), p))
        if best == target:
            break
    return best


def planted_deficit(
    rank_fn: Callable[[np.ndarray, int], int],
    mat: np.ndarray,
    t: int,
    rng: random.Random,
    p: int = PRIME,
) -> list[str]:
    """Replace t columns of a full-column-rank matrix by combinations of the rest.

    The rank of the result is exactly n - t: the other n - t columns stay
    independent and span the replaced ones.  rank_fn(matrix, p) must report
    n for mat and n - t for the planted copy.  Returns the problems found.
    """
    n = mat.shape[1]
    planted = rng.sample(range(n), t)
    keep = [j for j in range(n) if j not in set(planted)]
    a = np.array(mat, dtype=np.int64) % p
    coeffs = np.array([[rng.randrange(p) for _ in planted] for _ in keep], dtype=np.int64)
    a[:, planted] = a[:, keep] @ coeffs % p
    problems = []
    full = rank_fn(np.asarray(mat, dtype=np.float64), p)
    if full != n:
        problems.append(f"rank of the {mat.shape} matrix is {full}, expected full column rank {n}")
    got = rank_fn(a.astype(np.float64), p)
    if got != n - t:
        problems.append(f"{t} planted dependent columns: rank {got}, expected {n - t}")
    return problems


def forge_record(record: dict) -> dict:
    """A copy of a non_special record claiming one less than the maximal rank.

    The verdict is set to inconclusive so that the record stays internally
    consistent; only a replay of the rank can expose it.
    """
    forged = dict(record)
    forged["rank"] = record["rank"] - 1
    forged["verdict"] = "inconclusive"
    return forged


def forged_record_problems(report: dict, record: dict) -> list[str]:
    """The verify report of a one-record log holding forge_record(record)."""
    problems = []
    if report.get("corrupt") or report.get("structural"):
        problems.append(f"forged log reported corrupt or structural problems: {report}")
    mismatches = report.get("mismatches", [])
    if len(mismatches) != 1:
        problems.append(f"forged log gave {len(mismatches)} mismatches, expected exactly 1")
    elif mismatches[0].get("replayed_rank") != record["rank"]:
        problems.append(
            f"forged log replayed to rank {mismatches[0].get('replayed_rank')},"
            f" expected the original {record['rank']}"
        )
    return problems
