"""Case enumeration: which systems must be rank-checked per degree.

Only condition totals S inside the window N-4 < S < N+20 need a direct rank
check; everything else follows by monotonicity.  `window(N)` is the one
definition of that band and `q_values(d)` the one definition of how many
10-points a degree admits; the enumerators, glueing, deduction and the
closure audit all read these two functions.

The plain enumeration (algorithm A) walks all (x, y, z) inside the window
with the loop bounds x <= ceil(N/20), y <= ceil(N/10), z <= ceil(N/4); the
bounds genuinely truncate a handful of window cases and are required to
reproduce the published case counts (6816 for d=14, 2294011 for d=40).  The
glued enumeration (algorithm B) adds 10-points and cuts the residual to
z <= 4, with 2x+y <= 21 once the 10-point count is free (d >= 22).
"""

from __future__ import annotations

import csv
import math
from typing import Iterator

import numpy as np

from .model import CaseSignature, binomial

B_DEGREE_MIN = 13
B_DEGREE_MAX = 40


def window(N: int) -> range:
    """The condition totals checked directly: N-4 < S < N+20 (both strict)."""
    return range(N - 3, N + 20)


def q_values(d: int) -> range:
    """The 10-point counts degree d admits.

    Fixed for 13 <= d <= 21, free in [0, ceil(N/220)] from d = 22 on, and 0
    below 13.  Glueing never makes more than the largest of them.
    """
    fixed = {13: 1, 14: 1, 15: 1, 16: 1, 17: 1, 18: 1, 19: 5, 20: 7, 21: 8}
    if d in fixed:
        return range(fixed[d], fixed[d] + 1)
    if d >= 22:
        return range(0, math.ceil(binomial(d + 3, 3) / 220) + 1)
    return range(0, 1)


def _algorithm_a_rows(d: int) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Per x of algorithm A: its y values and the inclusive z range of each.

    A z range with zlo > zhi is empty.
    """
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    N = binomial(d + 3, 3)
    w = window(N)
    lo, hi = w[0], w[-1]
    xmax = math.ceil(N / 20)
    ymax = math.ceil(N / 10)
    zmax = math.ceil(N / 4)
    for x in range(min(xmax, hi // 20) + 1):
        bx = 20 * x
        y = np.arange(min(ymax, (hi - bx) // 10) + 1, dtype=np.int64)
        base = bx + 10 * y
        zlo = np.maximum(0, -((base - lo) // 4))
        zhi = np.minimum(zmax, (hi - base) // 4)
        yield x, y, zlo, zhi


def algorithm_a_cases(d: int) -> Iterator[CaseSignature]:
    """All (x, y, z) window cases with q = 0, ascending lexicographic."""
    for x, ys, zlo, zhi in _algorithm_a_rows(d):
        for y, z_first, z_last in zip(ys.tolist(), zlo.tolist(), zhi.tolist()):
            for z in range(z_first, z_last + 1):
                yield CaseSignature(d, 0, x, y, z)


def count_algorithm_a(d: int) -> int:
    """Window case count for algorithm A without materializing cases."""
    return sum(
        int(np.maximum(0, zhi - zlo + 1).sum()) for _, _, zlo, zhi in _algorithm_a_rows(d)
    )


def algorithm_b_cases(d: int) -> list[CaseSignature]:
    """Window cases after glueing: z <= 4, q per q_values, 2x+y <= 21 for d >= 22.

    Ascending (q, x, y, z) lexicographic, so positions are stable case
    indices for sharding and seeds.
    """
    if not B_DEGREE_MIN <= d <= B_DEGREE_MAX:
        raise ValueError(f"degree must be in [{B_DEGREE_MIN}, {B_DEGREE_MAX}], got {d}")
    N = binomial(d + 3, 3)
    w = window(N)
    hi = w[-1]
    out: list[CaseSignature] = []
    for q in q_values(d):
        bq = 220 * q
        if bq > hi:
            break
        for x in range(0, (hi - bq) // 20 + 1):
            if d >= 22 and 2 * x > 21:
                break
            bx = bq + 20 * x
            for y in range(0, (hi - bx) // 10 + 1):
                if d >= 22 and 2 * x + y > 21:
                    break
                base = bx + 10 * y
                for z in range(0, 5):
                    S = base + 4 * z
                    if S in w:
                        case = CaseSignature(d, q, x, y, z)
                        assert case.conditions_total == S
                        assert -20 <= N - S - 1 <= 3, "case escaped the vdim band"
                        out.append(case)
    return out


def count_algorithm_b(d: int) -> int:
    return len(algorithm_b_cases(d))


def count_cases(alg: str, d: int) -> int:
    if alg == "a":
        return count_algorithm_a(d)
    if alg == "b":
        return count_algorithm_b(d)
    raise ValueError(f"unknown algorithm {alg!r}")


def iter_cases(alg: str, d: int) -> Iterator[CaseSignature]:
    if alg == "a":
        return algorithm_a_cases(d)
    if alg == "b":
        return iter(algorithm_b_cases(d))
    raise ValueError(f"unknown algorithm {alg!r}")


def export_csv(path, alg: str, d: int) -> int:
    """Stream the case list to CSV; returns the number of rows written."""
    N = binomial(d + 3, 3)
    written = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["d", "q", "x", "y", "z", "N", "S", "vdim"])
        for case in iter_cases(alg, d):
            S = case.conditions_total
            writer.writerow([case.degree, case.q, case.x, case.y, case.z, N, S, N - S - 1])
            written += 1
    return written
