"""Tests of the benchmark's own checkers.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402


def fraction_rank(rows) -> int:
    mat = [[Fraction(int(v)) for v in row] for row in rows]
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        for i in range(r + 1, len(mat)):
            f = mat[i][c] / mat[r][c]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


@pytest.mark.parametrize("seed", range(12))
def test_rank_mod_p_agrees_with_fraction_rank(seed):
    gen = np.random.default_rng(seed)
    m, n = gen.integers(1, 9, size=2)
    r = int(gen.integers(0, min(m, n) + 1))
    mat = gen.integers(-5, 6, (m, r)) @ gen.integers(-5, 6, (r, n))
    assert checks.rank_mod_p(mat) == fraction_rank(mat)


def test_interpolation_matrix_sees_the_special_quartic():
    # Nine double points lie on a quadric, whose square is a quartic
    # singular at all of them: L(4; 2^9) has rank 34, one short of
    # min(N, S) = 35.  L(3; 2^5) is non-special of rank 20.
    rng = random.Random(0)
    assert checks.rank_mod_p(checks.interpolation_matrix(4, {2: 9}, rng)) == 34
    assert checks.rank_mod_p(checks.interpolation_matrix(3, {2: 5}, rng)) == 20


def test_independent_rank_of_a_d14_case():
    case = checks.window_cases(14)[0]
    want = min(checks.n_monomials(14), checks.conditions(*case[1:]))
    assert checks.independent_rank(case, random.Random(1)) == want


def test_enumeration_and_audit_counts():
    assert len(checks.window_cases(14)) == checks.D14_PUBLISHED_CASES
    assert checks.audit_target_count(14) == 85100
    shards = [checks.shard_cases(30, (i, 35)) for i in range(1, 36)]
    assert sorted(c for s in shards for c in s) == sorted(checks.window_cases(30))
    bound = checks.n_monomials(3) + 44
    assert checks.audit_target_count(3) == sum(
        1 for x in range(10) for y in range(10) for z in range(30)
        if 20 * x + 10 * y + 4 * z <= bound
    )


def _full_column_rank_matrix():
    return checks.interpolation_matrix(5, {2: 15}, random.Random(2))  # 60 x 56


def test_planted_deficit_passes_with_a_correct_rank():
    mat = _full_column_rank_matrix()
    assert checks.planted_deficit(checks.rank_mod_p, mat, 4, random.Random(3)) == []


@pytest.mark.parametrize("wrong", [
    lambda mat, p: min(mat.shape),                         # blind to dependencies
    lambda mat, p: checks.rank_mod_p(mat, p) + 1,           # off by one
    lambda mat, p: max(0, checks.rank_mod_p(mat, p) - 1),
])
def test_planted_deficit_fails_with_a_wrong_rank(wrong):
    mat = _full_column_rank_matrix()
    assert checks.planted_deficit(wrong, mat, 4, random.Random(3))


RECORD = {"case": [14, 1, 0, 46, 2], "N": 680, "S": 688, "rank": 680,
          "verdict": "non_special", "attempts": 1}


def _report(replayed_rank):
    forged = checks.forge_record(RECORD)
    mismatches = [] if replayed_rank == forged["rank"] else [
        {"line": 2, "case": RECORD["case"], "recorded_rank": forged["rank"],
         "replayed_rank": replayed_rank}]
    return {"total": 1, "replayed": 1, "mismatches": mismatches, "corrupt": [],
            "structural": [], "ok": not mismatches}


def test_forged_record_check():
    forged = checks.forge_record(RECORD)
    assert (forged["rank"], forged["verdict"]) == (679, "inconclusive")
    assert checks.forged_record_problems(_report(680), RECORD) == []
    assert checks.forged_record_problems(_report(679), RECORD)  # replay trusted the log
    assert checks.forged_record_problems(_report(678), RECORD)  # replay got a wrong rank


def test_check_certificates():
    expected = [tuple(RECORD["case"])]
    assert checks.check_certificates([RECORD], expected) == (0, [])
    failed, problems = checks.check_certificates([dict(RECORD, rank=679)], expected)
    assert failed == 0 and problems
    failed, problems = checks.check_certificates([checks.forge_record(RECORD)], expected)
    assert failed == 1 and problems == []
    assert checks.check_certificates([], expected)[1]


def test_elimination_flops():
    for m, n in [(1, 1), (5, 3), (3, 5), (448, 430)]:
        assert run.elimination_flops(m, n) == 2 * sum((m - k) * (n - k) for k in range(min(m, n)))
    assert run.elimination_flops(3000, 3000) == pytest.approx(2 / 3 * 3000**3, rel=1e-3)
