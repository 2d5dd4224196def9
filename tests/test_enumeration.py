import csv
import time

import pytest

from fatpoints.enumeration import (
    algorithm_a_cases,
    algorithm_b_cases,
    count_algorithm_a,
    count_algorithm_b,
    export_csv,
    q_values,
    window,
)
from fatpoints.model import binomial, vdim

from _oracles import glued_cases_bruteforce, window_cases_bruteforce


def test_in_window_boundaries():
    assert 677 in window(680)
    assert 676 not in window(680)
    assert 700 not in window(680)
    assert 699 in window(680)
    assert 680 - 4 not in window(680)


def test_window_spec():
    w = window(binomial(17, 3))
    # the open band (N-4, N+20) for d=14
    assert (binomial(17, 3), w[0] - 1, w[-1] + 1) == (680, 676, 700)
    assert 677 in w and 699 in w
    assert 676 not in w and 700 not in w


def test_qpolicy():
    assert q_values(14) == range(1, 2)
    assert list(q_values(19)) == [5]
    assert list(q_values(20)) == [7]
    assert list(q_values(21)) == [8]
    assert list(q_values(22)) == list(range(12))


def test_algorithm_a_counts_published():
    assert count_algorithm_a(14) == 6816
    assert count_algorithm_a(40) == 2294011


def test_algorithm_a_count_only_is_fast():
    t0 = time.perf_counter()
    count_algorithm_a(40)
    assert time.perf_counter() - t0 < 1.0


def test_count_only_never_allocates_matrices():
    import tracemalloc

    tracemalloc.start()
    try:
        count_algorithm_a(40)
        count_algorithm_b(40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a d=40 interpolation matrix alone would be ~1.2 GB
    assert peak < 32 * 2**20


def test_algorithm_a_matches_bruteforce():
    for d in (1, 2, 5, 9):
        ours = sorted((c.x, c.y, c.z) for c in algorithm_a_cases(d))
        assert ours == sorted(window_cases_bruteforce(d))
        assert count_algorithm_a(d) == len(ours)


def test_algorithm_a_materialized_matches_count():
    cases = list(algorithm_a_cases(14))
    assert len(cases) == 6816
    N = 680
    for c in cases[::97]:
        assert c.q == 0
        assert c.conditions_total in window(N)


def test_algorithm_a_d1_includes_single_double_point():
    cases = {(c.x, c.y, c.z) for c in algorithm_a_cases(1)}
    assert (0, 0, 1) in cases  # S = 4 sits inside (0, 24)


def test_algorithm_b_d14():
    cases = algorithm_b_cases(14)
    assert len(cases) == 261
    by_z = {z: 0 for z in range(5)}
    for c in cases:
        assert c.q == 1
        by_z[c.z] += 1
    assert [by_z[z] for z in range(5)] == [48, 48, 71, 47, 47]
    assert sorted((c.q, c.x, c.y, c.z) for c in cases) == glued_cases_bruteforce(14)


def test_algorithm_b_d40():
    cases = algorithm_b_cases(40)
    assert len(cases) == 22
    assert all(c.q == 56 for c in cases)
    assert sorted((c.q, c.x, c.y, c.z) for c in cases) == glued_cases_bruteforce(40)


def test_algorithm_b_range_check():
    with pytest.raises(ValueError):
        algorithm_b_cases(12)
    with pytest.raises(ValueError):
        algorithm_b_cases(41)


def test_algorithm_b_constraints():
    for d in (14, 19, 22, 30):
        N = binomial(d + 3, 3)
        cases = algorithm_b_cases(d)
        assert cases == sorted(cases, key=lambda c: (c.q, c.x, c.y, c.z))
        for c in cases:
            S = c.conditions_total
            assert S in window(N)
            assert N - 3 <= S <= N + 19  # nearly-square
            assert -20 <= vdim(c.to_system()) <= 3
            assert c.z <= 4
            if d >= 22:
                assert 2 * c.x + c.y <= 21
            else:
                assert [c.q] == list(q_values(d))


def test_algorithm_b_matches_bruteforce_more_degrees():
    for d in (13, 19, 22):
        ours = sorted((c.q, c.x, c.y, c.z) for c in algorithm_b_cases(d))
        assert ours == glued_cases_bruteforce(d)
        assert count_algorithm_b(d) == len(ours)


def test_export_csv(tmp_path):
    path = tmp_path / "cases.csv"
    n = export_csv(path, "b", 14)
    assert n == 261
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["d", "q", "x", "y", "z", "N", "S", "vdim"]
    assert len(rows) == 262
    d, q, x, y, z, N, S, vd = map(int, rows[1])
    assert (d, q, N) == (14, 1, 680)
    assert 220 * q + 20 * x + 10 * y + 4 * z == S
    assert N - S - 1 == vd
