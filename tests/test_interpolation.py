import random

import numpy as np
import pytest

from fatpoints import interpolation
from fatpoints.enumeration import algorithm_b_cases
from fatpoints.gfp import DEFAULT_PRIME, rank
from fatpoints.interpolation import (
    Certificate,
    MatrixTooLargeError,
    _run_one,
    _sample_distinct,
    build_matrix,
    check_case,
    check_family,
    rational_oracle,
    reduce_fundamental,
    replay_certificate,
)
from fatpoints.model import SystemSpec, conditions_count, edim

from _oracles import rank_mod_p_reference

P = DEFAULT_PRIME


def test_sample_points_deterministic_and_distinct():
    spec = SystemSpec(5, {2: 5, 3: 2})
    a = _sample_distinct(spec.r, P, 42)
    b = _sample_distinct(spec.r, P, 42)
    assert (a == b).all()
    assert a.shape == (7, 4)
    c = _sample_distinct(spec.r, P, 43)
    assert (a != c).any()
    keys = set()
    for row in a:
        lead = next(int(v) for v in row if v)
        inv = pow(lead, -1, P)
        keys.add(tuple(int(v) * inv % P for v in row))
    assert len(keys) == 7
    assert _sample_distinct(0, P, 1).shape == (0, 4)


def test_build_matrix_shapes_and_plane_case():
    spec = SystemSpec(1, {2: 1})
    pts = _sample_distinct(spec.r, P, 3)
    mat = build_matrix(spec, pts, P)
    assert mat.shape == (4, 4)
    assert rank(mat, P) == 4  # no plane is singular: the system is empty


def test_build_matrix_simple_points_independent():
    for d, r in ((2, 7), (3, 11), (4, 20)):
        spec = SystemSpec(d, {1: r})
        pts = _sample_distinct(spec.r, P, d)
        mat = build_matrix(spec, pts, P)
        assert mat.shape == (r, spec.n_monomials)
        assert rank(mat, P) == r


def test_build_matrix_two_double_points_on_quadrics():
    # quadrics singular at 2 points: the pairs of planes through the line,
    # dimension 2 > expected 1, so rank sticks at 7
    spec = SystemSpec(2, {2: 2})
    pts = _sample_distinct(spec.r, P, 11)
    mat = build_matrix(spec, pts, P)
    assert mat.shape == (8, 10)
    assert rank(mat, P) == 7
    assert rank_mod_p_reference(mat.astype(np.int64), P) == 7


def test_build_matrix_rejects_small_prime():
    spec = SystemSpec(14, {2: 1})
    pts = _sample_distinct(spec.r, P, 1)
    with pytest.raises(ValueError):
        build_matrix(spec, pts, 13)


def test_chart_independence():
    rng = np.random.default_rng(8)
    spec = SystemSpec(3, {2: 3, 3: 1})
    pts = rng.integers(1, P, (4, 4))  # all coordinates nonzero: any chart works
    base = rank(build_matrix(spec, pts, P), P)
    for chart in range(4):
        charts = [chart] * 4
        assert rank(build_matrix(spec, pts, P, charts=charts), P) == base


def test_reduce_fundamental_counts():
    spec = SystemSpec(22, {10: 4, 4: 2})
    deleted, residual = reduce_fundamental(
        spec, [(0, 10), (1, 10), (2, 10), (3, 10)]
    )
    assert len(deleted) == 880
    assert residual == SystemSpec(22, {4: 2})
    for m in (2, 3, 4, 7):
        deleted, residual = reduce_fundamental(SystemSpec(14, {m: 2}), [(0, m)])
        assert len(deleted) == conditions_count(m)
        assert residual == SystemSpec(14, {m: 1})


def test_reduce_fundamental_rejects_overlap():
    spec = SystemSpec(19, {10: 2})
    with pytest.raises(ValueError):
        reduce_fundamental(spec, [(0, 10), (1, 10)])  # 10 + 10 > 19
    with pytest.raises(ValueError):
        reduce_fundamental(SystemSpec(14, {2: 1}), [(0, 3)])  # wrong multiplicity
    with pytest.raises(ValueError):
        reduce_fundamental(SystemSpec(14, {2: 6}), [(i, 2) for i in range(5)])
    with pytest.raises(ValueError):
        reduce_fundamental(SystemSpec(14, {2: 2}), [(0, 2), (0, 2)])


def test_fundamental_verdict_equivalence():
    spec = SystemSpec(3, {2: 5})
    plain = check_case(spec, seed=5)
    reduced = check_case(spec, seed=5, fundamental=True)
    assert plain.verdict == reduced.verdict == "non_special"
    assert plain.rank == reduced.rank == 20
    four = check_case(SystemSpec(8, {2: 12}), seed=5, fundamental=True)
    bare = check_case(SystemSpec(8, {2: 12}), seed=5)
    assert four.verdict == bare.verdict
    assert len(four.fundamental_assignment) == 4


def test_fundamental_verdict_equivalence_random_small_degrees():
    rng = random.Random(23)
    for _ in range(20):
        d = rng.randrange(2, 7)
        counts = {}
        for _ in range(rng.randrange(1, 7)):
            m = rng.randrange(1, min(4, d) + 1)
            counts[m] = counts.get(m, 0) + 1
        spec = SystemSpec(d, counts)
        seed = rng.randrange(10**6)
        plain = check_case(spec, seed=seed)
        reduced = check_case(spec, seed=seed, fundamental=True)
        assert plain.verdict == reduced.verdict, spec
        assert plain.rank == reduced.rank, spec


def test_check_case_certifies_known_systems():
    cert = check_case(SystemSpec(3, {2: 5}), seed=1)
    assert cert.verdict == "non_special"
    assert cert.N == cert.S == cert.rank == 20
    cert = check_case(SystemSpec(9, {4: 11}), seed=2)
    assert cert.verdict == "non_special"
    assert cert.rank == 220
    cert = check_case(SystemSpec(1, {2: 1}), seed=3)
    assert cert.verdict == "non_special"
    assert cert.N - 1 - cert.rank == -1


def test_check_case_does_not_certify_special_systems():
    # L(2; 2^2) is special: dim 2 > edim 1
    cert = check_case(SystemSpec(2, {2: 2}), seed=4)
    assert cert.verdict == "inconclusive"
    assert cert.rank == 7
    assert cert.attempts == 3
    # L(4; 2^9) is special: the double quadric gives dim >= 0 > edim = -1
    for seed in (0, 1, 2):
        cert = check_case(SystemSpec(4, {2: 9}), seed=seed, max_attempts=1)
        assert cert.verdict == "inconclusive"
        assert cert.rank <= 34
    cert = check_case(SystemSpec(4, {2: 9}), seed=0)
    assert cert.verdict == "inconclusive"
    assert cert.prime == 65537  # final attempt escalated the prime


def test_certificate_determinism_and_replay():
    spec = SystemSpec(6, {3: 4, 2: 5})
    a = check_case(spec, seed=77)
    b = check_case(spec, seed=77)
    assert a.to_dict() == {**b.to_dict(), "elapsed_ms": a.elapsed_ms}
    assert replay_certificate(a) == a.rank
    c = check_case(spec, seed=77, fundamental=True)
    assert replay_certificate(c) == c.rank
    parsed = Certificate.from_dict(c.to_dict())
    assert parsed == c


def test_reported_dim_never_below_edim():
    rng = random.Random(13)
    for _ in range(25):
        d = rng.randrange(1, 5)
        counts = {}
        total = 0
        while True:
            m = rng.choice((1, 2, 3, 4))
            if total + conditions_count(m) > 40:
                break
            counts[m] = counts.get(m, 0) + 1
            total += conditions_count(m)
            if rng.random() < 0.25:
                break
        spec = SystemSpec(d, counts)
        cert = check_case(spec, seed=rng.randrange(10**6), max_attempts=1)
        dim = cert.N - 1 - cert.rank
        assert dim >= edim(spec)
        assert (dim == edim(spec)) == (cert.verdict == "non_special")


def test_memory_guard():
    with pytest.raises(MatrixTooLargeError):
        check_case(SystemSpec(40, {2: 200000}), max_attempts=1)


def test_rational_oracle_examples():
    assert rational_oracle(SystemSpec(2, {2: 2}), seed=1) == 2
    assert rational_oracle(SystemSpec(1, {2: 1}), seed=1) == -1
    assert rational_oracle(SystemSpec(3, {2: 5}), seed=1) == -1
    assert rational_oracle(SystemSpec(2, {}), seed=1) == 9
    with pytest.raises(ValueError):
        rational_oracle(SystemSpec(9, {4: 11}), seed=1)  # N = 220 > 200


def test_prime_field_dimension_matches_rational_oracle_sample():
    rng = random.Random(99)
    for _ in range(20):
        d = rng.randrange(1, 5)
        counts = {}
        total = 0
        while True:
            m = rng.choice((1, 2, 3, 4))
            if total + conditions_count(m) > 40:
                break
            counts[m] = counts.get(m, 0) + 1
            total += conditions_count(m)
            if rng.random() < 0.3:
                break
        spec = SystemSpec(d, counts)
        cert = check_case(spec, seed=rng.randrange(10**6))
        assert cert.N - 1 - cert.rank == rational_oracle(spec, seed=rng.randrange(10**6))


def _families(d: int) -> list[list[SystemSpec]]:
    groups: dict = {}
    for case in algorithm_b_cases(d):
        groups.setdefault((case.q, case.x, case.y), []).append(case.to_system())
    return list(groups.values())


def _counting_rank(monkeypatch) -> list:
    calls = []

    def counted(mat, *args, **kwargs):
        calls.append(mat.shape)
        return rank(mat, *args, **kwargs)

    monkeypatch.setattr(interpolation, "rank", counted)
    return calls


@pytest.mark.parametrize("d, picks", [(14, (0, 1, 35, 70)), (18, (40,))])
def test_family_ranks_equal_per_case_runs(d, picks, monkeypatch):
    # p = 17 leaves the small members short at d = 14, so the prefix counts
    # are checked below the maximal rank too
    families = _families(d)
    for i in picks:
        specs = families[i]
        assert len(specs) >= 3
        for prime in (P, 17) if d == 14 else (P,):
            calls = _counting_rank(monkeypatch)
            certs = check_family(specs, prime=prime, seed=100 + i, fundamental=True)
            monkeypatch.undo()
            assert len(calls) == 1
            for spec, cert in zip(specs, certs):
                assert (cert.seed, cert.prime, cert.attempts) == (100 + i, prime, 1)
                assert cert.rank == _run_one(spec, prime, cert.seed, cert.fundamental_assignment)


def test_family_members_that_are_no_prefix_run_alone(monkeypatch):
    # at d = 8 the greedy assignment of 2 double points differs from that of 6
    head = SystemSpec(8, {2: 6})
    fewer = SystemSpec(8, {2: 2})
    other = SystemSpec(8, {3: 1, 2: 1})
    calls = _counting_rank(monkeypatch)
    certs = check_family([fewer, head, other], seed=9, fundamental=True)
    assert len(calls) == 3
    monkeypatch.undo()
    for spec, cert in zip((fewer, head, other), certs):
        alone = check_case(spec, seed=9, fundamental=True)
        assert cert.to_dict() | {"elapsed_ms": 0} == alone.to_dict() | {"elapsed_ms": 0}


def test_only_six_members_of_the_sweep_run_alone():
    # check_family's run-alone branch: members whose points are no prefix of
    # their head's, or whose fundamental assignment differs from it
    alone = []
    families = 0
    for d in range(13, 41):
        for specs in _families(d):
            families += d >= 14
            head = max(specs, key=lambda spec: len(spec.points()))
            for spec in specs:
                if (spec.points() != head.points()[: spec.r]
                        or interpolation._greedy_assignment(spec)
                        != interpolation._greedy_assignment(head)):
                    alone.append(spec.to_text())
    assert alone == [
        "13; 10^1,4^16,3^2",
        "13; 10^1,4^17",
        "13; 10^1,4^17,2^1",
        "13; 10^1,4^17,2^2",
        "13; 10^1,4^17,3^1",
        "13; 10^1,4^17,3^1,2^1",
    ]
    assert families == 1246


def test_short_family_members_retry_at_their_own_seeds():
    # p = 17 leaves the smaller members of this d = 14 family short at seed 5
    specs = _families(14)[0]
    tried = check_family(specs, prime=17, seed=5, fundamental=True)
    assert tried[0].verdict == "inconclusive" and tried[-1].verdict == "non_special"
    for spec, cert, retry in zip(specs, tried, (40, 50, 60)):
        final = check_case(spec, prime=17, seed=retry, max_attempts=3, fundamental=True,
                           first=cert)
        if cert.verdict == "non_special":
            assert final.to_dict() == cert.to_dict() | {"elapsed_ms": final.elapsed_ms}
            continue
        assert final.attempts > 1 and final.seed == retry + final.attempts - 1
        assert final.prime == (32003 if final.attempts == 3 else 17)
        assert final.elapsed_ms >= cert.elapsed_ms
        assert replay_certificate(final) == final.rank
    with pytest.raises(ValueError, match="given for"):
        check_case(specs[1], prime=17, seed=5, first=tried[0])
