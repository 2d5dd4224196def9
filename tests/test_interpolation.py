import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fatpoints import gfp, interpolation
from fatpoints.enumeration import algorithm_b_cases
from fatpoints.gfp import PRIME_LADDER, _exact_dtype, rank
from fatpoints.interpolation import (
    MAX_ATTEMPTS,
    Certificate,
    MatrixTooLargeError,
    _coordinate_point,
    _greedy_assignment,
    _sample_distinct,
    _transposed_matrix,
    attempt_schedule,
    build_matrix,
    check_case,
    check_family,
    reduce_fundamental,
    replay_certificate,
    replay_family,
)
from fatpoints.model import SystemSpec, conditions_count, edim
from fatpoints.monomials import derivative_orders, monomial_basis

from _oracles import (
    build_matrix_per_point,
    derivative_coefficient,
    rank_mod_p_reference,
    rational_oracle,
    sample_distinct_per_point,
)

P = 32003


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


def test_point_stream_is_pinned():
    # the points of attempt 1 (73, seed 0), a retry (73, 20261018) and an
    # escalated attempt (32003, 7), and of seed 1 avoiding the coordinate
    # points as the campaign's pinned checks do, as literals: a numpy whose
    # Generator(PCG64(seed)).integers drew another stream would change every
    # logged certificate's matrix
    assert _sample_distinct(5, 73, 0).tolist() == [
        [62, 46, 37, 19], [22, 2, 5, 1], [12, 59, 47, 66], [36, 44, 70, 53], [46, 39, 40, 68]]
    assert _sample_distinct(5, 73, 20261018).tolist() == [
        [50, 63, 61, 28], [42, 2, 51, 53], [2, 62, 33, 56], [50, 48, 63, 1], [33, 0, 67, 70]]
    assert _sample_distinct(3, 32003, 7).tolist() == [
        [30239, 20004, 21895, 28713], [18507, 24824, 26679, 7207], [1777, 9606, 9123, 27956]]
    avoid = [_coordinate_point(slot) for slot in range(4)]
    assert _sample_distinct(4, 73, 1, avoid=avoid).tolist() == [
        [34, 37, 55, 69], [2, 10, 60, 69], [18, 22, 63, 30], [19, 60, 18, 29]]


@pytest.mark.parametrize("p", [7, 11])
def test_batched_sampling_equals_the_per_point_reference(p, monkeypatch):
    # at tiny primes the draws hit zero rows and points taken before, which
    # are skipped one by one as the per-point draws skip them
    points = (p**4 - 1) // (p - 1)  # of P^3(F_p)
    avoid = [_coordinate_point(slot) for slot in range(4)]
    zero_rows = repeats = 0
    for seed in range(8):
        for av in ((), avoid):
            count = points * 7 // 8
            want, draws = sample_distinct_per_point(count, p, seed, avoid=av)
            assert _sample_distinct(count, p, seed, avoid=av).tolist() == want.tolist()
            stream = np.random.Generator(np.random.PCG64(seed)).integers(0, p, (draws, 4))
            zeros = int((stream == 0).all(axis=1).sum())
            zero_rows += zeros
            repeats += draws - count - zeros
    assert zero_rows > 0 and repeats > 0
    # more points than P^3(F_p) has, less the four avoided: both give up
    with pytest.raises(RuntimeError, match=f"could not sample {points - 3} distinct points"):
        _sample_distinct(points - 3, p, 0, avoid=avoid)
    with pytest.raises(RuntimeError):
        sample_distinct_per_point(points - 3, p, 0, avoid=avoid)
    # after _MAX_RESAMPLE skipped draws in a row, on the same calls
    monkeypatch.setattr(interpolation, "_MAX_RESAMPLE", 3)
    outcomes = []
    for seed in range(12):
        got = want = None
        try:
            got = _sample_distinct(points // 4, p, seed).tolist()
        except RuntimeError:
            pass
        try:
            want = sample_distinct_per_point(points // 4, p, seed, max_resample=3)[0].tolist()
        except RuntimeError:
            pass
        assert got == want
        outcomes.append(got is None)
    assert any(outcomes) and not all(outcomes)


@pytest.mark.parametrize("p", [PRIME_LADDER[0], 32003])
def test_batched_assembly_equals_the_per_point_reference(p):
    # runs longer than one batch of 220 rows (12 4-points, 25 3-points, 60
    # 2-points), 10-points one per batch, and inside the runs points in
    # charts 1, 2 and 3 and points with zero affine coordinates, which
    # split them; in the dtype and layout build_matrix promises
    spec = SystemSpec(12, {10: 2, 4: 12, 3: 25, 2: 60, 1: 2})
    pts = _sample_distinct(spec.r, p, 12)
    pts[5] = [0, 3, 4, 5]
    pts[20] = [0, 0, p + 2, 9]
    pts[40] = [7, 0, 5, 0]
    pts[70] = [p, 1, 0, 2]
    pts[100] = [0, 0, 0, 3]
    full = monomial_basis(12)
    for basis in (None, full[::3]):
        got = build_matrix(spec, pts, p, basis=basis)
        cols = full if basis is None else basis
        assert got.dtype == _exact_dtype(p, min(got.shape)) and got.flags.f_contiguous
        assert got.shape == (spec.conditions_total, cols.shape[0]) == (1172, cols.shape[0])
        assert (got.astype(np.int64) == build_matrix_per_point(spec, pts, p, basis=basis)).all()


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


def _entry_oracle(spec, pts, p, charts, basis) -> list[list[int]]:
    """build_matrix entry by entry in Python ints: the coefficient of d^beta x^alpha
    times prod u_i^(alpha_i - beta_i) mod p, u the point in its chart."""
    rows = []
    for pt, m, chart in zip(pts.tolist(), spec.points(), charts):
        other = [i for i in range(4) if i != chart]
        inv = pow(pt[chart] % p, -1, p)
        u = [pt[i] * inv % p for i in other]
        for beta in derivative_orders(m).tolist():
            row = []
            for alpha in basis.tolist():
                aff = [alpha[i] for i in other]
                entry = derivative_coefficient(aff + [0], beta) % p
                if entry:
                    for ui, a, b in zip(u, aff, beta):
                        entry = entry * pow(ui, a - b, p) % p
                row.append(entry)
            rows.append(row)
    return rows


# the first prime above the degree and the ladder's first, both computed in
# float32; 1009, whose float32 output is computed in float64; the ladder's
# second, and a larger prime whose cube stays below 2^53
@pytest.mark.parametrize("p", [7, 73, 1009, 32003, 104729])
def test_build_matrix_entries_match_python_ints(p):
    spec = SystemSpec(6, {3: 2, 2: 2, 1: 1})
    rng = np.random.default_rng(p)
    full = monomial_basis(6)
    subset = full[rng.random(full.shape[0]) < 0.6]
    # points with leading zeros, so the default chart is each of the four
    lead = np.array([[1, 2, 3, 4], [0, 5, 6, 7], [0, 0, 8, 9], [0, 0, 0, 10], [3, 0, 2, 0]])
    pts = lead * rng.integers(1, p, (5, 1)) % p
    dense = rng.integers(1, p, (5, 4))
    for basis in (None, subset):
        cols = full if basis is None else basis
        for points in (pts, dense):
            got = build_matrix(spec, points, p, basis=basis)
            charts = [int(np.flatnonzero(pt % p)[0]) for pt in points]
            want = _entry_oracle(spec, points, p, charts, cols)
            assert got.dtype == _exact_dtype(p, min(got.shape)) and got.flags.f_contiguous
            assert got.shape == (spec.conditions_total, cols.shape[0])
            assert got.astype(np.int64).tolist() == want


def test_build_matrix_refuses_primes_rank_admits_no_matrix_at():
    # a product of three residues fits float64 at 208057, the last prime whose
    # cube is below 2^53, and not at 208067, the next one; 90000049 (where
    # rank still admits 4 columns) and 2^31 - 1 are refused as well
    spec = SystemSpec(2, {2: 1, 1: 1})
    pts = np.array([[1, 2, 3, 4], [5, 0, 7, 8]])
    p = 208057
    assert p**3 < 2**53 <= 208067**3
    got = build_matrix(spec, pts, p)
    assert got.astype(np.int64).tolist() == _entry_oracle(spec, pts, p, [0, 0], monomial_basis(2))
    for p in (208067, 90000049, 2**31 - 1):
        with pytest.raises(ValueError, match="product of three residues"):
            build_matrix(spec, pts, p)
    assert build_matrix(SystemSpec(2, {}), np.zeros((0, 4)), 2**31 - 1).shape == (0, 10)


def _digest(mat: np.ndarray) -> str:
    assert mat.flags.f_contiguous
    return hashlib.sha256(mat.tobytes(order="F")).hexdigest()


def test_build_matrix_output_is_pinned():
    # digests of the output of the integer assembly that float64 assembly
    # replaced: every logged certificate replays only while they hold
    case = algorithm_b_cases(14)[0].to_system()
    assignment = interpolation._greedy_assignment(case)
    deleted, residual = reduce_fundamental(case, assignment)
    basis = np.delete(monomial_basis(14), deleted, axis=0)
    pts = _sample_distinct(residual.r, P, 14, avoid=[
        interpolation._coordinate_point(slot) for slot in range(len(assignment))])
    mat = build_matrix(residual, pts, P, basis=basis)
    assert (case.to_text(), mat.shape) == ("14; 10^1,3^45,2^2", (428, 430))
    assert _digest(mat) == "35d5b90a233debf743bea2649546bbabd6925df2871e2d926fbee9a9bc044617"
    spec = SystemSpec(30, {10: 3, 3: 4, 2: 2})
    mat = build_matrix(spec, _sample_distinct(spec.r, 104729, 30), 104729)
    assert mat.shape == (708, 5456)
    assert _digest(mat) == "a233d057cd36beb540e75b3ca79b6bcde800d51dc7b2102daf07c20537efa76d"


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


def test_pinned_columns_are_computed_once_per_assignment():
    seen = set()
    for d in range(13, 41):
        basis = monomial_basis(d)
        for case in algorithm_b_cases(d):
            spec = case.to_system()
            assignment = _greedy_assignment(spec)
            if (d, tuple(assignment)) in seen:
                continue
            seen.add((d, tuple(assignment)))
            want = sorted(col for slot, (_, m) in enumerate(assignment)
                          for col in np.nonzero(basis[:, slot] > d - m)[0].tolist())
            mults = tuple(m for _, m in assignment)
            assert list(interpolation._pinned_columns(d, mults)) == want, (d, assignment)
            deleted, _ = reduce_fundamental(spec, assignment)
            assert deleted == want
            # the caller's list is its own: changing it leaves the next call's alone
            deleted.append(-1)
            deleted[0] = -1
            misses = interpolation._pinned_columns.cache_info().misses
            assert reduce_fundamental(spec, assignment)[0] == want
            assert interpolation._pinned_columns.cache_info().misses == misses


def _unpinned_rank(cert: Certificate) -> int:
    """The rank of cert's recorded attempt with every point random, none pinned."""
    return replay_certificate(replace(cert, fundamental_assignment=[]))


def test_fundamental_verdict_equivalence(monkeypatch):
    # at P: at 73 the unpinned points of this seed fall short by chance
    _ladder(monkeypatch, P, 65537)
    cert = check_case(SystemSpec(3, {2: 5}), seed=5)
    assert cert.verdict == "non_special"
    assert cert.fundamental_assignment == [(0, 2)]
    assert cert.rank == _unpinned_rank(cert) == 20
    four = check_case(SystemSpec(8, {2: 12}), seed=5)
    assert len(four.fundamental_assignment) == 4
    assert four.rank == _unpinned_rank(four)


def test_fundamental_verdict_equivalence_random_small_degrees():
    rng = random.Random(23)
    for _ in range(20):
        d = rng.randrange(2, 7)
        counts = {}
        for _ in range(rng.randrange(1, 7)):
            m = rng.randrange(1, min(4, d) + 1)
            counts[m] = counts.get(m, 0) + 1
        spec = SystemSpec(d, counts)
        pinned = check_case(spec, seed=rng.randrange(10**6))
        assert pinned.fundamental_assignment, spec
        assert pinned.rank == _unpinned_rank(pinned), spec


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
        cert = check_family([SystemSpec(4, {2: 9})], seed)[0]
        assert cert.verdict == "inconclusive"
        assert cert.rank <= 34
    cert = check_case(SystemSpec(4, {2: 9}), seed=0)
    assert cert.verdict == "inconclusive"
    assert (cert.prime, cert.seed) == (PRIME_LADDER[1], 2)  # final attempt escalated the prime


def test_certificate_determinism_and_replay():
    spec = SystemSpec(6, {3: 4, 2: 5})
    a = check_case(spec, seed=77)
    b = check_case(spec, seed=77)
    assert a.to_dict() == {**b.to_dict(), "elapsed_ms": a.elapsed_ms}
    assert a.fundamental_assignment
    assert replay_certificate(a) == a.rank
    parsed = Certificate.from_dict(a.to_dict())
    assert parsed == a


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
        cert = check_family([spec], rng.randrange(10**6))[0]
        dim = cert.N - 1 - cert.rank
        assert dim >= edim(spec)
        assert (dim == edim(spec)) == (cert.verdict == "non_special")


def test_memory_guard(monkeypatch):
    def never_sampled(*args, **kwargs):
        raise AssertionError("points sampled for a matrix over the memory budget")

    # a fixed room, so that no machine builds the 55 GiB matrix
    monkeypatch.setattr(interpolation, "_mem_available", lambda: 16 * 2**30)
    monkeypatch.setattr(interpolation, "_sample_distinct", never_sampled)
    with pytest.raises(MatrixTooLargeError):
        check_case(SystemSpec(40, {2: 200000}), seed=0)


# Checks the largest d = 26 case (2792 x 2774 after the fundamental reduction)
# as a campaign worker does, with one BLAS thread, and prints the process's
# peak RSS and peak_bytes' estimate.  With "fallback" the child unbinds
# numpy's gemm itself, so that every update allocates its product.
_PEAK_CHILD = """
import json, resource, sys
import numpy as np
from fatpoints import gfp, interpolation
from fatpoints.enumeration import algorithm_b_cases
if sys.argv[1] == "fallback":
    gfp._gemm = lambda dtype: None
spec = max(algorithm_b_cases(26), key=lambda case: case.conditions_total).to_system()
cert = interpolation.check_case(spec, 0)
print(json.dumps({"spec": spec.to_text(), "verdict": cert.verdict,
                  "gemm": gfp._gemm(np.dtype(np.float32)) is not None,
                  "maxrss": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
                  "peak_bytes": interpolation.peak_bytes(spec)}))
"""


@pytest.mark.parametrize("path", ["gemm", "fallback"])
def test_peak_bytes_bounds_a_real_check(path):
    # the pool is sized by peak_bytes, so a worker must not exceed it; the
    # fallback's temporaries are what its margin of half the matrix covers
    if sys.platform != "linux":
        pytest.skip("ru_maxrss is in KiB on Linux only")
    src = str(Path(interpolation.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    # ru_maxrss keeps the peak of the image a process replaced by exec, so a
    # child of this large process would count it: a small launcher starts it
    launch = "import subprocess, sys; subprocess.run([sys.executable, *sys.argv[1:]], check=True)"
    proc = subprocess.run([sys.executable, "-c", launch, "-c", _PEAK_CHILD, path], env=env,
                          check=True, stdout=subprocess.PIPE, text=True)
    got = json.loads(proc.stdout)
    assert got["spec"] == "26; 10^16,3^14,2^3" and got["verdict"] == "non_special"
    assert got["gemm"] == (path == "gemm" and gfp._gemm(np.dtype(np.float32)) is not None)
    assert got["maxrss"] <= got["peak_bytes"]


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


def _ladder(monkeypatch, *primes):
    """Run the checks on primes: attempt_schedule reads PRIME_LADDER at call time."""
    monkeypatch.setattr(interpolation, "PRIME_LADDER", primes)


def _counting_rank(monkeypatch) -> list:
    calls = []

    def counted(mat, *args, **kwargs):
        calls.append(mat.shape)
        return rank(mat, *args, **kwargs)

    monkeypatch.setattr(interpolation, "rank", counted)
    return calls


@pytest.mark.parametrize("d, picks", [(14, (0, 1, 35, 70)), (18, (40,))])
def test_family_ranks_equal_per_case_runs(d, picks, monkeypatch):
    # in float32 at the ladder's first prime and in float64 at P; p = 17
    # leaves the small members short at d = 14, so the prefix counts are
    # checked below the maximal rank too
    families = _families(d)
    for i in picks:
        specs = families[i]
        assert len(specs) >= 3
        for prime in (PRIME_LADDER[0], P) + ((17,) if d == 14 else ()):
            with monkeypatch.context() as patch:
                _ladder(patch, prime)
                calls = _counting_rank(patch)
                certs = check_family(specs, 100 + i)
            assert len(calls) == 1
            for spec, cert in zip(specs, certs):
                assert (cert.seed, cert.prime, cert.attempts) == (100 + i, prime, 1)
                # the rank of the member's own matrix, without leading=
                mat, deleted = _transposed_matrix(spec, prime, cert.seed,
                                                  cert.fundamental_assignment)
                assert cert.rank == rank(mat, prime) + deleted


def test_family_members_that_are_no_prefix_run_alone(monkeypatch):
    # at d = 8 the greedy assignment of 2 double points differs from that of 6
    head = SystemSpec(8, {2: 6})
    fewer = SystemSpec(8, {2: 2})
    other = SystemSpec(8, {3: 1, 2: 1})
    calls = _counting_rank(monkeypatch)
    certs = check_family([fewer, head, other], seed=9)
    assert len(calls) == 3
    monkeypatch.undo()
    for spec, cert in zip((fewer, head, other), certs):
        alone = check_case(spec, seed=9)
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


def test_short_family_members_retry_at_their_own_seeds(monkeypatch):
    # p = 17 leaves the smaller members of this d = 14 family short at seed 5;
    # their retries run at 17 but the last, which escalates to 73
    _ladder(monkeypatch, 17, 73)
    specs = _families(14)[0]
    tried = check_family(specs, 5)
    assert tried[0].verdict == "inconclusive" and tried[-1].verdict == "non_special"
    for spec, cert, retry in zip(specs, tried, (40, 50, 60)):
        final = check_case(spec, retry, first=cert)
        if cert.verdict == "non_special":
            assert final.to_dict() == cert.to_dict() | {"elapsed_ms": final.elapsed_ms}
            continue
        assert final.attempts > 1 and final.seed == retry + final.attempts - 1
        assert final.prime == (73 if final.attempts == MAX_ATTEMPTS else 17)
        assert final.elapsed_ms >= cert.elapsed_ms
        assert replay_certificate(final) == final.rank
    with pytest.raises(ValueError, match="given for"):
        check_case(specs[1], 5, first=tried[0])


def test_attempt_schedule(monkeypatch):
    assert MAX_ATTEMPTS == 3
    assert [attempt_schedule(a, 100, 200) for a in range(5)] == [
        None, (73, 100), (73, 201), (32003, 202), None]
    # PRIME_LADDER is read at call time
    _ladder(monkeypatch, 11, 13)
    assert [attempt_schedule(a, 5, 5) for a in (1, 2, 3)] == [(11, 5), (11, 6), (13, 7)]


@pytest.mark.parametrize("d, pick", [(14, 0), (18, 40)])
def test_member_matrix_is_the_heads_leading_block(d, pick):
    # the identity check_family and replay_family rest on, at one prime,
    # seed and assignment, compared byte for byte
    specs = _families(d)[pick]
    head = max(specs, key=lambda spec: spec.r)
    assignment = _greedy_assignment(head)
    head_mat, head_deleted = _transposed_matrix(head, P, 100 + pick, assignment)
    for spec in specs:
        assert _greedy_assignment(spec) == assignment
        mat, deleted = _transposed_matrix(spec, P, 100 + pick, assignment)
        assert deleted == head_deleted and mat.shape[0] == head_mat.shape[0]
        block = np.ascontiguousarray(head_mat[:, : mat.shape[1]])
        assert mat.dtype == block.dtype and mat.tobytes() == block.tobytes()


def test_replay_family_ranks_a_family_with_one_elimination(monkeypatch):
    # p = 17 leaves the smaller members short, so prefix counts below the
    # maximal rank are replayed too
    specs = _families(14)[0]
    for prime in (PRIME_LADDER[0], P, 17):
        with monkeypatch.context() as patch:
            _ladder(patch, prime)
            certs = check_family(specs, 5)
        calls = _counting_rank(monkeypatch)
        got = replay_family(certs[::-1])
        monkeypatch.undo()
        assert len(calls) == 1
        assert got == [cert.rank for cert in certs[::-1]]
        assert got == [replay_certificate(cert) for cert in certs[::-1]]


def test_replay_family_replays_records_that_share_no_prefix_alone(monkeypatch):
    specs = _families(14)[0]
    with monkeypatch.context() as patch:
        _ladder(patch, 17, 73)
        certs = check_family(specs, 5)
        retry = check_case(specs[0], 40, first=certs[0])
    assert retry.seed != 5
    head = SystemSpec(8, {2: 6})
    others = [check_case(spec, seed=9)
              for spec in (head, SystemSpec(8, {2: 2}), SystemSpec(8, {3: 1, 2: 1}))]
    mixed = [retry] + certs[1:] + others
    calls = _counting_rank(monkeypatch)
    got = replay_family(mixed)
    monkeypatch.undo()
    # the d = 14 head ranks its family; the retry (another seed) and the
    # d = 8 systems (another degree) replay alone
    assert len(calls) == 1 + 1 + 3
    assert got == [cert.rank for cert in mixed]
