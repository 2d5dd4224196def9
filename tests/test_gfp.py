import functools
import itertools
import tracemalloc

import numpy as np
import pytest

from fatpoints import gfp
from fatpoints.gfp import PRIME_LADDER, _exact_dtype, _reduce, is_prime, rank

from _oracles import profile_mod_p_reference, rank_mod_p_reference, rank_rational_reference

P = 32003
F32, F64 = np.dtype(np.float32), np.dtype(np.float64)


def _widest(p: int) -> int:
    """The widest min(rows, columns) that p admits, checked against _exact_dtype."""
    h = p // 2
    w = max(0, (2**53 - 2 * h) // (h * h))
    assert (w == 0 or _exact_dtype(p, w) is not None) and _exact_dtype(p, w + 1) is None
    return w


def _centered(vals, p: int) -> list[int]:
    h = p // 2
    return [(int(v) + h) % p - h for v in vals]


def test_is_prime():
    assert is_prime(2) and is_prime(3) and is_prime(32003) and is_prime(65537)
    assert not is_prime(1) and not is_prime(32001) and not is_prime(65536)


def test_inverse_small_prime_brute_force():
    # inv(3) mod 7 is 5 because 3*5 = 15 = 2*7 + 1
    assert 3 * 5 % 7 == 1
    assert pow(3, -1, 7) == 5


def test_ladder():
    # the two primes of attempt_schedule; campaign headers record them
    assert PRIME_LADDER == (73, 32003)
    # above every degree in scope, so no falling-factorial coefficient vanishes
    assert all(is_prime(p) and p > 40 for p in PRIME_LADDER)
    # the first ranks the widest matrix of the sweep in float32, the second in float64
    assert _exact_dtype(PRIME_LADDER[0], 11461) == F32
    assert _exact_dtype(PRIME_LADDER[1], 11461) == F64


@pytest.mark.parametrize("size", [1, 2, 79, 5000])
def test_reduce_is_exact_next_to_multiples_of_p(size):
    # the rounded quotient is off by one only for values x + h within a few
    # units of a multiple of p, close to the dtype's exact limit; a vector of
    # one entry, a pivot search's short columns and a long one
    rng = np.random.default_rng(size)
    for dtype, limit in ((F32, 2**24), (F64, 2**53)):
        for p in (2, 3, 73, 32003, 104729, 20000003, 2**31 - 1):
            if 4 * p > limit:
                continue
            h = p // 2
            q = rng.integers((limit // 2) // p, limit // p, size)
            vals = (q * p - h + rng.integers(-2, 3, size)) * rng.choice([-1, 1], size)
            vals = np.where(np.abs(vals) + h <= limit, vals, 0)
            x = vals.astype(dtype)
            assert (x.astype(np.int64) == vals).all()
            _reduce(x, p)
            assert x.astype(np.int64).tolist() == _centered(vals, p)


def test_rank_basics():
    assert rank(np.eye(3, dtype=np.int64), P) == 3
    assert rank(np.zeros((7, 2), dtype=np.int64), P) == 0
    assert rank(np.zeros((0, 5), dtype=np.int64), P) == 0
    assert rank(np.array([[1, 2], [2, 4], [0, 1]]), P) == 2
    with pytest.raises(ValueError):
        rank(np.ones(4), P)  # not 2-D
    with pytest.raises(ValueError):
        rank(np.eye(2), 32001)  # composite modulus


def test_rank_reduces_entries_mod_p():
    a = np.array([[P, 2 * P], [3 * P, 7 * P]])
    assert rank(a, P) == 0
    assert rank(np.array([[P + 1, 0], [0, P]]), P) == 1


def test_rank_against_reference_random():
    rng = np.random.default_rng(123)
    for _ in range(60):
        m = int(rng.integers(1, 40))
        n = int(rng.integers(1, 40))
        k = int(rng.integers(0, min(m, n) + 1))
        a = (rng.integers(0, P, (m, k)) @ rng.integers(0, P, (k, n))) % P
        expected = rank_mod_p_reference(a, P)
        assert rank(a, P) == expected


def test_rank_invariances():
    rng = np.random.default_rng(7)
    for _ in range(25):
        m, n = int(rng.integers(2, 25)), int(rng.integers(2, 25))
        a = rng.integers(0, P, (m, n))
        base = rank(a, P)
        # row swap
        b = a.copy()
        b[[0, -1]] = b[[-1, 0]]
        assert rank(b, P) == base
        # scale a row by a nonzero element
        c = a.copy()
        c[0] = c[0] * int(rng.integers(1, P)) % P
        assert rank(c, P) == base
        # transpose
        assert rank(a.T, P) == base


def test_rank_mod_p_matches_rational_rank_on_random():
    # spurious modular rank drops are measure-zero; 100 clean 20x20 draws
    rng = np.random.default_rng(999)
    for _ in range(100):
        a = rng.integers(0, P, (20, 20))
        assert rank(a, P) == rank_rational_reference(a)


def test_rank_never_exceeds_rational_rank():
    rng = np.random.default_rng(55)
    for _ in range(30):
        m, n = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        a = rng.integers(-50, 50, (m, n))
        assert rank(a % P, P) <= rank_rational_reference(a)


def test_rank_exhaustive_on_tiny_matrices():
    for p in (2, 3):
        for shape in ((2, 2), (3, 3)):
            cells = shape[0] * shape[1]
            for values in itertools.product(range(p), repeat=cells):
                a = np.array(values, dtype=np.int64).reshape(shape)
                assert rank(a, p) == rank_mod_p_reference(a, p)


def test_rank_against_reference_on_shapes_up_to_300():
    rng = np.random.default_rng(2024)
    for trial in range(200):
        m = int(rng.integers(1, 301))
        n = int(rng.integers(1, 301))
        a = rng.integers(0, P, (m, n))
        if trial % 3 == 0:
            k = int(rng.integers(0, min(m, n) + 1))
            a = (rng.integers(0, P, (m, k)) @ rng.integers(0, P, (k, n))) % P
        assert rank(a, P) == rank_mod_p_reference(a, P)


@pytest.mark.parametrize("kind", ["zero", "duplicate"])
@pytest.mark.parametrize("shape", [(40, 130), (130, 130), (200, 97)])
def test_rank_pivot_skips_at_recursion_splits(kind, shape):
    # The recursion splits columns at multiples of 32: zero or repeated
    # columns 31-33 and 63-65 skip pivots right at the splits, so the pivot
    # blocks stop being contiguous.
    a = np.random.default_rng(shape[0] * shape[1]).integers(0, P, shape)
    for c in (31, 32, 33, 63, 64, 65):
        a[:, c] = 0 if kind == "zero" else a[:, c - 31]
    expected = rank_mod_p_reference(a, P)
    assert rank(a, P) == expected
    assert rank(a.T, P) == expected


def _leading_counts(n: int, rng) -> list[int]:
    """0, n, both sides of every recursion split and a few random column counts."""
    ks = {0, n} | {k for c in range(32, n, 32) for k in (c - 1, c, c + 1)}
    ks |= {int(k) for k in rng.integers(0, n + 1, 4)}
    return sorted(k for k in ks if 0 <= k <= n)


@pytest.mark.parametrize("shape", [(60, 60), (150, 70), (70, 150), (97, 200)])
@pytest.mark.parametrize("kind", ["random", "deficient"])
def test_leading_ranks_from_one_elimination(shape, kind):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1] + len(kind))
    m, n = shape
    if kind == "random":
        a = rng.integers(0, P, shape)
    else:
        k = min(m, n) // 2
        a = (rng.integers(0, P, (m, k)) @ rng.integers(0, P, (k, n))) % P
    ks = _leading_counts(n, rng)
    got = rank(a.astype(np.float64), P, leading=ks)
    assert got == [rank_mod_p_reference(a[:, :k], P) for k in ks]
    assert rank(a, P) == got[-1]


@pytest.mark.parametrize("kind", ["zero", "duplicate"])
@pytest.mark.parametrize("shape", [(40, 130), (130, 130), (200, 97)])
def test_leading_ranks_at_recursion_splits(kind, shape):
    a = np.random.default_rng(shape[0] + shape[1]).integers(0, P, shape)
    for c in (31, 32, 33, 63, 64, 65):
        a[:, c] = 0 if kind == "zero" else a[:, c - 31]
    ks = [30, 31, 32, 33, 34, 62, 63, 64, 65, 66, shape[1]]
    got = rank(a, P, leading=ks)
    assert got == [rank_mod_p_reference(a[:, :k], P) for k in ks]
    # on the transpose, the same elimination gives the ranks of leading row blocks
    rows = [k for k in ks if k <= shape[0]]
    assert rank(np.ascontiguousarray(a.T), P, leading=rows) == [
        rank_mod_p_reference(a[:k], P) for k in rows
    ]


def test_leading_rejects_out_of_range_counts():
    a = np.eye(3)
    assert rank(a, P, leading=[]) == []
    assert rank(np.zeros((0, 4)), P, leading=[0, 4]) == [0, 0]
    for bad in ([-1], [4]):
        with pytest.raises(ValueError, match="leading"):
            rank(a, P, leading=bad)


@pytest.mark.parametrize("p", [40000003, 90000049])
def test_rank_budget_below_base_width(p):
    # budgets 22 and 4, below the recursion's base width: rank admits
    # min(m, n) up to the budget and refuses one more
    w = _widest(p)
    assert w == {40000003: 22, 90000049: 4}[p]
    rng = np.random.default_rng(p)
    for m, n in ((w, 40), (40, w)):
        for k in sorted({min(17, w), w}):
            a = rng.integers(0, p, (m, k)) @ rng.integers(0, p, (k, n)) % p
            assert rank(a, p) == rank_mod_p_reference(a, p) == k
    for shape in ((w + 1, 40), (40, w + 1)):
        with pytest.raises(ValueError, match=f"admits min\\(rows, columns\\) <= {w}$"):
            rank(rng.integers(0, p, shape), p)


def test_large_modulus_falls_back_exactly():
    # 2^31 - 1 is prime, and its budget is 0: rank stays exact by refusing
    # every non-empty matrix; 2^31 + 11 is beyond the moduli rank accepts
    p = 2**31 - 1
    assert _widest(p) == 0 and _exact_dtype(p, 0) == F64
    rng = np.random.default_rng(77)
    for shape in ((15, 18), (1, 5), (5, 1)):
        with pytest.raises(ValueError, match="<= 0"):
            rank(rng.integers(0, p, shape), p)
    for p in (2**31 - 1, 2**31 + 11):
        with pytest.raises(ValueError):
            rank(np.eye(2), p)


# 16647647 is the largest prime admitted for 130 columns, 23543347 the
# largest admitted for 65; 20000003, 90000049 and 150000047 admit 90, 4
# and 1; 8323823 and 11771657 admit 520 and 260
@pytest.mark.parametrize(
    "p", [8323823, 11771657, 20000003, 90000049, 16647647, 23543347, 150000047])
def test_rank_worst_case_magnitudes(p):
    # a = L @ U, where U has rank 70 and the off-diagonal entries of the
    # unit-lower L's first 70 rows and U's first 100 columns are all h, the
    # largest centered residue: the products the elimination forms there
    # are h^2, as large as the prime allows (and odd where h is).  The other
    # entries are random, so that a loss of float64 exactness raises the
    # rank.  Where p admits fewer than 130 columns, a is refused and its
    # widest admitted slices are checked.
    n, r = 130, 70
    h = p // 2
    assert _widest(16647647) >= n > _widest(16647703)  # the next prime
    assert _widest(23543347) == n // 2
    rng = np.random.default_rng(p)
    lo = np.tril(np.full((n, n), h, dtype=np.int64), -1) + np.eye(n, dtype=np.int64)
    lo[r:, :r] = rng.integers(0, p, (n - r, r))
    up = np.triu(np.full((n, n), h, dtype=np.int64))
    up[:r, 100:] = rng.integers(0, p, (r, n - 100))
    up[r:] = 0
    a = (lo @ up) % p
    w = min(n, _widest(p))
    assert rank(a[:w], p) == rank(a.T[:w], p) == min(w, r)
    if w < n:
        with pytest.raises(ValueError):
            rank(a, p)


def test_float_input_validation():
    assert rank(np.eye(3) * 1.0, P) == 3
    with pytest.raises(ValueError):
        rank(np.array([[0.5, 1.0], [0.0, 1.0]]), P)
    with pytest.raises(ValueError):
        rank(np.array([[np.inf, 1.0], [0.0, 1.0]]), P)
    # input is checked chunk by chunk: a bad entry in the last rows is found
    wide = np.zeros((60, 3000))
    for bad in (np.nan, -np.inf, 0.5, 2.0**53):
        wide[-1, -1] = bad
        with pytest.raises(ValueError):
            rank(wide, P)
        with pytest.raises(ValueError):
            rank(wide.copy(), P, overwrite=True)
    wide[-1, -1] = -(2.0**52)
    assert rank(wide, P) == 1


def test_rank_reduces_entries_next_to_float_limit():
    # two lifts of the same residues, one within h of 2**53: x + h passes M,
    # the least multiple of p above 2**53, which is odd, so float64 holds
    # neither x + h nor floor((x + h) / p) * p = M; 134217487 admits two rows
    p, h = 134217487, 134217487 // 2
    assert _widest(p) >= 2
    big = -(-2**53 // p) * p
    assert big % 2 == 1 and big - h < 2**53
    x = 2**53 - np.random.default_rng(1).integers(1, 2**53 - (big - h), 300)
    vals = np.array([x, x % p])
    a = vals.astype(np.float64)
    assert (a == vals).all() and (x + h >= big).all()
    assert rank(a, p) == 1
    assert rank(-a, p) == 1


def test_float32_input_beyond_its_exact_range_is_reduced_in_place(monkeypatch):
    # lifts of the same residues that float32 holds exactly: multiples of
    # 2^8 up to 2^31, and values within p of 2^24, where x + h is no longer
    # exact for half of them; such chunks are reduced with np.remainder, in
    # place for a C-contiguous float32 input
    p = PRIME_LADDER[0]
    far = np.random.default_rng(32).integers(2**16, 2**23, 300) * 2**8
    near = 2**24 - (2**24 - far) % p
    vals = np.array([far, near, -far, far % p])
    a = vals.astype(np.float32)
    assert (a.astype(np.int64) == vals).all() and (near + p // 2 > 2**24).any()
    seen = _kernel_dtypes(monkeypatch)
    assert rank(a.astype(np.float64), p) == rank(a, p) == 1
    assert rank(a, p, overwrite=True) == 1
    assert seen == [F32] * 3 and not (a.astype(np.int64) == vals).all()


@pytest.mark.parametrize("p", [PRIME_LADDER[1], 65537, 104729, 8323823])
def test_reduce_is_exact_up_to_the_admitted_magnitude(p):
    _reduce_up_to_the_admitted_magnitude(p, F64)


@pytest.mark.parametrize("p", [3, PRIME_LADDER[0], 1831])
def test_reduce_is_exact_up_to_the_float32_magnitude(p):
    _reduce_up_to_the_admitted_magnitude(p, F32)


def _reduce_up_to_the_admitted_magnitude(p, dtype):
    # every entry of an admitted matrix keeps |x| <= B*h^2 + h, where B is
    # the widest min(m, n) the dtype takes at p; x = Q*p + r on both sides of
    # that range, up to its largest magnitude
    h = p // 2
    limit = {F32: 2**24, F64: 2**53}[dtype]
    b = (limit - 2 * h) // (h * h)
    assert _exact_dtype(p, b) == dtype and _exact_dtype(p, b + 1) is not dtype
    top = b * h * h + h
    qs = {0, 1, 2, top // p - 1, top // p, -1, -2, -(top // p), -(top // p) - 1}
    qs |= {int(q) for q in np.random.default_rng(p).integers(-(top // p), top // p + 1, 40)}
    vals = [q * p + r for q in sorted(qs) for r in (-h, 0, 1, h, p - 1) if abs(q * p + r) <= top]
    assert max(vals) > top - p and min(vals) < -(top - p)
    for size in (1, 2, 79, 5000):
        ints = (vals * (size // len(vals) + 1))[:size]
        x = np.array(ints, dtype=dtype)
        assert x.astype(np.int64).tolist() == ints
        out = np.empty_like(x)
        gfp._reduce(x, p, out=out)
        gfp._reduce(x, p)
        want = _centered(ints, p)
        assert x.astype(np.int64).tolist() == want
        assert out.astype(np.int64).tolist() == want


def _panel_branches(monkeypatch) -> list[tuple[int, int, bool]]:
    """Record (first column, width, taken) of every try of the block step."""
    seen = []
    step = gfp._Elimination._block_step

    def spy(self, r, c0, c1):
        taken = step(self, r, c0, c1)
        seen.append((c0, c1 - c0, taken))
        return taken

    monkeypatch.setattr(gfp._Elimination, "_block_step", spy)
    return seen


def _searches(monkeypatch) -> list[tuple[int, float]]:
    """Record (column, leading entry as met) of every one-column pivot search."""
    seen = []
    panel = gfp._Elimination._panel

    def spy(self, r, c0, c1):
        if c1 - c0 == 1:
            seen.append((c0, float(self.a[r, c0])))
        return panel(self, r, c0, c1)

    monkeypatch.setattr(gfp._Elimination, "_panel", spy)
    return seen


def _planted(m: int, n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """A random matrix whose candidate pivot at columns 0, 31, 32 and 64 is p, 2p or -p.

    Row c of each such column is zero left of c, so no earlier pivot updates
    it, and the elimination meets the planted float there unreduced: nonzero
    as a float, 0 mod p.  Returns the floats and the same matrix reduced.
    """
    ints = np.random.default_rng(m * n).integers(0, p, (m, n))
    a = ints.astype(np.float64)
    for c, v in zip((0, 31, 32, 64), (p, 2 * p, -p, p)):
        if c < min(m, n):
            ints[c, :c + 1] = 0
            a[c, :c] = 0.0
            a[c, c] = v
    return a, ints


# block steps on 32 or 16 columns, and ranges split down to single columns
@pytest.mark.parametrize("m", [60, 400])
@pytest.mark.parametrize("n", [32, 130])  # a panel at recursion depth 0, and at depths 2 and 3
def test_pivot_test_reduces_planted_multiples_of_p(m, n, monkeypatch):
    # a search whose leading entry is p, 2p or -p must reduce it before its
    # zero test.  At p = 2 no block step is taken, and every planted entry
    # leads its column's search.  At 32003 a planted row that vanishes left
    # of its column makes B singular wherever it is a spread row there: so
    # at m = 60 every range over columns 0 and 31, and at m = 400 every one
    # over column 31, halves down to that column alone; other planted
    # entries are reduced by the block steps they meet
    for p in (2, P):
        with monkeypatch.context() as patch:
            a, ints = _planted(m, n, p)
            seen, met = _panel_branches(patch), _searches(patch)
            assert gfp._Elimination(a, p).profile() == profile_mod_p_reference(ints, p)
        planted = [c for c in (0, 31, 32, 64) if c < min(m, n)]
        lead = [c for c, v in met if c in planted and v != 0 and v % p == 0]
        if p == 2:
            assert lead == planted and not any(ok for _, _, ok in seen)
        else:
            assert lead == {(60, 32): [], (60, 130): [0, 31], (400, 32): [], (400, 130): [31]}[m, n]


@pytest.mark.parametrize("n", [32, 130])
def test_sampled_block_falls_back_when_its_sample_is_singular(n, monkeypatch):
    # column 5 vanishes on the spread rows of the first panel (rows 32, 43,
    # ..., 373 of 400), so its block B is singular, but not on the others
    m, w = 400, 32
    a = np.random.default_rng(n).integers(0, P, (m, n))
    s = (m - w) // w
    a[list(range(w, w + s * w, s)), 5] = 0
    # the halves of the first panel sample other rows (from rows 16 and
    # 32, at stride 24) and take the block step; so does every later panel
    seen = _panel_branches(monkeypatch)
    ks = _leading_counts(n, np.random.default_rng(1))
    assert rank(a, P, leading=ks) == [rank_mod_p_reference(a[:, :k], P) for k in ks]
    later = [(32, 32, True), (64, 32, True), (96, 32, True), (128, 2, True)] if n > w else []
    assert seen == [(0, 32, False), (0, 16, True), (16, 16, True)] + later


@pytest.mark.parametrize("m", [64, 80, 95])  # from 2w rows to one short of 3w
def test_short_panel_takes_the_block_step_from_the_rows_below_its_leading_ones(m, monkeypatch):
    # rows w..2w-1 form B, at stride 1; the leading rows 0..w-1, dependent
    # on the panel's columns, move down into B's places and still take
    # part in the later panels' pivots
    w, n = 32, 70
    rng = np.random.default_rng(m)
    a = rng.integers(0, P, (m, n))
    a[:w, :w] = a[:w, :4] @ rng.integers(0, P, (4, w)) % P
    seen = _panel_branches(monkeypatch)
    ks = _leading_counts(n, rng)
    assert rank(a, P, leading=ks) == [rank_mod_p_reference(a[:, :k], P) for k in ks]
    assert seen[0] == (0, w, True)
    elim = gfp._Elimination(a.astype(np.float64), P)
    assert elim.profile() == profile_mod_p_reference(a, P)
    assert elim.starts[:2] == [0, w]


@pytest.mark.parametrize("m", [64, 95])
def test_short_panel_falls_back_to_halves_when_its_block_is_singular(m, monkeypatch):
    # column 5 vanishes on rows w..2w-1, B of the short panel, but not on
    # the leading rows, so the panel's columns are independent: its halves
    # sample rows spread over the whole range and each takes the block step
    w, n = 32, 40
    rng = np.random.default_rng(m + 1)
    a = rng.integers(0, P, (m, n))
    a[w:2 * w, 5] = 0
    seen = _panel_branches(monkeypatch)
    ks = _leading_counts(n, rng)
    assert rank(a, P, leading=ks) == [rank_mod_p_reference(a[:, :k], P) for k in ks]
    assert seen[:3] == [(0, w, False), (0, w // 2, True), (w // 2, w // 2, True)]
    elim = gfp._Elimination(a.astype(np.float64), P)
    assert elim.profile()[:w] == list(range(w)) == profile_mod_p_reference(a, P)[:w]
    assert elim.starts[:3] == [0, w // 2, w]


@pytest.mark.parametrize("rows, cols", [(1, 1), (3, 2), (32, 16), (32, 32)])
def test_sampled_block_moves_pivot_rows_from_anywhere_in_the_sample(rows, cols, monkeypatch):
    # a[:rows, :cols] vanishes; the block step moves the spread rows up to
    # rows 0..31 and the leading rows down into their places, where a
    # displaced leading row can still become a later pivot.  a = x @ y has
    # rank 70 < 100, so rows put in the wrong order leave a nonzero Schur
    # complement.
    m, n, k = 300, 100, 70
    rng = np.random.default_rng(rows * cols)
    x, y = rng.integers(0, P, (m, k)), rng.integers(0, P, (k, n))
    x[:rows, :k // 2] = 0
    y[k // 2:, :cols] = 0
    a = x @ y % P
    assert not a[:rows, :cols].any()
    seen = _panel_branches(monkeypatch)
    assert gfp._Elimination(a.astype(np.float64), P).profile() == profile_mod_p_reference(a, P)
    assert seen[0] == (0, 32, True)
    ks = _leading_counts(n, rng)
    assert rank(a, P, leading=ks) == [rank_mod_p_reference(a[:, :j], P) for j in ks]


def _kernel_dtypes(monkeypatch) -> list[np.dtype]:
    """Record the dtype of every matrix the kernel eliminates."""
    seen = []
    init = gfp._Elimination.__init__

    def spy(self, a, p):
        seen.append(a.dtype)
        init(self, a, p)

    monkeypatch.setattr(gfp._Elimination, "__init__", spy)
    return seen


@pytest.mark.parametrize("shape", [(300, 200), (90, 250), (400, 33)])
@pytest.mark.parametrize("deficit", [1, 3, 8])
def test_rank_at_73_matches_the_reference_with_planted_deficits(shape, deficit, monkeypatch):
    # t columns replaced by combinations of the others: the rank is exactly
    # min(m, n - t) on a random matrix, in float32, and so on its transpose
    p = PRIME_LADDER[0]
    m, n = shape
    rng = np.random.default_rng(m * n + deficit)
    a = rng.integers(0, p, shape)
    cols = rng.choice(n, deficit, replace=False)
    keep = np.setdiff1d(np.arange(n), cols)
    a[:, cols] = a[:, keep] @ rng.integers(0, p, (keep.size, deficit)) % p
    seen = _kernel_dtypes(monkeypatch)
    want = rank_mod_p_reference(a, p)
    assert want == min(m, n - deficit) or m < n
    ks = _leading_counts(n, rng)
    assert rank(a, p, leading=ks) == [rank_mod_p_reference(a[:, :k], p) for k in ks]
    assert rank(a, p) == rank(np.ascontiguousarray(a.T), p) == want
    assert rank(a.astype(np.float64), p, overwrite=True) == want
    assert seen == [F32] * 4


def test_dtype_check_at_its_edge():
    # k*h^2 + 2h <= 2^24 takes float32, <= 2^53 float64
    assert _exact_dtype(73, 12945) == F32 and _exact_dtype(73, 12946) == F64
    assert _exact_dtype(1831, 20) == F32 and _exact_dtype(1831, 21) == F64
    assert 20 * 915**2 + 2 * 915 <= 2**24 < 21 * 915**2 + 2 * 915
    assert _exact_dtype(73, 0) == _exact_dtype(2, 10**6) == F32


@pytest.mark.parametrize("k, dtype", [(20, F32), (21, F64)])
@pytest.mark.parametrize("rows", [40, 100])  # halves only, and a full-width block step too
@pytest.mark.parametrize("signs", ["same", "random"])
def test_rank_on_both_sides_of_the_float32_edge(k, dtype, rows, signs, monkeypatch):
    # a = L @ U over p = 1831 (h = 915), with k columns: L unit-lower, U
    # unit-upper of rank k - 1, every other entry of both +-h.  The
    # elimination recovers L's multipliers and U's rows, so its products
    # are h^2; with one sign throughout an entry sums up to k - 1 of them.
    # Every k x k block of a is singular, so the block step on all k
    # columns declines and the range halves
    p = 1831
    h = p // 2
    rng = np.random.default_rng(k * rows + len(signs))

    def entries(shape):
        if signs == "same":
            return np.full(shape, h, dtype=np.int64)
        return h * rng.choice([-1, 1], shape)

    lo = np.tril(entries((rows, k)), -1)
    lo[:k, :k] += np.eye(k, dtype=np.int64)
    up = np.triu(entries((k, k)), 1) + np.eye(k, dtype=np.int64)
    up[k - 1] = 0
    a = lo @ up % p
    seen = _kernel_dtypes(monkeypatch)
    assert rank(a, p) == rank(np.ascontiguousarray(a.T), p) == rank_mod_p_reference(a, p) == k - 1
    assert seen == [dtype, dtype]
    if rows == 40:
        return
    # full rank, the spread rows of the panel's block step at h times a
    # symmetric +-1 matrix: the first power of its block B is B^2, whose
    # diagonal entries are k h^2, the largest sum the bound admits
    s = (rows - k) // k
    sym = np.triu(rng.choice([-1, 1], (k, k)))
    full = entries((rows, k))
    full[k:k + s * k:s] = h * (sym + np.triu(sym, 1).T)
    full %= p
    branches = _panel_branches(monkeypatch)
    assert rank(full, p) == rank_mod_p_reference(full, p) == k
    assert branches == [(0, k, True)] and seen == [dtype] * 3


# Columns where the panels of the recursion meet (31 | 32, 63 | 64, 95 | 96).
_SEAMS = (31, 32, 33, 63, 64, 65, 95, 96, 97)


def _panel_layout(m: int, n: int, p: int, layout: str) -> np.ndarray:
    """A random m x n matrix mod p whose 32-column panels have all, some or no pivots.

    "all": random.  "zero" and "dependent": the columns at the seams are 0,
    or combinations of the columns left of them.  "empty": columns 32..63,
    a whole panel, are 0 and those at 95..97 dependent.
    """
    rng = np.random.default_rng(m * n + p + len(layout))
    a = rng.integers(0, p, (m, n))
    if layout == "zero":
        a[:, [c for c in _SEAMS if c < n]] = 0
    elif layout in ("dependent", "empty"):
        if layout == "empty":
            a[:, 32:64] = 0
        for c in _SEAMS if layout == "dependent" else (95, 96, 97):
            if c < n:
                a[:, c] = a[:, :c] @ rng.integers(0, p, c) % p
    return a


@pytest.mark.parametrize("p", [2, 3, 17, 73, 32003])
@pytest.mark.parametrize("layout", ["all", "zero", "dependent", "empty"])
# too few rows for 32-column steps; 32-column steps, then fewer than 2w rows
# below (54, from row 96 of 150); 32-column steps throughout
@pytest.mark.parametrize("m", [60, 150, 400])
def test_rank_across_panels_with_all_some_or_no_pivots(p, layout, m, monkeypatch):
    # the rank of a[:, :k] is the number of reference pivots below k
    n = 130
    a = _panel_layout(m, n, p, layout)
    want = profile_mod_p_reference(a, p)
    seen = _panel_branches(monkeypatch)
    ks = _leading_counts(n, np.random.default_rng(m + p))
    assert rank(a, p, leading=ks) == [sum(c < k for c in want) for k in ks]
    # a 32-column panel takes the block step only over 2w rows and for
    # p > 32, and every one of them has a dependent column in the "zero"
    # and "dependent" layouts; columns 128..129 are a 2-column panel.  A
    # range that declines splits in halves, so every step taken is on w < p
    # columns from a multiple of w, and none is taken at p = 2
    assert any(ok for _, w, ok in seen if w == 32) == (
        m > 60 and p > 32 and layout in ("all", "empty"))
    taken = [(c0, w) for c0, w, ok in seen if ok]
    assert all(w < p and c0 % w == 0 and w in (32, 16, 8, 4, 2) for c0, w in taken)
    assert bool(taken) == (p > 2)
    assert rank(np.ascontiguousarray(a.T), p) == len(want)


def _echelon_product(k: int, n: int, pivots: list[int], p: int, rng) -> np.ndarray:
    """L @ U mod p: L k x k unit-lower, U k x n in echelon form on the given pivot columns.

    Every other entry of L and of U right of its pivot is +-h, so the
    elimination recovers multipliers and rows made of the largest residues.
    """
    h = p // 2
    lo = np.tril(h * rng.choice([-1, 1], (k, k)), -1) + np.eye(k, dtype=np.int64)
    up = np.zeros((k, n), dtype=np.int64)
    for i, c in enumerate(pivots):
        up[i, c] = 1
        up[i, c + 1:] = h * rng.choice([-1, 1], n - c - 1)
    return lo @ up % p


@pytest.mark.parametrize("k, dtype", [(20, F32), (21, F64)])
def test_triangular_solve_on_both_sides_of_the_float32_edge(k, dtype, monkeypatch):
    # p = 1831 ranks k = 20 rows in float32 and 21 in float64 (see
    # test_dtype_check_at_its_edge).  The pivots fall half in panel 0 and
    # half in panel 1, so the solve for columns 64.. splits at the start of
    # panel 1 and multiplies each half by its panel's inverse
    p = 1831
    rng = np.random.default_rng(k)
    pivots = sorted(rng.choice(32, k // 2, replace=False).tolist()
                    + (32 + rng.choice(32, k - k // 2, replace=False)).tolist())
    a = _echelon_product(k, 100, pivots, p, rng)
    seen = _kernel_dtypes(monkeypatch)
    assert gfp._Elimination(a.astype(dtype), p).profile() == pivots == profile_mod_p_reference(a, p)
    ks = _leading_counts(100, rng)
    assert rank(a, p, leading=ks) == [rank_mod_p_reference(a[:, :j], p) for j in ks]
    assert seen == [dtype, dtype]


@pytest.mark.parametrize("p", [2, 73, 32003])
@pytest.mark.parametrize("layout", ["all", "zero", "empty"])
@pytest.mark.parametrize("m", [60, 400])
def test_leaves_start_runs_of_consecutive_pivots(p, layout, m):
    # one start per leaf with a pivot, its first pivot row: a leaf's pivot
    # rows and columns are consecutive, and its block of L is I, so its
    # block of U, B after a block step and the pivot after a search, has
    # full rank mod p.  At p = 2 every leaf is a one-column search
    a = _panel_layout(m, 130, p, layout)
    elim = gfp._Elimination(a.astype(_exact_dtype(p, min(a.shape))), p)
    piv = elim.profile()
    assert piv == profile_mod_p_reference(a, p)
    ends = elim.starts[1:] + [len(piv)]
    sizes = [end - r for r, end in zip(elim.starts, ends)]
    assert elim.starts[:1] == [0] and all(k > 0 for k in sizes)
    assert all(k == 1 for k in sizes) == (p == 2)
    for r, k in zip(elim.starts, sizes):
        assert piv[r:r + k] == list(range(piv[r], piv[r] + k)) and k in (1, 2, 4, 8, 16, 32)
        block = elim.a[r:r + k, piv[r]:piv[r] + k].astype(np.int64)
        assert rank_mod_p_reference(block, p) == k


@pytest.mark.parametrize("p", [37, 73, 1831, 32003])
@pytest.mark.parametrize("w", [1, 2, 7, 31, 32])
def test_block_inverse_by_the_characteristic_polynomial(w, p):
    # in the dtype a w-column panel takes at p: B B^-1 = I mod p with every
    # entry of B^-1 in [-h, h]; a block with a row that combines the
    # others, and so a zero determinant, has no inverse
    h = p // 2
    rng = np.random.default_rng(w * p)
    dtype = _exact_dtype(p, w)
    for _ in range(3):
        b = rng.integers(-h, h + 1, (w, w))
        if rank_mod_p_reference(b, p) == w:
            break
    assert rank_mod_p_reference(b, p) == w
    inv = gfp._inverse_by_charpoly(b.astype(dtype), p)
    assert inv.dtype == dtype and inv.shape == (w, w)
    assert np.abs(inv).max() <= h
    assert (b @ inv.astype(np.int64) % p == np.eye(w, dtype=np.int64)).all()
    b[-1] = rng.integers(0, p, w - 1) @ b[:-1]
    b[-1] = (b[-1] + h) % p - h
    assert rank_mod_p_reference(b, p) == w - 1
    assert gfp._inverse_by_charpoly(b.astype(dtype), p) is None


def test_block_inverse_that_fails_its_check_raises(monkeypatch):
    # B B^-1 = I mod p certifies the panel's pivots: a wrong Cayley-Hamilton
    # sum is a fault, raised, not taken for a singular block
    p = PRIME_LADDER[0]
    b = np.random.default_rng(5).integers(-36, 37, (32, 32)).astype(np.float32)
    assert gfp._inverse_by_charpoly(b, p) is not None
    tensordot = np.tensordot
    monkeypatch.setattr(gfp.np, "tensordot", lambda *args, **kw: tensordot(*args, **kw) + 1)
    with pytest.raises(ArithmeticError, match="B B\\^-1 = I mod 73"):
        gfp._inverse_by_charpoly(b, p)


def test_block_steps_reduce_the_rows_they_multiply_at_the_float32_edge(monkeypatch):
    # p = 719 ranks 128 columns in float32 with little room to spare.  Panel
    # 1 meets rows that absorbed panel 0's 32 products; its GEMM with B^-1
    # is exact only on those rows reduced, and wrong multipliers leave the
    # columns planted dependent in panel 3 independent
    p, m, n = 719, 400, 128
    assert _exact_dtype(p, n) == F32 and _exact_dtype(p, 131) == F64
    rng = np.random.default_rng(p)
    a = rng.integers(0, p, (m, n))
    for c in (100, 127):
        a[:, c] = a[:, :c] @ rng.integers(0, p, c) % p
    seen = _kernel_dtypes(monkeypatch)
    branches = _panel_branches(monkeypatch)
    ks = _leading_counts(n, rng)
    assert rank(a, p, leading=ks) == [rank_mod_p_reference(a[:, :k], p) for k in ks]
    assert ks[-1] == n and rank(a, p) == n - 2
    assert seen == [F32] * 2 and (32, 32, True) in branches


@pytest.mark.parametrize("p", [2, 3, 17, 31, 37])
def test_block_step_needs_the_panel_width_below_p(p, monkeypatch):
    # Newton's identities divide by 1..w, so a range of w >= p columns
    # splits, and the halving of a 32-column panel reaches the widest w < p
    # of 16, 8, 4 and 2, or single columns at p = 2.  At p = 37 the first
    # panel splits too, as its spread rows (32, 43, ..., 373 of 400) are
    # singular, here through column 5
    m, n, w = 400, 130, 32
    a = np.random.default_rng(p).integers(0, p, (m, n))
    s = (m - w) // w
    a[list(range(w, w + s * w, s)), 5] = 0
    seen, met = _panel_branches(monkeypatch), _searches(monkeypatch)
    elim = gfp._Elimination(a.astype(_exact_dtype(p, n)), p)
    assert elim.profile() == profile_mod_p_reference(a, p)
    assert seen[0] == (0, w, False)
    widths = {width for _, width, ok in seen if ok}
    assert all(width < p for width in widths)
    assert max(widths, default=1) == {2: 1, 3: 2, 17: 16, 31: 16, 37: w}[p]
    assert (len(met) == n) == (p == 2)


def test_leading_ranks_of_a_d14_family_head():
    # the largest d = 14 family, ranked as the campaign's attempt 1 ranks it
    from fatpoints import interpolation
    from fatpoints.enumeration import algorithm_b_cases
    from fatpoints.model import conditions_count

    families: dict = {}
    for case in algorithm_b_cases(14):
        families.setdefault((case.q, case.x, case.y), []).append(case.to_system())
    specs = max(families.values(), key=lambda fam: (len(fam), fam[-1].conditions_total))
    p = PRIME_LADDER[0]
    assignment = interpolation._greedy_assignment(specs[-1])
    mat, _ = interpolation._transposed_matrix(specs[-1], p, 0, assignment)
    pinned = sum(conditions_count(mult) for _, mult in assignment)
    rows = [spec.conditions_total - pinned for spec in specs]
    assert len(rows) > 1 and mat.shape[1] == rows[-1] > 400
    ks = rows + [k for k in _SEAMS if k < rows[0]]
    assert rank(mat, p, leading=ks) == [rank(mat[:, :k], p) for k in ks]


# ---------------------------------------------------------------------------
# the two update paths: numpy's own gemm in place, and c -= l @ u
# ---------------------------------------------------------------------------

def _no_gemm(monkeypatch):
    """Send every update through c -= l @ u, as where numpy exports no gemm."""
    monkeypatch.setattr(gfp, "_gemm", lambda dtype: None)


def _without_gemm(test):
    """test, run with the updates on c -= l @ u; it keeps test's parameters and assertions.

    test itself runs on the gemm numpy links, where it exports one.
    """
    @functools.wraps(test)
    def fallback(**kwargs):
        _no_gemm(kwargs["monkeypatch"])
        test(**kwargs)

    return fallback


test_rank_on_both_sides_of_the_float32_edge_without_gemm = _without_gemm(
    test_rank_on_both_sides_of_the_float32_edge)
test_triangular_solve_on_both_sides_of_the_float32_edge_without_gemm = _without_gemm(
    test_triangular_solve_on_both_sides_of_the_float32_edge)
test_rank_across_panels_with_all_some_or_no_pivots_without_gemm = _without_gemm(
    test_rank_across_panels_with_all_some_or_no_pivots)
test_rank_at_73_matches_the_reference_with_planted_deficits_without_gemm = _without_gemm(
    test_rank_at_73_matches_the_reference_with_planted_deficits)


def _exports_gemm() -> bool:
    return all(gfp._gemm_symbol(dtype) is not None for dtype in (F32, F64))


needs_gemm = pytest.mark.skipif(not _exports_gemm(), reason="numpy's BLAS exports no cblas gemm")


@needs_gemm
def test_numpy_gemm_binds_and_passes_its_self_check():
    assert gfp._gemm(F32) is not None and gfp._gemm(F64) is not None


def _gemm_calls(monkeypatch) -> list[tuple[bool, bool]]:
    """Record (l column-major, done in place) of every call of the bound gemm."""
    seen = []
    bound = gfp._gemm

    def spy(dtype):
        sub = bound(dtype)

        def call(c, l, u):
            done = sub(c, l, u)
            seen.append((l.strides[0] == l.itemsize != l.strides[1], done))
            return done

        return None if sub is None else call

    monkeypatch.setattr(gfp, "_gemm", spy)
    return seen


@pytest.mark.parametrize("path", ["gemm", "fallback"])
@pytest.mark.parametrize("p, dtype", [(73, F32), (P, F64)])
def test_updates_by_column_major_gathers_match_the_reference(p, dtype, path, monkeypatch):
    # column 1 of every 32-column panel combines the columns left of it, so
    # the left half of every range above the single columns holds a
    # non-pivot column between two pivots: its multipliers are gathered by
    # _pivot_block, column-major, and the update takes them transposed
    m, n = 300, 200
    rng = np.random.default_rng(p)
    a = rng.integers(0, p, (m, n))
    for c in range(1, n, 32):
        a[:, c] = a[:, :c] @ rng.integers(0, p, c) % p
    if path == "gemm":
        if not _exports_gemm():
            pytest.skip("numpy's BLAS exports no cblas gemm")
        seen = _gemm_calls(monkeypatch)
    else:
        _no_gemm(monkeypatch)
    want = profile_mod_p_reference(a, p)
    assert len(want) == n - len(range(1, n, 32))
    ks = _leading_counts(n, rng)
    assert rank(a, p, leading=ks) == [sum(c < k for c in want) for k in ks]
    elim = gfp._Elimination(a.astype(dtype), p)
    assert _exact_dtype(p, n) == dtype and elim.profile() == want
    if path == "gemm":
        # about 100 of some 115 updates; most others have one multiplier column
        assert seen and all(done for _, done in seen)
        assert 5 * sum(gathered for gathered, _ in seen) >= 4 * len(seen)


def test_operands_without_a_unit_stride_take_the_product(monkeypatch):
    # c = a[:, ::2] and the like: the bound gemm declines, with c unchanged,
    # and _sub_product subtracts numpy's product instead
    rng = np.random.default_rng(3)
    base = rng.integers(-36, 37, (3, 20, 20)).astype(np.float32)
    for c, l, u in ((base[0, :6, ::2], base[1, :6, :4], base[2, :4, :10]),
                    (base[0, :6, :10], base[1, :6, ::5], base[2, :4, :10]),
                    (base[0, :6, :10], base[1, :6, :4], base[2, :4, ::2])):
        want = c - l @ u
        work = c.copy() if c.flags.c_contiguous else c
        gemm = gfp._gemm(F32)
        if gemm is not None:
            before = c.copy()
            assert not gemm(c, l, u) and np.array_equal(c, before)
        gfp._sub_product(work, l, u)
        assert np.array_equal(work, want)


@pytest.mark.parametrize("fault", ["silent", "beta0", "raises"])
def test_a_gemm_that_fails_its_self_check_is_not_used(fault, monkeypatch):
    # silent returns with c untouched, as OpenBLAS does on an illegal
    # parameter; beta0 overwrites c with -l @ u; raises is refused by ctypes
    real = gfp._gemm_symbol(F32)
    if fault == "beta0":
        if real is None:
            pytest.skip("numpy's BLAS exports no cblas gemm")
        gfp._bind_gemm(*real, F32)  # declares real's argument types
    calls = []

    def fake(*args):
        calls.append(args)
        if fault == "raises":
            raise OSError("exception: access violation")
        if fault == "beta0":
            real[1](*args[:11], 0.0, *args[12:])

    monkeypatch.setattr(gfp, "_gemm_symbol", lambda dtype: ("cblas_sgemm64_", fake))
    monkeypatch.setattr(gfp, "_gemm", functools.lru_cache(maxsize=None)(gfp._gemm.__wrapped__))
    assert gfp._gemm(F32) is None and calls
    a = _panel_layout(150, 130, 73, "dependent")
    assert rank(a, 73) == len(profile_mod_p_reference(a, 73))


@needs_gemm
def test_ranking_in_place_keeps_numpy_temporaries_below_a_tenth_of_the_matrix():
    # numpy reports its arrays' data to tracemalloc.  The product of every
    # update used to be a temporary as large as its target, a quarter of
    # the matrix at the top split
    a = np.random.default_rng(16).integers(0, 73, (1600, 1600)).astype(np.float32)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert rank(a, 73, overwrite=True) == 1600
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < a.nbytes / 10
