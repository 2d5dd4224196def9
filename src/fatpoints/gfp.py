"""Exact prime-field arithmetic and dense rank computation.

The rank kernel is recursive Gaussian elimination over F_p in the style of
FFLAS-FFPACK (Dumas, Giorgi & Pernet, "Dense linear algebra over word-size
prime fields", ACM TOMS 35(3), 2008, arXiv:cs/0601133; the column recursion
follows Dumas, Pernet & Sultan, "Simultaneous computation of the row and
column rank profiles", ISSAC 2013, arXiv:1301.4438).  On columns [c0, c1)
and rows r.. it

1. eliminates the left half recursively (row swaps move whole rows, the
   multipliers are stored in the pivot columns),
2. solves the k1 pivot rows of the right half against the unit-lower L11
   taken from those pivot columns (a recursive TRSM),
3. updates the rows below with one GEMM, C -= L21 @ U12, and
4. recurses on the right half from row r + k1.

Columns narrower than a base width are eliminated one column at a time, on a
transposed copy so that every column is contiguous.  Nearly all flops run in
the GEMMs of steps 2 and 3, at BLAS speed.

Entries are integer-valued float64 and reductions mod p are delayed: an
operand of a product (a pivot row, a multiplier, a solved U row, a column
scanned for its pivot) is reduced into [0, p) when it is produced, and no
other entry is ever reduced.  An entry absorbs at most one product per
pivot, and a product of two reduced operands is below p^2, so every entry
of an m x n matrix keeps

    |entry| < min(m, n) * p^2 + p.

rank therefore admits a matrix only when min(m, n) <= _safe_block(p) =
floor((2^53 - p) / p^2); then the bound is at most 2^53 and every float64
operation is exact.  _safe_block is 8 794 443 at p = 32003 and 821 213 at
p = 104729, more than any matrix width of the degree sweep; primes above
about 9.5e7 admit no non-empty matrix.

The pivot columns come out in increasing order and form the column rank
profile: column j is a pivot exactly when it is not in the span of the
columns before it.  So the one elimination also gives the rank of every
leading column block, mat[:, :k], as the number of pivots below k.  On the
transpose of a matrix these are the ranks of its leading row blocks.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional, Sequence

import numpy as np

DEFAULT_PRIME = 32003
# Escalation ladder for retry attempts; all > 40 so no derivative
# coefficient of the systems in scope vanishes spuriously.
PRIME_LADDER = (32003, 65537, 104729)

# float64 holds integers exactly up to 2**53.
_EXACT_LIMIT = float(2**53)

# Widest column range eliminated column by column; wider ranges recurse.
_BASE_WIDTH = 32
# Below this many entries one np.remainder call beats the floor-based
# reduction, whose cost is mostly per-call overhead on short vectors.
_SHORT_REDUCE = 256
# Entries per chunk when _prepare validates and reduces its input.
_PREPARE_CHUNK = 1 << 16


def is_prime(n: int) -> bool:
    """Primality by trial division; adequate for moduli below 2**31."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def next_ladder_prime(p: int) -> int:
    """First ladder entry above p, or p itself when already at the top."""
    for q in PRIME_LADDER:
        if q > p:
            return q
    return p


def _safe_block(p: int) -> int:
    """Widest min(rows, columns) that p admits: B*p*p + p <= 2**53."""
    return (2**53 - p) // (p * p)


def _reduce(x: np.ndarray, fp: float):
    """In-place exact reduction of integer-valued float64 data into [0, p)."""
    if x.size < _SHORT_REDUCE:
        np.remainder(x, fp, out=x)
        return
    q = x * (1.0 / fp)
    np.floor(q, out=q)
    q *= fp
    x -= q  # now in [-p, 2p): the rounded quotient can be off by one
    x[x < 0.0] += fp
    x[x >= fp] -= fp


def _pivot_block(a: np.ndarray, rows: slice, piv: list[int]) -> np.ndarray:
    """a[rows, piv]: a view when the pivot columns are contiguous, else a copy."""
    if piv[-1] - piv[0] + 1 == len(piv):
        return a[rows, piv[0]:piv[-1] + 1]
    return a[rows][:, piv]


class _Elimination:
    """One recursive elimination of a reduced float64 matrix, in place."""

    def __init__(self, a: np.ndarray, p: int):
        self.a = a
        self.p = p
        self.fp = float(p)

    def profile(self) -> list[int]:
        """The column rank profile, ascending."""
        return self._eliminate(0, 0, self.a.shape[1])

    def _trsm(self, lo: np.ndarray, x: np.ndarray):
        """x := L^-1 x for the unit-lower L whose strict lower part is lo's; reduces x."""
        k = x.shape[0]
        if k > _BASE_WIDTH:
            t = k // 2
            self._trsm(lo[:t, :t], x[:t])
            x[t:] -= lo[t:, :t] @ x[:t]
            self._trsm(lo[t:, t:], x[t:])
            return
        _reduce(x[0], self.fp)
        for i in range(1, k):
            x[i] -= lo[i, :i] @ x[:i]
            _reduce(x[i], self.fp)

    def _panel(self, r: int, c0: int, c1: int) -> list[int]:
        """Column-by-column elimination of a[r:, c0:c1]; returns the pivot columns."""
        a, p, fp = self.a, self.p, self.fp
        m = a.shape[0]
        t = a[r:, c0:c1].T.copy()  # row jj of t is column c0 + jj of a
        w = c1 - c0
        piv: list[int] = []
        k = 0
        for jj in range(w):
            col = t[jj, k:]
            _reduce(col, fp)
            nz = np.flatnonzero(col)
            if nz.size == 0:
                continue
            i = k + int(nz[0])
            if i != k:
                t[:, [k, i]] = t[:, [i, k]]
                a[[r + k, r + i]] = a[[r + i, r + k]]  # a[r:, c0:c1] is rewritten below
            piv.append(c0 + jj)
            k += 1
            if r + k == m:
                break
            f = t[jj, k:]  # multipliers, stored in the pivot column
            f *= float(pow(int(t[jj, k - 1]), -1, p))
            _reduce(f, fp)
            if jj + 1 < w:
                prow = t[jj + 1:, k - 1]
                _reduce(prow, fp)
                t[jj + 1:, k:] -= prow[:, None] * f
        a[r:, c0:c1] = t.T
        return piv

    def _eliminate(self, r: int, c0: int, c1: int) -> list[int]:
        """Eliminate a[r:, c0:c1]; pivots land on rows r, r+1, ...; returns their columns."""
        a = self.a
        m = a.shape[0]
        if r == m:
            return []
        if c1 - c0 <= _BASE_WIDTH:
            return self._panel(r, c0, c1)
        blocks = -(-(c1 - c0) // _BASE_WIDTH)
        h = c0 + (blocks // 2) * _BASE_WIDTH
        piv = self._eliminate(r, c0, h)
        k1 = len(piv)
        if k1:
            top = a[r:r + k1, h:c1]
            self._trsm(_pivot_block(a, slice(r, r + k1), piv), top)
            if r + k1 < m:
                a[r + k1:, h:c1] -= _pivot_block(a, slice(r + k1, m), piv) @ top
        return piv + self._eliminate(r + k1, h, c1)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def _prepare(mat, p: int, overwrite: bool) -> np.ndarray:
    """Validate mat and return it reduced into [0, p) as float64.

    One pass over chunks of rows, with no temporary larger than a chunk.
    With overwrite=True a float64 C-contiguous input is reduced in place,
    and rows before a rejected chunk are then already reduced.
    """
    if p >= 2**31:
        raise ValueError(f"modulus must be below 2**31, got {p}")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    a = np.asarray(mat)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    floating = np.issubdtype(a.dtype, np.floating)
    if floating and overwrite and a.dtype == np.float64 and a.flags.c_contiguous:
        work = a
    else:
        work = np.empty(a.shape, dtype=np.float64)
    fp = float(p)
    step = max(1, _PREPARE_CHUNK // max(1, a.shape[1]))
    for i in range(0, a.shape[0], step):
        if not floating:
            work[i:i + step] = np.mod(a[i:i + step].astype(np.int64), p)
            continue
        chunk = work[i:i + step]
        if work is not a:
            chunk[...] = a[i:i + step]
        if not np.isfinite(chunk).all():
            raise ValueError("matrix entries must be finite")
        big = max(chunk.max(initial=0.0), -chunk.min(initial=0.0))
        if big >= _EXACT_LIMIT:
            raise ValueError("float entries exceed the exact integer range of float64")
        if (np.floor(chunk) != chunk).any():
            raise ValueError("float entries must be integer-valued")
        if big + fp > _EXACT_LIMIT:  # _reduce's q * p could leave the exact range
            np.remainder(chunk, fp, out=chunk)
        else:
            _reduce(chunk, fp)
    return work


def rank(
    mat,
    p: int = DEFAULT_PRIME,
    *,
    overwrite: bool = False,
    leading: Optional[Sequence[int]] = None,
):
    """Exact rank of a matrix over F_p.

    Entries are reduced mod p on entry; any integer dtype (or integer-valued
    float) is accepted.  An m x n matrix is refused unless
    min(m, n) * p^2 + p <= 2^53, the bound under which float64 elimination
    is exact.  With overwrite=True a float64 C-contiguous input is consumed
    in place.

    With leading, a sequence of column counts k, the result is instead the
    list of ranks of mat[:, :k], read off the column rank profile of the
    same single elimination.
    """
    a = _prepare(mat, p, overwrite)
    m, n = a.shape
    if leading is not None:
        leading = [int(k) for k in leading]
        if any(not 0 <= k <= n for k in leading):
            raise ValueError(f"leading column counts must lie in [0, {n}], got {leading}")
    piv: list[int] = []
    if m and n:
        widest = _safe_block(p)
        if min(m, n) > widest:
            raise ValueError(
                f"a {m} x {n} matrix is too wide for exact float64 elimination:"
                f" p = {p} admits min(rows, columns) <= {widest}"
            )
        piv = _Elimination(a, p).profile()
    if leading is None:
        return len(piv)
    return [bisect_left(piv, k) for k in leading]
