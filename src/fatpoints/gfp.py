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

A range of at most _BASE_WIDTH columns is a panel, and a panel of w columns
over 3w rows or more first seeks its pivots in a sample: its w leading
rows and w rows spread evenly below them.  The column loop runs on the
sample stacked over a w x w identity; when every pivot falls in the sample,
the identity's multipliers are U^-1, and those of every other row are one
GEMM, A2 @ U^-1.  Otherwise, and on a shorter panel, the column loop runs on
the whole panel, one column at a time, on a transposed copy so that every
column is contiguous.  High derivatives vanish on runs of monomials, so the
leading rows of an interpolation matrix are often dependent; rows spread
over the panel rarely are.  Nearly all flops run in the GEMMs of steps 2 and
3, at BLAS speed.

Entries are integer-valued float64 and reductions mod p are delayed: an
operand of a product (a pivot row, a multiplier, a solved U row, a column
scanned for its pivot) is reduced into [0, p) when it is produced, and no
other entry is ever reduced.  An entry absorbs at most one product per
pivot, and a product of two reduced operands is below p^2, so every entry
of an m x n matrix keeps

    |entry| < min(m, n) * p^2 + p.

A sampled panel's multipliers are sums of w <= min(m, n) such products
before they are reduced, within the same bound.  A reduction takes four
passes, x - floor(x / p) * p, and is exact on every entry so bounded (see
_reduce).

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


def _reduce(x: np.ndarray, fp: float, out: Optional[np.ndarray] = None):
    """Exact reduction of integer-valued float64 data into [0, p), into out (default x).

    x - floor(x / p) * p in four passes.  floor(fl(x / p)) = floor(x / p) for
    every integer |x| < 2**53, and the result is exact whenever the product
    floor(x / p) * p is, that is when the least multiple of p not below |x|
    is at most 2**53: for |x| <= 2**53 - p, and for every entry the kernel
    admits (|x| < B*p*p + p, itself a multiple of p, with B = _safe_block(p)).
    """
    if out is None:
        out = x
    if x.size < _SHORT_REDUCE:
        np.remainder(x, fp, out=out)
        return
    q = x / fp
    np.floor(q, out=q)
    q *= fp
    np.subtract(x, q, out=out)


def _pivot_block(a: np.ndarray, rows: slice, piv: list[int]) -> np.ndarray:
    """a[rows, piv]: a view when the pivot columns are contiguous, else a copy."""
    if piv[-1] - piv[0] + 1 == len(piv):
        return a[rows, piv[0]:piv[-1] + 1]
    return a[rows][:, piv]


def _columns(t: np.ndarray, p: int) -> tuple[list[int], list[tuple[int, int]]]:
    """Column-by-column elimination of a transposed panel t, in place.

    Row jj of t is a column of the panel and column i of t one of its rows.
    Returns the pivot indices jj and the row swaps (k, i) made, in order, for
    the caller to repeat on the rest of those rows.  The leading entry of a
    reduced column is tested as a scalar, and only a 0 there costs a search.
    The rank-1 updates use the reduced column and the pivot row scaled by the
    pivot's inverse; the pivot columns are scaled into multipliers at the
    end, in one pass.  That also scales the upper part of the pivot rows,
    which nothing reads: the caller needs only the multipliers.
    """
    fp = float(p)
    w, h = t.shape
    piv: list[int] = []
    invs: list[float] = []
    swaps: list[tuple[int, int]] = []
    k = 0
    for jj in range(w):
        col = t[jj, k:]
        _reduce(col, fp)
        if col[0] == 0.0:
            nz = np.flatnonzero(col)
            if nz.size == 0:
                continue
            i = k + int(nz[0])
            t[:, [k, i]] = t[:, [i, k]]
            swaps.append((k, i))
        inv = float(pow(int(col[0]), -1, p))
        piv.append(jj)
        invs.append(inv)
        k += 1
        if k == h:
            break
        if jj + 1 < w:
            prow = t[jj + 1:, k - 1]
            _reduce(prow, fp)
            g = prow * inv
            _reduce(g, fp)
            t[jj + 1:, k:] -= g[:, None] * col[1:]
    if piv:
        rows = t[piv]
        rows *= np.array(invs)[:, None]
        _reduce(rows, fp)
        t[piv] = rows
    return piv, swaps


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

    def _swap_rows(self, r: int, swaps: list[tuple[int, int]]):
        a = self.a
        for k, i in swaps:
            a[[r + k, r + i]] = a[[r + i, r + k]]

    def _panel(self, r: int, c0: int, c1: int) -> list[int]:
        """Eliminate a[r:, c0:c1], at most _BASE_WIDTH columns; returns the pivot columns."""
        a = self.a
        if self._sampled_block(r, c0, c1):
            return list(range(c0, c1))
        t = a[r:, c0:c1].T.copy()  # row jj of t is column c0 + jj of a
        piv, swaps = _columns(t, self.p)
        self._swap_rows(r, swaps)
        a[r:, c0:c1] = t.T
        return [c0 + jj for jj in piv]

    def _sampled_block(self, r: int, c0: int, c1: int) -> bool:
        """Eliminate a[r:, c0:c1] with every pivot taken from a sample of its rows.

        The sample is the w leading rows and w rows at stride s >= 2 below
        them.  The column loop runs on it stacked over a w x w identity.
        When every pivot falls in the sample (P^T A1 = L1 U on its pivot rows
        A1), the identity's multipliers are U^-1, and those of every other
        row x are x U^-1: one GEMM instead of a pass over all rows per
        column.  Returns False, with a unchanged, when the panel has fewer
        than 3w rows or a pivot falls in the identity.
        """
        a, fp = self.a, self.fp
        w = c1 - c0
        hb = 2 * w
        s = (a.shape[0] - r - w) // w
        if s < 2:
            return False
        sample = np.concatenate([np.arange(r, r + w), np.arange(r + w, r + w + s * w, s)])
        trial = np.zeros((w, hb + w))
        trial[:, :hb] = a[sample, c0:c1].T
        trial[:, hb:] = np.eye(w)
        _, local = _columns(trial, self.p)
        if any(i >= hb for _, i in local):
            return False
        # a pivot position k < w is sampled row r + k, so the trial's swaps
        # repeated on the sampled rows put its pivot rows on r, r+1, ...
        self._swap_rows(r, [(k, int(sample[i]) - r) for k, i in local])
        a[r:r + w, c0:c1] = trial[:, :w].T
        below = a[r + w:, c0:c1]
        _reduce(below, fp)
        _reduce(below @ trial[:, hb:].T, fp, out=below)
        return True

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
