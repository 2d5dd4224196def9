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
   taken from those pivot columns: a TRSM that splits at the first pivot
   rows of the leaves below, where L's diagonal blocks are I, so a leaf's
   rows are only reduced,
3. updates the rows below with one GEMM, C -= L21 @ U12, and
4. recurses on the right half from row r + k1.

A wider range splits at a multiple of _BASE_WIDTH columns.  A range of at
most _BASE_WIDTH columns is first tried as a leaf (_Elimination._panel),
and splits in halves when the leaf declines, down to single columns.  A
leaf of w >= 2 columns is a block step: w rows spread evenly below its w
leading rows (the next w, on fewer than 3w rows) form a block B, inverted
through its characteristic polynomial in log2(w) batched products
(_inverse_by_charpoly).  When B is invertible every column is a pivot:
B's rows move up, L's diagonal block is I and U's is B, and the
multipliers of every other row are one GEMM, A2 @ B^-1.  The step declines
when B is singular, on fewer than 2w rows, and for w >= p.  A leaf of one
column is a pivot search: the reduced column's first nonzero entry moves
up, and its centered inverse scales the entries below it into
multipliers.  High derivatives vanish on runs of monomials, so the leading
rows of an interpolation matrix are often dependent; rows spread over the
range rarely are.  Nearly all flops run in the GEMMs of steps 2 and 3, at
BLAS speed.

Entries are integer-valued floats holding centered residues, and reductions
mod p are delayed.  With h = (p - 1)/2 (h = 1 at p = 2), a reduction maps x
to x - floor((x + h) / p) * p, into [-h, p - 1 - h], which is [-h, h] for odd
p.  An operand of a product (a pivot row, a multiplier, a solved U row, a
column searched for its pivot, a block B and its powers, B^-1) is reduced
when it is produced, and no other entry is ever reduced.  An entry absorbs
at most one product per pivot, and a product of two reduced operands is at
most h^2, so every entry of an m x n matrix with k = min(m, n) keeps

    |entry| <= k * h^2 + h.

Every other sum the kernel forms adds at most k products of two reduced
operands, plus at most one reduced entry, so it stays within the same
bound.  A block step's sums add w <= k products: each doubling product of
B's powers, the Cayley-Hamilton sum of its inverse, the check B B^-1 = I
and the multipliers A2 @ B^-1, whose rows are reduced first.  A pivot
search forms one product of reduced operands per multiplier, the entry
times the pivot's inverse, at most h^2.

The reduction is exact on every integer x with |x| + h <= L, where
L = 2^24 in float32 and 2^53 in float64: the dtype holds every integer up
to L (see _reduce).  So one check on the shape picks the dtype
(_exact_dtype):

    k * h^2 + 2h <= 2^24  ->  float32,
    k * h^2 + 2h <= 2^53  ->  float64,
    otherwise the matrix is refused.

Float32 GEMMs run at about twice the float64 rate.  At p = 73 (h = 36)
float32 admits k <= 12 945, more than any matrix of the degree sweep (the
widest, at d = 40, has k = 11 461); at p = 32003 float64 admits
k <= 35 179 974, and primes above about 1.9e8 admit no non-empty matrix.
This is the balanced representation of FFLAS-FFPACK.

The pivot columns come out in increasing order and form the column rank
profile: column j is a pivot exactly when it is not in the span of the
columns before it.  So the one elimination also gives the rank of every
leading column block, mat[:, :k], as the number of pivots below k.  On the
transpose of a matrix these are the ranks of its leading row blocks.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

# The primes of the rank checks (interpolation.attempt_schedule): every
# attempt runs at the first but the last, which escalates to the second.
# Both > 40 so no derivative coefficient of the systems in scope vanishes
# spuriously.  Every matrix of the degree sweep is ranked in float32 at the
# first.
PRIME_LADDER = (73, 32003)

# The kernel dtypes in the order they are tried, each with the bound L up to
# which it holds every integer exactly.
_EXACT_LIMIT = {np.dtype(np.float32): 2**24, np.dtype(np.float64): 2**53}

# Widest column range tried as a leaf (_Elimination._panel); wider ranges split.
_BASE_WIDTH = 32
# Below this many entries (x + h) mod p - h, three in-place calls, beats the
# five-pass floor-based reduction, whose cost on short vectors is mostly
# per-call overhead: the crossover that benchmarks/bench_rank.py --reduce
# measured in both dtypes.
_SHORT_REDUCE = 80
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


def _exact_dtype(p: int, k: int) -> Optional[np.dtype]:
    """The dtype that ranks a matrix with min(rows, columns) = k over F_p exactly, or None.

    The first of float32 and float64 with k*h^2 + 2h <= L, h = p // 2: every
    entry stays within k*h^2 + h, and _reduce is exact while |x| + h <= L.
    """
    h = p // 2
    need = k * h * h + 2 * h
    return next((dtype for dtype, limit in _EXACT_LIMIT.items() if need <= limit), None)


def _reduce(x: np.ndarray, p: int, out: Optional[np.ndarray] = None):
    """Exact centered reduction of integer-valued float data into [-h, p-1-h], h = p // 2.

    Writes into out (default x).  x - floor((x + h) / p) * p in five passes,
    or (x + h) mod p - h in three when x is short.  Both are exact on every
    integer x with |x| + h <= L, L = 2**24 in float32 and 2**53 in float64:
    y = x + h is exact, and floor(fl(y / p)) = floor(y / p) because the
    rounding error of y / p is below |y| / (p L) <= 1 / p, the least distance
    from a non-integral y / p to an integer above it.  The product
    q = floor(y / p) * p is exact, as |q| <= |x| + h: q lies in (y - p, y].
    The remainder and the last subtraction are exact on integers.
    """
    if out is None:
        out = x
    h = p >> 1
    if x.size < _SHORT_REDUCE:
        np.add(x, h, out=out)
        np.remainder(out, p, out=out)
        np.subtract(out, h, out=out)
        return
    q = x + h
    q /= p
    np.floor(q, out=q)
    q *= p
    np.subtract(x, q, out=out)


def _pivot_block(a: np.ndarray, rows: slice, piv: list[int]) -> np.ndarray:
    """a[rows, piv]: a view when the pivot columns are contiguous, else a copy."""
    if piv[-1] - piv[0] + 1 == len(piv):
        return a[rows, piv[0]:piv[-1] + 1]
    return a[rows][:, piv]


@lru_cache(maxsize=None)
def _reciprocals(p: int, n: int) -> tuple[int, ...]:
    """(0, 1^-1, 2^-1, ..., n^-1) mod p, for n < p."""
    return (0, *(pow(k, -1, p) for k in range(1, n + 1)))


def _inverse_by_charpoly(b: np.ndarray, p: int) -> Optional[np.ndarray]:
    """B^-1 mod p, reduced, for a w x w block B of reduced residues with w < p; None if det B = 0.

    By the characteristic polynomial x^w + c_1 x^(w-1) + ... + c_w (L. Csanky,
    "Fast parallel matrix inversion algorithms", SIAM J. Comput. 5(4), 1976):
    B..B^w by doubling, [B; ...; B^n] @ B^n = [B^(n+1); ...; B^2n]; the c_k
    from the powers' traces t_k, reduced mod p, by Newton's identities,
    k c_k = -(t_k + c_1 t_(k-1) + ... + c_(k-1) t_1), so k <= w < p; then
    det B = (-1)^w c_w and B^-1 = -c_w^-1 (B^(w-1) + c_1 B^(w-2) + ... + c_(w-1) I).
    B B^-1 = I mod p is checked before the inverse is returned; a failed
    check is a fault, not a singular block, and raises ArithmeticError.
    """
    w = b.shape[0]
    powers = np.empty((w, w, w), dtype=b.dtype)  # powers[i] = B^(i+1)
    powers[0] = b
    n = 1
    while n < w:
        k = min(n, w - n)
        _reduce(powers[:k].reshape(-1, w) @ powers[n - 1], p, out=powers[n:n + k].reshape(-1, w))
        n += k
    t = [int(x) % p for x in powers.trace(axis1=1, axis2=2).tolist()]
    recip = _reciprocals(p, w)
    c = [1]
    for k in range(1, w + 1):  # c_0 t_k + c_1 t_(k-1) + ... + c_(k-1) t_1, c reversed against t
        c.append(-sum(map(operator.mul, reversed(c), t)) * recip[k] % p)
    if c[w] == 0:
        return None
    scale, h = -pow(c[w], -1, p), p // 2
    coef = [(scale * c[w - 1 - j] + h) % p - h for j in range(w)]  # of B^j
    inv = np.tensordot(np.array(coef[1:], dtype=b.dtype), powers[:w - 1], axes=1)
    inv.flat[::w + 1] += coef[0]
    _reduce(inv, p)
    check = b @ inv - np.eye(w, dtype=b.dtype)
    _reduce(check, p)
    if check.any():
        raise ArithmeticError(f"a {w} x {w} block inverse fails B B^-1 = I mod {p}")
    return inv


class _Elimination:
    """One recursive elimination of a reduced matrix, in place, in its own dtype."""

    def __init__(self, a: np.ndarray, p: int):
        self.a = a
        self.p = p
        # first pivot row of every leaf with a pivot, ascending; each leaf's
        # unit-lower pivot block is I
        self.starts: list[int] = []

    def profile(self) -> list[int]:
        """The column rank profile, ascending."""
        return self._eliminate(0, 0, self.a.shape[1])

    def _trsm(self, r: int, lo: np.ndarray, x: np.ndarray):
        """x := L^-1 x for the unit-lower L whose strict lower part is lo's; reduces x.

        Row 0 of lo and x is pivot row r, and their rows are the pivot rows
        of whole leaves.  The recursion splits at the middle one of those
        leaves' starts; the rows of a single leaf, whose block of L is I,
        are only reduced.
        """
        starts = self.starts
        i, j = bisect_left(starts, r), bisect_left(starts, r + x.shape[0])
        if j - i == 1:
            _reduce(x, self.p)
            return
        t = starts[(i + j) // 2] - r
        self._trsm(r, lo[:t, :t], x[:t])
        x[t:] -= lo[t:, :t] @ x[:t]
        self._trsm(r + t, lo[t:, t:], x[t:])

    def _panel(self, r: int, c0: int, c1: int) -> Optional[list[int]]:
        """Eliminate a[r:, c0:c1] as a leaf; returns the pivot columns, or None to split it.

        One column is a pivot search: the reduced column's first nonzero
        entry moves up to row r and scales the entries below it by its
        centered inverse into multipliers.  Wider ranges take the block step,
        or return None, with a unchanged, where it declines.
        """
        a, p = self.a, self.p
        if c1 - c0 > 1:
            if not self._block_step(r, c0, c1):
                return None
        else:
            col = a[r:, c0]
            _reduce(col, p)
            if col[0] == 0.0:
                nz = np.flatnonzero(col)
                if nz.size == 0:
                    return []
                i = r + int(nz[0])
                a[[r, i]] = a[[i, r]]
            inv = pow(int(col[0]), -1, p)
            col[1:] *= inv - p if inv > p // 2 else inv
            _reduce(col[1:], p)
        self.starts.append(r)
        return list(range(c0, c1))

    def _block_step(self, r: int, c0: int, c1: int) -> bool:
        """Eliminate a[r:, c0:c1] at once if w rows spread below its w leading ones are independent.

        Those rows, at stride s = (rows - w) // w >= 1 from r + w, form B;
        s = 1, rows r + w.. r + 2w - 1, on a range of fewer than 3w rows.
        When B is invertible mod p every column is a pivot: B's rows move up
        to r.., and the multipliers of every row x below are x B^-1, one
        GEMM.  Returns False, with a unchanged, when w >= p, the range has
        fewer than 2w rows or B is singular.
        """
        a, p = self.a, self.p
        w = c1 - c0
        s = (a.shape[0] - r - w) // w
        if w >= p or s < 1:
            return False
        spread = np.arange(r + w, r + w + s * w, s)
        b = a[spread, c0:c1]
        _reduce(b, p)
        inv = _inverse_by_charpoly(b, p)
        if inv is None:
            return False
        lead = np.arange(r, r + w)
        a[np.concatenate((lead, spread))] = a[np.concatenate((spread, lead))]
        below = a[r + w:, c0:c1]
        _reduce(below, p)
        _reduce(below @ inv, p, out=below)
        return True

    def _eliminate(self, r: int, c0: int, c1: int) -> list[int]:
        """Eliminate a[r:, c0:c1]; pivots land on rows r, r+1, ...; returns their columns.

        A range of at most _BASE_WIDTH columns is first tried as a leaf
        (_panel); a wider range, or one the leaf declines, splits in two.
        """
        a = self.a
        m = a.shape[0]
        if r == m:
            return []
        if c1 - c0 <= _BASE_WIDTH:
            piv = self._panel(r, c0, c1)
            if piv is not None:
                return piv
            h = (c0 + c1) // 2
        else:
            blocks = -(-(c1 - c0) // _BASE_WIDTH)
            h = c0 + (blocks // 2) * _BASE_WIDTH
        piv = self._eliminate(r, c0, h)
        k1 = len(piv)
        if k1:
            top = a[r:r + k1, h:c1]
            self._trsm(r, _pivot_block(a, slice(r, r + k1), piv), top)
            if r + k1 < m:
                a[r + k1:, h:c1] -= _pivot_block(a, slice(r + k1, m), piv) @ top
        return piv + self._eliminate(r + k1, h, c1)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def _prepare(mat, p: int, overwrite: bool) -> np.ndarray:
    """Validate mat and return it reduced into [-h, p-1-h] in the dtype its shape takes.

    The dtype is _exact_dtype's for min(rows, columns); a matrix too wide
    for float64 is refused.  One pass over chunks of rows, with no temporary
    larger than a chunk.  With overwrite=True a C-contiguous input of that
    dtype is reduced in place, and rows before a rejected chunk are then
    already reduced.  Float input of a dtype that does not cast safely to
    it is checked and reduced in float64 chunks first.
    """
    if p >= 2**31:
        raise ValueError(f"modulus must be below 2**31, got {p}")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    a = np.asarray(mat)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    m, n = a.shape
    dtype = _exact_dtype(p, min(m, n))
    h = p // 2
    if dtype is None:
        raise ValueError(
            f"a {m} x {n} matrix is too wide for exact float64 elimination:"
            f" p = {p} admits min(rows, columns) <= {max(0, (2**53 - 2 * h) // (h * h))}"
        )
    floating = np.issubdtype(a.dtype, np.floating)
    if overwrite and a.dtype == dtype and a.flags.c_contiguous:
        work = a
    else:
        work = np.empty(a.shape, dtype=dtype)
    step = max(1, _PREPARE_CHUNK // max(1, n))
    for i in range(0, m, step):
        rows = slice(i, i + step)
        if not floating:
            r = np.mod(a[rows].astype(np.int64), p)
            r[r > h] -= p
            work[rows] = r
            continue
        inside = work is a or np.can_cast(a.dtype, dtype)
        chunk = work[rows] if inside else a[rows].astype(np.float64)
        if inside and work is not a:
            chunk[...] = a[rows]
        if not np.isfinite(chunk).all():
            raise ValueError("matrix entries must be finite")
        big = float(max(chunk.max(initial=0), -chunk.min(initial=0)))
        if big >= 2.0**53:
            raise ValueError("float entries exceed the exact integer range of float64")
        if (np.floor(chunk) != chunk).any():
            raise ValueError("float entries must be integer-valued")
        if big + h > _EXACT_LIMIT[chunk.dtype]:  # _reduce's x + h could leave the exact range
            np.remainder(chunk, p, out=chunk)
            np.subtract(chunk, p, out=chunk, where=chunk > h)
        else:
            _reduce(chunk, p)
        if not inside:
            work[rows] = chunk
    return work


def rank(
    mat,
    p: int,
    *,
    overwrite: bool = False,
    leading: Optional[Sequence[int]] = None,
):
    """Exact rank of a matrix over F_p.

    Entries are reduced mod p on entry; any integer dtype (or integer-valued
    float) is accepted.  With h = p // 2, an m x n matrix is ranked in
    float32 when min(m, n) * h^2 + 2h <= 2^24, in float64 when that is at
    most 2^53, and refused otherwise: within these bounds the elimination is
    exact.  With overwrite=True a C-contiguous input of the dtype so chosen
    is consumed in place.

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
    piv = _Elimination(a, p).profile() if m and n else []
    if leading is None:
        return len(piv)
    return [bisect_left(piv, k) for k in leading]
