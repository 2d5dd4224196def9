"""Monomial bases of degree-d forms in 4 variables and derivative bookkeeping.

The basis order is frozen: certificates replay against it, so it must never
change between releases.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .model import binomial, conditions_count


@lru_cache(maxsize=None)
def monomial_basis(d: int) -> np.ndarray:
    """All exponent vectors (a0,a1,a2,a3) with a0+a1+a2+a3 = d.

    Returned as an (N, 4) int64 array, N = C(d+3, 3), in descending
    lexicographic order on (a0, a1, a2, a3).  The array is built once per
    degree and shared, so it is read-only.
    """
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    rows = []
    for a0 in range(d, -1, -1):
        for a1 in range(d - a0, -1, -1):
            for a2 in range(d - a0 - a1, -1, -1):
                rows.append((a0, a1, a2, d - a0 - a1 - a2))
    out = np.array(rows, dtype=np.int64).reshape(-1, 4)
    assert out.shape[0] == binomial(d + 3, 3)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def derivative_orders(m: int) -> np.ndarray:
    """Derivative multi-orders imposed by an m-fold point.

    Affine-chart convention: after dehomogenizing at the point, all partial
    derivatives of order <= m-1 in the remaining 3 variables are imposed.
    Orders are returned as (K, 4) int64 rows (b0, b1, b2, 0) with
    b0+b1+b2 <= m-1, K = C(m+2, 3), sorted by total order ascending then
    lexicographically descending.  The last component is fixed at 0; the
    first three map onto the non-chart coordinates in ascending index order.
    The array is built once per multiplicity and shared, so it is read-only.
    """
    if m < 1:
        raise ValueError(f"multiplicity must be >= 1, got {m}")
    rows = []
    for total in range(m):
        for b0 in range(total, -1, -1):
            for b1 in range(total - b0, -1, -1):
                rows.append((b0, b1, total - b0 - b1, 0))
    out = np.array(rows, dtype=np.int64).reshape(-1, 4)
    assert out.shape[0] == conditions_count(m)
    out.setflags(write=False)
    return out

