"""Independent reference implementations the tests check the package against.

Everything here is deliberately naive: straight loops, Fractions, dict-based
polynomials.  None of it shares code with the package's computational paths.
"""

from fractions import Fraction

import numpy as np


def rank_mod_p_reference(mat, p: int) -> int:
    """Textbook row reduction over F_p on int64 data."""
    return len(profile_mod_p_reference(mat, p))


def profile_mod_p_reference(mat, p: int) -> list[int]:
    """The pivot columns of textbook row reduction over F_p: the column rank profile."""
    a = np.array(mat, dtype=np.int64) % p
    m, n = a.shape
    r = 0
    piv = []
    for c in range(n):
        pivot = None
        for i in range(r, m):
            if a[i, c] % p:
                pivot = i
                break
        if pivot is None:
            continue
        a[[r, pivot]] = a[[pivot, r]]
        inv = pow(int(a[r, c]), -1, p)
        for i in range(r + 1, m):
            f = int(a[i, c]) * inv % p
            if f:
                a[i] = (a[i] - f * a[r]) % p
        r += 1
        piv.append(c)
        if r == m:
            break
    return piv


def rank_rational_reference(mat) -> int:
    """Exact rank over Q via Fraction elimination."""
    rows = [[Fraction(int(v)) for v in row] for row in np.atleast_2d(mat)]
    if not rows or not rows[0]:
        return 0
    m, n = len(rows), len(rows[0])
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, m):
            if rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == m:
            break
    return r


def poly_differentiate(poly: dict, var: int) -> dict:
    """d/dx_var of a polynomial stored as {exponent tuple: coefficient}."""
    out = {}
    for exps, coeff in poly.items():
        e = exps[var]
        if e == 0:
            continue
        dropped = list(exps)
        dropped[var] = e - 1
        key = tuple(dropped)
        out[key] = out.get(key, 0) + coeff * e
    return {k: v for k, v in out.items() if v}


def derivative_coefficient_symbolic(alpha, beta) -> int:
    """Coefficient of d^beta x^alpha read off from repeated differentiation."""
    poly = {tuple(int(a) for a in alpha): 1}
    for var, order in enumerate(beta):
        for _ in range(int(order)):
            poly = poly_differentiate(poly, var)
    residual = tuple(int(a) - int(b) for a, b in zip(alpha, beta))
    return poly.get(residual, 0)


def window_cases_bruteforce(d: int):
    """Algorithm A by literal triple loop with the printed bounds."""
    import math

    N = math.comb(d + 3, 3)
    xmax = math.ceil(N / 20)
    ymax = math.ceil(N / 10)
    zmax = math.ceil(N / 4)
    out = []
    for z in range(zmax + 1):
        for y in range(ymax + 1):
            for x in range(xmax + 1):
                s = 20 * x + 10 * y + 4 * z
                if N - 4 < s < N + 20:
                    out.append((x, y, z))
    return out


def glued_cases_bruteforce(d: int, fixed_q=None):
    """Algorithm B by literal loops: window, z <= 4, q policy, 2x+y cut."""
    import math

    N = math.comb(d + 3, 3)
    fixed = {13: 1, 14: 1, 15: 1, 16: 1, 17: 1, 18: 1, 19: 5, 20: 7, 21: 8}
    if fixed_q is None:
        fixed_q = fixed.get(d)
    qs = [fixed_q] if fixed_q is not None else range(math.ceil(N / 220) + 1)
    out = []
    for q in qs:
        for x in range((N + 19) // 20 + 1):
            for y in range((N + 19) // 10 + 1):
                if d >= 22 and 2 * x + y > 21:
                    continue
                for z in range(5):
                    s = 220 * q + 20 * x + 10 * y + 4 * z
                    if N - 4 < s < N + 20:
                        out.append((q, x, y, z))
    return sorted(out)
