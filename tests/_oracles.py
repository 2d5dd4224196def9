"""Independent reference implementations the tests check the package against.

Everything here is deliberately naive: straight loops, Fractions, dict-based
polynomials.  None of it shares code with the package's computational paths;
rational_oracle and build_matrix_per_point take only the package's monomial
and derivative-order lists, which fix the order of a matrix's columns and
rows.
"""

import random
from fractions import Fraction

import numpy as np

from fatpoints.model import SystemSpec
from fatpoints.monomials import derivative_orders, monomial_basis


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
    """Exact rank over Q via Fraction elimination of integer rows (an array or lists)."""
    rows = [[Fraction(int(v)) for v in row] for row in mat]
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


def derivative_coefficient(alpha, beta) -> int:
    """Integer coefficient produced by applying d^beta to x^alpha.

    Product over i of alpha_i * (alpha_i - 1) * ... * (alpha_i - beta_i + 1);
    zero when beta exceeds alpha in any coordinate.
    """
    if len(alpha) != 4 or len(beta) != 4:
        raise ValueError("multi-indices must have 4 components")
    coeff = 1
    for a, b in zip(alpha, beta):
        a, b = int(a), int(b)
        if a < 0 or b < 0:
            raise ValueError("multi-index components must be non-negative")
        if b > a:
            return 0
        for step in range(b):
            coeff *= a - step
    return coeff


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


_ORACLE_LIMIT = 200
_ORACLE_COORD = 10**9


def rational_oracle(spec: SystemSpec, seed: int = 0) -> int:
    """Dimension of a small system by exact elimination over the rationals.

    Independent of the prime-field path: its own point sampling, per-entry
    integer assembly and Fraction elimination.  Row for order beta at point x
    with chart c is scaled by x_c^d, which makes every entry the integer
    falling(a', b) * prod_i x_i^(a'_i - b_i) * x_c^(a_c + |b|).
    """
    if spec.n_monomials > _ORACLE_LIMIT:
        raise ValueError(
            f"rational oracle is limited to N <= {_ORACLE_LIMIT}, got N = {spec.n_monomials}"
        )
    d = spec.degree
    rng = random.Random(seed)
    mults = spec.points()
    pts: list[tuple[int, int, int, int]] = []
    seen = set()
    while len(pts) < len(mults):
        cand = tuple(rng.randrange(-_ORACLE_COORD, _ORACLE_COORD + 1) for _ in range(4))
        if not any(cand):
            continue
        lead = next(c for c in cand if c)
        key = tuple(Fraction(c, lead) for c in cand)
        if key in seen:
            continue
        seen.add(key)
        pts.append(cand)

    basis = monomial_basis(d)
    rows: list[list[int]] = []
    for pt, m in zip(pts, mults):
        chart = next(i for i in range(4) if pt[i])
        other = [i for i in range(4) if i != chart]
        for beta in derivative_orders(m):
            border = [int(beta[0]), int(beta[1]), int(beta[2])]
            btot = sum(border)
            row = []
            for alpha in basis:
                aff = [int(alpha[i]) for i in other]
                entry = 1
                for a, b in zip(aff, border):
                    if b > a:
                        entry = 0
                        break
                    for step in range(b):
                        entry *= a - step
                if entry:
                    for i, b in zip(other, border):
                        entry *= pt[i] ** (int(alpha[i]) - b)
                    entry *= pt[chart] ** (int(alpha[chart]) + btot)
                row.append(entry)
            rows.append(row)

    return spec.n_monomials - 1 - rank_rational_reference(rows)


def sample_distinct_per_point(count: int, prime: int, seed: int, avoid=(),
                              max_resample: int = 1000) -> tuple[np.ndarray, int]:
    """The points _sample_distinct draws, one draw of 4 coordinates at a time, and the draws made.

    Each point takes the first draw of Generator(PCG64(seed)).integers(0,
    prime, 4) that is not zero and not projectively equal to a point of
    avoid or to one taken before; max_resample draws in a row without one
    raise RuntimeError.
    """
    def key(coords):
        lead = next(int(c) for c in coords if int(c) % prime)
        inv = pow(lead, -1, prime)
        return tuple(int(c) * inv % prime for c in coords)

    rng = np.random.Generator(np.random.PCG64(seed))
    seen = {key(a) for a in avoid}
    out, draws = [], 0
    for _ in range(count):
        for _ in range(max_resample):
            cand = rng.integers(0, prime, size=4, dtype=np.int64)
            draws += 1
            if cand.any() and key(cand) not in seen:
                seen.add(key(cand))
                out.append(cand)
                break
        else:
            raise RuntimeError(f"no new point mod {prime} in {max_resample} draws")
    return np.array(out, dtype=np.int64).reshape(-1, 4), draws


def build_matrix_per_point(spec: SystemSpec, points, prime: int, basis=None) -> np.ndarray:
    """The interpolation matrix of spec at points, assembled point by point in int64.

    Row block j is point j's, one row per derivative order b of
    derivative_orders(m), one column per monomial x^e of basis (default
    monomial_basis(d)); the point is dehomogenized in the chart of its first
    nonzero coordinate, with affine coordinates u, and the entry is
    prod_i e_i!/(e_i-b_i)! u_i^(e_i-b_i) mod p, 0 where some b_i > e_i.
    """
    d = spec.degree
    basis = monomial_basis(d) if basis is None else basis
    rows = []
    for pt, m in zip(np.asarray(points, dtype=np.int64) % prime, spec.points()):
        chart = int(np.flatnonzero(pt)[0])
        other = [i for i in range(4) if i != chart]
        u = pt[other] * pow(int(pt[chart]), -1, prime) % prime
        e = basis[:, other]
        upow = [np.array([pow(int(ui), k, prime) for k in range(d + 1)]) for ui in u]
        for b in derivative_orders(m):
            row = np.ones(basis.shape[0], dtype=np.int64)
            for i in range(3):
                for k in range(int(b[i])):  # the falling factorial e!/(e-b)!, 0 for b > e
                    row = row * np.maximum(e[:, i] - k, 0) % prime
                row = row * upow[i][np.maximum(e[:, i] - b[i], 0)] % prime
            rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(-1, basis.shape[0])
