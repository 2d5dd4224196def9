"""Glueing rules and monotonicity deductions.

A glue rule replaces a collection of small points by one higher-multiplicity
point without changing the virtual dimension; non-specialty of the glued
system implies non-specialty of the original.  A rule is used only once a
rank check in this process has certified each of its base systems.  Combined
with two monotone facts (an empty system stays empty when points are added;
independent conditions stay independent when points are removed), the window
certificates of one degree decide every (x, y, z) signature of that degree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .enumeration import q_values, window
from .interpolation import Certificate, check_case
from .model import (
    CaseSignature,
    SystemSpec,
    VERDICT_NON_SPECIAL,
    binomial,
    conditions_count,
)


# Each glue rule's base systems, by the label deduce's steps print.  A rule holds once
# each is non-special of vdim -1 (KnownResults.certify), which is also the identity
# that the rule keeps the virtual dimension: N = S = the new point's conditions.
GLUE_RULES: dict[str, tuple[SystemSpec, ...]] = {
    "2^5->4": (SystemSpec(3, {2: 5}),),
    "4^a,3^b->10": tuple(SystemSpec(9, {4: a, 3: 22 - 2 * a}) for a in range(12)),
}


class KnownResults:
    """Rank certificates, made in this process, of the glue rules' base systems.

    A system counts as known only if its certificate is non_special with
    N = S.  A failed certificate is kept too, so no system is checked twice.
    """

    def __init__(self):
        self.certificates: dict[SystemSpec, Certificate] = {}

    def certify(self, spec: SystemSpec) -> bool:
        """Whether spec was certified non-special with N = S, that is of vdim -1.

        The first call for spec runs check_case(spec, 0), on the attempt
        schedule of a campaign, and keeps its certificate; later calls read it.
        """
        cert = self.certificates.get(spec)
        if cert is None:
            cert = self.certificates[spec] = check_case(spec, 0)
        return cert.verdict == VERDICT_NON_SPECIAL and cert.N == cert.S

    @classmethod
    def bootstrap(cls) -> "KnownResults":
        """Known results with L(3; 2^5), the base system of 2^5->4, checked whatever its verdict.

        The twelve base systems of 4^a,3^b->10 are certified when that rule
        is first validated, which only deduce and closure_audit do.
        """
        known = cls()
        validate_glue_rule("2^5->4", known)
        return known


_default_known: Optional[KnownResults] = None


def default_known() -> KnownResults:
    global _default_known
    if _default_known is None:
        _default_known = KnownResults.bootstrap()
    return _default_known


def validate_glue_rule(rule: str, known: KnownResults) -> bool:
    """True iff known certifies every base system of GLUE_RULES[rule].

    The glueing theorem's ordering condition is automatic for these rules:
    they preserve vdim, so vdim L1 = vdim L2 and one of the two orderings
    always holds.  What remains is the non-specialty of the base systems.
    """
    return all(known.certify(spec) for spec in GLUE_RULES[rule])


@dataclass
class DeduceResult:
    """Proof chain for one target system, or a recorded failure."""

    target: str
    ok: bool
    steps: list[dict] = field(default_factory=list)
    reason: str = ""

    def to_json(self) -> str:
        return json.dumps(self.steps if self.ok else {"failed": self.reason})


def _degree_table(store, d: int) -> np.ndarray:
    """Store rows for degree d as (q, x, y, z, S, non_special) int64.

    A record whose S is not its case's condition total is refused with a
    ValueError that names the case: verify reports it as an S mismatch, and
    no deduction may rest on it.
    """
    rows = []
    for case, S, verdict in store.cases(d):
        if S != case.conditions_total:
            raise ValueError(f"case {list(case.key())} records S = {S},"
                             f" but its conditions total {case.conditions_total}")
        rows.append((case.q, case.x, case.y, case.z, S, int(verdict == VERDICT_NON_SPECIAL)))
    if not rows:
        return np.zeros((0, 6), dtype=np.int64)
    return np.array(rows, dtype=np.int64)


def _ceil_div(n, k):
    return -(-n // k)


def _glue_steps(t2: int, q: int, total_a: int) -> list[dict]:
    to_four, to_ten = GLUE_RULES
    steps: list[dict] = []
    if t2:
        steps.append({"op": "glue", "rule": to_four, "times": int(t2)})
    if q:
        steps.append(
            {
                "op": "glue",
                "rule": to_ten,
                "times": int(q),
                "total_a": int(total_a),
                "total_b": int(22 * q - 2 * total_a),
            }
        )
    return steps


def _glue_counts(x, y, z, q_max):
    """The greedy glueing of (x, y, z), for ints and int arrays alike.

    2^5->4 runs t2 = z // 5 times.  4^a,3^b->10 with a = min(x, 11) then
    runs at most q_max times: on eleven 4-points while they last, then once
    on the a < 11 left and 22 - 2a 3-points if there are that many, then on
    22 3-points at a time.  Returns (t2, q, total_a, x, y, z) after glueing.
    """
    t2 = z // 5
    x = x + t2
    q = np.minimum(q_max, x // 11)
    x = x - 11 * q
    mixed = (q < q_max) & (22 - 2 * x <= y)  # 0 or 1 per target
    total_a = 11 * q + mixed * x
    y = y - mixed * (22 - 2 * x)
    x = x - mixed * x
    q = q + mixed
    k = mixed * np.minimum(q_max - q, y // 22)
    return t2, q + k, total_a, x, y - 22 * k, z - 5 * t2


def glue(spec: SystemSpec) -> tuple[SystemSpec, list[dict]]:
    """Apply 2^5->4 until z <= 4, then 4^a,3^b->10 greedily (4-points first).

    The 10-point count stops at the largest that q_values admits for the
    degree.  Returns the glued system, whose virtual dimension equals the
    input's by construction, and the glue steps taken.
    """
    counts = spec.as_dict()
    bad = set(counts) - {1, 2, 3, 4}
    if bad:
        raise ValueError(f"glueing expects multiplicities <= 4, got {sorted(bad)}")
    t2, q, total_a, x, y, z = map(int, _glue_counts(
        counts.get(4, 0), counts.get(3, 0), counts.get(2, 0), q_values(spec.degree)[-1]))
    # simple points take no part in any rule and ride along unchanged
    glued = SystemSpec(spec.degree, {10: q, 4: x, 3: y, 2: z, 1: counts.get(1, 0)})
    return glued, _glue_steps(t2, q, total_a)


def _chain_to_empty(x: int, y: int, z: int, table: np.ndarray, d: int, N: int):
    """Remove points, then glue, landing exactly on a checked empty case.

    The landed case C has S_C >= N and rank N, so it is empty; removing
    points only enlarged the system, hence the target is empty too.  Valid
    for targets with S >= N (vdim <= -1).  Feasibility per candidate, with
    t2 2-point glueings and A the number of 4-points consumed by 10-glueing:
    A in [max(0, ceil((y_C + 22q_C - y)/2), t2 - x_C),
          min(11 q_C, x + t2 - x_C)] for some t2 in [0, (z - z_C) // 5].
    """
    ok = (table[:, 5] == 1) & (table[:, 4] >= N) & (table[:, 3] <= z)
    if not ok.any():
        return None
    qc, xc, yc, zc = (table[:, i] for i in range(4))
    lo_a = np.maximum(0, _ceil_div(yc + 22 * qc - y, 2))
    hi_a = 11 * qc
    t2_lo = np.maximum(0, lo_a + xc - x)
    t2_hi = np.minimum((z - zc) // 5, hi_a + xc)
    ok &= (lo_a <= hi_a) & (t2_lo <= t2_hi)
    idx = np.nonzero(ok)[0]
    if not idx.size:
        return None
    i = int(idx[0])
    t2 = int(t2_lo[i])
    a_total = int(max(lo_a[i], t2 - xc[i]))
    q = int(qc[i])
    removed = {
        "4": int(x + t2 - xc[i] - a_total),
        "3": int(y - yc[i] - 22 * q + 2 * a_total),
        "2": int(z - zc[i] - 5 * t2),
    }
    assert all(v >= 0 for v in removed.values())
    steps = []
    if any(removed.values()):
        steps.append({"op": "remove_points", "removed": {k: v for k, v in removed.items() if v}})
    steps += _glue_steps(t2, q, a_total)
    steps.append({"op": "empty_case", "case": [d] + [int(v) for v in table[i, :4]],
                  "S": int(table[i, 4])})
    return steps


def _chain_to_independent(x: int, y: int, z: int, table: np.ndarray, d: int, N: int):
    """Add points, then glue, landing exactly on a checked full-row-rank case.

    The landed case C has S_C <= N and rank S_C, so its conditions are
    independent; the target's conditions are a subset of the pre-glue
    system's, hence independent.  Valid for targets with S <= N (vdim >= -1).
    Feasibility per candidate: with t2 = max(0, ceil((z - z_C)/5)),
    A in [max(0, x + t2 - x_C), min(11 q_C, (y_C + 22 q_C - y) // 2)].
    """
    ok = (table[:, 5] == 1) & (table[:, 4] <= N)
    if not ok.any():
        return None
    qc, xc, yc, zc = (table[:, i] for i in range(4))
    t2 = np.maximum(0, _ceil_div(z - zc, 5))
    lo_a = np.maximum(0, x + t2 - xc)
    hi_a = np.minimum(11 * qc, (yc + 22 * qc - y) // 2)
    ok &= lo_a <= hi_a
    idx = np.nonzero(ok)[0]
    if not idx.size:
        return None
    i = int(idx[0])
    t2i = int(t2[i])
    a_total = int(lo_a[i])
    q = int(qc[i])
    added = {
        "4": int(xc[i] + a_total - x - t2i),
        "3": int(yc[i] + 22 * q - 2 * a_total - y),
        "2": int(zc[i] + 5 * t2i - z),
    }
    assert all(v >= 0 for v in added.values())
    steps = []
    if any(added.values()):
        steps.append({"op": "add_points", "added": {k: v for k, v in added.items() if v}})
    steps += _glue_steps(t2i, q, a_total)
    steps.append({"op": "independent_case", "case": [d] + [int(v) for v in table[i, :4]],
                  "S": int(table[i, 4])})
    return steps


def deduce(
    target: SystemSpec,
    store,
    known: Optional[KnownResults] = None,
) -> DeduceResult:
    """Derive non-specialty of target from the window certificates.

    Chain shapes, tried in order: glue the target and hit a checked window
    case exactly; for S >= N, remove points and glue onto a checked empty
    case (rank = N); for S <= N, add points and glue onto a checked
    full-row-rank case (rank = S).  Every glueing uses only the validated
    2^5->4 and 4^a,3^b->10 rules.
    """
    known = known if known is not None else default_known()
    d = target.degree
    label = target.to_text()
    for rule in GLUE_RULES:
        if not validate_glue_rule(rule, known):
            return DeduceResult(label, False, reason=f"glue rule {rule} not validated")
    counts = target.as_dict()
    bad = set(counts) - {2, 3, 4}
    if bad:
        raise ValueError(f"deduce expects multiplicities in {{2,3,4}}, got {sorted(bad)}")
    x = counts.get(4, 0)
    y = counts.get(3, 0)
    z = counts.get(2, 0)
    N = binomial(d + 3, 3)
    S = target.conditions_total
    table = _degree_table(store, d)

    glued, glue_steps = glue(target)
    sig = CaseSignature.from_system(glued)
    vec = np.array([sig.q, sig.x, sig.y, sig.z], dtype=np.int64)
    if S in window(N) and table.size:
        hit = (table[:, :4] == vec).all(axis=1) & (table[:, 5] == 1)
        if hit.any():
            glue_steps.append({"op": "window_case", "case": [d, *map(int, vec)], "S": S})
            return DeduceResult(label, True, glue_steps)

    if table.size:
        if S >= N:
            steps = _chain_to_empty(x, y, z, table, d, N)
            if steps is not None:
                return DeduceResult(label, True, steps)
        if S <= N:
            steps = _chain_to_independent(x, y, z, table, d, N)
            if steps is not None:
                return DeduceResult(label, True, steps)
    return DeduceResult(
        label, False,
        reason=f"no window certificate reachable from {label} (S={S}, N={N})",
    )


@dataclass
class ClosureReport:
    degree: int
    targets_checked: int
    gaps: list[tuple[int, int, int]]

    @property
    def ok(self) -> bool:
        return not self.gaps


def _ranges(lo: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flatten the integer ranges [lo, lo + counts): (owning range index, value)."""
    owner = np.repeat(np.arange(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    return owner, np.arange(int(counts.sum())) - starts[owner] + lo[owner]


def closure_audit(
    d: int,
    store,
    known: Optional[KnownResults] = None,
) -> ClosureReport:
    """Confirm every (x, y, z) signature of degree d deduces from the store.

    Audited up to S <= N + 20 + window span; beyond that removing 4-points
    re-enters the audited band, so deduction is monotone-trivial.

    Each target's verdict is deduce's, in closed form per (x, y) pair with
    base = 20x + 10y.  Over the non_special rows (q_c, x_c, y_c, z_c, S_c):
    - independent chain (rows with S_c <= N): with
      hi_a = min(11 q_c, (y_c + 22 q_c - y) // 2) and K = hi_a + x_c - x,
      a row with hi_a >= 0 and K >= 0 proves every z <= z_c + 5K: good z
      form a prefix;
    - empty chain (rows with S_c >= N): with
      lo_a = max(0, ceil((y_c + 22 q_c - y) / 2)) and
      t2_lo = max(0, lo_a + x_c - x), a row with lo_a <= 11 q_c and
      t2_lo <= 11 q_c + x_c proves every z >= z_c + 5 t2_lo: good z form a
      suffix.
    Every row's S_c is its case's condition total (_degree_table refuses any
    other record), so a chain only adds or removes conditions on the way to
    S_c and never crosses S = N, and deduce's window hit is the chain of
    either kind that adds and removes no point.
    Both glue rules are validated once; if one fails, every target is a gap.
    The work is O(#pairs x #rows) numpy, one row at a time, and the memory
    O(#pairs + #gaps).
    """
    known = known if known is not None else default_known()
    N = binomial(d + 3, 3)
    w = window(N)
    # span of the open window: from the excluded w.start - 1 to the excluded w.stop
    span = w.stop - (w.start - 1)
    bound = N + conditions_count(4) + span
    # every (x, y) with 20x + 10y <= bound, in the order the gaps are listed
    xs = np.arange(max(0, bound // 20 + 1), dtype=np.int64)
    x, y = _ranges(np.zeros_like(xs), (bound - 20 * xs) // 10 + 1)
    base = 20 * x + 10 * y
    zmax = (bound - base) // 4
    # good z: [0, z_indep] and [z_empty, zmax]
    z_indep = np.full_like(base, -1)
    z_empty = zmax + 1
    table = _degree_table(store, d)
    table = table[table[:, 5] == 1]
    if not all(validate_glue_rule(rule, known) for rule in GLUE_RULES):
        table = table[:0]
    for qc, xc, yc, zc, sc, _ in table.tolist():
        if sc <= N:
            hi_a = np.minimum(11 * qc, (yc + 22 * qc - y) // 2)
            k = hi_a + xc - x
            reach = np.where((hi_a >= 0) & (k >= 0), zc + 5 * k, -1)
            np.maximum(z_indep, reach, out=z_indep)
        if sc >= N:
            lo_a = np.maximum(0, _ceil_div(yc + 22 * qc - y, 2))
            t2_lo = np.maximum(0, lo_a + xc - x)
            reach = np.where((lo_a <= 11 * qc) & (t2_lo <= 11 * qc + xc), zc + 5 * t2_lo,
                             z_empty)
            np.minimum(z_empty, reach, out=z_empty)
    lo = np.maximum(z_indep + 1, 0)
    pair, z = _ranges(lo, np.maximum(z_empty - lo, 0))
    gaps = list(zip(x[pair].tolist(), y[pair].tolist(), z.tolist()))
    return ClosureReport(d, int((zmax + 1).sum()), gaps)
