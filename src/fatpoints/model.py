"""Core arithmetic of fat-point linear systems on P^3.

A system is a degree d together with a multiset of point multiplicities.
Everything here is exact integer arithmetic: monomial counts, imposed
condition counts, virtual and expected dimension.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass


def json_int(value, name: str) -> int:
    """value if it is an int and no bool, as a JSON integer parses; else ValueError naming name."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient; k > n yields 0."""
    if n < 0 or k < 0:
        raise ValueError("binomial arguments must be non-negative")
    return math.comb(n, k)


def conditions_count(m: int) -> int:
    """Number of linear conditions an m-fold point imposes: C(m+2, 3)."""
    if m < 1:
        raise ValueError(f"multiplicity must be >= 1, got {m}")
    return binomial(m + 2, 3)


def _canonical_mults(mults) -> tuple[tuple[int, int], ...]:
    counts: dict[int, int] = {}
    items = mults.items() if isinstance(mults, dict) else mults
    for m, c in items:
        m = int(m)
        c = int(c)
        if m < 1:
            raise ValueError(f"multiplicity must be >= 1, got {m}")
        if c < 0:
            raise ValueError(f"count must be >= 0, got {c}")
        if c:
            counts[m] = counts.get(m, 0) + c
    return tuple(sorted(counts.items(), reverse=True))


@dataclass(frozen=True)
class SystemSpec:
    """A linear system: degree plus {multiplicity: count}, canonically sorted.

    Zero counts are dropped and multiplicities are kept in descending order,
    so equality and hashing are structural.
    """

    degree: int
    mults: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")
        object.__setattr__(self, "mults", _canonical_mults(self.mults))

    @property
    def r(self) -> int:
        """Total number of points."""
        return sum(c for _, c in self.mults)

    @property
    def n_monomials(self) -> int:
        """Dimension of the space of degree-d forms in 4 variables."""
        return binomial(self.degree + 3, 3)

    @property
    def conditions_total(self) -> int:
        """Total number of imposed linear conditions."""
        return sum(c * conditions_count(m) for m, c in self.mults)

    def points(self) -> list[int]:
        """Expanded point list (one multiplicity per point), descending."""
        out: list[int] = []
        for m, c in self.mults:
            out.extend([m] * c)
        return out

    def as_dict(self) -> dict[int, int]:
        return dict(self.mults)

    def to_text(self) -> str:
        """Serialize as 'd; m1^c1,m2^c2,...' with multiplicities descending."""
        body = ",".join(f"{m}^{c}" for m, c in self.mults)
        return f"{self.degree}; {body}" if body else f"{self.degree};"

    def __str__(self) -> str:
        return self.to_text()


_TERM_RE = re.compile(r"^(\d+)\s*[\^x]\s*(\d+)$")


def parse_mults(text: str) -> dict[int, int]:
    """Parse a multiplicity list: comma-separated 'm^c' or 'mxc' terms."""
    counts: dict[int, int] = {}
    text = text.strip()
    if not text:
        return counts
    for term in text.split(","):
        term = term.strip()
        if not term:
            continue
        match = _TERM_RE.match(term)
        if match:
            m, c = int(match.group(1)), int(match.group(2))
        elif term.isdigit():
            m, c = int(term), 1
        else:
            raise ValueError(f"bad multiplicity term {term!r}; expected m^c or mxc")
        counts[m] = counts.get(m, 0) + c
    return counts

def parse_system(text: str) -> SystemSpec:
    """Parse 'd; m1^c1,m2^c2,...' back into a SystemSpec."""
    head, sep, body = text.partition(";")
    if not sep:
        raise ValueError(f"bad system text {text!r}; expected 'd; m^c,...'")
    return SystemSpec(int(head.strip()), parse_mults(body).items())


def vdim(spec: SystemSpec) -> int:
    """Virtual dimension: C(d+3,3) - sum of imposed conditions - 1."""
    return spec.n_monomials - spec.conditions_total - 1

def edim(spec: SystemSpec) -> int:
    """Expected dimension: virtual dimension clamped at -1."""
    return max(vdim(spec), -1)


@dataclass(frozen=True)
class CaseSignature:
    """Counts of 10-, 4-, 3- and 2-points for one enumerated case."""

    degree: int
    q: int
    x: int
    y: int
    z: int

    def __post_init__(self):
        for name in ("q", "x", "y", "z"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def conditions_total(self) -> int:
        return 220 * self.q + 20 * self.x + 10 * self.y + 4 * self.z

    def to_system(self) -> SystemSpec:
        return SystemSpec(
            self.degree, {10: self.q, 4: self.x, 3: self.y, 2: self.z}
        )

    @classmethod
    def from_system(cls, spec: SystemSpec) -> "CaseSignature":
        counts = spec.as_dict()
        extra = set(counts) - {10, 4, 3, 2}
        if extra:
            raise ValueError(f"system has multiplicities outside {{10,4,3,2}}: {sorted(extra)}")
        return cls(
            spec.degree,
            counts.get(10, 0),
            counts.get(4, 0),
            counts.get(3, 0),
            counts.get(2, 0),
        )

    def key(self) -> tuple[int, int, int, int, int]:
        return (self.degree, self.q, self.x, self.y, self.z)


VERDICT_NON_SPECIAL = "non_special"
VERDICT_INCONCLUSIVE = "inconclusive"
