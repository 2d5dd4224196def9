import random

import pytest

from fatpoints.model import (
    CaseSignature,
    SystemSpec,
    binomial,
    conditions_count,
    edim,
    parse_mults,
    parse_system,
    vdim,
)


def test_binomial_values():
    assert binomial(17, 3) == 680
    assert binomial(43, 3) == 12341
    assert binomial(3, 5) == 0
    assert binomial(0, 0) == 1
    with pytest.raises(ValueError):
        binomial(-1, 2)


def test_binomial_matches_pascal():
    for n in range(1, 50):
        for k in range(1, n + 2):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)
    assert all(binomial(n, 0) == 1 for n in range(50))


def test_conditions_count_values():
    assert conditions_count(1) == 1
    assert conditions_count(2) == 4
    assert conditions_count(3) == 10
    assert conditions_count(4) == 20
    assert conditions_count(10) == 220
    with pytest.raises(ValueError):
        conditions_count(0)


def test_conditions_count_is_derivative_order_count():
    # C(m+2,3) must equal the number of 3-variable orders below m
    for m in range(1, 11):
        orders = [
            (b0, b1, b2)
            for b0 in range(m)
            for b1 in range(m)
            for b2 in range(m)
            if b0 + b1 + b2 <= m - 1
        ]
        assert len(orders) == conditions_count(m)


def test_vdim_examples():
    assert vdim(SystemSpec(3, {2: 5})) == -1
    for a in range(0, 12):
        b = 22 - 2 * a
        assert vdim(SystemSpec(9, {4: a, 3: b})) == -1
    assert vdim(SystemSpec(7, {})) == binomial(10, 3) - 1


def test_edim_clamps():
    assert edim(SystemSpec(3, {2: 5})) == -1
    assert edim(SystemSpec(2, {2: 9})) == -1  # vdim = 10 - 36 - 1
    assert vdim(SystemSpec(2, {2: 9})) == -27
    free = SystemSpec(3, {2: 3})
    assert vdim(free) == 7
    assert edim(free) == 7


def test_vdim_additive_under_point_removal():
    rng = random.Random(17)
    for _ in range(200):
        counts = {m: rng.randrange(0, 6) for m in rng.sample(range(1, 12), 4)}
        spec = SystemSpec(rng.randrange(1, 30), counts)
        present = [m for m, c in spec.mults if c]
        if not present:
            continue
        m = rng.choice(present)
        smaller = dict(spec.mults)
        smaller[m] -= 1
        removed = SystemSpec(spec.degree, smaller)
        assert vdim(removed) == vdim(spec) + conditions_count(m)
        assert edim(spec) >= vdim(spec)
        assert edim(spec) >= -1


def test_system_canonicalization():
    a = SystemSpec(14, {4: 20, 10: 1, 3: 5, 2: 2})
    b = SystemSpec(14, [(2, 2), (3, 5), (10, 1), (4, 20)])
    assert a == b
    assert hash(a) == hash(b)
    assert a.mults == ((10, 1), (4, 20), (3, 5), (2, 2))
    assert SystemSpec(5, {3: 0, 2: 1}).mults == ((2, 1),)
    assert a.r == 28
    assert a.points()[:3] == [10, 4, 4]
    with pytest.raises(ValueError):
        SystemSpec(3, {0: 2})
    with pytest.raises(ValueError):
        SystemSpec(-1, {})


def test_serialization_roundtrip():
    spec = SystemSpec(14, {10: 1, 4: 20, 3: 5, 2: 2})
    assert spec.to_text() == "14; 10^1,4^20,3^5,2^2"
    assert parse_system(spec.to_text()) == spec
    assert parse_system("3;") == SystemSpec(3, {})
    assert parse_mults("2x5") == {2: 5}
    assert parse_mults("4^2, 4^1") == {4: 3}
    with pytest.raises(ValueError):
        parse_mults("4^^2")
    with pytest.raises(ValueError):
        parse_system("no-semicolon")


def test_case_signature_roundtrip():
    sig = CaseSignature(14, 1, 20, 5, 2)
    spec = sig.to_system()
    assert spec == SystemSpec(14, {10: 1, 4: 20, 3: 5, 2: 2})
    assert CaseSignature.from_system(spec) == sig
    assert sig.conditions_total == 220 + 400 + 50 + 8
    with pytest.raises(ValueError):
        CaseSignature.from_system(SystemSpec(14, {5: 1}))
    with pytest.raises(ValueError):
        CaseSignature(14, -1, 0, 0, 0)
