import json
import random
from dataclasses import replace

import numpy as np
import pytest

import fatpoints.reduction as reduction
from fatpoints.campaign import CertRecord, ResultStore
from fatpoints.enumeration import algorithm_b_cases, q_values, window
from fatpoints.interpolation import MAX_ATTEMPTS, check_case
from fatpoints.model import CaseSignature, SystemSpec, binomial, conditions_count, vdim
from fatpoints.reduction import (
    GLUE_RULES,
    KnownResults,
    closure_audit,
    deduce,
    glue,
    validate_glue_rule,
)

from _oracles import rational_oracle

class FakeStore:
    """Minimal certificate-store stand-in for deduction unit tests."""

    def __init__(self, rows):
        self.rows = rows

    def cases(self, d):
        return [r for r in self.rows if r[0].degree == d]


def _known():
    return KnownResults.bootstrap()


def test_catalogue_identities():
    # 4^a,3^b -> (base + 1) with 2a + b = T consumes 20a + 10b = 10 T conditions,
    # those of one (base + 1)-point; 2^5 -> 4 consumes 5 * 4 = 20, those of one 4-point
    for base, total in ((9, 22), (13, 56), (14, 68), (17, 114), (19, 154)):
        assert 10 * total == binomial(base + 3, 3) == conditions_count(base + 1)
    assert 5 * conditions_count(2) == 20 == conditions_count(4)


def test_base_systems_have_vdim_minus_one():
    # N = S = the conditions of the (degree + 1)-point a rule makes, so it keeps the vdim
    for specs in GLUE_RULES.values():
        for spec in specs:
            assert spec.n_monomials == spec.conditions_total == conditions_count(spec.degree + 1)


def test_bootstrap_verifies_base_system():
    known = KnownResults.bootstrap()
    assert list(known.certificates) == [SystemSpec(3, {2: 5})]
    assert known.certify(SystemSpec(3, {2: 5}))


def test_validate_glue_rules(monkeypatch):
    assert list(GLUE_RULES) == ["2^5->4", "4^a,3^b->10"]
    assert GLUE_RULES["2^5->4"] == (SystemSpec(3, {2: 5}),)
    assert GLUE_RULES["4^a,3^b->10"] == tuple(
        SystemSpec(9, {4: a, 3: 22 - 2 * a}) for a in range(12))
    known = _known()
    checked = []
    check = reduction.check_case
    monkeypatch.setattr(reduction, "check_case",
                        lambda spec, seed: checked.append(spec) or check(spec, seed))
    for _ in range(2):
        assert validate_glue_rule("2^5->4", known)
        assert validate_glue_rule("4^a,3^b->10", known)
    # each base system is checked once, and only when its rule is validated
    assert checked == list(GLUE_RULES["4^a,3^b->10"])
    assert list(known.certificates) == [*GLUE_RULES["2^5->4"], *GLUE_RULES["4^a,3^b->10"]]
    certs = [known.certificates[spec] for spec in GLUE_RULES["4^a,3^b->10"]]
    assert [(c.verdict, c.N, c.S, c.rank) for c in certs] == [("non_special", 220, 220, 220)] * 12
    # a non_special system of vdim 3 is no base system of a rule
    assert not known.certify(SystemSpec(3, {2: 4}))
    assert known.certificates[SystemSpec(3, {2: 4})].verdict == "non_special"


def test_glue_reduce_examples():
    assert glue(SystemSpec(30, {2: 9})) == (
        SystemSpec(30, {4: 1, 2: 4}),
        [{"op": "glue", "rule": "2^5->4", "times": 1}],
    )
    assert glue(SystemSpec(22, {4: 11})) == (
        SystemSpec(22, {10: 1}),
        [{"op": "glue", "rule": "4^a,3^b->10", "times": 1, "total_a": 11, "total_b": 0}],
    )
    # simple points ride along untouched
    assert glue(SystemSpec(22, {4: 11, 1: 3}))[0] == SystemSpec(22, {10: 1, 1: 3})
    # q capped by the fixed policy for d=14
    assert glue(SystemSpec(14, {4: 30}))[0] == SystemSpec(14, {10: 1, 4: 19})
    # consuming 4-points first: a maximal
    assert glue(SystemSpec(25, {4: 5, 3: 30}))[0] == SystemSpec(25, {10: 1, 3: 18})
    with pytest.raises(ValueError):
        glue(SystemSpec(22, {5: 1}))


def test_glue_reduce_residual_constraints_for_free_degrees():
    rng = random.Random(4)
    for _ in range(200):
        d = rng.randrange(22, 41)
        spec = SystemSpec(d, {4: rng.randrange(0, 80), 3: rng.randrange(0, 80),
                              2: rng.randrange(0, 80)})
        glued, _ = glue(spec)
        counts = glued.as_dict()
        x, y, z = counts.get(4, 0), counts.get(3, 0), counts.get(2, 0)
        assert z <= 4
        assert 2 * x + y <= 21
        assert counts.get(10, 0) <= max(q_values(d))


def test_glue_reduce_preserves_vdim():
    rng = random.Random(41)
    for _ in range(1000):
        d = rng.randrange(13, 41)
        spec = SystemSpec(d, {4: rng.randrange(0, 120), 3: rng.randrange(0, 120),
                              2: rng.randrange(0, 120), 1: rng.randrange(0, 3)})
        assert vdim(glue(spec)[0]) == vdim(spec)


def test_deduce_window_self_hit():
    sig = CaseSignature(14, 1, 23, 0, 0)  # S = 680
    store = FakeStore([(sig, 680, "non_special")])
    target = SystemSpec(14, {4: 34})  # glues to exactly that case
    result = deduce(target, store, known=_known())
    assert result.ok
    assert result.steps[-1]["op"] == "window_case"
    assert result.steps[-1]["case"] == [14, 1, 23, 0, 0]
    # the same aggregated 10-glue step as the add- and remove-points chains
    assert result.steps[0] == {"op": "glue", "rule": "4^a,3^b->10", "times": 1,
                               "total_a": 11, "total_b": 0}
    json.loads(result.to_json())


def test_deduce_failure_is_a_value():
    store = FakeStore([])
    result = deduce(SystemSpec(14, {4: 34}), store, known=_known())
    assert not result.ok
    assert "no window certificate" in result.reason
    with pytest.raises(ValueError):
        deduce(SystemSpec(14, {5: 2}), store, known=_known())


def test_deduce_requires_validated_rules(short_base_system):
    known = _known()
    assert validate_glue_rule("2^5->4", known)
    assert not validate_glue_rule("4^a,3^b->10", known)
    cert = known.certificates[short_base_system]
    assert cert.verdict == "inconclusive" and cert.attempts == MAX_ATTEMPTS
    sig = CaseSignature(14, 1, 23, 0, 0)
    store = FakeStore([(sig, 680, "non_special")])
    result = deduce(SystemSpec(14, {4: 34}), store, known=known)
    assert not result.ok
    assert "not validated" in result.reason


def test_bootstrap_keeps_a_failed_base_system(short_bootstrap_system):
    # no error: 2^5->4 is refused by the same check as 4^a,3^b->10
    known = KnownResults.bootstrap()
    assert list(known.certificates) == [short_bootstrap_system]
    assert known.certificates[short_bootstrap_system].verdict == "inconclusive"
    assert not validate_glue_rule("2^5->4", known)
    sig = CaseSignature(14, 1, 23, 0, 0)
    result = deduce(SystemSpec(14, {4: 34}), FakeStore([(sig, 680, "non_special")]), known=known)
    assert not result.ok and result.reason == "glue rule 2^5->4 not validated"


def test_deduce_ignores_inconclusive_cases():
    sig = CaseSignature(14, 1, 23, 0, 0)
    store = FakeStore([(sig, 680, "inconclusive")])
    result = deduce(SystemSpec(14, {4: 34}), store, known=_known())
    assert not result.ok


def test_deduce_add_and_remove_routes():
    known = _known()
    # one full-row-rank case: covers every smaller system that can reach it
    indep = CaseSignature(14, 1, 21, 3, 2)  # S = 678 <= N
    # one empty case without 3-points: reachable from pure-2 targets
    empty = CaseSignature(14, 1, 23, 0, 0)  # S = 680 >= N
    store = FakeStore([(indep, 678, "non_special"), (empty, 680, "non_special")])
    small = deduce(SystemSpec(14, {2: 3}), store, known=known)
    assert small.ok
    assert small.steps[-1]["op"] == "independent_case"
    big = deduce(SystemSpec(14, {2: 300}), store, known=known)
    assert big.ok
    assert big.steps[-1]["op"] == "empty_case"
    # with only the independent case, overabundant targets must fail
    store_b = FakeStore([(indep, 678, "non_special")])
    assert not deduce(SystemSpec(14, {2: 300}), store_b, known=known).ok
    # a square case (S = N = 680) has full row AND column rank, so even a
    # deficient target may land on it by adding points
    store_a = FakeStore([(empty, 680, "non_special")])
    assert deduce(SystemSpec(14, {2: 3}), store_a, known=known).ok
    # with only a strictly overabundant case, deficient targets must fail
    over = CaseSignature(14, 1, 23, 1, 0)  # S = 690 > N
    store_o = FakeStore([(over, 690, "non_special")])
    assert not deduce(SystemSpec(14, {2: 3}), store_o, known=known).ok
    # glueing makes 4- and 10-points but never a 3-point, so a 3-bearing
    # case cannot be reached from a pure-2 target: honest failure
    three_case = CaseSignature(14, 1, 22, 1, 3)  # S = 682
    store_c = FakeStore([(three_case, 682, "non_special")])
    assert not deduce(SystemSpec(14, {2: 300}), store_c, known=known).ok


def test_deduce_chain_bookkeeping_consistent():
    known = _known()
    indep = CaseSignature(14, 1, 21, 3, 2)
    store = FakeStore([(indep, 678, "non_special")])
    result = deduce(SystemSpec(14, {2: 3}), store, known=known)
    assert result.ok
    added = next(s["added"] for s in result.steps if s["op"] == "add_points")
    glue10 = next(s for s in result.steps if s.get("rule") == "4^a,3^b->10")
    glue2 = next((s for s in result.steps if s.get("rule") == "2^5->4"), None)
    t2 = glue2["times"] if glue2 else 0
    # conditions added must equal the landed case's S minus the target's
    s_target = SystemSpec(14, {2: 3}).conditions_total
    s_added = 20 * added.get("4", 0) + 10 * added.get("3", 0) + 4 * added.get("2", 0)
    assert s_target + s_added == 678
    # glue arithmetic: 2-points five at a time, 4/3 totals matching 22 per gluing
    assert glue10["total_a"] * 2 + glue10["total_b"] == 22 * glue10["times"]
    assert (3 + added.get("2", 0)) - 5 * t2 == indep.z


def test_subset_monotonicity_small_scale():
    # an empty checked system stays empty under added points
    base = SystemSpec(2, {2: 5})
    cert = check_case(base, seed=6)
    assert cert.verdict == "non_special" and cert.rank == cert.N  # empty
    assert rational_oracle(base, seed=1) == -1
    for extra in ({2: 6}, {2: 5, 1: 3}, {3: 1, 2: 5}, {2: 8}):
        assert rational_oracle(SystemSpec(2, extra), seed=2) == -1


def test_closure_audit_empty_store_all_gaps():
    report = closure_audit(13, FakeStore([]), known=_known())
    assert report.targets_checked > 0
    assert len(report.gaps) == report.targets_checked
    assert not report.ok


def test_closure_audit_refuses_a_record_whose_S_is_not_its_cases():
    # a store filled in memory, not read from a log, meets the audit's own guard
    case = CaseSignature(14, 1, 0, 44, 3)
    cert = check_case(case.to_system(), seed=1)
    store = ResultStore()
    store.add(CertRecord(case, 0, replace(cert, S=cert.S + 4)))
    with pytest.raises(ValueError, match=f"records S = {cert.S + 4}"):
        closure_audit(14, store, known=_known())


def test_closure_audit_partial_store():
    known = _known()
    # a real window case for d=13: N = 560, window [557, 579]
    sig = CaseSignature(13, 1, 16, 1, 2)  # S = 220+320+10+8 = 558
    store = FakeStore([(sig, 558, "non_special")])
    report = closure_audit(13, store, known=known)
    assert report.targets_checked > len(report.gaps)  # some targets now deduce
    assert not report.ok  # but one case cannot close a whole degree


@pytest.mark.parametrize("d, targets", [(13, 4698), (14, 6825), (19, 33657), (22, 74298)])
def test_window_targets_glue_onto_algorithm_b_cases(d, targets):
    # The window and the 10-point policy must agree: every target whose S is
    # in the window glues onto a case the enumeration hands to the campaign.
    cases = {c.key() for c in algorithm_b_cases(d)}
    w = window(binomial(d + 3, 3))
    hi = w[-1]
    seen = 0
    misses = []
    for x in range(hi // 20 + 1):
        for y in range((hi - 20 * x) // 10 + 1):
            for z in range((hi - 20 * x - 10 * y) // 4 + 1):
                if 20 * x + 10 * y + 4 * z not in w:
                    continue
                seen += 1
                glued, _ = glue(SystemSpec(d, {4: x, 3: y, 2: z}))
                if CaseSignature.from_system(glued).key() not in cases:
                    misses.append((x, y, z))
    assert seen == targets
    assert misses == []


def _store(d, keep=1.0, seed=0, flip=0.0):
    """Algorithm-B cases of d kept with probability keep, some flipped to inconclusive."""
    rng = random.Random(seed)
    rows = []
    for case in algorithm_b_cases(d):
        if rng.random() < keep:
            verdict = "inconclusive" if rng.random() < flip else "non_special"
            rows.append((case, case.conditions_total, verdict))
    return FakeStore(rows)


def _targets(d, s_limit=None):
    """Every (x, y, z) the audit covers, in its order: S <= N + 44, or S <= s_limit."""
    bound = s_limit if s_limit is not None else binomial(d + 3, 3) + 44
    for x in range(bound // 20 + 1):
        for y in range((bound - 20 * x) // 10 + 1):
            for z in range((bound - 20 * x - 10 * y) // 4 + 1):
                yield x, y, z


def _up_to(gaps, s_limit):
    """The gaps whose S is at most s_limit, in their order."""
    return [(x, y, z) for x, y, z in gaps if 20 * x + 10 * y + 4 * z <= s_limit]


def _target_count(d):
    bound = binomial(d + 3, 3) + 44
    total = 0
    for rest in range(bound, -1, -20):
        y = np.arange(rest // 10 + 1)
        total += int(((rest - 10 * y) // 4 + 1).sum())
    return total


def _deduces(d, target, store, known):
    x, y, z = target
    return deduce(SystemSpec(d, {4: x, 3: y, 2: z}), store, known=known).ok


@pytest.fixture
def oracle(monkeypatch):
    """The audit's (targets_checked, gaps) from one deduce call per target.

    Each store's table is built once rather than once per deduce call, which
    saves time only: deduce reads the same rows.
    """
    tables = {}
    build = reduction._degree_table

    def table_once(store, d):
        if (id(store), d) not in tables:
            tables[id(store), d] = build(store, d)
        return tables[id(store), d]

    monkeypatch.setattr(reduction, "_degree_table", table_once)

    def run(d, store, known, s_limit=None):
        targets = list(_targets(d, s_limit))
        return len(targets), [t for t in targets if not _deduces(d, t, store, known)]

    return run


def test_closure_audit_equals_deduce_on_a_complete_table(oracle):
    known = _known()
    store = _store(14)
    report = closure_audit(14, store, known=known)
    assert (report.targets_checked, report.gaps) == oracle(14, store, known) == (85100, [])


# s_limit bounds the targets deduce is asked about, to keep the oracle quick
@pytest.mark.parametrize("d, keep, seed, s_limit", [
    (13, 0.5, 1, None),
    (14, 0.7, 4, 700),
])
def test_closure_audit_equals_deduce_on_thinned_tables(oracle, d, keep, seed, s_limit):
    known = _known()
    store = _store(d, keep, seed, flip=0.1)
    assert any(verdict == "inconclusive" for _, _, verdict in store.rows)
    report = closure_audit(d, store, known=known)
    assert report.targets_checked == _target_count(d)
    gaps = report.gaps if s_limit is None else _up_to(report.gaps, s_limit)
    assert gaps
    assert gaps == oracle(d, store, known, s_limit)[1]


def test_closure_audit_without_validated_rules_lists_every_target(oracle, short_base_system):
    known = _known()
    store = _store(14)
    report = closure_audit(14, store, known=known)
    assert report.targets_checked == 85100
    assert report.gaps == list(_targets(14))
    assert _up_to(report.gaps, 300) == oracle(14, store, known, 300)[1]


def _boundary_targets(d, store, rng, pairs=40, rows=6):
    """Targets at the edges of each chain's z range, for random (x, y) and rows.

    The z where the independent chain of a row stops (z_c + 5K), where the
    empty chain starts (z_c + 5 t2_lo) and where S crosses N, each with a
    neighbour on the other side.
    """
    N = binomial(d + 3, 3)
    bound = N + 44
    cases = [case for case, _, _ in store.rows]
    out = []
    for _ in range(pairs):
        x = rng.randrange(bound // 20 + 1)
        y = rng.randrange((bound - 20 * x) // 10 + 1)
        base = 20 * x + 10 * y
        zs = [(N - base) // 4, (N - base) // 4 + 1]
        for c in rng.sample(cases, min(rows, len(cases))):
            hi_a = min(11 * c.q, (c.y + 22 * c.q - y) // 2)
            lo_a = max(0, -((y - c.y - 22 * c.q) // 2))
            t2_lo = max(0, lo_a + c.x - x)
            zs += [c.z + 5 * (hi_a + c.x - x) + dz for dz in (0, 1)]
            zs += [c.z + 5 * t2_lo + dz for dz in (-1, 0, 1)]
        out += [(x, y, z) for z in zs if 0 <= z <= (bound - base) // 4]
    return out


@pytest.mark.parametrize("d", [18, 22, 30])
@pytest.mark.parametrize("keep", [1.0, 0.7])
def test_closure_audit_agrees_with_deduce_on_sampled_targets(monkeypatch, d, keep):
    known = _known()
    store = _store(d, keep, seed=d, flip=0.1 if keep < 1 else 0.0)
    table = reduction._degree_table(store, d)
    monkeypatch.setattr(reduction, "_degree_table", lambda _store, _d: table)
    report = closure_audit(d, store, known=known)
    assert report.targets_checked == _target_count(d)
    gaps = set(report.gaps)
    assert len(gaps) == len(report.gaps)
    assert bool(gaps) == (keep < 1)
    rng = random.Random(1000 + d)
    bound = binomial(d + 3, 3) + 44
    probes = rng.sample(report.gaps, min(200, len(report.gaps)))
    for _ in range(200):
        x = rng.randrange(bound // 20 + 1)
        y = rng.randrange((bound - 20 * x) // 10 + 1)
        probes.append((x, y, rng.randrange((bound - 20 * x - 10 * y) // 4 + 1)))
    probes += _boundary_targets(d, store, rng)
    wrong = [t for t in probes if _deduces(d, t, store, known) == (t in gaps)]
    assert wrong == []


@pytest.mark.parametrize("d", [
    pytest.param(d, marks=pytest.mark.slow) if d >= 31 else d for d in range(13, 41)
])
def test_every_degree_closes_on_its_algorithm_b_cases(d):
    report = closure_audit(d, _store(d), known=_known())
    assert report.gaps == []
    assert report.targets_checked == _target_count(d)


def test_audit_target_counts():
    assert _target_count(14) == 85100
    assert _target_count(40) == 397405430
    assert sum(_target_count(d) for d in range(13, 41)) == 1885152046
