import time

import pytest

import fatpoints.interpolation as interpolation
import fatpoints.reduction as reduction
from fatpoints.campaign import CampaignConfig, run_campaign
from fatpoints.model import SystemSpec


@pytest.fixture(scope="session")
def d14_run(tmp_path_factory):
    """Complete d=14 campaign, shared by the acceptance criteria tests.

    Returns the log path, the run summary and the wall time of the sweep.
    """
    out = tmp_path_factory.mktemp("campaign") / "d14.jsonl"
    t0 = time.perf_counter()
    summary = run_campaign(CampaignConfig(degrees=(14, 14), out=out, base_seed=14))
    elapsed = time.perf_counter() - t0
    assert summary["ok"], f"d=14 campaign did not come back clean: {summary}"
    return {"path": out, "summary": summary, "elapsed": elapsed}


def _short_rank(monkeypatch, base: SystemSpec) -> SystemSpec:
    """Plant: every rank check of base comes back one short, so its certificate is inconclusive.

    The default registry starts afresh, so a command certifies under the
    plant.  Returns base.
    """
    run = interpolation._run_family

    def short(head, members, *args):
        ranks = run(head, members, *args)
        return [r - 1 for r in ranks] if head == base else ranks

    monkeypatch.setattr(interpolation, "_run_family", short)
    monkeypatch.setattr(reduction, "_default_known", None)
    return base


@pytest.fixture
def short_base_system(monkeypatch):
    """L(9; 4^11), a base system of 4^a,3^b->10, planted one short, so that rule is not valid."""
    return _short_rank(monkeypatch, SystemSpec(9, {4: 11}))


@pytest.fixture
def short_bootstrap_system(monkeypatch):
    """L(3; 2^5), the base system of 2^5->4 that bootstrap checks, planted one short."""
    return _short_rank(monkeypatch, SystemSpec(3, {2: 5}))
