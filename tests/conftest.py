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


@pytest.fixture
def short_base_system(monkeypatch):
    """Every rank check of L(9; 4^11), a base system of 4^a,3^b->10, comes back one short.

    Its certificate is then inconclusive, so that rule is not valid.  The
    default registry starts afresh, so a command certifies under the plant.
    Returns the planted system.
    """
    run = interpolation._run_family
    base = SystemSpec(9, {4: 11})

    def short(head, members, *args):
        ranks = run(head, members, *args)
        return [r - 1 for r in ranks] if head == base else ranks

    monkeypatch.setattr(interpolation, "_run_family", short)
    monkeypatch.setattr(reduction, "_default_known", None)
    return base
