"""Site-crash torture for the replicated runtime.

The campaign drives workloads while sites fail and recover at scheduled
ticks, then audits catch-up completeness, copy convergence, and dynamic
atomicity of the *merged* multi-site history — the global serialization
claim a recovered-but-stale copy would break.  The ``skip-catchup``
negative control plants exactly that bug and must be detected.
"""

import pytest

from repro.runtime.faults import FaultPlan
from repro.runtime.torture import (
    SiteCrash,
    TortureConfig,
    describe_site_schedule,
    plan_campaign,
    run_schedule,
    run_torture,
)
from repro.runtime.trace import TraceCollector


def _config(**overrides):
    base = dict(adt_kind="counter", recovery="DU", sites=2)
    base.update(overrides)
    return TortureConfig(
        base.pop("adt_kind"), base.pop("recovery"), **base
    )


# ---------------------------------------------------------------------------
# schedules and planning
# ---------------------------------------------------------------------------


def test_site_crash_describes_like_torture_schedules():
    assert SiteCrash(1, 10, 40).describe() == "site1@10-40"
    assert SiteCrash(0, 7).describe() == "site0@7-end"
    plan = describe_site_schedule([SiteCrash(0, 3, 9), SiteCrash(1, 5)])
    assert plan == "site0@3-9,site1@5-end"


def test_plan_site_campaign_is_deterministic():
    configs = [_config(), _config(adt_kind="bank")]
    a = plan_campaign(configs, schedules=10, seed=5)
    b = plan_campaign(configs, schedules=10, seed=5)
    assert [(c.label(), s, r) for c, s, r in a] == [
        (c.label(), s, r) for c, s, r in b
    ]
    assert len(a) == 10
    # round-robin: both configs get schedules
    labels = {c.label() for c, _, _ in a}
    assert len(labels) == 2


#: ``(label, schedule, run_seed)`` of the site-crash campaign over
#: counter/DU/x2 and bank/DU/x2 at seed 5, as the dedicated site planner
#: drew them before it folded into ``plan_campaign``.
PINNED_SITE_DRAWS = [
    ("counter/DU/x2", "site1@1-end", 1539898300),
    ("bank/DU/x2", "site0@1-end", 1999834075),
    ("counter/DU/x2", "site0@1-2", 673671309),
    ("bank/DU/x2", "site0@1-7", 2014636194),
    ("counter/DU/x2", "no-crashes", 930847394),
    ("bank/DU/x2", "site0@7-end,site1@2-end", 1910554750),
    ("counter/DU/x2", "site0@2-end", 567970168),
    ("bank/DU/x2", "site0@2-end", 22819762),
    ("counter/DU/x2", "site0@2-6", 712347993),
    ("bank/DU/x2", "site0@2-7", 1347122362),
]


def test_plan_campaign_keeps_the_site_draw_order():
    configs = [_config(), _config(adt_kind="bank")]
    cells = plan_campaign(configs, schedules=10, seed=5)
    assert [
        (c.label(), describe_site_schedule(s), r) for c, s, r in cells
    ] == PINNED_SITE_DRAWS


def test_mixed_campaign_draws_each_config_its_own_kind_of_plan():
    one_site, two_sites = _config(sites=1), _config()
    cells = plan_campaign([one_site, two_sites], schedules=9, seed=3)
    for i, (config, plan, _) in enumerate(cells):
        assert config == (one_site, two_sites)[i % 2]
        if config.sites == 1:
            assert isinstance(plan, FaultPlan)
        else:
            assert all(isinstance(row, SiteCrash) for row in plan)
    report = run_torture([one_site, two_sites], schedules=6, seed=3)
    assert report.ok, "\n".join(v.format() for v in report.violations)
    assert report.per_config == {"counter/DU": 3, "counter/DU/x2": 3}


@pytest.mark.parametrize(
    "overrides",
    [
        dict(bug="skip-catchup", sites=1),
        dict(bug="skip-commit-force", sites=2),
        dict(checkpoint_every=5, sites=2),
        dict(bug="skip-everything", sites=2),
    ],
    ids=["catchup-bug-one-site", "force-bug-sites", "checkpoint-sites", "unknown-bug"],
)
def test_config_refuses_what_its_runner_would_ignore(overrides):
    with pytest.raises(ValueError):
        _config(**overrides)


# ---------------------------------------------------------------------------
# the invariants hold across the matrix
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("recovery", ["DU", "UIP"])
@pytest.mark.parametrize("adt_kind", ["counter", "bank"])
def test_site_crash_campaign_preserves_invariants(adt_kind, recovery):
    report = run_torture(
        [_config(adt_kind=adt_kind, recovery=recovery)],
        schedules=6,
        seed=9,
    )
    assert report.ok, "\n".join(v.format() for v in report.violations)
    assert report.schedules == 6
    assert report.committed > 0


def test_three_site_campaign_with_group_commit():
    report = run_torture(
        [_config(sites=3, group_commit=2, hold=3)],
        schedules=5,
        seed=2,
    )
    assert report.ok, "\n".join(v.format() for v in report.violations)


def test_crash_without_recovery_still_audits_clean():
    # the site stays down for the whole run; the post-run recovery and
    # catch-up poll must still converge the copies
    result = run_schedule(
        _config(), [SiteCrash(site=1, fail_tick=3)], seed=4
    )
    assert result.violations == []


def test_all_sites_down_window_aborts_cleanly():
    # both sites down at once: arrivals block with no holders and the
    # aging victim path aborts them; no invariant may break
    crashes = [SiteCrash(0, 4, 10), SiteCrash(1, 5, 11)]
    result = run_schedule(_config(), crashes, seed=1)
    assert result.violations == []


def test_site_schedule_emits_reconcilable_trace():
    trace = TraceCollector()
    result = run_schedule(
        _config(), [SiteCrash(site=1, fail_tick=3, recover_tick=9)],
        seed=0,
        trace=trace,
    )
    assert result.violations == []
    kinds = {e["kind"] for e in trace.events}
    assert "site-failure" in kinds
    assert "site-recovery" in kinds


# ---------------------------------------------------------------------------
# the negative control is detected
# ---------------------------------------------------------------------------


def test_skip_catchup_bug_is_detected():
    config = _config(bug="skip-catchup")
    hits = 0
    for seed in range(6):
        result = run_schedule(
            config, [SiteCrash(site=1, fail_tick=3, recover_tick=12)],
            seed=seed,
        )
        hits += bool(result.violations)
    assert hits > 0, "the planted catch-up bug was never detected"
