"""EXP-C17: availability under site failure — replication vs one site.

The available-copies protocol serves every logical object from whichever
copies are still in service, so losing a site mid-run costs nothing that
the surviving sites can absorb.  The claims this bench pins down:

1. **Availability gap** — with ``sites=2`` and one site crashed
   permanently mid-run, the full offered load still commits
   (availability 1.0): the surviving copies keep serving reads and
   writes.  The identical workload on a single site whose only copy
   crashes at the same tick strands every transaction past the outage
   (availability well under 1).
2. **sites=1 byte-identity** — the replicated runtime collapses to the
   flat crashable system when there is one copy per object: identical
   object histories and identical ``RunMetrics`` over the same seeded
   workload.  Recorded as equality fields (``identical_history``,
   ``identical_metrics``).
3. **Timing context** — wall-clock drive times (``times_s``) ride along
   for the trend gate; everything else is deterministic per seed.
"""

import json
import pathlib
import random
import time

import pytest

from repro.adts.registry import make_adt
from repro.runtime.system import ManagedObject, TransactionSystem
from repro.runtime.openloop import OpenLoopConfig, drive
from repro.runtime.scheduler import Scheduler
from repro.runtime.replication import build_replicated_system
from repro.runtime.torture import TortureConfig, workload_for
from repro.runtime.wal import GroupCommitPolicy, StableLog

ARTIFACT = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_replication.json"
)

SEED = 11
# The site goes down at tick 14 and never recovers: a closed outage
# window would let queued single-site arrivals retry to completion and
# hide the gap, so the schedule that shows availability is the one with
# no recovery.
FAIL_TICK = 14


def drive_config(sites: int) -> OpenLoopConfig:
    # crash the *last* site so the sites=1 and sites=2 schedules take
    # out one copy each at the same tick
    return OpenLoopConfig(
        adt_kind="counter",
        objects=8,
        shards=1,
        transactions=48,
        ops_per_txn=3,
        arrival_rate=2.0,
        zipf_s=1.1,
        group_commit=2,
        hold=2,
        sites=sites,
        site_crashes=((sites - 1, FAIL_TICK, 0),),
    )


def timed_drive(sites: int):
    start = time.perf_counter()
    report = drive(drive_config(sites), seed=SEED)
    return time.perf_counter() - start, report


def sites1_identity():
    """Replicated runtime at sites=1 vs the flat crashable system."""
    config = TortureConfig(
        "bank",
        "DU",
        transactions=8,
        ops_per_txn=3,
        group_commit=2,
        hold=3,
        sites=1,
    )

    def run(system, adt):
        scripts = workload_for(config, adt, random.Random(SEED))
        metrics = Scheduler(system, scripts, seed=SEED).run()
        events = {
            n: [str(e) for e in system.objects[n].history().events]
            for n in system.objects
        }
        return metrics, events

    adt = make_adt("bank", "X")
    policy = GroupCommitPolicy(2, 3)
    flat = TransactionSystem(
        [
            ManagedObject(
                adt,
                adt.nfc_conflict(),
                "DU",
                log=StableLog(policy=policy),
            )
        ]
    )
    replicated = build_replicated_system(
        "bank", ["X"], sites=1, recovery="DU", group_commit=2, hold=3
    )
    rep_adt = replicated.objects["X"].adt
    flat_metrics, flat_events = run(flat, adt)
    rep_metrics, rep_events = run(replicated, rep_adt)
    return {
        "identical_history": flat_events == rep_events,
        "identical_metrics": flat_metrics == rep_metrics,
        "committed": flat_metrics.committed,
    }


@pytest.mark.experiment("EXP-C17")
def test_replication_availability_beats_single_site(benchmark, capsys):
    """Same load, same outage tick: two sites ride it out, one cannot."""
    wall_rep, replicated = benchmark.pedantic(
        lambda: timed_drive(2), rounds=1, iterations=1
    )
    wall_alone, alone = timed_drive(1)
    assert replicated.offered == alone.offered == 48

    identity = sites1_identity()
    record = {
        "experiment": "EXP-C17",
        "workload": {
            "adt": "counter",
            "objects": 8,
            "transactions": 48,
            "arrival_rate": 2.0,
            "zipf": 1.1,
            "fail_tick": FAIL_TICK,
            "seed": SEED,
        },
        "replicated": {
            "label": replicated.label,
            "sites": replicated.sites,
            "availability": replicated.availability,
            "committed": replicated.metrics.committed,
            "site_failures": sum(r["failures"] for r in replicated.per_site),
            "per_site": replicated.per_site,
        },
        "single_site": {
            "label": alone.label,
            "sites": alone.sites,
            "availability": alone.availability,
            "committed": alone.metrics.committed,
            "site_failures": sum(r["failures"] for r in alone.per_site),
        },
        "sites1_identity": identity,
        "times_s": {"replicated": wall_rep, "single_site": wall_alone},
    }
    ARTIFACT.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    with capsys.disabled():
        print(
            "\n-- EXP-C17 replication: x2 availability %.3f (%d/%d) vs "
            "single-site %.3f (%d/%d), sites=1 identity %s --"
            % (
                replicated.availability,
                replicated.metrics.committed,
                replicated.offered,
                alone.availability,
                alone.metrics.committed,
                alone.offered,
                identity["identical_history"]
                and identity["identical_metrics"],
            )
        )
    # The headline claim: the surviving site absorbs the whole load.
    assert replicated.availability == 1.0
    assert alone.availability < 0.5
    # And replication is routing metadata when there is only one copy.
    assert identity["identical_history"]
    assert identity["identical_metrics"]
