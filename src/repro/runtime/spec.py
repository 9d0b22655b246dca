"""One system spec: the knobs, the builder and the scheduler every runner uses.

The paper has one object implementation, ``I(X, Spec, View, Conflict)``,
with the recovery method's View and Conflict as parameters (Section 4).
:class:`SystemSpec` holds the knobs that pick that system for a run and
the scheduler's budgets, and is their one validator;
:class:`~repro.runtime.torture.TortureConfig` and
:class:`~repro.runtime.openloop.OpenLoopConfig` derive from it and add
their workloads.  ``repro run``, a torture schedule and an open-loop
drive each make the same two calls: :meth:`SystemSpec.build_system` and
:meth:`SystemSpec.scheduler`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Tuple

from ..adts.registry import check_kind
from .durability import build_durable_object
from .replication import build_replicated_system
from .scheduler import Fault, Scheduler, TransactionScript
from .sharding import build_sharded_system
from .system import TransactionSystem
from .wal import StableLog

#: Ticks a run with arrivals may go on past its last arrival, whatever
#: ``max_ticks`` says: every offered transaction must be able to drain.
DRAIN_TICKS = 10_000


def at_least(config, name: str, floor) -> None:
    """``ValueError`` unless the knob ``name`` is ``>= floor``.  Every
    config message begins with the knob's field name."""
    value = getattr(config, name)
    if value < floor:
        raise ValueError("%s must be >= %r (got %r)" % (name, floor, value))


def fraction(config, name: str) -> None:
    """``ValueError`` unless the knob ``name`` is a share, in [0, 1]."""
    value = getattr(config, name)
    if not 0.0 <= value <= 1.0:
        raise ValueError("%s must be in [0, 1] (got %g)" % (name, value))


@dataclass(frozen=True)
class SystemSpec:
    """The system of one run and its scheduler's budgets (plain values only)."""

    adt_kind: str
    recovery: str = "DU"  # "UIP" | "DU"
    group_commit: int = 1  # force-request batch size (1 = classic per-commit force)
    hold: int = 0  # max ticks a short batch is held before flushing anyway
    sites: int = 1  # > 1: a copy of every object per site
    max_restarts: int = 25
    max_ticks: int = 100_000

    def __post_init__(self) -> None:
        check_kind(self.adt_kind)
        if self.recovery not in ("UIP", "DU"):
            raise ValueError("recovery must be 'UIP' or 'DU', not %r" % (self.recovery,))
        at_least(self, "group_commit", 1)
        at_least(self, "hold", 0)
        at_least(self, "sites", 1)
        at_least(self, "max_restarts", 0)
        at_least(self, "max_ticks", 1)

    def label(self) -> str:
        return "%s/%s" % (self.adt_kind, self.recovery)

    def build_system(
        self, names: Optional[Sequence[str]] = None, *, shards: int = 0,
        replicated: bool = False, make_log=StableLog, history: bool = True,
        **durable_options,
    ) -> TransactionSystem:
        """The system of the spec, one object per name: replicated with
        ``sites > 1`` or ``replicated`` (``names=None``: the one logical
        object ``X``); else sharded when ``shards`` is given (one shard
        still stamps ``shard: 0`` on its trace events); else flat
        (``names=None``: one object under the ADT's default name), its
        objects on ``make_log(policy=...)`` logs — ``StableLog`` or a
        partial ``FaultyStableLog`` — with ``durable_options``
        (``restart_policy=``), which replicated objects take too.
        Replicated and sharded objects log to plain stable logs.
        ``history=False`` keeps no audit record."""
        knobs = dict(
            recovery=self.recovery, group_commit=self.group_commit, hold=self.hold,
            history=history,
        )
        if replicated or self.sites > 1:
            return build_replicated_system(
                self.adt_kind, names or ["X"], sites=self.sites, **knobs, **durable_options
            )
        if shards:
            return build_sharded_system(self.adt_kind, names, shards=shards, **knobs)
        objects = [
            build_durable_object(
                self.adt_kind, name, self.recovery, self.group_commit, self.hold,
                make_log, **durable_options,
            )
            for name in names or [None]
        ]
        return TransactionSystem(objects, history=history)

    def scheduler(
        self, system: TransactionSystem, scripts: Sequence[TransactionScript] = (),
        *, seed: int, faults: Iterable[Fault] = (), trace=None,
        arrivals: Iterable[Tuple[TransactionScript, int]] = (), last_arrival: int = 0,
        audit: Optional[Callable[[], None]] = None,
    ) -> Scheduler:
        """The scheduler of one run over ``system`` — ``scripts`` from
        tick 0, the ``(script, tick)`` stream ``arrivals``, the fault
        calendar ``faults``, the ``audit`` hook of each crash point —
        under the spec's ``max_restarts`` and ``max_ticks``, stretched to
        :data:`DRAIN_TICKS` past ``last_arrival``, the tick of the last
        arrival."""
        max_ticks = self.max_ticks
        if last_arrival:
            max_ticks = max(max_ticks, last_arrival + DRAIN_TICKS)
        return Scheduler(
            system, scripts, seed=seed, max_restarts=self.max_restarts,
            max_ticks=max_ticks, label=self.label(), faults=faults, trace=trace,
            arrivals=arrivals, audit=audit,
        )
