"""The runtime's recovery managers: undo logs and intentions lists (Section 5).

The managers are the ``View`` half of an object and live in
:mod:`repro.core.recovery`, where the abstract automaton shares them —
what the cursor-equivalence and refinement suites prove is proved of the
classes the runtime executes.  This module re-exports them and picks one
by recovery-method name.

The one thing the runtime does that the automaton never does is
``uip_strategy="auto" | "logical"``: undo by inverse operations, O(own
operations) per abort instead of a replay.  It equals the abstract UIP
view exactly when the object's conflict relation contains NRBC — which
:func:`~repro.runtime.durability.recovery_conflict` guarantees for every
object the builders construct; a hand-built object under a weaker
relation should pass ``uip_strategy="replay"``.
"""

from __future__ import annotations

from ..core.automaton_spec import StateMachineSpec
from ..core.recovery import (
    DeferredUpdateManager,
    MacroState,
    RecoveryManager,
    StrictUpdateInPlaceManager,
    UpdateInPlaceManager,
    ViewRecoveryManager,
)

__all__ = [
    "DeferredUpdateManager",
    "MacroState",
    "RecoveryManager",
    "StrictUpdateInPlaceManager",
    "UpdateInPlaceManager",
    "ViewRecoveryManager",
    "make_recovery_manager",
]


def make_recovery_manager(
    adt: StateMachineSpec, method: str, *, uip_strategy: str = "auto"
) -> RecoveryManager:
    """Factory: ``method`` is ``"UIP"``, ``"DU"`` or ``"SUIP"`` (case-insensitive)."""
    method = method.upper()
    if method == "UIP":
        return UpdateInPlaceManager(adt, strategy=uip_strategy)
    if method == "DU":
        return DeferredUpdateManager(adt)
    if method == "SUIP":
        return StrictUpdateInPlaceManager(adt)
    raise ValueError(
        "unknown recovery method %r (want 'UIP', 'DU' or 'SUIP')" % method
    )
