"""Crash recovery in action: stable logs, restart, and durability audit.

Run:  python examples/crash_recovery.py

The paper defers crash recovery; this example runs the built substrate:
a bank account under each recovery method is driven through commits and
in-flight work, the whole system crashes (volatile state and in-flight
transactions vanish — nothing is undone, no log records are written for
the victims), and restart rebuilds the committed state from the stable
log.  The audit shows the restart state equals the abstract view of the
post-crash history, and prints the log-traffic difference between
write-ahead (UIP) and redo-only (DU) logging.
"""

from repro.adts import BankAccount
from repro.core import inv, is_dynamic_atomic
from repro.core.views import DU, UIP
from repro.runtime.system import ManagedObject, TransactionSystem
from repro.runtime.wal import StableLog


def demo(recovery: str) -> None:
    ba = BankAccount("BA")
    conflict = ba.nrbc_conflict() if recovery == "UIP" else ba.nfc_conflict()
    view = UIP if recovery == "UIP" else DU
    system = TransactionSystem([ManagedObject(ba, conflict, recovery, log=StableLog())])
    obj = system.objects["BA"]

    print("== %s ==" % recovery)
    # Committed work: survives.
    system.invoke("A", "BA", inv("deposit", 10))
    system.commit("A")
    system.invoke("B", "BA", inv("deposit", 5))
    system.commit("B")
    # In-flight work: will vanish.
    system.invoke("C", "BA", inv("withdraw", 8))
    print("pre-crash committed balance view: deposit(10)+deposit(5) = 15")
    print("in flight at crash: C's withdraw(8) (uncommitted)")

    victims = system.crash()
    print("crash! victims: %s" % sorted(victims))
    print("log after crash: %d records, %d forces" % (len(obj.wal.log), obj.wal.log.forces))

    restored = obj.recovery.macro("PROBE")
    expected = ba.states_after(view(system.history(), "PROBE"))
    print("restart state: %s (abstract view: %s, equal: %s)"
          % (set(restored), set(expected), restored == expected))

    # Post-crash transactions see exactly the committed state.
    outcome = system.invoke("D", "BA", inv("balance"))
    print("post-crash balance read:", outcome.operation.response)
    system.commit("D")
    print("history spanning the crash is dynamic atomic:",
          is_dynamic_atomic(system.history(), ba))

    # Checkpoint: the log shrinks, the state is preserved.
    obj.checkpoint()
    print("after checkpoint: %d log record(s); restart still %s"
          % (len(obj.wal.log), set(obj.wal.restart())))
    print()


def main() -> None:
    demo("UIP")
    demo("DU")


if __name__ == "__main__":
    main()
