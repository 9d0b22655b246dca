"""Product ADTs: compose independent components into one object.

A :class:`ProductADT` bundles several component ADTs into a single
serial specification: the state is a tuple of component states and each
operation targets one component (invocation names are prefixed,
``"savings.deposit"``).  Products model *records* — an object with
several independent fields — and make lock granularity an experiment
instead of an assumption:

* operations on *different* components always commute (in both
  senses), and the composed NFC/NRBC relations encode that: conflicts
  are delegated to the owning component and cross-component pairs are
  conflict-free;
* the same record can instead be managed as one coarse object under
  read/write locks, or as separate objects — EXP-C8 compares the three
  layouts on identical workloads.

Composition laws (tested):

* legality decomposes: a product sequence is legal iff each component's
  projection is legal;
* commutativity decomposes: same-component pairs inherit the component
  verdict, cross-component pairs commute;
* recovery hooks decompose: ``apply``/``undo`` delegate, and logical
  undo is supported iff every component supports it.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..core.conflict import ConflictRelation, OperationClass, PredicateConflict
from ..core.events import Invocation, Operation, inv
from .base import ADT


def _split(name: str) -> Tuple[Optional[str], str]:
    """``"savings.deposit"`` -> ``("savings", "deposit")``."""
    component, sep, op_name = name.partition(".")
    if not sep:
        return None, name
    return component, op_name


class ProductADT(ADT):
    """The independent product of named component ADTs."""

    def __init__(self, name: str, components: Mapping[str, ADT]):
        super().__init__(name)
        if not components:
            raise ValueError("a product needs at least one component")
        self._components: Dict[str, ADT] = dict(components)
        self._order: Tuple[str, ...] = tuple(sorted(self._components))
        self.supports_logical_undo = all(
            c.supports_logical_undo for c in self._components.values()
        )
        depths = [
            c.analysis_context_depth
            for c in self._components.values()
            if c.analysis_context_depth is not None
        ]
        # Bounded if any component is bounded (unbounded state spaces
        # poison the product too).
        self.analysis_context_depth = max(depths) if depths else None
        futures = [
            c.analysis_future_depth
            for c in self._components.values()
            if c.analysis_future_depth is not None
        ]
        self.analysis_future_depth = max(futures) if futures else None

    @property
    def components(self) -> Dict[str, ADT]:
        return dict(self._components)

    # -- specification -------------------------------------------------------------

    def initial_state(self) -> Tuple:
        return tuple(
            self._components[c].initial_state() for c in self._order
        )

    def transitions(self, state: Tuple, invocation: Invocation):
        component, op_name = _split(invocation.name)
        if component is None or component not in self._components:
            return
        index = self._order.index(component)
        inner = self._components[component]
        inner_invocation = Invocation(op_name, invocation.args)
        for response, nxt in inner.transitions(state[index], inner_invocation):
            new_state = state[:index] + (nxt,) + state[index + 1 :]
            yield response, new_state

    # -- projections -----------------------------------------------------------------

    def component_of(self, operation: Operation) -> str:
        """The component an operation targets (raises for foreign ops)."""
        component, _ = _split(operation.name)
        if component not in self._components:
            raise ValueError("not a %s operation: %s" % (self.name, operation))
        return component

    def project_operation(self, operation: Operation) -> Operation:
        """The component-local rendition of a product operation."""
        component, op_name = _split(operation.name)
        inner = self._components[component]
        return inner.operation(
            Invocation(op_name, operation.invocation.args), operation.response
        )

    def lift_invocation(self, component: str, invocation: Invocation) -> Invocation:
        """Prefix a component invocation into the product namespace."""
        return Invocation(
            "%s.%s" % (component, invocation.name), invocation.args
        )

    # -- analysis hooks ---------------------------------------------------------------

    def invocation_alphabet(
        self, domain: Optional[Sequence] = None
    ) -> Tuple[Invocation, ...]:
        result = []
        for component in self._order:
            inner = self._components[component]
            for invocation in inner.invocation_alphabet():
                result.append(self.lift_invocation(component, invocation))
        return tuple(result)

    def operation_classes(
        self, domain: Optional[Sequence] = None
    ) -> Tuple[OperationClass, ...]:
        classes = []
        for component in self._order:
            inner = self._components[component]
            for cls in inner.operation_classes():
                classes.append(
                    OperationClass(
                        "%s.%s" % (component, cls.label),
                        tuple(
                            self.operation(
                                self.lift_invocation(component, o.invocation),
                                o.response,
                            )
                            for o in cls.instances
                        ),
                    )
                )
        return tuple(classes)

    def classify(self, operation: Operation) -> str:
        component = self.component_of(operation)
        inner_label = self._components[component].classify(
            self.project_operation(operation)
        )
        return "%s.%s" % (component, inner_label)

    # -- composed conflict relations ----------------------------------------------------

    def nfc_conflict(self, domain: Optional[Sequence] = None) -> ConflictRelation:
        return self._composed("nfc")

    def nrbc_conflict(self, domain: Optional[Sequence] = None) -> ConflictRelation:
        return self._composed("nrbc")

    def _composed(self, relation: str) -> ConflictRelation:
        inner_relations = {
            component: (
                adt.nfc_conflict() if relation == "nfc" else adt.nrbc_conflict()
            )
            for component, adt in self._components.items()
        }

        def conflicts(new: Operation, old: Operation) -> bool:
            new_component = self.component_of(new)
            old_component = self.component_of(old)
            if new_component != old_component:
                return False  # independence: cross-component ops commute
            return inner_relations[new_component].conflicts(
                self.project_operation(new), self.project_operation(old)
            )

        return PredicateConflict(
            conflicts, name="%s(%s)" % (relation.upper(), self.name)
        )

    # -- runtime hooks ----------------------------------------------------------------------

    def apply(self, state: Tuple, operation: Operation) -> Tuple:
        component = self.component_of(operation)
        index = self._order.index(component)
        inner = self._components[component]
        new_component_state = inner.apply(
            state[index], self.project_operation(operation)
        )
        return state[:index] + (new_component_state,) + state[index + 1 :]

    def undo(self, state: Tuple, operation: Operation) -> Tuple:
        component = self.component_of(operation)
        index = self._order.index(component)
        inner = self._components[component]
        new_component_state = inner.undo(
            state[index], self.project_operation(operation)
        )
        return state[:index] + (new_component_state,) + state[index + 1 :]
