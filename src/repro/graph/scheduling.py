"""Triangular scheduling of clock and signal computations.

Code generation (both the flat and the hierarchical backends) needs a total
order in which

* the presence of every clock is computed after the clocks / condition
  values it is defined from (the triangular order exhibited by the
  resolution), and
* the value of every signal is computed after its clock and after the
  signals it depends on (the conditional dependency graph).

:`build_schedule` produces that order, or raises when the program has an
instantaneous cycle that the conditional analysis cannot discharge.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

from ..clocks.resolution import (
    ClockClass,
    ClockHierarchy,
    FormulaDefinition,
    PartitionDefinition,
)
from ..clocks.algebra import clock_atoms
from ..errors import CausalityError
from ..lang.kernel import KernelProgram, KernelSynchro
from .dependency import ConditionalDependencyGraph

__all__ = ["Action", "ComputeClock", "ComputeSignal", "Schedule", "build_schedule"]


# Actions key the schedule's and the IR builder's dictionaries; as named
# tuples they are hashed and compared in C.
class ComputeClock(NamedTuple):
    """Compute the presence flag of a clock class."""

    class_id: int

    def __str__(self) -> str:
        return f"clock#{self.class_id}"


class ComputeSignal(NamedTuple):
    """Compute (or read) the value of a signal at its clock."""

    signal: str

    def __str__(self) -> str:
        return f"signal {self.signal}"


Action = Union[ComputeClock, ComputeSignal]


@dataclass
class Schedule:
    """A triangular total order of clock and signal computations."""

    program: KernelProgram
    hierarchy: ClockHierarchy
    graph: ConditionalDependencyGraph
    actions: List[Action]
    prerequisites: Dict[Action, Set[Action]]
    #: clock class of every scheduled signal (null-clocked signals are omitted)
    signal_class: Dict[str, ClockClass]

    def ordered_signals(self) -> List[str]:
        return [a.signal for a in self.actions if isinstance(a, ComputeSignal)]

    def ordered_classes(self) -> List[int]:
        return [a.class_id for a in self.actions if isinstance(a, ComputeClock)]

    def depends_on(self, action: Action, other: Action) -> bool:
        """Whether ``action`` (transitively) requires ``other`` to run first."""
        seen: Set[Action] = set()
        stack = [action]
        while stack:
            current = stack.pop()
            for prerequisite in self.prerequisites.get(current, ()):
                if prerequisite == other:
                    return True
                if prerequisite not in seen:
                    seen.add(prerequisite)
                    stack.append(prerequisite)
        return False


def build_schedule(
    program: KernelProgram,
    hierarchy: ClockHierarchy,
    graph: ConditionalDependencyGraph,
) -> Schedule:
    """Compute the global triangular order of clock and signal actions."""
    class_by_id: Dict[int, ClockClass] = {c.id: c for c in hierarchy.classes}

    # Which signals are scheduled: every program signal whose clock is not null.
    signal_class: Dict[str, ClockClass] = {}
    for name in program.signals:
        clock_class = hierarchy.class_of_signal(name)
        if clock_class.is_null:
            continue
        signal_class[name] = clock_class

    actions: List[Action] = []
    action_set: Set[Action] = set()

    def add_action(action: Action) -> None:
        if action not in action_set:
            action_set.add(action)
            actions.append(action)

    # Clock actions in placement order (already triangular), then signal reads.
    for clock_class in hierarchy.placement_order:
        if clock_class.is_null:
            continue
        add_action(ComputeClock(clock_class.id))
    for name in program.signals:
        if name in signal_class:
            add_action(ComputeSignal(name))

    prerequisites: Dict[Action, Set[Action]] = {action: set() for action in actions}

    def add_edge(before: Action, after: Action) -> None:
        if before in action_set and after in action_set and before != after:
            prerequisites[after].add(before)

    # Clock-to-clock and value-to-clock constraints from the class definitions.
    for clock_class in hierarchy.classes:
        if clock_class.is_null:
            continue
        action = ComputeClock(clock_class.id)
        definition = clock_class.definition
        if isinstance(definition, PartitionDefinition):
            parent = class_by_id.get(definition.parent_id)
            if parent is None:
                # The recorded parent was merged; use the canonical class of the
                # condition signal's clock instead.
                parent = hierarchy.class_of_signal(definition.condition)
            add_edge(ComputeClock(parent.id), action)
            add_edge(ComputeSignal(definition.condition), action)
        elif isinstance(definition, FormulaDefinition):
            for atom in clock_atoms(definition.formula):
                operand = hierarchy.class_of_atom(atom)
                add_edge(ComputeClock(operand.id), action)

    # A signal is computed after its clock.
    for name, clock_class in signal_class.items():
        add_edge(ComputeClock(clock_class.id), ComputeSignal(name))

    # Value dependencies from the conditional dependency graph (signal-to-signal
    # edges only; clock-to-signal edges are covered above).
    for edge in graph.edges:
        if isinstance(edge.source, str) and isinstance(edge.target, str):
            add_edge(ComputeSignal(edge.source), ComputeSignal(edge.target))

    ordered = _topological_sort(actions, prerequisites)

    return Schedule(
        program=program,
        hierarchy=hierarchy,
        graph=graph,
        actions=ordered,
        prerequisites=prerequisites,
        signal_class=signal_class,
    )


def _topological_sort(
    actions: Sequence[Action], prerequisites: Dict[Action, Set[Action]]
) -> List[Action]:
    """Stable topological sort (Kahn); raises :class:`CausalityError` on cycles."""
    remaining_prereqs: Dict[Action, Set[Action]] = {
        action: set(prerequisites.get(action, ())) for action in actions
    }
    dependents: Dict[Action, List[Action]] = {action: [] for action in actions}
    for action, prereqs in remaining_prereqs.items():
        for prerequisite in prereqs:
            dependents[prerequisite].append(action)

    # Stable: the ready action first declared goes first (a heap of indices).
    order_index = {action: index for index, action in enumerate(actions)}
    ready = [index for index, action in enumerate(actions) if not remaining_prereqs[action]]
    result: List[Action] = []
    while ready:
        action = actions[heapq.heappop(ready)]
        result.append(action)
        for dependent in dependents[action]:
            remaining_prereqs[dependent].discard(action)
            if not remaining_prereqs[dependent]:
                heapq.heappush(ready, order_index[dependent])

    if len(result) != len(actions):
        stuck = [str(a) for a in actions if a not in set(result)]
        raise CausalityError(
            "cannot order computations (instantaneous cycle): " + ", ".join(stuck)
        )
    return result
