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
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Union

from ..clocks.resolution import (
    ClockClass,
    ClockHierarchy,
    FormulaDefinition,
    PartitionDefinition,
)
from ..clocks.algebra import clock_atoms
from ..errors import CausalityError
from ..lang.kernel import KernelProgram
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
    #: for each action, the positions in ``actions`` of the actions it
    #: directly requires (all earlier), ascending
    prerequisite_positions: List[List[int]]
    #: clock class of every scheduled signal (null-clocked signals are omitted)
    signal_class: Dict[str, ClockClass]

    @property
    def prerequisites(self) -> Dict[Action, Set[Action]]:
        """The actions each action directly requires, keyed by action.

        Built from ``prerequisite_positions`` on every read.
        """
        actions = self.actions
        return {
            action: {actions[position] for position in positions}
            for action, positions in zip(actions, self.prerequisite_positions)
        }

    def ordered_signals(self) -> List[str]:
        return [a.signal for a in self.actions if isinstance(a, ComputeSignal)]

    def ordered_classes(self) -> List[int]:
        return [a.class_id for a in self.actions if isinstance(a, ComputeClock)]

    def depends_on(self, action: Action, other: Action) -> bool:
        """Whether ``action`` (transitively) requires ``other`` to run first."""
        position = {scheduled: index for index, scheduled in enumerate(self.actions)}
        start, target = position.get(action), position.get(other)
        if start is None or target is None:
            return False
        seen: Set[int] = set()
        stack = [start]
        while stack:
            for prerequisite in self.prerequisite_positions[stack.pop()]:
                if prerequisite == target:
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
    """Compute the global triangular order of clock and signal actions.

    The actions are declared in a fixed order (clock classes in placement
    order, then signals in program order) and worked on by their index in
    it: every constraint is a pair of indices, and the sort takes the
    ready action declared first.
    """
    class_by_id: Dict[int, ClockClass] = {c.id: c for c in hierarchy.classes}

    # Which signals are scheduled: every program signal whose clock is not null.
    signal_class: Dict[str, ClockClass] = {}
    for name in program.signals:
        clock_class = hierarchy.class_of_signal(name)
        if clock_class.is_null:
            continue
        signal_class[name] = clock_class

    # Clock actions in placement order (already triangular), then signal reads.
    actions: List[Action] = []
    clock_index: Dict[int, int] = {}
    for clock_class in hierarchy.placement_order:
        if not clock_class.is_null and clock_class.id not in clock_index:
            clock_index[clock_class.id] = len(actions)
            actions.append(ComputeClock(clock_class.id))
    signal_index: Dict[str, int] = {}
    for name in signal_class:
        signal_index[name] = len(actions)
        actions.append(ComputeSignal(name))

    # The indices of the actions each action requires; a signal requires
    # its clock.
    prerequisites: List[Set[int]] = [set() for _ in clock_index]
    for clock_class in signal_class.values():
        clock = clock_index.get(clock_class.id)
        prerequisites.append(set() if clock is None else {clock})

    def add_edge(before: Optional[int], after: Optional[int]) -> None:
        if before is not None and after is not None and before != after:
            prerequisites[after].add(before)

    # Clock-to-clock and value-to-clock constraints from the class definitions.
    for clock_class in hierarchy.classes:
        if clock_class.is_null:
            continue
        action = clock_index.get(clock_class.id)
        definition = clock_class.definition
        if isinstance(definition, PartitionDefinition):
            parent = class_by_id.get(definition.parent_id)
            if parent is None:
                # The recorded parent was merged; use the canonical class of the
                # condition signal's clock instead.
                parent = hierarchy.class_of_signal(definition.condition)
            add_edge(clock_index.get(parent.id), action)
            add_edge(signal_index.get(definition.condition), action)
        elif isinstance(definition, FormulaDefinition):
            for atom in clock_atoms(definition.formula):
                operand = hierarchy.class_of_atom(atom)
                add_edge(clock_index.get(operand.id), action)

    # Value dependencies from the conditional dependency graph (signal-to-signal
    # edges only; clock-to-signal edges are covered above).
    for source, target, _ in graph.edges:
        if isinstance(source, str) and isinstance(target, str):
            add_edge(signal_index.get(source), signal_index.get(target))

    order = _topological_sort(actions, prerequisites)
    position = [0] * len(actions)
    for index, action in enumerate(order):
        position[action] = index
    position_of = position.__getitem__

    return Schedule(
        program=program,
        hierarchy=hierarchy,
        graph=graph,
        actions=[actions[action] for action in order],
        prerequisite_positions=[
            sorted(map(position_of, prerequisites[action])) for action in order
        ],
        signal_class=signal_class,
    )


def _topological_sort(actions: Sequence[Action], prerequisites: List[Set[int]]) -> List[int]:
    """Stable topological sort (Kahn) of action indices.

    Among the ready actions the one declared first goes first (a heap of
    indices).  Raises :class:`CausalityError` naming, in declaration order,
    every action left waiting by a cycle.
    """
    waiting = [len(before) for before in prerequisites]
    dependents: List[List[int]] = [[] for _ in actions]
    for action, before in enumerate(prerequisites):
        for prerequisite in before:
            dependents[prerequisite].append(action)

    ready = [action for action, count in enumerate(waiting) if not count]
    order: List[int] = []
    while ready:
        action = heapq.heappop(ready)
        order.append(action)
        for dependent in dependents[action]:
            waiting[dependent] -= 1
            if not waiting[dependent]:
                heapq.heappush(ready, dependent)

    if len(order) != len(actions):
        stuck = [str(actions[action]) for action, count in enumerate(waiting) if count]
        raise CausalityError(
            "cannot order computations (instantaneous cycle): " + ", ".join(stuck)
        )
    return order
