"""Backend-independent intermediate representation of the generated step.

The step of a compiled SIGNAL program is a straight-line program over

* clock *presence flags* (one boolean per clock class),
* signal *values* (one variable per signal), and
* *delay registers* (one state variable per ``$`` operator),

structured by ``Guard`` blocks.  The **flat** builder produces one guard per
computation (Figure 9, code *b*); the **hierarchical** builder nests guards
following the clock tree so that absent subtrees are skipped entirely
(Figure 9, code *a*).
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..clocks.algebra import ClockExpr, CondFalse, CondTrue, Diff, Join, Meet, NullClock, SignalClock
from ..clocks.resolution import (
    ClockClass,
    ClockHierarchy,
    FormulaDefinition,
    FreeDefinition,
    NullDefinition,
    PartitionDefinition,
)
from ..clocks.tree import ClockNode
from ..errors import CodeGenerationError
from ..graph.scheduling import ComputeClock, ComputeSignal, Schedule
from ..lang.kernel import (
    KernelDefault,
    KernelDelay,
    KernelFunction,
    KernelProcess,
    KernelSynchro,
    KernelWhen,
    Literal,
    Operand,
)
from ..lang.types import SignalType, default_value

__all__ = [
    "GenerationStyle",
    "ValueExpr",
    "SigRef",
    "Lit",
    "Unary",
    "Binary",
    "ClockChoice",
    "FlagExpr",
    "FlagRef",
    "FlagAnd",
    "FlagOr",
    "FlagAndNot",
    "Stmt",
    "SetFlagRoot",
    "SetFlagPartition",
    "SetFlagFormula",
    "ReadInput",
    "ReadRegister",
    "ComputeValue",
    "EmitOutput",
    "UpdateRegister",
    "Guard",
    "RegisterInfo",
    "StepIR",
    "build_step_ir",
]


class GenerationStyle(enum.Enum):
    """The two code generation styles compared in Figure 9."""

    HIERARCHICAL = "hierarchical"
    FLAT = "flat"


# ---------------------------------------------------------------------------
# Value expressions
# ---------------------------------------------------------------------------


class ValueExpr:
    """Base class of value expressions."""


@dataclass(frozen=True)
class SigRef(ValueExpr):
    signal: str


@dataclass(frozen=True)
class Lit(ValueExpr):
    value: Union[bool, int, float]


@dataclass(frozen=True)
class Unary(ValueExpr):
    operator: str
    operand: ValueExpr


@dataclass(frozen=True)
class Binary(ValueExpr):
    operator: str
    left: ValueExpr
    right: ValueExpr
    integer: bool = False


@dataclass(frozen=True)
class ClockChoice(ValueExpr):
    """``then_value`` when the flag of ``class_id`` is true, else ``else_value``."""

    class_id: int
    then_value: ValueExpr
    else_value: ValueExpr


# ---------------------------------------------------------------------------
# Flag (presence) expressions
# ---------------------------------------------------------------------------


class FlagExpr:
    """Base class of presence-flag expressions."""


@dataclass(frozen=True)
class FlagRef(FlagExpr):
    class_id: int


@dataclass(frozen=True)
class FlagAnd(FlagExpr):
    left: FlagExpr
    right: FlagExpr


@dataclass(frozen=True)
class FlagOr(FlagExpr):
    left: FlagExpr
    right: FlagExpr


@dataclass(frozen=True)
class FlagAndNot(FlagExpr):
    left: FlagExpr
    right: FlagExpr


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt:
    """Base class of step statements."""


@dataclass(frozen=True)
class SetFlagRoot(Stmt):
    """Presence of a free clock, provided by the environment."""

    class_id: int
    input_key: str
    default: bool


@dataclass(frozen=True)
class SetFlagPartition(Stmt):
    """Presence of a sampled clock ``[C]`` / ``[¬C]``."""

    class_id: int
    parent_id: Optional[int]  # None when the parent flag is known true in context
    condition: str
    polarity: bool


@dataclass(frozen=True)
class SetFlagFormula(Stmt):
    """Presence of a clock defined by a formula over other clocks."""

    class_id: int
    formula: FlagExpr


@dataclass(frozen=True)
class ReadInput(Stmt):
    signal: str


@dataclass(frozen=True)
class ReadRegister(Stmt):
    signal: str
    register: str


@dataclass(frozen=True)
class ComputeValue(Stmt):
    signal: str
    expression: ValueExpr


@dataclass(frozen=True)
class EmitOutput(Stmt):
    signal: str


@dataclass(frozen=True)
class UpdateRegister(Stmt):
    register: str
    source: ValueExpr


@dataclass
class Guard(Stmt):
    """``if present(class_id): body``."""

    class_id: int
    body: List[Stmt] = field(default_factory=list)


@dataclass(frozen=True)
class RegisterInfo:
    """A delay register: holds the previous value of ``source`` for ``target``."""

    register: str
    target: str
    source: str
    initial: Union[bool, int, float]
    type: SignalType


@dataclass
class StepIR:
    """The complete intermediate representation of one reaction."""

    name: str
    style: GenerationStyle
    statements: List[Stmt]
    registers: List[RegisterInfo]
    inputs: List[str]
    outputs: List[str]
    #: class ids whose flag must be initialized to false before the statements
    initialized_flags: List[int]
    #: (class_id, input key, default) for every free clock
    root_flags: List[Tuple[int, str, bool]]
    #: the id of every non-null clock class, ascending: one presence flag each
    flag_ids: List[int]
    #: every signal whose clock is not null: one value variable each
    signals: List[str]
    types: Dict[str, SignalType]


# ---------------------------------------------------------------------------
# Shared construction helpers
# ---------------------------------------------------------------------------


class _StepBuilder:
    """Shared logic between the flat and the hierarchical builders."""

    def __init__(self, schedule: Schedule, types: Dict[str, SignalType]):
        self.schedule = schedule
        self.types = types
        self.program = schedule.program
        self.hierarchy = schedule.hierarchy
        self.class_by_id: Dict[int, ClockClass] = {c.id: c for c in self.hierarchy.classes}
        self.definitions: Dict[str, KernelProcess] = {}
        for process in self.program.processes:
            if not isinstance(process, KernelSynchro):
                self.definitions[process.target] = process
        self.registers: List[RegisterInfo] = []
        self._register_by_target: Dict[str, RegisterInfo] = {}
        self._registers_by_class: Dict[int, List[RegisterInfo]] = {}
        self._collect_registers()
        free = [c for c in self.hierarchy.free_classes() if not c.is_null]
        self._single_root = len(free) == 1

    # -- registers -------------------------------------------------------------
    def _collect_registers(self) -> None:
        for process in self.program.processes:
            if not isinstance(process, KernelDelay):
                continue
            if process.target not in self.schedule.signal_class:
                continue  # null-clocked delay: never present
            target_type = self.types[process.target]
            initial = process.initial
            if initial is None:
                initial = default_value(target_type)
            register = RegisterInfo(
                register=f"z_{process.target}",
                target=process.target,
                source=process.source,
                initial=initial,
                type=target_type,
            )
            self.registers.append(register)
            self._register_by_target[process.target] = register
            class_id = self.schedule.signal_class[process.target].id
            self._registers_by_class.setdefault(class_id, []).append(register)

    # -- operand/value expressions -----------------------------------------------
    def operand_expr(self, operand: Operand) -> ValueExpr:
        if isinstance(operand, Literal):
            return Lit(operand.value)
        return SigRef(operand)

    def value_statement(self, signal: str) -> Stmt:
        """The statement that gives ``signal`` its value at its instants."""
        definition = self.definitions.get(signal)
        if definition is None:
            # No definition: an input signal, read from the environment.
            return ReadInput(signal)
        if isinstance(definition, KernelDelay):
            register = self._register_by_target[signal]
            return ReadRegister(signal, register.register)
        if isinstance(definition, KernelFunction):
            return ComputeValue(signal, self._function_expr(definition))
        if isinstance(definition, KernelWhen):
            return ComputeValue(signal, self.operand_expr(definition.source))
        if isinstance(definition, KernelDefault):
            return ComputeValue(signal, self._default_expr(definition))
        raise CodeGenerationError(f"cannot generate a value for signal {signal!r}")

    def _function_expr(self, definition: KernelFunction) -> ValueExpr:
        operator = definition.operator
        operands = [self.operand_expr(op) for op in definition.operands]
        if operator == "id":
            return operands[0]
        if operator == "event":
            return Lit(True)
        if operator in ("not",):
            return Unary("not", operands[0])
        if operator == "-" and len(operands) == 1:
            return Unary("-", operands[0])
        if len(operands) != 2:
            raise CodeGenerationError(
                f"operator {operator!r} expects two operands, got {len(operands)}"
            )
        integer = self.types[definition.target] is SignalType.INTEGER
        return Binary(operator, operands[0], operands[1], integer=integer)

    def _default_expr(self, definition: KernelDefault) -> ValueExpr:
        left, right = definition.left, definition.right
        if isinstance(left, Literal):
            # A constant branch is always available; it always wins the merge.
            return Lit(left.value)
        left_class = self.hierarchy.class_of_signal(left)
        if left_class.is_null:
            return self.operand_expr(right)
        right_expr = self.operand_expr(right)
        return ClockChoice(left_class.id, SigRef(left), right_expr)

    # -- flags -----------------------------------------------------------------------
    def root_default(self) -> bool:
        return self._single_root

    def flag_statement(self, clock_class: ClockClass, in_parent_guard: bool) -> Stmt:
        definition = clock_class.definition
        if isinstance(definition, FreeDefinition):
            return SetFlagRoot(
                clock_class.id, clock_class.presence_name(), self.root_default()
            )
        if isinstance(definition, PartitionDefinition):
            parent = self.class_by_id.get(definition.parent_id)
            if parent is None:
                parent = self.hierarchy.class_of_signal(definition.condition)
            parent_id = None if in_parent_guard else parent.id
            return SetFlagPartition(
                clock_class.id, parent_id, definition.condition, definition.polarity
            )
        if isinstance(definition, FormulaDefinition):
            return SetFlagFormula(
                clock_class.id, self._flag_expr(definition.formula)
            )
        raise CodeGenerationError(
            f"cannot compute the presence of clock {clock_class.display_name()}"
        )

    def _flag_expr(self, formula: ClockExpr) -> FlagExpr:
        if isinstance(formula, (SignalClock, CondTrue, CondFalse)):
            return FlagRef(self.hierarchy.class_of_atom(formula).id)
        if isinstance(formula, Meet):
            return FlagAnd(self._flag_expr(formula.left), self._flag_expr(formula.right))
        if isinstance(formula, Join):
            return FlagOr(self._flag_expr(formula.left), self._flag_expr(formula.right))
        if isinstance(formula, Diff):
            return FlagAndNot(self._flag_expr(formula.left), self._flag_expr(formula.right))
        raise CodeGenerationError(f"cannot encode clock formula {formula}")

    # -- signal statements ------------------------------------------------------------
    def signal_statements(self, signal: str) -> List[Stmt]:
        statements = [self.value_statement(signal)]
        if signal in self.program.outputs:
            statements.append(EmitOutput(signal))
        return statements

    def update_statements_for_class(self, clock_class: ClockClass) -> List[Stmt]:
        """Register updates for delays whose clock is ``clock_class``."""
        return [
            UpdateRegister(register.register, SigRef(register.source))
            for register in self._registers_by_class.get(clock_class.id, [])
        ]

    def root_flag_descriptions(self) -> List[Tuple[int, str, bool]]:
        descriptions = []
        for clock_class in self.hierarchy.free_classes():
            if clock_class.is_null:
                continue
            descriptions.append(
                (clock_class.id, clock_class.presence_name(), self.root_default())
            )
        return descriptions


# ---------------------------------------------------------------------------
# Flat (single-loop) builder -- Figure 9, code b
# ---------------------------------------------------------------------------


def _build_flat(builder: _StepBuilder) -> List[Stmt]:
    schedule = builder.schedule
    statements: List[Stmt] = []
    for action in schedule.actions:
        if isinstance(action, ComputeClock):
            clock_class = builder.class_by_id.get(action.class_id)
            if clock_class is None:
                continue
            statements.append(builder.flag_statement(clock_class, in_parent_guard=False))
        else:
            clock_class = schedule.signal_class[action.signal]
            statements.append(
                Guard(clock_class.id, builder.signal_statements(action.signal))
            )
    # Register updates happen once all values of the reaction are computed.
    for register in builder.registers:
        clock_class = schedule.signal_class[register.target]
        statements.append(
            Guard(clock_class.id, [UpdateRegister(register.register, SigRef(register.source))])
        )
    return statements


# ---------------------------------------------------------------------------
# Hierarchical (nested) builder -- Figure 9, code a
# ---------------------------------------------------------------------------


class _HierarchicalBuilder:
    """Builds nested guards following the clock forest.

    Within every tree node, the signals computed at that node and the child
    subtrees are ordered so that every direct scheduling constraint whose two
    endpoints fall under this node (their lowest common ancestor) is
    respected.  When no such block-compatible order exists the program cannot
    be emitted in the nested style and an error is raised.
    """

    def __init__(self, builder: _StepBuilder):
        self.builder = builder
        self.schedule = builder.schedule
        self.hierarchy = builder.hierarchy
        self.forest = self.hierarchy.forest
        # Schedule positions; an action the schedule lacks ranks last.
        self._unranked = len(self.schedule.actions)
        self._signal_rank: Dict[str, int] = {}
        self._clock_rank: Dict[int, int] = {}
        for index, action in enumerate(self.schedule.actions):
            if isinstance(action, ComputeSignal):
                self._signal_rank[action.signal] = index
            else:
                self._clock_rank[action.class_id] = index
        # Signals grouped by the tree node of their clock class.
        self.node_signals: Dict[int, List[str]] = {}
        for signal, clock_class in self.schedule.signal_class.items():
            self.node_signals.setdefault(clock_class.id, []).append(signal)
        signal_rank = self._signal_rank.get
        for signals in self.node_signals.values():
            signals.sort(key=lambda signal: signal_rank(signal, self._unranked))
        self._index_forest()

    def _index_forest(self) -> None:
        """Find every node's local ordering constraints in one pass.

        A node's items are its signals, then its children; the forest is a
        virtual node whose items are the roots.  A scheduling constraint
        ``before -> after`` orders two items of exactly one node, the lowest
        common ancestor of the nodes computing its two actions: above it
        both fall in one child, below it they do not meet.  So each
        constraint climbs from its two nodes to that ancestor, tracking the
        item each side arrives through, and is kept there unless one side is
        the ancestor's own clock (not an item).  Nodes are numbered in
        pre-order, the virtual node last; the least clock rank of every
        subtree, an item's rank, is taken bottom-up.
        """
        nodes = list(self.forest.iter_nodes())
        virtual = len(nodes)
        position = {node.clock_class.id: index for index, node in enumerate(nodes)}
        parent = [virtual] * (virtual + 1)
        depth = [0] * virtual + [-1]
        #: the item index of each node among its parent's items
        item_in_parent = [0] * virtual
        #: (node, item index there; -1 for the node's clock) of every action,
        #: by schedule position
        where: List[Optional[Tuple[int, int]]] = [None] * self._unranked
        for index, child in enumerate(self.forest.roots):
            item_in_parent[position[child.clock_class.id]] = index
        for index, node in enumerate(nodes):
            class_id = node.clock_class.id
            signals = self.node_signals.get(class_id, ())
            rank = self._clock_rank.get(class_id)
            if rank is not None:
                where[rank] = (index, -1)
            for item, signal in enumerate(signals):
                where[self._signal_rank[signal]] = (index, item)
            for item, child in enumerate(node.children, start=len(signals)):
                child_index = position[child.clock_class.id]
                parent[child_index] = index
                depth[child_index] = depth[index] + 1
                item_in_parent[child_index] = item

        self._position = position
        self._edges: List[Set[Tuple[int, int]]] = [set() for _ in range(virtual + 1)]
        for target, prerequisites in zip(where, self.schedule.prerequisite_positions):
            if target is None:
                continue
            for prerequisite in prerequisites:
                source = where[prerequisite]
                if source is None:
                    continue
                (before, before_item), (after, after_item) = source, target
                while depth[before] > depth[after]:
                    before_item, before = item_in_parent[before], parent[before]
                while depth[after] > depth[before]:
                    after_item, after = item_in_parent[after], parent[after]
                while before != after:
                    before_item, before = item_in_parent[before], parent[before]
                    after_item, after = item_in_parent[after], parent[after]
                if before_item >= 0 and after_item >= 0 and before_item != after_item:
                    self._edges[before].add((before_item, after_item))

        self._least_clock_rank = [0] * virtual
        for index in range(virtual - 1, -1, -1):
            node = nodes[index]
            least = self._clock_rank.get(node.clock_class.id, self._unranked)
            for child in node.children:
                least = min(least, self._least_clock_rank[position[child.clock_class.id]])
            self._least_clock_rank[index] = least

    # -- emission --------------------------------------------------------------------------
    def build(self) -> List[Stmt]:
        statements: List[Stmt] = []
        for kind, payload in self._local_order(None):
            assert kind == "child"
            root_node = payload
            clock_class = root_node.clock_class
            statements.append(
                self.builder.flag_statement(clock_class, in_parent_guard=False)
            )
            body = self._emit_node(root_node)
            if body:
                statements.append(Guard(clock_class.id, body))
        return statements

    def _emit_node(self, node: ClockNode) -> List[Stmt]:
        body: List[Stmt] = []
        for kind, payload in self._local_order(node):
            if kind == "signal":
                body.extend(self.builder.signal_statements(payload))
            else:
                child = payload
                clock_class = child.clock_class
                in_parent_guard = (
                    isinstance(clock_class.definition, PartitionDefinition)
                    and self._partition_parent_is(clock_class, node.clock_class)
                )
                body.append(
                    self.builder.flag_statement(clock_class, in_parent_guard=in_parent_guard)
                )
                child_body = self._emit_node(child)
                if child_body:
                    # Leaf clocks with no computation of their own still get
                    # their presence flag (other clocks/choices may test it),
                    # but an empty guarded block would be dead code.
                    body.append(Guard(clock_class.id, child_body))
        body.extend(self.builder.update_statements_for_class(node.clock_class))
        return body

    def _partition_parent_is(self, clock_class: ClockClass, parent_class: ClockClass) -> bool:
        definition = clock_class.definition
        if not isinstance(definition, PartitionDefinition):
            return False
        recorded = self.builder.class_by_id.get(definition.parent_id)
        if recorded is None:
            recorded = self.hierarchy.class_of_signal(definition.condition)
        return recorded.id == parent_class.id

    # -- local ordering ------------------------------------------------------------------------
    def _local_order(self, node: Optional[ClockNode]) -> List[Tuple[str, object]]:
        """The items of ``node`` (None: the forest) in emission order.

        Kahn's algorithm over the node's constraints, taking among the ready
        items the one of least rank (then least index) first.
        """
        if node is None:
            signals: Sequence[str] = ()
            children = self.forest.roots
            edges = self._edges[-1]
        else:
            signals = self.node_signals.get(node.clock_class.id, ())
            children = node.children
            edges = self._edges[self._position[node.clock_class.id]]
        items: List[Tuple[str, object]] = [("signal", s) for s in signals]
        items += [("child", c) for c in children]
        if len(items) < 2:
            return items
        rank = [self._signal_rank.get(s, self._unranked) for s in signals]
        rank += [self._least_clock_rank[self._position[c.clock_class.id]] for c in children]

        dependents: List[List[int]] = [[] for _ in items]
        waiting = [0] * len(items)
        for source, target in edges:
            dependents[source].append(target)
            waiting[target] += 1
        ready = [(rank[index], index) for index in range(len(items)) if not waiting[index]]
        heapq.heapify(ready)
        ordered: List[Tuple[str, object]] = []
        while ready:
            _, chosen = heapq.heappop(ready)
            ordered.append(items[chosen])
            for dependent in dependents[chosen]:
                waiting[dependent] -= 1
                if not waiting[dependent]:
                    heapq.heappush(ready, (rank[dependent], dependent))
        if len(ordered) < len(items):
            names = ", ".join(
                payload if kind == "signal" else payload.clock_class.display_name()
                for (kind, payload), left in zip(items, waiting)
                if left
            )
            label = "<forest>" if node is None else node.clock_class.display_name()
            raise CodeGenerationError(
                f"cannot nest code for clock {label}: interleaved dependencies between {names}"
            )
        return ordered


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_step_ir(
    schedule: Schedule,
    types: Dict[str, SignalType],
    style: GenerationStyle = GenerationStyle.HIERARCHICAL,
    name: Optional[str] = None,
) -> StepIR:
    """Build the step IR for a scheduled program in the requested style."""
    builder = _StepBuilder(schedule, types)
    if style is GenerationStyle.FLAT:
        statements = _build_flat(builder)
        initialized_flags: List[int] = []
    else:
        statements = _HierarchicalBuilder(builder).build()
        initialized_flags = [
            c.id
            for c in schedule.hierarchy.classes
            if not c.is_null and not isinstance(c.definition, FreeDefinition)
        ]

    program = schedule.program
    inputs = [s for s in program.inputs if s in schedule.signal_class]
    outputs = [s for s in program.outputs if s in schedule.signal_class]

    return StepIR(
        name=name or program.name,
        style=style,
        statements=statements,
        registers=builder.registers,
        inputs=inputs,
        outputs=outputs,
        initialized_flags=initialized_flags,
        root_flags=builder.root_flag_descriptions(),
        flag_ids=sorted(c.id for c in schedule.hierarchy.classes if not c.is_null),
        signals=list(schedule.signal_class),
        types=types,
    )
