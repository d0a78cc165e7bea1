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
from ..graph.scheduling import Action, ComputeClock, ComputeSignal, Schedule
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
    schedule: Schedule
    types: Dict[str, SignalType]

    def flag_names(self) -> Dict[int, str]:
        return {c.id: f"h{c.id}" for c in self.schedule.hierarchy.classes}


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
        self._rank = {action: index for index, action in enumerate(self.schedule.actions)}
        # Signals grouped by the tree node of their clock class.
        self.node_signals: Dict[int, List[str]] = {}
        for signal, clock_class in self.schedule.signal_class.items():
            self.node_signals.setdefault(clock_class.id, []).append(signal)
        for signals in self.node_signals.values():
            signals.sort(key=self._signal_rank)
        self._index_subtrees()

    def _signal_rank(self, signal: str) -> int:
        return self._action_rank(ComputeSignal(signal))

    def _action_rank(self, action: Action) -> int:
        return self._rank.get(action, len(self._rank))

    def _index_subtrees(self) -> None:
        """Index every subtree's actions and least clock rank in one pass.

        The forest's actions are laid out in pre-order, each node's clock
        followed by the signals computed at it, so a subtree's actions are
        one slice of that list.  Reverse pre-order reaches every node after
        its descendants, which sizes the slices and takes the least clock
        rank bottom-up.  Both are keyed by clock class id.
        """
        nodes = list(self.forest.iter_nodes())
        actions: List[Action] = []
        starts: List[int] = []
        for node in nodes:
            class_id = node.clock_class.id
            starts.append(len(actions))
            actions.append(ComputeClock(class_id))
            actions.extend(
                ComputeSignal(signal) for signal in self.node_signals.get(class_id, ())
            )
        starts.append(len(actions))
        size: Dict[int, int] = {}
        self._actions = actions
        self._span: Dict[int, Tuple[int, int]] = {}
        self._least_clock_rank: Dict[int, int] = {}
        for position in range(len(nodes) - 1, -1, -1):
            node = nodes[position]
            class_id = node.clock_class.id
            least = self._action_rank(actions[starts[position]])
            count = 1
            for child in node.children:
                child_id = child.clock_class.id
                count += size[child_id]
                least = min(least, self._least_clock_rank[child_id])
            size[class_id] = count
            self._least_clock_rank[class_id] = least
            self._span[class_id] = (starts[position], starts[position + count])

    # -- emission --------------------------------------------------------------------------
    def build(self) -> List[Stmt]:
        # Treat the forest as a single virtual node whose children are the roots.
        local_edges, items = self._local_items(self.forest.roots, [])
        statements: List[Stmt] = []
        for kind, payload in self._order_items(items, local_edges, node_label="<forest>"):
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
        signals = self.node_signals.get(node.clock_class.id, [])
        local_edges, items = self._local_items(node.children, signals)
        body: List[Stmt] = []
        for kind, payload in self._order_items(
            items, local_edges, node_label=node.clock_class.display_name()
        ):
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
    def _local_items(self, children: Sequence[ClockNode], signals: Sequence[str]):
        items: List[Tuple[str, object]] = [("signal", s) for s in signals]
        items += [("child", c) for c in children]

        # Map every action under this node to the index of its item.
        action_item: Dict[Action, int] = {}
        for index, signal in enumerate(signals):
            action_item[ComputeSignal(signal)] = index
        for index, child in enumerate(children, start=len(signals)):
            start, end = self._span[child.clock_class.id]
            action_item.update(dict.fromkeys(self._actions[start:end], index))

        # Only the prerequisites of actions under this node can give an edge.
        edges: Set[Tuple[int, int]] = set()
        for action, target in action_item.items():
            for prerequisite in self.schedule.prerequisites.get(action, ()):
                source = action_item.get(prerequisite)
                if source is not None and source != target:
                    edges.add((source, target))
        return edges, items

    def _order_items(
        self,
        items: List[Tuple[str, object]],
        edges: Set[Tuple[int, int]],
        node_label: str,
    ) -> List[Tuple[str, object]]:
        count = len(items)
        prerequisites: Dict[int, Set[int]] = {i: set() for i in range(count)}
        for source, target in edges:
            prerequisites[target].add(source)

        def item_rank(index: int) -> int:
            kind, payload = items[index]
            if kind == "signal":
                return self._action_rank(ComputeSignal(payload))
            return self._least_clock_rank[payload.clock_class.id]

        rank = [item_rank(index) for index in range(count)]
        remaining = set(range(count))
        ordered: List[int] = []
        while remaining:
            ready = [i for i in remaining if not (prerequisites[i] & remaining)]
            if not ready:
                names = ", ".join(
                    items[i][1] if items[i][0] == "signal" else items[i][1].clock_class.display_name()
                    for i in sorted(remaining)
                )
                raise CodeGenerationError(
                    "cannot nest code for clock "
                    f"{node_label}: interleaved dependencies between {names}"
                )
            chosen = min(ready, key=rank.__getitem__)
            remaining.remove(chosen)
            ordered.append(chosen)
        return [items[i] for i in ordered]


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
        schedule=schedule,
        types=types,
    )
