"""The conditional dependency graph of a SIGNAL program (Table 2).

Every kernel process contributes *conditioned* data dependencies: an edge
``X --k--> Y`` means that at every instant of the clock ``k``, the value of
``Y`` depends on the value of ``X``.  Following Table 2:

===================================  ==========================================
process                              dependencies
===================================  ==========================================
``X := f(X1, ..., Xn)``              ``Xi --x̂--> X`` for every signal operand
``ZX := X $ 1``                      none (this is what breaks feedback loops)
``X := U when C``                    ``U --x̂--> X``
``X := U default V``                 ``U --û--> X`` and ``V --v̂\\û--> X``
each condition ``C``                 ``C --ĉ--> [C]`` and ``C --ĉ--> [¬C]``
each signal ``X``                    ``x̂ --x̂--> X``
===================================  ==========================================

Nodes are either signal names (values) or clock atoms.  Cycle detection is
*clock-aware*: a static cycle is only reported as a causality error when the
conjunction of the clocks labelling its edges is non-empty, i.e. when there
exists an instant at which every dependency of the cycle is simultaneously
active.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple, Union

from ..clocks.algebra import (
    ClockAtom,
    ClockExpr,
    CondFalse,
    CondTrue,
    Diff,
    SignalClock,
    SignalClocks,
    meet_all,
)
from ..clocks.resolution import ClockHierarchy
from ..errors import CausalityError
from ..lang.kernel import (
    KernelDefault,
    KernelDelay,
    KernelFunction,
    KernelProgram,
    KernelSynchro,
    KernelWhen,
    Literal,
)

__all__ = ["GraphNode", "DependencyEdge", "ConditionalDependencyGraph", "build_dependency_graph"]


#: A node of the graph: a signal name (its value) or a clock atom (its presence).
GraphNode = Union[str, ClockAtom]


def node_label(node: GraphNode) -> str:
    return node if isinstance(node, str) else str(node)


class DependencyEdge(NamedTuple):
    """A conditioned dependency ``source --clock--> target``."""

    source: GraphNode
    target: GraphNode
    clock: ClockExpr

    def __str__(self) -> str:
        return f"{node_label(self.source)} --{self.clock}--> {node_label(self.target)}"


class ConditionalDependencyGraph:
    """A labelled directed graph over signals and clocks."""

    def __init__(self) -> None:
        self.edges: List[DependencyEdge] = []
        #: the outgoing and incoming edges of every node, in edge order
        self._successors: Dict[GraphNode, List[DependencyEdge]] = {}
        self._predecessors: Dict[GraphNode, List[DependencyEdge]] = {}
        #: the nodes in order of first appearance
        self.nodes: List[GraphNode] = []

    # -- construction ------------------------------------------------------
    def add_node(self, node: GraphNode) -> None:
        if node not in self._successors:
            self.nodes.append(node)
            self._successors[node] = []
            self._predecessors[node] = []

    def add_edge(self, source: GraphNode, target: GraphNode, clock: ClockExpr) -> DependencyEdge:
        edge = DependencyEdge(source, target, clock)
        self.add_edges((edge,))
        return edge

    def add_edges(self, edges: Iterable[DependencyEdge]) -> None:
        """Append ``edges`` in order, adding each node where it first appears."""
        successors, predecessors = self._successors, self._predecessors
        nodes, append = self.nodes, self.edges.append
        for edge in edges:
            source, target, _ = edge
            outgoing = successors.get(source)
            if outgoing is None:
                nodes.append(source)
                outgoing = successors[source] = []
                predecessors[source] = []
            incoming = predecessors.get(target)
            if incoming is None:
                nodes.append(target)
                successors[target] = []
                incoming = predecessors[target] = []
            append(edge)
            outgoing.append(edge)
            incoming.append(edge)

    # -- queries --------------------------------------------------------------
    def successors(self, node: GraphNode) -> List[DependencyEdge]:
        return list(self._successors.get(node, []))

    def predecessors(self, node: GraphNode) -> List[DependencyEdge]:
        return list(self._predecessors.get(node, []))

    def value_predecessors(self, signal: str) -> List[str]:
        """Signals whose value feeds the computation of ``signal``."""
        return [e.source for e in self.predecessors(signal) if isinstance(e.source, str)]

    def edge_count(self) -> int:
        return len(self.edges)

    def node_count(self) -> int:
        return len(self.nodes)

    # -- cycle analysis ----------------------------------------------------------
    def strongly_connected_components(self) -> List[List[GraphNode]]:
        """Tarjan's algorithm (iterative) over the whole graph."""
        index_counter = 0
        indices: Dict[GraphNode, int] = {}
        lowlink: Dict[GraphNode, int] = {}
        on_stack: Set[GraphNode] = set()
        stack: List[GraphNode] = []
        components: List[List[GraphNode]] = []

        for start in self.nodes:
            if start in indices:
                continue
            work: List[Tuple[GraphNode, int]] = [(start, 0)]
            while work:
                node, child_index = work[-1]
                if child_index == 0:
                    indices[node] = index_counter
                    lowlink[node] = index_counter
                    index_counter += 1
                    stack.append(node)
                    on_stack.add(node)
                advanced = False
                successors = self._successors.get(node, [])
                while child_index < len(successors):
                    successor = successors[child_index].target
                    child_index += 1
                    if successor not in indices:
                        work[-1] = (node, child_index)
                        work.append((successor, 0))
                        advanced = True
                        break
                    if successor in on_stack:
                        lowlink[node] = min(lowlink[node], indices[successor])
                if advanced:
                    continue
                work[-1] = (node, child_index)
                if child_index >= len(successors):
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        lowlink[parent] = min(lowlink[parent], lowlink[node])
                    if lowlink[node] == indices[node]:
                        component = []
                        while True:
                            member = stack.pop()
                            on_stack.discard(member)
                            component.append(member)
                            if member == node:
                                break
                        components.append(component)
        return components

    def cyclic_components(self) -> List[List[GraphNode]]:
        """SCCs that actually contain a cycle (size > 1, or a self-loop)."""
        cyclic = []
        for component in self.strongly_connected_components():
            if len(component) > 1:
                cyclic.append(component)
            else:
                node = component[0]
                if any(e.target == node for e in self._successors.get(node, [])):
                    cyclic.append(component)
        return cyclic

    def check_causality(self, hierarchy: Optional[ClockHierarchy] = None) -> None:
        """Raise :class:`CausalityError` for cycles active at some instant.

        Without a hierarchy every static cycle is reported.  With a hierarchy
        the meet of the edge labels inside the strongly connected component is
        computed; the component is only rejected when that meet is non-empty
        (the paper's conditional dependencies: a dependency labelled by an
        empty clock never constrains the schedule).  This is a conservative
        approximation of per-cycle analysis, documented as such.
        """
        if self._is_acyclic():
            return
        for component in self.cyclic_components():
            member_set = set(component)
            labels = [
                e.clock
                for node in component
                for e in self._successors.get(node, [])
                if e.target in member_set
            ]
            if hierarchy is not None and labels:
                meet = meet_all(tuple(labels))
                if hierarchy.is_empty(meet):
                    continue
            names = ", ".join(sorted(node_label(n) for n in component))
            raise CausalityError(
                f"instantaneous dependency cycle through: {names}"
            )

    def _is_acyclic(self) -> bool:
        """Whether Kahn's peel, on indices, proves the graph has no cycle.

        In the Table 2 graph a clock ``x̂`` only starts edges and ``[C]`` /
        ``[¬C]`` only end them, so a cycle can only run through signals, and
        peeling the signal-to-signal edges removes every signal exactly when
        there is none.  A graph of another shape is not decided here (False).
        """
        index: Dict[str, int] = {}
        pairs: List[Tuple[int, int]] = []
        for edge in self.edges:
            source, target = edge.source, edge.target
            if isinstance(target, SignalClock) or isinstance(source, (CondTrue, CondFalse)):
                return False
            if isinstance(source, str) and isinstance(target, str):
                source_index = index.setdefault(source, len(index))
                pairs.append((source_index, index.setdefault(target, len(index))))
        successors: List[List[int]] = [[] for _ in index]
        indegree = [0] * len(index)
        for source_index, target_index in pairs:
            successors[source_index].append(target_index)
            indegree[target_index] += 1
        ready = [position for position, degree in enumerate(indegree) if not degree]
        peeled = 0
        while ready:
            peeled += 1
            for target_index in successors[ready.pop()]:
                indegree[target_index] -= 1
                if not indegree[target_index]:
                    ready.append(target_index)
        return peeled == len(index)

    def __str__(self) -> str:
        return "\n".join(str(e) for e in self.edges)


def build_dependency_graph(program: KernelProgram) -> ConditionalDependencyGraph:
    """Construct the conditional dependency graph of a kernel program (Table 2)."""
    clocks = SignalClocks()
    edges: List[DependencyEdge] = []
    add = edges.append

    # For each signal X, its clock constrains it: x̂ --x̂--> X.
    for name in program.signals:
        clock = clocks[name]
        add(DependencyEdge(clock, name, clock))

    conditions_seen: Set[str] = set()

    for process in program.processes:
        if isinstance(process, KernelFunction):
            target, target_clock = process.target, clocks[process.target]
            for operand in process.operands:
                if not isinstance(operand, Literal):
                    add(DependencyEdge(operand, target, target_clock))
        elif isinstance(process, KernelDelay):
            # No dependency: the delay's value is taken from the previous instant.
            continue
        elif isinstance(process, KernelWhen):
            if not isinstance(process.source, Literal):
                add(DependencyEdge(process.source, process.target, clocks[process.target]))
            condition = process.condition
            if condition not in conditions_seen:
                conditions_seen.add(condition)
                condition_clock = clocks[condition]
                add(DependencyEdge(condition, CondTrue(condition), condition_clock))
                add(DependencyEdge(condition, CondFalse(condition), condition_clock))
        elif isinstance(process, KernelDefault):
            left, right = process.left, process.right
            if not isinstance(left, Literal):
                add(DependencyEdge(left, process.target, clocks[left]))
            if not isinstance(right, Literal):
                if isinstance(left, Literal):
                    right_clock: ClockExpr = clocks[right]
                else:
                    right_clock = Diff(clocks[right], clocks[left])
                add(DependencyEdge(right, process.target, right_clock))
        elif isinstance(process, KernelSynchro):
            continue
        else:  # pragma: no cover - exhaustive over kernel constructors
            raise TypeError(f"unknown kernel process {process!r}")

    graph = ConditionalDependencyGraph()
    graph.add_edges(edges)
    return graph
