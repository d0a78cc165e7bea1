"""The IR builder's local orders and the causality check equal their references.

``ScanNesting`` keeps the hierarchical builder's per-node ordering as it was
first written: every node maps the actions of each child subtree to that
child's item and scans their prerequisites for constraints between items,
then picks, among the items whose prerequisites are all placed, the one of
least rank, rescanning all remaining items on each pick.  The builder finds
each constraint once, at the lowest common ancestor of its two actions, and
orders with a heap; the item order of every node (and of the forest's roots)
must be the same on the Figure-13 programs, the reference fleet, a stratified
set of generated programs and the differential fuzz corpus, and a program
that no nesting can order keeps its error message.

The causality check proves most graphs acyclic with Kahn's peel and runs
Tarjan's components only when the peel leaves a node; the error it raises
must not change.
"""

import random

import pytest

from repro import compile_source
from repro.clocks.algebra import CondFalse, CondTrue, SignalClock
from repro.codegen.ir import ComputeClock, ComputeSignal, _HierarchicalBuilder, _StepBuilder
from repro.errors import CausalityError, CodeGenerationError
from repro.graph.dependency import ConditionalDependencyGraph
from repro.programs import ControlProgramSpec, generate_control_program
from repro.programs.suite import benchmark_names, benchmark_source, fleet_sources

from test_differential_fuzz import NUM_PROGRAMS, spec_for_seed


class ScanNesting:
    """The reference: per-node item orders by subtree scans and rescans."""

    def __init__(self, schedule):
        self.schedule = schedule
        self.prerequisites = schedule.prerequisites
        self.forest = schedule.hierarchy.forest
        self._rank = {action: index for index, action in enumerate(schedule.actions)}
        self.node_signals = {}
        for signal, clock_class in schedule.signal_class.items():
            self.node_signals.setdefault(clock_class.id, []).append(signal)
        for signals in self.node_signals.values():
            signals.sort(key=lambda signal: self._action_rank(ComputeSignal(signal)))
        self._index_subtrees()

    def _action_rank(self, action):
        return self._rank.get(action, len(self._rank))

    def _index_subtrees(self):
        nodes = list(self.forest.iter_nodes())
        actions, starts = [], []
        for node in nodes:
            class_id = node.clock_class.id
            starts.append(len(actions))
            actions.append(ComputeClock(class_id))
            actions.extend(ComputeSignal(s) for s in self.node_signals.get(class_id, ()))
        starts.append(len(actions))
        size = {}
        self._actions = actions
        self._span = {}
        self._least_clock_rank = {}
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

    def _local_items(self, children, signals):
        items = [("signal", s) for s in signals] + [("child", c) for c in children]
        action_item = {}
        for index, signal in enumerate(signals):
            action_item[ComputeSignal(signal)] = index
        for index, child in enumerate(children, start=len(signals)):
            start, end = self._span[child.clock_class.id]
            action_item.update(dict.fromkeys(self._actions[start:end], index))
        edges = set()
        for action, target in action_item.items():
            for prerequisite in self.prerequisites.get(action, ()):
                source = action_item.get(prerequisite)
                if source is not None and source != target:
                    edges.add((source, target))
        return edges, items

    def _order_items(self, items, edges, node_label):
        count = len(items)
        prerequisites = {i: set() for i in range(count)}
        for source, target in edges:
            prerequisites[target].add(source)

        def item_rank(index):
            kind, payload = items[index]
            if kind == "signal":
                return self._action_rank(ComputeSignal(payload))
            return self._least_clock_rank[payload.clock_class.id]

        rank = [item_rank(index) for index in range(count)]
        remaining = set(range(count))
        ordered = []
        while remaining:
            ready = [i for i in remaining if not (prerequisites[i] & remaining)]
            if not ready:
                names = ", ".join(
                    items[i][1] if items[i][0] == "signal"
                    else items[i][1].clock_class.display_name()
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

    def local_edges_and_order(self, node):
        if node is None:
            edges, items = self._local_items(self.forest.roots, [])
            return edges, self._order_items(items, edges, "<forest>")
        signals = self.node_signals.get(node.clock_class.id, [])
        edges, items = self._local_items(node.children, signals)
        return edges, self._order_items(items, edges, node.clock_class.display_name())


def _stratum(modules, sensors):
    """Two programs of one stratum with complementary shapes and features."""
    pick = modules + sensors
    flags = [bool(pick >> bit & 1) for bit in range(3)]
    branching = 1 + pick % 3
    return [
        ControlProgramSpec(
            f"S{modules}_{sensors}A", modules=modules, branching=branching, sensors=sensors,
            with_filter=flags[0], with_counter=flags[1], with_arithmetic=flags[2],
        ),
        ControlProgramSpec(
            f"S{modules}_{sensors}B", modules=modules, branching=4 - branching,
            sensors=5 - sensors, with_filter=not flags[0], with_counter=not flags[1],
            with_arithmetic=not flags[2],
        ),
    ]


#: ``T`` is computed under ``[C]`` from ``S``, and the schedule computes the
#: clock of ``T`` (that is ``[C]``) before ``S``: at the root, the constraint
#: from ``S`` to the subtree of ``T`` overrides the ranks
BINDING = """
process BIND =
  ( ? integer A;
    ! integer T; )
  (| C := A > 0
   | S := A + 1
   | T := (S when C) + 1
   |)
  where boolean C; integer S;
end;
"""

#: ``X`` is present when ``A`` or ``B`` is: three clock trees, with
#: constraints between them
MERGE = """
process MERGE =
  ( ? integer A, B;
    ! integer X; )
  (| X := A default (B + 1) |)
end;
"""

CORPUS = (
    [("binding", BINDING), ("merge", MERGE)]
    + [(f"fig13-{name}", benchmark_source(name)) for name in benchmark_names()]
    + [(f"fleet-{index}", source) for index, source in enumerate(fleet_sources())]
    + [(f"stratum-{spec.name}", generate_control_program(spec))
       for modules in (1, 2, 4, 7, 12) for sensors in (1, 2)
       for spec in _stratum(modules, sensors)]
    + [(f"fuzz-{seed}", generate_control_program(spec_for_seed(seed)))
       for seed in range(NUM_PROGRAMS)]
)


@pytest.mark.parametrize("label, source", CORPUS, ids=[label for label, _ in CORPUS])
def test_local_orders_equal_the_scans(label, source):
    result = compile_source(source)
    builder = _HierarchicalBuilder(_StepBuilder(result.schedule, result.types))
    reference = ScanNesting(result.schedule)
    for node in [None] + list(result.hierarchy.forest.iter_nodes()):
        position = -1 if node is None else builder._position[node.clock_class.id]
        assert (builder._edges[position], builder._local_order(node)) == (
            reference.local_edges_and_order(node)
        )
    # The Kahn peel proves the graph acyclic, as Tarjan's components do.
    assert result.graph._is_acyclic()
    assert result.graph.cyclic_components() == []


#: ``S`` at the root reads ``U`` under ``[C]`` and ``V`` under ``[C]`` reads
#: ``S``: no nesting orders the root's items
WEAVE = """
process WEAVE =
  ( ? integer A;
    ! integer S, V; )
  (| C := A > 0
   | T := A when C
   | U := T + 1
   | S := U default A
   | V := S when C
   |)
  where boolean C; integer T, U;
end;
"""


def test_an_interleaving_keeps_its_message():
    with pytest.raises(CodeGenerationError) as excinfo:
        compile_source(WEAVE)
    assert str(excinfo.value) == (
        "cannot nest code for clock ^A: interleaved dependencies between S, ^T"
    )


TWO_CYCLES = """
process TWO =
  ( ? integer A;
    ! integer X, Y; )
  (| X := Y + A
   | Y := X + 1
   | P := Q + A
   | Q := P + 1
   |)
  where integer P, Q;
end;
"""


def test_a_constraint_overrides_the_ranks():
    result = compile_source(BINDING)
    actions = result.schedule.actions
    clock_of_t = ComputeClock(result.hierarchy.class_of_signal("T").id)
    assert actions.index(clock_of_t) < actions.index(ComputeSignal("S"))
    builder = _HierarchicalBuilder(_StepBuilder(result.schedule, result.types))
    order = [
        payload if kind == "signal" else payload.clock_class.display_name()
        for kind, payload in builder._local_order(result.hierarchy.forest.roots[0])
    ]
    assert order == ["A", "C", "[~C]", "S", "^T"]


def test_two_independent_cycles_keep_their_message():
    with pytest.raises(CausalityError) as excinfo:
        compile_source(TWO_CYCLES)
    assert str(excinfo.value) == "instantaneous dependency cycle through: X, Y"


def _random_graph(rng):
    """A Table-2-shaped graph: clocks start edges, samplings end them."""
    signals = [f"S{i}" for i in range(rng.randint(1, 12))]
    graph = ConditionalDependencyGraph()
    for signal in signals:
        graph.add_edge(SignalClock(signal), signal, SignalClock(signal))
    for _ in range(rng.randint(0, 3 * len(signals))):
        source, target = rng.choice(signals), rng.choice(signals)
        if rng.random() < 0.8 and signals.index(source) >= signals.index(target):
            continue  # keep most graphs acyclic
        graph.add_edge(source, target, SignalClock(target))
    for signal in rng.sample(signals, rng.randint(0, len(signals))):
        graph.add_edge(signal, CondTrue(signal), SignalClock(signal))
        graph.add_edge(signal, CondFalse(signal), SignalClock(signal))
    return graph


def test_the_peel_agrees_with_tarjan_on_random_graphs():
    rng = random.Random(23)
    verdicts = set()
    for _ in range(400):
        graph = _random_graph(rng)
        acyclic = not graph.cyclic_components()
        assert graph._is_acyclic() == acyclic
        verdicts.add(acyclic)
    assert verdicts == {True, False}


def test_graphs_of_another_shape_take_the_component_path():
    graph = ConditionalDependencyGraph()
    graph.add_edge("X", SignalClock("Y"), SignalClock("Y"))
    graph.add_edge(SignalClock("Y"), "X", SignalClock("X"))
    assert not graph._is_acyclic()
    with pytest.raises(CausalityError, match=r"cycle through: X, \^Y"):
        graph.check_causality()
