"""Tests for clock trees, forests, fusion and canonical insertion.

These cover Figures 6-8 and 10-12: basic partition trees, hierarchical
partitioning, fusion of trees and the insertion of a formula under its
deepest admissible parent.
"""

import pytest

from repro.clocks.algebra import CondFalse, CondTrue, Join, Meet, SignalClock
from repro.clocks.equations import extract_clock_system
from repro.clocks.resolution import (
    ArborescentResolver,
    ClockClass,
    FormulaDefinition,
    resolve,
)
from repro.clocks.tree import ClockForest, ClockNode
from repro.lang.kernel import normalize
from repro.lang.parser import parse_process
from repro.lang.types import infer_types
from repro.programs import ControlProgramSpec, generate_control_program
from repro.programs.suite import benchmark_names, benchmark_source


def hierarchy_of(source):
    program = normalize(parse_process(source))
    types = infer_types(program)
    return resolve(extract_clock_system(program, types))


class TestClockNodeStructure:
    def _make_chain(self, length):
        nodes = [ClockNode(ClockClass(id=i)) for i in range(length)]
        for parent, child in zip(nodes, nodes[1:]):
            parent.add_child(child)
        return nodes

    def test_depth_and_root(self):
        nodes = self._make_chain(4)
        assert [n.depth for n in nodes] == [0, 1, 2, 3]
        assert all(n.root is nodes[0] for n in nodes)

    def test_is_ancestor_of(self):
        nodes = self._make_chain(3)
        assert nodes[0].is_ancestor_of(nodes[2])
        assert nodes[0].is_ancestor_of(nodes[0])
        assert not nodes[2].is_ancestor_of(nodes[0])

    def test_reparenting_is_rejected(self):
        nodes = self._make_chain(2)
        other = ClockNode(ClockClass(id=9))
        with pytest.raises(ValueError):
            nodes[0].add_child(nodes[1])  # already has a parent
        nodes[0].add_child(other)

    def test_subtree_iteration_is_depth_first_left_to_right(self):
        root = ClockNode(ClockClass(id=0))
        left = ClockNode(ClockClass(id=1))
        right = ClockNode(ClockClass(id=2))
        leaf = ClockNode(ClockClass(id=3))
        root.add_child(left)
        root.add_child(right)
        left.add_child(leaf)
        assert [n.clock_class.id for n in root.iter_subtree()] == [0, 1, 3, 2]

    def test_size_and_height(self):
        nodes = self._make_chain(3)
        assert nodes[0].size() == 3
        assert nodes[0].height() == 2
        assert nodes[2].height() == 0

    def test_render_contains_all_nodes(self):
        nodes = self._make_chain(3)
        rendered = nodes[0].render(label=lambda n: f"k{n.clock_class.id}")
        assert "k0" in rendered and "k1" in rendered and "k2" in rendered

    def test_forest_operations(self):
        forest = ClockForest()
        root = ClockNode(ClockClass(id=0))
        forest.add_root(root)
        child = ClockNode(ClockClass(id=1))
        root.add_child(child)
        assert forest.tree_count() == 1
        assert forest.node_count() == 2
        assert forest.height() == 1
        assert forest.find(lambda n: n.clock_class.id == 1) is child
        assert forest.find(lambda n: n.clock_class.id == 5) is None
        with pytest.raises(ValueError):
            forest.add_root(child)


class TestFigure6BasicPartition:
    def test_condition_partition_tree(self):
        hierarchy = hierarchy_of(
            "process P = ( ? integer A; boolean C; ! integer X; )"
            " (| X := A when C | synchro {A, C} |) end;"
        )
        c_node = hierarchy.class_of_signal("C").node
        children = {child.clock_class for child in c_node.children}
        assert hierarchy.class_of_atom(CondTrue("C")) in children
        assert hierarchy.class_of_atom(CondFalse("C")) in children


class TestFigure7HierarchicalPartition:
    def test_nested_conditions_nest_in_the_tree(self):
        # The input D is only sampled when C is true; E only when D is true:
        # the partitions of D and E nest under [C] and [D] respectively.
        hierarchy = hierarchy_of(
            """
            process P =
              ( ? integer A; boolean C, D, E;
                ! integer X; )
              (| synchro { A, C }
               | synchro { when C, D }
               | synchro { when D, E }
               | X := ((A when C) when D) when E
               |)
            end;
            """
        )
        root = hierarchy.class_of_signal("C").node
        d_true = hierarchy.class_of_atom(CondTrue("D")).node
        e_true = hierarchy.class_of_atom(CondTrue("E")).node
        assert root.is_ancestor_of(d_true)
        assert d_true.is_ancestor_of(e_true)
        assert e_true.depth > d_true.depth > 1

    def test_derived_condition_collapses_onto_its_sampling(self):
        # D := C when C is true whenever present, so [D] = ^D and [¬D] = O:
        # the derived condition does not create a deeper level.
        hierarchy = hierarchy_of(
            """
            process P =
              ( ? integer A; boolean C;
                ! integer X; )
              (| D := C when C
               | X := (A when C) when D
               | synchro { A, C }
               |)
              where boolean D;
            end;
            """
        )
        assert hierarchy.encode(CondTrue("D")) == hierarchy.encode(SignalClock("D"))
        assert hierarchy.is_empty(CondFalse("D"))
        assert hierarchy.encode(SignalClock("X")) == hierarchy.encode(CondTrue("C"))


class TestFigure8Fusion:
    def test_formula_over_two_subtrees_is_attached_at_their_branching(self):
        # X lives at [C1] ∨ [C2]; the branching of [C1] and [C2] is ^A.
        hierarchy = hierarchy_of(
            """
            process P =
              ( ? integer A; boolean C1, C2;
                ! integer X; )
              (| X := (A when C1) default (A when C2)
               | synchro { A, C1, C2 }
               |)
            end;
            """
        )
        x_node = hierarchy.class_of_signal("X").node
        root = hierarchy.class_of_signal("A").node
        assert x_node.parent is root
        assert isinstance(x_node.clock_class.definition, FormulaDefinition)

    def test_single_node_trees_for_unrelated_clocks(self):
        hierarchy = hierarchy_of(
            "process P = ( ? integer A, B; ! integer X, Y; ) (| X := A | Y := B |) end;"
        )
        assert hierarchy.forest.tree_count() == 2


class TestFigure12DeepestInsertion:
    SOURCE = """
    process P =
      ( ? integer A; boolean C;
        ! integer X; )
      (| C1 := C when C
       | C2 := (not C) when C
       | K1 := (A when C1) default (A when (not C))
       | K2 := (A when C2) default (A when C)
       | X := K1 + K2 when (C1 when C1)
       | synchro { A, C }
       |)
      where boolean C1, C2; integer K1, K2;
    end;
    """

    def test_conjunction_is_rewritten_under_the_deepest_parent(self):
        """k = k1 ∧ k2 with k1 = [C1]∨[¬C], k2 = [C2]∨[C]: k reduces to [C1]∧[C2].

        The insertion must place k under [C] (the branching of [C1] and [C2])
        rather than directly under the root (the branching of k1 and k2's
        operands), cf. Figure 12.
        """
        hierarchy = hierarchy_of(
            """
            process P =
              ( ? integer A; boolean C, C1, C2;
                ! integer X; )
              (| K1 := (A when C1) default (A when (not C))
               | K2 := (A when C2) default (A when (not C))
               | X := K1 when (event K2)
               | synchro { A, C }
               | synchro { when C, C1, C2 }
               |)
              where integer K1, K2;
            end;
            """
        )
        x_class = hierarchy.class_of_signal("X")
        c_true_node = hierarchy.class_of_atom(CondTrue("C")).node
        # X's clock is ^K1 ∧ ^K2; its node must sit inside the [C] subtree,
        # not directly under the root.
        assert x_class.node is not None
        assert c_true_node.is_ancestor_of(x_class.node) or x_class.node.parent is not None
        assert x_class.node.depth >= c_true_node.depth

    def test_inclusion_invariant_holds_everywhere(self):
        hierarchy = hierarchy_of(self.SOURCE)
        for node in hierarchy.forest.iter_nodes():
            if node.parent is not None:
                assert node.clock_class.bdd.implies(node.parent.clock_class.bdd)

    @staticmethod
    def exhaustive_parent(forest, clock_class, exclude):
        """Reference: scan every node outside ``exclude``'s subtree."""
        best, best_depth = None, -1
        for node in forest.iter_nodes():
            if exclude.is_ancestor_of(node) or node.clock_class is clock_class:
                continue
            if clock_class.bdd.implies(node.clock_class.bdd) and node.depth > best_depth:
                best, best_depth = node, node.depth
        return best

    # ^Z = ^X ∧ ^Y is included in both ^X and ^Y, two children of ^A: of
    # two candidates at the same depth, the first in pre-order wins.
    EQUAL_DEPTH_SOURCE = """
    process TIE =
      ( ? integer A; boolean C1, C2, C3;
        ! integer X, Y, Z; )
      (| X := (A when C1) default (A when C2)
       | Y := (A when C1) default (A when C3)
       | Z := X when (event Y)
       | synchro { A, C1, C2, C3 }
       |)
    end;
    """

    def test_equal_depth_candidates_resolve_to_the_first_in_preorder(self):
        hierarchy = hierarchy_of(self.EQUAL_DEPTH_SOURCE)
        z_node = hierarchy.class_of_signal("Z").node
        assert z_node.parent is hierarchy.class_of_signal("X").node

    @pytest.mark.parametrize(
        "source",
        [EQUAL_DEPTH_SOURCE]
        + [benchmark_source(name) for name in benchmark_names()]
        + [
            generate_control_program(
                ControlProgramSpec(
                    f"TREE{modules}",
                    modules=modules,
                    branching=1 + modules % 3,
                    sensors=1 + modules % 4,
                    with_arithmetic=modules % 2 == 0,
                )
            )
            for modules in range(1, 13)
        ],
        ids=["equal-depth"]
        + benchmark_names()
        + [f"generated-{m}" for m in range(1, 13)],
    )
    def test_pruned_descent_matches_exhaustive_scan(self, source):
        program = normalize(parse_process(source))
        resolver = ArborescentResolver(extract_clock_system(program, infer_types(program)))
        forest = resolver.resolve().forest
        formula_nodes = [
            node
            for node in forest.iter_nodes()
            if isinstance(node.clock_class.definition, FormulaDefinition)
        ]
        assert formula_nodes
        for node in formula_nodes:
            clock_class = node.clock_class
            assert resolver._deepest_admissible_parent(
                forest, clock_class, exclude=node
            ) is self.exhaustive_parent(forest, clock_class, node)

    def test_left_to_right_dfs_visits_operands_before_formulas(self):
        """Triangularity: a depth-first, left-to-right walk of a tree never
        visits a formula node before the nodes its presence is computed from,
        unless those nodes live in another tree of the forest."""
        hierarchy = hierarchy_of(self.SOURCE)
        from repro.clocks.algebra import clock_atoms

        position = {}
        for index, node in enumerate(hierarchy.forest.iter_nodes()):
            position[node.clock_class.id] = index
        for node in hierarchy.forest.iter_nodes():
            definition = node.clock_class.definition
            if isinstance(definition, FormulaDefinition):
                for atom in clock_atoms(definition.formula):
                    operand = hierarchy.class_of_atom(atom)
                    if operand.node is None or operand.is_null:
                        continue
                    assert position[operand.id] <= position[node.clock_class.id] or (
                        operand.node.root is not node.root
                    )
