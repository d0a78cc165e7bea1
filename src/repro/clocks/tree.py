"""Clock trees and the forest of clocks (Section 3.4 of the paper).

A *partition tree* has a clock at its root and, for every boolean signal
``C`` whose clock is a node of the tree, the two samplings ``[C]`` and
``[¬C]`` as children of that node.  Fusion of trees inserts clocks defined
by a formula under the *branching* of their operands, producing general
*clock trees*.  The set of all trees is the *forest of clocks*.

The tree encodes the inclusion relation: every node is included (as a set
of instants) in its parent, hence in all its ancestors.  This property is
what makes the nested if-then-else code generation of Figure 9 valid.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .resolution import ClockClass

__all__ = ["ClockNode", "ClockForest"]


class ClockNode:
    """A node of a clock tree, owning one clock (equivalence) class."""

    def __init__(self, clock_class: "ClockClass"):
        self.clock_class = clock_class
        self.parent: Optional[ClockNode] = None
        self.children: List[ClockNode] = []

    # -- structure ----------------------------------------------------------
    @property
    def depth(self) -> int:
        """Distance to the root of the tree (the root has depth 0)."""
        depth = 0
        node = self
        while node.parent is not None:
            node = node.parent
            depth += 1
        return depth

    @property
    def root(self) -> "ClockNode":
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    def add_child(self, child: "ClockNode") -> None:
        if child.parent is not None:
            raise ValueError("clock node already has a parent")
        child.parent = self
        self.children.append(child)

    def is_ancestor_of(self, other: "ClockNode") -> bool:
        """Whether ``self`` is ``other`` or an ancestor of ``other``."""
        node: Optional[ClockNode] = other
        while node is not None:
            if node is self:
                return True
            node = node.parent
        return False

    def ancestors(self) -> Iterator["ClockNode"]:
        """This node, its parent, ..., up to the root."""
        node: Optional[ClockNode] = self
        while node is not None:
            yield node
            node = node.parent

    def iter_subtree(self) -> Iterator["ClockNode"]:
        """Depth-first, left-to-right traversal of the subtree rooted here.

        A left-to-right depth-first search visits the operands of an inserted
        formula before the formula itself, which is how the tree embodies the
        triangular ordering of the system of equations.  The walk keeps its
        own stack, so a deep tree cannot exhaust the interpreter's.
        """
        return _preorder([self])

    def size(self) -> int:
        return sum(1 for _ in self.iter_subtree())

    def height(self) -> int:
        """Longest distance from this node down to a leaf (iterative)."""
        height = 0
        stack = [(self, 0)]
        while stack:
            node, depth = stack.pop()
            height = max(height, depth)
            stack.extend((child, depth + 1) for child in node.children)
        return height

    # -- display --------------------------------------------------------------
    def render(self, label: Optional[Callable[["ClockNode"], str]] = None) -> str:
        """ASCII rendering of the subtree (used by examples and diagnostics)."""
        label = label or (lambda node: node.clock_class.display_name())
        lines: List[str] = []

        def walk(node: "ClockNode", prefix: str, is_last: bool, is_root: bool) -> None:
            if is_root:
                lines.append(label(node))
                child_prefix = ""
            else:
                connector = "`-- " if is_last else "|-- "
                lines.append(prefix + connector + label(node))
                child_prefix = prefix + ("    " if is_last else "|   ")
            for index, child in enumerate(node.children):
                walk(child, child_prefix, index == len(node.children) - 1, False)

        walk(self, "", True, True)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClockNode({self.clock_class.display_name()}, children={len(self.children)})"


def _preorder(roots: List[ClockNode]) -> Iterator[ClockNode]:
    """Depth-first, left-to-right pre-order of ``roots`` and their subtrees."""
    stack = list(reversed(roots))
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


class ClockForest:
    """The forest of clock trees of a program."""

    def __init__(self) -> None:
        self.roots: List[ClockNode] = []

    def add_root(self, node: ClockNode) -> None:
        if node.parent is not None:
            raise ValueError("a root node cannot have a parent")
        self.roots.append(node)

    def iter_nodes(self) -> Iterator[ClockNode]:
        """Every node of every tree, root by root, each in pre-order."""
        return _preorder(self.roots)

    def node_count(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    def tree_count(self) -> int:
        return len(self.roots)

    def height(self) -> int:
        if not self.roots:
            return 0
        return max(root.height() for root in self.roots)

    def find(self, predicate: Callable[[ClockNode], bool]) -> Optional[ClockNode]:
        for node in self.iter_nodes():
            if predicate(node):
                return node
        return None

    def render(self) -> str:
        return "\n".join(root.render() for root in self.roots)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClockForest(trees={self.tree_count()}, nodes={self.node_count()})"
