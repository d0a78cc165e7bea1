"""Arborescent resolution of the system of clock equations (Section 3).

The resolution *triangularizes* the system: every clock is either a **free
variable** (the environment must provide its instants) or receives an
oriented definition ``k := k1 <op> k2`` / ``k := partition of its parent``,
such that the clock-to-clock dependency graph is acyclic.  The result is a
:class:`ClockHierarchy` containing

* the clock *equivalence classes* (clocks proved equal are merged),
* a BDD encoding of every class (the canonical form used for rewriting),
* the *forest of clock trees*, where each defined clock sits under its
  deepest admissible parent (the canonical factorization of [1]),
* the list of free classes, and
* the verification obligations that could not be discharged (a non-empty
  list means the program is rejected as temporally incorrect, or at least
  beyond the heuristic, exactly as in the paper).

The algorithm follows the strategy of Section 3.2:

1. equations between two clock variables merge their classes;
2. definitional equations ``k = formula`` are oriented when all the
   operands of ``formula`` are already defined;
3. when no equation can be oriented (a cycle), one class is *assumed free*
   -- this is the rewriting step of Section 3.3 in disguise: the deferred
   equations are then checked for equivalence against the BDD encoding,
   which performs the ``[C1] ∨ ĉ → ĉ``-style inclusion rewriting
   automatically because sampled clocks are encoded as restrictions of
   their parent's encoding.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..bdd import BDD, BDDManager
from ..errors import ClockCalculusError
from .algebra import (
    ClockAtom,
    ClockExpr,
    CondFalse,
    CondTrue,
    Diff,
    Join,
    Meet,
    NullClock,
    SignalClock,
    clock_atoms,
)
from .encoding import ValueEncoder
from .equations import ClockEquation, ClockSystem
from .tree import ClockForest, ClockNode

__all__ = [
    "FreeDefinition",
    "NullDefinition",
    "PartitionDefinition",
    "FormulaDefinition",
    "ClockClass",
    "ClockHierarchy",
    "ArborescentResolver",
    "presence_name",
    "resolve",
]


# ---------------------------------------------------------------------------
# Definitions attached to clock classes by the triangularization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FreeDefinition:
    """The class is a free variable: the environment provides its instants."""

    reason: str = "no defining equation"


@dataclass(frozen=True)
class NullDefinition:
    """The class is the null clock ``Ô`` (never present)."""


@dataclass(frozen=True)
class PartitionDefinition:
    """The class is ``[C]`` or ``[¬C]``: its parent's instants where C is true/false."""

    parent_id: int
    condition: str
    polarity: bool


@dataclass(frozen=True)
class FormulaDefinition:
    """The class is defined by a formula over other (already defined) classes."""

    formula: ClockExpr


ClassDefinition = Union[FreeDefinition, NullDefinition, PartitionDefinition, FormulaDefinition]


# ---------------------------------------------------------------------------
# Clock classes
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ClockClass:
    """An equivalence class of clocks proved equal by the calculus.

    Instances have identity semantics (two distinct objects are never equal),
    which is what the resolution and the backends rely on.
    """

    id: int
    atoms: List[ClockAtom] = field(default_factory=list)
    is_null: bool = False
    definition: Optional[ClassDefinition] = None
    bdd: Optional[BDD] = None
    node: Optional[ClockNode] = None
    assumed_free: bool = False
    #: id of the canonical class this one was merged into (proved equal), if any
    merged_into: Optional[int] = None

    # Definitions gathered from the equations, before orientation.
    partition_candidates: List[Tuple[str, bool]] = field(default_factory=list)
    formula_candidates: List[ClockExpr] = field(default_factory=list)
    #: index of the candidate actually used for placement ("p", i) or ("f", i)
    used_candidate: Optional[Tuple[str, int]] = None

    @property
    def signals(self) -> List[str]:
        """Signals whose clock is this class."""
        return [atom.signal for atom in self.atoms if isinstance(atom, SignalClock)]

    @property
    def is_free(self) -> bool:
        return isinstance(self.definition, FreeDefinition)

    def display_name(self) -> str:
        """A short, stable, human-readable name for the class."""
        return "O" if self.is_null else _atoms_name(self.atoms, self.id)

    def presence_name(self) -> str:
        """The name of the boolean presence flag used by generated code."""
        return presence_name(self.atoms, self.id)

    def __str__(self) -> str:
        members = ", ".join(sorted(str(a) for a in self.atoms))
        return f"{{{members}}}"


def _atoms_name(atoms: Sequence[ClockAtom], class_id: int) -> str:
    """The least signal clock of ``atoms``, else their least atom, else ``k<id>``."""
    signal_atoms = [str(a) for a in atoms if isinstance(a, SignalClock)]
    if signal_atoms:
        return min(signal_atoms)
    if atoms:
        return min(str(a) for a in atoms)
    return f"k{class_id}"


def presence_name(atoms: Sequence[ClockAtom], class_id: int) -> str:
    """The presence-flag name of the non-null class ``class_id`` holding ``atoms``.

    The one naming rule of a free clock's input key: the linker names the
    free clocks of a linked program from their unit records with it, so a
    linked executable reads the same keys as the monolithic compile.
    """
    cleaned = (
        _atoms_name(atoms, class_id)
        .replace("^", "C_")
        .replace("[~", "NOT_")
        .replace("[", "AT_")
        .replace("]", "")
    )
    return f"h_{cleaned}"


# ---------------------------------------------------------------------------
# The result of the resolution
# ---------------------------------------------------------------------------


@dataclass
class UnresolvedConstraint:
    """A constraint the heuristic could not prove."""

    clock_class: ClockClass
    description: str

    def __str__(self) -> str:
        return f"{self.clock_class.display_name()}: {self.description}"


class ClockHierarchy:
    """Triangularized clock system: classes, BDD encodings and the clock forest."""

    def __init__(
        self,
        system: ClockSystem,
        manager: BDDManager,
        classes: List[ClockClass],
        class_of: Dict[Tuple[type, str], ClockClass],
        forest: ClockForest,
        value_encoder: ValueEncoder,
        placement_order: List[ClockClass],
        unresolved: List[UnresolvedConstraint],
    ):
        self.system = system
        self.manager = manager
        self.classes = classes
        self.forest = forest
        self.value_encoder = value_encoder
        self.placement_order = placement_order
        self.unresolved = unresolved
        #: the class of every clock variable, keyed by (atom type, signal)
        self._class_of = class_of

    # -- lookups ------------------------------------------------------------
    def class_of_atom(self, atom: ClockAtom) -> ClockClass:
        try:
            return self._class_of[(atom.__class__, atom.signal)]  # type: ignore[union-attr]
        except (KeyError, AttributeError):
            raise ClockCalculusError(f"unknown clock {atom}") from None

    def class_of_signal(self, name: str) -> ClockClass:
        try:
            return self._class_of[(SignalClock, name)]
        except KeyError:
            raise ClockCalculusError(f"unknown clock {SignalClock(name)}") from None

    @property
    def null_class(self) -> Optional[ClockClass]:
        for clock_class in self.classes:
            if clock_class.is_null:
                return clock_class
        return None

    def free_classes(self) -> List[ClockClass]:
        """The free variables exhibited by the triangularization."""
        return [c for c in self.classes if c.is_free]

    def master_class(self) -> Optional[ClockClass]:
        """The unique free class, when there is exactly one (the master clock)."""
        free = [c for c in self.free_classes() if not c.is_null]
        if len(free) == 1:
            return free[0]
        return None

    # -- semantic queries ---------------------------------------------------------
    def encode(self, expression: ClockExpr) -> BDD:
        """Encode an arbitrary clock formula against the resolved classes."""
        if isinstance(expression, NullClock):
            return self.manager.false
        if isinstance(expression, (SignalClock, CondTrue, CondFalse)):
            clock_class = self.class_of_atom(expression)
            if clock_class.bdd is None:
                raise ClockCalculusError(
                    f"clock {expression} was not resolved", None
                )
            return clock_class.bdd
        if isinstance(expression, Meet):
            return self.encode(expression.left) & self.encode(expression.right)
        if isinstance(expression, Join):
            return self.encode(expression.left) | self.encode(expression.right)
        if isinstance(expression, Diff):
            return self.encode(expression.left) - self.encode(expression.right)
        raise ClockCalculusError(f"not a clock expression: {expression!r}")

    def are_synchronous(self, first: str, second: str) -> bool:
        """Whether two signals were proved to have the same clock."""
        return self.encode(SignalClock(first)) == self.encode(SignalClock(second))

    def is_subclock(self, smaller: ClockExpr, larger: ClockExpr) -> bool:
        """Whether ``smaller ⊆ larger`` holds in the resolved system."""
        return self.encode(smaller).implies(self.encode(larger))

    def is_empty(self, expression: ClockExpr) -> bool:
        return self.encode(expression).is_false

    # -- reporting -----------------------------------------------------------------
    @property
    def is_resolved(self) -> bool:
        return not self.unresolved

    def check(self) -> None:
        """Raise if the program is temporally incorrect / beyond the heuristic."""
        if self.unresolved:
            details = "; ".join(str(u) for u in self.unresolved)
            raise ClockCalculusError(
                f"clock calculus could not resolve {len(self.unresolved)} constraint(s): {details}"
            )

    def statistics(self) -> Dict[str, int]:
        """Structural statistics used by the benchmarks (Figure 13 columns).

        ``bdd_nodes`` counts the nodes reachable from this hierarchy's own
        classes; ``bdd_nodes_total`` is the size of the manager's whole node
        table.  ``compile_source`` and every service or daemon miss compile on
        a fresh manager of their own, so both are a function of the program
        alone.
        """
        bdd_nodes = self.manager.shared_node_count(
            clock_class.bdd for clock_class in self.classes if clock_class.bdd is not None
        )
        return {
            "classes": len(self.classes),
            "variables": self.system.variable_count(),
            "bdd_nodes": bdd_nodes,
            "bdd_nodes_total": self.manager.num_nodes,
            "trees": self.forest.tree_count(),
            "forest_nodes": self.forest.node_count(),
            "forest_height": self.forest.height(),
            "free_clocks": len(self.free_classes()),
            "unresolved": len(self.unresolved),
        }

    def render_forest(self) -> str:
        return self.forest.render()


# ---------------------------------------------------------------------------
# The resolver
# ---------------------------------------------------------------------------


#: the clock variables of an equation
_ATOMS = (SignalClock, CondTrue, CondFalse, NullClock)


class ArborescentResolver:
    """Performs the arborescent resolution of a clock system.

    Formulas are inserted under their *deepest* admissible parent, with
    fusion of trees: the canonical factorization of Figure 12.
    """

    def __init__(self, system: ClockSystem, manager: Optional[BDDManager] = None):
        self.system = system
        self.manager = manager if manager is not None else BDDManager()
        self.value_encoder = ValueEncoder(self.manager, system.program, system.types)
        self._classes: List[ClockClass] = []
        #: the class of every clock variable, keyed by (atom type, signal):
        #: the key hashes and compares in C, where an atom's methods are Python
        self._class_of: Dict[Tuple[type, str], ClockClass] = {}
        #: per class id, the class of each partition candidate's condition
        #: signal (None when it has none) and the operand classes of each
        #: formula candidate, as the classes stand before any merge
        self._partition_parents: List[List[Optional[ClockClass]]] = []
        self._formula_operands: List[List[List[ClockClass]]] = []
        self._placement_order: List[ClockClass] = []
        self._unresolved: List[UnresolvedConstraint] = []

    # -- public entry point ----------------------------------------------------
    def resolve(self) -> ClockHierarchy:
        self._build_classes()
        self._place_classes()
        self._merge_equivalent_classes()
        self._verify_obligations()
        forest = self._build_forest()
        canonical_classes = [c for c in self._classes if c.merged_into is None]
        canonical_order = [c for c in self._placement_order if c.merged_into is None]
        return ClockHierarchy(
            system=self.system,
            manager=self.manager,
            classes=canonical_classes,
            class_of=self._class_of,
            forest=forest,
            value_encoder=self.value_encoder,
            placement_order=canonical_order,
            unresolved=self._unresolved,
        )

    # -- step 1: equivalence classes ----------------------------------------------
    def _build_classes(self) -> None:
        program = self.system.program

        # A union-find over the indices of the clock variables, seeded with
        # every clock variable of the system.  Indices are looked up by
        # (type, signal), which hashes and compares in C.
        atoms: List[ClockExpr] = []
        index: Dict[Tuple[type, str], int] = {}
        parent: List[int] = []

        def index_of(atom: ClockExpr) -> int:
            key = (atom.__class__, "" if isinstance(atom, NullClock) else atom.signal)
            position = index.get(key)
            if position is None:
                position = index[key] = len(atoms)
                atoms.append(atom)
                parent.append(position)
            return position

        def find(position: int) -> int:
            root = position
            while parent[root] != root:
                root = parent[root]
            while parent[position] != root:  # path compression
                parent[position], position = root, parent[position]
            return root

        index_of(NullClock())
        for name in program.signals:
            index_of(SignalClock(name))
        for name in self.system.boolean_signals:
            index_of(CondTrue(name))
            index_of(CondFalse(name))

        definitional: List[Tuple[ClockAtom, ClockExpr]] = []

        for equation in self.system.equations:
            if equation.partition:
                # Partition constraints are represented structurally by the
                # encoding ([C] = ĉ ∧ value, [¬C] = ĉ ∧ ¬value).
                continue
            left, right = equation.left, equation.right
            if isinstance(left, _ATOMS) and isinstance(right, _ATOMS):
                root_left = find(index_of(left))
                root_right = find(index_of(right))
                if root_left != root_right:
                    parent[root_right] = root_left
            elif isinstance(left, _ATOMS):
                definitional.append((left, right))
            elif isinstance(right, _ATOMS):
                definitional.append((right, left))
            else:  # pragma: no cover - Table 1 never produces this shape
                raise ClockCalculusError(
                    f"unsupported clock equation shape: {equation}"
                )

        # Group atoms into classes, numbered in order of their first atom.
        class_of_root: Dict[int, ClockClass] = {}
        for key, position in index.items():
            atom = atoms[position]
            root = find(position)
            clock_class = class_of_root.get(root)
            if clock_class is None:
                clock_class = class_of_root[root] = ClockClass(id=len(self._classes))
                self._classes.append(clock_class)
            if isinstance(atom, NullClock):
                clock_class.is_null = True
            else:
                clock_class.atoms.append(atom)  # type: ignore[arg-type]
                self._class_of[key] = clock_class

        for atom, formula in definitional:
            self._class_of[(atom.__class__, atom.signal)].formula_candidates.append(formula)

        # Attach candidate definitions to classes, with the classes they read.
        for clock_class in self._classes:
            parents: List[Optional[ClockClass]] = []
            for atom in clock_class.atoms:
                if isinstance(atom, (CondTrue, CondFalse)):
                    clock_class.partition_candidates.append(
                        (atom.signal, isinstance(atom, CondTrue))
                    )
                    parents.append(self._class_of.get((SignalClock, atom.signal)))
            self._partition_parents.append(parents)
            self._formula_operands.append(
                [self._class_of_expr_atoms(f) for f in clock_class.formula_candidates]
            )

    # -- step 2: placement (orientation of the equations) -----------------------------
    def _class_of_expr_atoms(self, formula: ClockExpr) -> List[ClockClass]:
        return [self._class_of[(a.__class__, a.signal)] for a in clock_atoms(formula)]

    def _encode_formula(self, formula: ClockExpr) -> BDD:
        if isinstance(formula, NullClock):
            return self.manager.false
        if isinstance(formula, (SignalClock, CondTrue, CondFalse)):
            clock_class = self._class_of[(formula.__class__, formula.signal)]
            assert clock_class.bdd is not None
            return clock_class.bdd
        if isinstance(formula, Meet):
            return self._encode_formula(formula.left) & self._encode_formula(formula.right)
        if isinstance(formula, Join):
            return self._encode_formula(formula.left) | self._encode_formula(formula.right)
        if isinstance(formula, Diff):
            return self._encode_formula(formula.left) - self._encode_formula(formula.right)
        raise ClockCalculusError(f"not a clock formula: {formula!r}")

    def _try_place(self, clock_class: ClockClass) -> bool:
        """Attempt to orient one definition of the class; return True on success."""
        if clock_class.is_null:
            clock_class.definition = NullDefinition()
            clock_class.bdd = self.manager.false
            return True

        # Prefer a partition definition: it yields the natural tree structure.
        parents = self._partition_parents[clock_class.id]
        for index, (condition, polarity) in enumerate(clock_class.partition_candidates):
            parent_class = parents[index]
            if parent_class is None or parent_class is clock_class:
                continue
            if parent_class.bdd is None:
                continue
            value = self.value_encoder.value_of(condition)
            clock_class.bdd = parent_class.bdd & (value if polarity else ~value)
            clock_class.definition = PartitionDefinition(
                parent_class.id, condition, polarity
            )
            clock_class.used_candidate = ("p", index)
            return True

        operands = self._formula_operands[clock_class.id]
        for index, formula in enumerate(clock_class.formula_candidates):
            operand_classes = operands[index]
            if any(c is clock_class for c in operand_classes):
                continue  # self-referential: cannot be oriented directly
            if any(c.bdd is None for c in operand_classes):
                continue
            clock_class.bdd = self._encode_formula(formula)
            clock_class.definition = FormulaDefinition(formula)
            clock_class.used_candidate = ("f", index)
            return True

        if not clock_class.partition_candidates and not clock_class.formula_candidates:
            # No constraint at all: a free clock (typically an input's clock).
            clock_class.definition = FreeDefinition("no defining equation")
            clock_class.bdd = self.manager.declare(
                f"h_{clock_class.id}_{clock_class.display_name()}"
            )
            return True

        return False

    def _choose_victim(self, unplaced: List[ClockClass]) -> ClockClass:
        """Pick the class to assume free when orientation is stuck on a cycle.

        ``unplaced`` is in the sorted processing order of the placement.
        The preferred victim is a class that can *never* be oriented: all of
        its candidate definitions refer back to the class itself (the
        ``ĉ = [D] ∨ [C1] ∨ ĉ`` situation of Section 3.3 -- typically the
        clock of a state variable).  Assuming it free and then proving the
        deferred equation via the BDD encoding is exactly the paper's
        cycle-breaking rewrite.  Classes that still have a definition merely
        *waiting* on other classes are not picked unless nothing better
        exists (a genuine mutual cycle between distinct clocks).
        """

        def self_referential_formulas(clock_class: ClockClass) -> List[bool]:
            return [
                any(c is clock_class for c in operand_classes)
                for operand_classes in self._formula_operands[clock_class.id]
            ]

        def only_self_referential(clock_class: ClockClass) -> bool:
            parents = self._partition_parents[clock_class.id]
            if any(p is not None and p is not clock_class for p in parents):
                return False
            formulas = self_referential_formulas(clock_class)
            return all(formulas) and bool(parents or formulas)

        for clock_class in unplaced:
            if only_self_referential(clock_class):
                return clock_class
        for clock_class in unplaced:
            if any(self_referential_formulas(clock_class)):
                return clock_class
        for clock_class in unplaced:
            if clock_class.formula_candidates:
                return clock_class
        return unplaced[0]

    def _read_classes(self, clock_class: ClockClass) -> List[ClockClass]:
        """The classes whose placement can let :meth:`_try_place` succeed."""
        read = [p for p in self._partition_parents[clock_class.id] if p is not None]
        for operand_classes in self._formula_operands[clock_class.id]:
            read.extend(operand_classes)
        return read

    def _place_classes(self) -> None:
        """Orient the equations, assuming a class free whenever none can be.

        The specification is a fixpoint of sweeps: try every unplaced class
        in sorted order, sweep again while a sweep places something, and
        when one places nothing assume a class free (:meth:`_choose_victim`)
        and sweep again.  A failed :meth:`_try_place` changes nothing, and
        its outcome can only change once a class it reads is placed.  So a
        class is re-tried only then, at the point where the sweeps would
        next reach it: a heap keyed by (sweep, sorted position) holds the
        due tries, and a class read by one placed at position p is due in
        the same sweep if it sorts after p, else in the next one.  When no
        try is due the sweeps are stuck; the victim counts as placed after
        every position, so its readers are due in the next sweep.  Placement
        order, BDD construction order and the victims are exactly those of
        the sweeps, at one try per class plus one per placed class it reads.
        """
        # Deterministic processing order keeps the construction canonical.
        ordered = sorted(self._classes, key=lambda c: (c.display_name(), c.id))
        readers: Dict[int, List[int]] = {c.id: [] for c in ordered}
        for index, clock_class in enumerate(ordered):
            for read_class in self._read_classes(clock_class):
                readers[read_class.id].append(index)

        due = [(0, index) for index in range(len(ordered))]  # sorted, hence a heap
        queued = [True] * len(ordered)
        unplaced = len(ordered)
        sweep = 0
        while unplaced:
            if due:
                sweep, index = heapq.heappop(due)
                queued[index] = False
                clock_class = ordered[index]
                if not self._try_place(clock_class):
                    continue
            else:
                # Nothing is due, so a whole sweep would place nothing: assume
                # a class free, after every sorted position.
                index = len(ordered)
                clock_class = self._choose_victim([c for c in ordered if c.bdd is None])
                clock_class.definition = FreeDefinition("assumed free to break a clock cycle")
                clock_class.assumed_free = True
                clock_class.bdd = self.manager.declare(
                    f"h_{clock_class.id}_{clock_class.display_name()}"
                )
            unplaced -= 1
            self._placement_order.append(clock_class)
            for reader in readers[clock_class.id]:
                if not queued[reader] and ordered[reader].bdd is None:
                    queued[reader] = True
                    heapq.heappush(due, (sweep if reader > index else sweep + 1, reader))

    # -- step 2b: elimination of equivalent variables -----------------------------------
    def _canonical(self, clock_class: ClockClass) -> ClockClass:
        while clock_class.merged_into is not None:
            clock_class = self._classes[clock_class.merged_into]
        return clock_class

    def _merge_equivalent_classes(self) -> None:
        """Merge classes whose encodings are provably equal.

        The paper notes that the triangularized system "has less variables"
        because "some variables may be (and very often are) eliminated due to
        their equivalence with other variables".  With the BDD encoding, two
        clocks are provably equal exactly when their BDDs are the same node,
        so the elimination is a grouping by BDD reference.  The canonical
        representative of a group is its *earliest placed* member: its
        definition can only reference classes placed before it, which are by
        construction outside the group, so the triangular ordering survives
        the merge.
        """
        canonical_by_ref: Dict[int, ClockClass] = {}
        for clock_class in self._placement_order:
            assert clock_class.bdd is not None
            canonical = canonical_by_ref.get(clock_class.bdd.ref)
            if canonical is None:
                canonical_by_ref[clock_class.bdd.ref] = clock_class
                continue
            clock_class.merged_into = canonical.id
            canonical.atoms.extend(clock_class.atoms)
            if clock_class.is_null:
                canonical.is_null = True
            for atom in clock_class.atoms:
                self._class_of[(atom.__class__, atom.signal)] = canonical

    # -- step 3: verification of the deferred equations ---------------------------------
    def _verify_obligations(self) -> None:
        for clock_class in self._classes:
            assert clock_class.bdd is not None
            for index, (condition, polarity) in enumerate(clock_class.partition_candidates):
                if clock_class.used_candidate == ("p", index):
                    continue
                parent_class = self._class_of.get((SignalClock, condition))
                if parent_class is None or parent_class.bdd is None:
                    continue
                value = self.value_encoder.value_of(condition)
                expected = parent_class.bdd & (value if polarity else ~value)
                if expected != clock_class.bdd:
                    sampling = f"[{condition}]" if polarity else f"[~{condition}]"
                    self._unresolved.append(
                        UnresolvedConstraint(
                            clock_class,
                            f"cannot prove {clock_class.display_name()} = {sampling}",
                        )
                    )
            for index, formula in enumerate(clock_class.formula_candidates):
                if clock_class.used_candidate == ("f", index):
                    continue
                operand_classes = self._class_of_expr_atoms(formula)
                if any(c.bdd is None for c in operand_classes):  # pragma: no cover
                    continue
                expected = self._encode_formula(formula)
                if expected != clock_class.bdd:
                    self._unresolved.append(
                        UnresolvedConstraint(
                            clock_class,
                            f"cannot prove {clock_class.display_name()} = {formula}",
                        )
                    )

    # -- step 4: the forest of clock trees -------------------------------------------------
    def _build_forest(self) -> ClockForest:
        forest = ClockForest()

        # Skeleton: free roots and partition children, in placement order so
        # that a partition's parent always has a node already.
        for clock_class in self._placement_order:
            if clock_class.is_null or clock_class.merged_into is not None:
                continue
            definition = clock_class.definition
            if isinstance(definition, FreeDefinition):
                node = ClockNode(clock_class)
                clock_class.node = node
                forest.add_root(node)
            elif isinstance(definition, PartitionDefinition):
                parent_class = self._canonical(self._classes[definition.parent_id])
                node = ClockNode(clock_class)
                clock_class.node = node
                if parent_class.node is None:
                    # The parent is formula-defined and not yet in the forest;
                    # create its node lazily as a provisional root.  It will be
                    # re-attached by the fusion pass below if possible.
                    parent_node = ClockNode(parent_class)
                    parent_class.node = parent_node
                    forest.add_root(parent_node)
                parent_class.node.add_child(node)

        # Formula-defined classes: insert under the deepest admissible parent.
        for clock_class in self._placement_order:
            if (
                clock_class.node is not None
                or clock_class.is_null
                or clock_class.merged_into is not None
            ):
                continue
            if not isinstance(clock_class.definition, FormulaDefinition):
                continue
            node = ClockNode(clock_class)
            clock_class.node = node
            parent = self._deepest_admissible_parent(forest, clock_class, exclude=node)
            if parent is None:
                forest.add_root(node)
            else:
                parent.add_child(node)

        self._fusion_pass(forest)
        return forest

    def _deepest_admissible_parent(
        self,
        forest: ClockForest,
        clock_class: ClockClass,
        exclude: Optional[ClockNode] = None,
    ) -> Optional[ClockNode]:
        """The deepest node whose clock includes ``clock_class`` (Figure 12).

        Every node is included in its parent, so no descendant of a node
        that does not include ``clock_class`` can include it: the search
        descends from the roots, pre-order and left to right, and prunes
        such subtrees.  The subtree of ``exclude`` is skipped; among the
        deepest candidates the first one visited wins.
        """
        assert clock_class.bdd is not None
        ref = clock_class.bdd.ref
        implies = self.manager.implies_ref
        best: Optional[ClockNode] = None
        best_depth = -1
        stack = [(root, 0) for root in reversed(forest.roots)]
        while stack:
            node, depth = stack.pop()
            if node is exclude:
                continue
            other = node.clock_class.bdd
            if node.clock_class is not clock_class and other is not None:
                if not implies(ref, other.ref):
                    continue
                if depth > best_depth:
                    best = node
                    best_depth = depth
            stack.extend((child, depth + 1) for child in reversed(node.children))
        return best

    def _fusion_pass(self, forest: ClockForest) -> None:
        """Re-attach formula-defined subtrees under deeper admissible parents.

        This realizes the *fusion of clock trees* (Figure 8) together with the
        canonical deepest-parent insertion (Figure 12): the loop runs until no
        subtree can be moved any deeper, which terminates because every move
        strictly increases the depth of the moved node.
        """
        moved = True
        guard = 0
        while moved:
            moved = False
            guard += 1
            if guard > 10 * max(1, forest.node_count()):  # pragma: no cover - safety net
                break
            for node in list(forest.iter_nodes()):
                if not isinstance(node.clock_class.definition, FormulaDefinition):
                    continue
                best = self._deepest_admissible_parent(
                    forest, node.clock_class, exclude=node
                )
                if best is None:
                    continue
                current_depth = node.parent.depth if node.parent is not None else -1
                if best.depth > current_depth and not node.is_ancestor_of(best):
                    # Detach and re-attach (the subtree moves with the node).
                    if node.parent is not None:
                        node.parent.children.remove(node)
                        node.parent = None
                    else:
                        forest.roots.remove(node)
                    best.add_child(node)
                    moved = True


def resolve(system: ClockSystem, manager: Optional[BDDManager] = None) -> ClockHierarchy:
    """Triangularize ``system`` and build its clock hierarchy."""
    return ArborescentResolver(system, manager).resolve()
