"""Reduced Ordered Binary Decision Diagrams.

The implementation follows the classical design of Bryant's package and of
Brace/Rudell/Bryant's ``ite``-based packages:

* a *unique table* guarantees that structurally identical nodes are shared,
  which makes equality of boolean functions a pointer comparison;
* a *computed cache* memoizes ``ite`` calls;
* complement edges are **not** used -- negation is an ordinary ``ite`` --
  to keep the code straightforward and easy to audit.

Variables are identified by integer *levels*: smaller level means closer to
the root.  The :class:`BDDManager` hands out levels in declaration order and
keeps a name registry so clock encodings can declare meaningful variables
such as ``p_X`` (presence of signal X) or ``v_C`` (value of condition C).

Node budgets
------------

The manager accepts an optional ``max_nodes`` budget.  When the unique table
grows beyond the budget a :class:`~repro.errors.ResourceLimitExceeded` is
raised.  The Figure 13 benchmark uses this to reproduce the paper's
``unable-mem`` outcomes for the characteristic-function representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..errors import ResourceLimitExceeded

__all__ = ["BDDNode", "BDD", "BDDManager"]


@dataclass(frozen=True)
class BDDNode:
    """An internal decision node: ``if var(level) then high else low``."""

    level: int
    low: int
    high: int


class BDD:
    """A handle on a boolean function owned by a :class:`BDDManager`.

    Handles compare equal iff they denote the same function (canonicity of
    ROBDDs) and support the usual operator syntax::

        f & g, f | g, ~f, f ^ g, f - g (difference), f >> g (implication)
    """

    __slots__ = ("manager", "ref")

    def __init__(self, manager: "BDDManager", ref: int):
        self.manager = manager
        self.ref = ref

    # -- comparisons ----------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BDD):
            return NotImplemented
        return self.manager is other.manager and self.ref == other.ref

    def __hash__(self) -> int:
        return hash((id(self.manager), self.ref))

    # -- boolean structure ----------------------------------------------
    @property
    def is_true(self) -> bool:
        return self.ref == self.manager.TRUE

    @property
    def is_false(self) -> bool:
        return self.ref == self.manager.FALSE

    @property
    def is_constant(self) -> bool:
        return self.is_true or self.is_false

    # -- operators -------------------------------------------------------
    def _coerce(self, other: object) -> "BDD":
        if isinstance(other, BDD):
            if other.manager is not self.manager:
                raise ValueError("cannot mix BDDs from different managers")
            return other
        if other is True:
            return self.manager.true
        if other is False:
            return self.manager.false
        raise TypeError(f"cannot combine BDD with {other!r}")

    def __and__(self, other: object) -> "BDD":
        return self.manager.apply_and(self, self._coerce(other))

    def __or__(self, other: object) -> "BDD":
        return self.manager.apply_or(self, self._coerce(other))

    def __xor__(self, other: object) -> "BDD":
        return self.manager.apply_xor(self, self._coerce(other))

    def __invert__(self) -> "BDD":
        return self.manager.apply_not(self)

    def __sub__(self, other: object) -> "BDD":
        return self & ~self._coerce(other)

    def __rshift__(self, other: object) -> "BDD":
        """Implication ``self -> other``."""
        return ~self | self._coerce(other)

    def equiv(self, other: "BDD") -> "BDD":
        """Bi-implication ``self <-> other`` as a BDD."""
        return ~(self ^ self._coerce(other))

    def implies(self, other: "BDD") -> bool:
        """Whether ``self -> other`` is a tautology (set inclusion)."""
        return self.manager.implies(self, self._coerce(other))

    # -- queries -----------------------------------------------------------
    def node_count(self) -> int:
        """Number of decision nodes reachable from this function (terminals excluded)."""
        return self.manager.node_count(self)

    def support(self) -> Set[int]:
        """Set of variable levels the function depends on."""
        return self.manager.support(self)

    def restrict(self, assignment: Dict[int, bool]) -> "BDD":
        return self.manager.restrict(self, assignment)

    def exists(self, levels: Iterable[int]) -> "BDD":
        return self.manager.exists(self, levels)

    def forall(self, levels: Iterable[int]) -> "BDD":
        return self.manager.forall(self, levels)

    def satisfy_one(self) -> Optional[Dict[int, bool]]:
        return self.manager.satisfy_one(self)

    def satisfy_count(self, nvars: Optional[int] = None) -> int:
        return self.manager.satisfy_count(self, nvars)

    def evaluate(self, assignment: Dict[int, bool]) -> bool:
        return self.manager.evaluate(self, assignment)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_true:
            return "BDD(TRUE)"
        if self.is_false:
            return "BDD(FALSE)"
        return f"BDD(ref={self.ref}, nodes={self.node_count()})"


class BDDManager:
    """Owner of the unique table, computed cache and variable registry."""

    FALSE = 0
    TRUE = 1

    def __init__(self, max_nodes: Optional[int] = None):
        # Node storage: index -> (level, low, high).  Indices 0 and 1 are the
        # terminal nodes and use a sentinel level larger than any variable.
        self._nodes: List[Tuple[int, int, int]] = [
            (self._TERMINAL_LEVEL, 0, 0),
            (self._TERMINAL_LEVEL, 1, 1),
        ]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._ite_cache: Dict[Tuple[int, int, int], int] = {}
        self._implies_cache: Dict[Tuple[int, int], bool] = {}
        self._var_names: List[str] = []
        self._name_to_level: Dict[str, int] = {}
        self.max_nodes = max_nodes

    _TERMINAL_LEVEL = 1 << 30

    # -- variable registry ---------------------------------------------------
    def declare(self, name: str) -> BDD:
        """Declare (or fetch) a variable by name and return it as a function."""
        if name in self._name_to_level:
            return self.var(self._name_to_level[name])
        level = len(self._var_names)
        self._var_names.append(name)
        self._name_to_level[name] = level
        return self.var(level)

    def level_of(self, name: str) -> int:
        return self._name_to_level[name]

    def name_of(self, level: int) -> str:
        return self._var_names[level]

    @property
    def num_vars(self) -> int:
        return len(self._var_names)

    @property
    def num_nodes(self) -> int:
        """Total number of decision nodes ever created (terminals excluded)."""
        return len(self._nodes) - 2

    def statistics(self) -> Dict[str, int]:
        """Size counters for monitoring.

        The unique table and the variable registry are append-only -- nodes
        are never reclaimed individually.  Every compilation owns its own
        manager, so ``nodes`` is the table of one program and is freed with
        it; :meth:`clear_caches` drops the computed caches once the
        compilation is done.
        """
        return {
            "nodes": self.num_nodes,
            "vars": self.num_vars,
            "unique_table_entries": len(self._unique),
            "ite_cache_entries": len(self._ite_cache),
        }

    # -- terminals and variables ----------------------------------------------
    @property
    def true(self) -> BDD:
        return BDD(self, self.TRUE)

    @property
    def false(self) -> BDD:
        return BDD(self, self.FALSE)

    def var(self, level: int) -> BDD:
        if level < 0 or level >= len(self._var_names):
            raise ValueError(f"undeclared BDD variable level {level}")
        return BDD(self, self._mk(level, self.FALSE, self.TRUE))

    def nvar(self, level: int) -> BDD:
        return BDD(self, self._mk(level, self.TRUE, self.FALSE))

    # -- node construction ------------------------------------------------------
    def _mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        found = self._unique.get(key)
        if found is not None:
            return found
        if self.max_nodes is not None and self.num_nodes >= self.max_nodes:
            raise ResourceLimitExceeded(
                f"BDD node budget of {self.max_nodes} nodes exceeded", kind="mem"
            )
        index = len(self._nodes)
        self._nodes.append(key)
        self._unique[key] = index
        return index

    def _level(self, ref: int) -> int:
        return self._nodes[ref][0]

    def _low(self, ref: int) -> int:
        return self._nodes[ref][1]

    def _high(self, ref: int) -> int:
        return self._nodes[ref][2]

    # -- ite kernel ----------------------------------------------------------------
    def _ite(self, f: int, g: int, h: int) -> int:
        # Terminal cases.
        if f == self.TRUE:
            return g
        if f == self.FALSE:
            return h
        if g == h:
            return g
        if g == self.TRUE and h == self.FALSE:
            return f
        key = (f, g, h)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached
        # Cofactors with respect to the top variable: an operand that does
        # not test it is its own cofactor on both sides.
        nodes = self._nodes
        f_level, f_low, f_high = nodes[f]
        g_level, g_low, g_high = nodes[g]
        h_level, h_low, h_high = nodes[h]
        level = min(f_level, g_level, h_level)
        if f_level != level:
            f_low = f_high = f
        if g_level != level:
            g_low = g_high = g
        if h_level != level:
            h_low = h_high = h
        high = self._ite(f_high, g_high, h_high)
        low = self._ite(f_low, g_low, h_low)
        result = self._mk(level, low, high)
        self._ite_cache[key] = result
        return result

    def ite(self, f: BDD, g: BDD, h: BDD) -> BDD:
        return BDD(self, self._ite(f.ref, g.ref, h.ref))

    # -- boolean connectives ---------------------------------------------------------
    def apply_and(self, f: BDD, g: BDD) -> BDD:
        return BDD(self, self._ite(f.ref, g.ref, self.FALSE))

    def apply_or(self, f: BDD, g: BDD) -> BDD:
        return BDD(self, self._ite(f.ref, self.TRUE, g.ref))

    def apply_not(self, f: BDD) -> BDD:
        return BDD(self, self._ite(f.ref, self.FALSE, self.TRUE))

    def apply_xor(self, f: BDD, g: BDD) -> BDD:
        not_g = self._ite(g.ref, self.FALSE, self.TRUE)
        return BDD(self, self._ite(f.ref, not_g, g.ref))

    # -- inclusion ------------------------------------------------------------------
    def implies(self, f: BDD, g: BDD) -> bool:
        """Whether ``f -> g`` is a tautology, without building ``f & ~g``.

        A memoized Shannon walk over pairs of cofactors that stops at the
        first pair where ``f`` can hold and ``g`` cannot; it creates no node.
        """
        return self.implies_ref(f.ref, g.ref)

    def implies_ref(self, f: int, g: int) -> bool:
        """:meth:`implies` on node references."""
        if f == g or f == self.FALSE or g == self.TRUE:
            return True
        if f == self.TRUE or g == self.FALSE:
            return False
        key = (f, g)
        cached = self._implies_cache.get(key)
        if cached is not None:
            return cached
        f_level, f_low, f_high = self._nodes[f]
        g_level, g_low, g_high = self._nodes[g]
        if f_level < g_level:
            g_low = g_high = g
        elif g_level < f_level:
            f_low = f_high = f
        result = self.implies_ref(f_low, g_low) and self.implies_ref(f_high, g_high)
        self._implies_cache[key] = result
        return result

    def conjoin(self, functions: Sequence[BDD]) -> BDD:
        result = self.true
        for f in functions:
            result = result & f
        return result

    def disjoin(self, functions: Sequence[BDD]) -> BDD:
        result = self.false
        for f in functions:
            result = result | f
        return result

    # -- restriction and quantification ------------------------------------------------
    def restrict(self, f: BDD, assignment: Dict[int, bool]) -> BDD:
        def walk(ref: int, cache: Dict[int, int]) -> int:
            if ref <= self.TRUE:
                return ref
            cached = cache.get(ref)
            if cached is not None:
                return cached
            level, low, high = self._nodes[ref]
            if level in assignment:
                result = walk(high if assignment[level] else low, cache)
            else:
                result = self._mk(level, walk(low, cache), walk(high, cache))
            cache[ref] = result
            return result

        return BDD(self, walk(f.ref, {}))

    def compose(self, f: BDD, level: int, g: BDD) -> BDD:
        """Substitute function ``g`` for variable ``level`` inside ``f``."""
        f_high = self.restrict(f, {level: True})
        f_low = self.restrict(f, {level: False})
        return self.ite(g, f_high, f_low)

    def exists(self, f: BDD, levels: Iterable[int]) -> BDD:
        result = f
        for level in sorted(set(levels), reverse=True):
            high = self.restrict(result, {level: True})
            low = self.restrict(result, {level: False})
            result = high | low
        return result

    def forall(self, f: BDD, levels: Iterable[int]) -> BDD:
        result = f
        for level in sorted(set(levels), reverse=True):
            high = self.restrict(result, {level: True})
            low = self.restrict(result, {level: False})
            result = high & low
        return result

    # -- queries ---------------------------------------------------------------------------
    def node_count(self, f: BDD) -> int:
        return self.shared_node_count((f,))

    def shared_node_count(self, functions: Iterable[BDD]) -> int:
        """Distinct decision nodes reachable from any of ``functions``, in one walk."""
        nodes = self._nodes
        seen: Set[int] = set()
        stack = [f.ref for f in functions]
        while stack:
            ref = stack.pop()
            if ref <= self.TRUE or ref in seen:
                continue
            seen.add(ref)
            _level, low, high = nodes[ref]
            stack.append(low)
            stack.append(high)
        return len(seen)

    def support(self, f: BDD) -> Set[int]:
        levels: Set[int] = set()
        seen: Set[int] = set()
        stack = [f.ref]
        while stack:
            ref = stack.pop()
            if ref <= self.TRUE or ref in seen:
                continue
            seen.add(ref)
            levels.add(self._level(ref))
            stack.append(self._low(ref))
            stack.append(self._high(ref))
        return levels

    def evaluate(self, f: BDD, assignment: Dict[int, bool]) -> bool:
        ref = f.ref
        while ref > self.TRUE:
            level, low, high = self._nodes[ref]
            ref = high if assignment.get(level, False) else low
        return ref == self.TRUE

    def satisfy_one(self, f: BDD) -> Optional[Dict[int, bool]]:
        if f.ref == self.FALSE:
            return None
        assignment: Dict[int, bool] = {}
        ref = f.ref
        while ref > self.TRUE:
            level, low, high = self._nodes[ref]
            if high != self.FALSE:
                assignment[level] = True
                ref = high
            else:
                assignment[level] = False
                ref = low
        return assignment

    def satisfy_count(self, f: BDD, nvars: Optional[int] = None) -> int:
        """Number of satisfying assignments over ``nvars`` variables."""
        total_vars = self.num_vars if nvars is None else nvars

        cache: Dict[int, int] = {}

        def count(ref: int) -> int:
            # Returns the count over the variables strictly below the node's level.
            if ref == self.FALSE:
                return 0
            if ref == self.TRUE:
                return 1
            cached = cache.get(ref)
            if cached is not None:
                return cached
            level, low, high = self._nodes[ref]
            low_level = self._level(low) if low > self.TRUE else total_vars
            high_level = self._level(high) if high > self.TRUE else total_vars
            result = count(low) * (1 << (low_level - level - 1)) + count(high) * (
                1 << (high_level - level - 1)
            )
            cache[ref] = result
            return result

        root_level = self._level(f.ref) if f.ref > self.TRUE else total_vars
        return count(f.ref) * (1 << root_level)

    # -- iteration over the structure (used by emitters/tests) -----------------------------------
    def iter_nodes(self, f: BDD) -> Iterator[Tuple[int, int, int, int]]:
        """Yield ``(ref, level, low, high)`` for every node reachable from ``f``."""
        seen: Set[int] = set()
        stack = [f.ref]
        while stack:
            ref = stack.pop()
            if ref <= self.TRUE or ref in seen:
                continue
            seen.add(ref)
            level, low, high = self._nodes[ref]
            yield ref, level, low, high
            stack.append(low)
            stack.append(high)

    def clear_caches(self) -> None:
        """Drop the computed caches (the unique table is kept)."""
        self._ite_cache.clear()
        self._implies_cache.clear()
