"""BDD encoding of clocks and of boolean signal values.

The arborescent resolution gives every clock class a BDD over two kinds of
variables:

* one *presence* variable per free (root) clock class, and
* one *value* variable per boolean signal whose value cannot be expressed
  structurally from other boolean signals.

A sampled clock ``[C]`` is encoded as ``enc(ĉ) ∧ value(C)`` and ``[¬C]`` as
``enc(ĉ) ∧ ¬value(C)``: the partition constraints of Table 1 then hold *by
construction* in the encoding, which is what lets BDD canonicity perform the
inclusion-based rewriting of Section 3.3 (e.g. ``[C1] ∨ ĉ`` reduces to
``ĉ`` because ``enc([C1])`` implies ``enc(ĉ)``).

Value variables are shared structurally: a boolean signal defined by
``not X`` reuses (the negation of) ``X``'s value function, ``X and Y``
reuses the conjunction, ``event X`` is constantly true, and so on.  This
mirrors the boolean reasoning the SIGNAL compiler performs on condition
values and is what identifies ``when (not C)`` with ``[¬C]``.
"""

from __future__ import annotations

from typing import Dict, Set

from ..bdd import BDD, BDDManager
from ..lang.kernel import (
    KernelDefault,
    KernelDelay,
    KernelFunction,
    KernelProcess,
    KernelProgram,
    KernelSynchro,
    KernelWhen,
    Literal,
)
from ..lang.types import SignalType

__all__ = ["ValueEncoder"]

#: Boolean operators whose value can be encoded structurally.
_STRUCTURAL_OPERATORS = {"not", "and", "or", "xor", "id", "event"}


class ValueEncoder:
    """Computes the BDD encoding of boolean signal *values*.

    ``value_of(C)`` is the boolean function that is true exactly at the
    instants (of ``ĉ``) where ``C`` carries ``true``.  The function is only
    meaningful in conjunction with the presence encoding of ``ĉ``.
    """

    def __init__(
        self,
        manager: BDDManager,
        program: KernelProgram,
        types: Dict[str, SignalType],
    ):
        self.manager = manager
        self.program = program
        self.types = types
        # The defining process of every target, indexed once: the first
        # definition wins, as in :meth:`KernelProgram.definition_of`.
        self._definitions: Dict[str, KernelProcess] = {}
        for process in program.processes:
            if not isinstance(process, KernelSynchro):
                self._definitions.setdefault(process.target, process)
        self._cache: Dict[str, BDD] = {}
        self._in_progress: Set[str] = set()
        #: names of signals that received a fresh (opaque) value variable
        self.opaque_signals: Set[str] = set()

    # -- public API -------------------------------------------------------
    def value_of(self, signal: str) -> BDD:
        """The value function of a boolean signal (fresh variable if opaque)."""
        cached = self._cache.get(signal)
        if cached is not None:
            return cached
        if signal in self._in_progress:
            # A combinational cycle through boolean operators; the dependency
            # graph will reject the program later.  Fall back to an opaque
            # variable so the clock calculus can still proceed.
            return self._fresh(signal)
        self._in_progress.add(signal)
        try:
            value = self._compute(signal)
        finally:
            self._in_progress.discard(signal)
        self._cache[signal] = value
        return value

    def is_opaque(self, signal: str) -> bool:
        return signal in self.opaque_signals

    # -- internals -----------------------------------------------------------
    def _fresh(self, signal: str) -> BDD:
        variable = self.manager.declare(f"v_{signal}")
        self._cache[signal] = variable
        self.opaque_signals.add(signal)
        return variable

    def _literal(self, literal: Literal) -> BDD:
        if not isinstance(literal.value, bool):
            raise ValueError(f"literal {literal} is not boolean")
        return self.manager.true if literal.value else self.manager.false

    def _compute(self, signal: str) -> BDD:
        signal_type = self.types.get(signal)
        if signal_type is None or not signal_type.is_boolean_like:
            raise ValueError(f"signal {signal!r} is not boolean")

        definition = self._definitions.get(signal)

        if definition is None:
            # Input signal (or otherwise externally defined): opaque value.
            return self._fresh(signal)

        if isinstance(definition, KernelFunction):
            operator = definition.operator
            if operator not in _STRUCTURAL_OPERATORS:
                # Relational/arithmetic results are boolean but their value is
                # not a boolean function of other boolean signals.
                return self._fresh(signal)
            if operator == "event":
                return self.manager.true
            operands = []
            for operand in definition.operands:
                if isinstance(operand, Literal):
                    operands.append(self._literal(operand))
                else:
                    operands.append(self.value_of(operand))
            if operator == "id":
                return operands[0]
            if operator == "not":
                return ~operands[0]
            if operator == "and":
                result = operands[0]
                for operand in operands[1:]:
                    result = result & operand
                return result
            if operator == "or":
                result = operands[0]
                for operand in operands[1:]:
                    result = result | operand
                return result
            if operator == "xor":
                result = operands[0]
                for operand in operands[1:]:
                    result = result ^ operand
                return result

        if isinstance(definition, KernelWhen):
            # The value of ``U when C`` at its instants is the value of U.
            if isinstance(definition.source, Literal):
                return self._literal(definition.source)
            return self.value_of(definition.source)

        if isinstance(definition, (KernelDelay, KernelDefault)):
            # Delayed or merged values depend on run-time history/priority and
            # are treated as opaque by the static calculus.
            return self._fresh(signal)

        if isinstance(definition, KernelSynchro):  # pragma: no cover - synchro has no target
            return self._fresh(signal)

        return self._fresh(signal)
