"""Extraction of the system of boolean clock equations (Table 1 of the paper).

Each kernel process contributes an equation over clocks:

=====================================  =============================================
kernel process                         clock equations
=====================================  =============================================
``Y := f(X1, ..., Xn)``                ``ŷ = x̂1 = ... = x̂n``
``ZX := X $ 1``                        ``ẑx = x̂``
``X := U when C``                      ``x̂ = û ∧ [C]``
``X := U default V``                   ``x̂ = û ∨ v̂``
``synchro {X1, ..., Xn}``              ``x̂1 = ... = x̂n``
=====================================  =============================================

plus, for every boolean signal ``C``, the partition constraints::

    [C] ∨ [¬C] = ĉ          [C] ∧ [¬C] = Ô

Constants appearing as kernel operands are clock-neutral and contribute no
constraint (``X := true when C`` yields ``x̂ = [C]``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Set

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
from .algebra import (
    ClockExpr,
    CondFalse,
    CondTrue,
    Join,
    Meet,
    NULL_CLOCK,
    SignalClocks,
)

__all__ = ["ClockEquation", "ClockSystem", "extract_clock_system"]


class ClockEquation(NamedTuple):
    """An (unoriented) equation ``left = right`` between clock formulas.

    ``partition`` marks the ``[C] ∨ [¬C] = ĉ`` and ``[C] ∧ [¬C] = Ô``
    constraints; the resolver skips those equations, which the BDD encoding
    represents structurally.
    """

    left: ClockExpr
    right: ClockExpr
    partition: bool = False

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


@dataclass
class ClockSystem:
    """The system of boolean equations underlying a kernel program."""

    program: KernelProgram
    types: Dict[str, SignalType]
    equations: List[ClockEquation] = field(default_factory=list)
    #: boolean signals, i.e. signals for which ``[C]`` / ``[¬C]`` exist
    boolean_signals: List[str] = field(default_factory=list)
    #: signals actually used as a ``when`` condition
    condition_signals: List[str] = field(default_factory=list)

    @property
    def signals(self) -> List[str]:
        return self.program.signals

    def partition_constraints(self) -> List[ClockEquation]:
        """The ``[C] ∨ [¬C] = ĉ`` and ``[C] ∧ [¬C] = Ô`` constraints."""
        return [e for e in self.equations if e.partition]

    def operator_equations(self) -> List[ClockEquation]:
        """The equations contributed by the kernel processes themselves."""
        return [e for e in self.equations if not e.partition]

    def variable_count(self) -> int:
        """Number of boolean variables in the system.

        This is the figure reported in the "number of variables" column of
        Figure 13: one variable per signal clock, plus two per boolean
        signal (its ``[C]`` and ``[¬C]`` samplings).
        """
        return len(self.signals) + 2 * len(self.boolean_signals)

    def __str__(self) -> str:
        lines = [f"clock system of {self.program.name} ({len(self.equations)} equations)"]
        for equation in self.equations:
            lines.append(f"  {equation}")
        return "\n".join(lines)


def extract_clock_system(
    program: KernelProgram, types: Dict[str, SignalType]
) -> ClockSystem:
    """Build the system of clock equations for ``program`` (Table 1)."""
    clocks = SignalClocks()
    boolean_signals = [
        name for name in dict.fromkeys(program.signals) if types[name].is_boolean_like
    ]
    condition_signals: List[str] = []
    conditions_seen: Set[str] = set()
    equations: List[ClockEquation] = []
    add = equations.append

    for process in program.processes:
        if isinstance(process, KernelFunction):
            target_clock = clocks[process.target]
            for operand in process.operands:
                # Literal operands are clock-neutral.
                if not isinstance(operand, Literal):
                    add(ClockEquation(target_clock, clocks[operand]))
        elif isinstance(process, KernelDelay):
            add(ClockEquation(clocks[process.target], clocks[process.source]))
        elif isinstance(process, KernelWhen):
            condition = process.condition
            if condition not in conditions_seen:
                conditions_seen.add(condition)
                condition_signals.append(condition)
            sampling = CondTrue(condition)
            if isinstance(process.source, Literal):
                add(ClockEquation(clocks[process.target], sampling))
            else:
                add(ClockEquation(
                    clocks[process.target], Meet(clocks[process.source], sampling)
                ))
        elif isinstance(process, KernelDefault):
            left, right = process.left, process.right
            if isinstance(right, Literal):
                # A constant branch is clock-neutral; the merge clock is then
                # simply the other branch's clock (the desugarer rejects the
                # two-constant case).
                assert not isinstance(left, Literal)
                add(ClockEquation(clocks[process.target], clocks[left]))
            elif isinstance(left, Literal):
                add(ClockEquation(clocks[process.target], clocks[right]))
            else:
                add(ClockEquation(
                    clocks[process.target], Join(clocks[left], clocks[right])
                ))
        elif isinstance(process, KernelSynchro):
            if len(process.signals) >= 2:
                first = clocks[process.signals[0]]
                for other in process.signals[1:]:
                    add(ClockEquation(first, clocks[other]))
        else:  # pragma: no cover - exhaustive over kernel constructors
            raise TypeError(f"unknown kernel process {process!r}")

    # Partition constraints for every boolean signal (Figure 7 partitions all
    # boolean signals of the program, not only the ones used as conditions).
    for name in boolean_signals:
        true, false = CondTrue(name), CondFalse(name)
        add(ClockEquation(Join(true, false), clocks[name], True))
        add(ClockEquation(Meet(true, false), NULL_CLOCK, True))

    return ClockSystem(
        program=program,
        types=types,
        equations=equations,
        boolean_signals=boolean_signals,
        condition_signals=condition_signals,
    )
