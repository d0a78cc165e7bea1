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
from typing import Dict, List, Optional, Sequence, Tuple

from ..lang.kernel import (
    KernelDefault,
    KernelDelay,
    KernelFunction,
    KernelProcess,
    KernelProgram,
    KernelSynchro,
    KernelWhen,
    Literal,
    Operand,
)
from ..lang.types import SignalType
from .algebra import (
    ClockExpr,
    CondFalse,
    CondTrue,
    Join,
    Meet,
    NULL_CLOCK,
    SignalClock,
)

__all__ = ["ClockEquation", "ClockSystem", "extract_clock_system"]


@dataclass(frozen=True)
class ClockEquation:
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


def _operand_clock(operand: Operand) -> Optional[ClockExpr]:
    """The clock of a kernel operand, or ``None`` for clock-neutral literals."""
    if isinstance(operand, Literal):
        return None
    return SignalClock(operand)


def extract_clock_system(
    program: KernelProgram, types: Dict[str, SignalType]
) -> ClockSystem:
    """Build the system of clock equations for ``program`` (Table 1)."""
    system = ClockSystem(program=program, types=types)

    for name in program.signals:
        if types[name].is_boolean_like and name not in system.boolean_signals:
            system.boolean_signals.append(name)

    def add(left: ClockExpr, right: ClockExpr, partition: bool = False) -> None:
        system.equations.append(ClockEquation(left, right, partition))

    for process in program.processes:
        if isinstance(process, KernelFunction):
            target_clock = SignalClock(process.target)
            for operand in process.operands:
                operand_clock = _operand_clock(operand)
                if operand_clock is not None:
                    add(target_clock, operand_clock)
        elif isinstance(process, KernelDelay):
            add(SignalClock(process.target), SignalClock(process.source))
        elif isinstance(process, KernelWhen):
            if process.condition not in system.condition_signals:
                system.condition_signals.append(process.condition)
            source_clock = _operand_clock(process.source)
            sampling = CondTrue(process.condition)
            if source_clock is None:
                add(SignalClock(process.target), sampling)
            else:
                add(SignalClock(process.target), Meet(source_clock, sampling))
        elif isinstance(process, KernelDefault):
            left_clock = _operand_clock(process.left)
            right_clock = _operand_clock(process.right)
            if left_clock is None or right_clock is None:
                # A constant branch is clock-neutral; the merge clock is then
                # simply the other branch's clock (the desugarer rejects the
                # two-constant case).
                only = left_clock if left_clock is not None else right_clock
                assert only is not None
                add(SignalClock(process.target), only)
            else:
                add(SignalClock(process.target), Join(left_clock, right_clock))
        elif isinstance(process, KernelSynchro):
            if len(process.signals) >= 2:
                first = SignalClock(process.signals[0])
                for other in process.signals[1:]:
                    add(first, SignalClock(other))
        else:  # pragma: no cover - exhaustive over kernel constructors
            raise TypeError(f"unknown kernel process {process!r}")

    # Partition constraints for every boolean signal (Figure 7 partitions all
    # boolean signals of the program, not only the ones used as conditions).
    for name in system.boolean_signals:
        add(
            Join(CondTrue(name), CondFalse(name)),
            SignalClock(name),
            partition=True,
        )
        add(
            Meet(CondTrue(name), CondFalse(name)),
            NULL_CLOCK,
            partition=True,
        )

    return system
