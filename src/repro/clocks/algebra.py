"""The clock term language.

Clocks are sets of instants.  Following the paper's notation:

* ``x̂`` (written :class:`SignalClock`) is the clock of signal ``X`` -- the
  set of instants at which ``X`` is present;
* ``[C]`` (:class:`CondTrue`) is the set of instants at which the boolean
  signal ``C`` is present *and* carries ``true``;
* ``[¬C]`` (:class:`CondFalse`) is the set of instants at which ``C`` is
  present and carries ``false``;
* ``Ô`` (:class:`NullClock`) is the empty set of instants;
* clocks are combined with ``∧`` (:class:`Meet`, set intersection),
  ``∨`` (:class:`Join`, union) and ``\\`` (:class:`Diff`, difference).

The pair ``([C], [¬C])`` is always a partition of ``ĉ``::

    [C] ∨ [¬C] = ĉ          [C] ∧ [¬C] = Ô
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterator, Tuple, Union

__all__ = [
    "ClockExpr",
    "SignalClock",
    "CondTrue",
    "CondFalse",
    "NullClock",
    "NULL_CLOCK",
    "Meet",
    "Join",
    "Diff",
    "ClockAtom",
    "SignalClocks",
    "clock_atoms",
    "clock_signals",
    "meet_all",
    "join_all",
]


class ClockExpr:
    """Base class of clock expressions."""

    def __and__(self, other: "ClockExpr") -> "ClockExpr":
        return Meet(self, other)

    def __or__(self, other: "ClockExpr") -> "ClockExpr":
        return Join(self, other)

    def __sub__(self, other: "ClockExpr") -> "ClockExpr":
        return Diff(self, other)


@dataclass(frozen=True)
class SignalClock(ClockExpr):
    """``x̂`` -- the clock of the signal named ``signal``."""

    signal: str

    def __str__(self) -> str:
        return f"^{self.signal}"


@dataclass(frozen=True)
class CondTrue(ClockExpr):
    """``[C]`` -- instants where the boolean signal ``C`` is present and true."""

    signal: str

    def __str__(self) -> str:
        return f"[{self.signal}]"


@dataclass(frozen=True)
class CondFalse(ClockExpr):
    """``[¬C]`` -- instants where the boolean signal ``C`` is present and false."""

    signal: str

    def __str__(self) -> str:
        return f"[~{self.signal}]"


@dataclass(frozen=True)
class NullClock(ClockExpr):
    """``Ô`` -- the empty set of instants."""

    def __str__(self) -> str:
        return "O"


#: The unique null clock value (the class is a frozen dataclass, so all
#: instances compare equal; this constant is provided for readability).
NULL_CLOCK = NullClock()


@dataclass(frozen=True)
class Meet(ClockExpr):
    """Intersection of two clocks (``∧`` in the paper)."""

    left: ClockExpr
    right: ClockExpr

    def __str__(self) -> str:
        return f"({self.left} ^ {self.right})"


@dataclass(frozen=True)
class Join(ClockExpr):
    """Union of two clocks (``∨`` in the paper)."""

    left: ClockExpr
    right: ClockExpr

    def __str__(self) -> str:
        return f"({self.left} v {self.right})"


@dataclass(frozen=True)
class Diff(ClockExpr):
    """Set difference of two clocks (``\\`` in the paper)."""

    left: ClockExpr
    right: ClockExpr

    def __str__(self) -> str:
        return f"({self.left} \\ {self.right})"


class SignalClocks(dict):
    """The clock ``x̂`` of each signal name, built on its first lookup.

    A layer that labels many equations or edges with signal clocks builds
    one :class:`SignalClock` per signal and reuses it.
    """

    def __missing__(self, signal: str) -> SignalClock:
        clock = self[signal] = SignalClock(signal)
        return clock


#: The atomic (variable-like) clock expressions.
ClockAtom = Union[SignalClock, CondTrue, CondFalse]


def clock_atoms(expression: ClockExpr) -> Tuple[ClockAtom, ...]:
    """All atomic sub-clocks of ``expression``, left to right, with duplicates removed."""
    atoms = []
    seen = set()

    def walk(expr: ClockExpr) -> None:
        if isinstance(expr, (SignalClock, CondTrue, CondFalse)):
            if expr not in seen:
                seen.add(expr)
                atoms.append(expr)
        elif isinstance(expr, (Meet, Join, Diff)):
            walk(expr.left)
            walk(expr.right)
        elif isinstance(expr, NullClock):
            return
        else:  # pragma: no cover - defensive
            raise TypeError(f"not a clock expression: {expr!r}")

    walk(expression)
    return tuple(atoms)


def clock_signals(expression: ClockExpr) -> FrozenSet[str]:
    """The names of all signals mentioned by ``expression``."""
    return frozenset(atom.signal for atom in clock_atoms(expression))


def meet_all(clocks: Tuple[ClockExpr, ...]) -> ClockExpr:
    """Left-associated intersection of a non-empty tuple of clocks."""
    if not clocks:
        raise ValueError("meet_all requires at least one clock")
    result = clocks[0]
    for clock in clocks[1:]:
        result = Meet(result, clock)
    return result


def join_all(clocks: Tuple[ClockExpr, ...]) -> ClockExpr:
    """Left-associated union of a non-empty tuple of clocks."""
    if not clocks:
        raise ValueError("join_all requires at least one clock")
    result = clocks[0]
    for clock in clocks[1:]:
        result = Join(result, clock)
    return result
