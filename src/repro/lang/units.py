"""Splitting a kernel program into canonical, separately compilable units.

Modular compilation (after *Modular Compilation of a Synchronous Language*,
Gaffé/Ressouche/Roy) needs a notion of "module" that is stable across the
programs embedding it.  Here a **unit** is a connected component of the
program's kernel processes under the shares-a-signal relation: two kernel
equations belong to the same unit iff they are transitively linked through
a common signal.  Units are therefore clock-independent of each other --
clock resolution of the whole program factors exactly into per-unit
resolutions (the constraint systems mention disjoint signal sets), which
is what makes compiling them separately and linking the step IRs sound.

Each unit carries a **canonical form**: the sub-program alpha-renamed onto
positional names (``i0, i1, ...`` for inputs, ``o0, ...`` for outputs,
``l0, ...`` for locals, numbered by declaration order inside the unit) with
a fixed process name.  Two occurrences of the same module -- under
different signal names, at different positions, inside different programs
-- canonicalize to the identical kernel text and hence share one
fingerprint, the key under which unit artifacts are cached and shared
across programs.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from .kernel import (
    KernelDefault,
    KernelDelay,
    KernelFunction,
    KernelProcess,
    KernelProgram,
    KernelSynchro,
    KernelWhen,
    operand_signals,
    rename_program,
)

__all__ = [
    "UNIT_FINGERPRINT_VERSION",
    "UNIT_PROGRAM_NAME",
    "ProgramUnit",
    "process_signals",
    "split_units",
    "rename_text",
]

#: Bump when anything about unit canonicalization or the unit artifact
#: payload changes meaning; it is hashed into every unit fingerprint, so a
#: bump invalidates all cached unit artifacts at once.
UNIT_FINGERPRINT_VERSION = 1

#: The process name shared by every canonical unit program (the real name
#: must not influence the fingerprint).
UNIT_PROGRAM_NAME = "U"


def process_signals(process: KernelProcess) -> Tuple[str, ...]:
    """Every signal name mentioned by one kernel process, in order."""
    if isinstance(process, KernelFunction):
        return (process.target,) + operand_signals(process.operands)
    if isinstance(process, KernelDelay):
        return (process.target, process.source)
    if isinstance(process, KernelWhen):
        source = (process.source,) if isinstance(process.source, str) else ()
        return (process.target,) + source + (process.condition,)
    if isinstance(process, KernelDefault):
        return (process.target,) + operand_signals((process.left, process.right))
    if isinstance(process, KernelSynchro):
        return tuple(process.signals)
    raise TypeError(f"unsupported kernel process {process!r}")


@dataclass
class ProgramUnit:
    """One connected component of a kernel program, with its canonical form.

    Attributes
    ----------
    index:
        Position of the unit in the program (units are ordered by the
        earliest declaration of any of their signals).
    program:
        The sub-program restricted to the unit's signals and processes,
        under the *actual* names of the enclosing program.
    canonical:
        The same sub-program alpha-renamed onto positional canonical
        names; its kernel text is what the unit fingerprint hashes.
    to_canonical / from_canonical:
        The (bijective) rename maps between the two.
    """

    index: int
    program: KernelProgram
    canonical: KernelProgram
    to_canonical: Dict[str, str] = field(default_factory=dict)
    from_canonical: Dict[str, str] = field(default_factory=dict)

    @property
    def signals(self) -> List[str]:
        return self.program.signals

    def fingerprint(self) -> str:
        """SHA-256 of the versioned canonical kernel text of the unit.

        Invariant under alpha-renaming of the enclosing program, under
        reordering of *other* units, and under embedding the same module
        into a different program -- the properties tests/test_modular.py
        checks.  Distinct from whole-program fingerprints (the version
        header is hashed in), so unit and program cache keys can never
        collide even for a single-unit program.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            text = (
                f"unit-fingerprint-v{UNIT_FINGERPRINT_VERSION}\n"
                + self.canonical.canonical_form()
            )
            cached = hashlib.sha256(text.encode("utf-8")).hexdigest()
            self.__dict__["_fingerprint"] = cached
        return cached


class _UnionFind:
    def __init__(self) -> None:
        self._parent: Dict[str, str] = {}

    def add(self, item: str) -> None:
        self._parent.setdefault(item, item)

    def find(self, item: str) -> str:
        parent = self._parent
        root = item
        while parent[root] != root:
            root = parent[root]
        while parent[item] != root:
            parent[item], item = root, parent[item]
        return root

    def union(self, a: str, b: str) -> None:
        self.add(a)
        self.add(b)
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra


def _canonical_maps(sub: KernelProgram) -> Tuple[Dict[str, str], Dict[str, str]]:
    """Positional canonical names for one unit sub-program.

    Numbering follows declaration order within each role list.  Both lists
    are restrictions of the enclosing program's declaration lists, so the
    numbering is invariant under embedding (adding foreign signals around
    the unit) and under alpha-renaming (which preserves order).
    """
    to_canonical: Dict[str, str] = {}
    for prefix, names in (("i", sub.inputs), ("o", sub.outputs), ("l", sub.locals)):
        for position, name in enumerate(names):
            to_canonical[name] = f"{prefix}{position}"
    from_canonical = {canon: name for name, canon in to_canonical.items()}
    return to_canonical, from_canonical


def split_units(program: KernelProgram) -> List[ProgramUnit]:
    """Split a kernel program into its canonical units.

    Every signal and every kernel process of the program lands in exactly
    one unit.  Declared-but-unconstrained signals become singleton units
    (they still occupy a clock class of their own).  Units are ordered by
    the earliest declaration position of any member signal, which makes
    the split deterministic; the degenerate empty program yields a single
    unit covering the whole (empty) program.
    """
    uf = _UnionFind()
    for signal in program.signals:
        uf.add(signal)
    for process in program.processes:
        names = process_signals(process)
        for other in names[1:]:
            uf.union(names[0], other)

    # Group signals by component root, ordered by first declaration.
    component_of: Dict[str, List[str]] = {}
    order: List[str] = []
    for signal in program.signals:
        root = uf.find(signal)
        if root not in component_of:
            component_of[root] = []
            order.append(root)
        component_of[root].append(signal)

    units: List[ProgramUnit] = []
    for index, root in enumerate(order):
        members = set(component_of[root])
        sub = KernelProgram(
            name=program.name,
            inputs=[s for s in program.inputs if s in members],
            outputs=[s for s in program.outputs if s in members],
            locals=[s for s in program.locals if s in members],
            declared_types={
                s: program.declared_types.get(s, "")
                for s in program.signals
                if s in members
            },
            processes=[
                p
                for p in program.processes
                if process_signals(p) and uf.find(process_signals(p)[0]) == root
            ],
        )
        to_canonical, from_canonical = _canonical_maps(sub)
        canonical = rename_program(sub, to_canonical, name=UNIT_PROGRAM_NAME)
        units.append(
            ProgramUnit(
                index=index,
                program=sub,
                canonical=canonical,
                to_canonical=to_canonical,
                from_canonical=from_canonical,
            )
        )

    if not units:
        # No signals at all: treat the whole program as one (empty) unit.
        to_canonical, from_canonical = _canonical_maps(program)
        units.append(
            ProgramUnit(
                index=0,
                program=program,
                canonical=rename_program(program, to_canonical, name=UNIT_PROGRAM_NAME),
                to_canonical=to_canonical,
                from_canonical=from_canonical,
            )
        )
    return units


#: a maximal alphanumeric run: the token ``rename_text`` looks up
_ALNUM_RUN = re.compile(r"[A-Za-z0-9]+")


def rename_text(text: str, mapping: Dict[str, str]) -> str:
    """Rename canonical signal tokens inside rendered artifact text.

    Used by the link stage to rewrite per-unit clock-tree, clock-system and
    statement texts (produced under canonical names) back to the program's
    actual names.  One linear scan looks every maximal alphanumeric run up
    in ``mapping``, so derived identifiers (``h_C_i0``, ``z_i0``,
    ``[~i0]``) are rewritten too.

    Precondition: every key of ``mapping`` is itself a maximal alphanumeric
    run -- the canonical ``i<n>``/``o<n>``/``l<n>`` names of
    :func:`split_units` are.  A key containing any other character would
    never match.
    """
    if not mapping or not text:
        return text
    return _ALNUM_RUN.sub(lambda match: mapping.get(match[0], match[0]), text)
