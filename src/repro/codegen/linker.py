"""Serialization and linking of per-unit step IR.

The modular pipeline compiles each :class:`~repro.lang.units.ProgramUnit`
under its *canonical* names and caches the resulting step IR as a JSON
payload (part of the unit artifact record, see
:func:`repro.compiler.compile_unit_record`).  This module provides

* a lossless JSON encoding of :class:`~repro.codegen.ir.StepIR` statement
  lists and registers (``ir_to_payload`` / the ``_Materializer`` reader),
* the **link-time materialization** of a cached unit payload into the
  enclosing program: canonical signal names are renamed back to the
  program's actual names, clock-class ids are shifted by a per-unit offset
  so units never collide, and every free clock's presence key (by
  :func:`~repro.clocks.resolution.presence_name`, the monolithic rule) and
  root default are *recomputed* for the linked program (a unit alone is
  its own master clock; embedded next to other units it is one root among
  many, so ``SetFlagRoot`` defaults flip from "present unless said
  otherwise" to "absent unless driven"),
* :func:`link_step_ir`, which concatenates the materialized parts into a
  single :class:`StepIR` with the linked program's flag ids and signals;
  all three backends (python, c, c_shared) then emit from the linked IR
  unchanged.

Linking composes IR, never text: the linked IR is the only source of a
linked program's generated code, exactly as a monolithic compile's step IR
is of its own.  Unit records written by older code may still carry a map
of pre-rendered statement bodies under an ``emit`` key; nothing reads it.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..clocks.resolution import presence_name
from ..lang.types import SignalType
from .ir import (
    Binary,
    ClockChoice,
    ComputeValue,
    EmitOutput,
    FlagAnd,
    FlagAndNot,
    FlagExpr,
    FlagOr,
    FlagRef,
    GenerationStyle,
    Guard,
    Lit,
    ReadInput,
    ReadRegister,
    RegisterInfo,
    SetFlagFormula,
    SetFlagPartition,
    SetFlagRoot,
    SigRef,
    StepIR,
    Stmt,
    Unary,
    UpdateRegister,
    ValueExpr,
)

__all__ = ["ir_to_payload", "link_step_ir"]


# ---------------------------------------------------------------------------
# JSON encoding of IR
# ---------------------------------------------------------------------------

def _value_to_json(expression: ValueExpr) -> list:
    if isinstance(expression, SigRef):
        return ["sig", expression.signal]
    if isinstance(expression, Lit):
        return ["lit", expression.value]
    if isinstance(expression, Unary):
        return ["un", expression.operator, _value_to_json(expression.operand)]
    if isinstance(expression, Binary):
        return [
            "bin",
            expression.operator,
            _value_to_json(expression.left),
            _value_to_json(expression.right),
            expression.integer,
        ]
    if isinstance(expression, ClockChoice):
        return [
            "choice",
            expression.class_id,
            _value_to_json(expression.then_value),
            _value_to_json(expression.else_value),
        ]
    raise TypeError(f"unsupported value expression {expression!r}")


def _flag_to_json(expression: FlagExpr) -> list:
    if isinstance(expression, FlagRef):
        return ["fref", expression.class_id]
    if isinstance(expression, FlagAnd):
        return ["fand", _flag_to_json(expression.left), _flag_to_json(expression.right)]
    if isinstance(expression, FlagOr):
        return ["for", _flag_to_json(expression.left), _flag_to_json(expression.right)]
    if isinstance(expression, FlagAndNot):
        return ["fandnot", _flag_to_json(expression.left), _flag_to_json(expression.right)]
    raise TypeError(f"unsupported flag expression {expression!r}")


def _stmt_to_json(statement: Stmt) -> list:
    if isinstance(statement, SetFlagRoot):
        return ["root", statement.class_id, statement.input_key, statement.default]
    if isinstance(statement, SetFlagPartition):
        return [
            "part",
            statement.class_id,
            statement.parent_id,
            statement.condition,
            statement.polarity,
        ]
    if isinstance(statement, SetFlagFormula):
        return ["formula", statement.class_id, _flag_to_json(statement.formula)]
    if isinstance(statement, ReadInput):
        return ["readin", statement.signal]
    if isinstance(statement, ReadRegister):
        return ["readreg", statement.signal, statement.register]
    if isinstance(statement, ComputeValue):
        return ["compute", statement.signal, _value_to_json(statement.expression)]
    if isinstance(statement, EmitOutput):
        return ["emit", statement.signal]
    if isinstance(statement, UpdateRegister):
        return ["update", statement.register, _value_to_json(statement.source)]
    if isinstance(statement, Guard):
        return ["guard", statement.class_id, [_stmt_to_json(s) for s in statement.body]]
    raise TypeError(f"unsupported statement {statement!r}")


def _ids_in_stmt(statement: Stmt, into: set) -> None:
    if isinstance(statement, (SetFlagRoot, SetFlagFormula)):
        into.add(statement.class_id)
    elif isinstance(statement, SetFlagPartition):
        into.add(statement.class_id)
        if statement.parent_id is not None:
            into.add(statement.parent_id)
    elif isinstance(statement, Guard):
        into.add(statement.class_id)
        for inner in statement.body:
            _ids_in_stmt(inner, into)


def ir_to_payload(ir: StepIR) -> dict:
    """Encode the portable part of a step IR as a JSON-safe payload.

    The schedule is *not* encoded; the unit record carries the class ids
    and the signal -> class map the link stage turns into the linked
    program's flag ids and signals.
    """
    referenced: set = set()
    for statement in ir.statements:
        _ids_in_stmt(statement, referenced)
    return {
        "style": ir.style.value,
        "statements": [_stmt_to_json(s) for s in ir.statements],
        "registers": [
            [r.register, r.target, r.source, r.initial, r.type.value]
            for r in ir.registers
        ],
        "inputs": list(ir.inputs),
        "outputs": list(ir.outputs),
        "initialized_flags": list(ir.initialized_flags),
        "root_flags": [[cid, key, default] for cid, key, default in ir.root_flags],
        "referenced_class_ids": sorted(referenced),
    }


# ---------------------------------------------------------------------------
# Link-time materialization
# ---------------------------------------------------------------------------

def _rename_register(register: str, rename: Dict[str, str]) -> str:
    if register.startswith("z_"):
        target = register[2:]
        if target in rename:
            return f"z_{rename[target]}"
    return register


class _Materializer:
    """Rename + offset one unit's serialized IR into the linked program."""

    def __init__(
        self,
        rename: Dict[str, str],
        offset: int,
        root_info: Dict[int, Tuple[str, bool]],
    ):
        self.rename = rename
        self.offset = offset
        self.root_info = root_info

    def signal(self, name: str) -> str:
        return self.rename.get(name, name)

    def value(self, payload: list) -> ValueExpr:
        tag = payload[0]
        if tag == "sig":
            return SigRef(self.signal(payload[1]))
        if tag == "lit":
            return Lit(payload[1])
        if tag == "un":
            return Unary(payload[1], self.value(payload[2]))
        if tag == "bin":
            return Binary(payload[1], self.value(payload[2]), self.value(payload[3]), payload[4])
        if tag == "choice":
            return ClockChoice(payload[1] + self.offset, self.value(payload[2]), self.value(payload[3]))
        raise ValueError(f"unknown value-expression tag {tag!r}")

    def flag(self, payload: list) -> FlagExpr:
        tag = payload[0]
        if tag == "fref":
            return FlagRef(payload[1] + self.offset)
        if tag == "fand":
            return FlagAnd(self.flag(payload[1]), self.flag(payload[2]))
        if tag == "for":
            return FlagOr(self.flag(payload[1]), self.flag(payload[2]))
        if tag == "fandnot":
            return FlagAndNot(self.flag(payload[1]), self.flag(payload[2]))
        raise ValueError(f"unknown flag-expression tag {tag!r}")

    def statement(self, payload: list) -> Stmt:
        tag = payload[0]
        if tag == "root":
            class_id = payload[1]
            key, default = self.root_info[class_id]
            return SetFlagRoot(class_id + self.offset, key, default)
        if tag == "part":
            parent = payload[2]
            return SetFlagPartition(
                payload[1] + self.offset,
                None if parent is None else parent + self.offset,
                self.signal(payload[3]),
                payload[4],
            )
        if tag == "formula":
            return SetFlagFormula(payload[1] + self.offset, self.flag(payload[2]))
        if tag == "readin":
            return ReadInput(self.signal(payload[1]))
        if tag == "readreg":
            return ReadRegister(self.signal(payload[1]), _rename_register(payload[2], self.rename))
        if tag == "compute":
            return ComputeValue(self.signal(payload[1]), self.value(payload[2]))
        if tag == "emit":
            return EmitOutput(self.signal(payload[1]))
        if tag == "update":
            return UpdateRegister(_rename_register(payload[1], self.rename), self.value(payload[2]))
        if tag == "guard":
            return Guard(payload[1] + self.offset, [self.statement(s) for s in payload[2]])
        raise ValueError(f"unknown statement tag {tag!r}")

    def register(self, payload: list) -> RegisterInfo:
        register, target, source, initial, type_value = payload
        return RegisterInfo(
            register=_rename_register(register, self.rename),
            target=self.signal(target),
            source=self.signal(source),
            initial=initial,
            type=SignalType(type_value),
        )


# ---------------------------------------------------------------------------
# Linking
# ---------------------------------------------------------------------------

def link_step_ir(
    name: str,
    style: GenerationStyle,
    parts: Sequence[dict],
    input_order: Sequence[str],
    output_order: Sequence[str],
) -> StepIR:
    """Compose cached unit artifacts into one linked :class:`StepIR`.

    ``parts`` is one dict per unit, in program order::

        {
            "ir": <ir payload for the requested style>,
            "rename": {canonical -> actual signal name},
            "class_ids": [non-null class ids of the unit hierarchy, ascending],
            "max_class_id": <largest id of any class, null included>,
            "signal_class": {canonical signal -> class id},
            "free_classes": [(id, [clock atoms over actual names]), ...],
            "types": {actual signal -> SignalType},
        }

    ``free_classes`` lists the unit's free classes in the order of its
    ``root_flags``.  ``input_order`` / ``output_order`` give the enclosing
    program's declaration order, so the linked interface lists the same
    signals in the same order as a monolithic compile.
    """
    total_free = sum(len(part["free_classes"]) for part in parts)
    root_default = total_free == 1

    statements: List[Stmt] = []
    registers: List[RegisterInfo] = []
    initialized_flags: List[int] = []
    root_flags: List[Tuple[int, str, bool]] = []
    flag_ids: List[int] = []
    signals: List[str] = []
    types: Dict[str, SignalType] = {}
    inputs_seen: set = set()
    outputs_seen: set = set()

    offset = 0
    for part in parts:
        rename = part["rename"]
        root_info: Dict[int, Tuple[str, bool]] = {}
        for class_id, atoms in part["free_classes"]:
            key = presence_name(atoms, class_id + offset)
            root_info[class_id] = (key, root_default)
            root_flags.append((class_id + offset, key, root_default))

        materializer = _Materializer(rename, offset, root_info)
        payload = part["ir"]
        statements.extend(materializer.statement(s) for s in payload["statements"])
        registers.extend(materializer.register(r) for r in payload["registers"])
        initialized_flags.extend(cid + offset for cid in payload["initialized_flags"])
        flag_ids.extend(cid + offset for cid in part["class_ids"])
        signals.extend(rename.get(s, s) for s in part["signal_class"])
        types.update(part["types"])
        inputs_seen.update(rename.get(s, s) for s in payload["inputs"])
        outputs_seen.update(rename.get(s, s) for s in payload["outputs"])

        offset += part["max_class_id"] + 1

    return StepIR(
        name=name,
        style=style,
        statements=statements,
        registers=registers,
        inputs=[s for s in input_order if s in inputs_seen],
        outputs=[s for s in output_order if s in outputs_seen],
        initialized_flags=initialized_flags,
        root_flags=root_flags,
        flag_ids=flag_ids,
        signals=signals,
        types=types,
    )
