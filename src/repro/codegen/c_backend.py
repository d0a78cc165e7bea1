"""C source emission from the step IR.

Two C emitters share the expression lowering:

* :func:`generate_c_source` mirrors the sequential code of Section 2.6 of
  the paper (``if present(k) then ... endif``): one C function
  ``<process>_step`` performing one reaction, guarded reads/writes for
  every signal through ``extern`` environment hooks, and static variables
  for the delay registers.  It makes the nesting difference between the
  hierarchical and the flat styles (Figure 9) directly visible and is the
  human-readable artifact of ``--emit c``.
* :func:`generate_c_shared_source` is the **reentrant, columnar** variant
  executed by :mod:`repro.runtime.mass`: the delay registers live in an
  explicit ``<process>_state`` struct (no ``static`` locals), and a
  ``<process>_step_many`` entry point performs one reaction for *many*
  instances per call over struct-of-arrays columns (one value array per
  input/output signal, one presence byte-array per output, one byte-array
  per free clock).  Compiled with ``cc -shared`` and loaded through
  ``ctypes``, it is the execution backend for mass simulation.

Arithmetic matches the reference semantics exactly: SIGNAL integer ``/``
and ``modulo`` are **floored** division and modulo (Python ``//``/``%``),
not C's truncate-toward-zero ``/``/``%`` -- the emitters lower them to
helper functions so that negative operands agree with the reference
interpreter and the Python backend.  ``xor`` coerces both operands through
``!= 0`` so non-0/1 integers behave like Python's ``bool(...) != bool(...)``.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Set, Tuple, Union

from ..errors import CodeGenerationError
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
    Guard,
    Lit,
    ReadInput,
    ReadRegister,
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

__all__ = [
    "generate_c_source",
    "generate_c_shared_source",
]


_C_TYPES = {
    SignalType.EVENT: "int",
    SignalType.BOOLEAN: "int",
    SignalType.INTEGER: "long",
    SignalType.REAL: "double",
}

#: operators lowered 1:1 to a C infix operator; ``/``, ``modulo`` and
#: ``xor`` are handled specially in :func:`_c_value` (see module docstring)
_C_BINARY = {
    "+": "+",
    "-": "-",
    "*": "*",
    "and": "&&",
    "or": "||",
    "=": "==",
    "/=": "!=",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
}

#: decimal literals beyond this magnitude need an ``L`` suffix to be safe
#: on ILP32 targets where plain ``int`` constants are 32-bit
_INT_LITERAL_MAX = 2**31 - 1

#: helper functions the expression lowering may reference; emitted into the
#: translation unit only when actually used (``-Wall``-clean output)
_HELPER_SOURCES = {
    "repro_floor_div": [
        "static long repro_floor_div(long a, long b)",
        "{",
        "    long q = a / b;",
        "    if ((a % b) != 0 && ((a < 0) != (b < 0))) {",
        "        q -= 1;",
        "    }",
        "    return q;",
        "}",
    ],
    "repro_floor_mod": [
        "static long repro_floor_mod(long a, long b)",
        "{",
        "    long r = a % b;",
        "    if (r != 0 && ((r < 0) != (b < 0))) {",
        "        r += b;",
        "    }",
        "    return r;",
        "}",
    ],
    "repro_floor_fmod": [
        "static double repro_floor_fmod(double a, double b)",
        "{",
        "    double r = fmod(a, b);",
        "    if (r != 0.0 && ((r < 0.0) != (b < 0.0))) {",
        "        r += b;",
        "    }",
        "    return r;",
        "}",
    ],
}


def _c_literal(value: Union[bool, int, float]) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        # Beyond the guaranteed ``int`` range a bare decimal constant is
        # implementation-hazardous on ILP32; the ``L`` suffix pins it to the
        # ``long`` the INTEGER signals are declared as.
        if value > _INT_LITERAL_MAX or value < -_INT_LITERAL_MAX - 1:
            return f"{value}L"
        return repr(value)
    # Python's repr of non-finite floats (``inf``/``nan``) is not C; use the
    # <math.h> macros.  Finite floats repr as valid C double constants.
    if math.isinf(value):
        return "INFINITY" if value > 0 else "-INFINITY"
    if math.isnan(value):
        return "NAN"
    return repr(value)


def _c_value(expression: ValueExpr) -> str:
    if isinstance(expression, SigRef):
        return expression.signal
    if isinstance(expression, Lit):
        return _c_literal(expression.value)
    if isinstance(expression, Unary):
        if expression.operator == "not":
            return f"(!{_c_value(expression.operand)})"
        return f"(-{_c_value(expression.operand)})"
    if isinstance(expression, Binary):
        left = _c_value(expression.left)
        right = _c_value(expression.right)
        operator = expression.operator
        if operator == "/":
            # SIGNAL integer division is floored (Python ``//``), which
            # differs from C's truncation whenever exactly one operand is
            # negative; real division is true division in both languages.
            if expression.integer:
                return f"repro_floor_div({left}, {right})"
            return f"({left} / {right})"
        if operator == "modulo":
            # Floored modulo: the result takes the sign of the divisor,
            # matching Python ``%`` on both integers and reals.
            if expression.integer:
                return f"repro_floor_mod({left}, {right})"
            return f"repro_floor_fmod({left}, {right})"
        if operator == "xor":
            # Coerce through ``!= 0`` so values outside {0, 1} behave like
            # the Python backend's ``bool(a) != bool(b)``.
            return f"(({left} != 0) != ({right} != 0))"
        c_operator = _C_BINARY.get(operator)
        if c_operator is None:
            raise CodeGenerationError(f"unsupported operator {operator!r}")
        return f"({left} {c_operator} {right})"
    if isinstance(expression, ClockChoice):
        return (
            f"(h{expression.class_id} ? {_c_value(expression.then_value)}"
            f" : {_c_value(expression.else_value)})"
        )
    raise CodeGenerationError(f"unsupported value expression {expression!r}")


def _c_flag(expression: FlagExpr) -> str:
    if isinstance(expression, FlagRef):
        return f"h{expression.class_id}"
    if isinstance(expression, FlagAnd):
        return f"({_c_flag(expression.left)} && {_c_flag(expression.right)})"
    if isinstance(expression, FlagOr):
        return f"({_c_flag(expression.left)} || {_c_flag(expression.right)})"
    if isinstance(expression, FlagAndNot):
        return f"({_c_flag(expression.left)} && !{_c_flag(expression.right)})"
    raise CodeGenerationError(f"unsupported flag expression {expression!r}")


# ---------------------------------------------------------------------------
# Helper-usage scan
# ---------------------------------------------------------------------------


def _scan_value(expression: ValueExpr, helpers: Set[str], literals: List[object]) -> None:
    if isinstance(expression, Lit):
        literals.append(expression.value)
    elif isinstance(expression, Unary):
        _scan_value(expression.operand, helpers, literals)
    elif isinstance(expression, Binary):
        if expression.operator == "/" and expression.integer:
            helpers.add("repro_floor_div")
        elif expression.operator == "modulo":
            helpers.add("repro_floor_mod" if expression.integer else "repro_floor_fmod")
        _scan_value(expression.left, helpers, literals)
        _scan_value(expression.right, helpers, literals)
    elif isinstance(expression, ClockChoice):
        _scan_value(expression.then_value, helpers, literals)
        _scan_value(expression.else_value, helpers, literals)


def _scan_statements(
    statements: Iterable[Stmt], helpers: Set[str], literals: List[object]
) -> None:
    for statement in statements:
        if isinstance(statement, ComputeValue):
            _scan_value(statement.expression, helpers, literals)
        elif isinstance(statement, UpdateRegister):
            _scan_value(statement.source, helpers, literals)
        elif isinstance(statement, Guard):
            _scan_statements(statement.body, helpers, literals)


def _arithmetic(ir: StepIR) -> Tuple[Set[str], bool]:
    """The arithmetic helpers the IR's expressions reference, and whether
    the translation unit needs ``<math.h>`` (``fmod`` or a non-finite
    ``INFINITY``/``NAN`` literal, register initials included)."""
    helpers: Set[str] = set()
    literals: List[object] = [register.initial for register in ir.registers]
    _scan_statements(ir.statements, helpers, literals)
    needs_math = "repro_floor_fmod" in helpers or any(
        isinstance(value, float) and not math.isfinite(value) for value in literals
    )
    return helpers, needs_math


def _helper_lines(helpers: Set[str]) -> List[str]:
    lines: List[str] = []
    for name in sorted(helpers):
        lines.extend(_HELPER_SOURCES[name])
        lines.append("")
    return lines


# ---------------------------------------------------------------------------
# Classic emitter: one static-state step over extern environment hooks
# ---------------------------------------------------------------------------


def _emit(statement: Stmt, lines: List[str], indent: int) -> None:
    pad = "    " * indent
    if isinstance(statement, SetFlagRoot):
        lines.append(f"{pad}h{statement.class_id} = read_clock_input(\"{statement.input_key}\");")
    elif isinstance(statement, SetFlagPartition):
        test = statement.condition if statement.polarity else f"!{statement.condition}"
        if statement.parent_id is None:
            lines.append(f"{pad}h{statement.class_id} = {test};")
        else:
            lines.append(f"{pad}h{statement.class_id} = h{statement.parent_id} && {test};")
    elif isinstance(statement, SetFlagFormula):
        lines.append(f"{pad}h{statement.class_id} = {_c_flag(statement.formula)};")
    elif isinstance(statement, ReadInput):
        lines.append(f"{pad}{statement.signal} = read_input_{statement.signal}();")
    elif isinstance(statement, ReadRegister):
        lines.append(f"{pad}{statement.signal} = {statement.register};")
    elif isinstance(statement, ComputeValue):
        lines.append(f"{pad}{statement.signal} = {_c_value(statement.expression)};")
    elif isinstance(statement, EmitOutput):
        lines.append(f"{pad}write_output_{statement.signal}({statement.signal});")
    elif isinstance(statement, UpdateRegister):
        lines.append(f"{pad}{statement.register} = {_c_value(statement.source)};")
    elif isinstance(statement, Guard):
        lines.append(f"{pad}if (h{statement.class_id}) {{")
        for inner in statement.body:
            _emit(inner, lines, indent + 1)
        lines.append(f"{pad}}}")
    else:  # pragma: no cover - exhaustive over statement kinds
        raise CodeGenerationError(f"unsupported statement {statement!r}")


def _io_prototypes(ir: StepIR) -> List[str]:
    """Extern prototypes for the environment hooks the step function calls.

    With these declarations the generated file compiles cleanly as a
    translation unit (``cc -c``); the environment supplies the definitions
    at link time, exactly like the original compiler's runtime library.
    """
    reads: Set[str] = set()
    writes: Set[str] = set()
    uses_clock_input = False

    def visit(statement: Stmt) -> None:
        nonlocal uses_clock_input
        if isinstance(statement, SetFlagRoot):
            uses_clock_input = True
        elif isinstance(statement, ReadInput):
            reads.add(statement.signal)
        elif isinstance(statement, EmitOutput):
            writes.add(statement.signal)
        elif isinstance(statement, Guard):
            for inner in statement.body:
                visit(inner)

    for statement in ir.statements:
        visit(statement)
    prototypes: List[str] = []
    if uses_clock_input:
        prototypes.append("extern int read_clock_input(const char *name);")
    for signal in sorted(reads):
        c_type = _C_TYPES[ir.types[signal]]
        prototypes.append(f"extern {c_type} read_input_{signal}(void);")
    for signal in sorted(writes):
        c_type = _C_TYPES[ir.types[signal]]
        prototypes.append(f"extern void write_output_{signal}({c_type} value);")
    return prototypes


def generate_c_source(ir: StepIR) -> str:
    """Render the step IR as a self-contained C-like translation unit."""
    name = ir.name
    helpers, needs_math = _arithmetic(ir)
    lines: List[str] = []
    lines.append(f"/* Generated by the SIGNAL reproduction compiler -- process {name} */")
    lines.append(f"/* style: {ir.style.value} */")
    lines.append("#include <stdbool.h>")
    if needs_math:
        lines.append("#include <math.h>")
    lines.append("")
    prototypes = _io_prototypes(ir)
    if prototypes:
        lines.extend(prototypes)
        lines.append("")
    lines.extend(_helper_lines(helpers))

    for register in ir.registers:
        lines.append(
            f"static {_C_TYPES[register.type]} {register.register} = "
            f"{_c_literal(register.initial)};"
        )
    if ir.registers:
        lines.append("")

    lines.append(f"void {name}_step(void)")
    lines.append("{")
    for class_id in ir.flag_ids:
        lines.append(f"    bool h{class_id} = false;")
    lines.extend(
        sorted(
            f"    {_C_TYPES[ir.types[signal]]} {signal};"
            for signal in ir.signals
        )
    )
    lines.append("")
    for statement in ir.statements:
        _emit(statement, lines, 1)
    lines.append("}")
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Reentrant columnar emitter: explicit state struct + step_many entry point
# ---------------------------------------------------------------------------
#
# ABI contract with repro.runtime.mass (all orders are taken verbatim from
# the IR metadata that also persists in artifact records, so a record alone
# suffices to drive the library):
#
#   typedef struct { <one member per delay register, IR order> } <name>_state;
#   long <name>_state_bytes(void);             /* sizeof the state struct  */
#   void <name>_init(<name>_state *, long n);  /* reset registers of n     */
#   void <name>_step_many(
#       <name>_state *states, long n,
#       const unsigned char *roots,            /* root-major: [r*n + i];   */
#                                              /* NULL when no free clock  */
#       const <ctype> *in_<signal>, ...        /* one per input, IR order  */
#       <ctype> *out_<signal>,                 /* per output, IR order ... */
#       unsigned char *out_<signal>_present,   /* ... value + presence     */
#       ...);
#
# Presence bytes are written 0 at the top of every instance's reaction and
# set to 1 by the guarded emit -- absent values are explicit per tick, the
# value slot of an absent output is left untouched (garbage by contract).


def _emit_shared(
    statement: Stmt, lines: List[str], indent: int, root_index: dict
) -> None:
    pad = "    " * indent
    if isinstance(statement, SetFlagRoot):
        position = root_index[statement.class_id]
        lines.append(
            f"{pad}h{statement.class_id} = "
            f"repro_roots[{position} * repro_n + repro_i] != 0;"
        )
    elif isinstance(statement, SetFlagPartition):
        test = statement.condition if statement.polarity else f"!{statement.condition}"
        if statement.parent_id is None:
            lines.append(f"{pad}h{statement.class_id} = {test};")
        else:
            lines.append(f"{pad}h{statement.class_id} = h{statement.parent_id} && {test};")
    elif isinstance(statement, SetFlagFormula):
        lines.append(f"{pad}h{statement.class_id} = {_c_flag(statement.formula)};")
    elif isinstance(statement, ReadInput):
        lines.append(f"{pad}{statement.signal} = in_{statement.signal}[repro_i];")
    elif isinstance(statement, ReadRegister):
        lines.append(f"{pad}{statement.signal} = repro_self->{statement.register};")
    elif isinstance(statement, ComputeValue):
        lines.append(f"{pad}{statement.signal} = {_c_value(statement.expression)};")
    elif isinstance(statement, EmitOutput):
        lines.append(f"{pad}out_{statement.signal}[repro_i] = {statement.signal};")
        lines.append(f"{pad}out_{statement.signal}_present[repro_i] = 1;")
    elif isinstance(statement, UpdateRegister):
        lines.append(
            f"{pad}repro_self->{statement.register} = {_c_value(statement.source)};"
        )
    elif isinstance(statement, Guard):
        lines.append(f"{pad}if (h{statement.class_id}) {{")
        for inner in statement.body:
            _emit_shared(inner, lines, indent + 1, root_index)
        lines.append(f"{pad}}}")
    else:  # pragma: no cover - exhaustive over statement kinds
        raise CodeGenerationError(f"unsupported statement {statement!r}")


def generate_c_shared_source(ir: StepIR) -> str:
    """Render the step IR as a reentrant, columnar shared-library source.

    See the ABI comment above; :class:`repro.runtime.mass.SharedCProgram`
    compiles the result with ``cc -shared`` and drives it through ctypes.
    """
    name = ir.name
    helpers, needs_math = _arithmetic(ir)
    register_members = [
        (_C_TYPES[register.type], register.register, _c_literal(register.initial))
        for register in ir.registers
    ]
    lines: List[str] = []
    lines.append(f"/* Generated by the SIGNAL reproduction compiler -- process {name} */")
    lines.append(f"/* style: {ir.style.value}; reentrant columnar step (mass simulation) */")
    if needs_math:
        lines.append("#include <math.h>")
    lines.append("")

    # The explicit state struct: one member per delay register.  An empty
    # struct is not valid C, so stateless programs carry a padding byte.
    lines.append("typedef struct {")
    if register_members:
        for c_type, register, _literal in register_members:
            lines.append(f"    {c_type} {register};")
    else:
        lines.append("    char repro_unused;")
    lines.append(f"}} {name}_state;")
    lines.append("")
    lines.extend(_helper_lines(helpers))

    lines.append(f"long {name}_state_bytes(void)")
    lines.append("{")
    lines.append(f"    return (long) sizeof({name}_state);")
    lines.append("}")
    lines.append("")

    lines.append(f"void {name}_init({name}_state *repro_states, long repro_n)")
    lines.append("{")
    lines.append("    long repro_i;")
    lines.append("    for (repro_i = 0; repro_i < repro_n; ++repro_i) {")
    if register_members:
        for _c_type, register, literal in register_members:
            lines.append(
                f"        repro_states[repro_i].{register} = {literal};"
            )
    else:
        lines.append("        repro_states[repro_i].repro_unused = 0;")
    lines.append("    }")
    lines.append("}")
    lines.append("")

    # Entry-point signature: states, count, roots, input columns, output
    # value/presence columns -- all orders from the IR metadata.
    parameters = [f"{name}_state *repro_states", "long repro_n"]
    parameters.append("const unsigned char *repro_roots")
    for signal in ir.inputs:
        parameters.append(f"const {_C_TYPES[ir.types[signal]]} *in_{signal}")
    for signal in ir.outputs:
        parameters.append(f"{_C_TYPES[ir.types[signal]]} *out_{signal}")
        parameters.append(f"unsigned char *out_{signal}_present")

    lines.append(f"void {name}_step_many(")
    for position, parameter in enumerate(parameters):
        comma = "," if position < len(parameters) - 1 else ")"
        lines.append(f"    {parameter}{comma}")
    lines.append("{")
    lines.append("    long repro_i;")
    if not ir.root_flags:
        lines.append("    (void) repro_roots;")
    lines.append("    for (repro_i = 0; repro_i < repro_n; ++repro_i) {")
    lines.append(f"        {name}_state *repro_self = &repro_states[repro_i];")
    if not register_members:
        lines.append("        (void) repro_self;")

    for class_id in ir.flag_ids:
        lines.append(f"        int h{class_id} = 0;")
    lines.extend(
        sorted(
            f"        {_C_TYPES[ir.types[signal]]} {signal};"
            for signal in ir.signals
        )
    )
    for signal in ir.outputs:
        lines.append(f"        out_{signal}_present[repro_i] = 0;")
    lines.append("")

    root_index = {class_id: position for position, (class_id, _, _) in enumerate(ir.root_flags)}
    for statement in ir.statements:
        _emit_shared(statement, lines, 2, root_index)
    lines.append("    }")
    lines.append("}")
    lines.append("")
    return "\n".join(lines)
