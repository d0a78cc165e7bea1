"""Python emission and in-process compilation of the step IR.

The generated code is a plain Python class with

* one attribute per delay register (``self.z_<signal>``),
* a ``step(inputs, oracle=None, observe=None)`` method performing one
  reaction: ``inputs`` maps input signal names (and, for programs with
  several free clocks, root presence flags) to values; ``oracle`` is an
  optional callable used to fetch the value of an input that the clock
  calculus requires but that is missing from ``inputs``; ``observe``, when a
  dict is supplied, receives the value of every signal present at this
  reaction (used by the test harness to compare against the reference
  interpreter).

A :class:`CompiledProcess` wraps an instance of the executed class; the
compilation results of :mod:`repro.compiler` build one from their memoized
source on first access.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from ..errors import CodeGenerationError, SimulationError
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
    SetFlagFormula,
    SetFlagPartition,
    SetFlagRoot,
    SigRef,
    StepIR,
    Stmt,
    Unary,
    UpdateRegister,
    ValueExpr,
    build_step_ir,  # noqa: F401 - perfbench's tracer wraps it by this name
)

__all__ = [
    "generate_python_source",
    "CompiledProcess",
]


_BINARY_OPERATORS = {
    "+": "+",
    "-": "-",
    "*": "*",
    "/": "/",
    "modulo": "%",
    "and": "and",
    "or": "or",
    "=": "==",
    "/=": "!=",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
}


def _literal(value: Union[bool, int, float]) -> str:
    return repr(value)


def _flag(class_id: int) -> str:
    return f"h{class_id}"


def _signal_var(name: str) -> str:
    return f"s_{name}"


def _value_expr(expression: ValueExpr) -> str:
    if isinstance(expression, SigRef):
        return _signal_var(expression.signal)
    if isinstance(expression, Lit):
        return _literal(expression.value)
    if isinstance(expression, Unary):
        if expression.operator == "not":
            return f"(not {_value_expr(expression.operand)})"
        return f"(- {_value_expr(expression.operand)})"
    if isinstance(expression, Binary):
        operator = expression.operator
        if operator == "xor":
            return f"(bool({_value_expr(expression.left)}) != bool({_value_expr(expression.right)}))"
        if operator == "/" and expression.integer:
            return f"({_value_expr(expression.left)} // {_value_expr(expression.right)})"
        python_operator = _BINARY_OPERATORS.get(operator)
        if python_operator is None:
            raise CodeGenerationError(f"unsupported operator {operator!r}")
        return f"({_value_expr(expression.left)} {python_operator} {_value_expr(expression.right)})"
    if isinstance(expression, ClockChoice):
        return (
            f"({_value_expr(expression.then_value)} if {_flag(expression.class_id)}"
            f" else {_value_expr(expression.else_value)})"
        )
    raise CodeGenerationError(f"unsupported value expression {expression!r}")


def _flag_expr(expression: FlagExpr) -> str:
    if isinstance(expression, FlagRef):
        return _flag(expression.class_id)
    if isinstance(expression, FlagAnd):
        return f"({_flag_expr(expression.left)} and {_flag_expr(expression.right)})"
    if isinstance(expression, FlagOr):
        return f"({_flag_expr(expression.left)} or {_flag_expr(expression.right)})"
    if isinstance(expression, FlagAndNot):
        return f"({_flag_expr(expression.left)} and not {_flag_expr(expression.right)})"
    raise CodeGenerationError(f"unsupported flag expression {expression!r}")


def _emit_observe(signal: str, lines: List[str], pad: str) -> None:
    lines.append(f"{pad}if observe is not None:")
    lines.append(f"{pad}    observe[{signal!r}] = {_signal_var(signal)}")


#: the deepest indentation level CPython's tokenizer accepts (its MAXINDENT
#: is 100); generated code nested deeper would not load
_MAX_INDENT = 99


def _emit_statement(
    statement: Stmt,
    lines: List[str],
    indent: int,
    name: str,
    clock: Optional[int] = None,
) -> None:
    """Append the lines of ``statement`` at ``indent``; ``clock`` is the
    class id of the innermost guard around it (None at the top level)."""
    if isinstance(statement, Guard):
        clock = statement.class_id
    deepest = indent + isinstance(
        statement, (Guard, ReadInput, ReadRegister, ComputeValue)
    )
    if deepest > _MAX_INDENT:
        raise CodeGenerationError(
            f"process {name}: the Python step nests {deepest} levels deep under "
            f"clock {_flag(clock)}, past CPython's limit of {_MAX_INDENT} "
            f"(the flat style does not nest)"
        )
    pad = "    " * indent
    if isinstance(statement, SetFlagRoot):
        lines.append(
            f"{pad}{_flag(statement.class_id)} = bool(inputs.get({statement.input_key!r}, "
            f"{statement.default!r}))"
        )
    elif isinstance(statement, SetFlagPartition):
        value = _signal_var(statement.condition)
        test = f"bool({value})" if statement.polarity else f"(not {value})"
        if statement.parent_id is None:
            lines.append(f"{pad}{_flag(statement.class_id)} = {test}")
        else:
            lines.append(
                f"{pad}{_flag(statement.class_id)} = {_flag(statement.parent_id)} and {test}"
            )
    elif isinstance(statement, SetFlagFormula):
        lines.append(f"{pad}{_flag(statement.class_id)} = {_flag_expr(statement.formula)}")
    elif isinstance(statement, ReadInput):
        variable = _signal_var(statement.signal)
        lines.append(f"{pad}if {statement.signal!r} in inputs:")
        lines.append(f"{pad}    {variable} = inputs[{statement.signal!r}]")
        lines.append(f"{pad}elif oracle is not None:")
        lines.append(f"{pad}    {variable} = oracle({statement.signal!r})")
        lines.append(f"{pad}else:")
        lines.append(
            f"{pad}    raise SimulationError("
            f"'input signal {statement.signal} is required at this instant')"
        )
        _emit_observe(statement.signal, lines, pad)
    elif isinstance(statement, ReadRegister):
        lines.append(f"{pad}{_signal_var(statement.signal)} = self.{statement.register}")
        _emit_observe(statement.signal, lines, pad)
    elif isinstance(statement, ComputeValue):
        lines.append(
            f"{pad}{_signal_var(statement.signal)} = {_value_expr(statement.expression)}"
        )
        _emit_observe(statement.signal, lines, pad)
    elif isinstance(statement, EmitOutput):
        lines.append(
            f"{pad}outputs[{statement.signal!r}] = {_signal_var(statement.signal)}"
        )
    elif isinstance(statement, UpdateRegister):
        lines.append(f"{pad}self.{statement.register} = {_value_expr(statement.source)}")
    elif isinstance(statement, Guard):
        lines.append(f"{pad}if {_flag(statement.class_id)}:")
        if statement.body:
            for inner in statement.body:
                _emit_statement(inner, lines, indent + 1, name, clock)
        else:
            lines.append(f"{pad}    pass")
    else:  # pragma: no cover - exhaustive over statement kinds
        raise CodeGenerationError(f"unsupported statement {statement!r}")


def generate_python_source(ir: StepIR) -> str:
    """Render the step IR as Python source defining a ``Step`` class."""
    name = ir.name
    register_inits = [
        f"        self.{register.register} = {_literal(register.initial)}"
        for register in ir.registers
    ] or ["        pass"]
    lines: List[str] = []
    lines.append('"""Generated by the SIGNAL reproduction compiler -- do not edit."""')
    lines.append("")
    lines.append("from repro.errors import SimulationError")
    lines.append("")
    lines.append("")
    class_name = f"{name}_step".replace("-", "_")
    lines.append(f"class {class_name}:")
    lines.append(f'    """Reaction function of process {name} ({ir.style.value} style)."""')
    lines.append("")
    lines.append("    def __init__(self):")
    lines.extend(register_inits)
    lines.append("")
    lines.append("    def reset(self):")
    lines.extend(register_inits)
    lines.append("")
    lines.append("    def step(self, inputs, oracle=None, observe=None):")
    lines.append("        outputs = {}")
    for class_id in ir.initialized_flags:
        lines.append(f"        {_flag(class_id)} = False")
    for statement in ir.statements:
        _emit_statement(statement, lines, 2, name)
    lines.append("        return outputs")
    lines.append("")
    return "\n".join(lines)


@dataclass
class CompiledProcess:
    """An executable compiled SIGNAL process."""

    name: str
    style: GenerationStyle
    source: str
    #: the step IR the source was generated from; ``None`` for executables
    #: rehydrated from a stored artifact record, where only the generated
    #: source survives serialization
    ir: Optional[StepIR]
    step_instance: object
    inputs: List[str]
    outputs: List[str]
    #: (input key, default) for every free clock of the program
    root_flags: List[Tuple[int, str, bool]]
    types: Dict[str, SignalType] = field(default_factory=dict)

    def step(
        self,
        inputs: Optional[Mapping[str, object]] = None,
        oracle: Optional[Callable[[str], object]] = None,
        observe: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        """Run one reaction and return the present outputs."""
        arguments = dict(inputs or {})
        return self.step_instance.step(arguments, oracle, observe)

    def run(
        self,
        input_trace: List[Mapping[str, object]],
        oracle: Optional[Callable[[str], object]] = None,
    ) -> List[Dict[str, object]]:
        """Run one reaction per element of ``input_trace`` and collect outputs."""
        return [self.step(instant, oracle) for instant in input_trace]

    def reset(self) -> None:
        self.step_instance.reset()

    def fresh(self) -> "CompiledProcess":
        """A new executable instance of the same compiled code.

        The returned process shares the immutable artifacts (source, IR,
        types) but has its own step instance with freshly initialized delay
        registers, so its state is fully isolated from this one.  The
        already-built step class is re-instantiated directly -- no re-exec
        of the source.
        """
        return replace(self, step_instance=type(self.step_instance)())

    @classmethod
    def from_generated_source(
        cls,
        source: str,
        name: str,
        style: GenerationStyle,
        inputs: List[str],
        outputs: List[str],
        root_flags: List[Tuple[int, str, bool]],
        types: Dict[str, SignalType],
    ) -> "CompiledProcess":
        """Rebuild an executable from previously generated step source.

        Used by the artifact store (:mod:`repro.service.store`) to rehydrate
        a runnable process from a persisted record without re-running the
        pipeline: the generated source is re-executed and wrapped exactly
        like a fresh compilation, but no IR is available (``ir`` is None).
        """
        instance = _instantiate_step(source, name)
        return cls(
            name=name,
            style=style,
            source=source,
            ir=None,
            step_instance=instance,
            inputs=list(inputs),
            outputs=list(outputs),
            root_flags=[tuple(flag) for flag in root_flags],
            types=dict(types),
        )


def _instantiate_step(source: str, name: str) -> object:
    """Execute generated step source and return a ready step instance."""
    namespace: Dict[str, object] = {"SimulationError": SimulationError}
    exec(compile(source, f"<generated {name}>", "exec"), namespace)
    class_name = f"{name}_step".replace("-", "_")
    step_class = namespace[class_name]
    return step_class()  # type: ignore[operator]
