"""Sequential code generation from the clock hierarchy and dependency graph.

Two generation styles are provided, mirroring Figure 9 of the paper:

* the **hierarchical** style (Figure 9, code *a*) nests if-then-else
  control structures following the clock tree, so that when a clock is
  absent the tests for all the clocks included in it are skipped;
* the **flat** style (Figure 9, code *b*) guards every computation
  individually, testing every clock at every reaction -- the single-loop
  baseline the paper compares against.

Both styles share the same intermediate representation
(:mod:`repro.codegen.ir`) and are emitted either as executable Python
(:mod:`repro.codegen.python_backend`) or as readable C
(:mod:`repro.codegen.c_backend`).
"""

from .ir import (
    GenerationStyle,
    StepIR,
    build_step_ir,
)
from .python_backend import CompiledProcess, generate_python_source
from .c_backend import generate_c_shared_source, generate_c_source

__all__ = [
    "GenerationStyle",
    "StepIR",
    "build_step_ir",
    "CompiledProcess",
    "generate_python_source",
    "generate_c_source",
    "generate_c_shared_source",
]
