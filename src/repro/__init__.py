"""Reproduction of the PLDI'95 SIGNAL compiler.

This package reimplements, in pure Python, the compilation chain described
in *"Implementation of the data-flow synchronous language SIGNAL"*
(Amagbégnon, Besnard, Le Guernic, PLDI 1995):

* a frontend for the SIGNAL language (parser, kernel desugaring, types);
* the clock calculus: extraction of the system of boolean clock equations
  (Table 1) and its triangularization by **arborescent resolution** over a
  forest of clock trees with BDD-canonical formulas (Section 3);
* the conditional dependency graph (Table 2) and clock-aware causality
  analysis;
* sequential code generation in the nested (hierarchical) and flat
  (single-loop) styles of Figure 9, with Python and C backends;
* a reference interpreter of the kernel semantics, used for differential
  testing and for the timing diagrams of Figures 1-4;
* the benchmark programs and representation baselines needed to regenerate
  the comparison of Figure 13;
* a compilation service (:class:`repro.service.CompilationService`) that
  caches compilation results by kernel fingerprint (every miss compiles on
  its own fresh BDD manager) and compiles batches on worker processes;
* a compilation daemon (``python -m repro serve``,
  :mod:`repro.service.daemon`) serving that service over a JSON-line
  socket protocol with an on-disk store that keeps the cache warm across
  restarts, plus the matching client library
  (:class:`repro.service.RemoteCompiler`).

Quickstart::

    from repro import compile_source

    result = compile_source('''
        process COUNT =
          ( ? boolean RESET; ! integer N; )
          (| N := (0 when RESET) default (ZN + 1)
           | ZN := N $ 1 init 0
           | synchro { N, RESET }
           |)
          where integer ZN;
        end;
    ''')
    print(result.hierarchy.render_forest())
    print(result.executable.step({"RESET": False}))
"""

from .bdd import BDD, BDDManager
from .compiler import (
    CompilationResult,
    LinkedCompilationResult,
    analyze_source,
    compile_modular_source,
    compile_process,
    compile_source,
)
from .codegen import GenerationStyle
from .errors import (
    CausalityError,
    ClockCalculusError,
    CodeGenerationError,
    LexerError,
    NameResolutionError,
    ParseError,
    ResourceLimitExceeded,
    SignalError,
    SimulationError,
    TypeError_,
)
from .lang import SignalType, parse_process
from .runtime import ABSENT, KernelInterpreter, ReactiveExecutor, Trace, timing_diagram
from .service import CompilationService

__version__ = "1.0.0"

__all__ = [
    "BDD",
    "BDDManager",
    "CompilationResult",
    "CompilationService",
    "LinkedCompilationResult",
    "analyze_source",
    "compile_modular_source",
    "compile_process",
    "compile_source",
    "GenerationStyle",
    "CausalityError",
    "ClockCalculusError",
    "CodeGenerationError",
    "LexerError",
    "NameResolutionError",
    "ParseError",
    "ResourceLimitExceeded",
    "SignalError",
    "SimulationError",
    "TypeError_",
    "SignalType",
    "parse_process",
    "ABSENT",
    "KernelInterpreter",
    "ReactiveExecutor",
    "Trace",
    "timing_diagram",
    "__version__",
]
