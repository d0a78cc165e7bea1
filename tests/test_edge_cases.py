"""Edge cases and error paths across the pipeline."""

import json
import random

import pytest

from repro import GenerationStyle, compile_source
from repro.compiler import compile_modular_source
from repro.errors import CodeGenerationError, SignalError, SourceLocation
from repro.lang.kernel import normalize
from repro.lang.parser import parse_process
from repro.lang.types import infer_types
from repro.runtime import ReactiveExecutor
from repro.runtime.interpreter import KernelInterpreter
from repro.service import CompilationDaemon, CompilationService
from repro.service.store import CompileStore


class TestErrors:
    def test_source_location_rendering(self):
        location = SourceLocation(3, 7, "alarm.sig")
        assert str(location) == "alarm.sig:3:7"
        error = SignalError("boom", location)
        assert "alarm.sig:3:7" in str(error)

    def test_error_without_location(self):
        assert str(SignalError("boom")) == "boom"


class TestDelayDefaults:
    def test_delay_without_init_uses_type_default(self):
        result = compile_source(
            "process P = ( ? integer X; ! integer ZX; ) (| ZX := X $ 1 |) end;"
        )
        assert result.executable.step({"X": 5}) == {"ZX": 0}
        assert result.executable.step({"X": 9}) == {"ZX": 5}

    def test_boolean_delay_without_init(self):
        result = compile_source(
            "process P = ( ? boolean X; ! boolean ZX; ) (| ZX := X $ 1 |) end;"
        )
        assert result.executable.step({"X": True}) == {"ZX": False}

    def test_real_delay_without_init(self):
        result = compile_source(
            "process P = ( ? real X; ! real ZX; ) (| ZX := X $ 1 |) end;"
        )
        assert result.executable.step({"X": 2.5}) == {"ZX": 0.0}


class TestOperatorCoverage:
    def test_integer_division_truncates(self):
        result = compile_source(
            "process P = ( ? integer A, B; ! integer Q; ) (| Q := A / B |) end;"
        )
        assert result.executable.step({"A": 7, "B": 2}) == {"Q": 3}

    def test_real_division(self):
        result = compile_source(
            "process P = ( ? real A, B; ! real Q; ) (| Q := A / B |) end;"
        )
        assert result.executable.step({"A": 7.0, "B": 2.0}) == {"Q": 3.5}

    def test_modulo_and_comparison(self):
        result = compile_source(
            "process P = ( ? integer A; ! boolean EVEN; ) (| EVEN := (A modulo 2) = 0 |) end;"
        )
        assert result.executable.step({"A": 4}) == {"EVEN": True}
        assert result.executable.step({"A": 5}) == {"EVEN": False}

    def test_xor_and_unary_minus(self):
        result = compile_source(
            "process P = ( ? boolean A, B; integer N; ! boolean X; integer M; )"
            " (| X := A xor B | M := -N | synchro { A, N } |) end;"
        )
        outputs = result.executable.step({"A": True, "B": False, "N": 3})
        assert outputs == {"X": True, "M": -3}

    def test_interpreter_agrees_on_all_operators(self):
        source = (
            "process P = ( ? integer A, B; ! boolean LT, GE, NE; integer S, D, M; )"
            " (| LT := A < B | GE := A >= B | NE := A /= B"
            "  | S := A + B | D := A - B | M := A * B |) end;"
        )
        result = compile_source(source)
        program = normalize(parse_process(source))
        interpreter = KernelInterpreter(program, infer_types(program))
        for a, b in [(1, 2), (5, 5), (-3, 7)]:
            generated = result.executable.step({"A": a, "B": b})
            reference = interpreter.step({"A": a, "B": b})
            for name, value in generated.items():
                assert reference[name] == value


class TestEventAndCell:
    def test_event_output_is_true_when_present(self):
        result = compile_source(
            "process P = ( ? integer X; ! boolean E; ) (| E := event X |) end;"
        )
        assert result.executable.step({"X": 42}) == {"E": True}

    def test_cell_holds_last_value(self):
        # X is present exactly when the condition D is true, C and D are
        # synchronous: Y follows X when X is present and holds its last value
        # at the instants where C is true but X is absent.
        result = compile_source(
            """
            process HOLD =
              ( ? integer X; boolean C, D;
                ! integer Y; )
              (| Y := X cell C init 0
               | synchro { X, when D }
               | synchro { C, D }
               |)
            end;
            """
        )
        process = result.executable
        assert process.step({"X": 5, "C": True, "D": True}) == {"Y": 5}
        assert process.step({"C": True, "D": False}) == {"Y": 5}
        assert process.step({"X": 9, "C": False, "D": True}) == {"Y": 9}
        assert process.step({"C": True, "D": False}) == {"Y": 9}
        assert process.step({"C": False, "D": False}) == {}


class TestCodegenLimits:
    def test_interleaved_dependencies_are_reported(self):
        """Two subtrees that feed each other cannot be emitted as nested blocks."""
        source = """
        process P =
          ( ? integer A; boolean C;
            ! integer X, Y; )
          (| X := (A when C) + (Y when C)
           | Y := (A when (not C)) default (X when (not C))
           | synchro { A, C }
           |)
        end;
        """
        # Either the clock calculus, the causality check or the nested backend
        # must reject this; it must never produce silently wrong code.
        with pytest.raises(SignalError):
            compile_source(source)

    def test_flat_style_can_be_requested_directly(self):
        result = compile_source(
            "process P = ( ? integer A; ! integer B; ) (| B := A + 1 |) end;",
            style=GenerationStyle.FLAT,
        )
        assert result.executable.style is GenerationStyle.FLAT
        assert result.executable.step({"A": 1}) == {"B": 2}


def _when_chain(depth):
    """``X1 := X0 when C1 | ... | Y := X<depth> + 1``: the hierarchical step
    nests one guard per sampling, ``depth`` + 2 levels in all."""
    equations = [f"X{i} := X{i - 1} when C{i}" for i in range(1, depth + 1)]
    equations.append(f"Y := X{depth} + 1")
    conditions = ", ".join(f"C{i}" for i in range(1, depth + 1))
    locals_ = ", ".join(f"X{i}" for i in range(1, depth + 1))
    return (
        f"process CHAIN = ( ? integer X0; boolean {conditions}; ! integer Y; )\n"
        "  (| " + "\n   | ".join(equations) + "\n   |)\n"
        f"  where integer {locals_};\nend;"
    )


class TestNestingLimit:
    """CPython rejects code indented past 99 levels; the Python emitter must
    refuse such a step with a diagnostic instead of handing out (or storing)
    text no client can load.  (Each chain costs seconds of clock resolution,
    so the tests share compiles where they can.)"""

    TOO_DEEP = _when_chain(95)

    def test_deepest_loadable_chain_compiles_and_matches_the_interpreter(self):
        result = compile_source(_when_chain(94))
        generator = random.Random(7)

        def oracle(signal):  # samplings mostly true, so deep signals occur
            if signal.startswith("C"):
                return generator.random() < 0.98
            return generator.randint(-9, 9)

        present = [{key: True for _, key, _ in result.executable.root_flags}] * 25
        trace = ReactiveExecutor(result.executable).run(25, oracle, present)
        assert any(step.outputs for step in trace)
        interpreter = result.interpreter()
        for step in trace:
            expected = interpreter.step(step.inputs, present=step.observations.keys())
            assert expected == step.observations

    def test_too_deep_chain_is_a_codegen_error_on_every_path(self, tmp_path):
        for compile_ in (compile_source, compile_modular_source):
            with pytest.raises(CodeGenerationError, match=r"CHAIN.*clock h\d+"):
                compile_(self.TOO_DEEP)

        store = CompileStore(tmp_path)
        daemon = CompilationDaemon(store=store)
        for modular in (False, True):
            response = daemon.handle_request(
                {"op": "compile", "source": self.TOO_DEEP, "modular": modular}
            )
            assert response["error"]["code"] == "codegen-error"
        # The modular miss kept the unit it compiled (its IR is sound); no
        # whole-program record was written.
        stored = [json.loads(path.read_text())["kind"] for path in tmp_path.glob("*.json")]
        assert stored == ["unit"]
        with pytest.raises(CodeGenerationError):
            daemon.service.compile_record(self.TOO_DEEP, modular=True)

        flat = GenerationStyle.FLAT
        for result in (
            compile_source(self.TOO_DEEP, style=flat),
            daemon.service.compile_modular(self.TOO_DEEP, style=flat),
        ):
            roots = {key: True for _, key, _ in result.executable.root_flags}
            inputs = {"X0": 4, **roots, **{f"C{i}": True for i in range(1, 96)}}
            assert result.executable.step(inputs) == {"Y": 5}
