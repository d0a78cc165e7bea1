"""Output checks against the reference interpreter, run outside timed windows."""

from __future__ import annotations

import random
from typing import List, Mapping, Optional, Sequence

from repro.errors import SignalError
from repro.runtime.executor import ExecutionTrace, ReactiveExecutor, random_input_schedule

#: reactions per checked run
REACTIONS = 25


def draw_schedule(executable, types, rng: random.Random, steps: int = REACTIONS) -> List[dict]:
    """A pre-drawn input schedule (values and free-clock presence) for ``executable``."""
    return random_input_schedule(
        types, executable.inputs, executable.root_flags, steps=steps, seed=rng
    )


def run_schedule(executable, schedule: Sequence[Mapping[str, object]]) -> ExecutionTrace:
    """Run a fresh instance of ``executable`` over ``schedule``."""
    return ReactiveExecutor(executable.fresh()).run(len(schedule), inputs_per_step=schedule)


def scheduled_run(executable, types, rng: random.Random, steps: int = REACTIONS) -> ExecutionTrace:
    return run_schedule(executable, draw_schedule(executable, types, rng, steps))


def interpreter_mismatch(interpreter, trace: ExecutionTrace) -> Optional[str]:
    """Replay a schedule-driven trace on the interpreter; describe the first divergence.

    Schedules draw free-clock presence, so signals the replay cannot
    determine at an absent instant are forced absent (``unknown_as_absent``).
    """
    for index, step in enumerate(trace):
        try:
            expected = interpreter.step(
                step.inputs, present=step.observations.keys(), unknown_as_absent=True
            )
        except SignalError as error:
            return f"reaction {index}: interpreter rejected the compiled trace: {error}"
        if expected != dict(step.observations):
            return (
                f"reaction {index}: compiled code observed {dict(step.observations)}, "
                f"interpreter says {expected}"
            )
    return None


def outputs_mismatch(
    actual: Sequence[Mapping[str, object]], expected: Sequence[Mapping[str, object]]
) -> Optional[str]:
    """Describe the first reaction where two output traces differ."""
    if len(actual) != len(expected):
        return f"{len(actual)} reactions against {len(expected)}"
    for index, (left, right) in enumerate(zip(actual, expected)):
        if dict(left) != dict(right):
            return f"reaction {index}: {dict(left)} against {dict(right)}"
    return None


def corrupt(trace: ExecutionTrace) -> None:
    """Falsify one observation of ``trace`` (the benchmark's own self-test)."""
    for step in trace:
        for name, value in step.observations.items():
            step.observations[name] = (not value) if isinstance(value, bool) else value + 1
            return
    trace.steps[0].observations["__corrupted__"] = True


def output_rows(trace: ExecutionTrace) -> List[dict]:
    return [dict(step.outputs) for step in trace]


def sample(rng: random.Random, items: Sequence, count: int) -> List:
    return rng.sample(list(items), min(count, len(items)))
