"""``compile`` responses of the daemon protocol are pinned byte for byte.

The SHA-256 of every response, serialized with ``json.dumps(sort_keys=True)``
and with ``origin`` dropped (which tier answered is not part of the
answer), is pinned in ``tests/data/wire_pins.json`` for

* the seven Figure-13 programs and the members of the reference
  shared-module fleet (``programs.suite.fleet_sources()``),
* both generation styles, compiled monolithically and unit by unit,
* each ``emit`` kind alone, all kinds together, and ``simulate=5, seed=1``.

A change to the daemon, the artifact records or the store that is meant to
leave the protocol alone must leave these unchanged.  The file is keyed
``"<program>/<style>/<mode>"`` and then by request name.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import GenerationStyle, compile_source
from repro.programs import ALARM_SOURCE
from repro.programs.suite import benchmark_names, benchmark_source, fleet_sources
from repro.runtime import ReactiveExecutor, random_oracle, timing_diagram
from repro.service import CompilationDaemon
from repro.service.daemon import EMIT_KINDS

PINS = json.loads(
    (Path(__file__).parent / "data" / "wire_pins.json").read_text(encoding="utf-8")
)

#: request name -> the fields it adds to a ``compile`` request
REQUESTS = {
    **{kind: {"emit": [kind]} for kind in EMIT_KINDS},
    "all": {"emit": list(EMIT_KINDS)},
    "simulate": {"simulate": 5, "seed": 1},
}

PROGRAMS = {
    **{name: benchmark_source(name) for name in benchmark_names()},
    **{f"FLEET{index}": source for index, source in enumerate(fleet_sources())},
}

CASES = [
    (program, style, mode)
    for program in PROGRAMS
    for style in ("hierarchical", "flat")
    for mode in ("monolithic", "modular")
]


def _digest(response: dict) -> str:
    kept = {key: value for key, value in response.items() if key != "origin"}
    return hashlib.sha256(json.dumps(kept, sort_keys=True).encode("utf-8")).hexdigest()


def test_every_case_is_pinned():
    assert sorted(PINS) == sorted("/".join(case) for case in CASES)
    assert all(sorted(pins) == sorted(REQUESTS) for pins in PINS.values())


@pytest.mark.parametrize("program,style,mode", CASES)
def test_compile_responses_match_their_pins(program, style, mode):
    # A fresh daemon per case: the record tiers are keyed by the whole
    # program, so a monolithic record would answer a modular request.
    daemon = CompilationDaemon()
    base = {"op": "compile", "source": PROGRAMS[program], "style": style}
    if mode == "modular":
        base["modular"] = True
    digests = {}
    for name, fields in REQUESTS.items():
        response = daemon.handle_request({**base, **fields})
        assert response["ok"], response
        digests[name] = _digest(response)
    assert digests == PINS[f"{program}/{style}/{mode}"]


@pytest.mark.parametrize("op", ["compile", "store-get"])
def test_non_observable_requests_are_refused(op):
    daemon = CompilationDaemon()
    compiled = daemon.handle_request({"op": "compile", "source": ALARM_SOURCE})
    request = {"op": op, "observable": False}
    if op == "compile":
        request.update(source=ALARM_SOURCE, simulate=3)
    else:
        request.update(fingerprint=compiled["fingerprint"])
    response = daemon.handle_request(request)
    assert not response["ok"]
    assert response["error"]["code"] == "invalid-request"
    assert "observable" in response["error"]["message"]
    # The one mode left stays accepted, spelled out or not.
    assert daemon.handle_request({**request, "observable": True})["ok"]


@pytest.mark.parametrize("style", list(GenerationStyle))
def test_served_simulation_equals_a_local_run(style):
    daemon = CompilationDaemon()
    response = daemon.handle_request(
        {"op": "compile", "source": ALARM_SOURCE, "style": style.value,
         "simulate": 7, "seed": 3}
    )
    result = compile_source(ALARM_SOURCE, style=style)
    trace = ReactiveExecutor(result.executable).run(7, random_oracle(result.types, seed=3))
    assert response["simulation"]["diagram"] == timing_diagram(trace.observations())
    # Every present signal is observed, the internal ones included.
    assert set(trace.observations().signals()) > set(result.executable.inputs)
