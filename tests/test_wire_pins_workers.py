"""The wire pins of ``tests/test_wire_pins.py``, served by a ``jobs=2`` daemon.

Each miss compiles and renders its record on a worker process, and so does
the later ``emit`` of a text the record lacks, which completes it.  The
responses must still hash to the pinned digests, so records made and
completed by workers (freshly spawned ones under the spawn start method)
are pinned byte for byte, for every pinned case.
"""

import pytest

from repro.service import CompilationDaemon, CompilationService

from test_wire_pins import CASES, PINS, PROGRAMS, REQUESTS, _digest


@pytest.fixture(scope="module")
def worker_service():
    """One worker-process pool for every case (each case gets its own daemon)."""
    service = CompilationService()
    yield service
    service.close()


@pytest.mark.parametrize("program,style,mode", CASES)
def test_compile_responses_match_their_pins_with_worker_processes(
    worker_service, program, style, mode
):
    daemon = CompilationDaemon(service=worker_service, jobs=2)
    records = worker_service.statistics()["process_records"]
    base = {"op": "compile", "source": PROGRAMS[program], "style": style}
    if mode == "modular":
        base["modular"] = True
    digests = {}
    for name, fields in REQUESTS.items():
        response = daemon.handle_request({**base, **fields})
        assert response["ok"], response
        digests[name] = _digest(response)
    assert digests == PINS[f"{program}/{style}/{mode}"]
    # One worker record for the miss, one for the completion.
    assert worker_service.statistics()["process_records"] == records + 2
    assert daemon.statistics()["daemon"]["completions"] == 1
