"""Generated code is pinned byte for byte.

SHA-256 digests of the hierarchical Python, C and reentrant ``c_shared``
sources of the seven Figure-13 programs and of the 269-signal program of
the compile-time size ladder (10 modules, branching 3, 3 sensors).  A
compiler change that is meant to leave generated code alone -- a faster
clock calculus, IR builder or scheduler -- must leave these unchanged.
The same digests pin the code one shared :class:`CompilationService` serves
for every program, compiled one after another.
"""

import hashlib

import pytest

from repro import CompilationService, compile_source
from repro.programs import ControlProgramSpec, generate_control_program
from repro.programs.suite import benchmark_source

#: program -> (python, c, c_shared) source digests
GOLDEN = {
    "STOPWATCH": (
        "a9cf6875da593879580e17707714a4cafc747e1b5f476213773434e62886433b",
        "cdb5c30d2fa567a97521d294bedb98008b0e95525f4cee5ab7a09daf66986370",
        "e58022eb59a981564cd3409f7f94a8397f59b1d54af35aa7d4425d8f62761f9e",
    ),
    "WATCH": (
        "9def1c9f0d327fa4e7d832ffef3a0ebd8b63766eb9910f064d4d842eaf8524d5",
        "a6af2186983fee994e03f9febb2188dedf7bce64214e0ed7960032eecf861251",
        "3bc62d79d4ed0bfb5c95a027d196c090807910b59efb390c275be5d92801a3a5",
    ),
    "ALARM": (
        "849325581fbd2a3f9c45892bee8b39d566b3c7eb779fdd52ad860a85559a0e5a",
        "94318472b35dbc439059ffaf4fd778370913a2cf636d3fc67661571b71aeaf51",
        "96d57b073705218c9eb1be3d9d75056937fbb69e1af0e592d590038e65ca6bc8",
    ),
    "CHRONO": (
        "b82a9b0611c1d3478e935fbb47297a48dfca9850f92cf8ec2232044d7ce890dc",
        "96e2c39caefe70753dbe004271e076f9bb1d34214cde6323f311a99eed49be61",
        "e2df27699de729470942d2e3e364fffcfef8a8b1c31244ae3d1041783ba85742",
    ),
    "SUPERVISOR": (
        "d200b4e2765a812616174fb23fd70a8d62eae0daddeaf912bb06be671742871d",
        "101057aa6177c3ea071b88a8695d1dd926d52a2316877beeb3921f61ce3ace1a",
        "ee7102f413f0446559e9846480493a6258c3ba6c3b92a7415a04fb252f58fe16",
    ),
    "PACE_MAKER": (
        "84c40f3aeeea04fcdb4331a789a5d63a5d695da349735852b1bf00d24a6f5ff2",
        "865453984805f3f5b71b53e248e9d9da826b307fa5a4392126694c19d3b61f57",
        "5c6b5d6d65e32d0b3d05baccd9d9a6ea7de32638712ed791a2f93b79105a115e",
    ),
    "ROBOT": (
        "7e53640f510f66cb700662a7f3c8bbb2b490452ae0bb043e3e13a56c3456910b",
        "bac607ccdd77c6b98cca9970db66ecadf119c9d024bd8ed7f61b9dd7f586cf46",
        "f344b37339e358d19d9014e2d23bf073f5e5888389725194f1147a3ba99cb3b0",
    ),
    "LADDER10": (
        "7f1eea113980e52d416e275503d079becec78810374d3a809080d0581bb1dab4",
        "1b553bbb6626ec3272caef9ba7adbaba53858b2148905223e4d6ff065919d759",
        "a4a1f25826dae56896a9822a8c119152840df23a191c0a14118f9aa7dda48cb9",
    ),
}


#: one service for every program of the module, as a daemon would hold it
_SERVICE = CompilationService()


def source_of(name):
    if name == "LADDER10":
        spec = ControlProgramSpec(name, modules=10, branching=3, sensors=3)
        return generate_control_program(spec)
    return benchmark_source(name)


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests_of(result):
    return (
        sha256(result.python_source()),
        sha256(result.c_source()),
        sha256(result.c_shared_source()),
    )


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_generated_sources_match_golden_digests(name):
    assert digests_of(compile_source(source_of(name))) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_served_sources_match_golden_digests(name):
    assert digests_of(_SERVICE.compile(source_of(name))) == GOLDEN[name]
