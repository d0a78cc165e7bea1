"""The middle end is pinned byte for byte.

SHA-256 digests of what clock resolution and IR nesting decide, for the
seven Figure-13 programs, the 269-signal ladder rung and four generated
programs: the rendered forest of clocks, the placement order of the clock
classes (their ids, comma-separated), and the Python step in the FLAT and
hierarchical styles.  ``ROUTER`` assumes a clock free to break a counter
cycle, like every generated control program; the two fleet members have
three free roots and three clock trees each.  ``tests/test_golden_digests.py``
pins the hierarchical Python and C of the Figure-13 programs only; a faster
resolver, causality check or IR builder must leave these unchanged too.
"""

import hashlib

import pytest

from repro import compile_source
from repro.codegen import GenerationStyle
from repro.programs import ControlProgramSpec, generate_control_program
from repro.programs.generators import FleetSpec, generate_fleet
from repro.programs.suite import benchmark_names, benchmark_source

#: program -> (forest, placement order, FLAT python, hierarchical python)
PINS = {
    "STOPWATCH": (
        "d0fb6c47a887a9b6be7b5f574fdde4c030d1bd0e2ebf241afc019ad033a7ce11",
        "1263db04aaf52d4a8668ad01b0c90cf74e850194c66c1f421b66b184a010eec1",
        "b7c0fc517db1ef66bdf30bfa1fbedf66310fe42a4496c9f7d02d16dae0db5169",
        "a9cf6875da593879580e17707714a4cafc747e1b5f476213773434e62886433b",
    ),
    "WATCH": (
        "a7bfa6696131bd33e4ff5cbce87632ad412e3e0d116b0c7549319189672653ed",
        "bbc252b42ff00efdd30fffcee635fea0d3b6b3bb32607653a7a1ae1fde44d7fe",
        "2d139314a95e2f60709b1275d13b15ce6429bd809a4ad91f4f2b09c8f7553b24",
        "9def1c9f0d327fa4e7d832ffef3a0ebd8b63766eb9910f064d4d842eaf8524d5",
    ),
    "ALARM": (
        "449a249e3d5b1446db032a04577bbd56599a6898b6bf729a7edbf8b77ccd5ab8",
        "6cec4a2a9ad27ffe123e2fd25777395dc9f41176e3b965c245c3d62258be5c2b",
        "acd02c63d75c54b872fbb88cae9a3c839de51943427089eb5c8aea04bd067fce",
        "849325581fbd2a3f9c45892bee8b39d566b3c7eb779fdd52ad860a85559a0e5a",
    ),
    "CHRONO": (
        "62b5797946ad748ed34e76552276e71997520b1a05b73fed5edb2af55562218d",
        "6f63551e9012524b73ab2abec5f9220b7a8dfecf5c9704cc546cd4f2dd476b6c",
        "57018468de89fee4e1b7fddbe0fe6e4e1aa3ca181c568a3d04846f05359ccef5",
        "b82a9b0611c1d3478e935fbb47297a48dfca9850f92cf8ec2232044d7ce890dc",
    ),
    "SUPERVISOR": (
        "4ba3e0c2d3282bcc504797ee7e3901ed33929ab08b408e47750f2753397a218b",
        "b9d4a8b1b9bbcb98982f3ed4df088d5cbca0be708ded3efaaf5b6c3fee85fc95",
        "4a10ce3759ba611fab3244f535df2d3f54976be5f7c70ebbdceaaf7cbe7fb5df",
        "d200b4e2765a812616174fb23fd70a8d62eae0daddeaf912bb06be671742871d",
    ),
    "PACE_MAKER": (
        "c48bb424255be78bc88986a2a338a03f34af35ce9b59005e3235027b23144c9c",
        "5823fe5e4907fa2744b731f97892cabafb257ebe5effa5b34b43228ebccef623",
        "29734c7e8ccb34dbbacd7b585bc4e71250a321870f064fb9ad604dedcd50b57c",
        "84c40f3aeeea04fcdb4331a789a5d63a5d695da349735852b1bf00d24a6f5ff2",
    ),
    "ROBOT": (
        "e9182927c2272f5e64fb86072673ebeb0f4c0ec1bda61d49cdbbe518a1be601c",
        "5823fe5e4907fa2744b731f97892cabafb257ebe5effa5b34b43228ebccef623",
        "8ee8164a0def25c3e7d8006bcd004f0d2a2f602d7fa1ba931e6b471ddc8a4854",
        "7e53640f510f66cb700662a7f3c8bbb2b490452ae0bb043e3e13a56c3456910b",
    ),
    "LADDER10": (
        "e4b6fc055c16221754dc3c9145aa5e4bf172f8afae6ef3311f00d26c198efc54",
        "94b794d077a2221123422d7fd88cff547e6748abbb5486577b24779f5305ccc3",
        "0679be7b16b05572fb4351f7cb2755abab305ba0fc524ec0c6d6d1148650d596",
        "7f1eea113980e52d416e275503d079becec78810374d3a809080d0581bb1dab4",
    ),
    "ROUTER": (
        "de86540a7ec05e9fb015baf8fc4d51ea39e5c48f190e210115f95762e3b50f99",
        "93df36ac9329bc449e5dde1e54220eaafeabc70c007f6634003537eb40095217",
        "a66fb3a2a5160f12a2bf321f14fcb606874d7d8bcda28715101fb979b0753eb6",
        "ce78727ac38937aeb791e16203c65bb68d81ad793dfe93727ab1443d4ff7dbcd",
    ),
    "EDGE": (
        "cf01080a11e8ddcb005c06f0a5d30f1eeb4f4996dd299a21c1d519c5d76164ed",
        "66428dfaffa728ffb14bb03b5f510ad985d45d8c4f9aec141390f61756b2958b",
        "ec4cfcd0e432b1134b9878e0539644d839e15b8fcdd4c23e8f5a43c387ed1054",
        "81245c1b1e584d66fe9e32ec008b30548c2404934ba3aba7d848ee81e23c790a",
    ),
    "FLEET0": (
        "aa4d6dc6425affafdd4e28f95010c6010ce210e3f4a5969e5441bb22c10a72b6",
        "1168e622b35a79d584ad6faa61d94bd4297b64d7f8dbbead1c7f2b8ecf0d2c4c",
        "68780e503b950c834e03a820ed64e3559b43a2223de189153b6d76fab55efeb1",
        "25b2255c60fbe4e5009d6ce28bbcc78734efa5e864d2b015beb08c718b5b5191",
    ),
    "FLEET3": (
        "1fa4055ce23da40bd3a53c1a7d97455078d1fdb6eb1deed1b7bc1f84d0e18b3e",
        "00271159b4ff238b5e8477f155c9d3a806ca12643ca8401a31c3b477ee17b8ba",
        "a51bc5491d8442d8ab5015cf8f01a621ad639fc90c6e358c3a693d61d2d3f52a",
        "2105b2de126f98d35c343760b376d740b053d65d60146628fd9db8f176b6da7e",
    ),
}

GENERATED = {
    "LADDER10": ControlProgramSpec("LADDER10", modules=10, branching=3, sensors=3),
    "ROUTER": ControlProgramSpec(
        "ROUTER", modules=6, branching=2, sensors=2, with_arithmetic=True
    ),
    "EDGE": ControlProgramSpec(
        "EDGE", modules=3, branching=1, sensors=0, with_filter=False,
        with_counter=False, distributed=True,
    ),
}


def source_of(name):
    if name in GENERATED:
        return generate_control_program(GENERATED[name])
    if name.startswith("FLEET"):
        return generate_fleet(FleetSpec())[int(name[len("FLEET"):])]
    return benchmark_source(name)


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pins_of(result):
    hierarchy = result.hierarchy
    return (
        sha256(hierarchy.render_forest()),
        sha256(",".join(str(c.id) for c in hierarchy.placement_order)),
        sha256(result.python_source(GenerationStyle.FLAT)),
        sha256(result.python_source(GenerationStyle.HIERARCHICAL)),
    )


def test_the_corpus_is_the_one_described():
    assert sorted(PINS) == sorted(
        list(benchmark_names()) + list(GENERATED) + ["FLEET0", "FLEET3"]
    )
    router = compile_source(source_of("ROUTER")).hierarchy
    assert any(c.assumed_free for c in router.placement_order)
    for name in ("FLEET0", "FLEET3"):
        hierarchy = compile_source(source_of(name)).hierarchy
        assert len([c for c in hierarchy.free_classes() if not c.is_null]) == 3
        assert hierarchy.forest.tree_count() == 3


@pytest.mark.parametrize("name", sorted(PINS))
def test_middle_end_matches_its_pins(name):
    assert pins_of(compile_source(source_of(name))) == PINS[name]
