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

``LAYER_PINS`` pins, for the same programs, what the layers around the
resolution build: the rendered clock equations (Table 1), the rendered
conditional dependency graph (Table 2) with its edge order, the schedule's
actions in order, and its sorted (prerequisite, action) pairs.
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

#: program -> (clock equations, dependency graph, schedule actions, prerequisite pairs)
LAYER_PINS = {
    "STOPWATCH": (
        "f8f89ffafdb6aa5e4f446d05303ea3de9bd8763f1d51462a34b7f16f0b26e2d6",
        "ccd376478d8a8fa1f47c299e4f943b143ad8bd0e7453532686689624bb9ca49e",
        "7f7658fd7561d8abbacf4dba281c32e686215dffc724ca2109aae6cb2035e322",
        "9573b38877732a7bf207a687c6448024191eea0de95b49911c74acac9e5abb82",
    ),
    "WATCH": (
        "2cc774a8e7d263c68f2d7494517e822e15eaef1a6d11ebd149934b6935b90b38",
        "ea9bbf881eff69f2897a437c645a9e76f0ee650493fcaa266982dab7fa68e9a5",
        "48bc5f5adc54e49d8b9b2626432d8e306c663507fee6b1fce7d93a9c46232aac",
        "c2cbddbda72937fe8a2cb5914f3cbf0a3bfbf8ce254eecda58223391722d1b8a",
    ),
    "ALARM": (
        "f2580063092dfff7b4fea075c6b18484e59da584bc6eca37506519c5ae76ee01",
        "36e95d0a96a155c8a06869246e65431f30f8fedda82e2b08ab0126ffd08737bd",
        "c08c274f1f4b6199793b186da8581791f51f2beb76b37f7905a03939d824328f",
        "081bbf65fd1edd17f0347c6e42aaeee87e34fac0844606d6b18f1c93f55816fa",
    ),
    "CHRONO": (
        "4c0112f5d572b1812ffa23b2ff6de492014968c9c5e2f04ea3f64723f20c1fc7",
        "1101aacf639f546bfd1177ebc06b6fd1ffa709ac9e1928adbfaf9ee1b3e32ba8",
        "06395f8c71ce133a48568ef02031cc792c6b6e140fc0299127fe4271bc03dbef",
        "182556f9eddd16d46006ed91bdeaed4709123a68e89b1abbd070a30608c9e09a",
    ),
    "SUPERVISOR": (
        "2c09e6828e059710e783659fb36dbd29da423402784639d4727ca34fee790a90",
        "a2f42412d160118177af181bf24b63cb829eb6626e18c654474d94370e5368da",
        "c98dd499cb068d7bcf157b8d2fa59bc6cdd382de38b792abaaea24f7ad2b4f9c",
        "b58619d877a78c0f92fd50f08b93b33d1d5f826d99f441bf2978f082aa278291",
    ),
    "PACE_MAKER": (
        "2b066a38fcb12275d513fd1f6cc546a0b4e60cfeb314bd7adf8b42d2f4f7a736",
        "78b05b5ef0600966bd1bfadebdd9e7fb3e6eb50a71cde6a96a44f4ec0e390ee0",
        "3ef9fe07862c2987cb7686e9fd83ad1d43b587ec09379122efb4563dd4ccae31",
        "06d2f0f6f541b0f7dd535e625df6c0acd39e0c70a885377c5771e6244d0099d8",
    ),
    "ROBOT": (
        "7d7cd1a79c2eb00a9b185b51175a4e791495ee2a810e7516c26a4ed530b47c64",
        "146f700fe7e901db278cb8bfc09e6f7c4afe3a9acb4b582ee618279a3e2b7cf1",
        "f2b690dc8aa029e039bf30780ef244e762b78f9a8eab67af8410d03a147ef947",
        "1571289680f928d471d20893f7726df1c37985b9156553bc5281a42171749b37",
    ),
    "LADDER10": (
        "b4a9871c6d2ff8758e54adaf7d7a3e86e94ae164f8894a532aed9d9b17d3848b",
        "48b05366669700e0211e4931a0f9de37777df6f23eb0306b25d941ca6c664165",
        "73e20b664289199ab9411a83ca456258f0cd335a7948fcabb6a88e83f6d401e6",
        "1f3d34cfcf227e63f1748202a362d1376596f39f1bc798f0db2f71f51a9e69ab",
    ),
    "ROUTER": (
        "099090752b47bf0b534b6c589be370782de982d882266792622d4a8dffa618b5",
        "c030e45d6fa8b952d653cbe44282f60e343aa53a86a0887b578f78bbfccaef21",
        "a230386df087c1f007738750849721ea646fcad0673b3b561fd8020fec07a8e2",
        "cf16797113772868b355fd9195ece77826596d3aa836b0a7dfd8166395e674fc",
    ),
    "EDGE": (
        "e367e1da1fb63ff3f086ec49daed8bfedc49661c0b7c15d9582ed953b930bbb1",
        "99921173427b629285f2191dff3be9d74553544b3df3301c094ac23ca9e892de",
        "95ca7f0b8fdb97bd017cf45175256e6a9b7276943976a5e2eff23b97d5555ced",
        "414106247b4de40aa59dbb9f56b44c5d65feec4c7008fae09f7cea072d4e2906",
    ),
    "FLEET0": (
        "6e49d39a06277194f785be25ca5760d04d46c889d09dded2c452cca50bf6e28c",
        "eb04b38d51d6eff7d144ac04715ac248837b31ec51f612ee3a8dddb66ce5deb6",
        "39b2daa918a4e8159a97b88544fd9210383a0bb2ee0293a68f8f7e1e84292211",
        "c075e011b4a10c80ec5cc4513e740e7037659cc3cf1f09110cc3b84e99545c64",
    ),
    "FLEET3": (
        "4a2edd403bd7bf4eda2d0cc7d4878fc5d9c018caaaeb4ee3b36f3b2f7d8a4dc0",
        "e5acdfae39434ad1551b2784fce0f1add28937c5b63da04caf1690d4a19ee1d8",
        "1b394d47ea3194fe43fbb99a0b8c26bcb287ac6368d628856c6791eac7ced20d",
        "28feb74bbe054dbb37bac4e794359f5c5250eb9ec63e8310b368a852c2f15945",
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


def layer_pins_of(result):
    schedule = result.schedule
    pairs = sorted(
        f"{prerequisite} -> {action}"
        for action, prerequisites in schedule.prerequisites.items()
        for prerequisite in prerequisites
    )
    return (
        sha256(str(result.clock_system)),
        sha256(str(result.graph)),
        sha256("\n".join(str(action) for action in schedule.actions)),
        sha256("\n".join(pairs)),
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


@pytest.mark.parametrize("name", sorted(LAYER_PINS))
def test_layers_around_resolution_match_their_pins(name):
    assert layer_pins_of(compile_source(source_of(name))) == LAYER_PINS[name]
