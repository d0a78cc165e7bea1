"""The output of the link stage is pinned byte for byte.

SHA-256 digests of the Python, C and reentrant ``c_shared`` sources that
:func:`compile_modular_source` links for the seven Figure-13 programs and
for the members of the reference shared-module fleet
(``programs.suite.fleet_sources()``), in both generation styles.  The
Figure-13 programs are one unit each; the fleet members are several units
linked into one step.  A change to the linker, the unit records or the
step IR that is meant to leave generated code alone must leave these
unchanged.
"""

import hashlib

import pytest

from repro import compile_modular_source
from repro.codegen.ir import GenerationStyle
from repro.programs.suite import benchmark_names, benchmark_source, fleet_sources

#: (program, style) -> (python, c, c_shared) digests of the linked sources
LINKED = {
    ("STOPWATCH", "hierarchical"): (
        "a9cf6875da593879580e17707714a4cafc747e1b5f476213773434e62886433b",
        "cdb5c30d2fa567a97521d294bedb98008b0e95525f4cee5ab7a09daf66986370",
        "e58022eb59a981564cd3409f7f94a8397f59b1d54af35aa7d4425d8f62761f9e",
    ),
    ("STOPWATCH", "flat"): (
        "590c3bceee294c75da520ec69deb92c9adfbd63f89aaea0e6d6448380b0a22a4",
        "1d9beb1113983722b45f21d77404bf86a6f7fc2a58a35843b173f8650c0f67fc",
        "c6ae775ccbe20c038f0e753da4ef5facdc3d8b1a66382e1294796d812aa333ef",
    ),
    ("WATCH", "hierarchical"): (
        "9def1c9f0d327fa4e7d832ffef3a0ebd8b63766eb9910f064d4d842eaf8524d5",
        "a6af2186983fee994e03f9febb2188dedf7bce64214e0ed7960032eecf861251",
        "3bc62d79d4ed0bfb5c95a027d196c090807910b59efb390c275be5d92801a3a5",
    ),
    ("WATCH", "flat"): (
        "09cf632d3cf6bf163d32e866bb050d25357cd58a0246848c3882647bc186ac5f",
        "e54139cbbe76cde90eccc889b85745344918774cbcfedcc38948b66b1626015a",
        "3a0e1d5bc8fb527c156a0fd3378913b3ab9efa4295804ac9e998e059d7d8ea54",
    ),
    ("ALARM", "hierarchical"): (
        "849325581fbd2a3f9c45892bee8b39d566b3c7eb779fdd52ad860a85559a0e5a",
        "94318472b35dbc439059ffaf4fd778370913a2cf636d3fc67661571b71aeaf51",
        "96d57b073705218c9eb1be3d9d75056937fbb69e1af0e592d590038e65ca6bc8",
    ),
    ("ALARM", "flat"): (
        "54e249f3088345281b9eba94a1e2e3f2c81dd9c9c1a888c7c3fae68562b29ed7",
        "c9954fdda36f718f3d210f6c25ce04eeca4364fce6316d69bb874dfdf40e31de",
        "b4fe770b0d11c2726d5e59c0a9ec5856fb2f7badec79f0250a4d023ac8457c6a",
    ),
    ("CHRONO", "hierarchical"): (
        "b82a9b0611c1d3478e935fbb47297a48dfca9850f92cf8ec2232044d7ce890dc",
        "96e2c39caefe70753dbe004271e076f9bb1d34214cde6323f311a99eed49be61",
        "e2df27699de729470942d2e3e364fffcfef8a8b1c31244ae3d1041783ba85742",
    ),
    ("CHRONO", "flat"): (
        "5344d41948ef20fc6e01c8a26acde2ed258cf0009e6e3136f12e745d15652036",
        "de77494a4b5ba4dbaa031c59feff3e2943e198de46cc9dbdb28c76acbba57a19",
        "7c10419d793f0d25c554ccd2b2c020cbe23de56e4fbc68163a9317be417ffb7b",
    ),
    ("SUPERVISOR", "hierarchical"): (
        "d200b4e2765a812616174fb23fd70a8d62eae0daddeaf912bb06be671742871d",
        "101057aa6177c3ea071b88a8695d1dd926d52a2316877beeb3921f61ce3ace1a",
        "ee7102f413f0446559e9846480493a6258c3ba6c3b92a7415a04fb252f58fe16",
    ),
    ("SUPERVISOR", "flat"): (
        "46fe929ab26408444c2a4608e9a0c98a806b2cfec8b5ff3b6bdeff8e54976243",
        "4db86079cc231856c5e68ea1e5deb0090ccceeb4a57af196869e4ae5fab1e3da",
        "d424d5af0d0238044d9c07b1914a39e11cbc447cc08d6dcf6a02b9066fe20d67",
    ),
    ("PACE_MAKER", "hierarchical"): (
        "84c40f3aeeea04fcdb4331a789a5d63a5d695da349735852b1bf00d24a6f5ff2",
        "865453984805f3f5b71b53e248e9d9da826b307fa5a4392126694c19d3b61f57",
        "5c6b5d6d65e32d0b3d05baccd9d9a6ea7de32638712ed791a2f93b79105a115e",
    ),
    ("PACE_MAKER", "flat"): (
        "fc2730ccc6f8c20665037e6a06d801e9f7bc65696daca4ce25c8561a73896697",
        "7b56ba3ae25cbc50e4ac9b2d95ec0ae9a3b6546de6138042c8784cf2b7c33896",
        "39f872093971c9f030d299ac3b2829d7c0e1a6b8f19a499787d00dfefeed967c",
    ),
    ("ROBOT", "hierarchical"): (
        "7e53640f510f66cb700662a7f3c8bbb2b490452ae0bb043e3e13a56c3456910b",
        "bac607ccdd77c6b98cca9970db66ecadf119c9d024bd8ed7f61b9dd7f586cf46",
        "f344b37339e358d19d9014e2d23bf073f5e5888389725194f1147a3ba99cb3b0",
    ),
    ("ROBOT", "flat"): (
        "d88f8ac553bdd29c53d0d36bb96880c2d6b20ae6e46b8dbd6620956ad21ad111",
        "7c6ce4b9297389a14df35b51b71d3317a14604350079fd9ce25c812624f9e76a",
        "486b199088b395f98bb68c29080f727697b970920d0e2e29f016816768858525",
    ),
    ("FLEET0", "hierarchical"): (
        "4bf22517f8adfa8e412703ef1b25f9e754f52ae3389f8d44c834e2c649718a1e",
        "0dcee0e6f2750d89f35778a02c1eb4ee7ad61fa9c0591806907ae4f546653ce7",
        "152d6d0aaa7bdde640b583706678ac9200b4589d779547b7eabd9a706c786a1f",
    ),
    ("FLEET0", "flat"): (
        "53b9c56a6ec5af3da2097b45f8b01f04c5ae90c3e90a61c7ae542b5f5feedecc",
        "90149d99bb404050c52b469d4aca923e700d0d566798a6b092272840735386ab",
        "53d8a7f4b4aabeee645d55336bd5b86c225f1f3ad0764171cdbee289bd0b4699",
    ),
    ("FLEET1", "hierarchical"): (
        "032f7ff93aaf4d0e47f7a3c125399f21ff4f60309543c7f60cf18a8e718b5aee",
        "0b9d529990d1af24c8370426fbf92508fe69be21f862688592a3947efdddcbe1",
        "943684347beaef817a016acd0e064a232e03e4598d60b46341e7f9bf204c28e1",
    ),
    ("FLEET1", "flat"): (
        "be1567537a0e686e9f21dda854f61398ccbb945eabfd3671c8a610e7d3de80a4",
        "b9e44b3a9229f570e3f7c17adf80efd430ebac50c5293666b97547cdde63be07",
        "aeed457dfc600e6a025b8bd7f275f6a39b52328b4541fcea03f6035c30cd1ddc",
    ),
    ("FLEET2", "hierarchical"): (
        "ef9d8819eb6a7a26042139d4b8aeb2e51f76760a429013a9845365b621631f0d",
        "daca229272ee56fa792e6ee241f2c74cd50d0ae71b4846987eb218163a4692d7",
        "dc4396f64b939868e493e85014ced74daaeec5d1ba1bc2db39e460e62b325189",
    ),
    ("FLEET2", "flat"): (
        "cd51be43e690059a46ae234f9475c6c64fc063d1328546dfdbb7ff4bd8277032",
        "797dac935692ea7f94a285623192d6c1a361a95bf8457202e905495af8f3c0cd",
        "cf9f1c95daa177b214602237c78d72e83b2805494065f6708e4bbb357ab10215",
    ),
    ("FLEET3", "hierarchical"): (
        "c0b880a72b13c72317968b3fbb5eb0a78afb9c3c69d9e1f1b94e93b5b4156507",
        "03ef0a37b32da78701da091f08c031be0b356336bea6ee9a9c8251adcbef7bfd",
        "aef598459a9730ac1139f8dc1da3034fe94d1ce81a88c8ce630d0ed20e23c0d5",
    ),
    ("FLEET3", "flat"): (
        "14e66a994f4ad560510516ec98c1e48bfabe4a8128a8d91ad486a33bcfcf783a",
        "3a5993db08434b418c1c329320503706b1a59c6d8b6441c1878f55803afc53c8",
        "9c554abcbd7c6ee8ab1ba67f298f8ef3e1c2b4a353c107dd30ce790b1e50151d",
    ),
}


def source_of(name):
    if name.startswith("FLEET"):
        return fleet_sources()[int(name[len("FLEET"):])]
    return benchmark_source(name)


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_program_is_pinned():
    names = set(benchmark_names()) | {f"FLEET{i}" for i in range(len(fleet_sources()))}
    assert {name for name, _style in LINKED} == names


@pytest.mark.parametrize("name", sorted({name for name, _style in LINKED}))
def test_linked_sources_match_digests(name):
    result = compile_modular_source(source_of(name))
    for style in GenerationStyle:
        assert (
            sha256(result.python_source(style)),
            sha256(result.c_source(style)),
            sha256(result.c_shared_source(style)),
        ) == LINKED[name, style.value], style.value
