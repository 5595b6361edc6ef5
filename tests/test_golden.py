"""Golden regression values: exact LUT counts and flow outputs.

The synthetic MCNC stand-ins are generated from fixed seeds, so mapping
results are exactly reproducible.  These tests pin the current numbers;
any change to the generator, the sweep, the DP, or the baseline shows up
here immediately.  If a change is *intentional* (e.g. a quality
improvement), regenerate the table with the snippet in this docstring::

    from repro.bench.mcnc import mcnc_circuit
    from repro.core.chortle import ChortleMapper
    from repro.baseline import MisMapper
    for name in sorted({n for n, _ in GOLDEN}):
        net = mcnc_circuit(name)
        for k in (2, 3, 4, 5):
            print(name, k, ChortleMapper(k).map(net).cost,
                  MisMapper(k).map(net).cost)
"""

import hashlib
import sys

import pytest

from repro.baseline.mis_mapper import MisMapper
from repro.bench.generator import reconvergent_preset
from repro.bench.mcnc import mcnc_circuit
from repro.blif.writer import write_lut_circuit
from repro.cli import main
from repro.core.chortle import ChortleMapper
from repro.flow.mappers import resolve_mapper
from repro.pipeline import map_area, map_delay

# (circuit, k) -> (chortle LUTs, mis LUTs)
GOLDEN = {
    ("9symml", 2): (420, 419),
    ("9symml", 3): (221, 244),
    ("9symml", 4): (153, 162),
    ("9symml", 5): (118, 128),
    ("count", 2): (264, 264),
    ("count", 3): (140, 150),
    ("count", 4): (100, 106),
    ("count", 5): (77, 83),
    ("frg1", 2): (263, 260),
    ("frg1", 3): (135, 148),
    ("frg1", 4): (94, 101),
    ("frg1", 5): (72, 79),
    ("apex7", 2): (454, 451),
    ("apex7", 3): (244, 257),
    ("apex7", 4): (174, 183),
    ("apex7", 5): (138, 145),
}

_NETS = {}


def _net(name):
    if name not in _NETS:
        _NETS[name] = mcnc_circuit(name)
    return _NETS[name]


@pytest.mark.parametrize("name,k", sorted(GOLDEN))
def test_chortle_golden(name, k):
    assert ChortleMapper(k=k).map(_net(name)).cost == GOLDEN[(name, k)][0]


@pytest.mark.parametrize("name,k", sorted(GOLDEN))
def test_mis_golden(name, k):
    assert MisMapper(k=k).map(_net(name)).cost == GOLDEN[(name, k)][1]


def test_golden_shape():
    """The pinned numbers themselves exhibit the paper's shape."""
    for (_name, k), (chortle, mis) in GOLDEN.items():
        if k == 2:
            assert abs(chortle - mis) <= max(3, mis // 50)
        else:
            assert chortle < mis


# (circuit, flow) -> sha1 of the BLIF the composed flow writes at K=4.
# These pin the MIS-style front end (sweep, refactor with its two-level
# minimization) together with chortle and merging; regenerate with
#   hashlib.sha1(write_lut_circuit(map_area(mcnc_circuit(name), k=4))
#                .encode()).hexdigest()
# (map_delay likewise) when a change to the flows is intentional.
FLOW_BLIF_SHA1 = {
    ("9symml", "area"): "4231d98d404c8c8ad18b2b3afef70cb734f6d85f",
    ("9symml", "delay"): "e345c8bdcc1ecf590320752d73a9433b1ee3806d",
    ("count", "area"): "7d0934664fe3e5eddad73aa1331da8fdcbe1e131",
    ("count", "delay"): "2c9399d5906677740052b4f4b5b79bafa6c6d721",
    ("alu2", "area"): "aa31dd54c99ab2fe90337d64735244c0c59066bb",
    ("alu2", "delay"): "823b84edf00cd4bb3ecd8954885b4ea321c3eeeb",
    ("frg1", "area"): "4f1b161346b81b7ba7ed68eaa19685b5bc023101",
    ("frg1", "delay"): "43e358351f9240b69621517abb3377fac78a0c3d",
}

_FLOWS = {"area": map_area, "delay": map_delay}


@pytest.mark.parametrize("name,flow", sorted(FLOW_BLIF_SHA1))
def test_flow_blif_golden(name, flow):
    text = write_lut_circuit(_FLOWS[flow](_net(name), k=4))
    digest = hashlib.sha1(text.encode()).hexdigest()
    assert digest == FLOW_BLIF_SHA1[(name, flow)]


# (circuit, mapper) -> sha1 of the BLIF a raw forest-walking mapper
# writes at K=4.  GOLDEN pins only the LUT counts of chortle and mis;
# these pin the emitted circuits of all four mappers that walk the
# fanout-free forest, byte for byte.  Regenerate with
#   hashlib.sha1(write_lut_circuit(resolve_mapper(mapper, 4).map(net))
#                .encode()).hexdigest()
# when a change to tree mapping is intentional.
TREE_BLIF_SHA1 = {
    ("count", "chortle"): "3caead8a1ccd6850105aa100760a241007fb9f58",
    ("count", "binpack"): "75aa728301ccb3ddea9ae6e869541a137637eaf2",
    ("count", "depthbounded"): "49b4e9245960d06d11d9787af283a718a72c6492",
    ("count", "mis"): "c4045e7caaa8644e3d2526c9b81b6fa7db2a2dc4",
    ("9symml", "chortle"): "c648c05c5474a61a16745ef6a4cc177f905c9095",
    ("9symml", "binpack"): "9fb5039032c641f5d62af02955fd5bb0877395ee",
    ("9symml", "depthbounded"): "b1f93fe4cb952910022c7445d05dad3e967abaad",
    ("9symml", "mis"): "6bc7335dc426e8e1a95989f91170f1851053384f",
    ("alu2", "chortle"): "61c8b57d25c1e782a93b294abb39dd2293ce5e5a",
    ("alu2", "binpack"): "a739c9cfc926b05fa972bddfd57032fb83fbd320",
    ("alu2", "depthbounded"): "cbc052ecb08e898f65b783fec24434620422e28e",
    ("alu2", "mis"): "15ee2b2eed61efd4e38c5a3cc0de23224b1bed5b",
    ("frg1", "chortle"): "95dbd15d96ea48860f230286ce27ba391b3c5191",
    ("frg1", "binpack"): "cf2c6a700561761c76be0ebfe865717b3cfcf571",
    ("frg1", "depthbounded"): "64d67b12ebac9d8e40aeac527fe882a15830f1c4",
    ("frg1", "mis"): "4d95c1b737d6554f9b5b5de49756ff804702bfce",
}


@pytest.mark.parametrize("name,mapper", sorted(TREE_BLIF_SHA1))
def test_tree_mapper_blif_golden(name, mapper):
    text = write_lut_circuit(resolve_mapper(mapper, 4).map(_net(name)))
    digest = hashlib.sha1(text.encode()).hexdigest()
    assert digest == TREE_BLIF_SHA1[(name, mapper)]


# (circuit, mapper) -> sha1 of the BLIF written at K=6.  These pin the
# priority-cut kernel (enumeration ranking, cover selection, exact-area
# refinement) byte for byte, beyond the LUT counts and depth of
# qor_baseline.json; regenerate with
#   hashlib.sha1(write_lut_circuit(resolve_mapper(mapper, 6).map(net))
#                .encode()).hexdigest()
# when a change to cut mapping is intentional.
_DELAY_FLOW = "sweep,strash,cutmap_delay"
CUT_BLIF_SHA1 = {
    ("9symml", "cutmap"): "5a2e8c32dad6a91b9b1d8c1423841b79a9bbc064",
    ("9symml", _DELAY_FLOW): "37c374447544b3852fda9c4b3fa77e3911d6c454",
    ("alu2", "cutmap"): "24b4db674e62344bda231bd44594f9b6953a5c0c",
    ("alu2", _DELAY_FLOW): "12f2bdfb83f57e0017d49fb4be2b64a69a57e95e",
    ("c432", "cutmap"): "59e992e48674b209ac951732c467d2eca7f5dfa1",
    ("c432", _DELAY_FLOW): "eeb135fbcc55ed1de18c21d923d73b24ed14d738",
    ("xor_ladder", "cutmap"): "e5550ee6099be20b651382f657e8819fa8c3f9a6",
    ("xor_ladder", _DELAY_FLOW): "e5550ee6099be20b651382f657e8819fa8c3f9a6",
    ("xor_mesh", "cutmap"): "d26abc47b8d731f1e7e76cbd3816cc835d0e7828",
    ("xor_mesh", _DELAY_FLOW): "d26abc47b8d731f1e7e76cbd3816cc835d0e7828",
    ("xor_wide", "cutmap"): "a394ab20fb7c510d3b3d5568c853d325ae46ce72",
    ("xor_wide", _DELAY_FLOW): "bc92c19eb498f68b35f962b4e7faa14ae93a1f2c",
}
CUT_EXPLAIN_SHA1 = "047b96a6d91948808ca7991c8c17efc41dbb4382"

# Python 3.12 made float sum() compensated.  An area flow is a sum of
# leaf flows, so from 3.12 on a few flows round differently and some
# equal-cost cuts rank in another order: two depth-mode covers and the
# runner-up lists of the explain record change.
if sys.version_info >= (3, 12):
    CUT_BLIF_SHA1.update({
        ("9symml", _DELAY_FLOW): "29b9ea767877dbbd3ed247754ad7b2047458cb03",
        ("c432", _DELAY_FLOW): "07f60a277b06ed708f9f0a3dd2dacfd301cee9a1",
    })
    CUT_EXPLAIN_SHA1 = "cbc726ecf9911a5cc23f5957e73a463e8463dc54"


def _cut_net(name):
    if name.startswith("xor_"):
        return reconvergent_preset(name)
    return _net(name)


@pytest.mark.parametrize("name,mapper", sorted(CUT_BLIF_SHA1))
def test_cut_blif_golden(name, mapper):
    text = write_lut_circuit(resolve_mapper(mapper, 6).map(_cut_net(name)))
    digest = hashlib.sha1(text.encode()).hexdigest()
    assert digest == CUT_BLIF_SHA1[(name, mapper)]


def test_cut_explain_golden(tmp_path):
    # The JSON record of `chortle explain 9symml -k 6 --mapper cutmap
    # --format json`: every covered node's cut, runner-ups and costs.
    out = tmp_path / "explain.json"
    argv = ["explain", "9symml", "-k", "6", "--mapper", "cutmap",
            "--format", "json", "-o", str(out)]
    assert main(argv) == 0
    digest = hashlib.sha1(out.read_bytes()).hexdigest()
    assert digest == CUT_EXPLAIN_SHA1
