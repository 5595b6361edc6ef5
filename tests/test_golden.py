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

import pytest

from repro.baseline.mis_mapper import MisMapper
from repro.bench.mcnc import mcnc_circuit
from repro.blif.writer import write_lut_circuit
from repro.core.chortle import ChortleMapper
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
