"""The Chortle technology mapper (the paper's contribution).

Public entry point::

    from repro.core import ChortleMapper
    circuit = ChortleMapper(k=4).map(network)

The mapper partitions the network into maximal fanout-free trees
(Section 3), maps each tree optimally by dynamic programming over
utilizations and utilization divisions (Section 3.1), searches all
two-level and multi-level decompositions of every node (Section 3.1.3),
and splits nodes whose fanin exceeds a threshold (Section 3.1.4).
"""

from repro.core.lut import LUT, LUTCircuit
from repro.core.forest import Forest, Tree, build_forest
from repro.core.chortle import ChortleMapper
from repro.core.cover import check_cover

__all__ = [
    "LUT",
    "LUTCircuit",
    "Tree",
    "Forest",
    "build_forest",
    "ChortleMapper",
    "check_cover",
]
