"""Extensions beyond the paper (its Section 5 future-work items).

* :mod:`repro.extensions.flowmap` — depth-optimal mapping via max-flow
  min-cut labelling (the FlowMap lineage this paper seeded);
* :mod:`repro.extensions.binpack` — fast bin-packing decomposition in the
  Chortle-crf style, trading the exhaustive decomposition search for
  first-fit-decreasing packing (handles arbitrarily large fanins);
* :mod:`repro.extensions.replicate` — logic duplication at fanout nodes,
  letting shared logic be absorbed into consumer trees;
* :mod:`repro.extensions.clb` — packing mapped LUTs into XC3000-style
  two-output commercial logic blocks ("extend our algorithm to handle
  commercial FPGA architectures");
* :mod:`repro.extensions.pareto` — area/depth Pareto frontiers per tree
  and depth-bounded area mapping (the Chortle-d direction).
"""

from repro.extensions.flowmap import FlowMapper
from repro.extensions.binpack import BinPackMapper
from repro.extensions.replicate import replicate_fanout_nodes, replicate_until_tree
from repro.extensions.clb import Clb, ClbPacker, ClbPacking, pack_clbs
from repro.extensions.lutmerge import merge_luts
from repro.extensions.pareto import DepthBoundedMapper, ParetoTreeMapper

__all__ = [
    "FlowMapper",
    "BinPackMapper",
    "replicate_fanout_nodes",
    "replicate_until_tree",
    "Clb",
    "ClbPacker",
    "ClbPacking",
    "pack_clbs",
    "ParetoTreeMapper",
    "DepthBoundedMapper",
    "merge_luts",
]
