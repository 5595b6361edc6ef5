"""Bin-packing tree mapping in the Chortle-crf style.

The paper bounds its exhaustive decomposition search at fanin 10 and
lists "nodes with large fanin" as future work.  The follow-up work
(Chortle-crf) replaced the exhaustive search with first-fit-decreasing
bin packing of fanin contributions into K-input bins; this module
implements that strategy on top of the same forest partition and
emission machinery as the exact mapper, so the two can be compared
directly (see the ablation benchmarks): the packer is much faster and
handles any fanin, at a usually-small area penalty.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import MappingError
from repro.core.substrate import emit_trees
from repro.core.forest import build_forest
from repro.core.lut import LUTCircuit
from repro.core.tree_mapper import MapCand, placement_depth
from repro.network.network import BooleanNetwork
from repro.network.transform import sweep


def _make_cand(cost: int, op: str, placements: Tuple[tuple, ...]) -> MapCand:
    depth = max((placement_depth(p) for p in placements), default=0)
    return MapCand(cost, op, placements, input_depth=depth)


def candidate_utilization(cand: MapCand) -> int:
    """Input wires of a candidate's root LUT (merged children included)."""
    total = 0
    for placement in cand.placements:
        if placement[0] == "merged":
            total += candidate_utilization(placement[1])
        else:
            total += 1
    return total


class _Bin:
    """One lookup table being filled: placements plus used capacity."""

    __slots__ = ("placements", "used", "cost")

    def __init__(self):
        self.placements: List[tuple] = []
        self.used = 0
        self.cost = 0  # LUTs referenced by the contents (excl. this bin)


# A packable item: (width, cost_carried, placement).
_Item = Tuple[int, int, tuple]


class BinPackMapper:
    """First-fit-decreasing packing of fanin items into K-input LUTs."""

    name = "binpack"  # spec name under the common Mapper protocol

    def __init__(self, k: int = 4):
        if k < 2:
            raise MappingError("K must be at least 2, got %d" % k)
        self.k = k

    def map(self, network: BooleanNetwork) -> LUTCircuit:
        net = sweep(network)
        net.validate()
        chosen = (
            (tree.root, self._map_tree(net, tree))
            for tree in build_forest(net).trees
        )
        return emit_trees(net, "%s_bp_k%d" % (net.name, self.k), self.k, chosen)

    # -- tree mapping -------------------------------------------------------

    def _map_tree(self, net: BooleanNetwork, tree) -> MapCand:
        cands: Dict[str, MapCand] = {}
        for name in tree.order:
            node = net.node(name)
            items: List[_Item] = []
            for sig in node.fanins:
                if sig.name in cands:
                    child = cands[sig.name]
                    width = candidate_utilization(child)
                    if width <= self.k:
                        # Mergeable: the child's root LUT folds into a bin.
                        items.append(
                            (width, child.cost - 1, ("merged", child, sig.inv))
                        )
                    else:
                        items.append((1, child.cost, ("wire", child, sig.inv)))
                else:
                    items.append((1, 0, ("ext", sig.name, sig.inv)))
            cands[name] = self._pack(node.op, items)
        return cands[tree.root]

    def _ffd(self, items: List[_Item]) -> List[_Bin]:
        """First-fit-decreasing placement into K-capacity bins."""
        bins: List[_Bin] = []
        for width, cost, placement in sorted(
            items, key=lambda item: item[0], reverse=True
        ):
            if width > self.k:
                raise MappingError(
                    "item of width %d cannot fit a K=%d bin" % (width, self.k)
                )
            target = None
            for candidate in bins:
                if candidate.used + width <= self.k:
                    target = candidate
                    break
            if target is None:
                target = _Bin()
                bins.append(target)
            target.used += width
            target.cost += cost
            target.placements.append(placement)
        return bins

    def _pack(self, op: str, items: List[_Item]) -> MapCand:
        """Pack items into bins, then connect bins down to a single root.

        Connection mirrors Chortle-crf's maximum-share idea: two bins
        whose contents fit together are merged outright (saving a LUT);
        otherwise a bin output is wired into another bin's free slot;
        only when every bin is full is a fresh collector bin opened.
        """
        bins = self._ffd(items)
        while len(bins) > 1:
            bins.sort(key=lambda b: b.used)
            a, b = bins[0], bins[1]
            if a.used + b.used <= self.k:
                # Merge contents: one LUT instead of two.
                b.placements.extend(a.placements)
                b.used += a.used
                b.cost += a.cost
                bins.pop(0)
                continue
            receiver = min(bins, key=lambda x: x.used)
            if receiver.used < self.k:
                # Wire the fullest other bin's output into the free slot.
                donor = max(
                    (x for x in bins if x is not receiver),
                    key=lambda x: x.used,
                )
                cand = _make_cand(donor.cost + 1, op, tuple(donor.placements))
                receiver.placements.append(("wire", cand, False))
                receiver.used += 1
                receiver.cost += cand.cost
                bins.remove(donor)
                continue
            # Every bin is full: open a collector over up to K bin outputs.
            collector = _Bin()
            take = bins[: self.k]
            bins = bins[self.k:]
            for donor in take:
                cand = _make_cand(donor.cost + 1, op, tuple(donor.placements))
                collector.placements.append(("wire", cand, False))
                collector.used += 1
                collector.cost += cand.cost
            bins.append(collector)

        root = bins[0]
        return _make_cand(root.cost + 1, op, tuple(root.placements))
