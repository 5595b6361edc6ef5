"""The name-keyed priority-cut kernel, kept as a test oracle.

This is the cut enumeration, cover selection and exact-area refinement
that ``repro.core.cuts`` and ``repro.core.cut_mapper`` ran before they
moved onto topological indices.  Every leaf set is a tuple of signal
names, ranks compare those names, and costs come from name-keyed dicts.
The production kernel must agree with it exactly: same retained cuts in
the same order, same depths, bit-identical area flows, same cover.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import MappingError
from repro.network.network import BooleanNetwork


class RefCut(NamedTuple):
    leaves: Tuple[str, ...]
    mask: int
    depth: int
    area_flow: float

    @property
    def size(self) -> int:
        return len(self.leaves)


class RefNodeCuts(NamedTuple):
    cuts: Tuple[RefCut, ...]
    best: RefCut
    trivial: RefCut


def _rank_key(mode: str) -> Callable[[RefCut], Tuple[Any, ...]]:
    if mode == "depth":
        return lambda cut: (cut.depth, cut.area_flow, cut.size, cut.leaves)
    return lambda cut: (cut.area_flow, cut.depth, cut.size, cut.leaves)


def reference_enumerate(
    net: BooleanNetwork,
    k: int,
    priority_size: int,
    mode: str = "area",
    fanout_est: Optional[Dict[str, int]] = None,
) -> Tuple[Dict[str, RefNodeCuts], int]:
    """Name-keyed cuts per node, and the number of candidate pairs."""
    rank = _rank_key(mode)
    fanouts = net.fanout_counts()
    if fanout_est is not None:
        fanouts = dict(fanouts)
        fanouts.update(fanout_est)

    order = net.topological_order()
    bit = {name: i for i, name in enumerate(order)}
    leaf_depth: Dict[str, int] = {}
    leaf_flow: Dict[str, float] = {}
    result: Dict[str, RefNodeCuts] = {}
    candidates_total = 0

    for name in order:
        node = net.node(name)
        self_mask = 1 << bit[name]
        if not node.is_gate:
            trivial = RefCut((name,), self_mask, 0, 0.0)
            leaf_depth[name] = 0
            leaf_flow[name] = 0.0
            result[name] = RefNodeCuts((), trivial, trivial)
            continue
        share = max(1, fanouts.get(name, 1))
        fanin_lists = [_leaf_candidates(result[s.name]) for s in node.fanins]
        if len(fanin_lists) == 1:
            masks = [c.mask for c in fanin_lists[0]]
        else:
            masks = [a.mask | b.mask for a in fanin_lists[0] for b in fanin_lists[1]]
        candidates_total += len(masks)
        merged: List[RefCut] = []
        seen_masks = set()
        for mask in masks:
            if mask.bit_count() > k or mask in seen_masks:
                continue
            seen_masks.add(mask)
            leaves = _mask_leaves(mask, order)
            depth = 1 + max(leaf_depth[leaf] for leaf in leaves)
            flow = (1.0 + sum(leaf_flow[leaf] for leaf in leaves)) / share
            merged.append(RefCut(leaves, mask, depth, flow))
        if not merged:
            raise MappingError("no %d-feasible cut for gate %r" % (k, name))
        merged.sort(key=rank)
        kept = _dominance_filter(merged, priority_size)
        best = kept[0]
        leaf_depth[name] = best.depth
        leaf_flow[name] = best.area_flow
        trivial = RefCut((name,), self_mask, best.depth, best.area_flow)
        result[name] = RefNodeCuts(tuple(kept), best, trivial)
    return result, candidates_total


def _mask_leaves(mask: int, order: Sequence[str]) -> Tuple[str, ...]:
    leaves = []
    while mask:
        low = mask & -mask
        leaves.append(order[low.bit_length() - 1])
        mask ^= low
    return tuple(leaves)


def _leaf_candidates(nc: RefNodeCuts) -> List[RefCut]:
    if not nc.cuts:
        return [nc.trivial]
    out = list(nc.cuts)
    out.append(nc.trivial)
    return out


def _dominance_filter(ranked: Sequence[RefCut], priority_size: int) -> List[RefCut]:
    kept: List[RefCut] = []
    for cut in ranked:
        if not any(better.mask & ~cut.mask == 0 for better in kept):
            kept.append(cut)
            if len(kept) >= priority_size:
                break
    return kept


class ReferenceCover:
    """Cover selection, area recovery and exact-area refinement by name,
    with the knobs of :class:`~repro.core.cut_mapper.CutMapper`."""

    def __init__(self, k: int, priority_size: int, mode: str, rounds: int = 2):
        self.k = k
        self.priority_size = priority_size
        self.mode = mode
        self.rounds = rounds

    def select_with_recovery(
        self, subject: BooleanNetwork
    ) -> Tuple[Dict[str, RefCut], Dict[str, RefNodeCuts]]:
        cuts, _ = reference_enumerate(
            subject, self.k, self.priority_size, self.mode
        )
        cover = self.select_cover(subject, cuts)
        best = (self.cover_key(cover), cover, cuts)
        for _ in range(self.rounds):
            est = self.reference_counts(subject, cover)
            cuts, _ = reference_enumerate(
                subject, self.k, self.priority_size, self.mode, fanout_est=est
            )
            cover = self.select_cover(subject, cuts)
            key = self.cover_key(cover)
            if key < best[0]:
                best = (key, cover, cuts)
        return self.refine_exact_area(subject, best[2], best[1]), best[2]

    def refine_exact_area(
        self,
        subject: BooleanNetwork,
        cuts: Dict[str, RefNodeCuts],
        cover: Dict[str, RefCut],
    ) -> Dict[str, RefCut]:
        chosen = {name: nc.best for name, nc in cuts.items() if nc.cuts}
        chosen.update(cover)
        refs: Dict[str, int] = {}

        def is_gate(name: str) -> bool:
            return bool(cuts[name].cuts)

        def area_of(cut: RefCut) -> int:
            return 1 if cut.size >= 2 else 0

        def ref(name: str) -> int:
            total = 0
            stack = [name]
            while stack:
                cur = stack.pop()
                refs[cur] = refs.get(cur, 0) + 1
                if refs[cur] > 1:
                    continue
                cut = chosen[cur]
                total += area_of(cut)
                stack.extend(leaf for leaf in cut.leaves if is_gate(leaf))
            return total

        def deref(name: str) -> None:
            stack = [name]
            while stack:
                cur = stack.pop()
                refs[cur] -= 1
                if refs[cur] > 0:
                    continue
                stack.extend(leaf for leaf in chosen[cur].leaves if is_gate(leaf))

        for sig in subject.outputs.values():
            if is_gate(sig.name):
                ref(sig.name)

        order = [n for n in subject.topological_order() if is_gate(n)]
        improved = True
        passes = 0
        while improved and passes < 4:
            improved = False
            passes += 1
            for name in order:
                if refs.get(name, 0) <= 0:
                    continue
                current = chosen[name]
                for leaf in current.leaves:
                    if is_gate(leaf):
                        deref(leaf)
                best_cut = current
                gained = sum(ref(leaf) for leaf in current.leaves if is_gate(leaf))
                best_cost = (area_of(current) + gained, current.depth, current.leaves)
                for leaf in current.leaves:
                    if is_gate(leaf):
                        deref(leaf)
                for cand in cuts[name].cuts:
                    if cand.leaves == current.leaves:
                        continue
                    if self.mode == "depth" and cand.depth > current.depth:
                        continue
                    added = area_of(cand) + sum(
                        ref(leaf) for leaf in cand.leaves if is_gate(leaf)
                    )
                    cost = (added, cand.depth, cand.leaves)
                    for leaf in cand.leaves:
                        if is_gate(leaf):
                            deref(leaf)
                    if cost < best_cost:
                        best_cost = cost
                        best_cut = cand
                for leaf in best_cut.leaves:
                    if is_gate(leaf):
                        ref(leaf)
                if best_cut is not current:
                    chosen[name] = best_cut
                    improved = True
        self.passes = passes
        return {name: chosen[name] for name in order if refs.get(name, 0) > 0}

    def select_cover(
        self, subject: BooleanNetwork, cuts: Dict[str, RefNodeCuts]
    ) -> Dict[str, RefCut]:
        required = {
            sig.name
            for sig in subject.outputs.values()
            if subject.node(sig.name).is_gate
        }
        chosen: Dict[str, RefCut] = {}
        for name in reversed(subject.topological_order()):
            if name not in required:
                continue
            cut = cuts[name].best
            chosen[name] = cut
            for leaf in cut.leaves:
                if subject.node(leaf).is_gate:
                    required.add(leaf)
        return chosen

    def cover_key(self, cover: Dict[str, RefCut]) -> Tuple[int, int]:
        luts = sum(1 for cut in cover.values() if cut.size >= 2)
        depth = max((cut.depth for cut in cover.values()), default=0)
        if self.mode == "depth":
            return (depth, luts)
        return (luts, depth)

    def reference_counts(
        self, subject: BooleanNetwork, cover: Dict[str, RefCut]
    ) -> Dict[str, int]:
        refs: Dict[str, int] = {}
        for cut in cover.values():
            for leaf in cut.leaves:
                refs[leaf] = refs.get(leaf, 0) + 1
        for sig in subject.outputs.values():
            if subject.node(sig.name).is_gate:
                refs[sig.name] = refs.get(sig.name, 0) + 1
        return {name: max(1, n) for name, n in refs.items()}
