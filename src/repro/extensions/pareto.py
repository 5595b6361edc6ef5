"""Area-depth Pareto mapping and depth-bounded area optimization.

The paper's follow-up line (Chortle-d, FlowMap area recovery) trades
lookup tables for circuit depth.  This module generalizes the Section
3.1 dynamic program from a single cost scalar to a Pareto frontier of
``(lookup tables, arrival time)`` pairs per ``minmap(n, U)`` entry, with
tree leaves carrying real arrival times so frontiers compose across the
forest.

Two user-facing tools result:

* :class:`ParetoTreeMapper` — the full area/depth trade-off curve of one
  fanout-free tree;
* :class:`DepthBoundedMapper` — a two-pass network mapper: pass one
  labels every tree root with its minimum achievable arrival (depth
  optimal among forest-respecting mappings), pass two walks the forest
  in reverse, picking the *cheapest* candidate meeting each tree's
  required time for a global depth bound ``optimal + slack``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import MappingError
from repro.core.substrate import emit_trees
from repro.core.forest import Tree, build_forest
from repro.core.lut import LUTCircuit
from repro.core.tree_mapper import MapCand, _chain_to_tuple
from repro.network.network import BooleanNetwork
from repro.network.transform import sweep

# A frontier entry inside the DP: (cost, arrival-of-inputs, chain).
_Entry = Tuple[int, int, Optional[tuple]]

# Nodes with more fanins than this are split in two first (Section 3.1.4).
_SPLIT_THRESHOLD = 10
# Frontier points kept per (node, utilization), cheapest first.
_MAX_FRONTIER = 24


def _pareto_insert(entries: List[_Entry], item: _Entry) -> None:
    """Keep only nondominated (cost, arrival) points."""
    cost, arrival, _ = item
    for other in entries:
        if other[0] <= cost and other[1] <= arrival:
            return
    entries[:] = [
        e for e in entries if not (cost <= e[0] and arrival <= e[1])
    ]
    entries.append(item)


def _pareto_sorted(entries: List[_Entry]) -> List[_Entry]:
    return sorted(entries, key=lambda e: (e[0], e[1]))


def candidate_leaf_levels(cand: MapCand) -> Dict[str, int]:
    """LUT levels from each external leaf up through the candidate root."""
    levels: Dict[str, int] = {}
    # Candidate chains follow tree depth; walk them on an explicit
    # stack.  Only the per-leaf max survives, so visit order is free.
    stack: List[Tuple[MapCand, int]] = [(cand, 0)]
    while stack:
        c, base = stack.pop()
        for placement in c.placements:
            kind = placement[0]
            if kind == "ext":
                depth = base + 1
                name = placement[1]
                if depth > levels.get(name, 0):
                    levels[name] = depth
            elif kind == "wire":
                stack.append((placement[1], base + 1))
            else:  # merged: same LUT level as this root
                stack.append((placement[1], base))
    return levels


class ParetoTreeMapper:
    """Pareto-frontier variant of the Section 3.1 dynamic program."""

    def __init__(self, k: int):
        if k < 2:
            raise MappingError("K must be at least 2, got %d" % k)
        self.k = k

    # Tables here hold, per utilization u, a frontier list of MapCands.

    def map_tree_frontier(
        self,
        network: BooleanNetwork,
        tree: Tree,
        leaf_arrival: Optional[Dict[str, int]] = None,
    ) -> List[MapCand]:
        """Nondominated (cost, arrival) mappings of the tree root."""
        leaf_arrival = leaf_arrival or {}
        tables: Dict[str, List[List[MapCand]]] = {}
        for name in tree.order:
            node = network.node(name)
            items: List = []
            for sig in node.fanins:
                if sig.name in tables:
                    items.append((tables[sig.name], sig.inv, None))
                else:
                    items.append((None, sig.inv, sig.name))
            tables[name] = self._node_frontier(node.op, items, leaf_arrival)
        frontier = tables[tree.root][self.k]
        if not frontier:
            raise MappingError("no feasible mapping for tree %r" % tree.root)
        return sorted(frontier, key=lambda c: (c.cost, c.input_depth))

    # -- node computation ------------------------------------------------------

    def _node_frontier(
        self, op: str, items: List, leaf_arrival: Dict[str, int]
    ) -> List[List[MapCand]]:
        if len(items) > _SPLIT_THRESHOLD:
            half = len(items) // 2
            left = self._wrap(op, items[:half], leaf_arrival)
            right = self._wrap(op, items[half:], leaf_arrival)
            return self._subset_dp(op, [left, right], leaf_arrival)
        return self._subset_dp(op, items, leaf_arrival)

    def _wrap(self, op: str, items: List, leaf_arrival: Dict[str, int]):
        if len(items) == 1:
            return items[0]
        table = self._node_frontier(op, items, leaf_arrival)
        return (table, False, None)

    def _item_options(
        self, item, leaf_arrival: Dict[str, int]
    ) -> List[Tuple[int, int, int, tuple]]:
        """(consumed, cost, input-arrival-contribution, placement)."""
        table, inv, ext_name = item
        options: List[Tuple[int, int, int, tuple]] = []
        if ext_name is not None:
            arrival = leaf_arrival.get(ext_name, 0)
            options.append((1, 0, arrival, ("ext", ext_name, inv)))
            return options
        for cand in table[self.k]:
            options.append(
                (1, cand.cost, cand.input_depth + 1, ("wire", cand, inv))
            )
        for uc in range(2, self.k + 1):
            for cand in table[uc]:
                options.append(
                    (uc, cand.cost - 1, cand.input_depth, ("merged", cand, inv))
                )
        return options

    def _subset_dp(
        self, op: str, items: List, leaf_arrival: Dict[str, int]
    ) -> List[List[MapCand]]:
        k = self.k
        n = len(items)
        full = (1 << n) - 1

        F: Dict[int, List[List[_Entry]]] = {0: [[(0, 0, None)]] + [[] for _ in range(k)]}
        sub: Dict[int, List[List[MapCand]]] = {}

        masks_by_popcount: List[List[int]] = [[] for _ in range(n + 1)]
        for mask in range(1, full + 1):
            masks_by_popcount[bin(mask).count("1")].append(mask)

        for p in range(1, n + 1):
            for mask in masks_by_popcount[p]:
                if p >= 2:
                    sub[mask] = self._make_table(op, items, mask, F, sub, leaf_arrival)
                F[mask] = self._combine(
                    op, items, mask, F, sub, leaf_arrival, allow_whole_block=True
                )
        return sub[full]

    def _combine(
        self, op, items, mask, F, sub, leaf_arrival, allow_whole_block
    ) -> List[List[_Entry]]:
        k = self.k
        best: List[List[_Entry]] = [[] for _ in range(k + 1)]
        first_bit = mask & -mask
        first_idx = first_bit.bit_length() - 1
        rest0 = mask ^ first_bit

        def consider(consumed, cost, arrival, placement, rest_mask):
            rest_table = F[rest_mask]
            for u in range(consumed, k + 1):
                for rc, ra, rchain in rest_table[u - consumed]:
                    _pareto_insert(
                        best[u],
                        (
                            cost + rc,
                            arrival if arrival > ra else ra,
                            (placement, rchain),
                        ),
                    )

        for consumed, cost, arrival, placement in self._item_options(
            items[first_idx], leaf_arrival
        ):
            consider(consumed, cost, arrival, placement, rest0)

        t = rest0
        while t:
            block = first_bit | t
            if block != mask or allow_whole_block:
                for cand in sub[block][k]:
                    consider(
                        1,
                        cand.cost,
                        cand.input_depth + 1,
                        ("wire", cand, False),
                        mask ^ block,
                    )
            t = (t - 1) & rest0

        # Monotonize across u and cap frontier sizes.
        for u in range(1, k + 1):
            for entry in best[u - 1]:
                _pareto_insert(best[u], entry)
        for u in range(k + 1):
            if len(best[u]) > _MAX_FRONTIER:
                best[u] = _pareto_sorted(best[u])[:_MAX_FRONTIER]
        return best

    def _make_table(
        self, op, items, mask, F, sub, leaf_arrival
    ) -> List[List[MapCand]]:
        dist = self._combine(
            op, items, mask, F, sub, leaf_arrival, allow_whole_block=False
        )
        table: List[List[MapCand]] = [[] for _ in range(self.k + 1)]
        for u in range(2, self.k + 1):
            for cost, arrival, chain in _pareto_sorted(dist[u]):
                table[u].append(
                    MapCand(
                        cost + 1, op, _chain_to_tuple(chain), input_depth=arrival
                    )
                )
        return table


class DepthBoundedMapper:
    """Minimum-area mapping under a global LUT-depth bound.

    ``slack=0`` yields the minimum depth achievable without crossing
    fanout boundaries, with area recovered wherever the critical path
    allows; larger slacks relax toward Chortle's pure-area optimum.
    """

    name = "depthbounded"  # spec name under the common Mapper protocol

    def __init__(self, k: int = 4, slack: int = 0):
        self.k = k
        self.slack = slack
        self._pareto = ParetoTreeMapper(k)

    def map(self, network: BooleanNetwork) -> LUTCircuit:
        net, forest, arrival, frontiers, depth = self._label(network)
        bound = depth + self.slack

        # Pass 2: reverse-topological selection under required times.
        required: Dict[str, int] = {}
        for sig in net.outputs.values():
            if net.node(sig.name).is_gate:
                required[sig.name] = min(required.get(sig.name, bound), bound)
        chosen: Dict[str, MapCand] = {}
        for tree in reversed(forest.trees):
            req = required.get(tree.root, bound)
            candidate = None
            for cand in frontiers[tree.root]:  # cost-ascending
                if cand.input_depth + 1 <= req:
                    candidate = cand
                    break
            if candidate is None:
                raise MappingError(
                    "tree %r cannot meet its required time %d"
                    % (tree.root, req)
                )
            chosen[tree.root] = candidate
            for leaf, levels in candidate_leaf_levels(candidate).items():
                if leaf in arrival and net.node(leaf).is_gate:
                    limit_time = req - levels
                    if limit_time < required.get(leaf, bound):
                        required[leaf] = limit_time

        return emit_trees(
            net,
            "%s_db_k%d" % (net.name, self.k),
            self.k,
            ((tree.root, chosen[tree.root]) for tree in forest.trees),
        )

    def optimal_depth(self, network: BooleanNetwork) -> int:
        """Minimum forest-respecting LUT depth (pass 1 labels only)."""
        return self._label(network)[4]

    def _label(self, network: BooleanNetwork) -> tuple:
        """Pass 1: every tree's frontier and optimal arrival label.

        Returns the swept network, its forest, the arrival of every
        input and tree root, each root's frontier, and the optimal depth
        (the latest arrival at a gate-driven output).
        """
        net = sweep(network)
        net.validate()
        forest = build_forest(net)
        arrival: Dict[str, int] = {name: 0 for name in net.inputs}
        frontiers: Dict[str, List[MapCand]] = {}
        for tree in forest.trees:
            frontier = self._pareto.map_tree_frontier(net, tree, arrival)
            frontiers[tree.root] = frontier
            arrival[tree.root] = min(c.input_depth + 1 for c in frontier)
        gate_arrivals = [
            arrival[sig.name]
            for sig in net.outputs.values()
            if net.node(sig.name).is_gate
        ]
        depth = max(gate_arrivals) if gate_arrivals else 0
        return net, forest, arrival, frontiers, depth
