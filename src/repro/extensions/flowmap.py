"""Depth-optimal LUT mapping via max-flow min-cut labelling (FlowMap).

Chortle minimizes area and leaves delay untouched; the paper's closing
line ("extend our algorithm to handle commercial FPGA architectures")
points at the research line that produced FlowMap (Cong & Ding, 1994),
which computes, for a K-bounded network, a mapping with provably minimum
LUT depth.  This module implements that algorithm from scratch:

1. the network is decomposed into a two-input subject graph (K-bounded
   for every K >= 2);
2. labels are computed in topological order: ``label(t)`` is the minimum,
   over K-feasible cuts ``(X, X')`` of the cone of ``t``, of
   ``max(label(x) for x in cut) + (0 or 1)``; the paper's key theorem
   reduces this to one max-flow check per node — collapse ``t`` with all
   cone nodes labelled ``p`` (the max fanin label) into a sink and test
   whether a cut of at most K node-disjoint paths separates it from the
   inputs;
3. the mapping phase walks from the outputs, realizing each needed node's
   recorded cut as one LUT.

Flow is computed with BFS augmentation on a node-split graph; at most
K+1 augmentations are needed per node.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.errors import MappingError
from repro.baseline.subject import decompose_to_binary
from repro.core.lut import LUTCircuit
from repro.core.substrate import cone_truth_table, wire_outputs
from repro.network.network import BooleanNetwork
from repro.network.transform import sweep
from repro.truth.truthtable import TruthTable


class FlowMapper:
    """Depth-optimal technology mapper for K-input lookup tables."""

    name = "flowmap"  # spec name under the common Mapper protocol

    def __init__(self, k: int = 4):
        if k < 2:
            raise MappingError("K must be at least 2, got %d" % k)
        self.k = k

    # -- public API ------------------------------------------------------------

    def map(self, network: BooleanNetwork) -> LUTCircuit:
        net = decompose_to_binary(sweep(network))
        net.validate()

        labels, cuts = self._label_phase(net)
        circuit = self._mapping_phase(net, cuts)
        wire_outputs(net, circuit)
        circuit.validate(self.k)
        return circuit

    def optimal_depth(self, network: BooleanNetwork) -> int:
        """The minimum achievable LUT depth (the label of the deepest output)."""
        net = decompose_to_binary(sweep(network))
        labels, _ = self._label_phase(net)
        depths = [labels[sig.name] for sig in net.outputs.values()]
        return max(depths) if depths else 0

    # -- phase 1: labelling --------------------------------------------------------

    def _label_phase(
        self, net: BooleanNetwork
    ) -> Tuple[Dict[str, int], Dict[str, Tuple[str, ...]]]:
        labels: Dict[str, int] = {}
        cuts: Dict[str, Tuple[str, ...]] = {}
        fanins: Dict[str, List[str]] = {}
        for name in net.topological_order():
            node = net.node(name)
            if not node.is_gate:
                labels[name] = 0
                continue
            fanins[name] = [s.name for s in node.fanins]
            p = max(labels[s.name] for s in node.fanins)
            if p == 0:
                # All fanins are primary inputs; the trivial cut has height 0.
                labels[name] = 1
                cuts[name] = tuple(dict.fromkeys(fanins[name]))
                continue
            cut = self._min_height_cut(net, name, p, labels)
            if cut is not None:
                labels[name] = p
                cuts[name] = cut
            else:
                labels[name] = p + 1
                cuts[name] = tuple(dict.fromkeys(fanins[name]))
        return labels, cuts

    def _cone(self, net: BooleanNetwork, target: str) -> Set[str]:
        cone: Set[str] = set()
        stack = [target]
        while stack:
            cur = stack.pop()
            if cur in cone:
                continue
            cone.add(cur)
            for sig in net.node(cur).fanins:
                stack.append(sig.name)
        return cone

    def _min_height_cut(
        self, net: BooleanNetwork, target: str, p: int, labels: Dict[str, int]
    ) -> Optional[Tuple[str, ...]]:
        """A K-feasible cut of height p-1, or None if none exists.

        Builds the node-split flow network of the cone of ``target`` with
        ``target`` and every cone node of label p collapsed into the sink,
        and primary-input cone nodes collapsed into the source.
        """
        from collections import deque

        cone = self._cone(net, target)
        sink_side = {n for n in cone if n == target or labels[n] >= p}
        middle = sorted(cone - sink_side)  # gates of label < p and PIs

        # Node indices: source=0, sink=1, then (in,out) pairs for middle
        # nodes.  Every cut-candidate node — including primary inputs — is
        # split with a unit-capacity internal edge.
        index: Dict[str, int] = {}
        next_id = 2
        for n in middle:
            index[n] = next_id  # in-node; out-node is next_id + 1
            next_id += 2
        INF = 1 << 30

        adj: List[List[int]] = [[] for _ in range(next_id)]
        cap: Dict[Tuple[int, int], int] = {}

        def add_edge(u: int, v: int, c: int) -> None:
            if (u, v) not in cap:
                adj[u].append(v)
                adj[v].append(u)
                cap[(u, v)] = 0
                cap[(v, u)] = cap.get((v, u), 0)
            cap[(u, v)] += c

        for n in middle:
            add_edge(index[n], index[n] + 1, 1)
            if not net.node(n).is_gate:
                add_edge(0, index[n], INF)
        for n in cone:
            node = net.node(n)
            if not node.is_gate:
                continue
            v = 1 if n in sink_side else index[n]
            for sig in node.fanins:
                u = 1 if sig.name in sink_side else index[sig.name] + 1
                if u != v:
                    add_edge(u, v, INF)

        # BFS max-flow (unit augmentations), stop once flow exceeds K.
        flow = 0
        while flow <= self.k:
            parent: Dict[int, int] = {0: 0}
            queue = deque([0])
            while queue and 1 not in parent:
                u = queue.popleft()
                for v in adj[u]:
                    if v not in parent and cap.get((u, v), 0) > 0:
                        parent[v] = u
                        queue.append(v)
            if 1 not in parent:
                break
            v = 1
            while v != 0:
                u = parent[v]
                cap[(u, v)] -= 1
                cap[(v, u)] = cap.get((v, u), 0) + 1
                v = u
            flow += 1
        if flow > self.k:
            return None

        # Min cut: nodes whose in-node is residually reachable from the
        # source but whose out-node is not.
        reachable: Set[int] = {0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in reachable and cap.get((u, v), 0) > 0:
                    reachable.add(v)
                    queue.append(v)
        cut_nodes = [
            n
            for n in middle
            if index[n] in reachable and index[n] + 1 not in reachable
        ]
        if len(cut_nodes) > self.k or not cut_nodes:
            raise MappingError(
                "internal error: extracted cut of %d signals for K=%d"
                % (len(cut_nodes), self.k)
            )
        return tuple(cut_nodes)

    # -- phase 2: mapping ------------------------------------------------------------

    def _mapping_phase(
        self, net: BooleanNetwork, cuts: Dict[str, Tuple[str, ...]]
    ) -> LUTCircuit:
        circuit = LUTCircuit("%s_fm_k%d" % (net.name, self.k))
        for name in net.inputs:
            circuit.add_input(name)

        # Post-order over the chosen-cut DAG on an explicit stack (the
        # cut network can be as deep as the subject graph): each node's
        # cut leaves are emitted left to right before the node itself,
        # the same table order the recursive formulation produced.
        for sig in net.outputs.values():
            if not net.node(sig.name).is_gate:
                continue
            stack: List[Tuple[str, bool]] = [(sig.name, False)]
            while stack:
                name, ready = stack.pop()
                if name in circuit:
                    continue
                cut = cuts[name]
                if ready:
                    tt = _cone_function(net, name, cut)
                    circuit.add_lut(name, cut, tt)
                    continue
                stack.append((name, True))
                for leaf in reversed(cut):
                    if net.node(leaf).is_gate and leaf not in circuit:
                        stack.append((leaf, False))
        return circuit


def _cone_function(
    net: BooleanNetwork, target: str, cut: Tuple[str, ...]
) -> TruthTable:
    """Evaluate the cone of ``target`` over the cut signals, bit-parallel.

    Backward-compatible wrapper over the shared substrate's
    :func:`~repro.core.substrate.cone_truth_table`.
    """
    return cone_truth_table(net, target, cut)
