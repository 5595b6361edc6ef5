"""DAGON/MIS-style library-based tree covering.

The baseline flow of Section 4: sweep, decompose into a two-input subject
graph, partition into fanout-free trees (MIS's greedy fanout handling is
modelled by the same tree partition Chortle uses, which the paper found
"difficult to realize any savings" over), then cover each tree by
dynamic programming.  At every subject node all *tree cuts* with at most
K leaves are enumerated; a cut is usable iff its boolean function
Boolean-matches a library cell under NP-equivalence.  The cheapest
matched cover wins.

With a complete library this mapper is limited only by the fixed binary
decomposition of the subject graph; with the Section 4.1 kernel
libraries it additionally loses the cuts whose functions fall outside
the library — the two effects the paper measures.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.errors import MappingError
from repro.baseline.library import Library, library_for
from repro.baseline.subject import decompose_to_binary
from repro.core.substrate import wire_outputs
from repro.core.forest import Tree, build_forest
from repro.core.lut import LUTCircuit
from repro.network.network import AND, BooleanNetwork
from repro.network.transform import sweep
from repro.truth.truthtable import TruthTable

# Cut enumeration at one subject node stops after this many cuts.
_MAX_CUTS = 2000


def _remap_bits(bits: int, positions: List[int], n: int) -> int:
    """Re-index a truth table onto a larger variable space.

    Variable ``j`` of the source becomes variable ``positions[j]`` of the
    ``n``-variable result; the result ignores unmapped variables.
    """
    out = 0
    for m in range(1 << n):
        src = 0
        for j, p in enumerate(positions):
            if (m >> p) & 1:
                src |= 1 << j
        if (bits >> src) & 1:
            out |= 1 << m
    return out


class Cut(NamedTuple):
    """A tree cut: the subtree rooted at a node down to ``leaves``."""

    leaves: Tuple[str, ...]  # external or internal signal names, deduped
    tt: TruthTable  # node function over `leaves`
    internal: Tuple[str, ...]  # internal tree nodes whose LUTs the cut replaces


class MisMapper:
    """Library-based technology mapper in the style of MIS II / DAGON."""

    name = "mis"  # spec name under the common Mapper protocol

    def __init__(self, k: int = 4, library: Optional[Library] = None):
        if k < 2:
            raise MappingError("K must be at least 2, got %d" % k)
        self.k = k
        self.library = library if library is not None else library_for(k)
        if self.library.k > k:
            raise MappingError(
                "library %r targets K=%d but mapper K=%d"
                % (self.library.name, self.library.k, k)
            )

    # -- public API ------------------------------------------------------------

    def map(self, network: BooleanNetwork) -> LUTCircuit:
        net = decompose_to_binary(sweep(network))
        net.validate()
        forest = build_forest(net)

        circuit = LUTCircuit("%s_mis_k%d" % (network.name, self.k))
        for name in net.inputs:
            circuit.add_input(name)
        for tree in forest.trees:
            self._map_tree(net, tree, circuit)
        wire_outputs(net, circuit)
        circuit.validate(self.k)
        return circuit

    # -- tree covering ------------------------------------------------------------

    def _map_tree(self, net: BooleanNetwork, tree: Tree, circuit: LUTCircuit) -> None:
        cuts: Dict[str, List[Cut]] = {}
        best_cost: Dict[str, int] = {}
        best_cut: Dict[str, Cut] = {}

        for name in tree.order:
            node = net.node(name)
            node_cuts = self._enumerate_cuts(node, tree, cuts)
            cuts[name] = node_cuts
            best = None
            chosen = None
            for cut in node_cuts:
                if not self.library.matches(cut.tt):
                    continue
                cost = 1 + sum(
                    best_cost[leaf] for leaf in cut.leaves if leaf in tree.internal
                )
                if best is None or cost < best:
                    best = cost
                    chosen = cut
            if best is None:
                raise MappingError(
                    "library %r cannot cover node %r (no matching cut); "
                    "the library is missing a two-input cell"
                    % (self.library.name, name)
                )
            best_cost[name] = best
            best_cut[name] = chosen

        self._emit(net, tree, best_cut, circuit)

    def _enumerate_cuts(
        self, node, tree: Tree, cuts: Dict[str, List[Cut]]
    ) -> List[Cut]:
        """All cuts of a (two-input) subject node with at most K leaves."""
        per_fanin: List[List[Cut]] = []
        for sig in node.fanins:
            options: List[Cut] = [
                Cut(
                    leaves=(sig.name,),
                    tt=(~TruthTable.var(0, 1)) if sig.inv else TruthTable.var(0, 1),
                    internal=(),
                )
            ]
            if sig.name in tree.internal:
                for child_cut in cuts[sig.name]:
                    tt = ~child_cut.tt if sig.inv else child_cut.tt
                    options.append(
                        Cut(
                            leaves=child_cut.leaves,
                            tt=tt,
                            internal=child_cut.internal + (sig.name,),
                        )
                    )
            per_fanin.append(options)

        result: List[Cut] = []
        seen = set()
        assert len(per_fanin) in (1, 2)
        if len(per_fanin) == 1:
            combos = [(c,) for c in per_fanin[0]]
        else:
            combos = [(a, b) for a in per_fanin[0] for b in per_fanin[1]]
        for combo in combos:
            leaves: List[str] = []
            for cut in combo:
                for leaf in cut.leaves:
                    if leaf not in leaves:
                        leaves.append(leaf)
            if len(leaves) > self.k:
                continue
            n = len(leaves)
            position = {leaf: j for j, leaf in enumerate(leaves)}
            part_bits: List[int] = []
            for cut in combo:
                # Re-express the cut function over the merged leaf list.
                positions = [position[leaf] for leaf in cut.leaves]
                part_bits.append(_remap_bits(cut.tt.bits, positions, n))
            bits = part_bits[0]
            full = (1 << (1 << n)) - 1
            for part in part_bits[1:]:
                bits = (bits & part) if node.op == AND else (bits | part)
            tt = TruthTable(n, bits & full)
            internal = tuple(
                dict.fromkeys(sum((c.internal for c in combo), ()))
            )
            key = (tuple(leaves), tt.bits)
            if key in seen:
                continue
            seen.add(key)
            result.append(Cut(tuple(leaves), tt, internal))
            if len(result) >= _MAX_CUTS:
                break
        return result

    def _emit(
        self,
        net: BooleanNetwork,
        tree: Tree,
        best_cut: Dict[str, Cut],
        circuit: LUTCircuit,
    ) -> None:
        # Post-order over chosen cuts on an explicit stack (match chains
        # run as deep as the tree): leaves left to right before the node,
        # the same table order the recursive formulation produced.
        stack: List[Tuple[str, bool]] = [(tree.root, False)]
        while stack:
            name, ready = stack.pop()
            if name in circuit:
                continue
            cut = best_cut[name]
            if ready:
                circuit.add_lut(name, cut.leaves, cut.tt)
                continue
            stack.append((name, True))
            for leaf in reversed(cut.leaves):
                if leaf in tree.internal and leaf not in circuit:
                    stack.append((leaf, False))
