"""DAG covering with priority cuts: the mapper that escapes the trees.

Chortle (the paper, and :class:`~repro.core.chortle.ChortleMapper`)
partitions the network into fanout-free trees and optimizes each tree
exactly.  The partition is also its acknowledged weakness: every
multi-fanout point severs the DAG, so reconvergent logic — the XOR
patterns the paper concedes to MIS at K=2 — is mapped piecewise.

:class:`CutMapper` covers the *whole* DAG instead, with the standard
structural-mapping pipeline the FPGA literature converged on after
Chortle (FlowMap-r, CutMap, ABC's ``if``, iMap's ``klut_mapping``):

1. decompose into a two-input subject graph
   (:func:`~repro.baseline.subject.decompose_to_binary`, origins kept
   for provenance);
2. enumerate priority-pruned K-feasible cuts per node
   (:mod:`repro.core.cuts`), ranked by area flow (``mode="area"``) or
   depth (``mode="depth"``);
3. select a cover with a required-node backward pass: walk from the
   output drivers in reverse topological order, realize each required
   node with its best cut, and mark the cut's gate leaves required;
4. run ``rounds`` of area recovery: re-enumerate with the fanout
   estimates replaced by the previous cover's actual reference counts,
   so the area-flow amortization discounts sharing only where the cover
   shares, and keep the best cover seen;
5. emit one LUT per covered node through the shared substrate
   (:func:`~repro.core.substrate.cone_truth_table`), stamped with
   ``"cut"`` provenance attributed to the node's *origin* (the
   pre-decomposition node), and plumb outputs with
   :func:`~repro.core.substrate.wire_outputs`.

Like the tree mapper, ``cache`` (cone truth tables keyed by
:func:`~repro.core.substrate.cone_signature`) is a QoR-neutral
accelerator, and a ``recorder`` turns on decision provenance — per
covered node the chosen cut, the retained runner-up cuts, and the cost
distance between them (area flow recorded in milli-LUT units, since
decision costs are integers).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.obs.explain import DecisionRecorder, MappingExplanation

from repro.baseline.subject import decompose_to_binary
from repro.core.cuts import (
    DEFAULT_PRIORITY_SIZE,
    Cut,
    CutSets,
    Numbering,
    check_cut_size,
    enumerate_cuts,
)
from repro.core.lut import LUTCircuit, LUTProvenance
from repro.core.substrate import cone_signature, cone_truth_table, wire_outputs
from repro.errors import MappingError
from repro.network.network import BooleanNetwork
from repro.network.transform import sweep
from repro.obs import metrics, span
from repro.truth.truthtable import TruthTable

#: Runner-up cuts retained per node decision when recording provenance.
_MAX_ALTERNATIVES = 4


def _milli(flow: float) -> int:
    """Area flow in milli-LUT units (decision records hold integers)."""
    return int(round(flow * 1000))


class CutMapper:
    """Priority-cut DAG-covering technology mapper for K-input LUTs.

    Satisfies the same ``Mapper`` protocol as
    :class:`~repro.core.chortle.ChortleMapper`: construct with ``k``,
    call :meth:`map`, get a :class:`~repro.core.lut.LUTCircuit`.

    ``priority_size`` bounds the cuts kept per node (quality/runtime
    knob); ``mode`` selects the cover objective (``area`` or ``depth``);
    ``rounds`` is the number of area-recovery re-enumerations; ``cache``
    memoizes cone truth tables across calls and K sweeps (``True`` for
    the shared process cache, or an explicit
    :class:`~repro.perf.memo.NodeTableCache`).  The cache is
    QoR-neutral: the mapped circuit is bit-identical to an uncached run.

    ``recorder`` (a :class:`~repro.obs.explain.DecisionRecorder`)
    enables decision provenance; the built
    :class:`~repro.obs.explain.MappingExplanation` is exposed as
    :attr:`explanation` after each :meth:`map` call.  Decisions are
    grouped per origin node of the source network, mirroring the tree
    mapper's per-tree grouping.
    """

    def __init__(
        self,
        k: int = 4,
        priority_size: int = DEFAULT_PRIORITY_SIZE,
        mode: str = "area",
        rounds: int = 2,
        preprocess: bool = True,
        cache: object = None,
        recorder: Optional["DecisionRecorder"] = None,
    ) -> None:
        check_cut_size(k)
        if mode not in ("area", "depth"):
            raise MappingError(
                "cut mapper mode must be 'area' or 'depth', got %r" % mode
            )
        if rounds < 0:
            raise MappingError("rounds must be >= 0, got %d" % rounds)
        self.k = k
        self.priority_size = priority_size
        self.mode = mode
        # Spec name under the common Mapper protocol, one per objective.
        self.name = "cutmap" if mode == "area" else "cutmap_delay"
        self.rounds = rounds
        self.preprocess = preprocess
        from repro.perf.memo import resolve_cache

        self.cache = resolve_cache(cache)
        self.recorder = recorder
        # The explanation for the most recent map() call (recorder set).
        self.explanation: Optional["MappingExplanation"] = None

    # -- public API ----------------------------------------------------------

    def map(self, network: BooleanNetwork) -> LUTCircuit:
        """Map the network into a circuit of K-input lookup tables."""
        with span(
            "cutmap.map", network=network.name, k=self.k, mode=self.mode
        ) as sp:
            net = sweep(network) if self.preprocess else network
            net.validate()
            origins: Dict[str, str] = {}
            # Area covering wants the chain shape (a w-input gate costs
            # the optimal ceil((w-1)/(K-1)) LUTs); depth covering wants
            # the balanced shape (log-depth subject graph).
            style = "chain" if self.mode == "area" else "balanced"
            subject = decompose_to_binary(net, origins=origins, style=style)

            cover, cuts = self._select_with_recovery(subject)
            circuit = self._emit(subject, cuts, cover, origins)
            wire_outputs(subject, circuit)
            circuit.validate(self.k)
            sp.set("luts", circuit.cost)
            metrics.count("cutmap.luts_emitted", circuit.cost)
            metrics.count("cutmap.nodes_covered", len(cover))

            if self.recorder is not None:
                self._record(subject, cover, cuts, origins)
                from repro.obs.explain import build_explanation

                self.explanation = build_explanation(
                    net, circuit, self.recorder, k=self.k, mapper=self.name
                )
            return circuit

    # -- cover selection -----------------------------------------------------
    #
    # Covers and cut sets are keyed by the subject graph's topological
    # indices (one repro.core.cuts.Numbering per map); a node is a gate
    # exactly when it has retained cuts.

    def _select_with_recovery(
        self, subject: BooleanNetwork
    ) -> Tuple[Dict[int, Cut], CutSets]:
        """The best cover over the initial pass + ``rounds`` recoveries."""
        numbering = Numbering(subject)
        # One entry per output port, so a node driving two ports counts
        # two references.
        position = numbering.position
        roots = [position[sig.name] for sig in subject.outputs.values()]
        cuts = enumerate_cuts(
            subject,
            self.k,
            priority_size=self.priority_size,
            mode=self.mode,
            numbering=numbering,
        )
        cover = self._select_cover(cuts, roots)
        best = (self._cover_key(cover), cover, cuts)
        for _ in range(self.rounds):
            est = self._reference_counts(cuts, cover, roots)
            cuts = enumerate_cuts(
                subject,
                self.k,
                priority_size=self.priority_size,
                mode=self.mode,
                fanout_est=est,
                numbering=numbering,
            )
            cover = self._select_cover(cuts, roots)
            key = self._cover_key(cover)
            if key < best[0]:
                best = (key, cover, cuts)
        metrics.count("cutmap.recovery_rounds", self.rounds)
        cover = self._refine_exact_area(best[2], best[1], roots)
        return cover, best[2]

    def _refine_exact_area(
        self, cuts: CutSets, cover: Dict[int, Cut], roots: List[int]
    ) -> Dict[int, Cut]:
        """Exact-area local refinement of a cover (the deref/ref pass).

        Area flow only *estimates* sharing; this pass measures it.  For
        every covered node it detaches the chosen cut's references,
        evaluates each retained candidate by the exact number of LUTs it
        would add (recursively pulling in currently-unreferenced leaves),
        and keeps the cheapest: fewest LUTs added, then least depth, then
        leaf names.  Repeats until a full pass changes nothing.  In depth
        mode, substitutions are restricted to cuts that do not worsen the
        node's depth.
        """
        retained = cuts.cuts
        n = len(retained)

        def option(cut: Cut) -> Tuple[Cut, Tuple[int, ...], int]:
            # A cut with its gate leaves and its area (single-input
            # tables are free, as in LUTCircuit.cost).
            gates = tuple([leaf for leaf in cut.leaves if retained[leaf]])
            return cut, gates, 1 if len(cut.leaves) >= 2 else 0

        chosen = {i: c[0] for i, c in enumerate(retained) if c}
        chosen.update(cover)
        chosen_gates: List[Tuple[int, ...]] = [()] * n
        chosen_area = [0] * n
        for i, cut in chosen.items():
            _, chosen_gates[i], chosen_area[i] = option(cut)
        # Per visited node, every retained cut as an option, built once.
        options: Dict[int, List[Tuple[Cut, Tuple[int, ...], int]]] = {}
        refs = [0] * n

        # Both walks push gate leaves onto an explicit stack — reference
        # counting is a commutative sum, so traversal order is free and
        # cover depth never touches the interpreter recursion limit.
        def ref(leaves: Sequence[int]) -> int:
            total = 0
            stack = list(leaves)
            while stack:
                cur = stack.pop()
                refs[cur] += 1
                if refs[cur] == 1:
                    total += chosen_area[cur]
                    stack.extend(chosen_gates[cur])
            return total

        def deref(leaves: Sequence[int]) -> int:
            total = 0
            stack = list(leaves)
            while stack:
                cur = stack.pop()
                refs[cur] -= 1
                if refs[cur] == 0:
                    total += chosen_area[cur]
                    stack.extend(chosen_gates[cur])
            return total

        ref([i for i in roots if retained[i]])

        gates = [i for i in range(n) if retained[i]]
        depth_mode = self.mode == "depth"
        tie_key = cuts.numbering.tie_key
        improved = True
        passes = 0
        while improved and passes < 4:
            improved = False
            passes += 1
            for i in gates:
                if refs[i] <= 0:
                    continue
                current = chosen[i]
                current_gates = chosen_gates[i]
                # Detaching the current cut frees exactly the LUTs that
                # re-attaching it would add: that is its cost, taken
                # first so ties keep it.  A cost is (LUTs added, depth),
                # then the leaf names.
                best = (current, current_gates, chosen_area[i])
                freed = deref(current_gates)
                best_cost = (chosen_area[i] + freed, current.depth)
                if i not in options:
                    options[i] = [option(cut) for cut in retained[i]]
                for cand in options[i]:
                    cut, cut_gates, area = cand
                    if cut.mask == current.mask:
                        continue
                    if depth_mode and cut.depth > current.depth:
                        continue
                    cost = (area + ref(cut_gates), cut.depth)
                    deref(cut_gates)
                    if cost < best_cost or (
                        cost == best_cost and tie_key(cut) < tie_key(best[0])
                    ):
                        best_cost = cost
                        best = cand
                ref(best[1])
                if best[0] is not current:
                    chosen[i], chosen_gates[i], chosen_area[i] = best
                    improved = True
        metrics.count("cutmap.exact_area_passes", passes)
        return {i: chosen[i] for i in gates if refs[i] > 0}

    def _select_cover(self, cuts: CutSets, roots: List[int]) -> Dict[int, Cut]:
        """Required-node backward pass: outputs pull in their best cuts,
        whose gate leaves become required in turn."""
        retained = cuts.cuts
        required = {i for i in roots if retained[i]}
        chosen: Dict[int, Cut] = {}
        for i in range(len(retained) - 1, -1, -1):
            if i not in required:
                continue
            cut = retained[i][0]
            chosen[i] = cut
            for leaf in cut.leaves:
                if retained[leaf]:
                    required.add(leaf)
        return chosen

    def _cover_key(self, cover: Dict[int, Cut]) -> Tuple[int, int]:
        """The comparison key of a cover under the mapper's objective."""
        luts = sum(1 for cut in cover.values() if len(cut.leaves) >= 2)
        depth = max((cut.depth for cut in cover.values()), default=0)
        if self.mode == "depth":
            return (depth, luts)
        return (luts, depth)

    def _reference_counts(
        self, cuts: CutSets, cover: Dict[int, Cut], roots: List[int]
    ) -> Dict[int, int]:
        """How often each node is actually referenced by the cover.

        Covered nodes are read by the cuts that use them as leaves and
        by the output ports; the counts replace structural fanout in the
        next enumeration's area-flow amortization.  Nodes the cover
        absorbed entirely keep their structural fanout (they are not in
        the returned dict).
        """
        refs: Dict[int, int] = {}
        for cut in cover.values():
            for leaf in cut.leaves:
                refs[leaf] = refs.get(leaf, 0) + 1
        for i in roots:
            if cuts.cuts[i]:
                refs[i] = refs.get(i, 0) + 1
        return refs

    # -- emission ------------------------------------------------------------

    def _emit(
        self,
        subject: BooleanNetwork,
        cuts: CutSets,
        cover: Dict[int, Cut],
        origins: Dict[str, str],
    ) -> LUTCircuit:
        circuit = LUTCircuit("%s_cut_k%d" % (subject.name, self.k))
        for name in subject.inputs:
            circuit.add_input(name)
        numbering = cuts.numbering
        for i in sorted(cover):
            cut = cover[i]
            name = numbering.order[i]
            leaves = numbering.names(cut)
            origin = origins.get(name, name)
            circuit.add_lut(
                name,
                leaves,
                self._cone_table(subject, name, leaves),
                provenance=LUTProvenance(
                    tree=origin,
                    op=subject.node(name).op,
                    placements=("cut",) * len(leaves),
                    root=name == origin,
                ),
            )
        return circuit

    def _cone_table(
        self, subject: BooleanNetwork, name: str, leaves: Tuple[str, ...]
    ) -> TruthTable:
        """The cone truth table of a covered node, memoized.

        The cache is exact: its key is the canonical cone structure
        (:func:`~repro.core.substrate.cone_signature`).
        """
        if self.cache is None:
            return cone_truth_table(subject, name, leaves)
        key = ("cut", self.k, cone_signature(subject, name, leaves))
        tt: Optional[TruthTable] = self.cache.get(key)
        if tt is None:
            tt = cone_truth_table(subject, name, leaves)
            self.cache.put(key, tt)
        return tt

    # -- decision provenance -------------------------------------------------

    def _record(
        self,
        subject: BooleanNetwork,
        cover: Dict[int, Cut],
        cuts: CutSets,
        origins: Dict[str, str],
    ) -> None:
        """Stream the cover's decisions into the recorder, grouped by the
        origin node of the source network (the cut-cover analogue of the
        tree mapper's per-tree grouping)."""
        from repro.obs.explain import Alternative, NodeDecision, TreeDecisions

        order = cuts.numbering.order
        groups: Dict[str, List[int]] = {}
        for i in sorted(cover):
            name = order[i]
            groups.setdefault(origins.get(name, name), []).append(i)
        self.recorder.set_order(list(groups))

        for root, members in groups.items():
            decisions: List[NodeDecision] = []
            luts = 0
            depth = 0
            for i in members:
                cut = cover[i]
                retained = cuts.cuts[i]
                alternatives = tuple(
                    Alternative(
                        utilization=alt.size,
                        cost=_milli(alt.area_flow),
                        depth=alt.depth,
                        placements=("cut",) * alt.size,
                    )
                    for alt in retained[1 : 1 + _MAX_ALTERNATIVES]
                )
                runner_up_delta = (
                    _milli(retained[1].area_flow) - _milli(cut.area_flow)
                    if len(retained) > 1
                    else None
                )
                name = order[i]
                node = subject.node(name)
                decisions.append(
                    NodeDecision(
                        node=name,
                        op=node.op,
                        fanins=node.fanin_count,
                        split=False,
                        placement="cut",
                        utilization=cut.size,
                        cost=_milli(cut.area_flow),
                        depth=cut.depth,
                        placements=("cut",) * cut.size,
                        candidates=len(retained),
                        alternatives=alternatives,
                        runner_up_delta=runner_up_delta,
                    )
                )
                if cut.size >= 2:
                    luts += 1
                depth = max(depth, cut.depth)
            self.recorder.record_tree(
                TreeDecisions(root=root, luts=luts, depth=depth, nodes=decisions)
            )


def cut_map_network(
    network: BooleanNetwork,
    k: int = 4,
    priority_size: int = DEFAULT_PRIORITY_SIZE,
    mode: str = "area",
) -> LUTCircuit:
    """Convenience wrapper around :class:`CutMapper`."""
    return CutMapper(k=k, priority_size=priority_size, mode=mode).map(network)
