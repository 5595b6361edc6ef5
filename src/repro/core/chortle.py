"""The complete Chortle mapper: forest partitioning + tree DP + emission.

``ChortleMapper(k).map(network)`` returns a :class:`~repro.core.lut.LUTCircuit`
whose root lookup tables are named after the tree-root nodes of the input
network, so per-node functions can be compared directly during
verification.
"""

from __future__ import annotations

import os
from typing import List, Optional

from repro.errors import MappingError
from repro.core.forest import build_forest, check_forest, tree_orders
from repro.core.lut import LUTCircuit
from repro.core.substrate import emit_candidate, wire_outputs
from repro.core.tree_mapper import MapCand, TreeMapper
from repro.network.network import BooleanNetwork
from repro.network.transform import sweep
from repro.obs import metrics, span

__all__ = ["ChortleMapper", "map_network"]


class ChortleMapper:
    """Area-minimizing technology mapper for K-input lookup tables.

    ``cache`` enables structural memoization of node tables (``True``
    for the shared process-wide cache, or an explicit
    :class:`~repro.perf.memo.NodeTableCache`); ``jobs`` maps forest
    trees on that many worker processes of the shared fork-once pool
    (``None`` = one per CPU).  Both are QoR-neutral: the mapped circuit
    is bit-identical to a serial, uncached run.  Under ``jobs > 1`` each
    worker uses its own process-local memo cache instead of ``cache``.

    ``recorder`` (a :class:`~repro.obs.explain.DecisionRecorder`) turns
    on decision provenance: the mapper records every tree-DP choice and
    exposes a built :class:`~repro.obs.explain.MappingExplanation` as
    :attr:`explanation` after each ``map`` call.  Recording is
    cache-exclusive (the memo cache is bypassed so records are exact and
    reproducible) and needs ``jobs=1`` — worker processes cannot stream
    decisions back.  The mapped circuit is bit-identical with recording
    on or off.
    """

    name = "chortle"  # spec name under the common Mapper protocol

    def __init__(
        self,
        k: int = 4,
        split_threshold: int = 10,
        preprocess: bool = True,
        cache=None,
        jobs: int = 1,
        recorder=None,
    ):
        if recorder is not None and jobs != 1:
            raise MappingError(
                "decision recording needs jobs=1, got jobs=%r; worker "
                "processes cannot stream decisions back" % (jobs,)
            )
        self.k = k
        self.split_threshold = split_threshold
        self.preprocess = preprocess
        from repro.perf.memo import resolve_cache

        self.cache = resolve_cache(cache)
        self.jobs = jobs
        self.recorder = recorder
        # The explanation for the most recent map() call (recorder set).
        self.explanation = None
        self._tree_mapper = TreeMapper(
            k,
            split_threshold=split_threshold,
            cache=self.cache,
            recorder=recorder,
        )

    def map(self, network: BooleanNetwork) -> LUTCircuit:
        """Map the network into a circuit of K-input lookup tables."""
        with span("chortle.map", network=network.name, k=self.k) as sp:
            net = sweep(network) if self.preprocess else network
            net.validate()
            for node in net.gates():
                if node.fanin_count < 2:
                    raise MappingError(
                        "gate %r has fanin %d; run sweep() or enable preprocess"
                        % (node.name, node.fanin_count)
                    )

            circuit = self._map_swept(net)
            sp.set("luts", circuit.cost)
            if self.recorder is not None:
                from repro.obs.explain import build_explanation

                self.explanation = build_explanation(
                    net, circuit, self.recorder, k=self.k, mapper=self.name
                )
            return circuit

    def _map_swept(self, net: BooleanNetwork) -> LUTCircuit:
        forest = build_forest(net)
        check_forest(forest)
        metrics.count("chortle.trees_mapped", len(forest.trees))
        if self.recorder is not None:
            # Explanations list trees in forest order, not by root name.
            self.recorder.set_order([tree.root for tree in forest.trees])

        circuit = LUTCircuit("%s_k%d" % (net.name, self.k))
        for name in net.inputs:
            circuit.add_input(name)

        cands = self._map_trees(net, forest.trees, tree_orders(forest))
        for tree, cand in zip(forest.trees, cands):
            emitted = emit_candidate(cand, circuit, tree.root)
            if emitted != cand.cost:
                raise MappingError(
                    "internal accounting error in tree %r: predicted %d "
                    "LUTs, emitted %d" % (tree.root, cand.cost, emitted)
                )
            metrics.count("chortle.luts_emitted", emitted)
            metrics.observe("chortle.luts_per_tree", emitted)

        wire_outputs(net, circuit)
        circuit.validate(self.k)
        return circuit

    def _map_trees(self, net: BooleanNetwork, trees, orders) -> List[MapCand]:
        """Root candidates for every tree, in forest order.

        ``orders`` carries each tree's internal nodes in topological
        order, computed once per network (``tree_orders``).  With
        ``jobs > 1`` the independent tree problems are fanned across the
        fork-once process pool; results come back in forest order, so
        the emitted circuit — names, LUT order, functions — is identical
        to a serial run.
        """
        jobs = self.jobs if self.jobs is not None else (os.cpu_count() or 1)
        if jobs <= 1 or len(trees) < 2:
            return [
                map_one_tree(self._tree_mapper, net, tree, order)
                for tree, order in zip(trees, orders)
            ]
        from repro.perf.parallel import map_trees_processes

        jobs = min(jobs, len(trees))
        with span("chortle.parallel", jobs=jobs, trees=len(trees)):
            return map_trees_processes(
                net,
                len(trees),
                k=self.k,
                split_threshold=self.split_threshold,
                jobs=jobs,
                use_shared_cache=self.cache is not None,
            )


def map_one_tree(
    tree_mapper: TreeMapper, net: BooleanNetwork, tree, order,
    worker: Optional[int] = None,
) -> MapCand:
    """One tree's root candidate, under its ``chortle.map_tree`` span.

    The serial path and the pool workers both map through here, so a
    parallel trace holds the same spans as a serial one, plus the
    ``worker`` attribute.
    """
    attrs = {"tree": tree.root, "nodes": tree.num_nodes}
    if worker is not None:
        attrs["worker"] = worker
    with span("chortle.map_tree", **attrs) as tree_sp:
        cand = tree_mapper.map_tree(net, tree, order=order)
        tree_sp.set("luts", cand.cost)
    return cand


def map_network(
    network: BooleanNetwork, k: int = 4, split_threshold: int = 10
) -> LUTCircuit:
    """Convenience wrapper around :class:`ChortleMapper`."""
    return ChortleMapper(k=k, split_threshold=split_threshold).map(network)
